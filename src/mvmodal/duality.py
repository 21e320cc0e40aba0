"""De Morgan duality of the modal connectives through a negation table.

A candidate negation is a unary table, stored as a tuple whose entry at
position k-1 is the image of label k.  The scan refutes bad candidates
with small concrete models and keeps exactly those under which
neg-Box-neg behaves as Dia and neg-Dia-neg behaves as Box.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Union

from .core import (
    Apply,
    Box,
    Connective,
    Diamond,
    Signature,
    TruthDomain,
    Var,
    closure_order,
)
from .decision import _Budget, enumerate_models
from .semantics import FrameClass, KripkeModel, label_vectors

UnaryTable = tuple[int, ...]


_P, _NEG_P = Var("p"), Apply("neg", (Var("p"),))
#: (side, plain, dual) for the two claims, and their closure bottom-up.
_CLAIMS = (("diamond", Diamond(_P), Apply("neg", (Box(_NEG_P),))),
           ("box", Box(_P), Apply("neg", (Diamond(_NEG_P),))))
_CLAIMS_ORDER = closure_order(f for _, plain, dual in _CLAIMS for f in (plain, dual))


def reversal_negation(n: int) -> UnaryTable:
    """The order-reversing table k -> n - k + 1."""
    if n < 2:
        raise ValueError("needs a domain of at least 2 values")
    return tuple(n - k + 1 for k in range(1, n + 1))


def negation_connective(table: UnaryTable, name: str = "neg") -> Connective:
    return Connective(name, 1, {(k,): v for k, v in enumerate(table, start=1)})


@dataclass(frozen=True)
class DualityWitness:
    model: KripkeModel
    world: int
    label: int
    side: str  # "diamond" or "box": which of the two dual claims failed


@dataclass(frozen=True)
class DualityReport:
    holds: bool
    witness: Optional[DualityWitness] = None

    def __bool__(self):
        return self.holds


def duality_holds(table: UnaryTable, n: int, bound: int,
                  ceiling: Union[int, _Budget, None] = None) -> DualityReport:
    """Exhaustively test the two dual claims on all models up to `bound` worlds.

    One propositional variable suffices: the claims are value identities,
    so any refutation shows up already on a single-variable model.  With
    bound 0 no model is checked and every table passes vacuously; a
    negative bound is a ValueError.
    """
    domain = TruthDomain(n)
    try:
        # Signature checks the table: n entries, each image in 1..n
        sig = Signature(domain, {"neg": negation_connective(table)})
    except ValueError:
        raise ValueError(f"not a unary table over 1..{n}: {table}") from None
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    budget = _Budget.of(ceiling)
    for world_count in range(1, bound + 1):
        for model in enumerate_models(["p"], n, world_count, FrameClass.ANY,
                                      ceiling=budget):
            val = label_vectors(sig, model, _CLAIMS_ORDER)
            for world in model.worlds:
                for side, plain, dual in _CLAIMS:
                    left = val[plain][world]
                    right = val[dual][world]
                    if left != right:
                        # The sequent (plain, left) -> (dual, left) fails here.
                        return DualityReport(False,
                                             DualityWitness(model, world, left, side))
    return DualityReport(True)


def uniqueness_scan(n: int, bound: int,
                    ceiling: Optional[int] = None) -> tuple[UnaryTable, ...]:
    """All n^n unary tables passing duality_holds at the given bound, in order.

    `ceiling` counts the models examined over the whole scan.
    """
    if n > 6:
        raise ValueError(f"scan over {n}^{n} tables is above desk scale")
    budget = _Budget.of(ceiling)
    survivors = [table for table in product(range(1, n + 1), repeat=n)
                 if duality_holds(table, n, bound, budget)]
    return tuple(survivors)
