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

from .core import Apply, Box, Connective, Diamond, Var, make_signature
from .decision import _Budget, enumerate_models
from .semantics import FrameClass, KripkeModel, evaluate

UnaryTable = tuple[int, ...]


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
    bound 0 no model is checked and every table passes vacuously.
    """
    if len(table) != n or any(not 1 <= v <= n for v in table):
        raise ValueError(f"not a unary table over 1..{n}: {table}")
    budget = _Budget.of(ceiling)
    sig = make_signature(n, [negation_connective(table)])
    p = Var("p")

    def neg(f):
        return Apply("neg", (f,))

    claims = (
        ("diamond", Diamond(p), neg(Box(neg(p)))),
        ("box", Box(p), neg(Diamond(neg(p)))),
    )
    for world_count in range(1, bound + 1):
        for model in enumerate_models(["p"], n, world_count, FrameClass.ANY,
                                      ceiling=budget):
            cache: dict = {}
            for world in model.worlds:
                for side, plain, dual in claims:
                    left = evaluate(sig, model, world, plain, cache)
                    right = evaluate(sig, model, world, dual, cache)
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
