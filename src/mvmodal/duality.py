"""De Morgan duality of the modal connectives through a negation table.

A candidate negation is a unary table, stored as a tuple whose entry at
position k-1 is the image of label k.  The scan refutes bad candidates
with small concrete models and keeps exactly those under which
neg-Box-neg behaves as Dia and neg-Dia-neg behaves as Box.  It walks
the models in the blocks of the countermodel search (decision._blocks),
one relation's valuations stacked per block.
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
from .decision import _blocks, _Budget
from .semantics import FrameClass, KripkeModel, edge_set, label_vectors

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

    Models come in enumerate_models' order, a block at a time: the first
    world, copy by copy, where a claim fails gives the witness, the
    diamond claim before the box claim at a world.  `ceiling` counts the
    models up to the witness's, or every model of the scan.
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
        for rows, slots, block, stacked, cache in _blocks([_P], n, world_count,
                                                          FrameClass.ANY):
            val = label_vectors(sig, stacked, _CLAIMS_ORDER, cache)
            claims = [(side, val[plain], val[dual]) for side, plain, dual in _CLAIMS]
            broken = next(((w, side, left[w]) for w in stacked.worlds
                           for side, left, right in claims if left[w] != right[w]),
                          None)
            if broken is None:
                budget.spend(len(block))
                continue
            w, side, label = broken
            copy, world = divmod(w, world_count)
            budget.spend(copy + 1)
            model = KripkeModel(world_count, edge_set(rows), zip(slots, block[copy]))
            # The sequent (plain, label) -> (dual, label) fails here.
            return DualityReport(False, DualityWitness(model, world, label, side))
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
