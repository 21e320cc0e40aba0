"""De Morgan duality of the modal connectives through a negation table.

A candidate negation is a unary table, stored as a tuple whose entry at
position k-1 is the image of label k.  The scan refutes bad candidates
with small concrete models and keeps exactly those under which
neg-Box-neg behaves as Dia and neg-Dia-neg behaves as Box.

Both claims at a world read only S, the set of values p takes at the
world's successors.  With t the table:

    Dia p = max S (1 when S is empty),  neg Box neg p = t(min t[S]) (t(n) when empty),
    Box p = min S (n when empty),       neg Dia neg p = t(max t[S]) (t(1) when empty).

So a table breaks a claim at a world exactly when it breaks it on that
world's successor-value set.  Models come in enumerate_models' order
over FrameClass.ANY, world counts 1 up to the bound, each model's worlds
in order, the diamond claim before the box claim at a world.  A table's
first failure in that order is therefore at the first occurrence of the
first of its failing sets.  The scan walks the models once, recording
each set at its first occurrence (_first_sets, at most 2^n of them), and
checks every table against that list; no model is built per table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional, Union

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
from .decision import _Budget, _relations
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


class _FirstSet(NamedTuple):
    """A set of successor values at its first occurrence in the scan."""

    values: tuple[int, ...]  # ascending
    count: int  # 1-based number of its model among the scan's models
    world_count: int
    rows: tuple[int, ...]  # successor rows of the model's relation
    labels: tuple[int, ...]  # p at each world of the model
    world: int


def _first_sets(n: int, bound: int, limit: int) -> Iterator[_FirstSet]:
    """Each set of successor values at its first occurrence, in scan order.

    Stops once every set of at most min(bound, n) values has occurred, or
    before the first model numbered above `limit`.  A relation's worlds
    with k successors take every non-empty set of at most k values, and a
    world without successors the empty set, so a relation or a world count
    that can show no new set is counted without walking its valuations.
    """
    missing = [comb(n, k) for k in range(min(bound, n) + 1)]  # unseen per size
    seen: set[tuple[int, ...]] = set()
    before = 0  # models on fewer worlds
    for world_count in range(1, bound + 1):
        per_relation = n ** world_count
        for index, rows in enumerate(_relations(world_count, FrameClass.ANY)):
            if not any(missing[:world_count + 1]):
                break
            start = before + index * per_relation
            if start >= limit:
                return
            succ = [[v for v in range(world_count) if row >> v & 1] for row in rows]
            reach = max(map(len, succ))
            empty = not all(succ)

            def fresh() -> bool:
                return (empty and missing[0] > 0) or any(missing[1:reach + 1])

            if not fresh():
                continue
            labellings = product(range(1, n + 1), repeat=world_count)
            for count, labels in enumerate(labellings, start=start + 1):
                if count > limit:
                    return
                for world, among in enumerate(succ):
                    values = tuple(sorted({labels[v] for v in among}))
                    if values not in seen:
                        seen.add(values)
                        missing[len(values)] -= 1
                        yield _FirstSet(values, count, world_count, rows,
                                        labels, world)
                if not fresh():
                    break
        if not any(missing):
            return
        before += (1 << world_count * world_count) * per_relation


def _break(table: UnaryTable, n: int, values: tuple[int, ...]
           ) -> Optional[tuple[str, int]]:
    """(side, label) of the first claim the table breaks at a world whose
    successors take `values`, diamond first, or None; label is the
    plain side's value."""
    negs = [table[k - 1] for k in values]
    dia = values[-1] if values else 1
    if dia != table[min(negs, default=n) - 1]:
        return "diamond", dia
    box = values[0] if values else n
    if box != table[max(negs, default=1) - 1]:
        return "box", box
    return None


def _first_break(table: UnaryTable, n: int, firsts: Iterable[_FirstSet]
                 ) -> Optional[tuple[_FirstSet, str, int]]:
    for first in firsts:
        broken = _break(table, n, first.values)
        if broken is not None:
            return (first, *broken)
    return None


def _spend_whole_scan(budget: _Budget, n: int, bound: int) -> None:
    """Count every model on 1..bound worlds, one world count at a time, so
    that a bound far past the ceiling stops at the first count past it."""
    for world_count in range(1, bound + 1):
        budget.spend((1 << world_count * world_count) * n ** world_count)


def duality_holds(table: UnaryTable, n: int, bound: int,
                  ceiling: Union[int, _Budget, None] = None) -> DualityReport:
    """Exhaustively test the two dual claims on all models up to `bound` worlds.

    One propositional variable suffices: the claims are value identities,
    so any refutation shows up already on a single-variable model.  With
    bound 0 no model is checked and every table passes vacuously; a
    negative bound is a ValueError.

    The witness is the first world, in enumerate_models' order and the
    diamond claim before the box claim at a world, where a claim fails.
    Both claims at a world read only its successors' values, so the table
    is checked against each set of successor values at its first
    occurrence (see the module docstring), and the witness model is built
    from the first set it breaks, then re-checked by the evaluator.
    `ceiling` counts the models up to the witness's, or every model of
    the scan.
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
    broken = _first_break(table, n, _first_sets(n, bound,
                                                budget.ceiling - budget.examined))
    if broken is None:
        _spend_whole_scan(budget, n, bound)
        return DualityReport(True)
    first, side, label = broken
    budget.spend(first.count)
    model = KripkeModel(first.world_count, edge_set(first.rows),
                        (((u, "p"), k) for u, k in enumerate(first.labels)))
    witness = DualityWitness(model, first.world, label, side)
    _verify_witness(sig, witness)
    return DualityReport(False, witness)


def _verify_witness(sig: Signature, witness: DualityWitness) -> None:
    # Independent re-check with a fresh evaluation before the result escapes.
    val = label_vectors(sig, witness.model, _CLAIMS_ORDER)
    plain, dual = next((plain, dual) for side, plain, dual in _CLAIMS
                       if side == witness.side)
    # The sequent (plain, label) -> (dual, label) must fail at the world.
    if (val[plain][witness.world] != witness.label
            or val[dual][witness.world] == witness.label):
        raise AssertionError("duality witness does not break the claim")


def uniqueness_scan(n: int, bound: int,
                    ceiling: Optional[int] = None) -> tuple[UnaryTable, ...]:
    """All n^n unary tables passing duality_holds at the given bound, in order.

    The scan's sets of successor values are collected once and every
    table is checked against them (see the module docstring).  `ceiling`
    counts the models examined over the whole scan, as duality_holds
    counts them for each table in turn.
    """
    if n > 6:
        raise ValueError(f"scan over {n}^{n} tables is above desk scale")
    TruthDomain(n)  # the domain check of duality_holds: n >= 2
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    budget = _Budget.of(ceiling)
    firsts = list(_first_sets(n, bound, budget.ceiling))
    survivors = []
    for table in product(range(1, n + 1), repeat=n):
        broken = _first_break(table, n, firsts)
        if broken is None:
            _spend_whole_scan(budget, n, bound)
            survivors.append(table)
        else:
            budget.spend(broken[0].count)
    return tuple(survivors)
