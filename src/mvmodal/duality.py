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
world's successor-value set.  Models come in the enumeration order of
the decision module's docstring over FrameClass.ANY: world counts 1 up
to the bound, relations in the order of their bitmask, valuations of p
in itertools.product order (world 0's label slowest), then each model's
worlds in order, the diamond claim before the box claim at a world.  A
table's first failure in that order is therefore at the first
occurrence of the first of its failing sets.  Where each set first
occurs has a closed form, so the scan builds each first occurrence
(_first_sets) and checks tables against that list.  It walks no
models, and builds one only for a witness (_witness_model).

The empty set first occurs in model 1 (one world, no edge, p = 1), at
world 0.  A set S = {s_0 < ... < s_(k-1)} of k values, 1 <= k <=
min(bound, n), first occurs at world 0 of model number

    M(k) + (2^k - 1) n^k + rank(S) + 1,

where M(k) = sum of 2^(w^2) n^w over 1 <= w < k counts the models on
fewer worlds and rank(S) = sum of (s_i - 1) n^(k-1-i) over i is the
index of S's ascending tuple among the valuations of k worlds.  That
model has k worlds and the edges (0, v) for every v < k, and p takes S's
values in ascending order.  Three facts give it:

1. A world shows at most as many values as it has successors, so a set
   of k values first occurs on k worlds.
2. Row u of a relation on k worlds is bits u*k .. u*k + k - 1 of its
   mask, so every mask below 2^k - 1 sets bits in row 0 only, and fewer
   than k of them.  The first relation with a world of k successors is
   therefore mask 2^k - 1: world 0 sees every world, no other world sees
   any, and (2^k - 1) n^k models on k worlds come before it.
3. Within that relation, world 0's successors take exactly S when p's
   labels are an ordering of S, and the first such valuation in product
   order is S in ascending order.

So the counts ascend in the order: the empty set, then by size, then
lexicographically within a size, and a limit on the count cuts the list
at the first set above it.

uniqueness_scan settles the n^n tables by a depth-first walk over
partial tables, in the backtrack scheme of Knuth (TAOCP 4B, 7.2.2).  A
set's check (_break) reads t on S, then t at min t[S] and, if the
diamond claim holds, t at max t[S]: at most |S| + 2 entries.  The walk
takes the sets in scan order.  When the check of a set reads an entry
not yet assigned, the walk branches on that entry over 1..n and checks
the set again.  Once every entry the check reads is assigned, the check
gives the same answer on every completion of the partial table, and so
does the check of each earlier set, which the partial table passed on
fewer entries.  So a set that breaks with f entries still free is the
first failing set of all n^f completions, and a partial table that
passes every set stands for n^f survivors.  The walk charges the first
count times n^f, and the second the whole scan n^f times: term by term
what a scan of the tables one by one charges.  The budget only grows,
so whether the total passes the ceiling does not depend on the order of
the walk, and the survivors, sorted, come in product order.

With bound >= 1, the empty set and every singleton come first among the
sets, and a partial table passing a singleton {k} has assigned t(k), so
a partial table passing them all is complete.  Only a ceiling can cut
the list short, at a set whose count exceeds it; the whole scan counts
at least as many models, so a partial table passing a cut list breaks
the ceiling.  Every leaf of the walk thus charges at least one model,
and the ceiling bounds the walk at any n.  A settled count is formed
only up to one factor of n past what the ceiling leaves
(_spend_settled), and the partial table holds only assigned entries.
With bound 0 no set is checked and no model counted, so nothing bounds
the n^n survivors, and n > 6 stays a ValueError there.
"""

from __future__ import annotations

from itertools import combinations, islice, product
from typing import Iterable, Iterator, NamedTuple, Optional

from .core import (
    Apply,
    Box,
    Connective,
    Diamond,
    Record,
    Signature,
    TruthDomain,
    Var,
    _set_field,
    closure_order,
)
from .decision import _Budget
from .semantics import KripkeModel, label_vectors

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


class DualityWitness(Record):
    __match_args__ = ("model", "world", "label", "side")
    model: KripkeModel
    world: int
    label: int
    side: str  # "diamond" or "box": which of the two dual claims failed

    def __init__(self, model: KripkeModel, world: int, label: int, side: str):
        _set_field(self, "model", model)
        _set_field(self, "world", world)
        _set_field(self, "label", label)
        _set_field(self, "side", side)


class DualityReport(Record):
    __match_args__ = ("holds", "witness")
    holds: bool
    witness: Optional[DualityWitness]

    def __init__(self, holds: bool, witness: Optional[DualityWitness] = None):
        _set_field(self, "holds", holds)
        _set_field(self, "witness", witness)

    def __bool__(self):
        return self.holds


class _FirstSet(NamedTuple):
    """A set of successor values at its first occurrence in the scan."""

    values: tuple[int, ...]  # ascending
    count: int  # 1-based number of its model among the scan's models


def _models_on(n: int, world_count: int) -> int:
    """How many models the scan has on exactly `world_count` worlds."""
    return (1 << world_count * world_count) * n ** world_count


def _first_sets(n: int, bound: int, limit: int) -> Iterator[_FirstSet]:
    """Each set of at most min(bound, n) successor values at its first
    occurrence, in scan order, built from the closed form of the module
    docstring; stops before the first whose model is numbered above
    `limit`."""
    if bound < 1 or limit < 1:
        return
    yield _FirstSet((), 1)
    before = 0  # models on fewer worlds: M(size)
    for size in range(1, min(bound, n) + 1):
        start = before + ((1 << size) - 1) * n ** size + 1
        for values in combinations(range(1, n + 1), size):
            rank = 0  # of `values` among the labellings of `size` worlds
            for value in values:
                rank = rank * n + value - 1
            if start + rank > limit:
                return
            yield _FirstSet(values, start + rank)
        before += _models_on(n, size)


def _witness_model(values: tuple[int, ...]) -> KripkeModel:
    """The model in which `values` first occurs, at world 0: world 0 sees
    every world and p takes the values in ascending order; the empty set
    has one world, no edge and p = 1."""
    labels = values or (1,)
    return KripkeModel(len(labels), ((0, v) for v in range(len(values))),
                       (((u, "p"), k) for u, k in enumerate(labels)))


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


def _spend_settled(budget: _Budget, count: int, n: int, free: int) -> None:
    """Spend `count` models for each of the n^free completions of a partial
    table.  The product is formed only while it stays within what the
    ceiling leaves, so a product past it is at most n times the rest."""
    left = budget.ceiling - budget.examined
    for _ in range(free):
        if count > left:
            break
        count *= n
    budget.spend(count)


def _spend_whole_scan(budget: _Budget, n: int, bound: int, free: int = 0) -> None:
    """Count every model on 1..bound worlds for each of n^free tables, one
    world count at a time, so that a bound far past the ceiling stops at
    the first count past it."""
    for world_count in range(1, bound + 1):
        _spend_settled(budget, _models_on(n, world_count), n, free)


def duality_holds(table: UnaryTable, n: int, bound: int,
                  ceiling: Optional[int] = None) -> DualityReport:
    """Exhaustively test the two dual claims on all models up to `bound` worlds.

    One propositional variable suffices: the claims are value identities,
    so any refutation shows up already on a single-variable model.  With
    bound 0 no model is checked and every table passes vacuously; a
    negative bound is a ValueError.

    The witness is the first world, in the decision module's enumeration
    order and the diamond claim before the box claim at a world, where a
    claim fails.
    Both claims at a world read only its successors' values, so the table
    is checked against each set of successor values at its first
    occurrence, built from the module docstring's closed form, and the
    witness model is built from the first set it breaks, then re-checked
    by the evaluator.
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
    budget = _Budget(ceiling)
    broken = _first_break(table, n, _first_sets(n, bound, budget.ceiling))
    if broken is None:
        _spend_whole_scan(budget, n, bound)
        return DualityReport(True)
    first, side, label = broken
    budget.spend(first.count)
    witness = DualityWitness(_witness_model(first.values), 0, label, side)
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


class _Unassigned(LookupError):
    """The walk's check read an entry of the table not assigned yet."""


class _PartialTable(dict):
    """The entries assigned so far, by 0-based position; reading another
    raises _Unassigned with its position, so _break reads a partial table
    as it reads a tuple."""

    __slots__ = ()

    def __missing__(self, position: int):
        raise _Unassigned(position)


def uniqueness_scan(n: int, bound: int,
                    ceiling: Optional[int] = None) -> tuple[UnaryTable, ...]:
    """All n^n unary tables passing duality_holds at the given bound, in
    product order.

    A depth-first walk over partial tables settles the tables by the
    sets of successor values at their first occurrences, taken lazily in
    scan order (see the module docstring): a partial table that breaks a
    set is counted with all its completions at once, and one that passes
    every set lists its completions as survivors.  `ceiling` counts the
    models examined over the whole scan, as duality_holds counts them for
    each table in turn; the count only grows, so whether it passes the
    ceiling does not depend on the order in which the tables are counted.
    At bound 0 nothing is checked and all n^n tables survive, so n > 6
    is a ValueError there.
    """
    TruthDomain(n)  # the domain check of duality_holds: n >= 2
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    if bound == 0 and n > 6:
        raise ValueError(f"scan over {n}^{n} tables is above desk scale")
    budget = _Budget(ceiling)
    sets = _first_sets(n, bound, budget.ceiling)
    firsts: list[_FirstSet] = []  # the sets drawn so far
    table = _PartialTable()
    branched: list[tuple[int, int]] = []  # (position, set index), in order
    survivors: list[UnaryTable] = []
    at = 0  # index of the set being checked
    while True:
        if at == len(firsts):
            firsts.extend(islice(sets, 1))
        if at < len(firsts):
            first = firsts[at]
            try:
                broken = _break(table, n, first.values)
            except _Unassigned as unassigned:
                position = unassigned.args[0]
                table[position] = 1
                branched.append((position, at))
                continue
            if broken is None:
                at += 1
                continue
            _spend_settled(budget, first.count, n, n - len(table))
        else:  # the partial table passes every set
            _spend_whole_scan(budget, n, bound, n - len(table))
            free = [k for k in range(n) if k not in table]
            for fill in product(range(1, n + 1), repeat=len(free)):
                table.update(zip(free, fill))
                survivors.append(tuple(table[k] for k in range(n)))
            for k in free:
                del table[k]
        while branched and table[branched[-1][0]] == n:
            del table[branched.pop()[0]]
        if not branched:
            survivors.sort()
            return tuple(survivors)
        position, at = branched[-1]
        table[position] += 1
