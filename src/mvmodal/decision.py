"""Bounded countermodel search realizing the semantic decision procedure.

A sequent is searched for countermodels over every model of the logic's
frame class with up to `bound` worlds.  Once the bound reaches the
filtration bound n^|closure|, absence of a countermodel settles validity
outright: any countermodel filters down to one of at most that many
worlds, so the bounded search is complete, and decide searches no
further than that.

The search builds only relations of the frame class, generated per
class as enumerate_models describes and carried as bitmask successor
rows (semantics.successor_rows); the frame properties themselves are
defined once, in semantics.frame_predicate.  Edge sets are built from
the rows (semantics.edge_set) only for a model that is returned.

Box and Dia read only a world's successors, so a world's labels are the
same in a model and in any disjoint union that contains it.  The search
therefore evaluates the valuations of one relation together: a block of
consecutive valuations (in enumerate_models' order) is one stacked
frame (semantics.stacked_frame), copy i of the relation carrying
valuation i, and one pass of the evaluator labels every copy.  The
stacked frame keeps only the relation's own successor sets: copy i of
world u sees copy i of u's successors, so the evaluator takes Box and
Dia of all copies of u at once, elementwise over the columns of copies
of those successors.  The sequent checks then filter the block's worlds
member by member (semantics.refuting_worlds).  Copies keep the
valuation order and worlds keep their order within a copy, so the first
countermodel read off the blocks is the first in enumeration order, and
the ceiling still counts models one by one.  The negation-duality scan
(duality.duality_holds) walks the same blocks (_blocks).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, islice, product
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .core import Sequent, Signature, Var, closure_order
from .proofs import LogicId
from .semantics import (
    FrameClass,
    KripkeModel,
    edge_set,
    frame_check,
    frame_predicate,
    label_vectors,
    model_satisfies,
    refuting_worlds,
    satisfies_sequent,
    stacked_frame,
)

ENUM_CEILING_VAR = "MVK_ENUM_CEILING"
DEFAULT_ENUM_CEILING = 10_000_000

#: Worlds per stacked frame at most; a relation's later valuations go
#: into further blocks, so memory stays bounded however many there are.
BLOCK_WORLDS = 4096


class EnumerationCeilingError(Exception):
    """Raised when a search would enumerate more models than allowed."""

    def __init__(self, ceiling: int, examined: int):
        super().__init__(f"enumeration ceiling {ceiling} reached "
                         f"after {examined} models")
        self.ceiling = ceiling
        self.examined = examined


def default_ceiling() -> int:
    raw = os.environ.get(ENUM_CEILING_VAR)
    if not raw:
        return DEFAULT_ENUM_CEILING
    if not raw.strip().isdigit():
        raise ValueError(f"{ENUM_CEILING_VAR} must be a non-negative integer, "
                         f"got {raw!r}")
    return int(raw)


class _Budget:
    __slots__ = ("ceiling", "examined")

    def __init__(self, ceiling: int):
        self.ceiling = ceiling
        self.examined = 0

    @classmethod
    def of(cls, ceiling: Union[int, _Budget, None]) -> _Budget:
        """A fresh budget for a model count, or the given budget to share."""
        if isinstance(ceiling, _Budget):
            return ceiling
        return cls(default_ceiling() if ceiling is None else ceiling)

    def spend(self, count: int = 1) -> None:
        """Count `count` more models; past the ceiling, stop at it."""
        self.examined += count
        if self.examined > self.ceiling:
            raise EnumerationCeilingError(self.ceiling, self.ceiling)


@dataclass(frozen=True)
class Countermodel:
    model: KripkeModel
    world: int


@dataclass(frozen=True)
class ValidUpTo:
    bound: int


@dataclass(frozen=True)
class ProvedValid:
    bound: int


DecisionOutcome = Union[Countermodel, ValidUpTo, ProvedValid]


def filtration_bound(hypotheses: Iterable[Sequent], goal: Sequent, n: int) -> int:
    """n ** |closure|: an upper bound on the worlds of any filtered model.

    A class of value-equivalent worlds is determined by its vector of
    labels on the closure, so no filtration has more classes than there
    are vectors.
    """
    return n ** len(closure_order(f for s in (goal, *hypotheses)
                                  for f in s.formulas()))


def _relations(world_count: int, frame_class: FrameClass
               ) -> Iterator[tuple[int, ...]]:
    """Successor rows of every relation on `world_count` worlds in the
    frame class, lazily."""
    if frame_class is FrameClass.ANY:
        # row u of mask m is bits u*w .. u*w + w - 1: pairs (u, v), u major
        full = (1 << world_count) - 1
        shifts = range(0, world_count * world_count, world_count)
        for mask in range(1 << world_count * world_count):
            yield tuple(mask >> shift & full for shift in shifts)
    elif frame_class is FrameClass.SERIAL:
        yield from product(range(1, 1 << world_count), repeat=world_count)
    else:
        yield from _extensions(world_count, frame_predicate(frame_class))


def _extensions(world_count: int, holds: Callable[[Sequence[int]], bool]
                ) -> Iterator[tuple[int, ...]]:
    """Successor rows of every relation on `world_count` worlds passing `holds`.

    Valid only for a class closed under restriction to the first worlds,
    so that every member restricts to a member on one world fewer: each
    such member is extended by the new world's in-column, out-row and
    loop, and an extension is kept when `holds` passes.  Depth-first, so
    memory stays O(world_count^2) however many members there are.
    """
    if world_count == 0:
        yield ()
        return
    new = world_count - 1
    for rows in _extensions(new, holds):
        for col in range(1 << new):
            grown = tuple(r | (col >> u & 1) << new for u, r in enumerate(rows))
            for out in range(1 << world_count):
                candidate = (*grown, out)
                if holds(candidate):
                    yield candidate


def _valuations(variables: Sequence[str], n: int, world_count: int
                ) -> tuple[list[tuple[int, str]], Iterator[tuple[int, ...]]]:
    """The slots (world, variable) and every labelling of them, in order.

    Slots are u-major over the sorted `variables`, so zipping a labelling
    with the slots gives a sorted valuation; labellings come in
    itertools.product order.
    """
    slots = [(u, p) for u in range(world_count) for p in variables]
    return slots, product(range(1, n + 1), repeat=len(slots))


def _blocks(atoms: Sequence[Var], n: int, world_count: int,
            frame_class: FrameClass) -> Iterator[tuple]:
    """Each relation's valuations in blocks of at most BLOCK_WORLDS worlds.

    Yields (rows, slots, block, stacked, cache) per block: the relation's
    successor rows, the slots of _valuations over the sorted `atoms`, the
    block's labellings in order, the frame stacked once per labelling
    (stacked_frame), and a label-vector cache seeded with each atom's
    vector over the stacked worlds.  Copy i carries block[i].
    """
    per_block = max(1, BLOCK_WORLDS // world_count)
    stride = len(atoms)
    for rows in _relations(world_count, frame_class):
        slots, labellings = _valuations([a.name for a in atoms], n, world_count)
        while block := list(islice(labellings, per_block)):
            labels = list(chain.from_iterable(block))
            cache = {atom: labels[j::stride] for j, atom in enumerate(atoms)}
            yield rows, slots, block, stacked_frame(rows, len(block)), cache


def enumerate_models(variables: Iterable[str], n: int, world_count: int,
                     frame_class: FrameClass,
                     ceiling: Union[int, _Budget, None] = None
                     ) -> Iterator[KripkeModel]:
    """Every model with exactly `world_count` worlds in the frame class.

    Relations come from a generator per class, and nothing outside the
    class is built.  ANY runs through every subset of the world square
    in the order of its bitmask over the pairs (u, v), u major.  SERIAL
    is the product of the non-empty successor rows, world 0's slowest.
    The other six classes are universal properties, closed under
    restriction to the first k worlds, so each member on w worlds is a
    member on w - 1 worlds extended by the last world's in-column,
    out-row and loop: these are generated depth-first by world and kept
    when the class's frame predicate (semantics.frame_predicate) holds.
    Valuations range over all label assignments to (world, variable)
    pairs for each relation.  The order is deterministic, and it is the
    order in which the searches of this package walk the models.  Every
    model is built, and validated, by the KripkeModel constructor.
    Drawing more than `ceiling` models raises EnumerationCeilingError.
    """
    if world_count < 1:
        raise ValueError("world_count must be >= 1")
    variables = sorted(set(variables))
    budget = _Budget.of(ceiling)
    for rows in _relations(world_count, frame_class):
        edges = edge_set(rows)
        slots, labellings = _valuations(variables, n, world_count)
        for labels in labellings:
            budget.spend()
            yield KripkeModel(world_count, edges, zip(slots, labels))


def search_countermodel(sig: Signature, hypotheses: tuple[Sequent, ...],
                        goal: Sequent, frame_class: FrameClass, bound: int,
                        ceiling: Optional[int] = None) -> Optional[Countermodel]:
    """First model (in enumeration order) satisfying the hypotheses and
    refuting the goal at some world, searching world counts 1..bound.

    Models come in enumerate_models' order, a block of one relation's
    valuations at a time (_blocks).  A block's label vectors are computed
    once, over the whole closure.  A copy is rejected when a hypothesis
    fails at one of its worlds, and the first goal-refuting world of a
    copy not rejected gives the countermodel.  `ceiling` counts the
    models examined over all world counts: every copy up to the
    countermodel's, or the whole block.
    """
    order = closure_order(f for s in (goal, *hypotheses) for f in s.formulas())
    atoms = sorted((f for f in order if isinstance(f, Var)),
                   key=attrgetter("name"))
    budget = _Budget.of(ceiling)
    for world_count in range(1, bound + 1):
        for rows, slots, block, stacked, cache in _blocks(atoms, sig.n, world_count,
                                                          frame_class):
            label_vectors(sig, stacked, order, cache)
            rejected = {w // world_count for h in hypotheses
                        for w in refuting_worlds(sig, stacked, h, cache)}
            found = next((w for w in refuting_worlds(sig, stacked, goal, cache)
                          if w // world_count not in rejected), None)
            if found is None:
                budget.spend(len(block))
                continue
            copy, world = divmod(found, world_count)
            budget.spend(copy + 1)
            model = KripkeModel(world_count, edge_set(rows), zip(slots, block[copy]))
            _verify_countermodel(sig, model, world, hypotheses, goal, frame_class)
            return Countermodel(model, world)
    return None


def _verify_countermodel(sig: Signature, model: KripkeModel, world: int,
                         hypotheses: tuple[Sequent, ...], goal: Sequent,
                         frame_class: FrameClass) -> None:
    # Independent re-check with fresh caches before the result escapes.
    if not frame_check(model, frame_class):
        raise AssertionError("countermodel left the frame class")
    if hypotheses and not model_satisfies(sig, model, hypotheses):
        raise AssertionError("countermodel does not satisfy the hypotheses")
    if satisfies_sequent(sig, model, world, goal):
        raise AssertionError("countermodel fails to refute the goal")


def decide(sig: Signature, hypotheses: Iterable[Sequent], goal: Sequent,
           logic: LogicId, bound: int,
           ceiling: Optional[int] = None) -> DecisionOutcome:
    """Search the logic's frame class up to `bound` worlds.

    Returns the first countermodel found, ValidUpTo(bound) when none
    exists within the bound, or ProvedValid(bound) when the bound covers
    the filtration bound.  Any countermodel filters down to one of at
    most that many worlds in the same frame class, so the search stops
    at min(bound, filtration_bound): the first countermodel and the
    verdict are those of the full search, and the ceiling counts only
    the models actually examined.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    hypotheses = tuple(hypotheses)
    complete = filtration_bound(hypotheses, goal, sig.n)
    found = search_countermodel(sig, hypotheses, goal, logic.frame_class,
                                min(bound, complete), ceiling)
    if found is not None:
        return found
    if bound >= complete:
        return ProvedValid(bound)
    return ValidUpTo(bound)
