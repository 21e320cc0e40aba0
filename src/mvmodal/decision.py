"""Bounded countermodel search realizing the semantic decision procedure.

A sequent is searched for countermodels over every model of the logic's
frame class with up to `bound` worlds.  Once the bound reaches the
filtration bound n^|closure|, absence of a countermodel settles validity
outright: any countermodel filters down to one of at most that many
worlds, so the bounded search is complete, and decide searches no
further than that.

The search builds only relations of the frame class, generated per
class as enumerate_models describes; the frame properties themselves
are defined once, in semantics.frame_predicate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .core import Sequent, Signature, closure_order, sequent_variables
from .proofs import LogicId
from .semantics import (
    FrameClass,
    KripkeModel,
    frame_check,
    frame_predicate,
    label_vectors,
    model_satisfies,
    refuting_worlds,
    satisfies_sequent,
)

ENUM_CEILING_VAR = "MVK_ENUM_CEILING"
DEFAULT_ENUM_CEILING = 10_000_000


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

    def spend(self) -> None:
        self.examined += 1
        if self.examined > self.ceiling:
            raise EnumerationCeilingError(self.ceiling, self.examined - 1)


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
               ) -> Iterator[frozenset[tuple[int, int]]]:
    """Every relation on `world_count` worlds in the frame class, lazily."""
    if frame_class is FrameClass.ANY:
        pairs = [(u, v) for u in range(world_count) for v in range(world_count)]
        for mask in range(1 << len(pairs)):
            yield frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        return
    if frame_class is FrameClass.SERIAL:
        members = product(range(1, 1 << world_count), repeat=world_count)
    else:
        members = _extensions(world_count, frame_predicate(frame_class))
    worlds = range(world_count)
    for rows in members:
        yield frozenset((u, v) for u, r in enumerate(rows) for v in worlds
                        if r >> v & 1)


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
    pairs for each relation.  The order is deterministic.
    Each relation is validated once, by the KripkeModel built for its
    first valuation; the models of its later valuations share that
    model's edge set and successor sets (KripkeModel._revalued).
    Drawing more than `ceiling` models raises EnumerationCeilingError;
    the searches in this package pass one budget to every call, so their
    ceiling counts models over the whole search.
    """
    if world_count < 1:
        raise ValueError("world_count must be >= 1")
    variables = sorted(set(variables))
    budget = _Budget.of(ceiling)
    slots = [(u, p) for u in range(world_count) for p in variables]
    for edges in _relations(world_count, frame_class):
        model = None
        for labels in product(range(1, n + 1), repeat=len(slots)):
            budget.spend()
            # slots are u-major over sorted variables: vals is sorted
            vals = tuple(zip(slots, labels))
            model = (KripkeModel(world_count, edges, vals) if model is None
                     else model._revalued(vals))
            yield model


def search_countermodel(sig: Signature, hypotheses: tuple[Sequent, ...],
                        goal: Sequent, frame_class: FrameClass, bound: int,
                        ceiling: Optional[int] = None) -> Optional[Countermodel]:
    """First model (in enumeration order) satisfying the hypotheses and
    refuting the goal at some world, searching world counts 1..bound.

    `ceiling` counts the models examined over all world counts.  Each
    model's label vectors are computed once, over the whole closure, and
    both the hypotheses and the goal are read off them.
    """
    variables = sorted(sequent_variables((goal, *hypotheses)))
    order = closure_order(f for s in (goal, *hypotheses) for f in s.formulas())
    budget = _Budget.of(ceiling)
    for world_count in range(1, bound + 1):
        for model in enumerate_models(variables, sig.n, world_count,
                                      frame_class, ceiling=budget):
            cache = label_vectors(sig, model, order)
            if hypotheses and not model_satisfies(sig, model, hypotheses, cache):
                continue
            world = next(refuting_worlds(sig, model, goal, cache), None)
            if world is not None:
                _verify_countermodel(sig, model, world, hypotheses, goal,
                                     frame_class)
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
