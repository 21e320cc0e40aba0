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
(duality.uniqueness_scan) counts models in the same order but walks
none: it builds where each set of successor values first occurs.

From three worlds up the search first walks rooted frames only.  Box and
Dia at a world read only its successors, so the submodel generated by a
world u (the worlds u reaches, with the relation and valuation
restricted to them) gives every formula at every one of its worlds the
label it has in the whole model.  So if a model refutes the goal at u
and satisfies the global hypotheses at every world, the submodel
generated by u refutes the goal at u and satisfies the hypotheses at
every world too.  All seven frame classes are closed under generated
submodels (Blackburn, de Rijke & Venema, Modal Logic, 2001, section
2.1), so that submodel is in the logic's class.  If w is the fewest
worlds of any countermodel, the submodel generated by its refuting world
therefore has all w worlds: relabelled so that the refuting world is 0,
it is a countermodel on a frame where world 0 reaches every world,
refuting at 0.  Relabelling the worlds other than 0 carries it onto any
frame isomorphic to it by a map fixing 0, with the valuation carried
along.  So, once no world count below w has a countermodel, world count
w has one if and only if some valuation of one frame per isomorphism
class fixing 0 among the rooted frames (_rooted_relations) refutes the
goal at world 0.  The rooted pass decides that, testing the goal at
world 0 of each copy only and the hypotheses at every world.  When it
finds a countermodel, the exhaustive pass over every relation runs at
that same world count and returns its first countermodel, so the
witness is the first in enumeration order, as without the rooted pass.
One and two worlds are searched exhaustively only: there the rooted
frames are too large a share of all frames to pay for a second pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, permutations, product
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
    refuting_among,
    refuting_worlds,
    satisfies_sequent,
    stacked_frame,
)

ENUM_CEILING_VAR = "MVK_ENUM_CEILING"
DEFAULT_ENUM_CEILING = 10_000_000

#: Worlds per stacked frame at most; a relation's later valuations go
#: into further blocks, so memory stays bounded however many there are.
BLOCK_WORLDS = 4096

#: World counts from this one up are searched over rooted frames first.
_ROOTED_FROM = 3

#: Rooted frames on up to this many worlds are kept once generated: at
#: most 6,752 relations per class, about 1 MB over all seven classes.
_ROOTED_KEPT_UP_TO = 4


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
    if not raw.strip().isdecimal():
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


def _rooted_relations(world_count: int, frame_class: FrameClass
                      ) -> Iterator[tuple[int, ...]]:
    """Successor rows of one relation per isomorphism class fixing world 0
    among the class's relations on `world_count` worlds in which world 0
    reaches every world, in _relations' order.

    Up to _ROOTED_KEPT_UP_TO worlds the relations are filtered once per
    process and kept; from there up they are filtered lazily, so that a
    ceiling abort also stops their generation.
    """
    if world_count <= _ROOTED_KEPT_UP_TO:
        return iter(_kept_rooted_relations(world_count, frame_class))
    return _rooted_filter(world_count, frame_class)


@lru_cache(maxsize=None)
def _kept_rooted_relations(world_count: int, frame_class: FrameClass
                           ) -> tuple[tuple[int, ...], ...]:
    return tuple(_rooted_filter(world_count, frame_class))


def _rooted_filter(world_count: int, frame_class: FrameClass
                   ) -> Iterator[tuple[int, ...]]:
    """_rooted_relations, lazily: the class's relations filtered by
    reachability first, as it is the cheaper test, then by keeping those
    whose rows are the lexicographic minimum over the relabellings of
    the worlds other than 0."""
    full = (1 << world_count) - 1
    relabellings = _relabellings(world_count)
    for rows in _relations(world_count, frame_class):
        seen = frontier = 1
        while frontier:
            reached = 0
            for u, row in enumerate(rows):
                if frontier >> u & 1:
                    reached |= row
            frontier = reached & ~seen
            seen |= reached
        if seen == full and not any(
                tuple(map(image.__getitem__, map(rows.__getitem__, source))) < rows
                for image, source in relabellings):
            yield rows


@lru_cache(maxsize=None)
def _relabellings(world_count: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each permutation of the worlds fixing 0, but the identity, as
    (image, source): image[row] is the row with bit u moved to bit
    perm[u], and source[perm[u]] is u, so the relabelled rows are
    image[rows[source[v]]] for each world v in order."""
    out = []
    for rest in islice(permutations(range(1, world_count)), 1, None):
        perm = (0, *rest)
        image = tuple(sum(1 << perm[u] for u in range(world_count) if row >> u & 1)
                      for row in range(1 << world_count))
        source = tuple(sorted(range(world_count), key=perm.__getitem__))
        out.append((image, source))
    return tuple(out)


def _valuations(variables: Sequence[str], n: int, world_count: int,
                budget: _Budget
                ) -> tuple[list[tuple[int, str]], Iterator[tuple[int, ...]]]:
    """The slots (world, variable) and every labelling of them, in order.

    Slots are u-major over the sorted `variables`, so zipping a labelling
    with the slots gives a sorted valuation; labellings come in
    itertools.product order.  With R models left in `budget`, labels are
    drawn from 1..min(n, R + 1) only: the first R + 1 labellings in that
    order use no higher label, and the search stops before the next one,
    so nothing changes but the size of the pool product copies.
    """
    slots = [(u, p) for u in range(world_count) for p in variables]
    top = min(n, budget.ceiling - budget.examined + 1)
    return slots, product(range(1, top + 1), repeat=len(slots))


def _blocks(atoms: Sequence[Var], n: int, world_count: int,
            frame_class: FrameClass, budget: _Budget,
            relations: Callable[[int, FrameClass], Iterable[tuple[int, ...]]]
            = _relations) -> Iterator[tuple]:
    """Each relation's valuations in blocks of at most BLOCK_WORLDS worlds.

    The relations are those `relations` yields for the world count and
    class: _relations, or _rooted_relations for the rooted pass.  The
    caller spends `budget` on each block before the next is drawn.
    Yields (rows, slots, block, stacked, cache) per block: the relation's
    successor rows, the slots of _valuations over the sorted `atoms`, the
    block's labellings in order, the frame stacked once per labelling
    (stacked_frame), and a label-vector cache seeded with each atom's
    vector over the stacked worlds.  Copy i carries block[i].
    """
    per_block = max(1, BLOCK_WORLDS // world_count)
    stride = len(atoms)
    for rows in relations(world_count, frame_class):
        slots, labellings = _valuations([a.name for a in atoms], n, world_count,
                                        budget)
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
        slots, labellings = _valuations(variables, n, world_count, budget)
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
    copy not rejected gives the countermodel.  From _ROOTED_FROM worlds
    up, each world count is first searched over the rooted frames alone,
    with the goal tested at world 0 of each copy (see the module
    docstring); only when that pass finds a countermodel are all the
    relations on that many worlds searched, for the first countermodel
    in enumeration order.  `ceiling` counts the models examined over
    all world counts and both passes: every copy up to a countermodel's,
    or the whole block.
    """
    order = closure_order(f for s in (goal, *hypotheses) for f in s.formulas())
    atoms = sorted((f for f in order if isinstance(f, Var)),
                   key=attrgetter("name"))
    budget = _Budget.of(ceiling)

    def first(world_count: int, rooted: bool) -> Optional[Countermodel]:
        for rows, slots, block, stacked, cache in _blocks(
                atoms, sig.n, world_count, frame_class, budget,
                _rooted_relations if rooted else _relations):
            label_vectors(sig, stacked, order, cache)
            rejected = {w // world_count for h in hypotheses
                        for w in refuting_worlds(sig, stacked, h, cache)}
            worlds = range(0, stacked.world_count, world_count if rooted else 1)
            found = next((w for w in refuting_among(cache, goal, worlds)
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

    for world_count in range(1, bound + 1):
        rooted = world_count >= _ROOTED_FROM
        if rooted and first(world_count, rooted=True) is None:
            continue
        found = first(world_count, rooted=False)
        if found is not None:
            return found
        if rooted:
            raise AssertionError(f"a rooted countermodel on {world_count} "
                                 "worlds, but none in the exhaustive order")
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
