"""Bounded countermodel search realizing the semantic decision procedure.

A sequent is searched for countermodels over every model of the logic's
frame class with up to `bound` worlds.  Once the bound reaches the
filtration bound n^|closure|, absence of a countermodel settles validity
outright: any countermodel filters down to one of at most that many
worlds, so the bounded search is complete, and decide searches no
further than that.

Enumeration order.  World counts ascend; the models on w worlds come
relation by relation, each relation's valuations in itertools.product
order over the labels, slots (u, p) u-major over the sorted variables.
Relations of ANY come in the order of their bitmask over the pairs
(u, v), u major; those of SERIAL as the product of the non-empty
successor rows, world 0's slowest; those of the other six classes,
universal properties closed under restriction to the first worlds,
depth-first by world as _extensions grows them, kept where the class's
frame predicate (semantics.frame_predicate) holds.  Every search of
this package counts models in this order.  The search builds only the
class's relations, as bitmask successor rows (semantics.successor_rows);
the classes are defined once, in semantics' frame-class table, and edge
sets are built (semantics.edge_set) only for a model that is returned.

The search evaluates many labelled models at once, bit-sliced.  The
models of one world count w are cut into chunks (_chunks): `count`
consecutive labellings, from labelling number `start`, of each of a few
consecutive relations.  start is 0 unless a relation has more labellings
than a chunk holds; it is then split at a labelling index.  A labelled
model is a copy of w worlds, and bit

    (r * count + i) * w + u

of a chunk stands for world u in labelling start + i of the chunk's
relation r.  A formula is a dict from each label it takes to the bitset
(a Python int) of the positions where it takes it (_bitsliced).  An
atom's bitsets have a closed form (_layout): labellings come in
itertools.product order, so slot j, that is (u, p) in u-major order over
the sorted variables, is the digit of stride top^(slots - 1 - j) of the
labelling number, whose label changes every stride labellings and
repeats with period top * stride.  A connective ORs, over the rows of
its table, the AND of its arguments' bitsets for the row.  Box and Dia
go by thresholds: for each label k above the least, the result is at
least k where no successor is below k (Box) or some successor is at
least k (Dia).  World u + d of a copy lies d bits above world u, and the
edge mask E_d (_edge_masks) holds world u of each copy whose relation
has the edge (u, u + d), so the positions with a successor in a set X
are the OR over the offsets d of (X shifted down by d) & E_d.

A copy where a hypothesis fails at some world is dropped whole: the
failures are gathered at world 0 of their copy and spread to all its
worlds.  The goal's refuting positions of the copies left, in the rooted
pass only those of world 0, are the chunk's hits.  Positions ascend with
the world within a copy, and copies ascend in enumeration order
(relations in order, each relation's labellings in product order), so
the lowest set bit is the first countermodel in enumeration order, at
its first refuting world.  The ceiling is counted per chunk: a chunk
without hits spends all its copies, one with hits spends its first hit's
copy number plus one, so the count and any abort are those of a search
that draws one model at a time.  Labels are drawn from 1..min(n, R + 1),
R being the models left when the chunk's first relation starts: the
first R + 1 labellings in product order use no higher label, and the
search stops before it passes them, so nothing changes but the size of
the pool.  The witness is rebuilt as a KripkeModel from its relation's
rows and its labelling's digits, and re-checked by the single-model
evaluator (semantics.label_vectors) before it is returned
(_verify_countermodel).  The negation-duality scan
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

A process keeps two tables of relations once it has generated them
(_kept_relations, by the one rule of _kept): every class's relations on
one and two worlds, for the exhaustive pass, at most 18 per class and 75
over the eight classes; and every class's rooted frames on three and
four worlds, at most 136 and 6,752 per class and about 1 MB over all
classes.  Both are filled by the first search that walks them, not at
import, and are immutable tuples shared by every caller, as are the edge
masks of their chunks (_kept_edge_masks).  The exhaustive pass from
three worlds up, and the rooted pass from five, generate their relations
lazily, so that a ceiling abort also stops their generation.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import islice, permutations, product
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import (
    Apply,
    Box,
    Diamond,
    Formula,
    Record,
    Sequent,
    Signature,
    Var,
    _checked_connective,
    closure_order,
)
from .parser import _quote
from .proofs import LogicId
from .semantics import (
    _FRAME_PROPERTIES,
    FrameClass,
    KripkeModel,
    _checked_labels,
    _members,
    _refuted,
    edge_set,
    frame_check,
    frame_predicate,
    label_vectors,
)

ENUM_CEILING_VAR = "MVK_ENUM_CEILING"
DEFAULT_ENUM_CEILING = 10_000_000

#: Positions per chunk at most, 8 KB per bitset; a relation's later
#: labellings go into further chunks, so memory stays bounded however
#: many there are.  With more than _FEW_LABELS labels drawn, a chunk
#: holds 1/256 of that: a formula may then take a label of its own at
#: each position, so its bitsets and the thresholds of Box and Dia grow
#: with the square of the chunk.
BLOCK_WORLDS = 65536
_FEW_LABELS = 64

#: World counts from this one up are searched over rooted frames first.
_ROOTED_FROM = 3

#: The rooted pass keeps its frames up to this many worlds (_kept).
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
    if raw.strip().isdecimal():
        try:
            return int(raw)
        except ValueError:  # more digits than int() reads
            pass
    raise ValueError(f"{ENUM_CEILING_VAR} must be a non-negative integer, "
                     f"got {_quote(raw)}")


class _Budget:
    __slots__ = ("ceiling", "examined")

    def __init__(self, ceiling: Optional[int]):
        self.ceiling = default_ceiling() if ceiling is None else ceiling
        self.examined = 0

    def spend(self, count: int = 1) -> None:
        """Count `count` more models; past the ceiling, stop at it."""
        self.examined += count
        if self.examined > self.ceiling:
            raise EnumerationCeilingError(self.ceiling, self.ceiling)


class Countermodel(Record):
    __match_args__ = ("model", "world")
    model: KripkeModel
    world: int


class ValidUpTo(Record):
    __match_args__ = ("bound",)
    bound: int


class ProvedValid(Record):
    __match_args__ = ("bound",)
    bound: int


DecisionOutcome = Countermodel | ValidUpTo | ProvedValid


def filtration_bound(hypotheses: Iterable[Sequent], goal: Sequent, n: int) -> int:
    """n ** |closure|: an upper bound on the worlds of any filtered model.

    A class of value-equivalent worlds is determined by its vector of
    labels on the closure, so no filtration has more classes than there
    are vectors.
    """
    return n ** len(_closure(hypotheses, goal))


def _closure(hypotheses: Iterable[Sequent], goal: Sequent) -> tuple[Formula, ...]:
    """The closure_order of the goal's and the hypotheses' formulas."""
    return closure_order(f for s in (goal, *hypotheses) for f in s.formulas())


def _relations(world_count: int, frame_class: FrameClass
               ) -> Iterator[tuple[int, ...]]:
    """Successor rows of every relation on `world_count` worlds in the
    frame class, lazily, in enumeration order (module docstring)."""
    if not _FRAME_PROPERTIES[frame_class]:
        # the masks over the pairs (u, v), u major, in order: row 0 fastest
        for rows in product(range(1 << world_count), repeat=world_count):
            yield rows[::-1]
    elif not all(p.universal for p in _FRAME_PROPERTIES[frame_class]):
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


def _kept(world_count: int, rooted: bool) -> bool:
    """Whether a pass of the search on `world_count` worlds reads its
    relations from _kept_relations and its edge masks from
    _kept_edge_masks: the exhaustive pass below _ROOTED_FROM worlds, the
    only pass there, and the rooted pass up to _ROOTED_KEPT_UP_TO."""
    return world_count < _ROOTED_FROM or rooted and world_count <= _ROOTED_KEPT_UP_TO


@lru_cache(maxsize=None)
def _kept_relations(world_count: int, frame_class: FrameClass, rooted: bool
                    ) -> tuple[tuple[int, ...], ...]:
    """The relations of one pass (_rooted_relations or _relations),
    generated once per process and shared by every caller."""
    return tuple(_rooted_filter(world_count, frame_class) if rooted
                 else _relations(world_count, frame_class))


def _rooted_relations(world_count: int, frame_class: FrameClass
                      ) -> Iterator[tuple[int, ...]]:
    """Successor rows of one relation per isomorphism class fixing world 0
    among the class's relations on `world_count` worlds in which world 0
    reaches every world, in _relations' order.

    Kept as _kept says; from there up they are filtered lazily, so that a
    ceiling abort also stops their generation.
    """
    if _kept(world_count, rooted=True):
        return iter(_kept_relations(world_count, frame_class, True))
    return _rooted_filter(world_count, frame_class)


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


#: The bitsets of one formula over a chunk: each label it takes, to the
#: positions where it takes it.
_Bits = dict[int, int]


def _chunks(relations: Iterable[tuple[int, ...]], world_count: int,
            slot_count: int, n: int, budget: _Budget
            ) -> Iterator[tuple[tuple[tuple[int, ...], ...], int, int, int]]:
    """The relations' labelled models in chunks, as (rows, start, count, top).

    A chunk is labellings start .. start + count - 1, in product order
    over 1..top, of each relation of `rows`: all of them for several
    whole relations, or a piece of one relation too large for a chunk.
    top is min(n, R + 1), R being the models left in `budget` when the
    chunk's first relation starts (see the module docstring).  The
    caller spends `budget` on each chunk before the next is drawn.
    """
    relations = iter(relations)
    for rows in relations:
        top = min(n, budget.ceiling - budget.examined + 1)
        total = top ** slot_count
        positions = BLOCK_WORLDS if top <= _FEW_LABELS else BLOCK_WORLDS >> 8
        copies = max(1, positions // world_count)
        if 0 < total <= copies:
            yield (rows, *islice(relations, copies // total - 1)), 0, total, top
        else:
            for start in range(0, total, copies):
                yield (rows,), start, min(copies, total - start), top


@lru_cache(maxsize=32)
def _layout(world_count: int, atom_count: int, top: int, start: int,
            copies: int) -> tuple[int, int, tuple[_Bits, ...]]:
    """(full, firsts, atoms) for a chunk of `copies` copies, copy c
    carrying labelling number start + c: every position, the positions
    of world 0, and the bitsets of each atom, atoms in sorted order.

    A chunk of whole relations starts at 0 and numbers on across them;
    each relation has top^slots labellings, a multiple of every digit's
    period, so each gets labellings 0 .. top^slots - 1 of its own.
    The result is cached and shared: no caller changes its dicts.
    """
    full = (1 << copies * world_count) - 1
    firsts = full // ((1 << world_count) - 1)
    slot_count = world_count * atom_count
    atoms: list[_Bits] = [{} for _ in range(atom_count)]
    for slot in range(slot_count):
        u, atom = divmod(slot, atom_count)
        bits = atoms[atom]
        stride = top ** (slot_count - 1 - slot)
        for label, runs in _digit_runs(start, copies, stride, top,
                                       world_count, firsts).items():
            bits[label] = bits.get(label, 0) | runs << u
    return full, firsts, tuple(atoms)


def _digit_runs(start: int, copies: int, stride: int, top: int,
                world_count: int, firsts: int) -> _Bits:
    """For each label, the world-0 positions of the copies c < `copies`
    where digit (start + c) // stride % top is the label less one.

    The digit keeps its value for runs of `stride` labellings and repeats
    with period top * stride: the runs of one period are laid out, then
    doubled up to the whole chunk when it spans two periods or more.
    """
    period = stride * top
    if copies >= 2 * period:
        width = copies * world_count
        out = {}
        for label, bits in _digit_runs(start, period, stride, top,
                                       world_count, firsts).items():
            span = period * world_count
            while span < width:
                bits |= bits << span
                span *= 2
            out[label] = bits & firsts
        return out
    out = {}
    c = 0
    while c < copies:
        digit, offset = divmod(start + c, stride)
        end = min(copies, c + stride - offset)
        label = digit % top + 1
        if end - c == 1:
            run = 1 << c * world_count
        else:
            run = firsts & (1 << end * world_count) - (1 << c * world_count)
        out[label] = out.get(label, 0) | run
        c = end
    return out


def _edge_masks(chunk: Sequence[tuple[int, ...]], count: int, world_count: int
                ) -> tuple[tuple[int, int], ...]:
    """(d, E_d) for each offset d = v - u of some edge (u, v) in the chunk:
    E_d holds world u of every copy whose relation has the edge (u, u + d).

    The edges of relation r, at bit r * count * w + u, are spread to its
    `count` copies by one product with the world-0 positions of a block.
    """
    span = count * world_count
    block = ((1 << span) - 1) // ((1 << world_count) - 1)
    by_offset: dict[int, int] = {}
    for r, rows in enumerate(chunk):
        base = r * span
        for u, row in enumerate(rows):
            for v in _members(row):
                by_offset[v - u] = by_offset.get(v - u, 0) | 1 << base + u
    return tuple((d, sel * block) for d, sel in by_offset.items())


#: _edge_masks of the chunks of the passes whose relations are kept
#: (_kept): each query asks for the same chunks again.
_kept_edge_masks = lru_cache(maxsize=64)(_edge_masks)


def _bitsliced(sig: Signature, order: Sequence[Formula], atoms: dict[Var, _Bits],
               full: int, edges: Sequence[tuple[int, int]]) -> dict[Formula, _Bits]:
    """The bitsets of each formula of `order` (closure_order) over a chunk.

    `atoms` gives each variable's bitsets, `full` every position and
    `edges` the edge masks (_edge_masks).
    """
    n = sig.n

    def reach(bits: int) -> int:
        # the positions with a successor in `bits`
        out = 0
        for d, mask in edges:
            out |= (bits >> d if d >= 0 else bits << -d) & mask
        return out

    vectors: dict[Formula, _Bits] = {}
    for f in order:
        if isinstance(f, Var):
            vectors[f] = atoms[f]
        elif isinstance(f, Apply):
            table = _checked_connective(sig, f.conn, len(f.args)).table
            rows = [((), full)]
            for arg in f.args:
                rows = [(labels + (k,), both) for labels, bits in rows
                        for k, arg_bits in vectors[arg].items()
                        if (both := bits & arg_bits)]
            out: _Bits = {}
            for labels, bits in rows:
                label = table[labels]
                out[label] = out.get(label, 0) | bits
            vectors[f] = out
        elif isinstance(f, (Box, Diamond)):
            box = isinstance(f, Box)
            sub = vectors[f.sub]
            # ge: where the result is at least the current label; below:
            # where sub is below the next one
            labels = sorted({*sub, n if box else 1})
            out, ge, below = {}, full, 0
            for low, high in zip(labels, labels[1:]):
                below |= sub.get(low, 0)
                higher = full ^ reach(below) if box else reach(full ^ below)
                if higher != ge:
                    out[low] = ge ^ higher
                ge = higher
            if ge:
                out[labels[-1]] = ge
            vectors[f] = out
        else:
            raise TypeError(f"not a formula: {f!r}")
    return vectors


def _refuting(vectors: dict[Formula, _Bits], sequent: Sequent, full: int) -> int:
    """The positions where every antecedent member holds and no
    succedent member does."""
    bits = full
    for lf in sequent.antecedent:
        bits &= vectors[lf.formula].get(lf.label, 0)
    for lf in sequent.succedent:
        bits &= ~vectors[lf.formula].get(lf.label, 0)
    return bits


def _labelling(number: int, top: int, length: int) -> list[int]:
    """Labelling `number` in product order over 1..top, of `length` slots."""
    labels = []
    for _ in range(length):
        number, digit = divmod(number, top)
        labels.append(digit + 1)
    return labels[::-1]


def search_countermodel(sig: Signature, hypotheses: tuple[Sequent, ...],
                        goal: Sequent, frame_class: FrameClass, bound: int,
                        ceiling: Optional[int] = None) -> Optional[Countermodel]:
    """First model (in enumeration order) satisfying the hypotheses and
    refuting the goal at some world, searching world counts 1..bound.

    Models come in enumeration order, a chunk at a time (_chunks),
    bit-sliced, both as the module docstring describes.  From _ROOTED_FROM
    worlds up, each world count is first searched over the rooted frames
    alone, with the goal tested at world 0 of each copy; only when that
    pass finds a countermodel are all the relations on that many worlds
    searched, for the first countermodel in enumeration order.
    `ceiling` counts the models examined over all world counts and both
    passes: every copy up to a countermodel's, or the whole chunk.
    """
    return _search(sig, hypotheses, goal, frame_class, bound, ceiling,
                   _closure(hypotheses, goal))


def _search(sig: Signature, hypotheses: tuple[Sequent, ...], goal: Sequent,
            frame_class: FrameClass, bound: int, ceiling: Optional[int],
            order: Sequence[Formula]) -> Optional[Countermodel]:
    """search_countermodel, given the closure_order of the goal's and the
    hypotheses' formulas."""
    _checked_labels(sig, (goal, *hypotheses))
    atoms = sorted((f for f in order if isinstance(f, Var)),
                   key=attrgetter("name"))
    budget = _Budget(ceiling)

    def first(world_count: int, rooted: bool) -> Optional[Countermodel]:
        kept = _kept(world_count, rooted)
        if rooted:
            relations = _rooted_relations(world_count, frame_class)
        elif kept:
            relations = iter(_kept_relations(world_count, frame_class, False))
        else:
            relations = _relations(world_count, frame_class)
        edge_masks = _kept_edge_masks if kept else _edge_masks
        slots = [(u, a.name) for u in range(world_count) for a in atoms]
        whole_copy = (1 << world_count) - 1
        for chunk, start, count, top in _chunks(relations, world_count,
                                                len(slots), sig.n, budget):
            copies = len(chunk) * count
            full, firsts, atom_bits = _layout(world_count, len(atoms), top,
                                              start, copies)
            vectors = _bitsliced(sig, order, dict(zip(atoms, atom_bits)), full,
                                 edge_masks(chunk, count, world_count))
            rejected = 0
            for h in hypotheses:
                rejected |= _refuting(vectors, h, full)
            if rejected:
                marks = 0
                for u in range(world_count):
                    marks |= rejected >> u
                rejected = (marks & firsts) * whole_copy
            hits = _refuting(vectors, goal, full) & ~rejected
            if rooted:
                hits &= firsts
            if not hits:
                budget.spend(copies)
                continue
            copy, world = divmod((hits & -hits).bit_length() - 1, world_count)
            budget.spend(copy + 1)
            r, i = divmod(copy, count)
            model = KripkeModel(world_count, edge_set(chunk[r]),
                                zip(slots, _labelling(start + i, top, len(slots))))
            _verify_countermodel(sig, model, world, hypotheses, goal,
                                 frame_class, order)
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
                         frame_class: FrameClass, order: Sequence[Formula]) -> None:
    # Independent re-check by the single-model evaluator before the result
    # escapes: one label_vectors pass over the search's closure_order.
    if not frame_check(model, frame_class):
        raise AssertionError("countermodel left the frame class")
    vectors = label_vectors(sig, model, order)
    if any(_refuted(vectors, model.worlds, h) for h in hypotheses):
        raise AssertionError("countermodel does not satisfy the hypotheses")
    if not _refuted(vectors, (world,), goal):
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

    The closure of the goal and hypotheses is computed once, for the
    filtration bound, the search and the countermodel's re-check.  The
    relations on one and two worlds of every class, and the rooted
    frames on three and four, are generated by the first query that
    walks them and kept for the process (module docstring), so repeated
    calls skip rebuilding them; no ceiling count changes.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    hypotheses = tuple(hypotheses)
    order = _closure(hypotheses, goal)
    complete = sig.n ** len(order)  # filtration_bound
    found = _search(sig, hypotheses, goal, logic.frame_class,
                    min(bound, complete), ceiling, order)
    if found is not None:
        return found
    if bound >= complete:
        return ProvedValid(bound)
    return ValidUpTo(bound)
