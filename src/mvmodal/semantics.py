"""Kripke models, the modal evaluator, satisfaction and frame classes.

Worlds are dense 0-based indices.  Necessity evaluates to the minimum of
the operand over the successor set (label n when there are no
successors); possibility evaluates to the maximum (label 1 when there
are no successors).
"""

from __future__ import annotations

import enum
from itertools import compress
from operator import index
from random import Random
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .core import (
    Apply,
    Box,
    Connective,
    Diamond,
    Formula,
    LabelledFormula,
    Record,
    Sequent,
    Signature,
    Var,
    _set_field,
    closure_order,
)


class FrameClass(enum.Enum):
    ANY = "any"
    SERIAL = "serial"
    REFLEXIVE = "reflexive"
    TRANSITIVE = "transitive"
    SYMMETRIC = "symmetric"
    EUCLIDEAN = "euclidean"
    PREORDER = "preorder"
    EQUIVALENCE = "equivalence"


def _check_world(model: KripkeModel, world: int) -> None:
    if not 0 <= world < model.world_count:
        raise ValueError(f"unknown world {world}")


class KripkeModel(Record):
    """Worlds 0..world_count-1, an edge set, and an explicit valuation.

    The valuation maps (world, variable) pairs to labels; variables with
    no explicit entry take label 1 everywhere, so the valuation is total.
    Models are immutable after construction.

    The constructor validates the edges and the valuation.  The world
    count, world indices and labels go through operator.index, so any
    int-like value is stored as an int and a float is a TypeError.
    """

    __match_args__ = ("world_count", "edges", "vals")
    world_count: int
    edges: frozenset[tuple[int, int]]
    vals: tuple[tuple[tuple[int, str], int], ...]

    def __init__(self, world_count: int,
                 edges: Iterable[tuple[int, int]] = (),
                 vals: Union[Mapping[tuple[int, str], int],
                             Iterable[tuple[tuple[int, str], int]]] = ()):
        world_count = index(world_count)
        if world_count < 1:
            raise ValueError("a model needs at least one world")
        edge_set = frozenset((index(u), index(v)) for u, v in edges)
        for u, v in edge_set:
            if not (0 <= u < world_count and 0 <= v < world_count):
                raise ValueError(f"edge ({u}, {v}) references an undeclared world")
        val_map: dict[tuple[int, str], int] = {}
        for key, k in (vals.items() if isinstance(vals, Mapping) else vals):
            u, p = key
            world, k = index(u), index(k)
            if not 0 <= world < world_count:
                raise ValueError(f"valuation of {p!r} at undeclared world {world}")
            if k < 1:
                raise ValueError(f"valuation label must be >= 1, got {k}")
            # an int world keeps the caller's key: a fresh tuple per valuation
            # makes the garbage collector run more often on large models
            val_map[key if type(u) is int else (world, p)] = k
        _set_field(self, "world_count", world_count)
        _set_field(self, "edges", edge_set)
        _set_field(self, "vals", tuple(sorted(val_map.items())))
        succ: list[set[int]] = [set() for _ in range(world_count)]
        for u, v in edge_set:
            succ[u].add(v)
        _set_field(self, "_succ", tuple(frozenset(s) for s in succ))
        _set_field(self, "_val_map", val_map)

    @property
    def worlds(self) -> range:
        return range(self.world_count)

    def successors(self, world: int) -> frozenset[int]:
        """The set of worlds reachable from `world` in one step."""
        _check_world(self, world)
        return self._succ[world]

    def value(self, world: int, variable: str) -> int:
        """Valuation lookup; unvalued variables default to label 1."""
        _check_world(self, world)
        return self._val_map.get((world, variable), 1)

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({p for (_, p) in self._val_map}))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

#: Label vectors by formula: entry w of a vector is the label at world w.
LabelVectors = dict[Formula, list[int]]


def label_vectors(sig: Signature, model: KripkeModel,
                  order: Iterable[Formula]) -> LabelVectors:
    """The label vector of each formula of `order`, in one bottom-up pass.

    `order` lists every formula after its subformulas (closure_order), so
    one call evaluates every formula of a closure at every world.
    A variable reads the valuation, a connective its table at each world,
    and Box and Dia take the minimum and maximum over the successors.
    This is the single-model evaluator: eval, sat, filtration and the
    intuitionistic semantics (intuitionistic.eval_mvil, on the formula's
    embedding) read it.  The countermodel search evaluates many models
    at once by its own bit-sliced kernel (decision._bitsliced), and this
    evaluator re-checks each countermodel it returns, independently of
    that kernel.
    """
    vectors: LabelVectors = {}
    succ = model._succ
    worlds = model.worlds
    n = sig.n
    for f in order:
        if isinstance(f, Var):
            name, val_map = f.name, model._val_map
            vec = [val_map.get((w, name), 1) for w in worlds]
            if max(vec) > n:  # the model's own check knows no signature
                w = next(w for w in worlds if vec[w] > n)
                raise ValueError(f"valuation gives {name!r} label {vec[w]} at "
                                 f"world {w}, above the domain's {n}")
        elif isinstance(f, Apply):
            conn = _checked_connective(sig, f)
            rows = zip(*[vectors[a] for a in f.args]) if f.args else [()] * len(worlds)
            vec = list(map(conn.table.__getitem__, rows))
        elif isinstance(f, (Box, Diamond)):
            pick, default = (min, n) if isinstance(f, Box) else (max, 1)
            sub = vectors[f.sub].__getitem__
            vec = [pick(map(sub, s), default=default) for s in succ]
        else:
            raise TypeError(f"not a formula: {f!r}")
        vectors[f] = vec
    return vectors


def _checked_connective(sig: Signature, f: Apply) -> Connective:
    """The signature's connective of `f`, checked against its arguments."""
    conn = sig.connective(f.conn)
    if len(f.args) != conn.arity:
        raise ValueError(f"connective {f.conn!r} expects {conn.arity} "
                         f"arguments, got {len(f.args)}")
    return conn


def _checked_labels(sig: Signature, sequents: tuple[Sequent, ...]) -> None:
    """Reject sequents with a member labelled above the domain, naming the
    largest such label; a label below 1 is LabelledFormula's error."""
    n = sig.n
    # plain loops: a generator under max() costs a small query about 1 µs
    for s in sequents:
        for side in (s.antecedent, s.succedent):
            for lf in side:
                if lf.label > n:
                    top = max(lf.label for s in sequents
                              for side in (s.antecedent, s.succedent) for lf in side)
                    raise ValueError(f"label {top} out of 1..{n}")


def evaluate(sig: Signature, model: KripkeModel, world: int, formula: Formula) -> int:
    """The label of `formula` at `world`, read from its label vector."""
    _check_world(model, world)
    return label_vectors(sig, model, closure_order((formula,)))[formula][world]


def satisfies_labelled(sig: Signature, model: KripkeModel, world: int,
                       lf: LabelledFormula) -> bool:
    """True iff the formula takes exactly the stated label at the world."""
    return evaluate(sig, model, world, lf.formula) == lf.label


def _refuted(vectors: LabelVectors, worlds: Sequence[int],
             sequent: Sequent) -> Sequence[int]:
    """The worlds, in order, where every antecedent member holds and no
    succedent member does, read from the members' label vectors.

    The worlds are filtered member by member: an antecedent member keeps
    the worlds where it takes its label, a succedent member those where
    it does not.  The test comes from the member's side, since one
    labelled formula may stand on both.
    """
    members = [(vectors[lf.formula], lf.label.__eq__) for lf in sequent.antecedent]
    members += [(vectors[lf.formula], lf.label.__ne__) for lf in sequent.succedent]
    for vec, keep in members:
        worlds = list(compress(worlds, map(keep, map(vec.__getitem__, worlds))))
        if not worlds:
            break
    return worlds


def refuting_worlds(sig: Signature, model: KripkeModel,
                    sequent: Sequent) -> Iterator[int]:
    """The worlds, in order, where every antecedent member holds and no
    succedent member does."""
    _checked_labels(sig, (sequent,))
    vectors = label_vectors(sig, model, closure_order(sequent.formulas()))
    return iter(_refuted(vectors, model.worlds, sequent))


def satisfies_sequent(sig: Signature, model: KripkeModel, world: int,
                      sequent: Sequent) -> bool:
    """True iff satisfying every antecedent member forces some succedent member."""
    _check_world(model, world)
    return world not in refuting_worlds(sig, model, sequent)


def model_satisfies(sig: Signature, model: KripkeModel,
                    sequents: Union[Sequent, Iterable[Sequent]]) -> bool:
    """Conjunction of sequent satisfaction over every world of the model.

    One label_vectors pass over the union of the sequents' closures
    evaluates each shared subformula once.
    """
    sequents = (sequents,) if isinstance(sequents, Sequent) else tuple(sequents)
    _checked_labels(sig, sequents)
    vectors = label_vectors(sig, model,
                            closure_order(f for s in sequents for f in s.formulas()))
    return not any(_refuted(vectors, model.worlds, s) for s in sequents)


# ---------------------------------------------------------------------------
# Frame classes
# ---------------------------------------------------------------------------


def successor_rows(model: KripkeModel) -> tuple[int, ...]:
    """Bitmask successor rows: bit v of row u is set iff (u, v) is an edge."""
    return tuple(sum(1 << v for v in s) for s in model._succ)


def edge_set(rows: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The edges of bitmask successor rows: the inverse of successor_rows."""
    return frozenset((u, v) for u, r in enumerate(rows) for v in _members(r))


def _members(row: int) -> Iterator[int]:
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


class _Property(NamedTuple):
    """A basic frame property on successor rows: one per pair of extension schemes."""

    holds: Callable[[Sequence[int]], bool]
    #: The least superset of the rows with the property, perhaps in place.
    #: Serial has none: each dead end gets a successor drawn from the rng.
    close: Callable[[list[int], Random], list[int]]
    #: Closed under restriction to any subset of the worlds.
    universal: bool


def _universal(gaps: Callable[[Sequence[int]], Iterator[tuple[int, int]]]) -> _Property:
    """A universal property: gaps(rows) yields (u, bits) where row u lacks
    the edges bits that the property's rule demands.  The rows have the
    property when there is no gap.  Closing adds the missing edges until
    none is missing; each is forced, so the closure is least."""
    def close(rows: list[int], rng: Random) -> list[int]:
        while missing := list(gaps(rows)):
            for u, bits in missing:
                rows[u] |= bits
        return rows
    return _Property(lambda rows: not any(gaps(rows)), close, True)


_SERIAL = _Property(all, lambda rows, rng: [r or 1 << rng.randrange(len(rows))
                                            for r in rows], False)
_REFLEXIVE = _universal(
    lambda rows: ((u, 1 << u) for u, r in enumerate(rows) if not r >> u & 1))
# every successor's successors are successors
_TRANSITIVE = _universal(
    lambda rows: ((u, rows[v]) for u, r in enumerate(rows) for v in _members(r)
                  if rows[v] | r != r))
_SYMMETRIC = _universal(
    lambda rows: ((v, 1 << u) for u, r in enumerate(rows) for v in _members(r)
                  if not rows[v] >> u & 1))
# any two successors of a world see each other
_EUCLIDEAN = _universal(
    lambda rows: ((v, r) for r in rows for v in _members(r) if r | rows[v] != rows[v]))

#: Each frame class as the basic properties it conjoins.  Closures apply in
#: this order: the later ones only add edges, which keeps reflexivity, and
#: reflexive then euclidean is an equivalence.
_FRAME_PROPERTIES: dict[FrameClass, tuple[_Property, ...]] = {
    FrameClass.ANY: (),
    FrameClass.SERIAL: (_SERIAL,),
    FrameClass.REFLEXIVE: (_REFLEXIVE,),
    FrameClass.TRANSITIVE: (_TRANSITIVE,),
    FrameClass.SYMMETRIC: (_SYMMETRIC,),
    FrameClass.EUCLIDEAN: (_EUCLIDEAN,),
    FrameClass.PREORDER: (_REFLEXIVE, _TRANSITIVE),
    FrameClass.EQUIVALENCE: (_REFLEXIVE, _EUCLIDEAN),
}


def frame_predicate(frame_class: FrameClass) -> Callable[[Sequence[int]], bool]:
    """The frame property of the class, as a test on successor rows."""
    try:
        tests = [p.holds for p in _FRAME_PROPERTIES[frame_class]]
    except KeyError:
        raise ValueError(f"unknown frame class {frame_class!r}") from None
    if len(tests) < 2:
        return tests[0] if tests else lambda rows: True
    first, second = tests  # no loop: the search tests every candidate
    return lambda rows: first(rows) and second(rows)


def frame_check(model: KripkeModel, frame_class: FrameClass) -> bool:
    """Whether the model's relation has the frame property of the class."""
    holds = frame_predicate(frame_class)
    # a class with no property holds of every relation: no rows are built
    return not _FRAME_PROPERTIES[frame_class] or holds(successor_rows(model))
