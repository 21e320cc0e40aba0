"""Kripke models, the modal evaluator, satisfaction and frame classes.

Worlds are dense 0-based indices.  Necessity evaluates to the minimum of
the operand over the successor set (label n when there are no
successors); possibility evaluates to the maximum (label 1 when there
are no successors).

The semantics is local: Box and Dia at a world read only its
successors, so a formula of modal depth d at world w depends only on
the worlds within d steps of w (the generated-submodel lemma).  A
question about one world (`evaluate`, `satisfies_labelled`,
`satisfies_sequent`) is therefore answered by a label_vectors pass
rooted there, which evaluates each formula only on the worlds within
its modal height of the root.  Questions about every world
(`refuting_worlds`, `model_satisfies`) and the other layers' calls
evaluate the whole model.  A variable labelled above the domain is an
error either way, naming the first such world by index, even one the
rooted pass never reaches.
"""

from __future__ import annotations

import enum
from itertools import compress, islice
from operator import index, itemgetter
from random import Random
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from .core import (
    Apply,
    Box,
    Diamond,
    Formula,
    LabelledFormula,
    Record,
    Sequent,
    Signature,
    Var,
    _checked_connective,
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


def _successors(world_count: int, edge_set: frozenset[tuple[int, int]],
                exact: bool) -> Optional[list[set[int]]]:
    """Each world's successors.  An end outside the worlds is a
    ValueError; with `exact`, an edge that is not a pair of exact ints
    within the worlds gives None instead, so that the caller's
    operator.index raises a TypeError first."""
    succ: list[set[int]] = [set() for _ in range(world_count)]
    for u, v in edge_set:
        if exact and not (type(u) is int and type(v) is int):
            return None
        if not (0 <= u < world_count and 0 <= v < world_count):
            if exact:
                return None
            raise ValueError(f"edge ({u}, {v}) references an undeclared world")
        succ[u].add(v)
    return succ


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
        pairs = tuple(edges)
        try:  # exact int pairs within the worlds, as parse_model gives
            edge_set = frozenset(pairs)
            succ = _successors(world_count, edge_set, exact=True)
        except (TypeError, ValueError):  # an unhashable pair or one of another length
            succ = None
        if succ is None:  # any other pair goes through operator.index, end by end
            edge_set = frozenset((index(u), index(v)) for u, v in pairs)
            succ = _successors(world_count, edge_set, exact=False)
        val_map: dict[tuple[int, str], int] = {}
        tops: dict[str, int] = {}
        for key, k in (vals.items() if isinstance(vals, Mapping) else vals):
            u, p = key
            # an exact int world keeps the caller's key: a fresh tuple per
            # valuation makes the garbage collector run more often on large
            # models; any other world or label goes through operator.index
            if type(u) is not int:
                u = index(u)
                key = (u, p)
            if type(k) is not int:
                k = index(k)
            if not 0 <= u < world_count:
                raise ValueError(f"valuation of {p!r} at undeclared world {u}")
            if k < 1:
                raise ValueError(f"valuation label must be >= 1, got {k}")
            val_map[key] = k
        for (_, p), k in val_map.items():  # where a repeated pair holds its last label
            if k > tops.get(p, 0):
                tops[p] = k
        _set_field(self, "world_count", world_count)
        _set_field(self, "edges", edge_set)
        # the keys are distinct, so sorting by them alone gives the same order
        _set_field(self, "vals", tuple(sorted(val_map.items(), key=itemgetter(0))))
        _set_field(self, "_succ", tuple(frozenset(s) for s in succ))
        _set_field(self, "_val_map", val_map)
        #: Each valued variable's largest label: label_vectors checks a
        #: variable's labels against the domain only when this is above it.
        _set_field(self, "_tops", tops)
        #: The largest label of the model.
        _set_field(self, "_top", max(tops.values(), default=1))

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
        return tuple(sorted(self._tops))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

#: Label vectors by formula: entry w of a vector is the label at world w
#: (for a pass rooted at a world, see label_vectors).
LabelVectors = dict[Formula, list[int]]


def label_vectors(sig: Signature, model: KripkeModel, order: Iterable[Formula],
                  root: Optional[int] = None) -> LabelVectors:
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

    With a `root`, the call is about that world alone, and entry 0 of
    each vector is the label there.  Box and Dia at a world read only its
    successors, so a formula under h modal operators of the formulas
    queried (its modal height) is read only at the worlds within h steps
    of the root (the generated-submodel lemma).  The pass numbers those
    worlds in breadth-first order from the root, and each formula's
    vector covers the worlds within its modal height.

    A variable labelled above the domain at some world is a ValueError
    naming the first such world by index, rooted or not: the check reads
    every world of the model, and runs only for a variable that holds
    such a label.
    """
    n = sig.n
    succ, worlds = model._succ, model.worlds
    layers = None
    if root is not None:
        root = index(root)
        _check_world(model, root)
        order = tuple(order)
        heights, layers = _rooted_layers(model, root, order)
    vectors: LabelVectors = {}
    for f in order:
        if layers is not None:
            worlds, succ = layers[heights[f]]
        if isinstance(f, Var):
            name, val_map = f.name, model._val_map
            if model._tops.get(name, 1) > n:  # the model's own check knows no signature
                for w in model.worlds:
                    if (k := val_map.get((w, name), 1)) > n:
                        raise ValueError(f"valuation gives {name!r} label {k} at "
                                         f"world {w}, above the domain's {n}")
            vec = [val_map.get((w, name), 1) for w in worlds]
        elif isinstance(f, Apply):
            conn = _checked_connective(sig, f.conn, len(f.args))
            rows = zip(*[vectors[a] for a in f.args]) if f.args else [()] * len(worlds)
            if layers is not None:  # an argument also read deeper runs longer
                rows = islice(rows, len(worlds))
            vec = list(map(conn.table.__getitem__, rows))
        elif isinstance(f, (Box, Diamond)):
            pick, default = (min, n) if isinstance(f, Box) else (max, 1)
            sub = vectors[f.sub].__getitem__
            vec = [pick(map(sub, s), default=default) for s in succ]
        else:
            raise TypeError(f"not a formula: {f!r}")
        vectors[f] = vec
    return vectors


#: A rooted pass's layout: each formula's modal height, and for each
#: height the worlds within it of the root in breadth-first order, with
#: their successor lists in that numbering.
_Layers = tuple[dict[Formula, int], list[tuple[list[int], list[list[int]]]]]


def _rooted_layers(model: KripkeModel, root: int, order: Sequence[Formula]) -> _Layers:
    """The layout of a pass over `order` rooted at `root`.

    Heights run top-down over `order` reversed, so each formula's parents
    come first, and the breadth-first search stops at the largest height
    or at a layer that adds no world; neither recurses.  A formula at the
    largest height is not modal, so the deepest layer's worlds need no
    successor lists.
    """
    heights: dict[Formula, int] = {}
    for f in reversed(order):
        h = heights.setdefault(f, 0)
        if isinstance(f, (Box, Diamond)):
            if heights.get(f.sub, -1) <= h:
                heights[f.sub] = h + 1
        elif isinstance(f, Apply):
            for a in f.args:
                if heights.get(a, -1) < h:
                    heights[a] = h
    depth = max(heights.values(), default=0)
    succ = model._succ
    local, position, local_succ, within = [root], {root: 0}, [], [1]
    while len(within) <= depth:
        for u in local[len(local_succ):]:
            row = []
            for v in succ[u]:
                if v not in position:
                    position[v] = len(local)
                    local.append(v)
                row.append(position[v])
            local_succ.append(row)
        if len(local) == within[-1]:
            break
        within.append(len(local))
    layers = [(local[:k], local_succ[:k]) for k in within]
    layers += layers[-1:] * (depth + 1 - len(layers))
    return heights, layers


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
    """The label of `formula` at `world`, from a pass rooted there."""
    return label_vectors(sig, model, closure_order((formula,)), world)[formula][0]


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
    """True iff satisfying every antecedent member forces some succedent
    member, from a pass rooted at the world."""
    _check_world(model, world)
    _checked_labels(sig, (sequent,))
    vectors = label_vectors(sig, model, closure_order(sequent.formulas()), world)
    return not _refuted(vectors, (0,), sequent)


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
