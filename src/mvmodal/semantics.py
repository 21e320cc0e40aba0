"""Kripke models, the modal evaluator, satisfaction and frame predicates.

Worlds are dense 0-based indices.  Necessity evaluates to the minimum of
the operand over the successor set (label n when there are no
successors); possibility evaluates to the maximum (label 1 when there
are no successors).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .core import (
    Apply,
    Box,
    Diamond,
    Formula,
    LabelledFormula,
    Sequent,
    Signature,
    Var,
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


@dataclass(frozen=True, init=False)
class KripkeModel:
    """Worlds 0..world_count-1, an edge set, and an explicit valuation.

    The valuation maps (world, variable) pairs to labels; variables with
    no explicit entry take label 1 everywhere, so the valuation is total.
    Models are immutable after construction.

    The constructor validates the edges and the valuation.  The private
    `_revalued` gives the same frame another valuation without checks:
    the frame was checked when this model was built, and its one caller,
    decision.enumerate_models, builds every valuation in range and in
    sorted order.
    """

    world_count: int
    edges: frozenset[tuple[int, int]]
    vals: tuple[tuple[tuple[int, str], int], ...]

    def __init__(self, world_count: int,
                 edges: Iterable[tuple[int, int]] = (),
                 vals: Union[Mapping[tuple[int, str], int],
                             Iterable[tuple[tuple[int, str], int]]] = ()):
        if world_count < 1:
            raise ValueError("a model needs at least one world")
        edge_set = frozenset((int(u), int(v)) for u, v in edges)
        for u, v in edge_set:
            if not (0 <= u < world_count and 0 <= v < world_count):
                raise ValueError(f"edge ({u}, {v}) references an undeclared world")
        val_map = dict(vals.items() if isinstance(vals, Mapping) else vals)
        for (u, p), k in val_map.items():
            if not 0 <= u < world_count:
                raise ValueError(f"valuation of {p!r} at undeclared world {u}")
            if k < 1:
                raise ValueError(f"valuation label must be >= 1, got {k}")
        object.__setattr__(self, "world_count", world_count)
        object.__setattr__(self, "edges", edge_set)
        object.__setattr__(self, "vals", tuple(sorted(val_map.items())))
        succ: list[set[int]] = [set() for _ in range(world_count)]
        for u, v in edge_set:
            succ[u].add(v)
        object.__setattr__(self, "_succ", tuple(frozenset(s) for s in succ))
        object.__setattr__(self, "_val_map", val_map)

    def _revalued(self, vals: tuple[tuple[tuple[int, str], int], ...]
                  ) -> KripkeModel:
        """This model's frame with `vals` as its valuation, unchecked.

        `vals` must be sorted, with worlds in range and labels >= 1: the
        model equals KripkeModel(world_count, edges, vals) field for
        field, and shares this one's edge set and successor sets.
        """
        model = object.__new__(KripkeModel)
        model.__dict__.update(self.__dict__, vals=vals, _val_map=dict(vals))
        return model

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
Cache = dict[Formula, list[int]]


def label_vectors(sig: Signature, model: KripkeModel, order: Iterable[Formula],
                  cache: Optional[Cache] = None) -> Cache:
    """Add the label vector of each formula of `order` to `cache`; return it.

    `order` lists every formula after its subformulas (closure_order).
    A variable reads the valuation, a connective its table at each world,
    and Box and Dia take the minimum and maximum over the successors.
    This is the package's only evaluator: the intuitionistic semantics
    is this one on the formula's embedding (intuitionistic.eval_mvil).
    """
    vectors: Cache = {} if cache is None else cache
    succ = model._succ
    worlds = range(len(succ))
    for f in order:
        if f in vectors:
            continue
        if isinstance(f, Var):
            name, val_map = f.name, model._val_map
            vec = [val_map.get((w, name), 1) for w in worlds]
        elif isinstance(f, Apply):
            conn = sig.connective(f.conn)
            if len(f.args) != conn.arity:
                raise ValueError(f"connective {f.conn!r} expects {conn.arity} "
                                 f"arguments, got {len(f.args)}")
            rows = zip(*[vectors[a] for a in f.args]) if f.args else [()] * len(succ)
            vec = list(map(conn.table.__getitem__, rows))
        elif isinstance(f, Box):
            sub = vectors[f.sub].__getitem__
            vec = [min(map(sub, s), default=sig.n) for s in succ]
        elif isinstance(f, Diamond):
            sub = vectors[f.sub].__getitem__
            vec = [max(map(sub, s), default=1) for s in succ]
        else:
            raise TypeError(f"not a formula: {f!r}")
        vectors[f] = vec
    return vectors


def evaluate(sig: Signature, model: KripkeModel, world: int, formula: Formula,
             cache: Optional[Cache] = None) -> int:
    """The label of `formula` at `world`.

    Evaluation computes the label vector of every subformula over all
    worlds (label_vectors).  A cache of label vectors may be shared
    across queries on the same model; a fresh one is used per call
    otherwise.
    """
    _check_world(model, world)
    vectors = {} if cache is None else cache
    if formula not in vectors:
        label_vectors(sig, model, closure_order((formula,)), vectors)
    return vectors[formula][world]


def satisfies_labelled(sig: Signature, model: KripkeModel, world: int,
                       lf: LabelledFormula, cache: Optional[Cache] = None) -> bool:
    """True iff the formula takes exactly the stated label at the world."""
    return evaluate(sig, model, world, lf.formula, cache) == lf.label


def refuting_worlds(sig: Signature, model: KripkeModel, sequent: Sequent,
                    cache: Optional[Cache] = None) -> Iterator[int]:
    """The worlds, in order, where every antecedent member holds and no
    succedent member does.

    The label vectors of the sequent's formulas are computed (or read
    from `cache`) first; the worlds are then read off them lazily.
    """
    vectors = {} if cache is None else cache
    missing = [lf.formula for lf in sequent.antecedent + sequent.succedent
               if lf.formula not in vectors]
    if missing:
        label_vectors(sig, model, closure_order(missing), vectors)
    ante = [(vectors[lf.formula], lf.label) for lf in sequent.antecedent]
    succ = [(vectors[lf.formula], lf.label) for lf in sequent.succedent]
    return (w for w in model.worlds
            if all(vec[w] == k for vec, k in ante)
            and not any(vec[w] == k for vec, k in succ))


def satisfies_sequent(sig: Signature, model: KripkeModel, world: int,
                      sequent: Sequent, cache: Optional[Cache] = None) -> bool:
    """True iff satisfying every antecedent member forces some succedent member."""
    _check_world(model, world)
    return world not in refuting_worlds(sig, model, sequent, cache)


def model_satisfies(sig: Signature, model: KripkeModel,
                    sequents: Union[Sequent, Iterable[Sequent]],
                    cache: Optional[Cache] = None) -> bool:
    """Conjunction of sequent satisfaction over every world of the model."""
    if isinstance(sequents, Sequent):
        sequents = (sequents,)
    cache = {} if cache is None else cache
    return all(next(refuting_worlds(sig, model, s, cache), None) is None
               for s in sequents)


# ---------------------------------------------------------------------------
# Frame classes
# ---------------------------------------------------------------------------


def successor_rows(model: KripkeModel) -> tuple[int, ...]:
    """Bitmask successor rows: bit v of row u is set iff (u, v) is an edge."""
    return tuple(sum(1 << v for v in s) for s in model._succ)


def _members(row: int) -> Iterator[int]:
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _serial(rows: Sequence[int]) -> bool:
    return all(rows)


def _reflexive(rows: Sequence[int]) -> bool:
    return all(r >> u & 1 for u, r in enumerate(rows))


def _transitive(rows: Sequence[int]) -> bool:
    # every successor's successors are successors
    return all(rows[v] | r == r for r in rows for v in _members(r))


def _symmetric(rows: Sequence[int]) -> bool:
    return all(rows[v] >> u & 1 for u, r in enumerate(rows) for v in _members(r))


def _euclidean(rows: Sequence[int]) -> bool:
    # any two successors of a world see each other
    return all(r | rows[v] == rows[v] for r in rows for v in _members(r))


#: One predicate per frame class, on successor rows (successor_rows).
_FRAME_PREDICATES: dict[FrameClass, Callable[[Sequence[int]], bool]] = {
    FrameClass.ANY: lambda rows: True,
    FrameClass.SERIAL: _serial,
    FrameClass.REFLEXIVE: _reflexive,
    FrameClass.TRANSITIVE: _transitive,
    FrameClass.SYMMETRIC: _symmetric,
    FrameClass.EUCLIDEAN: _euclidean,
    FrameClass.PREORDER: lambda rows: _reflexive(rows) and _transitive(rows),
    FrameClass.EQUIVALENCE: lambda rows: _reflexive(rows) and _euclidean(rows),
}


def frame_predicate(frame_class: FrameClass) -> Callable[[Sequence[int]], bool]:
    """The frame property of the class, as a test on successor rows."""
    try:
        return _FRAME_PREDICATES[frame_class]
    except KeyError:
        raise ValueError(f"unknown frame class {frame_class!r}") from None


def frame_check(model: KripkeModel, frame_class: FrameClass) -> bool:
    """Whether the model's relation has the frame property of the class."""
    return frame_predicate(frame_class)(successor_rows(model))
