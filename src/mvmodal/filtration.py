"""Filtration of a model through a subformula-closed set of formulas.

Worlds agreeing on every formula of the set collapse into one class.
The accessibility relation between classes depends on the logic: the
weak logics project the original relation, the stronger ones compare
modal values so the filtered model stays inside the frame class.
"""

from __future__ import annotations

from typing import Iterable, Literal, Mapping, Optional, get_args

from .core import (
    Box,
    Diamond,
    Formula,
    Record,
    Signature,
    Var,
    _set_field,
    closure_order,
    formula_key,
)
from .parser import render_formula
from .proofs import LogicId
from .semantics import FrameClass, KripkeModel, LabelVectors, frame_check, label_vectors

Representative = Literal["least", "greatest"]


class Filtered(Record):
    """A filtration: class partition, representatives, and filtered model.

    `classes` lists each equivalence class as a sorted tuple of original
    worlds, ordered by smallest member; class i of the partition is world
    i of the filtered model.  `values` maps (class index, formula) to the
    label the class takes on each formula of the closed set.
    """

    __match_args__ = ("classes", "representatives", "model", "values")
    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    model: KripkeModel
    values: Mapping[tuple[int, Formula], int]

    def __init__(self, classes: tuple[tuple[int, ...], ...],
                 representatives: tuple[int, ...], model: KripkeModel,
                 values: Mapping[tuple[int, Formula], int]):
        _set_field(self, "classes", classes)
        _set_field(self, "representatives", representatives)
        _set_field(self, "model", model)
        _set_field(self, "values", values)
        # not a field: left out of ==, hash and repr
        _set_field(self, "_class_index", {w: idx for idx, members in enumerate(classes)
                                          for w in members})

    def class_of(self, world: int) -> int:
        if world not in self._class_index:
            raise ValueError(f"world {world} not in any class")
        return self._class_index[world]


def _validated_closure(phi: Iterable[Formula]) -> tuple[Formula, ...]:
    # phi bottom-up, for label_vectors.  The partition, the class relation
    # and the class values come out the same under any fixed order of phi.
    phi = frozenset(phi)
    order = closure_order(phi)
    if len(order) != len(phi):
        missing = min(set(order) - phi, key=formula_key)
        raise ValueError("formula set is not subformula-closed; "
                         f"missing {render_formula(missing)}")
    return order


def _partition(model: KripkeModel, order: tuple[Formula, ...],
               val: LabelVectors) -> tuple[tuple[int, ...], ...]:
    groups: dict[tuple[int, ...], list[int]] = {}
    for world in model.worlds:
        groups.setdefault(tuple(val[f][world] for f in order), []).append(world)
    return tuple(sorted((tuple(ws) for ws in groups.values()),
                        key=lambda ws: ws[0]))


def equiv_classes(sig: Signature, model: KripkeModel,
                  phi: Iterable[Formula]) -> tuple[tuple[int, ...], ...]:
    """Partition of the worlds by agreement on every formula of phi."""
    order = _validated_closure(phi)
    return _partition(model, order, label_vectors(sig, model, order))


#: The comparisons that relate class u to class v in the logics whose
#: filtration compares modal values.  Each (swap, sub) asks, for every
#: Box formula f of the set, val[f][a] <= val[g][b], where (a, b) is
#: (v, u) if swap else (u, v) and g is f.sub if sub else f.  Dia
#: formulas ask the same with the order reversed.  mv-K, mv-D and mv-T
#: project the original relation instead.
_COMPARISONS: dict[LogicId, tuple[tuple[bool, bool], ...]] = {
    LogicId.MV_K4: ((False, False), (False, True)),
    LogicId.MV_S4: ((False, False),),
    LogicId.MV_B: ((False, True), (True, True)),
    LogicId.MV_S5: ((False, False), (True, False)),
}


def _class_relation(model: KripkeModel, logic: LogicId,
                    phi: tuple[Formula, ...],
                    classes: tuple[tuple[int, ...], ...],
                    reps: tuple[int, ...],
                    val: LabelVectors) -> set[tuple[int, int]]:
    if logic not in _COMPARISONS:
        class_of = {w: i for i, members in enumerate(classes) for w in members}
        return {(class_of[u], class_of[v]) for u, v in model.edges}
    checks = [(val[f], val[f.sub] if sub else val[f], swap, isinstance(f, Box))
              for f in phi if isinstance(f, (Box, Diamond))
              for swap, sub in _COMPARISONS[logic]]

    def related(u: int, v: int) -> bool:
        for left, right, swap, box in checks:
            a, b = (v, u) if swap else (u, v)
            x, y = (left[a], right[b]) if box else (right[b], left[a])
            if x > y:
                return False
        return True

    return {(i, j) for i, u in enumerate(reps) for j, v in enumerate(reps)
            if related(u, v)}


def filter_model(sig: Signature, model: KripkeModel, phi: Iterable[Formula],
                 logic: LogicId, representative: Representative = "least"
                 ) -> Filtered:
    """Quotient the model through phi with the logic's class relation.

    The model must lie in the logic's frame class.  Class valuations copy
    the value of each variable of phi at any member; other variables
    default to 1.
    """
    if representative not in get_args(Representative):
        raise ValueError(f"unknown representative {representative!r}")
    order = _validated_closure(phi)
    if not frame_check(model, logic.frame_class):
        raise ValueError(f"model is not in the {logic.frame_class.value} frame class")
    val = label_vectors(sig, model, order)
    classes = _partition(model, order, val)
    reps = tuple(members[0] if representative == "least" else members[-1]
                 for members in classes)
    edges = _class_relation(model, logic, order, classes, reps, val)
    values = {(idx, f): val[f][rep]
              for idx, rep in enumerate(reps) for f in order}
    vals = {(idx, f.name): k for (idx, f), k in values.items()
            if isinstance(f, Var)}
    return Filtered(classes, reps, KripkeModel(len(classes), edges, vals), values)


class FiltrationReport(Record):
    __match_args__ = ("ok", "frame_ok", "frame_class", "value_mismatches")
    ok: bool
    frame_ok: bool
    frame_class: FrameClass
    value_mismatches: tuple[tuple[int, Formula, int, int], ...]

    def __str__(self):
        if self.ok:
            return "filtration verified"
        parts = []
        if not self.frame_ok:
            parts.append(f"filtered model left the {self.frame_class.value} class")
        for world, formula, original, filtered in self.value_mismatches:
            parts.append(f"world {world}: value {original} became {filtered}")
        return "; ".join(parts)


def verify_filtration(sig: Signature, model: KripkeModel, phi: Iterable[Formula],
                      logic: LogicId,
                      filtered: Optional[Filtered] = None) -> FiltrationReport:
    """Check value preservation on phi and membership in the frame class.

    Failures are reported as data, with the offending worlds and values,
    by world and then by formula in canonical order (formula_key).
    """
    order = _validated_closure(phi)
    if filtered is None:
        filtered = filter_model(sig, model, order, logic)
    before = label_vectors(sig, model, order)
    after = label_vectors(sig, filtered.model, order)
    mismatches = []
    for world in model.worlds:
        cls = filtered.class_of(world)
        for f in order:
            if before[f][world] != after[f][cls]:
                mismatches.append((world, f, before[f][world], after[f][cls]))
    mismatches.sort(key=lambda m: (m[0], formula_key(m[1])))
    frame_ok = frame_check(filtered.model, logic.frame_class)
    return FiltrationReport(frame_ok and not mismatches, frame_ok,
                            logic.frame_class, tuple(mismatches))
