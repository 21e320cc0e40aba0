"""Many-valued intuitionistic semantics and its modal embedding.

An intuitionistic interpretation is a preordered model whose variable
valuation grows along the accessibility relation.  Compound formulas are
evaluated as the infimum, over the successors, of the connective applied
to the arguments there; reflexivity keeps that set nonempty.  That is
the modal value of the formula with a necessity operator in front of
every connective, which is how eval_mvil computes it.

Translating a modal-free formula by inserting a necessity operator in
front of every subformula, variables included, turns intuitionistic
evaluation on the hat model into plain modal evaluation on the original
preordered model.
"""

from __future__ import annotations

from typing import Callable, Optional

from .core import (
    Apply,
    Box,
    Connective,
    Diamond,
    Formula,
    LabelledFormula,
    Sequent,
    Signature,
    Var,
    closure_order,
    is_modal_free,
)
from .semantics import (
    Cache,
    FrameClass,
    KripkeModel,
    _check_world,
    frame_check,
    label_vectors,
)


def is_mvil_interpretation(model: KripkeModel) -> bool:
    """Preordered with a valuation monotone along the relation."""
    if not frame_check(model, FrameClass.PREORDER):
        return False
    return all(model.value(u, p) <= model.value(v, p)
               for p in model.variables() for (u, v) in model.edges)


#: Tags eval_mvil's cache key for a formula's intuitionistic label vector,
#: which no formula equals.
_MVIL = object()


def eval_mvil(sig: Signature, model: KripkeModel, world: int, formula: Formula,
              cache: Optional[Cache] = None) -> int:
    """Intuitionistic value of a modal-free formula at a world.

    The modal value of the embedding, with Box in front of every
    connective and the variables left bare.  One fold over the closure,
    in closure order, checks each subformula and builds its embedding:
    Box or Dia raises ValueError ("no modal"), and so does a connective
    when any world of the model has no successor, whether or not it is
    reached ("not reflexive").  The embedding's label vector is kept in
    `cache` under the embedded formula, as evaluate keeps it, and also
    under a private key for `formula`, so one cache may serve both
    evaluate and eval_mvil, and later calls with it on the same formula
    neither rebuild the embedding nor walk its closure.
    """
    _check_world(model, world)
    vectors = {} if cache is None else cache
    key = (_MVIL, formula)
    vec = vectors.get(key)
    if vec is None:
        dead_ends = [w for w in model.worlds if not model.successors(w)]

        def bare(f: Formula) -> bool:
            if isinstance(f, (Box, Diamond)):
                raise ValueError("intuitionistic formulas admit no modal connectives")
            if isinstance(f, Apply) and dead_ends:
                raise ValueError(f"world {dead_ends[0]} has no successors; "
                                 "interpretation is not reflexive")
            return isinstance(f, Var)

        embedded = _boxed(formula, bare)
        if embedded not in vectors:
            label_vectors(sig, model, closure_order((embedded,)), vectors)
        vec = vectors[key] = vectors[embedded]
    return vec[world]


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------


def monotone_connective(conn: Connective) -> bool:
    """True when raising any single argument never lowers the table value."""
    if conn.arity == 0:
        return True
    top = max(k for entry in conn.table for k in entry)
    for entry, out in conn.table.items():
        for pos, k in enumerate(entry):
            if k == top:
                continue
            bumped = entry[:pos] + (k + 1,) + entry[pos + 1:]
            if conn.table[bumped] < out:
                return False
    return True


def godel_translate(formula: Formula) -> Formula:
    """Insert a necessity operator before every subformula."""
    if not is_modal_free(formula):
        raise ValueError("translation applies to modal-free formulas")
    return _boxed(formula, lambda f: False)


def godel_translate_optimized(formula: Formula, sig: Signature) -> Formula:
    """As godel_translate, but skips the outer box on monotone connectives."""
    if not is_modal_free(formula):
        raise ValueError("translation applies to modal-free formulas")
    return _boxed(formula, lambda f: isinstance(f, Apply) and
                  monotone_connective(sig.connective(f.conn)))


def _boxed(formula: Formula, unboxed: Callable[[Formula], bool]) -> Formula:
    """`formula` with a necessity operator before each subformula for
    which `unboxed` is false, folded bottom-up over closure_order.
    `unboxed` sees each subformula before its embedding is built, so it
    may reject one by raising."""
    out: dict[Formula, Formula] = {}
    for f in closure_order((formula,)):
        keep_bare = unboxed(f)
        body = (f if isinstance(f, Var)
                else Apply(f.conn, tuple(out[a] for a in f.args)))
        out[f] = body if keep_bare else Box(body)
    return out[formula]


def translate_labelled(lf: LabelledFormula, sig: Optional[Signature] = None
                       ) -> LabelledFormula:
    translated = (godel_translate(lf.formula) if sig is None
                  else godel_translate_optimized(lf.formula, sig))
    return LabelledFormula(translated, lf.label)


def translate_sequent(sequent: Sequent, sig: Optional[Signature] = None) -> Sequent:
    return Sequent([translate_labelled(lf, sig) for lf in sequent.antecedent],
                   [translate_labelled(lf, sig) for lf in sequent.succedent])


# ---------------------------------------------------------------------------
# The hat model
# ---------------------------------------------------------------------------


def hat_model(sig: Signature, model: KripkeModel) -> KripkeModel:
    """Replace each variable's value by the value of its boxed form.

    The input must be preordered; transitivity makes the new valuation
    monotone, so the result is an intuitionistic interpretation over the
    same worlds and relation.
    """
    if not frame_check(model, FrameClass.PREORDER):
        raise ValueError("hat model needs a preordered input")
    boxes = [Box(Var(p)) for p in model.variables()]
    vectors = label_vectors(sig, model, closure_order(boxes))
    if any(vectors[box][u] > vectors[box][v] for box in boxes for u, v in model.edges):
        raise AssertionError("hat model construction lost monotonicity")
    vals = {(u, box.sub.name): k for box in boxes for u, k in enumerate(vectors[box])}
    return KripkeModel(model.world_count, model.edges, vals)
