"""Many-valued intuitionistic semantics and its modal embedding.

An intuitionistic interpretation is a preordered model whose variable
valuation grows along the accessibility relation.  Compound formulas are
evaluated as the infimum, over the successors, of the connective applied
to the arguments there; reflexivity keeps that set nonempty.

Translating a modal-free formula by inserting a necessity operator in
front of every subformula turns intuitionistic evaluation into plain
modal evaluation on the same preordered model.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    Apply,
    Box,
    Connective,
    Formula,
    LabelledFormula,
    Sequent,
    Signature,
    Var,
    closure_order,
    is_modal_free,
)
from .semantics import Cache, FrameClass, KripkeModel, _label, evaluate, frame_check


def is_mvil_interpretation(model: KripkeModel) -> bool:
    """Preordered with a valuation monotone along the relation."""
    if not frame_check(model, FrameClass.PREORDER):
        return False
    return all(model.value(u, p) <= model.value(v, p)
               for (u, v) in model.edges for p in model.variables())


def eval_mvil(sig: Signature, model: KripkeModel, world: int, formula: Formula,
              cache: Optional[Cache] = None) -> int:
    """Intuitionistic value of a modal-free formula at a world.

    As evaluate, by label vectors in label_vectors' intuitionistic mode,
    so a compound formula raises ValueError ("not reflexive") when any
    world of the model has no successor, whether or not it is reached.
    """
    return _label(sig, model, world, formula, cache, True)


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
    return _translate(formula, None)


def godel_translate_optimized(formula: Formula, sig: Signature) -> Formula:
    """As godel_translate, but skips the outer box on monotone connectives."""
    if not is_modal_free(formula):
        raise ValueError("translation applies to modal-free formulas")
    return _translate(formula, sig)


def _translate(formula: Formula, sig: Optional[Signature]) -> Formula:
    out: dict[Formula, Formula] = {}
    for f in closure_order((formula,)):
        if isinstance(f, Var):
            out[f] = Box(f)
            continue
        body = Apply(f.conn, tuple(out[a] for a in f.args))
        if sig is not None and monotone_connective(sig.connective(f.conn)):
            out[f] = body
        else:
            out[f] = Box(body)
    return out[formula]


def translate_labelled(lf: LabelledFormula, sig: Optional[Signature] = None
                       ) -> LabelledFormula:
    translated = (godel_translate(lf.formula) if sig is None
                  else godel_translate_optimized(lf.formula, sig))
    return LabelledFormula(translated, lf.label)


def translate_sequent(sequent: Sequent, sig: Optional[Signature] = None) -> Sequent:
    return Sequent([translate_labelled(lf, sig) for lf in sequent.antecedent],
                   [translate_labelled(lf, sig) for lf in sequent.succedent])


def translate_sequents(sequents, sig: Optional[Signature] = None
                       ) -> tuple[Sequent, ...]:
    return tuple(translate_sequent(s, sig) for s in sequents)


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
    cache: Cache = {}
    vals = {(u, p): evaluate(sig, model, u, Box(Var(p)), cache)
            for u in model.worlds for p in model.variables()}
    result = KripkeModel(model.world_count, model.edges, vals)
    if not is_mvil_interpretation(result):
        raise AssertionError("hat model construction lost monotonicity")
    return result
