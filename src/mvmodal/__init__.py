"""Many-valued modal logic toolkit.

Semantics over finite chains of truth values, a labelled sequent
calculus with a proof checker, a bounded semantic decision procedure,
filtrations, the negation-duality scan, and the embedding of many-valued
intuitionistic logic.
"""

from .core import (
    Apply,
    Box,
    Connective,
    Diamond,
    Formula,
    LabelledFormula,
    Sequent,
    Signature,
    TruthDomain,
    Var,
    apply_connective,
    closure_order,
    complement_interval,
    down_set,
    gamma_cross,
    interval,
    lukasiewicz_signature,
    make_signature,
    subformula_closure,
    up_set,
)
from .decision import (
    Countermodel,
    DecisionOutcome,
    EnumerationCeilingError,
    ProvedValid,
    ValidUpTo,
    decide,
    filtration_bound,
    search_countermodel,
)
from .duality import duality_holds, reversal_negation, uniqueness_scan
from .filtration import Filtered, equiv_classes, filter_model, verify_filtration
from .intuitionistic import (
    eval_mvil,
    godel_translate,
    godel_translate_optimized,
    hat_model,
    is_mvil_interpretation,
    monotone_connective,
    translate_sequent,
)
from .parser import (
    ParseError,
    SourceSpan,
    parse_formula,
    parse_formulas,
    parse_model,
    parse_proof,
    parse_sequent,
    parse_sequents,
    parse_signature,
    render_formula,
    render_model,
    render_proof,
    render_sequent,
    render_signature,
)
from .proofs import (
    Derivation,
    DerivationBuilder,
    LogicId,
    Violation,
    check_derivation,
    check_step,
    instantiate_scheme,
)
from .semantics import (
    FrameClass,
    KripkeModel,
    evaluate,
    frame_check,
    label_vectors,
    model_satisfies,
    refuting_worlds,
    satisfies_labelled,
    satisfies_sequent,
)

__version__ = "0.1.0"
