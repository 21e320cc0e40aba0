"""Derivations in the labelled sequent calculus and their checking.

A derivation is a list of steps, each a sequent justified by an axiom,
an inference rule applied to earlier steps, a hypothesis, or an
extension-axiom scheme of the selected logic.  The checker verifies the
exact shape of every rule application; it never searches.

Since sequent sides are sets, a rule's side formula may coincide with a
formula already present in the surrounding context.  Where the rule
notation leaves that context ambiguous (the context may or may not
retain the principal formula), the checker accepts every reading, by
checking that each side lies between the sides of the two extreme readings.
"""

from __future__ import annotations

import enum
from itertools import product
from math import prod
from typing import Callable, Iterable, NamedTuple, Optional

from .core import (
    Apply,
    Box,
    Diamond,
    Formula,
    LabelledFormula,
    Record,
    Sequent,
    Signature,
    _gamma_cross_size,
    _set_field,
    _interval_size,
    complement_interval,
    gamma_cross,
    up_set,
)
from .semantics import FrameClass


class LogicId(enum.Enum):
    """The supported logics, each bundling extension schemes and a frame class."""

    MV_K = "mv-K"
    MV_D = "mv-D"
    MV_T = "mv-T"
    MV_K4 = "mv-K4"
    MV_S4 = "mv-S4"
    MV_B = "mv-B"
    MV_S5 = "mv-S5"

    @property
    def schemes(self) -> frozenset[int]:
        return _LOGICS[self][0]

    @property
    def frame_class(self) -> FrameClass:
        return _LOGICS[self][1]


#: Each logic's extension schemes and frame class.
_LOGICS = {
    LogicId.MV_K: (frozenset(), FrameClass.ANY),
    LogicId.MV_D: (frozenset({20}), FrameClass.SERIAL),
    LogicId.MV_T: (frozenset({21, 22}), FrameClass.REFLEXIVE),
    LogicId.MV_K4: (frozenset({23, 24}), FrameClass.TRANSITIVE),
    LogicId.MV_S4: (frozenset({21, 22, 23, 24}), FrameClass.PREORDER),
    LogicId.MV_B: (frozenset({25, 26}), FrameClass.SYMMETRIC),
    LogicId.MV_S5: (frozenset({21, 22, 27, 28}), FrameClass.EQUIVALENCE),
}

#: Each extension scheme's frame class and its (left, right) formulas for
#: phi, instantiated as (left, k) -> up-set of (right, k); scheme 20 takes k = n.
_SCHEMES: dict[int, tuple[FrameClass, Callable[[Formula], tuple[Formula, Formula]]]] = {
    20: (FrameClass.SERIAL, lambda f: (Box(f), Diamond(f))),
    21: (FrameClass.REFLEXIVE, lambda f: (Box(f), f)),
    22: (FrameClass.REFLEXIVE, lambda f: (f, Diamond(f))),
    23: (FrameClass.TRANSITIVE, lambda f: (Box(f), Box(Box(f)))),
    24: (FrameClass.TRANSITIVE, lambda f: (Diamond(Diamond(f)), Diamond(f))),
    25: (FrameClass.SYMMETRIC, lambda f: (f, Box(Diamond(f)))),
    26: (FrameClass.SYMMETRIC, lambda f: (Diamond(Box(f)), f)),
    27: (FrameClass.EUCLIDEAN, lambda f: (Diamond(f), Box(Diamond(f)))),
    28: (FrameClass.EUCLIDEAN, lambda f: (Diamond(Box(f)), Box(f))),
}

#: Frame class each extension scheme is sound for on its own.
SCHEME_FRAMES = {scheme: frames for scheme, (frames, _) in _SCHEMES.items()}


def instantiate_scheme(scheme: int, formula: Formula, label: int, n: int) -> Sequent:
    """The literal sequent for an extension scheme, up-sets expanded.

    Scheme 20 ignores the label argument.
    """
    label = _scheme_label(scheme, label, n)
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown extension scheme {scheme}")
    left, right = _SCHEMES[scheme][1](formula)
    return Sequent([LabelledFormula(left, label)],
                   up_set(LabelledFormula(right, label), n))


def _scheme_label(scheme: int, label: int, n: int) -> int:
    """The label of a scheme's instance: n for scheme 20, else `label`
    once it is checked to be in 1..n."""
    if scheme == 20:
        return n
    if not 1 <= label <= n:
        raise ValueError(f"label {label} out of 1..{n}")
    return label


# ---------------------------------------------------------------------------
# Justifications
# ---------------------------------------------------------------------------


class Hypothesis(Record):
    __match_args__ = ("index",)
    index: int  # 0-based position in the derivation's hypothesis list


class AxiomIdentity(Record):
    pass


class AxiomTable(Record):
    __match_args__ = ("conn", "entry")
    conn: str
    entry: tuple[int, ...]

    def __init__(self, conn: str, entry: tuple[int, ...]):
        _set_field(self, "conn", conn)
        _set_field(self, "entry", tuple(entry))


class RuleBox(Record):
    pass


class RuleDiamond(Record):
    pass


class LeftShift(Record):
    __match_args__ = ("label",)
    label: int


class RightShift(Record):
    __match_args__ = ("from_label", "to_label")
    from_label: int
    to_label: int


class LeftWeaken(Record):
    __match_args__ = ("added",)
    added: LabelledFormula


class RightWeaken(Record):
    __match_args__ = ("added",)
    added: LabelledFormula


class Cut(Record):
    __match_args__ = ("cut",)
    cut: LabelledFormula


class Resolution(Record):
    __match_args__ = ("formula", "first_label", "second_label")
    formula: Formula
    first_label: int
    second_label: int


class MultiShift(Record):
    __match_args__ = ("formula", "labels")
    formula: Formula
    labels: frozenset[int]

    def __init__(self, formula: Formula, labels: Iterable[int]):
        _set_field(self, "formula", formula)
        _set_field(self, "labels", frozenset(labels))


class SuperMultiShift(Record):
    __match_args__ = ("formulas", "label_sets")
    formulas: tuple[Formula, ...]
    label_sets: tuple[frozenset[int], ...]

    def __init__(self, formulas: Iterable[Formula],
                 label_sets: Iterable[Iterable[int]]):
        _set_field(self, "formulas", tuple(formulas))
        _set_field(self, "label_sets", tuple(frozenset(s) for s in label_sets))


class ExtensionAxiom(Record):
    __match_args__ = ("scheme", "formula", "label")
    scheme: int
    formula: Formula
    label: int

    def __init__(self, scheme: int, formula: Formula, label: int = 1):
        _set_field(self, "scheme", scheme)
        _set_field(self, "formula", formula)
        # the serial scheme has no label parameter
        _set_field(self, "label", 1 if scheme == 20 else label)


Justification = (
    Hypothesis | AxiomIdentity | AxiomTable | RuleBox | RuleDiamond
    | LeftShift | RightShift | LeftWeaken | RightWeaken | Cut | Resolution
    | MultiShift | SuperMultiShift | ExtensionAxiom)


class Step(Record):
    __match_args__ = ("conclusion", "justification", "premises")
    conclusion: Sequent
    justification: Justification
    premises: tuple[int, ...]  # 0-based indices of earlier steps

    def __init__(self, conclusion: Sequent, justification: Justification,
                 premises: Iterable[int] = ()):
        _set_field(self, "conclusion", conclusion)
        _set_field(self, "justification", justification)
        _set_field(self, "premises", tuple(premises))


class Derivation(Record):
    __match_args__ = ("logic", "hypotheses", "steps")
    logic: LogicId
    hypotheses: tuple[Sequent, ...]
    steps: tuple[Step, ...]

    def __init__(self, logic: LogicId, hypotheses: Iterable[Sequent],
                 steps: Iterable[Step]):
        _set_field(self, "logic", logic)
        _set_field(self, "hypotheses", tuple(hypotheses))
        _set_field(self, "steps", tuple(steps))

    def conclusion(self) -> Sequent:
        if not self.steps:
            raise ValueError("empty derivation has no conclusion")
        return self.steps[-1].conclusion


class DerivationBuilder:
    """Incremental construction of a derivation; add() returns step indices."""

    def __init__(self, logic: LogicId = LogicId.MV_K,
                 hypotheses: tuple[Sequent, ...] = ()):
        self.logic = logic
        self.hypotheses = tuple(hypotheses)
        self.steps: list[Step] = []

    def add(self, conclusion: Sequent, justification: Justification,
            *premises: int) -> int:
        self.steps.append(Step(conclusion, justification, premises))
        return len(self.steps) - 1

    def derivation(self) -> Derivation:
        return Derivation(self.logic, self.hypotheses, tuple(self.steps))


class Violation(Record):
    __match_args__ = ("step", "rule", "reason")
    step: int  # 1-based, matching script numbering
    rule: str
    reason: str

    def __str__(self):
        return f"step {self.step} ({self.rule}): {self.reason}"


# ---------------------------------------------------------------------------
# Step checking
# ---------------------------------------------------------------------------


# "Context, lf" has two readings: the context may also hold lf itself.  Each
# reading of each context in a conclusion side drops or keeps its own
# distinct principal, so the readings give exactly the sides between the
# union without the principals and the full union: the checkers test those
# bounds.  r-box and r-dia test the premise against both readings' value.


def _arity_error(count: int, premises) -> Optional[str]:
    if len(premises) != count:
        return f"needs exactly {count} premise(s), cited {len(premises)}"
    return None


def _check_hypothesis(j, concl, prems, hyps, logic, sig) -> Optional[str]:
    if not 0 <= j.index < len(hyps):
        return f"hypothesis index {j.index + 1} out of range (have {len(hyps)})"
    if concl != hyps[j.index]:
        return f"conclusion is not hypothesis {j.index + 1}"
    return None


def _check_identity(j, concl, prems, hyps, logic, sig) -> Optional[str]:
    if len(concl.antecedent) == 1 and concl.antecedent == concl.succedent:
        return None
    return "conclusion is not of the form (phi, k) -> (phi, k)"


def _check_table(j, concl, prems, hyps, logic, sig) -> Optional[str]:
    conn = sig.connectives.get(j.conn)
    if conn is None:
        return f"unknown connective {j.conn!r}"
    if len(j.entry) != conn.arity:
        return f"entry has {len(j.entry)} labels, connective arity is {conn.arity}"
    if any(not 1 <= k <= sig.n for k in j.entry):
        return "entry label out of range"
    if len(concl.succedent) != 1:
        return "succedent must be a single labelled formula"
    (head,) = concl.succedent
    if not isinstance(head.formula, Apply) or head.formula.conn != j.conn:
        return f"succedent formula is not an application of {j.conn!r}"
    if head.label != conn.table[j.entry]:
        return (f"table gives {j.conn}{j.entry} = {conn.table[j.entry]}, "
                f"succedent label is {head.label}")
    expected = frozenset(LabelledFormula(f, k)
                         for f, k in zip(head.formula.args, j.entry))
    if concl.antecedent != expected:
        return "antecedent does not match the table entry arguments"
    return None


def _check_modal(j, concl, prems, hyps, logic, sig) -> Optional[str]:
    (prem,) = prems
    if len(prem.antecedent) != 1:
        return "premise antecedent must be a single labelled formula"
    (plf,) = prem.antecedent
    if isinstance(j, RuleBox):
        if plf.label == sig.n:
            return f"side condition k != n violated (k = {plf.label})"
        principal = LabelledFormula(Box(plf.formula), plf.label)
    else:
        if plf.label == 1:
            return "side condition k != 1 violated (k = 1)"
        principal = LabelledFormula(Diamond(plf.formula), plf.label)
    if concl.succedent:
        return "conclusion succedent must be empty"
    if principal not in concl.antecedent:
        return "conclusion antecedent lacks the boxed/diamonded principal formula"
    for context in (concl.antecedent - {principal}, concl.antecedent):
        # sized first: a large n makes the set large, not the script
        if (_gamma_cross_size(context, sig.n) == len(prem.succedent)
                and prem.succedent == gamma_cross(context, sig.n)):
            return None
    return "premise succedent differs from the successor-exclusion set of the context"


def _check_left_shift(j, concl, prems, hyps, logic, sig) -> Optional[str]:
    (prem,) = prems
    reason = (f"conclusion does not shift any antecedent formula with label "
              f"{j.label} to the succedent complement")
    # every shifted label joins the succedent: compare sizes before building
    if len(concl.succedent) < sig.n - _interval_size(j.label, j.label, sig.n):
        return reason
    shifted = complement_interval(j.label, j.label, sig.n)
    for lf in prem.antecedent:
        extra = frozenset(LabelledFormula(lf.formula, k) for k in shifted)
        if (lf.label == j.label and concl.succedent == prem.succedent | extra
                and prem.antecedent - {lf} <= concl.antecedent <= prem.antecedent):
            return None
    return reason


def _check_right_shift(j, concl, prems, hyps, logic, sig) -> Optional[str]:
    if j.from_label == j.to_label:
        return f"side condition k' != k'' violated (both {j.from_label})"
    (prem,) = prems
    for lf in prem.succedent:
        moved = LabelledFormula(lf.formula, j.to_label)
        if (lf.label == j.from_label and concl.antecedent == prem.antecedent | {moved}
                and prem.succedent - {lf} <= concl.succedent <= prem.succedent):
            return None
    return (f"conclusion does not shift any succedent formula from label "
            f"{j.from_label} to antecedent label {j.to_label}")


def _check_weaken(j, concl, prems, hyps, logic, sig) -> Optional[str]:
    (prem,) = prems
    ante, succ = prem.antecedent, prem.succedent
    if isinstance(j, LeftWeaken):
        ante = ante | {j.added}
    else:
        succ = succ | {j.added}
    if concl.antecedent == ante and concl.succedent == succ:
        return None
    return "conclusion is not the premise plus the stated formula"


def _check_cut(j, concl, prems, hyps, logic, sig) -> Optional[str]:
    lf = j.cut
    for left, right in (prems, prems[::-1]):
        ante = left.antecedent | right.antecedent
        succ = left.succedent | right.succedent
        if (lf in left.succedent and lf in right.antecedent
                and left.antecedent | (right.antecedent - {lf}) <= concl.antecedent <= ante
                and (left.succedent - {lf}) | right.succedent <= concl.succedent <= succ):
            return None
    return "conclusion is not a cut of the premises on the stated formula"


def _check_resolution(j, concl, prems, hyps, logic, sig) -> Optional[str]:
    if j.first_label == j.second_label:
        return f"side condition k' != k'' violated (both {j.first_label})"
    lf1 = LabelledFormula(j.formula, j.first_label)
    lf2 = LabelledFormula(j.formula, j.second_label)
    for first, second in (prems, prems[::-1]):
        low = (first.succedent - {lf1}) | (second.succedent - {lf2})
        if (lf1 in first.succedent and lf2 in second.succedent
                and concl.antecedent == first.antecedent | second.antecedent
                and low <= concl.succedent <= first.succedent | second.succedent):
            return None
    return "conclusion is not a resolution of the premises on the stated labels"


def _check_multi_shift(j, concl, prems, hyps, logic, sig) -> Optional[str]:
    """The derived shift rules; mshift is smshift with one formula group.

    There is one premise per choice of one label from each group, and it
    must contain that row of principal formulas on the left.  The
    conclusion unions the remaining contexts (which may retain
    principals, by set semantics) and adds, on the right, each formula
    at every label outside its group.
    """
    if isinstance(j, MultiShift):
        formulas, label_sets = (j.formula,), (j.labels,)
    else:
        formulas, label_sets = j.formulas, j.label_sets
    if len(formulas) != len(label_sets):
        return "formula list and label-set list differ in length"
    if any(not 1 <= k <= sig.n for ks in label_sets for k in ks):
        return "shift label out of range"
    if err := _arity_error(prod(map(len, label_sets)), prems):
        return err
    rows = product(*(sorted(ks) for ks in label_sets))
    union_min, union_succ, all_principals = set(), set(), set()
    for idx, (prem, row) in enumerate(zip(prems, rows)):
        row_lfs = tuple(map(LabelledFormula, formulas, row))
        lacking = [lf for lf in row_lfs if lf not in prem.antecedent]
        if lacking:
            from .parser import render_labelled  # parser imports this module
            return (f"premise {idx + 1} lacks the principal labelled formula "
                    f"{render_labelled(lacking[0])}")
        union_min.update(prem.antecedent.difference(row_lfs))
        union_succ.update(prem.succedent)
        all_principals.update(row_lfs)
    reason = "conclusion succedent differs from the premise union plus complement block"
    # each group's complement joins the succedent: compare sizes before building
    if any(sig.n - len(ks) > len(concl.succedent) for ks in label_sets):
        return reason
    extra = frozenset(LabelledFormula(f, k) for f, ks in zip(formulas, label_sets)
                      for k in range(1, sig.n + 1) if k not in ks)
    if concl.succedent != union_succ | extra:
        return reason
    if not union_min <= concl.antecedent:
        return "conclusion antecedent drops part of the premise contexts"
    if not concl.antecedent <= union_min | all_principals:
        return "conclusion antecedent adds formulas not present in any premise context"
    return None


def _check_extension(j, concl, prems, hyps, logic, sig) -> Optional[str]:
    if j.scheme not in logic.schemes:
        return f"scheme {j.scheme} is not an axiom of {logic.value}"
    try:
        label = _scheme_label(j.scheme, j.label, sig.n)
    except ValueError as exc:
        return str(exc)
    # the succedent is the up-set of the label: compare sizes before building
    if (len(concl.succedent) != sig.n - label + 1
            or concl != instantiate_scheme(j.scheme, j.formula, label, sig.n)):
        return f"conclusion is not the scheme {j.scheme} instance"
    return None


class Rule(NamedTuple):
    """A rule's script name, premise count and checker.

    `premises` is None where the rule's own arguments fix the count, which
    the checker then checks.  A checker takes (justification, conclusion,
    premises, hypotheses, logic, signature) and returns None when the step
    is exact, else the reason.
    """

    name: str
    premises: Optional[int]
    check: Callable[..., Optional[str]]


#: Every justification type.  Extension axioms are named ext-N per scheme.
RULES: dict[type, Rule] = {
    Hypothesis: Rule("hyp", 0, _check_hypothesis),
    AxiomIdentity: Rule("ax-id", 0, _check_identity),
    AxiomTable: Rule("ax-table", 0, _check_table),
    RuleBox: Rule("r-box", 1, _check_modal),
    RuleDiamond: Rule("r-dia", 1, _check_modal),
    LeftShift: Rule("lshift", 1, _check_left_shift),
    RightShift: Rule("rshift", 1, _check_right_shift),
    LeftWeaken: Rule("lweak", 1, _check_weaken),
    RightWeaken: Rule("rweak", 1, _check_weaken),
    Cut: Rule("cut", 2, _check_cut),
    Resolution: Rule("resolve", 2, _check_resolution),
    MultiShift: Rule("mshift", None, _check_multi_shift),
    SuperMultiShift: Rule("smshift", None, _check_multi_shift),
    ExtensionAxiom: Rule("ext", 0, _check_extension),
}


def rule_name(justification: Justification) -> str:
    """The script name; the class name for a type outside RULES."""
    rule = RULES.get(type(justification))
    if rule is None:
        return type(justification).__name__
    if isinstance(justification, ExtensionAxiom):
        return f"{rule.name}-{justification.scheme}"
    return rule.name


def check_step(step: Step, premises: tuple[Sequent, ...],
               hypotheses: tuple[Sequent, ...], logic: LogicId,
               sig: Signature) -> Optional[str]:
    """Verify one rule application; None when it is exact, else the reason."""
    j = step.justification
    rule = RULES.get(type(j))
    if rule is None:
        return f"unknown justification {j!r}"
    if rule.premises is not None and (err := _arity_error(rule.premises, premises)):
        return err
    return rule.check(j, step.conclusion, premises, hypotheses, logic, sig)


def check_derivation(derivation: Derivation, sig: Signature) -> Optional[Violation]:
    """Check steps in order; None when the whole derivation is valid."""
    for pos, step in enumerate(derivation.steps):
        for ref in step.premises:
            if not 0 <= ref < pos:
                return Violation(pos + 1, rule_name(step.justification),
                                 f"premise reference {ref + 1} is not an earlier step")
        resolved = tuple(derivation.steps[ref].conclusion for ref in step.premises)
        reason = check_step(step, resolved, derivation.hypotheses,
                            derivation.logic, sig)
        if reason is not None:
            return Violation(pos + 1, rule_name(step.justification), reason)
    return None
