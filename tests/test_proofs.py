import random
from dataclasses import dataclass
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import standard_fixtures
from helpers import class_models, label_mutations, logic_models, premise_drop_mutations
from mvmodal.core import (
    Apply,
    Box,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    gamma_cross,
    lukasiewicz_implication,
    make_signature,
    reversal_connective,
    up_set,
)
from mvmodal.proofs import (
    AxiomIdentity,
    AxiomTable,
    Cut,
    Derivation,
    DerivationBuilder,
    ExtensionAxiom,
    Hypothesis,
    LeftShift,
    LogicId,
    MultiShift,
    Resolution,
    RightShift,
    RightWeaken,
    RuleBox,
    RuleDiamond,
    Step,
    SuperMultiShift,
    Violation,
    check_derivation,
    check_step,
    instantiate_scheme,
)
from mvmodal.sampling import random_model
from mvmodal.semantics import FrameClass, model_satisfies, satisfies_sequent

p = Var("p")
q = Var("q")


def lf(f, k):
    return LabelledFormula(f, k)


def single_step(sequent, justification, *premise_sequents, logic=LogicId.MV_K,
                hypotheses=()):
    """A derivation whose premises are planted as hypotheses."""
    b = DerivationBuilder(logic, tuple(hypotheses) + tuple(premise_sequents))
    offset = len(tuple(hypotheses))
    refs = [b.add(s, Hypothesis(offset + i))
            for i, s in enumerate(premise_sequents)]
    b.add(sequent, justification, *refs)
    return b.derivation()


class TestLogicIds:
    def test_scheme_bundles(self):
        assert LogicId.MV_K.schemes == frozenset()
        assert LogicId.MV_D.schemes == {20}
        assert LogicId.MV_S4.schemes == {21, 22, 23, 24}
        assert LogicId.MV_S5.schemes == {21, 22, 27, 28}

    def test_round_trip_names(self):
        for logic in LogicId:
            assert LogicId(logic.value) is logic


class TestInstantiateScheme:
    def test_serial_scheme(self):
        assert instantiate_scheme(20, p, 1, 3) == Sequent(
            [lf(Box(p), 3)], [lf(Diamond(p), 3)])

    def test_box_projection_at_top(self):
        assert instantiate_scheme(21, p, 3, 3) == Sequent(
            [lf(Box(p), 3)], [lf(p, 3)])

    def test_diamond_stability(self):
        assert instantiate_scheme(27, p, 2, 3) == Sequent(
            [lf(Diamond(p), 2)],
            [lf(Box(Diamond(p)), 2), lf(Box(Diamond(p)), 3)])

    def test_all_schemes_have_up_set_shape(self):
        for scheme in range(21, 29):
            for k in (1, 2, 3):
                s = instantiate_scheme(scheme, p, k, 3)
                assert len(s.antecedent) == 1
                assert len(s.succedent) == 3 - k + 1

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            instantiate_scheme(19, p, 1, 3)


class TestAxioms:
    def test_identity_ok(self, luk3):
        d = single_step(Sequent([lf(p, 2)], [lf(p, 2)]), AxiomIdentity())
        assert check_derivation(d, luk3) is None

    def test_identity_label_mismatch(self, luk3):
        d = single_step(Sequent([lf(p, 2)], [lf(p, 3)]), AxiomIdentity())
        v = check_derivation(d, luk3)
        assert v is not None and v.rule == "ax-id"

    def test_table_axiom_ok(self, luk3):
        pq = Apply("imp", (p, q))
        d = single_step(Sequent([lf(p, 3), lf(q, 1)], [lf(pq, 1)]),
                        AxiomTable("imp", (3, 1)))
        assert check_derivation(d, luk3) is None

    def test_table_axiom_wrong_value(self, luk3):
        pq = Apply("imp", (p, q))
        d = single_step(Sequent([lf(p, 3), lf(q, 1)], [lf(pq, 2)]),
                        AxiomTable("imp", (3, 1)))
        v = check_derivation(d, luk3)
        assert v is not None and "table gives" in v.reason

    def test_table_axiom_duplicate_argument_collapses(self, luk3):
        pp = Apply("imp", (p, p))
        d = single_step(Sequent([lf(p, 2)], [lf(pp, 3)]),
                        AxiomTable("imp", (2, 2)))
        assert check_derivation(d, luk3) is None


class TestModalRules:
    def test_box_side_condition(self, luk3):
        premise = Sequent([lf(p, 3)], [])
        concl = Sequent([lf(Box(p), 3)], [])
        d = single_step(concl, RuleBox(), premise)
        v = check_derivation(d, luk3)
        assert v is not None and "k != n" in v.reason

    def test_box_context_may_retain_principal(self, luk3):
        # the context of the conclusion includes the principal formula, as
        # in the derivation of (Box p, k) -> (Dia p, k)^+
        gamma = [lf(Box(p), 2), lf(Diamond(p), 1)]
        premise = Sequent([lf(p, 2)], gamma_cross(gamma, 3))
        d = single_step(Sequent(gamma, []), RuleBox(), premise)
        assert check_derivation(d, luk3) is None

    def test_box_wrong_exclusion_set(self, luk3):
        gamma = [lf(Box(p), 2), lf(Diamond(p), 1)]
        premise = Sequent([lf(p, 2)], [lf(p, 2)])
        d = single_step(Sequent(gamma, []), RuleBox(), premise)
        v = check_derivation(d, luk3)
        assert v is not None and "successor-exclusion" in v.reason

    def test_diamond_side_condition(self, luk3):
        premise = Sequent([lf(p, 1)], [])
        concl = Sequent([lf(Diamond(p), 1)], [])
        d = single_step(concl, RuleBox(), premise)
        assert check_derivation(d, luk3) is not None


class TestStructuralRules:
    def test_right_shift_requires_distinct_labels(self, luk3):
        premise = Sequent([], [lf(p, 2)])
        d = single_step(Sequent([lf(p, 2)], []), RightShift(2, 2), premise)
        v = check_derivation(d, luk3)
        assert v is not None and "k' != k''" in v.reason

    def test_right_shift_ok(self, luk3):
        premise = Sequent([lf(q, 1)], [lf(p, 2)])
        concl = Sequent([lf(q, 1), lf(p, 3)], [])
        d = single_step(concl, RightShift(2, 3), premise)
        assert check_derivation(d, luk3) is None

    def test_left_shift_expands_complement(self, luk3):
        premise = Sequent([lf(q, 1), lf(p, 2)], [lf(q, 3)])
        concl = Sequent([lf(q, 1)], [lf(q, 3), lf(p, 1), lf(p, 3)])
        d = single_step(concl, LeftShift(2), premise)
        assert check_derivation(d, luk3) is None

    def test_weaken_adds_exactly_one(self, luk3):
        premise = Sequent([lf(p, 1)], [])
        good = single_step(Sequent([lf(p, 1)], [lf(q, 2)]),
                           RightWeaken(lf(q, 2)), premise)
        assert check_derivation(good, luk3) is None
        bad = single_step(Sequent([lf(p, 1)], [lf(q, 3)]),
                          RightWeaken(lf(q, 2)), premise)
        assert check_derivation(bad, luk3) is not None

    def test_cut_premise_order_is_free(self, luk3):
        left = Sequent([lf(q, 1)], [lf(p, 2)])
        right = Sequent([lf(p, 2)], [lf(q, 3)])
        concl = Sequent([lf(q, 1)], [lf(q, 3)])
        for order in ((left, right), (right, left)):
            d = single_step(concl, Cut(lf(p, 2)), *order)
            assert check_derivation(d, luk3) is None

    def test_resolution(self, luk3):
        first = Sequent([lf(q, 1)], [lf(p, 1)])
        second = Sequent([lf(q, 2)], [lf(p, 3)])
        concl = Sequent([lf(q, 1), lf(q, 2)], [])
        d = single_step(concl, Resolution(p, 1, 3), first, second)
        assert check_derivation(d, luk3) is None
        same = single_step(concl, Resolution(p, 1, 1), first, second)
        assert check_derivation(same, luk3) is not None


class TestDerivedRules:
    def test_multi_shift_empty_label_set(self, luk3):
        # zero premises derive -> {p} x [1, n]
        concl = Sequent([], [lf(p, 1), lf(p, 2), lf(p, 3)])
        d = Derivation(LogicId.MV_K, (),
                       (Step(concl, MultiShift(p, frozenset())),))
        assert check_derivation(d, luk3) is None

    def test_multi_shift_singleton_matches_left_shift(self, luk3):
        # a one-label multi-shift coincides with a left shift
        premise = Sequent([lf(q, 1), lf(p, 2)], [lf(q, 3)])
        concl = Sequent([lf(q, 1)], [lf(q, 3), lf(p, 1), lf(p, 3)])
        via_shift = single_step(concl, LeftShift(2), premise)
        via_multi = single_step(concl, MultiShift(p, frozenset({2})), premise)
        assert check_derivation(via_shift, luk3) is None
        assert check_derivation(via_multi, luk3) is None

    def test_multi_shift_premise_count(self, luk3):
        premise = Sequent([lf(p, 1)], [])
        concl = Sequent([], [lf(p, 3)])
        d = single_step(concl, MultiShift(p, frozenset({1, 2})), premise)
        v = check_derivation(d, luk3)
        assert v is not None and "premise" in v.reason

    def test_multi_shift_premises_align_with_sorted_labels(self, luk3):
        hyp = [Sequent([lf(p, 1), lf(q, 1)], []),
               Sequent([lf(p, 2), lf(q, 2)], [])]
        concl = Sequent([lf(q, 1), lf(q, 2)], [lf(p, 3)])
        b = DerivationBuilder(LogicId.MV_K, tuple(hyp))
        first = b.add(hyp[0], Hypothesis(0))
        second = b.add(hyp[1], Hypothesis(1))
        b.add(concl, MultiShift(p, frozenset({1, 2})), first, second)
        assert check_derivation(b.derivation(), luk3) is None
        swapped = DerivationBuilder(LogicId.MV_K, tuple(hyp))
        first = swapped.add(hyp[0], Hypothesis(0))
        second = swapped.add(hyp[1], Hypothesis(1))
        swapped.add(concl, MultiShift(p, frozenset({1, 2})), second, first)
        v = check_derivation(swapped.derivation(), luk3)
        assert v is not None and "principal" in v.reason

    def test_super_multi_shift(self, luk3):
        # premises cover the product {1,2} x {3}
        hyp = [Sequent([lf(p, 1), lf(q, 3)], []),
               Sequent([lf(p, 2), lf(q, 3)], [])]
        concl = Sequent([], [lf(p, 3), lf(q, 1), lf(q, 2)])
        d = single_step(concl,
                        SuperMultiShift((p, q),
                                        (frozenset({1, 2}), frozenset({3}))),
                        *hyp)
        assert check_derivation(d, luk3) is None

    def test_super_multi_shift_wrong_coverage(self, luk3):
        hyp = [Sequent([lf(p, 1), lf(q, 3)], [])]
        concl = Sequent([], [lf(p, 3), lf(q, 1), lf(q, 2)])
        d = single_step(concl,
                        SuperMultiShift((p, q),
                                        (frozenset({1, 2}), frozenset({3}))),
                        *hyp)
        assert check_derivation(d, luk3) is not None

    def test_super_multi_shift_names_the_first_missing_principal(self, luk3):
        # the first principal the premise lacks, in the row's group order
        r = Var("r")
        concl = Sequent([lf(r, 1)], [lf(r, 1), lf(p, 2), lf(p, 3), lf(q, 1), lf(q, 3)])
        groups = (frozenset({1}), frozenset({2}))
        for hyp, expected in ((Sequent([lf(r, 1)], [lf(r, 1)]), "(p, 1)"),
                              (Sequent([lf(r, 1), lf(p, 1)], [lf(r, 1)]), "(q, 2)")):
            d = single_step(concl, SuperMultiShift((p, q), groups), hyp)
            assert check_derivation(d, luk3).reason == (
                f"premise 1 lacks the principal labelled formula {expected}")


class TestAlternateRoutes:
    def test_top_label_sequent_via_right_shifts(self, luk3):
        # route the derivation of (Box p, 3) -> (Dia p, 1), (Dia p, 3)
        # through the dual sequent and two right shifts
        from mvmodal.derivations import diamond_above_box, inline

        b = DerivationBuilder()
        dual = inline(b, diamond_above_box(p, 2, 3))
        s1 = b.add(Sequent([lf(Diamond(p), 2), lf(Box(p), 3)], [lf(Box(p), 2)]),
                   RightShift(1, 3), dual)
        s2 = b.add(Sequent([lf(Diamond(p), 2), lf(Box(p), 3)], []),
                   RightShift(2, 3), s1)
        b.add(Sequent([lf(Box(p), 3)], [lf(Diamond(p), 1), lf(Diamond(p), 3)]),
              MultiShift(Diamond(p), frozenset({2})), s2)
        assert check_derivation(b.derivation(), luk3) is None

    def test_multi_shift_context_may_retain_principal(self, luk3):
        # set semantics: a premise context may itself contain the shifted
        # formula, which then survives into the conclusion
        premise = Sequent([lf(p, 1), lf(p, 2)], [])
        concl = Sequent([lf(p, 1)], [lf(p, 1), lf(p, 3)])
        d = single_step(concl, MultiShift(p, frozenset({2})), premise)
        assert check_derivation(d, luk3) is None


class TestHypothesesAndSchemes:
    def test_hypothesis_must_match(self, luk3):
        hyp = Sequent([lf(p, 1)], [])
        good = Derivation(LogicId.MV_K, (hyp,), (Step(hyp, Hypothesis(0)),))
        assert check_derivation(good, luk3) is None
        other = Sequent([lf(p, 2)], [])
        bad = Derivation(LogicId.MV_K, (hyp,), (Step(other, Hypothesis(0)),))
        assert check_derivation(bad, luk3) is not None

    def test_hypothesis_index_range(self, luk3):
        d = Derivation(LogicId.MV_K, (),
                       (Step(Sequent([lf(p, 1)], []), Hypothesis(0)),))
        v = check_derivation(d, luk3)
        assert v is not None and "out of range" in v.reason

    def test_scheme_admissibility(self, luk3):
        concl = instantiate_scheme(21, p, 2, 3)
        under_t = Derivation(LogicId.MV_T, (),
                             (Step(concl, ExtensionAxiom(21, p, 2)),))
        assert check_derivation(under_t, luk3) is None
        under_k = Derivation(LogicId.MV_K, (),
                             (Step(concl, ExtensionAxiom(21, p, 2)),))
        v = check_derivation(under_k, luk3)
        assert v is not None and "not an axiom of mv-K" in v.reason

    def test_all_schemes_check_under_their_logics(self, luk3):
        for logic in LogicId:
            for scheme in sorted(logic.schemes):
                for k in (1, 2, 3):
                    concl = instantiate_scheme(scheme, p, k, 3)
                    d = Derivation(logic, (),
                                   (Step(concl, ExtensionAxiom(scheme, p, k)),))
                    assert check_derivation(d, luk3) is None

    def test_forward_reference_rejected(self, luk3):
        step = Step(Sequent([lf(p, 1)], [lf(p, 1)]), AxiomIdentity(), (0,))
        d = Derivation(LogicId.MV_K, (), (step,))
        v = check_derivation(d, luk3)
        assert v is not None and "earlier step" in v.reason


class TestUnknownJustification:
    @dataclass(frozen=True)
    class Oracle:
        pass

    def test_reported_as_a_violation(self, luk3):
        step = Step(Sequent([lf(p, 1)], [lf(p, 1)]), self.Oracle())
        d = Derivation(LogicId.MV_K, (), (step,))
        assert check_derivation(d, luk3) == Violation(
            1, "Oracle", "unknown justification TestUnknownJustification.Oracle()")

    def test_bad_premise_reference_names_the_type(self, luk3):
        step = Step(Sequent([lf(p, 1)], [lf(p, 1)]), self.Oracle(), (0,))
        v = check_derivation(Derivation(LogicId.MV_K, (), (step,)), luk3)
        assert (v.step, v.rule) == (1, "Oracle") and "earlier step" in v.reason


class TestFixtures:
    def test_all_fixture_derivations_check(self, fixtures):
        for name, sig, derivation in fixtures:
            assert check_derivation(derivation, sig) is None, name

    def test_fixture_mutations_rejected(self, fixtures):
        for name, sig, derivation in fixtures:
            mutations = islice(label_mutations(derivation, sig.n), 0, None, 7)
            for mutated in mutations:
                assert check_derivation(mutated, sig) is not None, name

    def test_dropped_premises_rejected(self, fixtures):
        for name, sig, derivation in fixtures:
            for mutated in premise_drop_mutations(derivation):
                assert check_derivation(mutated, sig) is not None, name

    def test_identity_axiom_swap_rejected(self, fixtures):
        # no fixture step other than a literal identity axiom has the
        # identity shape, so re-justifying any other premise-free step as
        # ax-id must fail (rules may otherwise overlap: a singleton
        # multi-shift IS a left shift, for instance)
        for name, sig, derivation in fixtures:
            for idx, step in enumerate(derivation.steps):
                if isinstance(step.justification, AxiomIdentity):
                    continue
                if step.premises:
                    continue
                steps = list(derivation.steps)
                steps[idx] = Step(step.conclusion, AxiomIdentity(), ())
                mutated = Derivation(derivation.logic, derivation.hypotheses,
                                     tuple(steps))
                assert check_derivation(mutated, sig) is not None, (name, idx)

    def test_misstated_context_is_pinpointed(self, luk3):
        # corrupt the modal step of a valid derivation: the violation
        # names that step, not a later one
        from mvmodal.derivations import box_below_diamond

        derivation = box_below_diamond(p, 2, 3)
        steps = list(derivation.steps)
        target = next(i for i, s in enumerate(steps)
                      if isinstance(s.justification, RuleBox))
        bad = Sequent([lf(Box(p), 2), lf(Diamond(p), 2)], [])
        steps[target] = Step(bad, steps[target].justification,
                             steps[target].premises)
        v = check_derivation(Derivation(derivation.logic,
                                        derivation.hypotheses, tuple(steps)),
                             luk3)
        assert v is not None and v.step == target + 1 and v.rule == "r-box"

    def test_fixture_soundness_sampled(self, fixtures):
        # conclusions of accepted derivations hold at every world of
        # random models satisfying the hypotheses
        rng = random.Random(11)
        for name, sig, derivation in fixtures:
            goal = derivation.conclusion()
            variables = sorted(
                {v for s in (goal, *derivation.hypotheses)
                 for v in s.variables()}) or ["p"]
            accepted = 0
            attempts = 0
            while accepted < 100 and attempts < 10000:
                attempts += 1
                m = random_model(rng, variables, sig.n, 4,
                                 derivation.logic.frame_class)
                if derivation.hypotheses and not model_satisfies(
                        sig, m, derivation.hypotheses):
                    continue
                accepted += 1
                for u in m.worlds:
                    assert satisfies_sequent(sig, m, u, goal), (name, u)
            assert accepted == 100, name


# ---------------------------------------------------------------------------
# Step soundness: every step the checker accepts holds on every model of
# the logic's frame class that satisfies the hypotheses
# ---------------------------------------------------------------------------

SIG_NEG = make_signature(3, [lukasiewicz_implication(3), reversal_connective(3)])
# the rules whose context may or may not retain the principal formula
TWO_READINGS = (RuleBox, RuleDiamond, LeftShift, RightShift, Cut, Resolution)


def accepted_near_misses(step, premises, hypotheses=(), logic=LogicId.MV_K):
    """The conclusions, the step's own or one labelled formula off it on one
    side, that the checker accepts for the step's rule and premises."""
    c = step.conclusion
    formulas = {x.formula for s in (c, *premises) for x in s.antecedent | s.succedent}
    toggles = [lf(f, k) for f in formulas for k in range(1, SIG_NEG.n + 1)]
    for concl in [c] + [Sequent(c.antecedent ^ {t}, c.succedent) for t in toggles] + [
            Sequent(c.antecedent, c.succedent ^ {t}) for t in toggles]:
        moved = Step(concl, step.justification, step.premises)
        if check_step(moved, premises, hypotheses, logic, SIG_NEG) is None:
            yield concl


def _accepted():
    """(hypotheses, accepted conclusions) for the stock derivations, and one
    entry per logic with the instances of its extension schemes."""
    stock = []
    for _, _, d in standard_fixtures(SIG_NEG):
        assert check_derivation(d, SIG_NEG) is None
        accepted = []
        for step in d.steps:
            premises = tuple(d.steps[ref].conclusion for ref in step.premises)
            if isinstance(step.justification, TWO_READINGS):
                accepted += accepted_near_misses(step, premises, d.hypotheses, d.logic)
            else:
                accepted.append(step.conclusion)
        stock.append((d.hypotheses, accepted))
    schemes = {logic: ((), [instantiate_scheme(scheme, f, k, SIG_NEG.n)
                            for scheme in sorted(logic.schemes)
                            for f in (p, Box(q)) for k in (1, 2, 3)])
               for logic in LogicId}
    return stock, schemes


STOCK_ACCEPTED, SCHEME_INSTANCES = _accepted()
# contexts share formulas with the principals, and Box p with Dia p gives
# the modal rules a nonempty successor-exclusion set
CONTEXTS = st.frozensets(st.builds(LabelledFormula, st.sampled_from(
    [p, q, Box(p), Diamond(p)]), st.integers(1, 3)), max_size=2)


@st.composite
def planted_steps(draw):
    """(step, premises): a two-readings rule applied to drawn premises, its
    conclusion the reading without the principals."""
    g1, d1, g2, d2 = (draw(CONTEXTS) for _ in range(4))
    f = draw(st.sampled_from([p, q]))
    k1, k2 = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True))
    rule = draw(st.sampled_from(TWO_READINGS))
    if rule is Resolution:
        premises = (Sequent(g1, d1 | {lf(f, k1)}), Sequent(g2, d2 | {lf(f, k2)}))
        return Step(Sequent(g1 | g2, d1 | d2), Resolution(f, k1, k2), (0, 1)), premises
    if rule is Cut:
        premises = (Sequent(g1, d1 | {lf(f, k1)}), Sequent(g2 | {lf(f, k1)}, d2))
        return Step(Sequent(g1 | g2, d1 | d2), Cut(lf(f, k1)), (0, 1)), premises
    if rule is RightShift:
        premise = Sequent(g1, d1 | {lf(f, k1)})
        return Step(Sequent(g1 | {lf(f, k2)}, d1), RightShift(k1, k2), (0,)), (premise,)
    if rule is LeftShift:
        premise = Sequent(g1 | {lf(f, k1)}, d1)
        shifted = {lf(f, k) for k in range(1, 4) if k != k1}
        return Step(Sequent(g1, d1 | shifted), LeftShift(k1), (0,)), (premise,)
    # k1 may break the side condition (r-box needs k != n, r-dia k != 1)
    premise = Sequent([lf(f, k1)], gamma_cross(g1, 3))
    principal = lf((Box if rule is RuleBox else Diamond)(f), k1)
    return Step(Sequent(g1 | {principal}, []), rule(), (0,)), (premise,)


class TestStepSoundness:
    def test_near_misses_keep_or_drop_a_principal(self):
        own = {s.conclusion for _, _, d in standard_fixtures(SIG_NEG) for s in d.steps}
        assert sum(c not in own for _, cs in STOCK_ACCEPTED for c in cs) > 100

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(logic_models())
    def test_accepted_steps_hold(self, logic_model):
        logic, model = logic_model
        for hypotheses, conclusions in STOCK_ACCEPTED + [SCHEME_INSTANCES[logic]]:
            if hypotheses and not model_satisfies(SIG_NEG, model, hypotheses):
                continue
            for concl in conclusions:
                assert model_satisfies(SIG_NEG, model, concl), concl

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(class_models(FrameClass.ANY), planted_steps())
    def test_two_readings_rules_are_locally_sound(self, model, planted):
        # premises that hold at every world force every accepted conclusion
        step, premises = planted
        assume(model_satisfies(SIG_NEG, model, premises))
        for concl in accepted_near_misses(step, premises):
            assert model_satisfies(SIG_NEG, model, concl), concl
