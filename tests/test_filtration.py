import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import class_relation, logic_models, rand_formula
from mvmodal.core import (
    Apply,
    Box,
    Diamond,
    Var,
    closure_order,
    formula_key,
    lukasiewicz_signature,
    subformula_closure,
)
from mvmodal.filtration import (
    equiv_classes,
    filter_model,
    verify_filtration,
)
from mvmodal.proofs import LogicId
from mvmodal.sampling import random_model
from mvmodal.semantics import (
    FrameClass,
    KripkeModel,
    evaluate,
    frame_check,
    label_vectors,
)

p = Var("p")
q = Var("q")

PHI = subformula_closure({Box(p), Diamond(q), Apply("imp", (p, q))})


class TestEquivClasses:
    def test_identical_worlds_collapse(self, luk3):
        m = KripkeModel(2, vals={(0, "p"): 2, (1, "p"): 2})
        assert equiv_classes(luk3, m, {p}) == ((0, 1),)

    def test_distinct_values_split(self, luk3):
        m = KripkeModel(2, vals={(0, "p"): 1, (1, "p"): 2})
        assert equiv_classes(luk3, m, {p}) == ((0,), (1,))

    def test_empty_set_single_class(self, luk3):
        m = KripkeModel(3, {(0, 1)}, {(0, "p"): 1, (1, "p"): 3})
        assert equiv_classes(luk3, m, set()) == ((0, 1, 2),)

    def test_requires_closure(self, luk3):
        m = KripkeModel(1)
        with pytest.raises(ValueError, match="not subformula-closed"):
            equiv_classes(luk3, m, {Box(p)})

    def test_missing_subformula_is_named_in_formula_syntax(self, luk3):
        phi = [Box(Apply("imp", (p, q)))]
        with pytest.raises(ValueError) as err:
            filter_model(luk3, KripkeModel(1, set(), {}), phi, LogicId.MV_K)
        assert str(err.value) == "formula set is not subformula-closed; missing p"


class TestFilterModel:
    def test_single_reflexive_world_is_fixed(self, luk3):
        m = KripkeModel(1, {(0, 0)}, {(0, "p"): 2})
        for logic in LogicId:
            filtered = filter_model(luk3, m, {Box(p), p}, logic)
            assert filtered.model.world_count == 1
            assert filtered.model.edges == {(0, 0)}
            assert filtered.model.value(0, "p") == 2

    def test_preorder_loop_collapses(self, luk3):
        # two value-equal worlds looping into each other shrink to one
        # world with a loop, preserving the boxed value
        m = KripkeModel(2, {(0, 0), (1, 1), (0, 1), (1, 0)},
                        {(0, "p"): 2, (1, "p"): 2})
        phi = subformula_closure({Box(p)})
        filtered = filter_model(luk3, m, phi, LogicId.MV_S4)
        assert filtered.model.world_count == 1
        assert filtered.model.edges == {(0, 0)}
        assert (evaluate(luk3, filtered.model, 0, Box(p))
                == evaluate(luk3, m, 0, Box(p)))

    def test_world_count_bound(self, luk3):
        rng = random.Random(31)
        for _ in range(50):
            m = random_model(rng, ["p", "q"], 3, 5)
            filtered = filter_model(luk3, m, PHI, LogicId.MV_K)
            assert filtered.model.world_count <= min(m.world_count,
                                                     3 ** len(PHI))

    def test_frame_class_precondition(self, luk3):
        m = KripkeModel(2, {(0, 1)})  # not reflexive
        with pytest.raises(ValueError, match="frame class"):
            filter_model(luk3, m, {p}, LogicId.MV_T)

    def test_unknown_representative_is_rejected(self, luk3):
        m = KripkeModel(2, {(0, 1)}, {(0, "p"): 2})
        with pytest.raises(ValueError, match="'middle'"):
            filter_model(luk3, m, [p], LogicId.MV_K, representative="middle")

    def test_projection_includes_original_edges(self, luk3):
        rng = random.Random(32)
        for logic in (LogicId.MV_K, LogicId.MV_D, LogicId.MV_T):
            for _ in range(30):
                m = random_model(rng, ["p", "q"], 3, 5, logic.frame_class)
                filtered = filter_model(luk3, m, PHI, logic)
                for (u, v) in m.edges:
                    assert ((filtered.class_of(u), filtered.class_of(v))
                            in filtered.model.edges)

    def test_class_relation_matches_the_oracle(self, luk3):
        # every logic, both representatives, formula sets beyond PHI
        rng = random.Random(38)
        nontrivial = 0
        for logic in LogicId:
            for _ in range(30):
                m = random_model(rng, ["p", "q"], 3, 6, logic.frame_class)
                phi = subformula_closure(
                    {rand_formula(rng, luk3, ["p", "q"], 3) for _ in range(3)})
                val = label_vectors(luk3, m, closure_order(phi))
                ordered = tuple(sorted(phi, key=formula_key))
                for representative in ("least", "greatest"):
                    filtered = filter_model(luk3, m, phi, logic, representative)
                    assert filtered.model.edges == class_relation(
                        m, logic, ordered, filtered.classes,
                        filtered.representatives, val), (logic, representative)
                    nontrivial += 0 < len(filtered.model.edges) < len(filtered.classes) ** 2
        assert nontrivial > 100

    def test_serial_input_gives_serial_output(self, luk3):
        rng = random.Random(33)
        for _ in range(50):
            m = random_model(rng, ["p", "q"], 3, 5, FrameClass.SERIAL)
            filtered = filter_model(luk3, m, PHI, LogicId.MV_D)
            assert frame_check(filtered.model, FrameClass.SERIAL)


class TestVerify:
    def test_random_models_verify_per_logic(self, luk3):
        rng = random.Random(34)
        for logic in LogicId:
            for _ in range(25):
                m = random_model(rng, ["p", "q"], 3, 5, logic.frame_class)
                report = verify_filtration(luk3, m, PHI, logic)
                assert report.ok, (logic, str(report))

    def test_idempotent_value_table(self, luk3):
        rng = random.Random(35)
        for _ in range(25):
            m = random_model(rng, ["p", "q"], 3, 5)
            once = filter_model(luk3, m, PHI, LogicId.MV_K)
            twice = filter_model(luk3, once.model, PHI, LogicId.MV_K)
            values_once = {(cls, f): v for (cls, f), v in once.values.items()}
            # re-filtering cannot split classes, so values transfer through
            # the class map of the second pass
            for (cls, f), v in values_once.items():
                assert twice.values[(twice.class_of(cls), f)] == v

    def test_representative_independence(self, luk3):
        rng = random.Random(36)
        for logic in LogicId:
            for _ in range(10):
                m = random_model(rng, ["p", "q"], 3, 5, logic.frame_class)
                least = filter_model(luk3, m, PHI, logic, representative="least")
                greatest = filter_model(luk3, m, PHI, logic,
                                        representative="greatest")
                assert least.classes == greatest.classes
                assert least.values == greatest.values
                assert least.model == greatest.model

    def test_wrong_rule_is_reported(self, luk3):
        # apply the order-comparison rule of one logic while claiming the
        # symmetric one: the report must name a witness
        rng = random.Random(37)
        ordered, bottom_up = tuple(sorted(PHI, key=formula_key)), closure_order(PHI)
        failures = several = 0
        for _ in range(200):
            m = random_model(rng, ["p", "q"], 3, 4, FrameClass.SYMMETRIC)
            right = filter_model(luk3, m, PHI, LogicId.MV_B)
            edges = class_relation(m, LogicId.MV_S4, ordered, right.classes,
                                   right.representatives,
                                   label_vectors(luk3, m, bottom_up))
            filtered = replace(right, model=KripkeModel(
                right.model.world_count, edges, right.model.vals))
            report = verify_filtration(luk3, m, PHI, LogicId.MV_B,
                                       filtered=filtered)
            if not report.ok:
                failures += 1
                assert (not report.frame_ok) or report.value_mismatches
                assert str(report)
            # by world, then by formula in canonical order
            mismatches = report.value_mismatches
            several += len(mismatches) > 1
            assert list(mismatches) == sorted(
                mismatches, key=lambda m: (m[0], formula_key(m[1])))
        assert failures > 0 and several > 0


class TestDeepFormulas:
    def test_a_4000_level_chain_needs_no_canonical_order(self, luk3, monkeypatch):
        # formula_key walks a whole formula: sorting the closure by it was
        # quadratic in depth.  Only the failure paths may call it.
        chain = p
        for level in range(4000):
            chain = Apply("imp", (q, chain)) if level % 2 else Box(chain)
        phi = closure_order([chain])

        def forbidden(formula):
            raise AssertionError("formula_key on the success path")

        monkeypatch.setattr("mvmodal.filtration.formula_key", forbidden)
        rng = random.Random(38)
        for logic in (LogicId.MV_K, LogicId.MV_S4):
            model = random_model(rng, ["p", "q"], 3, 5, logic.frame_class)
            filtered = filter_model(luk3, model, phi, logic)
            assert verify_filtration(luk3, model, phi, logic, filtered).ok
            for world in model.worlds:
                assert (filtered.values[(filtered.class_of(world), chain)]
                        == evaluate(luk3, model, world, chain))


LUK3 = lukasiewicz_signature(3)
FORMULAS = st.recursive(
    st.sampled_from([p, q]),
    lambda sub: st.one_of(sub.map(Box), sub.map(Diamond),
                          st.tuples(sub, sub).map(lambda ab: Apply("imp", ab))),
    max_leaves=5)
CLOSED_SETS = st.lists(FORMULAS, min_size=1, max_size=3).map(subformula_closure)


class TestFiltrationProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(logic_models(), CLOSED_SETS)
    def test_values_preserved_with_either_representative(self, logic_model, phi):
        logic, model = logic_model
        for representative in ("least", "greatest"):
            filtered = filter_model(LUK3, model, phi, logic, representative)
            report = verify_filtration(LUK3, model, phi, logic, filtered)
            assert report.ok, (representative, str(report))
