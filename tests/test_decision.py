import pytest

from mvmodal.core import (
    Apply,
    Box,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    lukasiewicz_signature,
    subformula_closure,
    up_set,
)
from mvmodal.decision import (
    Countermodel,
    EnumerationCeilingError,
    ProvedValid,
    ValidUpTo,
    decide,
    enumerate_models,
    filtration_bound,
    search_countermodel,
)
from mvmodal.proofs import LogicId
from mvmodal.semantics import FrameClass, frame_check, satisfies_sequent

p = Var("p")
q = Var("q")


def lf(f, k):
    return LabelledFormula(f, k)


class TestFiltrationBound:
    def test_small_closures(self):
        assert filtration_bound((), Sequent([lf(p, 1)], [lf(q, 1)]), 3) == 9
        assert filtration_bound((), Sequent([lf(p, 1)], []), 2) == 2

    def test_boxed_implication_goal(self):
        pq = Apply("imp", (p, q))
        goal = Sequent([lf(Box(pq), 3), lf(Box(p), 3)], [lf(Box(q), 3)])
        closure = subformula_closure(goal.formulas())
        assert closure == {Box(pq), pq, Box(p), p, Box(q), q}
        assert filtration_bound((), goal, 3) == 3 ** 6 == 729

    def test_hypotheses_enter_the_closure(self):
        goal = Sequent([lf(p, 1)], [])
        sigma = (Sequent([lf(Box(q), 1)], []),)
        assert filtration_bound(sigma, goal, 2) == 2 ** 3  # p, Box q, q


class TestEnumerateModels:
    def test_counts_one_world(self):
        models = list(enumerate_models(["p"], 2, 1, FrameClass.ANY))
        assert len(models) == 4  # 2 relations x 2 valuations

    def test_serial_single_world_needs_loop(self):
        models = list(enumerate_models(["p"], 2, 1, FrameClass.SERIAL))
        assert len(models) == 2
        assert all(m.edges == {(0, 0)} for m in models)

    def test_counts_two_worlds(self):
        one_var = list(enumerate_models(["p"], 3, 2, FrameClass.ANY))
        assert len(one_var) == 16 * 9
        two_vars = list(enumerate_models(["p", "q"], 3, 2, FrameClass.ANY))
        assert len(two_vars) == 16 * 81 == 1296

    def test_deterministic_and_duplicate_free(self):
        first = list(enumerate_models(["p"], 2, 2, FrameClass.ANY))
        second = list(enumerate_models(["p"], 2, 2, FrameClass.ANY))
        assert first == second
        assert len(set(first)) == len(first)

    def test_all_in_class(self):
        for m in enumerate_models([], 2, 2, FrameClass.PREORDER):
            assert frame_check(m, FrameClass.PREORDER)

    def test_ceiling(self):
        with pytest.raises(EnumerationCeilingError):
            list(enumerate_models(["p"], 3, 2, FrameClass.ANY, ceiling=10))

    def test_ceiling_from_environment(self, monkeypatch):
        from mvmodal.decision import default_ceiling

        monkeypatch.setenv("MVK_ENUM_CEILING", "7")
        assert default_ceiling() == 7
        with pytest.raises(EnumerationCeilingError):
            list(enumerate_models(["p"], 3, 2, FrameClass.ANY))
        monkeypatch.delenv("MVK_ENUM_CEILING")
        assert default_ceiling() == 10_000_000


class TestDecide:
    def test_box_projection_fails_in_minimal_logic(self, luk3):
        goal = Sequent([lf(Box(p), 3)], [lf(p, 3)])
        out = decide(luk3, (), goal, LogicId.MV_K, 1)
        assert isinstance(out, Countermodel)
        # first countermodel in enumeration order: one dead-end world, p at 1
        assert out.model.world_count == 1
        assert out.model.edges == frozenset()
        assert out.model.value(0, "p") == 1
        assert out.world == 0

    def test_box_projection_holds_reflexively(self, luk3):
        goal = Sequent([lf(Box(p), 3)], [lf(p, 3)])
        out = decide(luk3, (), goal, LogicId.MV_T, 3)
        assert out == ValidUpTo(3)

    def test_top_box_forces_diamond(self, luk3):
        goal = Sequent([lf(Box(p), 3)],
                       [lf(Diamond(p), 1), lf(Diamond(p), 3)])
        out = decide(luk3, (), goal, LogicId.MV_K, 3)
        assert out == ValidUpTo(3)

    def test_single_variable_sequents_survive_three_worlds(self, luk3):
        goals = ([Sequent([lf(Box(p), k)], up_set(lf(Diamond(p), k), 3))
                  for k in (1, 2)]
                 + [Sequent([lf(Diamond(p), k)],
                            frozenset(lf(Box(p), j) for j in range(1, k + 1)))
                    for k in (2, 3)])
        for goal in goals:
            assert decide(luk3, (), goal, LogicId.MV_K, 3) == ValidUpTo(3)

    def test_proved_valid_at_filtration_bound(self, bare2):
        goal = Sequent([lf(p, 1)], [lf(p, 1)])
        assert filtration_bound((), goal, 2) == 2
        out = decide(bare2, (), goal, LogicId.MV_K, 2)
        assert out == ProvedValid(2)

    def test_search_stops_at_the_filtration_bound(self):
        # any countermodel filters down to 2^1 worlds: the 68 models up to
        # 2 worlds settle it, and the ceiling of 100 is never reached
        sig = lukasiewicz_signature(2)
        goal = Sequent([lf(p, 1)], [lf(p, 1)])
        assert decide(sig, (), goal, LogicId.MV_K, 5, ceiling=100) == ProvedValid(5)

    def test_hypotheses_constrain_the_search(self, bare2):
        # globally p is 2, so -> (p, 2) has no countermodel; the bound
        # covers the filtration bound 2^1, settling validity outright
        sigma = (Sequent([], [lf(p, 2)]),)
        goal = Sequent([], [lf(p, 2)])
        assert isinstance(decide(bare2, (), goal, LogicId.MV_K, 2), Countermodel)
        assert decide(bare2, sigma, goal, LogicId.MV_K, 2) == ProvedValid(2)

    def test_countermodel_is_verified(self, luk3):
        goal = Sequent([lf(Box(p), 2)], [lf(p, 2), lf(p, 3)])
        out = decide(luk3, (), goal, LogicId.MV_K, 2)
        assert isinstance(out, Countermodel)
        assert frame_check(out.model, FrameClass.ANY)
        assert not satisfies_sequent(luk3, out.model, out.world, goal)

    def test_antitone_in_logic_strength(self, luk3):
        goal = Sequent([lf(Box(p), 2)], up_set(lf(Diamond(p), 2), 3))
        assert decide(luk3, (), goal, LogicId.MV_K, 2) == ValidUpTo(2)
        for logic in LogicId:
            assert decide(luk3, (), goal, logic, 2) == ValidUpTo(2)

    def test_bound_must_be_positive(self, luk3):
        with pytest.raises(ValueError):
            decide(luk3, (), Sequent(), LogicId.MV_K, 0)

    def test_ceiling_aborts_search(self, luk3):
        goal = Sequent([lf(Box(p), 3)], [lf(p, 3)])
        with pytest.raises(EnumerationCeilingError):
            decide(luk3, (), goal, LogicId.MV_T, 2, ceiling=3)

    def test_ceiling_counts_each_model_once(self, luk3):
        # mv-T up to 2 worlds: 1 x 3 + 4 x 9 = 39 models for one variable
        goal = Sequent([lf(Box(p), 3)], [lf(p, 3)])
        assert decide(luk3, (), goal, LogicId.MV_T, 2, ceiling=39) == ValidUpTo(2)
        with pytest.raises(EnumerationCeilingError) as caught:
            decide(luk3, (), goal, LogicId.MV_T, 2, ceiling=38)
        assert caught.value.examined == 38


class TestSearchByFrameClass:
    def test_euclidean_scheme_needs_euclidean_frames(self, luk3):
        # (Dia p, k) -> (Box Dia p, k)^+ survives on its own frame class
        # but not in the unrestricted search
        goal = Sequent([lf(Diamond(p), 2)], up_set(lf(Box(Diamond(p)), 2), 3))
        assert search_countermodel(luk3, (), goal, FrameClass.EUCLIDEAN, 2) is None
        found = search_countermodel(luk3, (), goal, FrameClass.ANY, 2)
        assert found is not None
        assert not frame_check(found.model, FrameClass.EUCLIDEAN)
        assert not satisfies_sequent(luk3, found.model, found.world, goal)
