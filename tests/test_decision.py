import random
from itertools import groupby, product, zip_longest
from operator import attrgetter

import pytest
from helpers import (
    oracle_decide,
    oracle_models,
    rand_sequent,
    rooted_classes,
    search_models,
)

from mvmodal import decision, semantics
from mvmodal.core import (
    Apply,
    Box,
    Connective,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    lukasiewicz_implication,
    lukasiewicz_signature,
    make_signature,
    reversal_connective,
    subformula_closure,
    up_set,
)
from mvmodal.decision import (
    Countermodel,
    EnumerationCeilingError,
    ProvedValid,
    ValidUpTo,
    _relations,
    decide,
    filtration_bound,
    search_countermodel,
)
from mvmodal.parser import parse_sequent
from mvmodal.proofs import LogicId, instantiate_scheme
from mvmodal.semantics import FrameClass, KripkeModel, frame_check, satisfies_sequent

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
    """The models of the search's chunks, drawn one at a time through
    helpers.search_models: counts, class membership, the ceiling and the
    labels it cuts."""

    def test_counts_one_world(self):
        models = list(search_models(["p"], 2, 1, FrameClass.ANY))
        assert len(models) == 4  # 2 relations x 2 valuations

    def test_serial_single_world_needs_loop(self):
        models = list(search_models(["p"], 2, 1, FrameClass.SERIAL))
        assert len(models) == 2
        assert all(m.edges == {(0, 0)} for m in models)

    def test_counts_two_worlds(self):
        one_var = list(search_models(["p"], 3, 2, FrameClass.ANY))
        assert len(one_var) == 16 * 9
        two_vars = list(search_models(["p", "q"], 3, 2, FrameClass.ANY))
        assert len(two_vars) == 16 * 81 == 1296

    def test_deterministic_and_duplicate_free(self):
        first = list(search_models(["p"], 2, 2, FrameClass.ANY))
        second = list(search_models(["p"], 2, 2, FrameClass.ANY))
        assert first == second
        assert len(set(first)) == len(first)

    def test_all_in_class(self):
        for m in search_models([], 2, 2, FrameClass.PREORDER):
            assert frame_check(m, FrameClass.PREORDER)

    def test_ceiling(self):
        with pytest.raises(EnumerationCeilingError):
            list(search_models(["p"], 3, 2, FrameClass.ANY, ceiling=10))

    def test_ceiling_bounds_the_labels_of_a_huge_domain(self):
        # the search stops before it would draw a label above ceiling + 1,
        # so the 10^9 labels are never listed
        models = search_models(["p"], 10 ** 9, 1, FrameClass.ANY, ceiling=5)
        drawn = [next(models) for _ in range(5)]
        with pytest.raises(EnumerationCeilingError):
            next(models)
        assert [m.value(0, "p") for m in drawn] == [1, 2, 3, 4, 5]

    def test_ceiling_below_the_domain_keeps_the_order(self):
        # labels cut at one past the models left: the models drawn before
        # the abort are those of the uncut enumeration
        full = list(oracle_models(["p", "q"], 5, 2, FrameClass.ANY))
        for ceiling in range(40):
            models = search_models(["p", "q"], 5, 2, FrameClass.ANY,
                                   ceiling=ceiling)
            drawn = [next(models) for _ in range(ceiling)]
            with pytest.raises(EnumerationCeilingError):
                next(models)
            assert drawn == full[:ceiling]


class TestDecide:
    @pytest.mark.parametrize("goal, hypotheses", [
        (Sequent([lf(Box(p), 4)], []), ()),
        (Sequent([], [lf(p, 4)]), ()),
        (Sequent([lf(p, 1)], [lf(p, 1)]), (Sequent([lf(q, 4)], []),)),
    ], ids=["antecedent", "succedent", "hypothesis"])
    def test_label_above_the_domain_is_rejected(self, luk3, goal, hypotheses,
                                                monkeypatch):
        checks = []

        def counting(sig, sequents):
            checks.append(None)
            semantics._checked_labels(sig, sequents)

        monkeypatch.setattr(decision, "_checked_labels", counting)
        with pytest.raises(ValueError, match=r"^label 4 out of 1\.\.3$"):
            decide(luk3, hypotheses, goal, LogicId.MV_K, 3)
        with pytest.raises(ValueError, match=r"^label 4 out of 1\.\.3$"):
            search_countermodel(luk3, hypotheses, goal, FrameClass.ANY, 3)
        assert len(checks) == 2  # once per call, not once per model
        assert decide(lukasiewicz_signature(4), hypotheses, goal, LogicId.MV_K, 1)

    def test_ceiling_from_environment(self, luk3, monkeypatch):
        from mvmodal.decision import default_ceiling

        monkeypatch.setenv("MVK_ENUM_CEILING", "7")
        assert default_ceiling() == 7
        # valid under mv-T: 3 models on one world, 36 on two
        goal = Sequent([lf(Box(p), 3)], [lf(p, 3)])
        with pytest.raises(EnumerationCeilingError) as caught:
            decide(luk3, (), goal, LogicId.MV_T, 2)
        assert caught.value.examined == 7
        monkeypatch.delenv("MVK_ENUM_CEILING")
        assert default_ceiling() == 10_000_000
        assert decide(luk3, (), goal, LogicId.MV_T, 2) == ValidUpTo(2)

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

    @pytest.mark.parametrize("sigma, goal, bound, expected", [
        ("(p, 1) ->", "(Dia p, 2), (p, 3) ->", 2, Countermodel),
        ("", "(Box p, 2) -> (Dia p, 2), (Dia p, 3)", 3, ValidUpTo),
    ], ids=["refuted-with-a-hypothesis", "valid"])
    def test_one_closure_per_query(self, luk3, sigma, goal, bound, expected,
                                   monkeypatch):
        # the filtration bound, the search and the countermodel's re-check
        # share one closure_order
        calls = []
        closure_order = decision.closure_order

        def counting(formulas):
            calls.append(1)
            return closure_order(formulas)

        hypotheses = [parse_sequent(sigma, luk3)] if sigma else []
        goal = parse_sequent(goal, luk3)
        for module in (decision, semantics):
            monkeypatch.setattr(module, "closure_order", counting)
        out = decide(luk3, hypotheses, goal, LogicId.MV_K, bound)
        assert isinstance(out, expected) and len(calls) == 1
        if expected is Countermodel:
            assert out.model.world_count == 2

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


def _observed(model):
    """Everything a caller can read off a model."""
    worlds = model.worlds
    names = model.variables()
    return (model, hash(model), model.world_count, model.edges, model.vals,
            names, [model.successors(w) for w in worlds],
            [model.value(w, p) for w in worlds for p in (*names, "unvalued")])


class TestModelsOfOneRelation:
    """helpers.search_models, the search's chunks decoded model by model,
    against helpers.oracle_models, which builds every model in full.

    Models are compared a relation at a time, after all of the relation's
    models are drawn, so a later valuation that shares an earlier model's
    valuation would show.
    """

    # n = 3 with two variables at three worlds would draw 894,000 models
    # (about 30 s); n = 2 covers two variables there.
    @pytest.mark.parametrize("frame_class", list(FrameClass))
    @pytest.mark.parametrize("world_count", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_same_models_as_the_oracle(self, frame_class, world_count, n):
        for variables in ([], ["p"], ["q", "p"]):
            if (n, world_count, len(variables)) == (3, 3, 2):
                continue
            by_relation = attrgetter("edges")
            ours = groupby(search_models(variables, n, world_count,
                                         frame_class), by_relation)
            theirs = groupby(oracle_models(variables, n, world_count,
                                           frame_class), by_relation)
            for mine, oracle in zip_longest(ours, theirs):
                assert mine is not None and oracle is not None
                assert mine[0] == oracle[0]
                mine, oracle = list(mine[1]), list(oracle[1])
                assert len(mine) == n ** (world_count * len(variables))
                assert list(map(_observed, mine)) == list(map(_observed, oracle))

    def test_models_per_relation(self):
        models = list(search_models(["p"], 3, 2, FrameClass.ANY))
        assert len(models) == 16 * 9
        for frame_class in FrameClass:
            for world_count in (1, 2, 3):
                count = sum(1 for _ in search_models(["p"], 2, world_count,
                                                     frame_class))
                relations = list(_relations(world_count, frame_class))
                assert count == len(relations) * 2 ** world_count

    def test_ceiling_stops_inside_a_relation(self):
        # 9 valuations per relation: the 12th model is the second relation's third
        models = search_models(["p"], 3, 2, FrameClass.ANY, ceiling=11)
        drawn = [next(models) for _ in range(11)]
        with pytest.raises(EnumerationCeilingError) as caught:
            next(models)
        assert caught.value.examined == 11
        assert drawn == list(oracle_models(["p"], 3, 2, FrameClass.ANY))[:11]


def _stacked_search_cases(rng):
    """(signature, goal, hypothesis, bound): scheme instances over 0, 1
    and 2 variables for n = 2 and 3, each with a seeded hypothesis.

    A 0-ary connective c stands in for variables.  Each goal is refuted
    in some logics, by witnesses of one to three worlds, and valid in the
    others.  Bounds are 3 worlds, or 2 where the oracle would build
    thousands of models for a valid goal at 3.
    """
    c = Apply("c", ())
    operands = {0: Diamond(c), 1: Apply("imp", (c, p)),
                2: Apply("imp", (Box(p), q)), 3: Apply("imp", (p, Diamond(q)))}
    cases = [(2, 0, 23, 2, 3), (2, 0, 22, 2, 3), (3, 0, 26, 3, 3),
             (2, 1, 23, 2, 3), (2, 1, 25, 2, 3), (3, 1, 24, 3, 2),
             (3, 1, 22, 3, 2), (2, 2, 27, 2, 3), (2, 3, 21, 2, 2),
             (3, 3, 23, 3, 2), (3, 2, 21, 2, 2)]
    for n, operand, scheme, label, bound in cases:
        sig = make_signature(n, [lukasiewicz_implication(n),
                                 Connective("c", 0, {(): 2})])
        sigma = instantiate_scheme(rng.randrange(20, 29), operands[operand],
                                   rng.randint(1, n), n)
        yield (sig, instantiate_scheme(scheme, operands[operand], label, n),
               sigma, bound)


class TestWitnessesPinned:
    """decide against a search over the same relations in the same order,
    with every model built and checked in full.

    The search evaluates a relation's valuations in stacked blocks of at
    most decision.BLOCK_WORLDS worlds; the cases below run both with the
    default and with blocks split small, so that one relation's models
    span several blocks.
    """

    @pytest.mark.parametrize("logic", list(LogicId))
    def test_outcomes_match_the_full_construction(self, logic, monkeypatch):
        # each scheme instance as a goal, alone and under a seeded scheme
        # instance as hypothesis: witnesses of one to three worlds
        sig = lukasiewicz_signature(2)
        rng = random.Random(7)
        seen = set()
        cases = []
        for scheme in range(20, 29):
            goal = instantiate_scheme(scheme, p, 2, 2)
            sigma = instantiate_scheme(rng.randrange(20, 29), p,
                                       rng.randint(1, 2), 2)
            cases += [(sig, goal, sigma, bound) for bound in (1, 2, 3)]
        cases += _stacked_search_cases(rng)
        default = decision.BLOCK_WORLDS
        for sig, goal, sigma, bound in cases:
            for hypotheses in ((), (sigma,)):
                expected = oracle_decide(sig, hypotheses, goal,
                                         logic.frame_class, bound,
                                         relations=_relations)
                for block_worlds in (default, 5):
                    monkeypatch.setattr(decision, "BLOCK_WORLDS", block_worlds)
                    case = (goal, hypotheses, bound, block_worlds)
                    out = decide(sig, hypotheses, goal, logic, bound)
                    assert type(out) is type(expected), case
                    assert out == expected, case
                    if isinstance(out, Countermodel):
                        assert out.model.vals == expected.model.vals
                        assert out.world == expected.world
                        seen.add(out.model.world_count)
        if logic is not LogicId.MV_S5:
            assert 2 in seen

    @pytest.mark.parametrize("logic", list(LogicId))
    def test_ceiling_boundary_of_a_valid_query(self, luk3, logic, monkeypatch):
        # valid in every logic; each world count is searched in full.
        # Blocks of 5 worlds split every relation on 2 worlds (9
        # valuations) into blocks of 2 copies, so count - 1 falls inside
        # a block in both runs.
        goal = Sequent([lf(Box(p), 2)], up_set(lf(Diamond(p), 2), 3))
        frame_class = logic.frame_class
        count = sum(1 for w in (1, 2)
                    for _ in oracle_models(["p"], 3, w, frame_class))
        for block_worlds in (decision.BLOCK_WORLDS, 5):
            monkeypatch.setattr(decision, "BLOCK_WORLDS", block_worlds)
            assert decide(luk3, (), goal, logic, 2, ceiling=count) == ValidUpTo(2)
            with pytest.raises(EnumerationCeilingError) as caught:
                decide(luk3, (), goal, logic, 2, ceiling=count - 1)
            assert caught.value.examined == count - 1

    def test_stacked_frames_stay_within_the_block_cap(self, luk3, monkeypatch):
        # a chunk holds at most BLOCK_WORLDS positions: whole relations
        # while they fit, else one relation split at a labelling index
        chunks = []
        real = decision._chunks

        def recording(*args):
            for chunk in real(*args):
                rows, start, count, _ = chunk
                chunks.append((len(rows[0]), len(rows), start, count))
                yield chunk

        monkeypatch.setattr(decision, "_chunks", recording)
        monkeypatch.setattr(decision, "BLOCK_WORLDS", 100)
        r = Var("r")
        goal = Sequent([lf(Box(p), 3), lf(q, 2), lf(r, 1)], [lf(p, 3)])
        assert search_countermodel(luk3, (), goal, FrameClass.REFLEXIVE,
                                   2) is None
        # (worlds, relations, start, count): the 27 labellings of the one
        # reflexive relation on 1 world in one chunk, then each of the 4
        # on 2 worlds, 729 labellings, in 14 chunks of 50 copies and one
        # of the 29 left
        pieces = [(2, 1, start, 50) for start in range(0, 700, 50)]
        assert chunks == [(1, 1, 0, 27)] + (pieces + [(2, 1, 700, 29)]) * 4
        # one variable: the 2 relations on 1 world in one chunk, then the
        # 16 on 2 worlds, 9 labellings each, five to a chunk
        chunks.clear()
        goal = Sequent([lf(Box(p), 2)], up_set(lf(Diamond(p), 2), 3))
        assert search_countermodel(luk3, (), goal, FrameClass.ANY, 2) is None
        assert chunks == [(1, 2, 0, 3)] + [(2, 5, 0, 9)] * 3 + [(2, 1, 0, 9)]

    def test_ceiling_boundary_of_a_refuted_query(self, luk3, monkeypatch):
        # no one-world model refutes the goal: the witness lies inside the
        # two-world relations, after every one-world model, and inside
        # its block, so every ceiling below it aborts mid-block
        goal = Sequent([lf(Box(p), 2)], [lf(p, 2), lf(p, 3)])
        out = decide(luk3, (), goal, LogicId.MV_K, 2)
        assert out.model.world_count == 2
        models = [m for w in (1, 2)
                  for m in oracle_models(["p"], 3, w, FrameClass.ANY)]
        drawn = models.index(out.model) + 1
        for block_worlds in (decision.BLOCK_WORLDS, 5):
            monkeypatch.setattr(decision, "BLOCK_WORLDS", block_worlds)
            assert decide(luk3, (), goal, LogicId.MV_K, 2, ceiling=drawn) == out
            for ceiling in (drawn - 1, drawn - 2):
                with pytest.raises(EnumerationCeilingError) as caught:
                    decide(luk3, (), goal, LogicId.MV_K, 2, ceiling=ceiling)
                assert caught.value.examined == ceiling


def _kernel_signature(n):
    """The signature of tests/test_label_vectors.py at n values: imp,
    the reversal neg and the constant half."""
    return make_signature(n, [lukasiewicz_implication(n), reversal_connective(n),
                              Connective("half", 0, {(): 2})])


class TestBitSlicedKernel:
    """decide against helpers.oracle_decide over the same relations, each
    model built and checked in full, under the imp, neg and half
    signature for n = 2..4: random goals alone and under a random global
    hypothesis, with chunks of the default cap and of 5 positions, so
    that chunks start inside a relation."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("logic", list(LogicId))
    def test_random_goals_match_the_oracle(self, logic, n, monkeypatch):
        sig = _kernel_signature(n)
        rng = random.Random(f"{logic.value} {n}")
        cases = [(Sequent([lf(Box(p), 2)], up_set(lf(Diamond(p), 2), n)), 2, ["p"])]
        if n == 2:  # three worlds: the rooted pass first
            cases += [(rand_sequent(rng, sig, ["p"]), 3, ["p"]) for _ in range(3)]
        cases += [(rand_sequent(rng, sig, ["p", "q"]), 2, ["p", "q"]) for _ in range(6)]
        default = decision.BLOCK_WORLDS
        outcomes = set()
        for goal, bound, variables in cases:
            hypothesis = rand_sequent(rng, sig, variables, depth=1, max_side=2)
            for hypotheses in ((), (hypothesis,)):
                expected = oracle_decide(sig, hypotheses, goal, logic.frame_class,
                                         bound, relations=_relations)
                outcomes.add(type(expected))
                for block_worlds in (default, 5):
                    monkeypatch.setattr(decision, "BLOCK_WORLDS", block_worlds)
                    out = decide(sig, hypotheses, goal, logic, bound)
                    case = (goal, hypotheses, bound, block_worlds)
                    assert out == expected, case
                    if isinstance(out, Countermodel):
                        assert out.model.vals == expected.model.vals, case
                        assert out.world == expected.world, case
        assert Countermodel in outcomes and len(outcomes) > 1

    @pytest.mark.parametrize("block_worlds", [decision.BLOCK_WORLDS, 5])
    def test_ceilings_below_the_domain(self, block_worlds, monkeypatch):
        # with fewer models left than labels, labels are cut at one past
        # the models left: every ceiling up to the witness aborts at
        # itself, and from the witness's count on the witness is returned
        monkeypatch.setattr(decision, "BLOCK_WORLDS", block_worlds)
        sig = _kernel_signature(4)
        goal = Sequent([lf(Box(p), 2)], [lf(p, 2), lf(p, 3)])
        expected = oracle_decide(sig, (), goal, FrameClass.ANY, 2,
                                 relations=_relations)
        models = [m for w in (1, 2) for m in oracle_models(["p"], 4, w, FrameClass.ANY)]
        drawn = models.index(expected.model) + 1
        assert expected.model.world_count == 2 and drawn > 4
        for ceiling in range(drawn + 2):
            if ceiling < drawn:
                with pytest.raises(EnumerationCeilingError) as caught:
                    decide(sig, (), goal, LogicId.MV_K, 2, ceiling=ceiling)
                assert caught.value.examined == ceiling
            else:
                out = decide(sig, (), goal, LogicId.MV_K, 2, ceiling=ceiling)
                assert out == expected and out.model.vals == expected.model.vals

    @pytest.mark.parametrize("block_worlds", [decision.BLOCK_WORLDS, 5])
    def test_a_huge_domain(self, block_worlds, monkeypatch):
        # 10^9 labels: p = 5 at a one-world model without edges is the
        # fifth model, drawn from the labels 1..ceiling + 1
        monkeypatch.setattr(decision, "BLOCK_WORLDS", block_worlds)
        sig = make_signature(10 ** 9)
        goal = Sequent([lf(p, 5)], [])
        for ceiling in (0, 4):
            with pytest.raises(EnumerationCeilingError):
                decide(sig, (), goal, LogicId.MV_K, 2, ceiling=ceiling)
        for ceiling in (5, 1000):
            out = decide(sig, (), goal, LogicId.MV_K, 2, ceiling=ceiling)
            assert out == Countermodel(KripkeModel(1, (), {(0, "p"): 5}), 0)
        valid = Sequent([lf(Box(p), 2)], [lf(Box(p), 2)])
        with pytest.raises(EnumerationCeilingError) as caught:
            decide(sig, (), valid, LogicId.MV_K, 2, ceiling=1000)
        assert caught.value.examined == 1000

    def test_labellings_are_the_product_order(self):
        for top, length in ((1, 3), (2, 4), (3, 3), (5, 2)):
            assert [decision._labelling(i, top, length)
                    for i in range(top ** length)] == [
                list(labels) for labels in product(range(1, top + 1), repeat=length)]


# (logic, goal, hypothesis): goals over p at n = 2 whose first
# countermodel, under the hypothesis if any, has exactly three worlds.
# Each goal and hypothesis is a helpers.rand_sequent draw (depth 3 and 2)
# from a seeded scan over random.Random(seed), seeds 0 to 39.
THREE_WORLD_CASES = [
    (LogicId.MV_K, "(Dia p, 1) -> (imp(Box Dia p, Box Box p), 2), (Dia Dia Box p, 1)",
     None),
    (LogicId.MV_D, "-> (imp(p, Box Box p), 2), (Box p, 1)", None),
    (LogicId.MV_T, "(Dia Box Box p, 1) -> (Dia Dia Box p, 1)", None),
    (LogicId.MV_S4, "(Dia Dia Box p, 2) -> (imp(Dia Box p, Box Dia p), 2)", None),
    (LogicId.MV_K4, "(imp(imp(imp(p, p), p), imp(p, imp(p, p))), 2) -> "
     "(Box p, 2), (Dia p, 1), (Dia Dia imp(p, p), 2)", None),
    (LogicId.MV_B, "(p, 1), (imp(Dia Dia p, Dia p), 1) -> (Dia Box Dia p, 2)", None),
    (LogicId.MV_K, "(p, 1), (imp(p, Dia imp(p, p)), 2) -> "
     "(imp(imp(p, imp(p, p)), Dia p), 2)", "(Dia Box p, 1) ->"),
    (LogicId.MV_T, "(Dia Box Dia p, 1) ->", "(p, 1) -> (Dia Dia p, 2)"),
    (LogicId.MV_B, "(p, 1) -> (Box Box Box p, 1)", "-> (Dia Dia p, 2)"),
    (LogicId.MV_S4, "-> (p, 1), (imp(p, Box Box p), 2)",
     "(imp(Box p, Dia p), 2) -> (p, 2), (Dia Box p, 2)"),
]


def _valid_cases(logic):
    """(goal, hypotheses) valid up to three worlds in the logic at n = 2:
    its own schemes over p and Dia p, or for mv-K, which has none, a
    Box-distribution goal and a goal forced by a global hypothesis."""
    if logic is LogicId.MV_K:
        yield (Sequent([lf(Box(Apply("imp", (p, Box(p)))), 2), lf(Box(p), 2)],
                       [lf(Box(Box(p)), 2)]), ())
        yield Sequent([], [lf(Box(p), 2)]), (Sequent([], [lf(p, 2)]),)
    for scheme in sorted(logic.schemes):
        for operand in (p, Diamond(p)):
            for label in (1, 2):
                yield instantiate_scheme(scheme, operand, label, 2), ()


class TestRootedSearch:
    """From three worlds the search walks rooted frames first, and the
    exhaustive order only at a refuted goal's world count: decide against
    the full construction over decision._relations."""

    @pytest.mark.parametrize("logic, goal, hypothesis", THREE_WORLD_CASES)
    def test_three_world_witness_is_the_exhaustive_one(self, logic, goal,
                                                       hypothesis, monkeypatch):
        sig = lukasiewicz_signature(2)
        goal = parse_sequent(goal, sig)
        hypotheses = () if hypothesis is None else (parse_sequent(hypothesis, sig),)
        expected = oracle_decide(sig, hypotheses, goal, logic.frame_class, 3,
                                 relations=_relations)
        assert isinstance(expected, Countermodel)
        assert expected.model.world_count == 3
        for block_worlds in (decision.BLOCK_WORLDS, 5):
            monkeypatch.setattr(decision, "BLOCK_WORLDS", block_worlds)
            out = decide(sig, hypotheses, goal, logic, 3)
            assert out == expected, block_worlds
            assert out.model.vals == expected.model.vals
            assert out.world == expected.world

    @pytest.mark.parametrize("logic", list(LogicId))
    def test_valid_goals_up_to_three_worlds(self, logic, monkeypatch):
        sig = lukasiewicz_signature(2)
        for goal, hypotheses in _valid_cases(logic):
            expected = oracle_decide(sig, hypotheses, goal, logic.frame_class, 3,
                                     relations=_relations)
            assert not isinstance(expected, Countermodel), goal
            for block_worlds in (decision.BLOCK_WORLDS, 5):
                monkeypatch.setattr(decision, "BLOCK_WORLDS", block_worlds)
                assert decide(sig, hypotheses, goal, logic, 3) == expected

    @pytest.mark.parametrize("logic", list(LogicId))
    def test_ceiling_boundary_of_a_valid_query(self, luk3, logic, monkeypatch):
        # every labelled model on 1 and 2 worlds, then every valuation of
        # one relation per rooted class on 3 worlds; with blocks of 5
        # worlds each 3-world block holds one copy
        goal = Sequent([lf(Box(p), 2)], up_set(lf(Diamond(p), 2), 3))
        frame_class = logic.frame_class
        count = (sum(1 for w in (1, 2)
                     for _ in oracle_models(["p"], 3, w, frame_class))
                 + len(rooted_classes(3, frame_class)) * 3 ** 3)
        for block_worlds in (decision.BLOCK_WORLDS, 5):
            monkeypatch.setattr(decision, "BLOCK_WORLDS", block_worlds)
            assert decide(luk3, (), goal, logic, 3, ceiling=count) == ValidUpTo(3)
            with pytest.raises(EnumerationCeilingError) as caught:
                decide(luk3, (), goal, logic, 3, ceiling=count - 1)
            assert caught.value.examined == count - 1

    @pytest.mark.parametrize("logic", list(LogicId))
    def test_kept_rooted_frames_repeat_the_query(self, luk3, logic):
        # the first decide generates the rooted frames on 3 worlds and
        # keeps them, the second reads them: the same verdict at the same
        # ceiling boundary
        goal = Sequent([lf(Box(p), 2)], up_set(lf(Diamond(p), 2), 3))
        frame_class = logic.frame_class
        count = (sum(1 for w in (1, 2)
                     for _ in oracle_models(["p"], 3, w, frame_class))
                 + len(rooted_classes(3, frame_class)) * 3 ** 3)
        decision._kept_relations.cache_clear()
        for _ in range(2):
            assert decide(luk3, (), goal, logic, 3, ceiling=count) == ValidUpTo(3)
            with pytest.raises(EnumerationCeilingError) as caught:
                decide(luk3, (), goal, logic, 3, ceiling=count - 1)
            assert caught.value.examined == count - 1
        # the exhaustive pass's relations on 1 and 2 worlds, the rooted
        # frames on 3
        assert decision._kept_relations.cache_info().currsize == 3

    @pytest.mark.parametrize("logic", list(LogicId))
    def test_kept_relations_repeat_the_query(self, luk3, logic, monkeypatch):
        # the first decide generates the relations on 1 and 2 worlds and
        # keeps them, the second reads them without generating or testing
        # any relation: the same verdict at the same ceiling boundary
        goal = Sequent([lf(Box(p), 2)], up_set(lf(Diamond(p), 2), 3))
        frame_class = logic.frame_class
        count = sum(1 for w in (1, 2)
                    for _ in oracle_models(["p"], 3, w, frame_class))
        every, predicate = decision._relations, decision.frame_predicate
        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)
            return counted

        decision._kept_relations.cache_clear()
        for query in range(2):
            if query:
                monkeypatch.setattr(decision, "_relations",
                                    counting("_relations", every))
                monkeypatch.setattr(decision, "frame_predicate",
                                    counting("frame_predicate", predicate))
            assert decide(luk3, (), goal, logic, 2, ceiling=count) == ValidUpTo(2)
            with pytest.raises(EnumerationCeilingError) as caught:
                decide(luk3, (), goal, logic, 2, ceiling=count - 1)
            assert caught.value.examined == count - 1
        assert calls == []
        for world_count in (1, 2):
            assert (decision._kept_relations(world_count, frame_class, False)
                    == tuple(every(world_count, frame_class)))

    def test_rooted_frames_on_five_worlds_stay_lazy(self, monkeypatch):
        # the first rooted frame comes after 31 relations, not 2^25
        drawn = []
        every = decision._relations

        def counting(world_count, frame_class):
            for rows in every(world_count, frame_class):
                drawn.append(rows)
                yield rows

        monkeypatch.setattr(decision, "_relations", counting)
        first = next(decision._rooted_relations(5, FrameClass.ANY))
        assert first == (0b11110, 0, 0, 0, 0)
        assert len(drawn) == 31

    def test_ceiling_boundary_of_a_refuted_query(self, monkeypatch):
        # the labelled models on 1 and 2 worlds (18), the rooted models up
        # to the rooted witness, then the labelled models on 3 worlds up
        # to the witness of the exhaustive order (51): 83 in all.  The
        # rooted witness is the sixth valuation of the second rooted
        # relation, the 14th rooted model.
        sig = lukasiewicz_signature(2)
        logic, goal, _ = THREE_WORLD_CASES[2]
        goal = parse_sequent(goal, sig)
        out = decide(sig, (), goal, logic, 3)
        labelled = sum(1 for w in (1, 2)
                       for _ in oracle_models(["p"], 2, w, logic.frame_class))
        rooted = 8 + 6
        exhaustive = list(oracle_models(["p"], 2, 3, logic.frame_class)
                          ).index(out.model) + 1
        count = labelled + rooted + exhaustive
        assert count == 83
        for block_worlds in (decision.BLOCK_WORLDS, 5):
            monkeypatch.setattr(decision, "BLOCK_WORLDS", block_worlds)
            assert decide(sig, (), goal, logic, 3, ceiling=count) == out
            for ceiling in (count - 1, labelled + rooted - 1):
                with pytest.raises(EnumerationCeilingError) as caught:
                    decide(sig, (), goal, logic, 3, ceiling=ceiling)
                assert caught.value.examined == ceiling

    def test_a_rooted_witness_needs_an_exhaustive_one(self, monkeypatch):
        # the rooted pass keeps its frames, the exhaustive pass at three
        # worlds is left with none: the search must not return "valid"
        sig = lukasiewicz_signature(2)
        logic, goal, _ = THREE_WORLD_CASES[2]
        goal = parse_sequent(goal, sig)
        rooted = list(decision._rooted_relations(3, logic.frame_class))
        every = decision._relations
        monkeypatch.setattr(decision, "_rooted_relations",
                            lambda world_count, frame_class: iter(rooted))
        monkeypatch.setattr(decision, "_relations",
                            lambda world_count, frame_class: iter(
                                () if world_count == 3
                                else every(world_count, frame_class)))
        with pytest.raises(AssertionError, match="none in the exhaustive order"):
            decide(sig, (), goal, logic, 3)
