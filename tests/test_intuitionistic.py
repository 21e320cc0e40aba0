import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _eval_mvil, oracle_models, rand_formula
from mvmodal import intuitionistic, semantics
from mvmodal.core import (
    Apply,
    Box,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    closure_order,
    lukasiewicz_implication,
    make_signature,
    max_connective,
    min_connective,
    reversal_connective,
)
from mvmodal.intuitionistic import (
    eval_mvil,
    godel_translate,
    godel_translate_optimized,
    hat_model,
    is_mvil_interpretation,
    monotone_connective,
    mvil_vector,
    translate_sequent,
)
from mvmodal.sampling import random_model
from mvmodal.semantics import (
    FrameClass,
    KripkeModel,
    evaluate,
    model_satisfies,
)

p = Var("p")
q = Var("q")


def lf(f, k):
    return LabelledFormula(f, k)


class TestInterpretationPredicate:
    def test_single_reflexive_world(self):
        assert is_mvil_interpretation(KripkeModel(1, {(0, 0)}))

    def test_missing_loops(self):
        assert not is_mvil_interpretation(KripkeModel(2, {(0, 1)}))

    def test_broken_monotonicity(self):
        m = KripkeModel(2, {(0, 0), (1, 1), (0, 1)},
                        {(0, "p"): 3, (1, "p"): 1})
        assert not is_mvil_interpretation(m)

    def test_monotone_preorder(self):
        m = KripkeModel(2, {(0, 0), (1, 1), (0, 1)},
                        {(0, "p"): 1, (1, "p"): 3})
        assert is_mvil_interpretation(m)


class TestEvalMvil:
    def test_single_world_table_application(self, luk3):
        m = KripkeModel(1, {(0, 0)}, {(0, "p"): 3, (0, "q"): 1})
        assert eval_mvil(luk3, m, 0, Apply("imp", (p, q))) == 1

    def test_two_point_infimum(self, luk3):
        m = KripkeModel(2, {(0, 0), (1, 1), (0, 1)},
                        {(0, "p"): 3, (1, "p"): 3, (0, "q"): 1, (1, "q"): 2})
        # min(imp(3, 1), imp(3, 2)) = min(1, 2)
        assert eval_mvil(luk3, m, 0, Apply("imp", (p, q))) == 1
        assert eval_mvil(luk3, m, 1, Apply("imp", (p, q))) == 2

    def test_variables_read_the_valuation(self, luk3):
        m = KripkeModel(1, {(0, 0)}, {(0, "p"): 2})
        assert eval_mvil(luk3, m, 0, p) == 2

    def test_modal_operators_rejected(self, luk3):
        m = KripkeModel(1, {(0, 0)})
        with pytest.raises(ValueError, match="no modal"):
            eval_mvil(luk3, m, 0, Box(p))


    def test_first_offender_in_closure_order_names_the_error(self, luk3):
        # world 1 is a dead end; subformulas come before their parents
        m = KripkeModel(2, {(0, 0)})
        with pytest.raises(ValueError, match="world 1 has no successors"):
            eval_mvil(luk3, m, 0, Box(Apply("imp", (p, q))))
        with pytest.raises(ValueError, match="no modal"):
            eval_mvil(luk3, m, 0, Apply("imp", (Box(p), q)))
        with pytest.raises(ValueError, match="no modal"):
            eval_mvil(luk3, m, 0, Box(p))

    def test_one_cache_walks_each_formula_once(self, luk3, monkeypatch):
        walks = []

        def counting(formulas):
            walks.append(None)
            return closure_order(formulas)

        monkeypatch.setattr(intuitionistic, "closure_order", counting)
        monkeypatch.setattr(semantics, "closure_order", counting)
        m = KripkeModel(3, {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)},
                        {(1, "p"): 2, (2, "q"): 3})
        other = KripkeModel(2, {(0, 0), (1, 1), (1, 0)}, {(0, "q"): 2})
        f = Apply("imp", (p, q))
        eval_mvil(luk3, m, 0, f)
        # one walk of the formula's closure, one of its embedding's
        assert len(walks) == 2
        for model, w in ((m, 1), (m, 2), (other, 1), (m, 0)):
            walks.clear()
            eval_mvil(luk3, model, w, f)
            mvil_vector(luk3, model, f)
            assert walks == []

    @pytest.mark.parametrize("world", [1.5, 1.0])
    def test_a_float_world_is_a_type_error(self, luk3, world):
        m = KripkeModel(2, {(0, 0), (1, 1)}, {(1, "p"): 3})
        for f in (p, Apply("imp", (p, q)), Box(p)):
            with pytest.raises(TypeError, match="'float' object cannot be "
                                                "interpreted as an integer"):
                eval_mvil(luk3, m, world, f)

    def test_a_bool_world_is_an_index(self, luk3):
        m = KripkeModel(2, {(0, 0), (1, 1)}, {(1, "p"): 3})
        assert eval_mvil(luk3, m, True, p) == 3
        assert eval_mvil(luk3, m, False, Apply("imp", (p, q))) == 3


class TestEmbeddingMemo:
    """The memo holds what mvil_vector reads of a formula alone; every
    check of the model runs on every call."""

    reflexive = KripkeModel(2, {(0, 0), (1, 1), (0, 1)}, {(1, "p"): 3})
    dead_end = KripkeModel(2, {(0, 0)}, {(1, "p"): 3})

    def test_a_dead_end_is_checked_on_every_call(self, luk3):
        f = Apply("imp", (q, p))
        assert mvil_vector(luk3, self.reflexive, f) == [3, 3]
        for call in (lambda: mvil_vector(luk3, self.dead_end, f),
                     lambda: eval_mvil(luk3, self.dead_end, 0, f)):
            with pytest.raises(ValueError, match="world 1 has no successors"):
                call()
        assert eval_mvil(luk3, self.reflexive, 0, f) == 3
        # a bare variable reads no successors, on either model
        assert mvil_vector(luk3, self.dead_end, p) == [1, 3]

    def test_a_modal_formula_fails_on_every_call(self, luk3):
        f = Apply("imp", (p, Diamond(q)))
        for model in (self.reflexive, self.reflexive, self.dead_end, self.reflexive):
            with pytest.raises(ValueError, match="no modal"):
                mvil_vector(luk3, model, f)
            with pytest.raises(ValueError, match="no modal"):
                eval_mvil(luk3, model, 1, f)

    @pytest.mark.parametrize("formula, message", [
        (Box(p), "intuitionistic formulas admit no modal connectives"),
        (Apply("imp", (Box(p), q)), "intuitionistic formulas admit no modal connectives"),
        (Box(Apply("imp", (p, q))),
         "world 1 has no successors; interpretation is not reflexive"),
        # a formula's later arguments come first in closure order
        (Apply("imp", (Apply("imp", (p, q)), Box(q))),
         "intuitionistic formulas admit no modal connectives"),
        (Apply("imp", (Box(q), Apply("imp", (p, q)))),
         "world 1 has no successors; interpretation is not reflexive"),
        (Apply("imp", (p, q)),
         "world 1 has no successors; interpretation is not reflexive"),
    ])
    def test_errors_are_the_same_cold_and_warm(self, luk3, formula, message):
        # the first call finds the memo empty (conftest clears it)
        for _ in range(3):
            with pytest.raises(ValueError) as raised:
                eval_mvil(luk3, self.dead_end, 0, formula)
            assert str(raised.value) == message
            with pytest.raises(ValueError) as raised:
                mvil_vector(luk3, self.dead_end, formula)
            assert str(raised.value) == message

    def test_the_memo_holds_at_most_its_bound(self, luk3):
        bound = intuitionistic.EMBEDDINGS
        assert intuitionistic._embedding.cache_info().maxsize == bound
        f = p
        for i in range(2 * bound + 5):
            f = Apply("imp", (f, q) if i % 2 else (q, f))
            assert eval_mvil(luk3, self.reflexive, 0, f) == mvil_vector(
                luk3, self.reflexive, f)[0]
            assert intuitionistic._embedding.cache_info().currsize <= bound
        assert intuitionistic._embedding.cache_info().currsize == bound


_modal_free = st.recursive(
    st.sampled_from([p, q]),
    lambda c: st.builds(lambda a, b: Apply("imp", (a, b)), c, c),
    max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(_modal_free, min_size=1, max_size=4),
       st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=6))
def test_formulas_reused_across_preorders_match_the_oracle(luk3, formulas, seeds):
    for seed in seeds:
        m = random_model(random.Random(seed), ["p", "q"], 3, 5, FrameClass.PREORDER)
        oracle = {}
        for f in formulas:
            expected = [_eval_mvil(luk3, m, w, f, oracle) for w in m.worlds]
            assert mvil_vector(luk3, m, f) == expected
            assert [eval_mvil(luk3, m, w, f) for w in m.worlds] == expected


class TestMvilVector:
    def test_equals_eval_mvil_at_every_world(self, luk3):
        # and the recursive oracle, which shares no code with either
        rng = random.Random(54)
        for _ in range(60):
            m = hat_model(luk3, random_model(rng, ["p", "q"], 3, 1 + rng.randrange(6),
                                             FrameClass.PREORDER))
            f = rand_formula(rng, luk3, ["p", "q"], 3, modal=False)
            oracle = {}
            assert (mvil_vector(luk3, m, f)
                    == [eval_mvil(luk3, m, w, f) for w in m.worlds]
                    == [_eval_mvil(luk3, m, w, f, oracle) for w in m.worlds])

    @pytest.mark.parametrize("edges, formula, message", [
        ({(0, 0), (1, 1)}, Box(p), "no modal"),
        ({(0, 0), (1, 1)}, Apply("imp", (p, Box(q))), "no modal"),
        # world 1 is a dead end, though world 0 does not reach it
        ({(0, 0)}, Apply("imp", (p, q)), "world 1 has no successors; "
                                         "interpretation is not reflexive"),
        ({(0, 0)}, Box(Apply("imp", (p, q))), "world 1 has no successors"),
    ])
    def test_raises_the_errors_of_eval_mvil(self, luk3, edges, formula, message):
        m = KripkeModel(2, edges)
        for call in (lambda: mvil_vector(luk3, m, formula),
                     lambda: eval_mvil(luk3, m, 0, formula)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_a_bare_variable_needs_no_successors(self, luk3):
        m = KripkeModel(2, (), {(1, "p"): 3})
        assert mvil_vector(luk3, m, p) == [1, 3]


class TestMonotoneConnective:
    def test_min_and_max_are_monotone(self):
        assert monotone_connective(min_connective(3))
        assert monotone_connective(max_connective(3))

    def test_lukasiewicz_implication_is_not(self):
        conn = lukasiewicz_implication(3)
        assert conn.table[(1, 1)] == 3 and conn.table[(3, 1)] == 1
        assert not monotone_connective(conn)

    def test_reversal_is_not(self):
        assert not monotone_connective(reversal_connective(3))

    def test_unary_identity(self):
        from mvmodal.core import Connective

        ident = Connective("id", 1, {(k,): k for k in (1, 2, 3)})
        assert monotone_connective(ident)


class TestTranslation:
    def test_variable(self):
        assert godel_translate(p) == Box(p)

    def test_implication(self):
        assert godel_translate(Apply("imp", (p, q))) == Box(
            Apply("imp", (Box(p), Box(q))))

    def test_nested(self):
        f = Apply("neg", (Apply("neg", (p,)),))
        assert godel_translate(f) == Box(
            Apply("neg", (Box(Apply("neg", (Box(p),))),)))

    def test_rejects_modal_input(self):
        with pytest.raises(ValueError):
            godel_translate(Box(p))

    def test_optimized_skips_monotone_boxes(self):
        sig = make_signature(3, [lukasiewicz_implication(3), max_connective(3)])
        assert godel_translate_optimized(Apply("or", (p, q)), sig) == Apply(
            "or", (Box(p), Box(q)))
        assert godel_translate_optimized(Apply("imp", (p, q)), sig) == Box(
            Apply("imp", (Box(p), Box(q))))
        assert godel_translate_optimized(p, sig) == Box(p)

    def test_sequent_lifting(self, luk3):
        s = Sequent([lf(p, 1)], [lf(Apply("imp", (p, q)), 3)])
        t = translate_sequent(s)
        assert t == Sequent([lf(Box(p), 1)],
                            [lf(Box(Apply("imp", (Box(p), Box(q)))), 3)])


class TestHatModel:
    def test_fixpoint_on_interpretations(self, luk3):
        m = KripkeModel(2, {(0, 0), (1, 1), (0, 1)},
                        {(0, "p"): 1, (1, "p"): 3})
        assert is_mvil_interpretation(m)
        assert hat_model(luk3, m) == m

    def test_single_reflexive_world(self, luk3):
        m = KripkeModel(1, {(0, 0)}, {(0, "p"): 2})
        assert hat_model(luk3, m).value(0, "p") == 2

    def test_minimum_over_future(self, luk3):
        m = KripkeModel(2, {(0, 0), (1, 1), (0, 1)},
                        {(0, "p"): 3, (1, "p"): 1})
        hat = hat_model(luk3, m)
        assert hat.value(0, "p") == 1
        assert hat.value(1, "p") == 1
        assert is_mvil_interpretation(hat)

    def test_requires_preorder(self, luk3):
        with pytest.raises(ValueError, match="preorder"):
            hat_model(luk3, KripkeModel(2, {(0, 1)}))

    def test_boxed_values_match_evaluate(self, luk3):
        rng = random.Random(19)
        for _ in range(40):
            m = random_model(rng, ["p", "q"], 3, 6, FrameClass.PREORDER)
            hat = hat_model(luk3, m)
            assert hat.edges == m.edges
            for u in m.worlds:
                for name in m.variables():
                    assert hat.value(u, name) == evaluate(luk3, m, u, Box(Var(name)))


class TestVariablesReadOnce:
    """KripkeModel.variables sorts the whole valuation, so reading it per
    edge or per world made both checks quadratic in the model's size."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        variables = KripkeModel.variables

        def counting(model):
            counted.append(model)
            return variables(model)

        monkeypatch.setattr(KripkeModel, "variables", counting)
        return counted

    @staticmethod
    def pairs(world_count):
        # a preorder, loops and each even world seeing the next, with a
        # monotone valuation, so that no check stops early
        rng = random.Random(world_count)
        edges = {(u, u) for u in range(world_count)}
        edges |= {(u, u + 1) for u in range(0, world_count - 1, 2)}
        vals = {(u, name): rng.randint(1, 2) + u % 2
                for u in range(world_count) for name in "pqr"}
        return KripkeModel(world_count, edges, vals)

    def test_interpretation_check(self, calls):
        model = self.pairs(2000)
        assert is_mvil_interpretation(model)
        assert len(calls) <= 1

    def test_hat_model(self, luk3, calls):
        model = self.pairs(2000)
        hat = hat_model(luk3, model)
        assert len(calls) <= 1
        assert hat.world_count == 2000


class TestCorrespondence:
    def test_hat_evaluation_matches_translation(self, luk3):
        rng = random.Random(51)
        for _ in range(60):
            m = random_model(rng, ["p", "q"], 3, 4, FrameClass.PREORDER)
            hat = hat_model(luk3, m)
            f = rand_formula(rng, luk3, ["p", "q"], 3, modal=False)
            for u in m.worlds:
                assert (eval_mvil(luk3, hat, u, f)
                        == evaluate(luk3, m, u, godel_translate(f)))

    def test_interpretation_values_grow_along_edges(self, luk3):
        rng = random.Random(52)
        for _ in range(60):
            m = random_model(rng, ["p", "q"], 3, 4, FrameClass.PREORDER)
            hat = hat_model(luk3, m)
            f = rand_formula(rng, luk3, ["p", "q"], 2, modal=False)
            for (u, v) in hat.edges:
                assert eval_mvil(luk3, hat, u, f) <= eval_mvil(luk3, hat, v, f)

    def test_optimized_translation_agrees(self, luk3):
        sig = make_signature(3, [lukasiewicz_implication(3), max_connective(3),
                                 min_connective(3)])
        rng = random.Random(53)
        for _ in range(60):
            m = random_model(rng, ["p", "q"], 3, 4, FrameClass.PREORDER)
            f = rand_formula(rng, sig, ["p", "q"], 3, modal=False)
            full = godel_translate(f)
            optimized = godel_translate_optimized(f, sig)
            for u in m.worlds:
                assert (evaluate(sig, m, u, full)
                        == evaluate(sig, m, u, optimized))


def mvil_satisfies(sig, model, sequent) -> bool:
    for u in model.worlds:
        if all(eval_mvil(sig, model, u, x.formula) == x.label
               for x in sequent.antecedent):
            if not any(eval_mvil(sig, model, u, x.formula) == x.label
                       for x in sequent.succedent):
                return False
    return True


class TestEntailmentTransfer:
    def test_exhaustive_two_values(self, bare2):
        sig = make_signature(2, [lukasiewicz_implication(2)])
        pool = [None, lf(p, 1), lf(p, 2),
                lf(Apply("imp", (p, p)), 1), lf(Apply("imp", (p, p)), 2)]
        sequents = [Sequent([] if a is None else [a], [] if b is None else [b])
                    for a in pool for b in pool]
        preorders = [m for w in (1, 2)
                     for m in oracle_models(["p"], 2, w, FrameClass.PREORDER)]
        interpretations = [m for m in preorders if is_mvil_interpretation(m)]

        def mvil_entails(sigma, goal):
            return all(mvil_satisfies(sig, m, goal) for m in interpretations
                       if mvil_satisfies(sig, m, sigma))

        def modal_entails(sigma, goal):
            return all(model_satisfies(sig, m, goal) for m in preorders
                       if model_satisfies(sig, m, sigma))

        for sigma in sequents:
            for goal in sequents:
                expected = mvil_entails(sigma, goal)
                translated = modal_entails(translate_sequent(sigma),
                                           translate_sequent(goal))
                assert expected == translated, (sigma, goal)
