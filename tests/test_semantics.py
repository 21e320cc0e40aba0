import random

import pytest

from helpers import oracle_models, rand_formula, rand_sequent
from mvmodal import semantics
from mvmodal.core import (
    Apply,
    Box,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    closure_order,
    up_set,
)
from mvmodal.proofs import instantiate_scheme
from mvmodal.sampling import random_model
from mvmodal.semantics import (
    FrameClass,
    KripkeModel,
    evaluate,
    frame_check,
    model_satisfies,
    refuting_worlds,
    satisfies_labelled,
    satisfies_sequent,
)

p = Var("p")
q = Var("q")


def lf(f, k):
    return LabelledFormula(f, k)


class TestModel:
    def test_successors(self):
        chain = KripkeModel(2, {(0, 1)})
        assert chain.successors(0) == {1}
        assert chain.successors(1) == frozenset()
        loop = KripkeModel(1, {(0, 0)})
        assert loop.successors(0) == {0}

    def test_unknown_world(self):
        with pytest.raises(ValueError, match="unknown world"):
            KripkeModel(1).successors(1)

    def test_edge_validation(self):
        with pytest.raises(ValueError, match="undeclared world"):
            KripkeModel(2, {(0, 5)})

    def test_default_valuation(self):
        m = KripkeModel(1)
        assert m.value(0, "p") == 1

    @pytest.mark.parametrize("args", [
        (2, [(0, 1.7)]),  # int() would truncate it to the edge (0, 1)
        (1, (), {(0, "p"): 2.5}),  # a label no table has a row for
        (1, (), {(0.0, "p"): 2}),
        (2.0,),
    ])
    def test_non_integral_worlds_and_labels_are_rejected(self, args):
        with pytest.raises(TypeError):
            KripkeModel(*args)

    def test_int_like_worlds_and_labels_are_stored_as_ints(self):
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        m = KripkeModel(Index(2), [(Index(0), Index(1))], {(Index(1), "p"): Index(3)})
        (u, v), = m.edges
        ((world, _), label), = m.vals
        assert [type(x) for x in (m.world_count, u, v, world, label)] == [int] * 5
        assert (m.world_count, m.edges, m.vals) == (2, {(0, 1)}, (((1, "p"), 3),))
        assert m.value(1, "p") == 3


class TestEvaluate:
    def test_dead_end_modalities(self, luk3):
        m = KripkeModel(1)
        assert evaluate(luk3, m, 0, Box(p)) == 3
        assert evaluate(luk3, m, 0, Diamond(p)) == 1

    def test_min_max_over_successors(self, luk3):
        m = KripkeModel(3, {(0, 1), (0, 2)}, {(1, "p"): 2, (2, "p"): 3})
        assert evaluate(luk3, m, 0, Box(p)) == 2
        assert evaluate(luk3, m, 0, Diamond(p)) == 3

    def test_reflexive_singleton(self, luk3):
        m = KripkeModel(1, {(0, 0)}, {(0, "p"): 2})
        assert evaluate(luk3, m, 0, Box(p)) == 2
        assert evaluate(luk3, m, 0, Diamond(p)) == 2

    def test_connective_application(self, luk3):
        m = KripkeModel(1, vals={(0, "p"): 3, (0, "q"): 1})
        assert evaluate(luk3, m, 0, Apply("imp", (p, q))) == 1

    def test_unknown_connective(self, luk3):
        m = KripkeModel(1)
        with pytest.raises(ValueError, match="unknown connective"):
            evaluate(luk3, m, 0, Apply("nand", (p, p)))

    def test_box_at_most_diamond_on_live_worlds(self, luk3):
        rng = random.Random(5)
        for _ in range(100):
            m = random_model(rng, ["p", "q"], 3, 3)
            f = rand_formula(rng, luk3, ["p", "q"], 2)
            for u in m.worlds:
                box = evaluate(luk3, m, u, Box(f))
                dia = evaluate(luk3, m, u, Diamond(f))
                values = {evaluate(luk3, m, v, f) for v in m.successors(u)}
                if values:
                    assert box <= dia
                    assert box in values and dia in values
                else:
                    assert (box, dia) == (3, 1)


class TestSatisfaction:
    def test_labelled_at_dead_end(self, luk3):
        m = KripkeModel(1)
        assert satisfies_labelled(luk3, m, 0, lf(Box(p), 3))
        assert not satisfies_labelled(luk3, m, 0, lf(Box(p), 1))

    def test_labelled_reflexive(self, luk3):
        m = KripkeModel(1, {(0, 0)}, {(0, "p"): 2})
        assert satisfies_labelled(luk3, m, 0, lf(p, 2))

    def test_empty_sequent_fails_everywhere(self, luk3):
        m = KripkeModel(2, {(0, 1)})
        assert not any(satisfies_sequent(luk3, m, u, Sequent()) for u in m.worlds)

    def test_failed_antecedent_satisfies(self, luk3):
        m = KripkeModel(1, vals={(0, "p"): 2})
        assert satisfies_sequent(luk3, m, 0, Sequent([lf(p, 1)], []))

    def test_box_below_diamond_exhaustive(self, luk3):
        # (Box p, k) -> (Dia p, k)^+ holds at every world of every model
        # with up to two worlds, for k below the top label
        for k in (1, 2):
            goal = Sequent([lf(Box(p), k)], up_set(lf(Diamond(p), k), 3))
            for w in (1, 2):
                for m in oracle_models(["p"], 3, w, FrameClass.ANY):
                    assert all(satisfies_sequent(luk3, m, u, goal)
                               for u in m.worlds)

    def test_model_satisfies_identity_axiom(self, luk3):
        rng = random.Random(6)
        axiom = Sequent([lf(p, 2)], [lf(p, 2)])
        for _ in range(20):
            m = random_model(rng, ["p"], 3, 4)
            assert model_satisfies(luk3, m, axiom)

    def test_model_satisfies_counterexample(self, luk3):
        m = KripkeModel(1, vals={(0, "p"): 1})
        assert not model_satisfies(luk3, m, Sequent([], [lf(p, 2)]))

    def test_empty_sigma_holds(self, luk3):
        assert model_satisfies(luk3, KripkeModel(1), ())

    def test_model_satisfies_walks_its_sequents_once(self, luk3, monkeypatch):
        # every sequent shares the subformula f: one walk over the union of
        # their closures evaluates each formula once for all of them
        walks = []

        def counting(formulas):
            walks.append(None)
            return closure_order(formulas)

        rng = random.Random(8)
        verdicts = []
        for _ in range(200):
            m = random_model(rng, ["p", "q"], 3, 3)
            f = rand_formula(rng, luk3, ["p", "q"], 2)
            sequents = []
            for g in (f, Box(f), Apply("imp", (f, p))):
                s = rand_sequent(rng, luk3, ["p", "q"], max_side=2)
                shared = lf(g, rng.randint(1, 3))
                sequents.append(Sequent(s.antecedent, s.succedent | {shared}))
            expected = all(next(refuting_worlds(luk3, m, s), None) is None
                           for s in sequents)
            with monkeypatch.context() as patch:
                patch.setattr(semantics, "closure_order", counting)
                walks.clear()
                # an iterator, which model_satisfies must read only once
                verdicts.append(model_satisfies(luk3, m, iter(sequents)))
            assert len(walks) == 1
            assert verdicts[-1] == expected
        assert 20 < sum(verdicts) < 180

    @pytest.mark.parametrize("sequent", [Sequent([lf(Box(p), 4)], []),
                                         Sequent([], [lf(p, 4)]),
                                         Sequent([lf(p, 1), lf(q, 9)], [lf(p, 4)])],
                             ids=["antecedent", "succedent", "both"])
    def test_label_above_the_domain_is_rejected(self, luk3, sequent):
        top = max(x.label for x in sequent.antecedent | sequent.succedent)
        m = KripkeModel(2, {(0, 1)}, {(1, "p"): 3})
        for check in (lambda: satisfies_sequent(luk3, m, 0, sequent),
                      lambda: model_satisfies(luk3, m, sequent),
                      lambda: model_satisfies(luk3, m, [Sequent(), sequent]),
                      lambda: refuting_worlds(luk3, m, sequent)):
            with pytest.raises(ValueError, match=rf"^label {top} out of 1\.\.3$"):
                check()

    def test_antecedent_antitone_succedent_monotone(self, luk3):
        rng = random.Random(7)
        for _ in range(150):
            m = random_model(rng, ["p", "q"], 3, 3)
            s = rand_sequent(rng, luk3, ["p", "q"])
            extra = lf(rand_formula(rng, luk3, ["p", "q"], 2), rng.randint(1, 3))
            wider = Sequent(s.antecedent | {extra}, s.succedent)
            longer = Sequent(s.antecedent, s.succedent | {extra})
            for u in m.worlds:
                if satisfies_sequent(luk3, m, u, s):
                    assert satisfies_sequent(luk3, m, u, wider)
                    assert satisfies_sequent(luk3, m, u, longer)


class TestFrameCheck:
    def test_identity_relation(self):
        m = KripkeModel(3, {(u, u) for u in range(3)})
        for cls in (FrameClass.REFLEXIVE, FrameClass.TRANSITIVE,
                    FrameClass.SYMMETRIC, FrameClass.EUCLIDEAN,
                    FrameClass.PREORDER, FrameClass.EQUIVALENCE):
            assert frame_check(m, cls)

    def test_dead_end_is_not_serial(self):
        assert not frame_check(KripkeModel(1), FrameClass.SERIAL)

    def test_fork_is_not_euclidean(self):
        m = KripkeModel(3, {(0, 1), (0, 2)})
        assert not frame_check(m, FrameClass.EUCLIDEAN)

    def test_against_quantifier_oracle(self):
        # compare every class against a directly written definition, over
        # all relations on two worlds
        for mask in range(16):
            pairs = [(u, v) for u in range(2) for v in range(2)]
            edges = {pr for i, pr in enumerate(pairs) if mask >> i & 1}
            m = KripkeModel(2, edges)
            worlds = range(2)
            oracle = {
                FrameClass.ANY: True,
                FrameClass.SERIAL: all(any((u, v) in edges for v in worlds)
                                       for u in worlds),
                FrameClass.REFLEXIVE: all((u, u) in edges for u in worlds),
                FrameClass.TRANSITIVE: all(
                    (u, w) in edges
                    for u in worlds for v in worlds for w in worlds
                    if (u, v) in edges and (v, w) in edges),
                FrameClass.SYMMETRIC: all((v, u) in edges
                                          for u in worlds for v in worlds
                                          if (u, v) in edges),
                FrameClass.EUCLIDEAN: all(
                    (v, w) in edges
                    for u in worlds for v in worlds for w in worlds
                    if (u, v) in edges and (u, w) in edges),
            }
            for cls, expected in oracle.items():
                assert frame_check(m, cls) == expected, (mask, cls)
            assert frame_check(m, FrameClass.PREORDER) == (
                oracle[FrameClass.REFLEXIVE] and oracle[FrameClass.TRANSITIVE])
            assert frame_check(m, FrameClass.EQUIVALENCE) == (
                oracle[FrameClass.REFLEXIVE] and oracle[FrameClass.EUCLIDEAN])

    def test_reflexive_models_satisfy_box_projection(self, luk3):
        rng = random.Random(8)
        for _ in range(50):
            m = random_model(rng, ["p"], 3, 4, FrameClass.REFLEXIVE)
            for k in (1, 2, 3):
                scheme = instantiate_scheme(21, p, k, 3)
                assert model_satisfies(luk3, m, scheme)
