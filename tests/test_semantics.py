import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_models, rand_formula, rand_sequent
from mvmodal import semantics
from mvmodal.core import (
    Apply,
    Box,
    Connective,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    closure_order,
    lukasiewicz_implication,
    make_signature,
    reversal_connective,
    up_set,
)
from mvmodal.proofs import instantiate_scheme
from mvmodal.sampling import random_model
from mvmodal.semantics import (
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


    def test_edges_in_any_pair_form(self):
        # exact int tuples are stored as given; lists, bools and a float
        # after an out-of-range edge take the operator.index path as before
        m = KripkeModel(3, [[0, 1], (True, 2), (2, 2)])
        assert m.edges == {(0, 1), (1, 2), (2, 2)}
        assert ({(type(e), type(u), type(v)) for e in m.edges for u, v in [e]}
                == {(tuple, int, int)})
        assert m.successors(1) == {2}
        with pytest.raises(TypeError):
            KripkeModel(2, [(0, 5), (0, 1.5)])
        with pytest.raises(ValueError, match=r"^edge \(0, 5\) references an undeclared world$"):
            KripkeModel(2, [(0, 1), (0, 5)])


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


#: A signature with a constant (0-ary connective), for the point evaluator.
SIG = make_signature(3, [lukasiewicz_implication(3), reversal_connective(3),
                         Connective("half", 0, {(): 2})])


@st.composite
def sparse_models(draw):
    """Up to 9 worlds and at most one edge per world on average, so that
    dead ends, self-loops and worlds a root never reaches are common."""
    world_count = draw(st.integers(1, 9))
    worlds = st.integers(0, world_count - 1)
    edges = draw(st.sets(st.tuples(worlds, worlds), max_size=world_count))
    vals = draw(st.dictionaries(st.tuples(worlds, st.sampled_from("pq")),
                                st.integers(1, 3)))
    return KripkeModel(world_count, edges, vals)


def assert_points_match_the_whole_model(model, formulas, sequents):
    """evaluate, satisfies_labelled and satisfies_sequent at every world
    against one whole-model label_vectors pass and refuting_worlds."""
    whole = label_vectors(SIG, model, closure_order(formulas))
    refuting = [set(refuting_worlds(SIG, model, s)) for s in sequents]
    for w in model.worlds:
        for f in formulas:
            assert evaluate(SIG, model, w, f) == whole[f][w]
            for k in (1, 2, 3):
                assert satisfies_labelled(SIG, model, w, lf(f, k)) == (whole[f][w] == k)
        for s, worlds in zip(sequents, refuting):
            assert satisfies_sequent(SIG, model, w, s) == (w not in worlds)


class TestPointEvaluation:
    """A question about one world reads a pass rooted there, which
    evaluates each formula within its modal height of the root only."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_models(), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_every_world_matches_the_whole_model_pass(self, model, seed, modal):
        rng = random.Random(seed)
        fs = [rand_formula(rng, SIG, ["p", "q"], rng.randint(0, 5), modal)
              for _ in range(3)]
        # fs[0] at two modal heights, and a constant among them
        fs += [Apply("imp", (fs[0], Box(fs[0]))), Diamond(Apply("half", ()))]
        sequents = [rand_sequent(rng, SIG, ["p", "q"], 3) for _ in range(2)]
        sequents.append(Sequent([lf(fs[0], rng.randint(1, 3))],
                                [lf(Box(fs[0]), rng.randint(1, 3))]))
        assert_points_match_the_whole_model(model, fs, sequents)

    def test_dead_ends_self_loops_and_a_chain(self):
        # 0 -> 1 -> ... -> 9, a dead end, with a self-loop at 4; 10 and 11
        # are never reached from below
        edges = {(u, u + 1) for u in range(9)} | {(4, 4), (10, 11), (11, 10)}
        m = KripkeModel(12, edges, {(u, "p"): u % 3 + 1 for u in range(12)})
        chains = [p]
        for level in range(12):
            chains.append((Box, Diamond)[level % 2](chains[-1]))
        shared = [Apply("imp", (p, Box(p))), Apply("neg", (Diamond(Box(p)),))]
        sequents = [Sequent([lf(p, 2)], [lf(Box(p), 2)]),
                    Sequent([lf(Box(Box(p)), 3)], [lf(Apply("half", ()), 2)]),
                    Sequent()]
        assert_points_match_the_whole_model(m, chains + shared, sequents)

    def test_each_formula_is_evaluated_within_its_modal_height(self):
        # 0 -> 1 -> 2 -> 3: a modal-free formula is read at the root alone,
        # and p, read under one Box and under none, at worlds 0 and 1
        m = KripkeModel(4, {(0, 1), (1, 2), (2, 3)}, {(0, "p"): 3, (3, "q"): 2})
        free = Apply("imp", (q, Apply("neg", (p,))))
        shared = Apply("imp", (p, Box(p)))
        for f, lengths in ((free, {free: 1, q: 1, p: 1, Apply("neg", (p,)): 1}),
                           (shared, {shared: 1, Box(p): 1, p: 2})):
            vectors = label_vectors(SIG, m, closure_order([f]), 0)
            assert {g: len(vec) for g, vec in vectors.items()} == lengths
            assert_points_match_the_whole_model(m, [f], [Sequent([lf(f, 1)], [])])

    def test_a_formula_3000_levels_deep(self):
        f = p
        for level in range(3000):
            f = (Box, Diamond, lambda g: Apply("imp", (q, g)))[level % 3](f)
        # world 2 is never reached from 0 or 1
        m = KripkeModel(3, {(0, 1), (1, 1), (2, 0)}, {(1, "p"): 3, (0, "q"): 2})
        assert_points_match_the_whole_model(m, [f], [Sequent([lf(f, 3)], [])])

    @pytest.mark.parametrize("call", [
        lambda m: evaluate(SIG, m, 0, Box(q)),
        lambda m: evaluate(SIG, m, 0, Apply("imp", (Apply("neg", (p,)), q))),
        lambda m: satisfies_labelled(SIG, m, 0, lf(q, 1)),
        lambda m: satisfies_sequent(SIG, m, 0, Sequent([lf(Box(q), 1)], [])),
    ], ids=["box", "neg", "labelled", "sequent"])
    def test_a_label_above_the_domain_the_root_never_reaches(self, call):
        # the whole-model pass's error, naming the first variable in
        # closure order with such a label, and its first such world
        m = KripkeModel(3, {(0, 1)}, {(2, "q"): 7, (2, "p"): 9})
        with pytest.raises(ValueError) as err:
            call(m)
        assert str(err.value) == ("valuation gives 'q' label 7 at world 2, "
                                  "above the domain's 3")

    def test_a_label_above_the_domain_on_a_variable_never_read(self, monkeypatch):
        # only the variables read are checked, so each question is answered,
        # and by the one rooted pass
        m = KripkeModel(3, {(0, 1), (1, 2)}, {(1, "p"): 3, (2, "q"): 7})
        f = Box(Apply("neg", (p,)))
        sequent = Sequent([lf(f, 1)], [lf(p, 2)])
        whole = label_vectors(SIG, m, closure_order([f]))[f]
        refuted = set(refuting_worlds(SIG, m, sequent))
        calls = []
        real = semantics.label_vectors

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(semantics, "label_vectors", counting)
        for w in m.worlds:
            calls.clear()
            assert evaluate(SIG, m, w, f) == whole[w]
            assert len(calls) == 1
            calls.clear()
            assert satisfies_sequent(SIG, m, w, sequent) == (w not in refuted)
            assert len(calls) == 1

    @pytest.mark.parametrize("world", [-1, 3, 10 ** 6])
    @pytest.mark.parametrize("call", [
        lambda m, w: evaluate(SIG, m, w, Box(p)),
        lambda m, w: satisfies_labelled(SIG, m, w, lf(p, 1)),
        lambda m, w: satisfies_sequent(SIG, m, w, Sequent([lf(p, 1)], [])),
        lambda m, w: label_vectors(SIG, m, [p], w),
    ], ids=["evaluate", "labelled", "sequent", "label_vectors"])
    def test_a_world_outside_the_model(self, call, world):
        m = KripkeModel(3, {(0, 1)})
        with pytest.raises(ValueError, match=f"^unknown world {world}$"):
            call(m, world)

    @pytest.mark.parametrize("call", [
        lambda m, w: evaluate(SIG, m, w, p),
        lambda m, w: satisfies_labelled(SIG, m, w, lf(p, 1)),
        lambda m, w: satisfies_sequent(SIG, m, w, Sequent([lf(p, 1)], [])),
        lambda m, w: label_vectors(SIG, m, [p], w),
    ], ids=["evaluate", "labelled", "sequent", "label_vectors"])
    def test_a_world_that_is_not_an_index(self, call):
        # a modal-free formula reads no successor list, and still a
        # float world is a TypeError, as a world everywhere else is
        m = KripkeModel(3, {(0, 1)}, {(1, "p"): 2})
        for world in (1.5, 1.0):
            with pytest.raises(TypeError):
                call(m, world)
        assert evaluate(SIG, m, True, p) == 2


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
