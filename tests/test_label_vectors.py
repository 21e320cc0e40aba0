"""The bottom-up evaluator against the recursive oracles, and its edges.

The oracles in helpers.py are the recursive evaluators that
label_vectors replaced, and the per-world refuting_worlds that the
member-by-member filter replaced.  The property tests draw models of
every frame class, single or stacked (stacked_frame), and
formulas over a signature with a constant (0-ary connective).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import _eval, _eval_mvil, class_models
from mvmodal.core import (
    Apply,
    Box,
    Connective,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    closure_order,
    is_modal_free,
    lukasiewicz_implication,
    make_signature,
    reversal_connective,
    subformula_closure,
    variables_of,
)
from mvmodal.intuitionistic import eval_mvil, godel_translate, godel_translate_optimized
from mvmodal.parser import render_formula, render_sequent
from mvmodal.sampling import random_model
from mvmodal.semantics import (
    FrameClass,
    KripkeModel,
    evaluate,
    label_vectors,
    model_satisfies,
    refuting_worlds,
    satisfies_sequent,
    stacked_frame,
    successor_rows,
)

SIG = make_signature(3, [lukasiewicz_implication(3), reversal_connective(3),
                         Connective("half", 0, {(): 2})])
P = Var("p")

_leaves = st.sampled_from([P, Var("q"), Apply("half", ())])


def _compound(children, modal=True):
    ops = [st.builds(lambda a, b: Apply("imp", (a, b)), children, children),
           st.builds(lambda a: Apply("neg", (a,)), children)]
    if modal:
        ops += [st.builds(Box, children), st.builds(Diamond, children)]
    return st.one_of(ops)


formulas = st.recursive(_leaves, _compound, max_leaves=10)
modal_free = st.recursive(_leaves, lambda c: _compound(c, modal=False),
                          max_leaves=10)
labelled = st.builds(LabelledFormula, formulas, st.integers(1, 3))
sequents = st.builds(Sequent, st.lists(labelled, max_size=3),
                     st.lists(labelled, max_size=3))


@st.composite
def models(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return random_model(rng, ["p", "q"], 3, 4, draw(st.sampled_from(FrameClass)))


def _oracle_satisfies(model, world, sequent, cache):
    def holds(lf):
        return _eval(SIG, model, world, lf.formula, cache) == lf.label
    return (not all(map(holds, sequent.antecedent))
            or any(map(holds, sequent.succedent)))


@settings(max_examples=150, deadline=None)
@given(models(), st.lists(formulas, min_size=1, max_size=4))
def test_evaluate_matches_the_recursive_oracle(model, fs):
    cache, oracle = {}, {}
    for f in fs:
        for world in model.worlds:
            assert (evaluate(SIG, model, world, f, cache)
                    == _eval(SIG, model, world, f, oracle))


@settings(max_examples=100, deadline=None)
@given(models(), st.lists(sequents, min_size=1, max_size=3))
def test_satisfies_sequent_matches_the_oracle(model, seqs):
    cache, oracle = {}, {}
    expected = [_oracle_satisfies(model, world, s, oracle)
                for s in seqs for world in model.worlds]
    assert [satisfies_sequent(SIG, model, world, s, cache)
            for s in seqs for world in model.worlds] == expected
    assert model_satisfies(SIG, model, seqs) == all(expected)
    assert [list(refuting_worlds(SIG, model, s, cache)) for s in seqs] == [
        [w for w in model.worlds if not _oracle_satisfies(model, w, s, oracle)]
        for s in seqs]


@settings(max_examples=150, deadline=None)
@given(models(), modal_free)
def test_eval_mvil_matches_the_oracle(model, f):
    if isinstance(f, Var) or all(model.successors(w) for w in model.worlds):
        cache, oracle = {}, {}
        for world in model.worlds:
            assert (eval_mvil(SIG, model, world, f, cache)
                    == _eval_mvil(SIG, model, world, f, oracle))
    else:
        with pytest.raises(ValueError, match="not reflexive"):
            eval_mvil(SIG, model, 0, f)


# ---------------------------------------------------------------------------
# Stacked models and the member-by-member filter
# ---------------------------------------------------------------------------

#: The copy counts drawn: one copy keeps the per-world fold.
COPIES = [1, 2, 5]


@st.composite
def stacks(draw):
    """A frame of any class stacked 1, 2 or 5 times, and the model each
    copy stands for: the frame with its own valuation of p and q."""
    base = draw(st.sampled_from(FrameClass).flatmap(class_models))
    slots = [(u, name) for u in base.worlds for name in ("p", "q")]
    labels = st.lists(st.integers(1, 3), min_size=len(slots), max_size=len(slots))
    copies = draw(st.sampled_from(COPIES))
    members = [base] + [KripkeModel(base.world_count, base.edges,
                                    dict(zip(slots, draw(labels))))
                        for _ in range(copies - 1)]
    return stacked_frame(successor_rows(base), copies), members


def _seeded(members):
    """The stack's variable vectors, copy by copy, as the search seeds them."""
    return {Var(name): [m.value(u, name) for m in members for u in m.worlds]
            for name in ("p", "q")}


def _assert_copies_match_the_oracle(stacked, members, fs):
    order = closure_order(fs)
    vectors = label_vectors(SIG, stacked, order, _seeded(members))
    w = members[0].world_count
    for i, member in enumerate(members):
        oracle = {}
        for f in order:
            assert vectors[f][i * w:(i + 1) * w] == [
                _eval(SIG, member, u, f, oracle) for u in member.worlds], (i, f)


@settings(max_examples=150, deadline=None)
@given(stacks(), st.lists(formulas, min_size=1, max_size=4))
def test_stacked_copies_match_the_recursive_oracle(stack, fs):
    _assert_copies_match_the_oracle(*stack, fs)


@pytest.mark.parametrize("copies", COPIES)
def test_stacked_worlds_with_no_one_and_two_successors(copies):
    # world 0 sees 1 and 2, world 1 sees only 2, world 2 is a dead end
    base = KripkeModel(3, {(0, 1), (0, 2), (1, 2)})
    rng = random.Random(copies)
    members = [KripkeModel(3, base.edges, {(u, name): rng.randint(1, 3)
                                           for u in range(3) for name in "pq"})
               for _ in range(copies)]
    q = Var("q")
    fs = [Box(P), Diamond(P), Box(Diamond(q)), Diamond(Box(Apply("imp", (P, q)))),
          Box(Apply("half", ())), Diamond(Apply("neg", (Diamond(q),)))]
    _assert_copies_match_the_oracle(stacked_frame(successor_rows(base), copies),
                                    members, fs)


@st.composite
def sequent_shapes(draw):
    """A drawn sequent, the same with one side emptied, or with one
    labelled formula on both sides."""
    sequent = draw(sequents)
    shape = draw(st.sampled_from(["drawn", "no antecedent", "no succedent",
                                  "both sides"]))
    if shape == "no antecedent":
        return Sequent([], sequent.succedent)
    if shape == "no succedent":
        return Sequent(sequent.antecedent, [])
    if shape == "both sides":
        shared = draw(labelled)
        return Sequent([*sequent.antecedent, shared], [*sequent.succedent, shared])
    return sequent


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FrameClass).flatmap(class_models),
       st.lists(sequent_shapes(), min_size=1, max_size=3))
def test_refuting_worlds_matches_the_per_world_oracle(model, seqs):
    cache, oracle = {}, {}
    for s in seqs:
        assert (list(refuting_worlds(SIG, model, s, cache))
                == list(helpers.refuting_worlds(SIG, model, s, oracle)))


@settings(max_examples=150, deadline=None)
@given(stacks(), st.lists(sequent_shapes(), min_size=1, max_size=3))
def test_refuting_worlds_on_stacked_models(stack, seqs):
    stacked, members = stack
    cache, oracle = _seeded(members), _seeded(members)
    for s in seqs:
        assert (list(refuting_worlds(SIG, stacked, s, cache))
                == list(helpers.refuting_worlds(SIG, stacked, s, oracle)))


def test_a_member_on_both_sides_refutes_nowhere():
    # (p, 1) in the antecedent keeps the worlds where p is 1, and the
    # same member in the succedent drops exactly those
    shared = LabelledFormula(P, 1)
    m = KripkeModel(3, (), {(1, "p"): 2})
    assert list(refuting_worlds(SIG, m, Sequent([shared], []))) == [0, 2]
    assert list(refuting_worlds(SIG, m, Sequent([], [shared]))) == [1]
    assert list(refuting_worlds(SIG, m, Sequent([shared], [shared]))) == []
    assert list(refuting_worlds(SIG, m, Sequent())) == [0, 1, 2]


class TestCache:
    def test_cache_holds_label_vectors(self):
        m = KripkeModel(3, {(0, 1), (0, 2)}, {(1, "p"): 2, (2, "p"): 3})
        cache = {}
        assert evaluate(SIG, m, 0, Box(P), cache) == 2
        assert cache == {P: [1, 2, 3], Box(P): [2, 3, 3]}

    def test_evaluate_reads_the_cache_first(self):
        m = KripkeModel(3, {(0, 1), (0, 2)}, {(1, "p"): 2, (2, "p"): 3})
        assert evaluate(SIG, m, 0, Box(P), {Box(P): [1, 1, 1]}) == 1

    @pytest.mark.parametrize("mvil_first", [False, True])
    def test_evaluate_and_eval_mvil_share_a_cache(self, mvil_first):
        # imp(p, q) is imp(1, 1) = 3 at world 0, but world 0 also sees
        # world 1, where imp(3, 1) = 1, so its intuitionistic value is 1
        m = KripkeModel(2, {(0, 0), (0, 1), (1, 1)},
                        {(1, "p"): 3, (0, "q"): 1, (1, "q"): 1})
        f, cache = Apply("imp", (P, Var("q"))), {}
        calls = [lambda: evaluate(SIG, m, 0, f, cache),
                 lambda: eval_mvil(SIG, m, 0, f, cache)]
        for call in calls[::-1] if mvil_first else calls:
            call()
        assert evaluate(SIG, m, 0, f, cache) == 3
        assert eval_mvil(SIG, m, 0, f, cache) == 1


M2 = KripkeModel(2, {(0, 0), (0, 1), (1, 1)}, {(1, "p"): 3})


@pytest.mark.parametrize("world", [-1, 2])
@pytest.mark.parametrize("call", [
    lambda w: evaluate(SIG, M2, w, Box(P)),
    lambda w: evaluate(SIG, M2, w, P, {P: [1, 3]}),
    lambda w: eval_mvil(SIG, M2, w, Apply("neg", (P,))),
    lambda w: satisfies_sequent(SIG, M2, w, Sequent([LabelledFormula(P, 1)])),
    lambda w: satisfies_sequent(SIG, M2, w, Sequent()),
], ids=["evaluate", "evaluate-cached", "eval_mvil", "satisfies_sequent",
        "empty-sequent"])
def test_world_outside_the_model(call, world):
    with pytest.raises(ValueError, match="unknown world"):
        call(world)


def test_eval_mvil_needs_a_successor_at_every_world():
    # world 1 is a dead end that world 0 never reaches
    m = KripkeModel(2, {(0, 0)})
    assert eval_mvil(SIG, m, 1, P) == 1
    with pytest.raises(ValueError, match="world 1 has no successors; "
                                         "interpretation is not reflexive"):
        eval_mvil(SIG, m, 0, Apply("neg", (P,)))


@pytest.mark.parametrize("formula", [Box(P), Apply("neg", (P,))], ids=["box", "neg"])
def test_valuation_label_above_the_domain(formula):
    # KripkeModel checks only label >= 1: it knows no signature
    m = KripkeModel(2, {(0, 1)}, {(1, "p"): 7})
    with pytest.raises(ValueError) as err:
        evaluate(SIG, m, 0, formula)
    assert str(err.value) == ("valuation gives 'p' label 7 at world 1, "
                              "above the domain's 3")


DEPTH = 3000


@pytest.mark.parametrize("kind", ["box", "imp"])
def test_chains_built_in_code(kind):
    f = P
    for _ in range(DEPTH):
        f = Box(f) if kind == "box" else Apply("imp", (P, f))
    m = KripkeModel(1, {(0, 0)}, {(0, "p"): 2})
    assert hash(f) == hash(f)
    assert len(subformula_closure({f})) == DEPTH + 1
    assert variables_of(f) == {"p"}
    assert is_modal_free(f) == (kind == "imp")
    # Box p keeps p's label on a reflexive point; imp(2, x) is 3 for x >= 2
    expected = 2 if kind == "box" else 3
    assert evaluate(SIG, m, 0, f) == expected
    if kind == "imp":
        assert eval_mvil(SIG, m, 0, f) == expected


def test_translation_and_rendering_of_chains_built_in_code():
    imp_chain, box_chain, translated = P, P, Box(P)
    for _ in range(DEPTH):
        imp_chain = Apply("imp", (P, imp_chain))
        box_chain = Box(box_chain)
        translated = Box(Apply("imp", (Box(P), translated)))
    assert godel_translate(imp_chain) is translated
    assert godel_translate(imp_chain) == translated
    # Lukasiewicz implication is antitone in its first argument: no box skipped
    optimized = godel_translate_optimized(imp_chain, SIG)
    assert optimized is translated and optimized == translated
    assert render_formula(imp_chain) == "imp(p, " * DEPTH + "p" + ")" * DEPTH
    assert render_formula(box_chain) == "Box " * DEPTH + "p"
    with pytest.raises(ValueError, match="modal-free"):
        godel_translate(box_chain)


def test_sequent_of_chains_sharing_all_but_the_last_level():
    # rendering sorts the side, comparing two keys that agree for 2,999
    # levels; the side itself is a set and has no order to assert
    ends_in_p, ends_in_q = P, Var("q")
    for _ in range(DEPTH):
        ends_in_p = Apply("imp", (P, ends_in_p))
        ends_in_q = Apply("imp", (P, ends_in_q))
    sequent = Sequent([LabelledFormula(ends_in_q, 2),
                       LabelledFormula(ends_in_p, 2)], [])
    assert {lf.formula for lf in sequent.antecedent} == {ends_in_p, ends_in_q}
    chain = "imp(p, " * DEPTH + "{}" + ")" * DEPTH
    assert render_sequent(sequent) == (f"({chain.format('p')}, 2), "
                                       f"({chain.format('q')}, 2) ->")
