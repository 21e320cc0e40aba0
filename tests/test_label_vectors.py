"""The evaluators against the recursive oracles, and their edges.

The oracles in helpers.py are the recursive evaluators that
label_vectors replaced, and the per-world refuting_worlds that the
member-by-member filter replaced.  The property tests draw models of
every frame class, single or stacked in a chunk of the countermodel
search's bit-sliced kernel (decision._bitsliced), and formulas over a
signature with a constant (0-ary connective).
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import _class_relations, _eval, _eval_mvil, class_models
from mvmodal import decision
from mvmodal.decision import Countermodel, decide
from mvmodal.filtration import filter_model
from mvmodal.proofs import LogicId
from mvmodal.core import (
    Apply,
    Box,
    Connective,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    closure_order,
    formula_key,
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
    oracle = {}
    for f in fs:
        for world in model.worlds:
            assert (evaluate(SIG, model, world, f)
                    == _eval(SIG, model, world, f, oracle))


@settings(max_examples=100, deadline=None)
@given(models(), st.lists(sequents, min_size=1, max_size=3))
def test_satisfies_sequent_matches_the_oracle(model, seqs):
    oracle = {}
    expected = [_oracle_satisfies(model, world, s, oracle)
                for s in seqs for world in model.worlds]
    assert [satisfies_sequent(SIG, model, world, s)
            for s in seqs for world in model.worlds] == expected
    assert model_satisfies(SIG, model, seqs) == all(expected)
    assert [list(refuting_worlds(SIG, model, s)) for s in seqs] == [
        [w for w in model.worlds if not _oracle_satisfies(model, w, s, oracle)]
        for s in seqs]


@settings(max_examples=150, deadline=None)
@given(models(), modal_free)
def test_eval_mvil_matches_the_oracle(model, f):
    if isinstance(f, Var) or all(model.successors(w) for w in model.worlds):
        oracle = {}
        for world in model.worlds:
            assert (eval_mvil(SIG, model, world, f)
                    == _eval_mvil(SIG, model, world, f, oracle))
    else:
        with pytest.raises(ValueError, match="not reflexive"):
            eval_mvil(SIG, model, 0, f)


# ---------------------------------------------------------------------------
# Stacked copies in a chunk of the bit-sliced search, and the
# member-by-member filter
# ---------------------------------------------------------------------------

#: The copies of each relation drawn: one copy is a single model.
COPIES = [1, 2, 5]


def _chunk(world_count, frames, start, count):
    """A chunk of the bit-sliced search holding `count` copies of each
    frame (an edge set on `world_count` worlds), and the model each copy
    stands for: copy c carries labelling start + c of p and q, modulo
    their number, as decision._layout lays them out."""
    rows = tuple(successor_rows(KripkeModel(world_count, edges)) for edges in frames)
    copies = len(rows) * count
    full, _, atoms = decision._layout(world_count, 2, 3, start, copies)
    chunk = (full, dict(zip((P, Var("q")), atoms)),
             decision._edge_masks(rows, count, world_count))
    slots = [(u, name) for u in range(world_count) for name in ("p", "q")]
    members = [KripkeModel(world_count, frames[c // count], zip(slots, decision._labelling(
                   (start + c) % 3 ** len(slots), 3, len(slots))))
               for c in range(copies)]
    return chunk, members


@st.composite
def stacks(draw):
    """A chunk of one to three frames of a class, each stacked 1, 2 or 5
    times, from a drawn labelling on, and the model each copy stands for."""
    frame_class = draw(st.sampled_from(FrameClass))
    world_count = draw(st.integers(1, 3))
    frames = draw(st.lists(st.sampled_from(_class_relations(world_count, frame_class)),
                           min_size=1, max_size=3))
    start = draw(st.integers(0, 3 ** (2 * world_count) - 1))
    return _chunk(world_count, frames, start, draw(st.sampled_from(COPIES)))


def _labels_at(bits, positions):
    """The label at each position, from a formula's bitsets, which must
    be non-empty and partition the positions."""
    labels = [0] * positions
    for label, members in bits.items():
        assert members
        for pos in range(positions):
            if members >> pos & 1:
                assert labels[pos] == 0
                labels[pos] = label
    assert 0 not in labels
    return labels


def _assert_copies_match_the_oracle(chunk, members, fs):
    full, atoms, edges = chunk
    order = closure_order(fs)
    vectors = decision._bitsliced(SIG, order, atoms, full, edges)
    w = members[0].world_count
    for f in order:
        labels = _labels_at(vectors[f], len(members) * w)
        for i, member in enumerate(members):
            oracle = {}
            assert labels[i * w:(i + 1) * w] == [
                _eval(SIG, member, u, f, oracle) for u in member.worlds], (i, f)


@settings(max_examples=150, deadline=None)
@given(stacks(), st.lists(formulas, min_size=1, max_size=4))
def test_stacked_copies_match_the_recursive_oracle(stack, fs):
    _assert_copies_match_the_oracle(*stack, fs)


@pytest.mark.parametrize("copies", COPIES)
def test_stacked_worlds_with_no_one_and_two_successors(copies):
    # world 0 sees 1 and 2, world 1 sees only 2, world 2 is a dead end
    edges = frozenset({(0, 1), (0, 2), (1, 2)})
    start = random.Random(copies).randrange(3 ** 6 - copies)
    q = Var("q")
    fs = [Box(P), Diamond(P), Box(Diamond(q)), Diamond(Box(Apply("imp", (P, q)))),
          Box(Apply("half", ())), Diamond(Apply("neg", (Diamond(q),)))]
    _assert_copies_match_the_oracle(*_chunk(3, [edges], start, copies), fs)


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
    for s in seqs:
        assert (list(refuting_worlds(SIG, model, s))
                == list(helpers.refuting_worlds(SIG, model, s)))


@settings(max_examples=150, deadline=None)
@given(stacks(), st.lists(sequent_shapes(), min_size=1, max_size=3))
def test_refuting_worlds_on_stacked_models(stack, seqs):
    # the kernel's refuting positions against the per-world oracle on
    # each copy's model
    (full, atoms, edges), members = stack
    order = closure_order(f for s in seqs for f in s.formulas())
    vectors = decision._bitsliced(SIG, order, atoms, full, edges)
    w = members[0].world_count
    for s in seqs:
        expected = sum(1 << i * w + u for i, member in enumerate(members)
                       for u in helpers.refuting_worlds(SIG, member, s))
        assert decision._refuting(vectors, s, full) == expected


def test_a_member_on_both_sides_refutes_nowhere():
    # (p, 1) in the antecedent keeps the worlds where p is 1, and the
    # same member in the succedent drops exactly those
    shared = LabelledFormula(P, 1)
    m = KripkeModel(3, (), {(1, "p"): 2})
    assert list(refuting_worlds(SIG, m, Sequent([shared], []))) == [0, 2]
    assert list(refuting_worlds(SIG, m, Sequent([], [shared]))) == [1]
    assert list(refuting_worlds(SIG, m, Sequent([shared], [shared]))) == []
    assert list(refuting_worlds(SIG, m, Sequent())) == [0, 1, 2]


M2 = KripkeModel(2, {(0, 0), (0, 1), (1, 1)}, {(1, "p"): 3})


@pytest.mark.parametrize("world", [-1, 2])
@pytest.mark.parametrize("call", [
    lambda w: evaluate(SIG, M2, w, Box(P)),
    lambda w: eval_mvil(SIG, M2, w, Apply("neg", (P,))),
    lambda w: satisfies_sequent(SIG, M2, w, Sequent([LabelledFormula(P, 1)])),
    lambda w: satisfies_sequent(SIG, M2, w, Sequent()),
], ids=["evaluate", "eval_mvil", "satisfies_sequent",
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


def test_every_layer_takes_a_formula_3000_levels_deep():
    # Box, Dia and imp levels in turn; the modal-free layers get an imp
    # chain
    levels = (Box, Diamond, lambda f: Apply("imp", (Var("q"), f)))
    mixed, chain = P, P
    for level in range(DEPTH):
        mixed = levels[level % 3](mixed)
        chain = Apply("imp", (P, chain))
    m = KripkeModel(2, {(0, 1), (1, 1)}, {(1, "p"): 3, (0, "q"): 2})
    order = closure_order([mixed])
    assert len(order) == DEPTH + 2 and order[-1] is mixed
    assert formula_key(mixed) != formula_key(Box(mixed))
    assert pickle.loads(pickle.dumps(mixed)) is mixed
    assert copy.deepcopy(mixed) is mixed
    # Box( or Diamond( a level, Apply(, args=( and Var( an imp level, and
    # the Var( of p
    assert str(mixed) == repr(mixed) and repr(mixed).count("(") == 5 * DEPTH // 3 + 1
    assert render_formula(mixed).count("(") == DEPTH // 3
    vectors = label_vectors(SIG, m, order)
    assert vectors[mixed] == [evaluate(SIG, m, w, mixed) for w in m.worlds]
    goal = Sequent([LabelledFormula(mixed, 1)], [])
    outcome = decide(SIG, (), goal, LogicId.MV_K, 1)
    assert isinstance(outcome, Countermodel) and outcome.model.world_count == 1
    filtered = filter_model(SIG, m, subformula_closure([mixed]), LogicId.MV_K)
    assert filtered.classes == ((0,), (1,))
    assert render_formula(godel_translate(chain)).count("Box") == 2 * DEPTH + 1
    assert eval_mvil(SIG, KripkeModel(1, {(0, 0)}, {(0, "p"): 2}), 0, chain) == 3
