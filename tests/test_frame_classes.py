"""The frame-class generators against the powerset filter they replaced,
the rooted generator against a brute force over relabellings, the
sampler against the set-based one, the two relation formats, and the
frame-class table: each logic's properties against its schemes, and each
closure against the least member above the relation, by brute force.

decision._relations yields successor rows; the tests read them as edges
through helpers.edges_of, not semantics.edge_set."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    class_models,
    edges_of,
    oracle_decide,
    oracle_relations,
    reaches_all,
    relabel,
    relabellings,
    rooted_classes,
    rooted_key,
)
from helpers import frame_check as oracle_frame_check
from helpers import random_relation as oracle_random_relation

from mvmodal import semantics
from mvmodal.core import Box, Var, lukasiewicz_signature
from mvmodal.decision import (
    Countermodel,
    _relations,
    _rooted_relations,
    decide,
)
from mvmodal.filtration import filter_model
from mvmodal.proofs import SCHEME_FRAMES, LogicId, instantiate_scheme
from mvmodal.sampling import random_relation
from mvmodal.semantics import (
    _FRAME_PROPERTIES,
    FrameClass,
    KripkeModel,
    edge_set,
    frame_check,
    successor_rows,
)

# Relations on 4 worlds per class: 2^16, 15^4, 2^12, OEIS A006905, 2^10,
# euclidean, OEIS A000798, and the Bell number OEIS A000110.
COUNTS_AT_4 = {
    FrameClass.ANY: 65_536,
    FrameClass.SERIAL: 50_625,
    FrameClass.REFLEXIVE: 4_096,
    FrameClass.TRANSITIVE: 3_994,
    FrameClass.SYMMETRIC: 1_024,
    FrameClass.EUCLIDEAN: 306,
    FrameClass.PREORDER: 355,
    FrameClass.EQUIVALENCE: 15,
}


@pytest.mark.parametrize("frame_class", list(FrameClass))
@pytest.mark.parametrize("world_count", [1, 2, 3])
def test_generator_yields_the_filtered_set(frame_class, world_count):
    first = list(map(edges_of, _relations(world_count, frame_class)))
    assert first == list(map(edges_of, _relations(world_count, frame_class)))
    assert len(set(first)) == len(first)
    assert set(first) == set(oracle_relations(world_count, frame_class))


def test_any_keeps_the_mask_order():
    assert (list(map(edges_of, _relations(3, FrameClass.ANY)))
            == list(oracle_relations(3, FrameClass.ANY)))


@pytest.mark.parametrize("frame_class", list(FrameClass))
def test_counts_at_four_worlds(frame_class):
    count = 0
    for rows in _relations(4, frame_class):
        count += 1
        if frame_class is not FrameClass.ANY:
            assert frame_check(KripkeModel(4, edges_of(rows)), frame_class)
    assert count == COUNTS_AT_4[frame_class]


# Relations on 1 to 4 worlds per class on which world 0 reaches every
# world, up to isomorphism fixing 0, as helpers.rooted_classes counts them.
ROOTED_COUNTS = {
    FrameClass.ANY: (2, 8, 136, 6_752),
    FrameClass.SERIAL: (1, 6, 112, 5_856),
    FrameClass.REFLEXIVE: (1, 2, 18, 440),
    FrameClass.TRANSITIVE: (2, 5, 19, 89),
    FrameClass.SYMMETRIC: (2, 4, 20, 136),
    FrameClass.EUCLIDEAN: (2, 2, 3, 4),
    FrameClass.PREORDER: (1, 2, 5, 14),
    FrameClass.EQUIVALENCE: (1, 1, 1, 1),
}


@pytest.mark.parametrize("frame_class", list(FrameClass))
def test_rooted_frames_are_the_brute_force_classes(frame_class):
    # one generated relation per class, and one class per generated relation
    for world_count, count in enumerate(ROOTED_COUNTS[frame_class], 1):
        keys = [rooted_key(edges_of(rows), world_count)
                for rows in _rooted_relations(world_count, frame_class)]
        assert len(keys) == len(set(keys)) == count
        assert set(keys) == set(rooted_classes(world_count, frame_class))


@pytest.mark.parametrize("frame_class", list(FrameClass))
@pytest.mark.parametrize("world_count", [1, 2, 3])
def test_each_rooted_relation_has_one_generated_isomorph(frame_class, world_count):
    rooted = list(_rooted_relations(world_count, frame_class))
    kept = set(rooted)
    assert rooted == [rows for rows in _relations(world_count, frame_class)
                      if rows in kept]
    generated = list(map(edges_of, rooted))
    for edges in generated:
        assert frame_check(KripkeModel(world_count, edges), frame_class)
    perms = relabellings(world_count)
    for edges in oracle_relations(world_count, frame_class):
        if reaches_all(edges, world_count):
            images = {relabel(edges, perm) for perm in perms}
            assert sum(g in images for g in generated) == 1, edges


@pytest.mark.parametrize("frame_class", list(FrameClass))
def test_frame_check_agrees_with_the_oracle(frame_class):
    for edges in oracle_relations(3, FrameClass.ANY):
        model = KripkeModel(3, edges)
        assert frame_check(model, frame_class) == oracle_frame_check(model, frame_class)


def test_the_class_without_a_property_builds_no_rows(monkeypatch):
    # a row is an int as wide as its highest successor: on 100,000 worlds
    # the rows alone cost hundreds of MB
    def refuse(model):
        raise AssertionError("successor rows built for FrameClass.ANY")

    monkeypatch.setattr(semantics, "successor_rows", refuse)
    model = KripkeModel(3, {(0, 2), (2, 1)}, {(0, "p"): 2})
    assert frame_check(model, FrameClass.ANY)
    sig = lukasiewicz_signature(3)
    filtered = filter_model(sig, model, [Var("p"), Box(Var("p"))], LogicId.MV_K)
    assert filtered.model.world_count == len(filtered.classes)
    with pytest.raises(ValueError, match="unknown frame class"):
        frame_check(model, "any")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FrameClass).flatmap(class_models))
def test_edge_set_inverts_successor_rows(model):
    assert edge_set(successor_rows(model)) == model.edges


@pytest.mark.parametrize("frame_class", list(FrameClass))
def test_first_model_arrives_at_once(frame_class):
    # 9.4 M transitive relations on 6 worlds: none may be listed up front
    start = time.perf_counter()
    rows = next(_relations(6, frame_class))
    assert time.perf_counter() - start < 1.0
    assert len(rows) == 6
    assert semantics.frame_predicate(frame_class)(rows)


@pytest.mark.parametrize("logic", list(LogicId))
def test_decide_agrees_with_the_oracle_search(logic):
    sig = lukasiewicz_signature(2)
    for scheme in range(20, 29):
        goal = instantiate_scheme(scheme, Var("p"), 2, 2)
        out = decide(sig, (), goal, logic, 3)
        expected = oracle_decide(sig, (), goal, logic.frame_class, 3)
        assert type(out) is type(expected), (scheme, logic)
        if logic is LogicId.MV_K or not isinstance(out, Countermodel):
            # ANY keeps the mask order, so even the countermodel is the same
            assert out == expected


@pytest.mark.parametrize("frame_class", list(FrameClass))
def test_sampler_draws_the_oracle_relation(frame_class):
    # same relation from the same draws: the generators end in one state
    for seed in range(100):
        for world_count in range(1, 13):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            assert (random_relation(rng, world_count, frame_class)
                    == oracle_random_relation(oracle_rng, world_count, frame_class))
            assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("logic", list(LogicId))
def test_logics_conjoin_the_properties_of_their_schemes(logic):
    # each scheme's class is basic: it is its one property
    scheme_classes = {_FRAME_PROPERTIES[SCHEME_FRAMES[s]] for s in logic.schemes}
    assert all(len(properties) == 1 for properties in scheme_classes)
    assert (set(_FRAME_PROPERTIES[logic.frame_class])
            == {prop for (prop,) in scheme_classes})


UNIVERSAL = [FrameClass.REFLEXIVE, FrameClass.TRANSITIVE,
             FrameClass.SYMMETRIC, FrameClass.EUCLIDEAN]


def test_only_seriality_is_not_universal():
    assert [c for c in FrameClass
            if any(not p.universal for p in _FRAME_PROPERTIES[c])] == [FrameClass.SERIAL]


@pytest.mark.parametrize("frame_class", UNIVERSAL)
@pytest.mark.parametrize("world_count", [1, 2, 3])
def test_closures_are_least(frame_class, world_count):
    # the closure is the intersection of the class's members above the
    # relation, found by brute force; no closure reads the rng
    (prop,) = _FRAME_PROPERTIES[frame_class]
    members = list(oracle_relations(world_count, frame_class))
    for edges in oracle_relations(world_count, FrameClass.ANY):
        rows = list(successor_rows(KripkeModel(world_count, edges)))
        closed = edges_of(tuple(prop.close(rows, None)))
        assert closed == frozenset.intersection(*(m for m in members if edges <= m))
        if edges in members:
            assert closed == edges
