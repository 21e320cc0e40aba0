import copy
import dataclasses
import gc
import pickle
import random
import threading
from collections import namedtuple

import pytest

from mvmodal import core
from mvmodal.core import (
    Apply,
    Box,
    Connective,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    apply_connective,
    closure_order,
    complement_interval,
    down_set,
    formula_key,
    gamma_cross,
    interval,
    lukasiewicz_signature,
    make_signature,
    subformula_closure,
    up_set,
)
from mvmodal.parser import parse_sequent, render_sequent
from mvmodal.proofs import AxiomIdentity, DerivationBuilder, check_derivation

p = Var("p")
q = Var("q")
r = Var("r")


def lf(f, k):
    return LabelledFormula(f, k)


class TestInterval:
    def test_plain(self):
        assert interval(2, 3, 4) == {2, 3}

    def test_empty_when_reversed(self):
        assert interval(3, 1, 3) == frozenset()

    def test_full_range(self):
        assert interval(1, 4, 4) == {1, 2, 3, 4}

    def test_formal_bounds(self):
        assert interval(0, 2, 4) == {1, 2}
        assert interval(3, 5, 4) == {3, 4}

    def test_complement_plain(self):
        assert complement_interval(2, 3, 4) == {1, 4}

    def test_complement_of_empty_is_everything(self):
        assert complement_interval(3, 1, 3) == {1, 2, 3}

    def test_complement_of_full_range(self):
        assert complement_interval(1, 4, 4) == frozenset()

    def test_partition(self):
        # interval and complement split 1..n exactly, for all formal bounds
        for n in range(2, 6):
            everything = frozenset(range(1, n + 1))
            for i in range(0, n + 2):
                for j in range(0, n + 2):
                    inside = interval(i, j, n)
                    outside = complement_interval(i, j, n)
                    assert inside | outside == everything
                    assert not inside & outside

    def test_complement_is_two_intervals(self):
        for n in range(2, 6):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    expected = interval(1, i - 1, n) | interval(j + 1, n, n)
                    if i <= j:
                        assert complement_interval(i, j, n) == expected


class TestUpDownSets:
    def test_up_set(self):
        assert up_set(lf(p, 2), 3) == {lf(p, 2), lf(p, 3)}

    def test_up_set_at_top_is_singleton(self):
        assert up_set(lf(p, 3), 3) == {lf(p, 3)}

    def test_down_set_at_bottom_is_singleton(self):
        assert down_set(lf(p, 1), 3) == {lf(p, 1)}

    def test_cover_and_overlap(self):
        n = 4
        full = frozenset(lf(p, k) for k in range(1, n + 1))
        assert up_set(lf(p, 1), n) | down_set(lf(p, n), n) == full
        for k in range(1, n + 1):
            assert up_set(lf(p, k), n) & down_set(lf(p, k), n) == {lf(p, k)}


class TestGammaCross:
    def test_formula_without_diamond_label_contributes_nothing(self):
        gamma = {lf(Box(q), 2), lf(Diamond(q), 3), lf(Box(r), 1)}
        assert gamma_cross(gamma, 4) == {lf(q, 1), lf(q, 4)}

    def test_empty_interval_excludes_everything(self):
        gamma = {lf(Box(q), 3), lf(Diamond(q), 1)}
        assert gamma_cross(gamma, 3) == {lf(q, 1), lf(q, 2), lf(q, 3)}

    def test_empty(self):
        assert gamma_cross(set(), 3) == frozenset()

    def test_multiple_label_pairs_union(self):
        # two boxed labels for the same formula: every (i, j) pair contributes
        gamma = {lf(Box(q), 1), lf(Box(q), 3), lf(Diamond(q), 3)}
        expected = complement_interval(1, 3, 4) | complement_interval(3, 3, 4)
        assert gamma_cross(gamma, 4) == frozenset(lf(q, k) for k in expected)

    def test_monotone(self):
        rng = random.Random(0)
        pool = [lf(m(f), k) for f in (p, q) for m in (Box, Diamond)
                for k in range(1, 4)]
        for _ in range(200):
            small = frozenset(rng.sample(pool, rng.randint(0, 6)))
            big = small | frozenset(rng.sample(pool, rng.randint(0, 6)))
            assert gamma_cross(small, 3) <= gamma_cross(big, 3)

    def test_unique_pair_excludes_the_interval(self):
        for i in range(1, 4):
            for j in range(i, 4):
                gamma = {lf(Box(q), i), lf(Diamond(q), j)}
                out = gamma_cross(gamma, 3)
                for k in interval(i, j, 3):
                    assert lf(q, k) not in out


class TestSubformulaClosure:
    def test_boxed_implication(self):
        imp = Apply("imp", (p, q))
        assert subformula_closure({Box(imp)}) == {Box(imp), imp, p, q}

    def test_empty(self):
        assert subformula_closure(set()) == frozenset()

    def test_nested_diamond(self):
        assert subformula_closure({Diamond(Diamond(p))}) == {
            Diamond(Diamond(p)), Diamond(p), p}

    def test_idempotent_and_monotone(self):
        rng = random.Random(1)
        sig = lukasiewicz_signature(3)
        from helpers import rand_formula

        for _ in range(100):
            fs = {rand_formula(rng, sig, ["p", "q"], 3) for _ in range(3)}
            closed = subformula_closure(fs)
            assert subformula_closure(closed) == closed
            assert closed >= frozenset(fs)
            assert subformula_closure(set(list(fs)[:1])) <= closed


class TestClosureOrder:
    def test_each_subformula_once_after_its_subformulas(self):
        rng = random.Random(4)
        sig = lukasiewicz_signature(3, negation=True)
        from helpers import rand_formula

        def subs(f):
            if isinstance(f, Apply):
                return f.args
            return (f.sub,) if isinstance(f, (Box, Diamond)) else ()

        def walk(f, out):
            out.add(f)
            for a in subs(f):
                walk(a, out)
            return out

        for _ in range(200):
            fs = [rand_formula(rng, sig, ["p", "q"], 4) for _ in range(3)]
            order = closure_order(fs)
            position = {f: i for i, f in enumerate(order)}
            assert len(position) == len(order)
            assert set(order) == set().union(*(walk(f, set()) for f in fs))
            assert all(position[a] < position[f] for f in order for a in subs(f))

    def test_empty(self):
        assert closure_order(()) == ()


class TestFormulaHash:
    def test_box_and_diamond_of_one_formula_differ(self):
        box, dia = Box(p), Diamond(p)
        assert box != dia and hash(box) != hash(dia)
        assert hash(box) == hash(Box(Var("p")))

    def test_pickle_rebuilds_through_init(self):
        # the closure_order, flat, each subformula by its index in it
        f = Box(Apply("imp", (p, Diamond(q))))
        assert f.__reduce__() == (core._build, (((Var, "q"), (Diamond, 0),
                                                 (Var, "p"), (Apply, "imp", (2, 1)),
                                                 (Box, 3)),))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(f, protocol))
            assert restored is f


def imp_chain(depth, end="p"):
    f = Var(end)
    for _ in range(depth):
        f = Apply("imp", (Var("p"), f))
    return f


class TestInterning:
    @pytest.mark.parametrize("depth", [300, 3000])
    def test_separately_built_chains_are_one_object(self, depth):
        first, second = imp_chain(depth), imp_chain(depth)
        assert first is second and first == second
        assert first != imp_chain(depth, end="q")

    def test_identity_step_on_separately_built_copies(self):
        side = [lf(imp_chain(300), 2)]
        b = DerivationBuilder()
        b.add(Sequent(side, [lf(imp_chain(300), 2)]), AxiomIdentity())
        assert check_derivation(b.derivation(), lukasiewicz_signature(3)) is None

    def test_copies_are_the_node(self):
        f = Box(Apply("imp", (p, Diamond(q))))
        assert copy.copy(f) is f and copy.deepcopy(f) is f

    def test_repr_is_the_dataclass_repr(self):
        f = Box(Apply("imp", (p, Diamond(Apply("neg", (q,))))))
        assert repr(f) == str(f) == (
            "Box(sub=Apply(conn='imp', args=(Var(name='p'), "
            "Diamond(sub=Apply(conn='neg', args=(Var(name='q'),))))))")
        assert repr(Apply("top", ())) == "Apply(conn='top', args=())"

    def test_every_way_of_construction_interns(self):
        f = Apply("imp", (p, q))
        assert Var(name="p") is p
        assert Apply("imp", [p, q]) is f and Apply(conn="imp", args=[p, q]) is f
        for build in (lambda: Var(), lambda: Var("p", "q"), lambda: Box(),
                      lambda: Diamond(p, q), lambda: Apply("imp")):
            with pytest.raises(TypeError):
                build()
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.conn = "and"

    def test_dropped_formulas_leave_the_table(self):
        gc.collect()
        before = len(core._nodes)
        fresh = [Box(Apply("imp", (Var(f"dropped{i}"), p))) for i in range(10_000)]
        assert len(core._nodes) >= before + len(fresh)
        del fresh
        gc.collect()
        assert len(core._nodes) == before

    def test_threads_building_the_same_formulas_get_one_object(self):
        start = threading.Barrier(8)
        built = []

        def build():
            start.wait()
            built.append([Diamond(Apply("imp", (Var(f"thread{i}"), Box(Var("p")))))
                          for i in range(1000)])

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 8
        for other in built[1:]:
            assert all(a is b for a, b in zip(built[0], other))


class TestNodes:
    """The formula nodes are plain classes that share Record's repr and
    frozen rule, and keep object's identity equality and hash."""

    def test_match_destructures_each_node(self):
        f = Diamond(Box(Apply("imp", (p, q))))
        match f:
            case Diamond(Box(Apply(conn, (Var(name), second)))):
                assert (conn, name, second) == ("imp", "p", q)
            case _:
                pytest.fail("no case matched")
        assert [Var.__match_args__, Apply.__match_args__, Box.__match_args__,
                Diamond.__match_args__] == [("name",), ("conn", "args"), ("sub",), ("sub",)]

    @pytest.mark.parametrize("cls", [Var, Apply, Box, Diamond])
    def test_identity_equality_and_hash(self, cls):
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__

    @pytest.mark.parametrize("node", [p, Apply("imp", (p, q)), Box(p), Diamond(q)],
                             ids=["Var", "Apply", "Box", "Diamond"])
    def test_fields_are_frozen_with_the_record_message(self, node):
        for attr in (*node.__match_args__, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"^cannot assign to field {attr!r}$"):
                setattr(node, attr, None)
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"^cannot delete field {attr!r}$"):
                delattr(node, attr)
        assert type(node).__setattr__ is core.Record.__setattr__
        assert type(node).__delattr__ is core.Record.__delattr__
        assert type(node).__repr__ is core.Record.__repr__

    def test_a_tuple_subclass_keeps_its_repr(self):
        class Holder(core.Record):
            __match_args__ = ("value",)

        point, name = namedtuple("Point", "x y")(p, 2), Holder.__qualname__
        assert repr(Holder(point)) == f"{name}(value=Point(x=Var(name='p'), y=2))"
        assert repr(Holder((point,))) == f"{name}(value=(Point(x=Var(name='p'), y=2),))"


class TestFormulaKey:
    def test_orders_as_the_nested_key(self):
        from helpers import formula_key as nested_key
        from helpers import rand_formula

        rng = random.Random(9)
        sig = make_signature(3, [
            *lukasiewicz_signature(3, negation=True).connectives.values(),
            Connective("top", 0, {(): 3})])
        fs = [rand_formula(rng, sig, ["p", "q", "r"], rng.randint(0, 4))
              for _ in range(300)]
        # argument lists that are prefixes of one another, and constants
        fs += [Apply("f", ()), Apply("f", (p,)), Apply("f", (p, q)),
               Apply("f", (q,)), Apply("f", (p, p, q)), Apply("g", (p,)),
               Box(Apply("f", (p,))), Box(Apply("f", (p, q))), Var("pq")]
        rng.shuffle(fs)
        assert sorted(fs, key=formula_key) == sorted(fs, key=nested_key)
        for f, g in zip(fs, fs[1:]):
            assert ((formula_key(f) < formula_key(g))
                    == (nested_key(f) < nested_key(g)))
            assert ((formula_key(f) == formula_key(g)) == (f == g))

    def test_rejects_a_non_formula_operand(self):
        with pytest.raises(TypeError, match="not a formula"):
            formula_key(Box("p"))


class TestApplyConnective:
    def test_lukasiewicz_table_values(self, luk3):
        assert apply_connective(luk3, "imp", (3, 1)) == 1
        assert apply_connective(luk3, "imp", (1, 1)) == 3
        assert apply_connective(luk3, "imp", (3, 2)) == 2

    def test_unknown_connective(self, luk3):
        with pytest.raises(ValueError, match="unknown connective"):
            apply_connective(luk3, "nand", (1, 1))

    def test_arity_mismatch(self, luk3):
        with pytest.raises(ValueError, match="expects 2 arguments"):
            apply_connective(luk3, "imp", (1,))


class TestSignatureValidation:
    def test_domain_too_small(self):
        with pytest.raises(ValueError):
            make_signature(1)

    def test_reserved_name(self):
        conn = Connective("Box", 1, {(1,): 1, (2,): 2})
        with pytest.raises(ValueError, match="reserved"):
            make_signature(2, [conn])

    def test_partial_table(self):
        conn = Connective("f", 1, {(1,): 1})
        with pytest.raises(ValueError, match="needs 2"):
            make_signature(2, [conn])

    def test_label_out_of_range(self):
        conn = Connective("f", 1, {(1,): 1, (2,): 3})
        with pytest.raises(ValueError, match="out of 1..2"):
            make_signature(2, [conn])

    def test_duplicate_name(self):
        a = Connective("f", 0, {(): 1})
        b = Connective("f", 0, {(): 2})
        with pytest.raises(ValueError, match="duplicate"):
            make_signature(2, [a, b])

    def test_nullary_connective_allowed(self):
        sig = make_signature(3, [Connective("top", 0, {(): 3})])
        assert apply_connective(sig, "top", ()) == 3


class TestSequent:
    def test_duplicates_collapse(self):
        s = Sequent([lf(p, 1), lf(p, 1)], [])
        assert s.antecedent == frozenset({lf(p, 1)})

    def test_order_insensitive_equality(self):
        a = Sequent([lf(p, 1), lf(q, 2)], [lf(p, 3)])
        b = Sequent([lf(q, 2), lf(p, 1)], [lf(p, 3)])
        assert a == b
        assert hash(a) == hash(b)

    def test_sides_may_be_empty(self):
        s = Sequent()
        assert s.antecedent == frozenset() and s.succedent == frozenset()

    def test_member_order_and_repeats_do_not_matter(self, luk3):
        members = [lf(Box(p), 2), lf(Apply("imp", (q, p)), 1), lf(p, 3), lf(q, 1)]
        built = [Sequent(members, members[:2]),
                 Sequent(members[::-1] + members, members[1::-1]),
                 Sequent(iter(members[2:] + members[:2]), set(members[:2]))]
        assert all(type(s.antecedent) is frozenset and type(s.succedent) is frozenset
                   for s in built)
        assert len({*built}) == 1 and len({hash(s) for s in built}) == 1
        text = {render_sequent(s) for s in built}
        assert text == {"(p, 3), (q, 1), (imp(q, p), 1), (Box p, 2) -> "
                        "(imp(q, p), 1), (Box p, 2)"}
        assert parse_sequent(text.pop(), luk3) == built[0]

    def test_variables(self):
        s = Sequent([lf(Box(p), 1)], [lf(Apply("imp", (q, r)), 2)])
        assert s.variables() == {"p", "q", "r"}

    def test_label_must_be_positive(self):
        with pytest.raises(ValueError):
            lf(p, 0)


class TestLabelledFormula:
    def test_label_goes_through_index(self, luk3):
        class Index:
            def __index__(self):
                return 2

        built = lf(Box(p), Index())
        assert type(built.label) is int and built == lf(Box(p), 2)
        assert hash(built) == hash(lf(Box(p), 2))
        assert parse_sequent(render_sequent(Sequent([built], [])), luk3) == \
            Sequent([lf(Box(p), 2)], [])
        for label in (2.5, 2.0, "2", None):
            with pytest.raises(TypeError):
                lf(Box(p), label)

    def test_numpy_int_label_is_stored_as_an_int(self):
        numpy = pytest.importorskip("numpy")
        built = lf(p, numpy.int64(3))
        assert type(built.label) is int and repr(built) == repr(lf(p, 3))
        with pytest.raises(TypeError):
            lf(p, numpy.float64(3))
