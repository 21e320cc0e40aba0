import random
import sys
from itertools import product

import pytest

from helpers import oracle_duality_holds, oracle_uniqueness_scan, rand_formula
from mvmodal import decision
from mvmodal.core import Apply, Box, Diamond, Signature, Var
from mvmodal.decision import EnumerationCeilingError
from mvmodal.duality import duality_holds, reversal_negation, uniqueness_scan
from mvmodal.sampling import random_model
from mvmodal.semantics import KripkeModel, evaluate

p = Var("p")


class TestReversal:
    def test_three_values(self):
        assert reversal_negation(3) == (3, 2, 1)

    def test_two_values_swaps(self):
        assert reversal_negation(2) == (2, 1)

    def test_four_values(self):
        assert reversal_negation(4) == (4, 3, 2, 1)

    def test_involution(self):
        for n in range(2, 6):
            table = reversal_negation(n)
            assert tuple(table[table[k - 1] - 1] for k in range(1, n + 1)) \
                == tuple(range(1, n + 1))


class TestDualityHolds:
    def test_reversal_passes(self):
        assert duality_holds(reversal_negation(3), 3, 2).holds

    def test_identity_fails_with_witness(self):
        report = duality_holds((1, 2, 3), 3, 2)
        assert not report.holds
        w = report.witness
        assert w is not None
        assert 0 <= w.world < w.model.world_count
        assert w.side in ("diamond", "box")

    def test_constant_fails_at_single_world(self):
        report = duality_holds((1, 1), 2, 1)
        assert not report.holds

    def test_zero_bound_is_vacuous(self):
        assert duality_holds((1, 1), 2, 0).holds

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            duality_holds(reversal_negation(3), 3, -1)
        with pytest.raises(ValueError, match="bound"):
            uniqueness_scan(3, -1)

    def test_malformed_table(self):
        with pytest.raises(ValueError):
            duality_holds((1, 2, 9), 3, 1)

    @pytest.mark.parametrize("table", [(1, 2, 9), (0, 2, 3), (3, 2), (3, 2, 1, 1)])
    def test_malformed_table_is_named_before_the_bound(self, table):
        for bound in (1, -1):
            with pytest.raises(ValueError, match=r"not a unary table over 1\.\.3: "):
                duality_holds(table, 3, bound)

    def test_one_signature_per_table(self, monkeypatch):
        # duality_holds checks its table through one Signature; the scan
        # checks tables against its successor-value sets and builds none
        built = []
        real = Signature.__init__

        def counting(sig, *args, **kwargs):
            built.append(sig)
            real(sig, *args, **kwargs)

        monkeypatch.setattr(Signature, "__init__", counting)
        assert uniqueness_scan(3, 1) == (reversal_negation(3),)
        assert len(built) == 0
        for table in [(1, 2, 3), reversal_negation(3)]:
            built.clear()
            duality_holds(table, 3, 2)
            assert len(built) == 1, table


def built_from_its_set(witness):
    """The model the closed form of duality's module docstring builds for
    the set of values p takes at the witness world's successors: world 0
    sees each of len(set) worlds, which carry the set ascending, or one
    world without edges and p = 1 for the empty set."""
    model = witness.model
    values = sorted({model.value(v, "p") for v in model.successors(witness.world)})
    labels = values or [1]
    return KripkeModel(len(labels), {(0, v) for v in range(len(values))},
                       {(u, "p"): k for u, k in enumerate(labels)})


def against_the_oracle(table, n, bound):
    """(duality_holds's report, oracle_duality_holds's) for one table,
    after checking that a ceiling of the oracle's model count c gives the
    oracle's report and that c - 1 aborts there."""
    counted = decision._Budget(10 ** 7)
    expected = oracle_duality_holds(table, n, bound, counted)
    c = counted.examined
    report = duality_holds(table, n, bound, ceiling=c)
    assert report == expected, table
    if c:
        with pytest.raises(EnumerationCeilingError) as caught:
            duality_holds(table, n, bound, ceiling=c - 1)
        assert caught.value.examined == c - 1, table
    return report, expected


class TestAgainstTheModelByModelScan:
    """duality_holds against helpers.oracle_duality_holds, which builds
    every model in full and checks it world by world.

    duality_holds checks each table against the successor-value sets at
    their first occurrences, which it builds from their closed form
    (duality._first_sets) without walking the models, so it builds a
    model only for a witness.
    """

    @pytest.mark.parametrize("n, bound", [(2, 3), (3, 2), (3, 3)])
    def test_reports_and_counts_match_the_oracle(self, n, bound):
        for table in product(range(1, n + 1), repeat=n):
            report, expected = against_the_oracle(table, n, bound)
            if not expected.holds:
                assert report.witness.model.vals == expected.witness.model.vals
                assert expected.witness.world == 0, table
                assert expected.witness.model == built_from_its_set(expected.witness)


class TestAgainstTheOracleAtLargerSizes:
    """duality_holds and uniqueness_scan against
    helpers.oracle_duality_holds: every table at four values, and the
    ceiling of the whole scan at the oracle's total count."""

    def test_every_table_at_four_values(self):
        for table in product(range(1, 5), repeat=4):
            report, expected = against_the_oracle(table, 4, 2)
            if not expected.holds:
                assert report.witness.model.vals == expected.witness.model.vals
                assert expected.witness.model == built_from_its_set(expected.witness)

    @pytest.mark.parametrize("n, bound", [(2, 3), (3, 2), (4, 2)])
    def test_scan_ceiling_boundary_is_the_oracle_total(self, n, bound):
        oracle = decision._Budget(10 ** 7)
        survivors = tuple(table for table in product(range(1, n + 1), repeat=n)
                          if oracle_duality_holds(table, n, bound, oracle))
        total = oracle.examined
        assert uniqueness_scan(n, bound, ceiling=total) == survivors
        with pytest.raises(EnumerationCeilingError) as caught:
            uniqueness_scan(n, bound, ceiling=total - 1)
        assert caught.value.examined == total - 1


class TestScanAgainstThePerTableLoop:
    """uniqueness_scan against helpers.oracle_uniqueness_scan, which checks
    every table against every set of successor values, the empty set
    included: the same survivors, the same count of models examined, and
    the same ceiling outcome."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_survivors_count_and_ceiling(self, n, bound):
        self.check(n, bound)

    # the oracle takes about a second for each of its three full scans
    @pytest.mark.parametrize("bound", [1, 2])
    def test_seven_values(self, bound):
        self.check(7, bound)

    @staticmethod
    def check(n, bound):
        whole = decision._Budget(10 ** 9)
        oracle_uniqueness_scan(n, bound, whole)
        total = whole.examined
        for ceiling in sorted({0, 1, max(total - 1, 0), total}):
            outcomes = []
            for scan in (uniqueness_scan, oracle_uniqueness_scan):
                try:
                    outcomes.append(("survivors", scan(n, bound, ceiling)))
                except EnumerationCeilingError as caught:
                    outcomes.append(("aborted", caught.examined))
            assert outcomes[0] == outcomes[1], ceiling
            assert (outcomes[0][0] == "aborted") == (ceiling < total), ceiling


#: A000085(n - 2): the involutions of the n - 2 middle values.
MIDDLE_INVOLUTIONS = {7: 26, 8: 76, 9: 232, 10: 764, 11: 2620, 12: 9496}


class TestScanPastSixValues:
    """uniqueness_scan beyond the oracle's reach, against closed forms.
    The default ceiling of 10^7 models aborts every scan here."""

    @pytest.mark.parametrize("n", sorted(MIDDLE_INVOLUTIONS))
    def test_two_worlds_leave_the_reversal(self, n):
        assert uniqueness_scan(n, 2, ceiling=10 ** 60) == (reversal_negation(n),)

    @pytest.mark.parametrize("n", sorted(MIDDLE_INVOLUTIONS))
    def test_one_world_leaves_the_involutions_fixing_the_ends(self, n):
        # the empty set forces t(n) = 1 and t(1) = n; a singleton {k}
        # asks t(t(k)) = k of both claims
        survivors = uniqueness_scan(n, 1, ceiling=10 ** 60)
        assert len(survivors) == MIDDLE_INVOLUTIONS[n]
        assert list(survivors) == sorted(set(survivors))
        for table in survivors:
            assert table[0] == n and table[n - 1] == 1
            assert all(table[table[k] - 1] == k + 1 for k in range(n))

    def test_zero_bound_keeps_the_desk_scale_limit(self):
        # bound 0 checks nothing and would list all 7^7 tables
        with pytest.raises(ValueError, match="above desk scale"):
            uniqueness_scan(7, 0, ceiling=10 ** 60)

    def test_the_walk_does_not_recurse(self):
        # a walk that recursed once per assigned entry would need twelve
        # frames more than the scan's own few
        def headroom():
            try:
                return 1 + headroom()
            except RecursionError:
                return 0

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit - headroom() + 10)
        try:
            survivors = uniqueness_scan(12, 2, ceiling=10 ** 60)
        finally:
            sys.setrecursionlimit(limit)
        assert survivors == (reversal_negation(12),)


class TestUniquenessScan:
    def test_two_values(self):
        survivors = uniqueness_scan(2, 2)
        assert survivors == (reversal_negation(2),)

    def test_three_values(self):
        survivors = uniqueness_scan(3, 2)
        assert survivors == (reversal_negation(3),)

    def test_zero_bound_keeps_everything(self):
        assert len(uniqueness_scan(3, 0)) == 27

    def test_ceiling_counts_models_over_the_whole_scan(self):
        # 184 models in all; no single table or world count reaches 150
        assert uniqueness_scan(3, 2, ceiling=184) == (reversal_negation(3),)
        with pytest.raises(EnumerationCeilingError) as caught:
            uniqueness_scan(3, 2, ceiling=150)
        assert caught.value.examined == 150

    def test_huge_bound_stops_at_the_ceiling(self):
        # the survivor's count is summed one world count at a time
        with pytest.raises(EnumerationCeilingError) as caught:
            uniqueness_scan(2, 10 ** 20, ceiling=10 ** 7)
        assert caught.value.examined == 10 ** 7

    def test_single_world_forces_endpoints(self):
        # dead-end worlds already pin the images of the extreme labels
        for table in uniqueness_scan(3, 1):
            assert table[3 - 1] == 1
            assert table[1 - 1] == 3


class TestPointwiseIdentity:
    def test_reversal_makes_modalities_dual(self, luk3_neg):
        rng = random.Random(41)
        for _ in range(100):
            m = random_model(rng, ["p", "q"], 3, 4)
            f = rand_formula(rng, luk3_neg, ["p", "q"], 3)
            for u in m.worlds:
                def neg(g):
                    return Apply("neg", (g,))

                assert (evaluate(luk3_neg, m, u, neg(Box(neg(f))))
                        == evaluate(luk3_neg, m, u, Diamond(f)))
                assert (evaluate(luk3_neg, m, u, neg(Diamond(neg(f))))
                        == evaluate(luk3_neg, m, u, Box(f)))

    def test_converse_sequents_hold(self, luk3_neg):
        # both directions of each dual claim follow from the identity
        rng = random.Random(42)
        for _ in range(50):
            m = random_model(rng, ["p"], 3, 3)
            for u in m.worlds:
                dia = evaluate(luk3_neg, m, u, Diamond(p))
                dual = evaluate(luk3_neg, m, u,
                                Apply("neg", (Box(Apply("neg", (p,))),)))
                for k in (1, 2, 3):
                    assert (dia == k) == (dual == k)
