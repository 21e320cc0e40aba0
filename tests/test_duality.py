import random
from itertools import product

import pytest

from helpers import oracle_duality_holds, rand_formula
from mvmodal import decision
from mvmodal.core import Apply, Box, Diamond, Signature, Var
from mvmodal.decision import EnumerationCeilingError
from mvmodal.duality import duality_holds, reversal_negation, uniqueness_scan
from mvmodal.sampling import random_model
from mvmodal.semantics import evaluate

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
        real = Signature.__post_init__

        def counting(sig):
            built.append(sig)
            real(sig)

        monkeypatch.setattr(Signature, "__post_init__", counting)
        assert uniqueness_scan(3, 1) == (reversal_negation(3),)
        assert len(built) == 0
        for table in [(1, 2, 3), reversal_negation(3)]:
            built.clear()
            duality_holds(table, 3, 2)
            assert len(built) == 1, table


class TestAgainstTheModelByModelScan:
    """duality_holds against helpers.oracle_duality_holds, which builds
    every model in full and checks it world by world.

    The scan walks the search's stacked blocks of at most
    decision.BLOCK_WORLDS worlds; every table runs both with the default
    and with blocks split small, so that one relation's models span
    several blocks.
    """

    @pytest.mark.parametrize("n, bound", [(2, 3), (3, 2)])
    def test_reports_and_counts_match_the_oracle(self, n, bound, monkeypatch):
        for block_worlds in (decision.BLOCK_WORLDS, 5):
            monkeypatch.setattr(decision, "BLOCK_WORLDS", block_worlds)
            ours, theirs = decision._Budget(10 ** 7), decision._Budget(10 ** 7)
            for table in product(range(1, n + 1), repeat=n):
                case = (table, block_worlds)
                report = duality_holds(table, n, bound, ours)
                expected = oracle_duality_holds(table, n, bound, theirs)
                assert report == expected, case
                if not expected.holds:
                    assert report.witness.model.vals == expected.witness.model.vals
                assert ours.examined == theirs.examined, case


class TestAgainstTheOracleAtLargerSizes:
    """duality_holds and uniqueness_scan against
    helpers.oracle_duality_holds: every table at four values, and the
    ceiling of the whole scan at the oracle's total count."""

    def test_every_table_at_four_values(self):
        ours, theirs = decision._Budget(10 ** 7), decision._Budget(10 ** 7)
        for table in product(range(1, 5), repeat=4):
            report = duality_holds(table, 4, 2, ours)
            expected = oracle_duality_holds(table, 4, 2, theirs)
            assert report == expected, table
            if not expected.holds:
                assert report.witness.model.vals == expected.witness.model.vals
            assert ours.examined == theirs.examined, table

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
