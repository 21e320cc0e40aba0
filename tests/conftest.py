import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI (GitHub Actions sets CI) replays the same examples on every run and
# prints a reproduction blob for any failure; local runs draw fresh ones.
settings.register_profile("ci", derandomize=True, database=None,
                          deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

from mvmodal.core import (
    LabelledFormula,
    Var,
    lukasiewicz_implication,
    lukasiewicz_signature,
    make_signature,
    reversal_connective,
)
from mvmodal import cli, intuitionistic
from mvmodal import derivations as D


@pytest.fixture(autouse=True)
def _nothing_held():
    """Each test starts with no parsed input file held by the CLI and no
    embedding held by `intuitionistic`, so a test that replaces a parser
    in `cli`, or closure_order, sees every call go through it."""
    cli._parsed.clear()
    intuitionistic._embedding.cache_clear()


@pytest.fixture(scope="session")
def luk3():
    return lukasiewicz_signature(3)


@pytest.fixture(scope="session")
def luk3_neg():
    return make_signature(3, [lukasiewicz_implication(3), reversal_connective(3)])


@pytest.fixture(scope="session")
def bare2():
    return make_signature(2)


def standard_fixtures(sig_neg):
    """The stock derivations, paired with the signature they check under.

    Every entry is valid mv-K; the soundness and mutation harnesses
    iterate over this list.
    """
    p, q = Var("p"), Var("q")
    entries = [
        ("box_below_diamond_k1", D.box_below_diamond(p, 1, 3)),
        ("box_below_diamond_k2", D.box_below_diamond(p, 2, 3)),
        ("diamond_above_box_k2", D.diamond_above_box(p, 2, 3)),
        ("diamond_above_box_k3", D.diamond_above_box(p, 3, 3)),
        ("box_top_forces_diamond", D.box_top_forces_diamond(p, 3)),
        ("dead_end_box", D.dead_end_box(p, q, 3)),
        ("dead_end_diamond", D.dead_end_diamond(p, q, 3)),
        ("box_modus_ponens", D.box_modus_ponens_lukasiewicz()),
        ("negation_inversion_k1", D.negation_inversion(p, 1, 3)),
        ("negation_inversion_k2", D.negation_inversion(p, 2, 3)),
        ("reversal_of_diamond_duality", D.reversal_of_diamond_duality(p, 2, 3)),
        ("reversal_of_box_duality", D.reversal_of_box_duality(p, 2, 3)),
        ("diamond_rule_from_negation",
         D.diamond_rule_from_negation(
             p, 2, 3,
             (LabelledFormula(D.Box(q), 1), LabelledFormula(D.Diamond(q), 2)))),
    ]
    return [(name, sig_neg, d) for name, d in entries]


@pytest.fixture(scope="session")
def fixtures(luk3_neg):
    return standard_fixtures(luk3_neg)
