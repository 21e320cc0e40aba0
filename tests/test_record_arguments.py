"""The arguments of the records that only store their fields, against
the frozen dataclasses they replaced (helpers.TWINS)."""

from itertools import chain, combinations

import pytest

from helpers import TWINS
from mvmodal.core import Box, LabelledFormula, Record, Var
from mvmodal.decision import Countermodel, ProvedValid, ValidUpTo
from mvmodal.duality import DualityWitness
from mvmodal.filtration import FiltrationReport
from mvmodal.parser import SourceSpan
from mvmodal.proofs import (
    Cut,
    Hypothesis,
    LeftShift,
    LeftWeaken,
    Resolution,
    RightShift,
    RightWeaken,
    Violation,
)
from mvmodal.semantics import FrameClass, KripkeModel

p = Var("p")
lf = LabelledFormula(Box(p), 2)
model = KripkeModel(2, [(0, 1)], {(1, "p"): 3})

#: Each store-only record with one value per field.
STORE_ONLY = {
    Countermodel: (model, 1),
    ValidUpTo: (4,),
    ProvedValid: (2,),
    DualityWitness: (model, 0, 2, "box"),
    FiltrationReport: (False, True, FrameClass.SYMMETRIC, ((0, p, 1, 2),)),
    SourceSpan: (3, 7, 41),
    Hypothesis: (0,),
    LeftShift: (2,),
    RightShift: (1, 3),
    LeftWeaken: (lf,),
    RightWeaken: (lf,),
    Cut: (lf,),
    Resolution: (Box(p), 1, 2),
    Violation: (2, "r-box", "premise does not match"),
}


def outcome(cls, args, kwargs):
    """The built record's repr and its attributes in order, or TypeError."""
    try:
        record = cls(*args, **kwargs)
    except TypeError:
        return TypeError
    return repr(record), list(vars(record))


def calls(names, values):
    """Every split of the fields between positional and keyword arguments,
    keywords in either order, with one positional too many, fields given
    both ways and an unknown keyword: (positional, keyword) pairs."""
    keywords = [*names, "other"]
    for count in range(len(names) + 2):
        positional = (*values, "extra")[:count]
        for chosen in chain.from_iterable(
                combinations(keywords, k) for k in range(len(keywords) + 1)):
            for order in (chosen, chosen[::-1]):
                yield positional, {key: values[names.index(key)] if key in names else 0
                                   for key in order}


@pytest.mark.parametrize("cls, values", STORE_ONLY.items(),
                         ids=[cls.__name__ for cls in STORE_ONLY])
def test_arguments_bind_as_the_dataclass_binds_them(cls, values):
    names = cls.__match_args__
    twin = TWINS[cls.__name__]
    results = set()
    for args, kwargs in calls(names, values):
        expected = outcome(twin, args, kwargs)
        assert outcome(cls, args, kwargs) == expected, (args, kwargs)
        results.add(expected is TypeError)
    assert results == {True, False}
    assert cls(**dict(zip(names, values))) == cls(*values)


def test_a_record_that_only_stores_its_fields_writes_no_constructor():
    assert all(cls.__init__ is Record.__init__ for cls in STORE_ONLY)
