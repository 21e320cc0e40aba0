"""The record types against the frozen dataclasses they replaced (helpers.TWINS)."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import re

import pytest

import mvmodal
from helpers import TWINS
from mvmodal.core import (
    Apply,
    Box,
    Connective,
    Diamond,
    LabelledFormula,
    Record,
    Sequent,
    TruthDomain,
    Var,
    lukasiewicz_implication,
    reversal_connective,
)
from mvmodal.decision import ProvedValid, ValidUpTo
from mvmodal.proofs import (
    AxiomIdentity,
    Hypothesis,
    LeftShift,
    LeftWeaken,
    LogicId,
    RightWeaken,
    RuleBox,
    RuleDiamond,
    Step,
)
from mvmodal.semantics import FrameClass, KripkeModel


def package_classes() -> set[type]:
    """Every class defined at the top level of a module of the package."""
    classes = set()
    for info in pkgutil.iter_modules(mvmodal.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"mvmodal.{info.name}")
        classes |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and obj.__module__ == module.__name__}
    return classes


RECORDS = {cls.__name__: cls for cls in package_classes()
           if issubclass(cls, Record) and cls is not Record}

p, q = Var("p"), Var("q")
lf = LabelledFormula(Box(p), 2)
sequent = Sequent([lf, LabelledFormula(p, 1)], [LabelledFormula(Diamond(q), 3)])
model = KripkeModel(2, [(0, 1), (1, 1)], {(1, "p"): 3, (0, "q"): 2})

#: (record name, positional arguments, keyword arguments): each builds a
#: record and its twin.  The lists, ranges and dicts given for tuple and
#: set fields check the normalisations.
CASES = [
    ("TruthDomain", (3,), {}),
    ("Connective", ("imp", 2, lukasiewicz_implication(2).table), {}),
    ("Signature", (TruthDomain(3), {"neg": reversal_connective(3)}), {}),
    ("Signature", (), {"domain": TruthDomain(2), "connectives": {}}),
    ("LabelledFormula", (Apply("imp", (p, q)), 3), {}),
    ("LabelledFormula", (p, True), {}),
    ("Sequent", (), {}),
    ("Sequent", ([lf, lf], (LabelledFormula(q, 1),)), {}),
    ("KripkeModel", (1,), {}),
    ("KripkeModel", (3, [(0, 1), (2, 2)], [((1, "p"), 2), ((0, "q"), 1)]), {}),
    ("Countermodel", (model, 1), {}),
    ("ValidUpTo", (4,), {}),
    ("ProvedValid", (), {"bound": 2}),
    ("DualityWitness", (model, 0, 2, "box"), {}),
    ("DualityReport", (True,), {}),
    ("DualityReport", (False, None), {}),
    ("Filtered", (((0,), (1, 2)), (0, 1), model, {(0, p): 1, (1, p): 3}), {}),
    ("FiltrationReport", (False, True, FrameClass.SYMMETRIC, ((0, p, 1, 2),)), {}),
    ("SourceSpan", (3, 7, 41), {}),
    ("Hypothesis", (0,), {}),
    ("AxiomIdentity", (), {}),
    ("AxiomTable", ("imp", [1, 2]), {}),
    ("RuleBox", (), {}),
    ("RuleDiamond", (), {}),
    ("LeftShift", (2,), {}),
    ("RightShift", (), {"from_label": 1, "to_label": 3}),
    ("LeftWeaken", (lf,), {}),
    ("RightWeaken", (lf,), {}),
    ("Cut", (lf,), {}),
    ("Resolution", (Box(q), 1, 2), {}),
    ("MultiShift", (p, [3, 1, 3]), {}),
    ("SuperMultiShift", ([p, Box(p)], [[1, 2], range(2, 4)]), {}),
    ("ExtensionAxiom", (21, p), {}),
    ("ExtensionAxiom", (20, p, 3), {}),
    ("ExtensionAxiom", (22, Box(p), 2), {}),
    ("Step", (sequent, AxiomIdentity()), {}),
    ("Step", (sequent, RuleBox(), [0, 1]), {}),
    ("Derivation", (LogicId.MV_T, [sequent], [Step(sequent, Hypothesis(0))]), {}),
    ("Violation", (2, "r-box", "premise does not match"), {}),
]

#: Arguments each record rejects, with the twin's error.
INVALID = [
    ("TruthDomain", (1,)),
    ("Connective", ("f", -1, {})),
    ("Signature", (TruthDomain(3), {"imp": reversal_connective(3)})),
    ("Signature", (TruthDomain(3), {"Box": reversal_connective(3, "Box")})),
    ("Signature", (TruthDomain(3), {"neg": reversal_connective(2)})),
    ("Signature", (TruthDomain(2), {"neg": Connective("neg", 1, {(1,): 2, (2,): 3})})),
    ("Signature", (TruthDomain(2), {"f": Connective("f", 1, {(1, 1): 1, (2,): 2})})),
    ("LabelledFormula", (p, 0)),
    ("LabelledFormula", (p, 2.5)),
    ("LabelledFormula", (p, "2")),
    ("KripkeModel", (0,)),
    ("KripkeModel", (2, [(0, 2)])),
    ("KripkeModel", (2, (), {(3, "p"): 1})),
    ("KripkeModel", (2, (), {(0, "p"): 0})),
    ("KripkeModel", (1.0,)),
]


def build(name, args, kwargs):
    return RECORDS[name](*args, **kwargs), TWINS[name](*args, **kwargs)


def rendering(value) -> str:
    """repr, with the members of each set in sorted order of their rendering.

    copy.deepcopy and pickle rebuild a set by inserting its members in
    iteration order, and two members whose hashes fall in one slot of the
    table can then iterate the other way round.  Formula nodes hash by
    identity, so whether they do depends on memory addresses: the repr of
    a copied sequent side is not a function of its value, this is.
    """
    if isinstance(value, (set, frozenset)):
        return f"{type(value).__name__}({sorted(map(rendering, value))})"
    if isinstance(value, (tuple, list)):
        return f"{type(value).__name__}({list(map(rendering, value))})"
    if isinstance(value, dict):
        return f"dict({[(rendering(k), rendering(v)) for k, v in value.items()]})"
    if isinstance(value, Record) or dataclasses.is_dataclass(value):
        fields = ", ".join(f"{name}={rendering(getattr(value, name))}"
                           for name in value.__match_args__)
        return f"{type(value).__qualname__}({fields})"
    return repr(value)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as error:
        return type(error), str(error)


def test_every_record_has_a_twin():
    assert len(RECORDS) == 31
    assert set(RECORDS) == set(TWINS)
    assert {name for name, _, _ in CASES} == set(TWINS)


def test_only_the_formula_nodes_are_dataclasses():
    assert {cls for cls in package_classes()
            if dataclasses.is_dataclass(cls)} == {Var, Apply, Box, Diamond}


@pytest.mark.parametrize("name, args, kwargs", CASES,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(CASES)])
class TestAgainstTheDataclass:
    def test_fields_and_repr(self, name, args, kwargs):
        record, twin = build(name, args, kwargs)
        fields = [f.name for f in dataclasses.fields(twin) if f.init]
        assert record.__match_args__ == twin.__match_args__ == tuple(fields)
        assert ([(getattr(record, f), type(getattr(record, f))) for f in fields]
                == [(getattr(twin, f), type(getattr(twin, f))) for f in fields])
        assert repr(record) == repr(twin)

    def test_equality_and_hash(self, name, args, kwargs):
        (record, twin), (again, twin_again) = build(name, args, kwargs), build(name, args, kwargs)
        assert record == again and not record != again
        assert twin == twin_again
        assert hash_or_error(record) == hash_or_error(twin)
        if not isinstance(hash_or_error(record), tuple):
            assert hash(record) == hash(again)
        assert record.__eq__(twin) is NotImplemented
        assert record != twin
        assert record != tuple(getattr(record, f) for f in record.__match_args__)

    def test_frozen(self, name, args, kwargs):
        record, twin = build(name, args, kwargs)
        for attr in (*twin.__match_args__, "other"):
            for obj in (record, twin):
                with pytest.raises(dataclasses.FrozenInstanceError,
                                   match=f"cannot assign to field {attr!r}"):
                    setattr(obj, attr, None)
                with pytest.raises(dataclasses.FrozenInstanceError,
                                   match=f"cannot delete field {attr!r}"):
                    delattr(obj, attr)
        assert repr(record) == repr(twin)

    def test_copies_and_pickles(self, name, args, kwargs):
        record, twin = build(name, args, kwargs)
        for duplicate in (copy.copy(record), copy.deepcopy(record),
                          pickle.loads(pickle.dumps(record))):
            assert type(duplicate) is type(record)
            # by value, not by repr text: see rendering
            assert duplicate == record and rendering(duplicate) == rendering(record)
            assert vars(duplicate).keys() == vars(record).keys()
        assert rendering(copy.deepcopy(twin)) == rendering(twin)


@pytest.mark.parametrize("name, args", INVALID,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(INVALID)])
def test_validation_errors_match(name, args):
    with pytest.raises((TypeError, ValueError)) as twin_error:
        TWINS[name](*args)
    with pytest.raises(twin_error.type, match=f"^{re.escape(str(twin_error.value))}$"):
        RECORDS[name](*args)


@pytest.mark.parametrize("first, second", [
    (ValidUpTo(3), ProvedValid(3)),
    (Hypothesis(0), LeftShift(0)),
    (LeftWeaken(lf), RightWeaken(lf)),
    (RuleBox(), RuleDiamond()),
    (AxiomIdentity(), RuleBox()),
])
def test_equal_fields_of_other_records_differ(first, second):
    assert first != second and second != first
    assert not first == second
    assert first.__eq__(second) is NotImplemented


def test_defaults():
    assert RECORDS["ExtensionAxiom"](21, p).label == 1
    assert Step(sequent, AxiomIdentity()).premises == ()
    assert RECORDS["DualityReport"](True).witness is None
    assert Sequent() == Sequent([], [])


def test_filtered_index_is_not_a_field():
    filtered = RECORDS["Filtered"](((0,), (1, 2)), (0, 1), model, {})
    other = RECORDS["Filtered"](((0,), (1, 2)), (0, 1), model, {})
    assert filtered.class_of(2) == 1 and filtered == other
    assert "_class_index" not in repr(filtered)
