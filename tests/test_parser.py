import random
import re
import sys
import tracemalloc
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    nested_formula,
    oracle_parse_formula,
    oracle_parse_formulas,
    oracle_parse_model,
    oracle_parse_proof,
    oracle_parse_sequent,
    oracle_parse_sequents,
    oracle_parse_signature,
    rand_formula,
    rand_sequent,
)
from mvmodal import parser
from mvmodal.core import (
    RESERVED_NAMES,
    Apply,
    Box,
    Connective,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    all_entries,
    lukasiewicz_implication,
    lukasiewicz_signature,
    make_signature,
    reversal_connective,
)
from mvmodal.parser import (
    MAX_FORMULA_DEPTH,
    MAX_WORLDS,
    ParseError,
    SourceSpan,
    parse_formula,
    parse_formulas,
    parse_model,
    parse_proof,
    parse_sequent,
    parse_sequents,
    parse_signature,
    render_formula,
    render_model,
    render_proof,
    render_sequent,
    render_sequents,
    render_signature,
)
from mvmodal.proofs import (
    SCHEME_FRAMES,
    AxiomIdentity,
    AxiomTable,
    Cut,
    Derivation,
    ExtensionAxiom,
    Hypothesis,
    LeftShift,
    LeftWeaken,
    LogicId,
    MultiShift,
    Resolution,
    RightShift,
    RightWeaken,
    RuleBox,
    RuleDiamond,
    Step,
    SuperMultiShift,
    check_derivation,
)
from mvmodal.sampling import random_model
from mvmodal.semantics import FrameClass, KripkeModel

p = Var("p")
q = Var("q")

LUKASIEWICZ_TEXT = """\
domain 3
conn imp 2
imp 1 1 = 3
imp 1 2 = 3
imp 1 3 = 3
imp 2 1 = 2
imp 2 2 = 3
imp 2 3 = 3
imp 3 1 = 1
imp 3 2 = 2
imp 3 3 = 3
"""


class TestSignatureFormat:
    def test_lukasiewicz(self):
        assert parse_signature(LUKASIEWICZ_TEXT) == lukasiewicz_signature(3)

    def test_bare_domain(self):
        sig = parse_signature("domain 2\n")
        assert sig.n == 2 and not sig.connectives

    def test_domain_too_small(self):
        with pytest.raises(ParseError, match="at least 2"):
            parse_signature("domain 1\n")

    def test_missing_table_entry(self):
        text = "domain 2\nconn f 1\nf 1 = 2\n"
        with pytest.raises(ParseError, match="missing table entry"):
            parse_signature(text)

    def test_arity_whose_rows_cannot_fit_in_the_text(self):
        # 2^2 rows need 4 lines; the text has 3, so the conn line is wrong
        with pytest.raises(ParseError) as info:
            parse_signature("domain 2\nconn f 2\n")
        assert info.value.message == ("connective 'f': arity 2 needs 2^2 table "
                                      "rows, more than the signature's 3 lines")
        assert (info.value.span.line, info.value.span.column) == (2, 8)
        # with 4 lines the rows could fit: the table is checked row by row
        with pytest.raises(ParseError, match="missing table entry for 1 2"):
            parse_signature("domain 2\nconn f 2\nf 1 1 = 1\n")

    def test_out_of_range_label(self):
        text = "domain 2\nconn f 1\nf 1 = 3\nf 2 = 1\n"
        with pytest.raises(ParseError, match="out of 1..2"):
            parse_signature(text)

    def test_duplicate_connective(self):
        text = "domain 2\nconn f 0\nconn f 0\n"
        with pytest.raises(ParseError, match="duplicate connective"):
            parse_signature(text)

    def test_rows_of_a_connective_named_conn(self):
        sig = parse_signature("domain 2\nconn conn 1\nconn 1 = 2\nconn 2 = 1\n"
                              "conn f 0\nf = 2\n")
        assert sig.connectives["conn"].table == {(1,): 2, (2,): 1}
        assert sig.connectives["f"].table == {(): 2}

    def test_malformed_conn_lines_keep_their_messages(self):
        with pytest.raises(ParseError) as info:
            parse_signature("domain 2\nconn 1 = 2\n")
        assert info.value.message == "expected a connective name, found '1'"
        with pytest.raises(ParseError) as info:
            parse_signature("domain 2\nconn conn 1\nconn 1\n")
        assert info.value.message == "expected '=', found '\\n'"

    def test_comments_and_blank_lines(self):
        text = "# a comment\ndomain 2\n\nconn t 0  # nullary\nt = 2\n"
        sig = parse_signature(text)
        assert sig.connectives["t"].table[()] == 2


class TestFormulaFormat:
    def test_goal_sequent(self, luk3):
        s = parse_sequent("(Box p, 3), (Box imp(p, q), 3) -> (Box q, 3)", luk3)
        assert s == Sequent(
            [LabelledFormula(Box(p), 3),
             LabelledFormula(Box(Apply("imp", (p, q))), 3)],
            [LabelledFormula(Box(q), 3)])

    def test_empty_sequent(self, luk3):
        assert parse_sequent("-> ", luk3) == Sequent()

    def test_label_out_of_range(self, luk3):
        with pytest.raises(ParseError, match="out of 1..3"):
            parse_sequent("(Dia p, 4) ->", luk3)

    def test_nested_and_parenthesized(self, luk3):
        f = parse_formula("Box (Dia imp(p, Box q))", luk3)
        assert f == Box(Diamond(Apply("imp", (p, Box(q)))))

    def test_arity_mismatch(self, luk3):
        with pytest.raises(ParseError, match="expects 2 arguments"):
            parse_formula("imp(p)", luk3)

    def test_unknown_connective(self, luk3):
        with pytest.raises(ParseError, match="unknown connective"):
            parse_formula("nand(p, q)", luk3)

    def test_bare_connective_name(self, luk3):
        with pytest.raises(ParseError, match="argument list"):
            parse_formula("imp", luk3)

    def test_trailing_garbage(self, luk3):
        with pytest.raises(ParseError, match="trailing"):
            parse_formula("p q", luk3)

    def test_sequents_file(self, luk3):
        text = "(p, 1) ->\n# comment\n-> (q, 2)\n"
        assert parse_sequents(text, luk3) == (
            Sequent([LabelledFormula(p, 1)], []),
            Sequent([], [LabelledFormula(q, 2)]))


class TestModelFormat:
    def test_minimal(self, luk3):
        m = parse_model("worlds 1\n", luk3)
        assert m.world_count == 1 and not m.edges
        assert m.value(0, "p") == 1

    def test_chain(self, luk3):
        m = parse_model("worlds 2\nedge 0 1\nval 1 p 3\n", luk3)
        assert m == KripkeModel(2, {(0, 1)}, {(1, "p"): 3})

    def test_undeclared_world(self, luk3):
        with pytest.raises(ParseError, match="undeclared world"):
            parse_model("worlds 2\nedge 0 5\n", luk3)

    def test_valuation_out_of_range(self, luk3):
        with pytest.raises(ParseError, match="out of 1..3"):
            parse_model("worlds 1\nval 0 p 4\n", luk3)

    def test_duplicate_valuation(self, luk3):
        with pytest.raises(ParseError, match="duplicate valuation"):
            parse_model("worlds 1\nval 0 p 1\nval 0 p 2\n", luk3)

    def test_zero_worlds(self, luk3):
        with pytest.raises(ParseError, match="at least one world"):
            parse_model("worlds 0\n", luk3)

    def test_world_count_above_the_limit(self, luk3):
        # rejected at the header, before the model allocates per world
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as info:
                parse_model(f"worlds {MAX_WORLDS + 1}\nedge 0 1\n", luk3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert str(info.value) == (f"line 1, column 8: the world count is above "
                                   f"the limit of {MAX_WORLDS}")


class TestProofFormat:
    SCRIPT = """\
1: (p, 2) -> (p, 2) ; ax-id
2: (p, 2) -> (p, 1), (p, 2) ; rweak (p, 1) from 1
3: (p, 2) -> (p, 1), (p, 2), (p, 3) ; rweak (p, 3) from 2
4: (Box p, 2), (Dia p, 1) -> ; r-box from 3
5: (Box p, 2) -> (Dia p, 2), (Dia p, 3) ; mshift Dia p {1} from 4
"""

    def test_parse_and_check(self, luk3):
        d = parse_proof(self.SCRIPT, luk3)
        assert len(d.steps) == 5
        assert check_derivation(d, luk3) is None

    def test_empty_script(self, luk3):
        d = parse_proof("", luk3)
        assert d.steps == ()
        assert check_derivation(d, luk3) is None

    def test_dangling_reference(self, luk3):
        text = ("1: (p, 1) -> (p, 1) ; ax-id\n"
                "2: (p, 1) -> (p, 1), (p, 2) ; rweak (p, 2) from 1\n"
                "3: (p, 1) -> ; rweak (p, 2) from 7\n")
        with pytest.raises(ParseError, match="does not name an earlier step"):
            parse_proof(text, luk3)

    def test_unknown_rule(self, luk3):
        with pytest.raises(ParseError, match="unknown rule name"):
            parse_proof("1: (p, 1) -> ; zap\n", luk3)

    def test_duplicate_step_number(self, luk3):
        text = "1: (p, 1) -> (p, 1) ; ax-id\n1: (p, 2) -> (p, 2) ; ax-id\n"
        with pytest.raises(ParseError, match="duplicate step number"):
            parse_proof(text, luk3)

    def test_noncontiguous_numbering_is_accepted(self, luk3):
        text = "2: (p, 1) -> (p, 1) ; ax-id\n9: (p, 2) -> (p, 2) ; ax-id\n"
        d = parse_proof(text, luk3)
        assert len(d.steps) == 2

    def test_hypothesis_and_extension_args(self, luk3):
        text = ("1: (p, 1) -> ; hyp 1\n"
                "2: (Box p, 3) -> (p, 3) ; ext-21 p 3\n"
                "3: (Box p, 3) -> (Dia p, 3) ; ext-20 p\n")
        hyp = Sequent([LabelledFormula(p, 1)], [])
        d = parse_proof(text, luk3, LogicId.MV_T, (hyp,))
        assert d.steps[0].justification.index == 0
        assert d.steps[1].justification.scheme == 21
        assert d.steps[2].justification.scheme == 20
        # scheme 20 is not part of mv-T, so checking must flag step 3
        v = check_derivation(d, luk3)
        assert v is not None and v.step == 3


class TestRoundTrip:
    def test_fixture_derivations(self, fixtures):
        for name, sig, derivation in fixtures:
            text = render_proof(derivation)
            back = parse_proof(text, sig, derivation.logic,
                               derivation.hypotheses)
            assert back == derivation, name

    def test_signatures(self, luk3, luk3_neg, bare2):
        for sig in (luk3, luk3_neg, bare2):
            assert parse_signature(render_signature(sig)) == sig

    def test_nullary_connective_signature(self):
        from mvmodal.core import Connective, make_signature

        sig = make_signature(3, [Connective("top", 0, {(): 3})])
        assert parse_signature(render_signature(sig)) == sig
        assert parse_formula("top()", sig) == Apply("top", ())

    def test_sequents_file_round_trip(self, luk3):
        from mvmodal.parser import render_sequents

        rng = random.Random(24)
        batch = tuple(rand_sequent(rng, luk3, ["p", "q"]) for _ in range(20))
        assert parse_sequents(render_sequents(batch), luk3) == batch

    def test_serial_scheme_justification_round_trips(self, luk3):
        from mvmodal.proofs import Derivation, ExtensionAxiom, Step
        from mvmodal.proofs import instantiate_scheme

        # the serial scheme ignores its label, so any label normalizes
        step = Step(instantiate_scheme(20, p, 1, 3), ExtensionAxiom(20, p, 3))
        d = Derivation(LogicId.MV_D, (), (step,))
        assert parse_proof(render_proof(d), luk3, LogicId.MV_D) == d
        assert check_derivation(d, luk3) is None

    def test_every_rule_round_trips(self, luk3):
        from mvmodal.proofs import (
            RULES, AxiomIdentity, AxiomTable, Cut, Derivation, ExtensionAxiom,
            Hypothesis, LeftShift, LeftWeaken, MultiShift, Resolution,
            RightShift, RightWeaken, RuleBox, RuleDiamond, Step,
            SuperMultiShift, rule_name)

        instances = [
            Hypothesis(1), AxiomIdentity(), AxiomTable("imp", (1, 3)),
            RuleBox(), RuleDiamond(), LeftShift(2), RightShift(3, 1),
            LeftWeaken(LabelledFormula(Box(p), 2)),
            RightWeaken(LabelledFormula(Diamond(q), 1)),
            Cut(LabelledFormula(Apply("imp", (p, q)), 3)),
            Resolution(Box(p), 1, 3), MultiShift(q, {1, 3}),
            SuperMultiShift((p, Diamond(q)), ({2}, {1, 3})),
            ExtensionAxiom(20, Box(q)), ExtensionAxiom(28, p, 2),
        ]
        by_type = {type(j): j for j in instances}
        hyps = (Sequent([LabelledFormula(p, 1)], []),) * 2
        for rule_type, rule in RULES.items():
            # a rule added to the table without syntax fails here
            j = by_type[rule_type]
            assert rule_name(j).startswith(rule.name)
            step = Step(Sequent([LabelledFormula(p, 1)], []), j)
            d = Derivation(LogicId.MV_S5, hyps, (step,))
            assert parse_proof(render_proof(d), luk3, LogicId.MV_S5, hyps) == d

    def test_random_formulas(self, luk3_neg):
        rng = random.Random(21)
        for _ in range(300):
            f = rand_formula(rng, luk3_neg, ["p", "q", "r"], 4)
            assert parse_formula(render_formula(f), luk3_neg) == f

    def test_random_sequents(self, luk3_neg):
        rng = random.Random(22)
        for _ in range(200):
            s = rand_sequent(rng, luk3_neg, ["p", "q"])
            assert parse_sequent(render_sequent(s), luk3_neg) == s

    def test_random_models(self, luk3):
        rng = random.Random(23)
        for _ in range(200):
            m = random_model(rng, ["p", "q"], 3, 5)
            assert parse_model(render_model(m), luk3) == m

    def test_rendering_is_canonical(self, luk3):
        a = Sequent([LabelledFormula(q, 2), LabelledFormula(p, 1)], [])
        b = Sequent([LabelledFormula(p, 1), LabelledFormula(q, 2)], [])
        assert render_sequent(a) == render_sequent(b)


# ---------------------------------------------------------------------------
# Round-trip properties: parse(render(x)) == x over drawn values
# ---------------------------------------------------------------------------

SIG = make_signature(3, [lukasiewicz_implication(3), reversal_connective(3)])
_HEAD = "abpqxyzABX_"
NAMES = st.one_of(
    st.sampled_from(["Box", "Dia", "from", "conn", "domain", "worlds", "edge",
                     "val", "imp", "neg"]),
    st.builds(str.__add__, st.sampled_from(_HEAD),
              st.text(_HEAD + "019'", max_size=3)))
# a variable is no connective name, and `from` opens a proof step's premises
VARIABLES = NAMES.filter(
    lambda s: s not in RESERVED_NAMES | set(SIG.connectives) | {"from"})
CONNECTIVE_NAMES = NAMES.filter(lambda s: s not in RESERVED_NAMES)
LABELS = st.integers(1, SIG.n)
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)

formulas = st.recursive(
    VARIABLES.map(Var),
    lambda sub: st.one_of(
        sub.map(Box), sub.map(Diamond),
        sub.map(lambda a: Apply("neg", (a,))),
        st.tuples(sub, sub).map(lambda ab: Apply("imp", ab))),
    max_leaves=6)
labelled = st.builds(LabelledFormula, formulas, LABELS)
sequents = st.builds(Sequent, st.lists(labelled, max_size=3),
                     st.lists(labelled, max_size=3))
justifications = st.one_of(
    st.builds(Hypothesis, st.integers(0, 12)),
    st.sampled_from([AxiomIdentity(), RuleBox(), RuleDiamond()]),
    st.builds(AxiomTable, st.sampled_from(sorted(SIG.connectives)),
              st.lists(LABELS, max_size=2)),
    st.builds(LeftShift, st.integers(0, 12)),
    st.builds(RightShift, st.integers(0, 12), st.integers(0, 12)),
    st.builds(LeftWeaken, labelled),
    st.builds(RightWeaken, labelled),
    st.builds(Cut, labelled),
    st.builds(Resolution, formulas, st.integers(0, 12), st.integers(0, 12)),
    st.builds(MultiShift, formulas, st.frozensets(LABELS)),
    st.lists(st.tuples(formulas, st.frozensets(LABELS)), min_size=1,
             max_size=3).map(lambda groups: SuperMultiShift(*zip(*groups))),
    st.builds(ExtensionAxiom, st.sampled_from(sorted(SCHEME_FRAMES)), formulas,
              st.integers(0, 12)))


@st.composite
def models(draw):
    world_count = draw(st.integers(1, 5))
    worlds = st.integers(0, world_count - 1)
    edges = draw(st.sets(st.tuples(worlds, worlds), max_size=10))
    vals = draw(st.dictionaries(
        st.tuples(worlds, NAMES.filter(lambda s: s not in RESERVED_NAMES)),
        LABELS, max_size=8))
    return KripkeModel(world_count, edges, vals)


@st.composite
def signatures(draw):
    n = draw(st.integers(2, 4))
    connectives = []
    for name in draw(st.lists(CONNECTIVE_NAMES, unique=True, max_size=3)):
        arity = draw(st.integers(0, 2))
        connectives.append(Connective(name, arity, {
            entry: draw(st.integers(1, n)) for entry in all_entries(n, arity)}))
    return make_signature(n, connectives)


@st.composite
def derivations(draw):
    steps = []
    for i in range(draw(st.integers(0, 4))):
        premises = draw(st.lists(st.integers(0, i - 1), max_size=2)) if i else []
        steps.append(Step(draw(sequents), draw(justifications), premises))
    return Derivation(draw(st.sampled_from(list(LogicId))),
                      tuple(draw(st.lists(sequents, max_size=2))), tuple(steps))


class TestRoundTripProperties:
    @PROPERTY
    @given(formulas)
    def test_formulas(self, f):
        assert parse_formula(render_formula(f), SIG) == f

    @PROPERTY
    @given(sequents)
    def test_sequents(self, s):
        assert parse_sequent(render_sequent(s), SIG) == s

    @PROPERTY
    @given(st.lists(sequents, max_size=4).map(tuple))
    def test_sequent_files(self, batch):
        assert parse_sequents(render_sequents(batch), SIG) == batch

    @PROPERTY
    @given(models())
    def test_models(self, m):
        assert parse_model(render_model(m), SIG) == m

    @PROPERTY
    @given(signatures())
    def test_signatures(self, sig):
        assert parse_signature(render_signature(sig)) == sig

    @PROPERTY
    @given(derivations())
    def test_proof_scripts(self, d):
        assert parse_proof(render_proof(d), SIG, d.logic, d.hypotheses) == d

    def test_connective_named_conn(self):
        sig = make_signature(2, [Connective("conn", 1, {(1,): 2, (2,): 1})])
        assert parse_signature(render_signature(sig)) == sig


class TestErrorSpans:
    # (text, parser, line, column, offset, message)
    CASES = [
        ("domain 1\n", "signature", 1, 8, 7,
         "domain needs at least 2 values, got 1"),
        ("conn f 1\n", "signature", 1, 1, 0,
         "signature must start with a domain declaration"),
        ("domain 2\nconn Box 1\n", "signature", 2, 6, 14,
         "connective name 'Box' is reserved"),
        ("(p, 4) ->", "sequent", 1, 5, 4, "label 4 out of 1..3"),
        ("(p, 0) ->", "sequent", 1, 5, 4, "label 0 out of 1..3"),
        ("(p 1) ->", "sequent", 1, 4, 3, "expected ',', found '1'"),
        ("p ->", "sequent", 1, 1, 0, "expected '->', found 'p'"),
        ("imp(p q)", "formula", 1, 7, 6, "expected ')', found 'q'"),
        ("Box", "formula", 1, 4, 3, "expected a formula, found ''"),
        ("@", "formula", 1, 1, 0, "unexpected character '@'"),
        ("worlds 2\nedge 2 0\n", "model", 2, 6, 14,
         "edge source references undeclared world 2 (have 0..1)"),
        ("edge 0 1\n", "model", 1, 1, 0,
         "model must start with a worlds declaration"),
        ("worlds 1\nval 0 Box 1\n", "model", 2, 7, 15,
         "variable name 'Box' is reserved"),
        ("1: (p, 1) -> ; cut\n", "proof", 1, 19, 18, "expected '(', found '\\n'"),
        ("1: (p, 1) -> (p, 1) ax-id\n", "proof", 1, 21, 20,
         "expected ';', found 'ax'"),
        ("0: -> ; mshift p {4}\n", "proof", 1, 19, 18, "label 4 out of 1..3"),
        # a bad character on a later line wins over the statements before it
        ("worlds 2\nedge 0 1\nval 1 p 2 @\n", "model", 3, 11, 28,
         "unexpected character '@'"),
        # ... and over an error on a line before it
        ("worlds 2\nedge 5 0\nval 1 p 2 @\n", "model", 3, 11, 28,
         "unexpected character '@'"),
        # end of input after a trailing comment
        ("(p, 1) ->\n-> (q, 2) # trailing comment\n(q, 3)  # no arrow",
         "sequents", 3, 19, 57, "expected '->', found end of input"),
        # \r is whitespace: columns count it, lines do not
        ("worlds 2\r\nedge 0 1\r\nval 1 p 4\r\n", "model", 3, 9, 28,
         "label 4 out of 1..3"),
        # a tab is one column
        ("domain 2\nconn f 1\nf 1 = 2\n\tf\t2 =\t7\n", "signature", 4, 8, 33,
         "label 7 out of 1..2"),
    ]

    def test_spans_inside_input(self, luk3):
        parsers = {"signature": parse_signature,
                   "sequent": partial(parse_sequent, sig=luk3),
                   "sequents": partial(parse_sequents, sig=luk3),
                   "formula": partial(parse_formula, sig=luk3),
                   "model": partial(parse_model, sig=luk3),
                   "proof": partial(parse_proof, sig=luk3)}
        for text, kind, line, column, offset, message in self.CASES:
            with pytest.raises(ParseError) as info:
                parsers[kind](text)
            assert info.value.span == SourceSpan(line, column, offset), text
            assert info.value.message == message, text
            assert str(info.value) == f"line {line}, column {column}: {message}"

    def test_error_message_carries_position(self, luk3):
        with pytest.raises(ParseError) as info:
            parse_sequent("(p, 9) ->", luk3)
        assert "line 1" in str(info.value)
        assert "column" in str(info.value)

    # Python reads at most 4,300 digits into an int; every integer token
    # is read through one reader that turns the excess into a ParseError.
    # parse_formula and parse_formulas read no integers.
    BIG = "9" * 5000
    LONG_INTEGERS = [
        ("domain", "domain " + BIG + "\n", "signature", 1, 8),
        ("arity", "domain 2\nconn f " + BIG + "\n", "signature", 2, 8),
        ("label", "(p, " + BIG + ") ->", "sequent", 1, 5),
        ("label", "-> (p, 1)\n(p, " + BIG + ") ->\n", "sequents", 2, 5),
        ("worlds", "worlds " + BIG + "\n", "model", 1, 8),
        ("label", "worlds 1\nval 0 p " + BIG + "\n", "model", 2, 9),
        ("step", BIG + ": -> (p, 1) ; ax-id\n", "proof", 1, 1),
        ("table-entry", "1: -> (p, 1) ; ax-table imp " + BIG + "\n",
         "proof", 1, 29),
        ("premise", "1: -> (p, 1) ; ax-id\n2: -> (p, 1) ; cut (p, 1) from 1, "
         + BIG + "\n", "proof", 2, 35),
        ("rule-label", "1: -> (p, 1) ; lshift " + BIG + "\n", "proof", 1, 23),
    ]

    @pytest.mark.parametrize("text, kind, line, column",
                             [case[1:] for case in LONG_INTEGERS],
                             ids=[f"{case[2]}-{case[0]}" for case in LONG_INTEGERS])
    def test_integer_past_the_digit_limit(self, luk3, text, kind, line, column):
        parsers = {"signature": parse_signature,
                   "sequent": partial(parse_sequent, sig=luk3),
                   "sequents": partial(parse_sequents, sig=luk3),
                   "model": partial(parse_model, sig=luk3),
                   "proof": partial(parse_proof, sig=luk3)}
        with pytest.raises(ParseError) as info:
            parsers[kind](text)
        assert (info.value.span.line, info.value.span.column) == (line, column)
        assert info.value.message == "integer of 5000 digits is too long"

    # An error quotes at most 32 characters of a token, then its length.
    LONG_TOKENS = [
        ("formula-integer", "9" * 5000, "formula"),
        ("formula-trailing", "p " + "x" * 5000, "formula"),
        ("signature-row", "domain 2\n" + "f" * 5000 + " 1 = 2\n", "signature"),
        ("model-keyword", "worlds 1\n" + "x" * 5000 + "\n", "model"),
        ("model-world", "worlds 1\nedge " + "x" * 5000 + "\n", "model"),
        ("proof-rule", "1: -> (p, 1) ; " + "r" * 5000 + "\n", "proof"),
    ]

    @pytest.mark.parametrize("text, kind", [case[1:] for case in LONG_TOKENS],
                             ids=[case[0] for case in LONG_TOKENS])
    def test_long_tokens_are_cut_in_messages(self, luk3, text, kind):
        parsers = {"signature": parse_signature,
                   "formula": partial(parse_formula, sig=luk3),
                   "model": partial(parse_model, sig=luk3),
                   "proof": partial(parse_proof, sig=luk3)}
        with pytest.raises(ParseError) as info:
            parsers[kind](text)
        assert len(str(info.value)) < 200
        assert "... (5000 characters)" in info.value.message

    def test_random_text_parses_or_raises_parse_error(self, luk3_neg):
        rng = random.Random(41)
        parsers = [parse_signature] + [
            partial(parse, sig=luk3_neg)
            for parse in (parse_formula, parse_formulas, parse_sequent,
                          parse_sequents, parse_model, parse_proof)]
        outcomes = Counter()
        for _ in range(2000):
            text = _fuzz_text(rng)
            for parse in parsers:
                try:
                    parse(text)
                    outcomes["value"] += 1
                except ParseError:
                    outcomes["error"] += 1
        assert outcomes["value"] > 500 and outcomes["error"] > 5000


FUZZ_PIECES = ["(", ")", ",", ";", ":", "=", "-", "{", "}", "->", "#", "\t",
               "\r", "\n", "\n", " ", " ", "Box", "Dia", "worlds", "val", "from",
               "ext-21", "mshift", "@", "p", "imp", "domain", "conn", "edge"]


def _fuzz_text(rng: random.Random) -> str:
    pieces: list[str] = []
    for _ in range(rng.randint(0, 25)):
        piece = (str(rng.randint(0, 12)) if rng.random() < 0.25
                 else rng.choice(FUZZ_PIECES))
        if piece[0].isdigit() and pieces and pieces[-1][-1].isdigit():
            # numbers stay small: a model allocates per declared world
            pieces.append(" ")
        pieces.append(piece)
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Model files: the line reader against the whole-text token reader
# (helpers.oracle_parse_model)
# ---------------------------------------------------------------------------


def _outcome(parse, text):
    """The parsed value, or the ParseError's message, span and expected."""
    try:
        return parse(text)
    except ParseError as error:
        return error.message, error.span, error.expected


def _token_reader_alone(text, sig):
    return _outcome(partial(oracle_parse_model, sig=sig), text)


@pytest.fixture
def tokenized(monkeypatch):
    """The [start, end) of each parser.tokenize call, in order."""
    calls = []
    real_tokenize = parser.tokenize

    def recording(text, start=0, end=None):
        calls.append((start, len(text) if end is None else end))
        return real_tokenize(text, start, end)

    monkeypatch.setattr(parser, "tokenize", recording)
    return calls


#: Pieces a model text is mutated with: bad characters, a comment, in-line
#: whitespace the token grammar knows (\r, \x1c, \u2028), an Arabic-Indic
#: and a superscript digit, a world glued to a name, statements and
#: integers out of range or past the int() digit limit.
MODEL_MUTATIONS = ["@", "#", "\r", "\x1c", "\u2028", "\u0663", "\u00b2",
                   "0p", ";", "9" * 5000, "0" * 5000 + "1", " ", "\n", "\n\n",
                   "# note\n", "val", "edge", "worlds 2", "Box", "q'", "0", "00",
                   "7", "100001", "-"]


def _mutated_model_text(rng: random.Random) -> str:
    world_count = rng.randint(1, 5)

    def number(low, high):
        # now and then one past either end, or with a leading zero
        value = (rng.randint(low - 1, high + 1) if rng.random() < 0.05
                 else rng.randint(low, high))
        return ("0" if rng.random() < 0.05 else "") + str(value)

    def statement(*fields):
        return "".join(field + rng.choice(" " * 20 + "\t\r\x1c\u2028")
                       for field in fields)

    lines = [statement("worlds", str(world_count))]
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.5:
            lines.append(statement("edge", number(0, world_count - 1),
                                   number(0, world_count - 1)))
        else:  # (u, p) repeats now and then
            lines.append(statement("val", number(0, world_count - 1),
                                   rng.choice("pqrs"), number(1, 3)))
    text = "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(MODEL_MUTATIONS) + text[at:]
    if rng.random() < 0.2:
        text = text.replace("\n", "\r\n")
    return text


class TestModelLineReader:
    """parse_model reads well-formed lines from their fields and
    tokenizes any other line alone; nothing it returns or raises may
    differ from the whole-text token reader."""

    TEXTS = {
        "crlf": "worlds 2\r\nedge 0 1\r\nval 1 p 3\r\n",
        "comments": "# a comment\n\n   # another\nworlds 2\n# mid\n"
                    "edge 1 0 # tail\n",
        "world-glued-to-name": "worlds 2\nval 0p 3\n",
        "arabic-indic-digits": "worlds 2\nval \u0661 p \u0663\n",
        "superscript-digit": "worlds 2\nval 1 p \u00b2\n",
        "duplicate-valuation": "worlds 2\nval 1 p 2\nval 1 p 3\n",
        "world-out-of-range": "worlds 2\nedge 0 2\n",
        "label-above": "worlds 2\nval 0 p 4\n",
        "label-zero": "worlds 2\nval 0 p 0\n",
        "reserved-name": "worlds 2\nval 0 Box 1\n",
        "odd-names": "worlds 2\nval 0 p' 2\nval 1 _x9 3\n",
        "long-world": "worlds 2\nedge 0 " + "9" * 5000 + "\n",
        "long-zero-padded-world": "worlds 2\nedge 0 " + "0" * 5000 + "1\n",
        "long-zero-padded-label": "worlds 2\nval 0 p " + "0" * 5000 + "1\n",
        "long-zero-padded-count": "worlds " + "0" * 5000 + "1\n",
        "zero-padded": "worlds 2\nedge 0 0001\nval 01 p 003\n",
        "no-trailing-newline": "worlds 2\nedge 0 1",
        "second-header": "worlds 2\nworlds 2\n",
        "count-above-limit": "worlds 100001\n",
        "count-zero": "worlds 0\n",
        "empty": "",
        "blank-and-comment-only": "\n\n# only comments\n",
        "extra-field": "worlds 2\nedge 0 1 1\n",
        "missing-field": "worlds 2\nval 0 p\n",
        "vertical-tab": "worlds 2\x0bedge 0 1\n",
        "in-line-separators": "worlds 2\nedge\u20280\x1c1\n",
        "bad-character-last": "worlds 2\nedge 0 1\nval 1 p 2 @\n",
        "bad-character-after-error": "worlds 2\nedge 5 0\nval 1 p 2 @\n",
        "glued-then-error-then-bad-character":
            "worlds 2\nval 0p 3\nedge 5 0\nval 1 p 2 @\n",
        "comment-glued-to-field": "worlds 2\nedge 0 1#x\nval 1 p#x 2\n",
    }

    @pytest.mark.parametrize("text", TEXTS.values(), ids=list(TEXTS))
    def test_odd_texts(self, luk3, text):
        assert _outcome(partial(parse_model, sig=luk3), text) == \
            _token_reader_alone(text, luk3)

    @pytest.mark.parametrize("n, labels", [
        # frame-check parses with n = 2^31: labels of up to 10 digits
        (2 ** 31, ["2147483648", "2147483647", "02147483647", "1" + "0" * 10]),
        # more digits than int() reads from a string
        (10 ** 5000, ["5", "9" * 4300, "9" * 4301]),
    ], ids=["2^31", "10^5000"])
    def test_labels_of_a_wide_domain(self, n, labels):
        sig = make_signature(n)
        for label in labels:
            text = f"worlds 1\nval 0 p {label}\n"
            assert _outcome(partial(parse_model, sig=sig), text) == \
                _token_reader_alone(text, sig)

    def test_fuzzed_texts(self, luk3, tokenized):
        rng = random.Random(17)
        # (a value or an error, where the first tokenized line is)
        seen = Counter()
        for _ in range(1500):
            text = _fuzz_text(rng) if rng.random() < 0.5 else _mutated_model_text(rng)
            # the glued copy reaches the tokenizer with a well-formed line
            for variant in dict.fromkeys([text, _glued_model(text)]):
                tokenized.clear()
                ours = _outcome(partial(parse_model, sig=luk3), variant)
                assert ours == _token_reader_alone(variant, luk3), repr(variant)
                seen[isinstance(ours, KripkeModel),
                     _first_tokenized(variant, tokenized)] += 1
        assert seen[True, "nowhere"] > 100 and seen[True, "later"] > 20
        assert seen[False, "start"] > 500 and seen[False, "later"] > 100

    def test_well_formed_models_skip_the_tokenizer(self, luk3, monkeypatch):
        def refuse(text, start=0):
            raise AssertionError("a well-formed model reached the tokenizer")

        monkeypatch.setattr(parser, "tokenize", refuse)
        rng = random.Random(5)
        for frame_class in FrameClass:
            for _ in range(20):
                model = random_model(rng, ["p", "q'", "r_2"], 3, 6, frame_class)
                text = render_model(model)
                assert parse_model(text, luk3) == model
                # comments, blank lines and \r\n endings are well-formed too
                text = "# a model\n\n" + text.replace("\n", " # note\r\n")
                assert parse_model(text, luk3) == model

    def test_only_the_odd_line_is_tokenized(self, luk3, tokenized):
        # `val 0z 3` is world 0, variable z, label 3 to the token reader
        model = KripkeModel(4, {(0, 1), (1, 2), (3, 3)},
                            {(0, "p"): 2, (2, "q"): 3})
        lines = render_model(model).splitlines(keepends=True)
        text = "".join(lines[:3] + ["val 0z 3\n"] + lines[3:])
        expected = KripkeModel(4, model.edges, {**dict(model.vals), (0, "z"): 3})
        assert parse_model(text, luk3) == expected
        start = len("".join(lines[:3]))
        assert tokenized == [(start, start + len("val 0z 3\n"))]


def _first_tokenized(text, tokenized):
    """Where the first line parser.tokenize read lies: "nowhere" when it
    read none and the text has a statement, else "later" when a
    statement line comes before it, else "start"."""
    end = tokenized[0][0] if tokenized else len(text)
    if any(line.partition("#")[0].split() for line in text[:end].split("\n")):
        return "later" if tokenized else "nowhere"
    return "start"


def _glued_model(text):
    """`text` with each valuation's world glued to its variable, as in
    `val 0p 3`: the same words to the token reader."""
    return re.sub(r"(val[^\S\n]+\d+)[^\S\n]+(?=[A-Za-z_])", r"\1", text)


def _glued_signature(text):
    """`text` with every `=` glued to its neighbours, as in `f 1=2`: the
    same words to the token reader."""
    return re.sub(r"[^\S\n]*=[^\S\n]*", "=", text)


# ---------------------------------------------------------------------------
# Signature files: the line reader against the whole-text token reader
# (helpers.oracle_parse_signature)
# ---------------------------------------------------------------------------


def _signature_token_reader_alone(text):
    return _outcome(oracle_parse_signature, text)


#: Pieces a signature text is mutated with, as MODEL_MUTATIONS, plus a
#: second header, `conn` lines, a reserved name, `=`, a glued row and a
#: byte-order mark.
SIGNATURE_MUTATIONS = ["@", "#", "\r", "\x1c", "\u2028", "\u0663", "\xb2",
                       "=", "1=2", "0", "01", "3", "9" * 5000, "0" * 5000 + "1",
                       " ", "\n", "\n\n", "# note\n", "domain 2\n", "conn",
                       "conn conn 1\n", "conn g 0\n", "Box", "f", "f'", "-",
                       "\ufeff"]


def _mutated_signature_text(rng: random.Random) -> str:
    n = rng.randint(2, 3)

    def number(low, high):
        # now and then one past either end, or with a leading zero
        value = (rng.randint(low - 1, high + 1) if rng.random() < 0.05
                 else rng.randint(low, high))
        return ("0" if rng.random() < 0.05 else "") + str(value)

    def statement(*fields):
        return "".join(field + rng.choice(" " * 20 + "\t\r\x1c\u2028")
                       for field in fields)

    lines = [statement("domain", str(n))]
    for name in rng.sample(["f", "g", "conn", "h'"], rng.randint(0, 3)):
        arity = rng.randint(0, 2)
        lines.append(statement("conn", name, str(arity)))
        entries = list(all_entries(n, arity))
        if rng.random() < 0.05:  # a row missing or repeated
            entries.pop(rng.randrange(len(entries)))
        if rng.random() < 0.05:
            entries.append(rng.choice(entries or [(1,) * arity]))
        rng.shuffle(entries)
        for entry in entries:
            lines.append(statement(name, *(number(1, n) if rng.random() < 0.02
                                           else str(k) for k in entry),
                                   "=", number(1, n)))
    text = "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(SIGNATURE_MUTATIONS) + text[at:]
    if rng.random() < 0.2:
        text = text.replace("\n", "\r\n")
    return text


class TestSignatureLineReader:
    """parse_signature reads well-formed lines from their fields and
    tokenizes any other line alone; nothing it returns or raises may
    differ from the whole-text token reader."""

    TEXTS = {
        "crlf": LUKASIEWICZ_TEXT.replace("\n", "\r\n"),
        "comments": "# a signature\n\n  # another\ndomain 2 # two\n# mid\n"
                    "conn f 1 # unary\nf 1 = 2\n  f 2 = 1 # tail\n",
        "comment-glued-to-fields": "domain 2#x\nconn f 1#x\nf 1 = 2#x\nf 2 =#x\n1\n",
        "comment-glued-to-row": "domain 2\nconn f 1\nf 1 = 2#x\nf 2 = 1#x\n",
        "tab-separated": "domain\t2\nconn\tf\t1\nf\t1\t=\t2\nf\t2\t=\t1\n",
        "in-line-separators": "domain\x1c2\nconn\u2028f 1\nf\x1c1\u2028=\t2\n"
                              "f\xa02 = 1\n",
        "vertical-tab": "domain 2\x0bconn f 0\nf = 1\n",
        "arabic-indic-digits": "domain \u0663\nconn c 1\nc \u0661 = 3\n"
                               "c 2 = \u0662\nc 3 = 1\n",
        "superscript-digit": "domain 2\nconn c 0\nc = \xb2\n",
        "zero-padded-labels": "domain 2\nconn f 1\nf 01 = 2\nf 2 = 001\n",
        "zero-padded-domain-and-arity": "domain 02\nconn f 01\nf 1 = 2\nf 2 = 1\n",
        "glued-equals": "domain 2\nconn f 2\nf 1 1=2\nf 1 2 = 1\n"
                        "f 2 1 = 1\nf 2 2 = 1\n",
        "glued-equals-after": "domain 2\nconn f 0\nf =2\n",
        "nullary-rows": "domain 2\nconn c 0\nc = 2\nconn d 0\nd  = 1\n",
        "connective-named-conn": "domain 2\nconn conn 1\nconn 1 = 2\nconn 2 = 1\n"
                                 "conn f 0\nf = 2\n",
        "nullary-connective-named-conn": "domain 2\nconn conn 0\nconn = 2\n",
        "conn-row-glued-name": "domain 2\nconn conn 1\nconn f=2\n",
        "conn-alone": "domain 2\nconn conn 0\nconn\n",
        "connective-named-domain": "domain 2\nconn domain 0\ndomain = 1\n",
        "primed-names": "domain 2\nconn f' 0\nf' = 1\nconn _g9 0\n_g9 = 2\n",
        "reserved-name": "domain 2\nconn Box 0\nBox = 1\n",
        "reserved-dia": "domain 2\nconn Dia 0\n",
        "duplicate-name": "domain 2\nconn f 0\nf = 1\nconn f 0\nf = 1\n",
        "duplicate-row": "domain 2\nconn f 1\nf 1 = 2\nf 1 = 2\nf 2 = 1\n",
        "undeclared-row": "domain 2\ng = 1\n",
        "row-before-declaration": "domain 2\nf = 1\nconn f 0\n",
        "missing-row": "domain 2\nconn f 1\nf 1 = 2\n",
        "rows-cannot-fit": "domain 2\nconn f 2\n",
        "huge-arity": "domain 2\nconn f 99999999999999999999\n",
        "arity-past-int-digits": "domain 2\nconn f " + "9" * 5000 + "\n",
        "label-zero": "domain 2\nconn c 0\nc = 0\n",
        "label-above": "domain 2\nconn f 1\nf 1 = 3\nf 2 = 1\n",
        # as many rows as the table needs, but one of them out of range
        "argument-label-above": "domain 2\nconn f 1\nf 1 = 2\nf 3 = 1\n",
        "argument-label-zero": "domain 2\nconn f 1\nf 0 = 2\nf 2 = 1\n",
        "name-not-an-identifier": "domain 2\nconn 1x 0\n1x = 1\n",
        "name-with-bad-character": "domain 2\nconn f@ 0\nf@ = 1\n",
        "too-few-labels": "domain 2\nconn f 2\nf 1 = 2\nf 2 = 1\n\n",
        "too-many-labels": "domain 2\nconn f 0\nf 1 = 2\n",
        "extra-field-in-declaration": "domain 2\nconn f 0 0\nf = 1\n",
        "declaration-without-arity": "domain 2\nconn f\n",
        "second-header": "domain 2\ndomain 2\n",
        "header-extra-field": "domain 2 3\n",
        "domain-one": "domain 1\n",
        "domain-zero": "domain 0\n",
        "domain-word": "domain two\n",
        "no-header": "conn f 0\nf = 1\n",
        "empty": "",
        "blank-and-comment-only": "\n\n# only comments\n",
        "no-trailing-newline": "domain 2\nconn f 0\nf = 1",
        "byte-order-mark": "\ufeffdomain 2\n",
        "bad-character-last": "domain 2\nconn f 0\nf = 1 @\n",
        "bad-character-after-error": "domain 2\ng = 1\nconn f 0 @\n",
        "glued-then-error-then-bad-character":
            "domain 2\nconn f 1\nf 1=2\ng = 1\nconn h 0 @\n",
        "minus-label": "domain 2\nconn f 0\nf = -1\n",
    }

    @pytest.mark.parametrize("text", TEXTS.values(), ids=list(TEXTS))
    def test_odd_texts(self, text):
        assert _outcome(parse_signature, text) == \
            _signature_token_reader_alone(text)

    @pytest.mark.parametrize("domain, labels", [
        # the label range of frame-check's permissive signature and beyond
        ("2147483648", ["2147483648", "2147483647", "02147483647", "1" + "0" * 10]),
        # as many digits as int() reads from a string, and one more
        ("9" * 4300, ["5", "9" * 4300, "9" * 4301, "0" + "9" * 4300]),
        ("1" + "0" * 4300, ["5"]),
    ], ids=["2^31", "4300-digits", "4301-digits"])
    def test_labels_of_a_wide_domain(self, domain, labels):
        for label in labels:
            text = f"domain {domain}\nconn c 0\nc = {label}\nconn d 1\n"
            assert _outcome(parse_signature, text) == \
                _signature_token_reader_alone(text)
            text = f"domain {domain}\nconn c 0\nc = {label}\n"
            assert _outcome(parse_signature, text) == \
                _signature_token_reader_alone(text)

    def test_fuzzed_texts(self, tokenized):
        rng = random.Random(23)
        # (a value or an error, whether every line was read from its fields)
        seen = Counter()
        for _ in range(2000):
            text = (_fuzz_text(rng) if rng.random() < 0.25
                    else _mutated_signature_text(rng))
            # the glued copy reaches the tokenizer with a well-formed line
            for variant in dict.fromkeys([text, _glued_signature(text)]):
                tokenized.clear()
                ours = _outcome(parse_signature, variant)
                assert ours == _signature_token_reader_alone(variant), repr(variant)
                seen[not isinstance(ours, tuple), not tokenized] += 1
                if isinstance(ours, tuple) and not tokenized:
                    # only errors of the whole text skip the tokenizer
                    assert ("missing table entry" in ours[0]
                            or ours[0] == "expected 'domain', found end of input")
        assert seen[True, True] > 400 and seen[True, False] > 50
        assert seen[False, False] + seen[False, True] > 1000

    def test_well_formed_signatures_skip_the_tokenizer(self, monkeypatch):
        def refuse(text, start=0):
            raise AssertionError("a well-formed signature reached the tokenizer")

        monkeypatch.setattr(parser, "tokenize", refuse)
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(2, 4)
            sig = make_signature(n, [
                Connective(name, arity, {entry: rng.randint(1, n)
                                         for entry in all_entries(n, arity)})
                for name, arity in zip(rng.sample(["f", "conn", "g'", "domain"],
                                                  rng.randint(0, 3)),
                                       [rng.randint(0, 2) for _ in range(3)])])
            text = render_signature(sig)
            assert parse_signature(text) == sig
            # comments, blank lines and \r\n endings are well-formed too
            text = "# a signature\n\n" + text.replace("\n", " # note\r\n")
            assert parse_signature(text) == sig
            # declarations first, then the rows in any order, with a
            # nullary row's empty argument list leaving two spaces
            rows = [f"{name} {' '.join(map(str, entry))} = {out}"
                    for name, conn in sig.connectives.items()
                    for entry, out in conn.table.items()]
            rng.shuffle(rows)
            text = "\n".join([f"domain {n}", *(
                f"conn {name} {conn.arity}"
                for name, conn in sig.connectives.items()), *rows]) + "\n"
            assert parse_signature(text) == sig


# ---------------------------------------------------------------------------
# The word list against the token reader it replaced (helpers.oracle_*)
# ---------------------------------------------------------------------------

PROOF_DIR = Path(__file__).resolve().parents[1] / "bench" / "proofs"


def _either(parse, text):
    """Whether parse(text) raised, and the value, the ParseError's message,
    span and expected, or another exception's type and text."""
    try:
        return False, parse(text)
    except ParseError as error:
        return True, (error.message, error.span, error.expected)
    except Exception as error:  # compared with the oracle's, not hidden
        return True, (type(error), str(error))


def _mutated(rng: random.Random, text: str) -> str:
    """`text` with a few fuzz pieces put in, spans cut out or a tail cut off."""
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        at = rng.randint(0, len(text))
        pick = rng.random()
        if pick < 0.6:
            text = text[:at] + rng.choice(FUZZ_PIECES + MODEL_MUTATIONS) + text[at:]
        elif pick < 0.9:
            text = text[:at] + text[at + rng.randint(1, 4):]
        else:
            text = text[:at]
    return text


class TestWordReaderAgainstOracle:
    """Every reader built on the word list returns the token reader's
    value, or raises its message, span and expected."""

    def readers(self, sig):
        """(name, reader, oracle) for every format."""
        return [*((parse.__name__, partial(parse, sig=sig), partial(oracle, sig=sig))
                  for parse, oracle in ((parse_formula, oracle_parse_formula),
                                        (parse_formulas, oracle_parse_formulas),
                                        (parse_sequent, oracle_parse_sequent),
                                        (parse_sequents, oracle_parse_sequents),
                                        (parse_model, oracle_parse_model),
                                        (parse_proof, oracle_parse_proof))),
                ("parse_signature", parse_signature, oracle_parse_signature)]

    def check(self, sig, text, names=None) -> dict[str, bool]:
        """Whether each reader (or those named) raised on `text`."""
        raised = {}
        for name, reader, oracle in self.readers(sig):
            if names is None or name in names:
                expected = _either(oracle, text)
                assert _either(reader, text) == expected, (name, text)
                raised[name] = expected[0]
        return raised

    def test_fuzzed_texts(self, luk3_neg):
        rng = random.Random(61)
        raised = Counter()
        for _ in range(1500):
            raised.update(self.check(luk3_neg, _fuzz_text(rng)).values())
        assert raised[False] > 300 and raised[True] > 9000

    def test_mutated_models_and_signatures(self, luk3):
        rng = random.Random(62)
        names = {"parse_model", "parse_signature"}
        for _ in range(500):
            self.check(luk3, _mutated_model_text(rng), names)
            self.check(luk3, _mutated_signature_text(rng), names)

    def test_bench_proofs_and_their_mutations(self):
        sig = parse_signature((PROOF_DIR / "signature.sig").read_text())
        proofs = [path.read_text() for path in sorted(PROOF_DIR.glob("*.proof"))]
        sigmas = [path.read_text() for path in sorted(PROOF_DIR.glob("*.sigma"))]
        assert len(proofs) >= 10 and sigmas
        rng = random.Random(63)
        raised = Counter()
        for texts, reader in ((proofs, "parse_proof"), (sigmas, "parse_sequents")):
            for text in texts:
                assert not self.check(sig, text)[reader]
                for _ in range(40):
                    raised.update(self.check(sig, _mutated(rng, text)).values())
        assert raised[False] > 150 and raised[True] > 4000

    @PROPERTY
    @given(formulas, st.randoms(use_true_random=False))
    def test_rendered_formulas(self, f, rng):
        text = render_formula(f)
        assert parse_formula(text, SIG) is f
        self.check(SIG, _mutated(rng, text))

    @PROPERTY
    @given(st.lists(sequents, max_size=3), st.randoms(use_true_random=False))
    def test_rendered_sequents(self, seqs, rng):
        text = render_sequents(seqs)
        assert parse_sequents(text, SIG) == tuple(seqs)
        self.check(SIG, _mutated(rng, text))

    @PROPERTY
    @given(derivations(), st.randoms(use_true_random=False))
    def test_rendered_proofs(self, derivation, rng):
        self.check(SIG, _mutated(rng, render_proof(derivation)))

    @pytest.mark.parametrize("kind", ["box", "imp", "paren", "mixed", "dia-args"])
    def test_formulas_at_and_past_the_depth_limit(self, luk3, kind):
        for depth in (0, 1, MAX_FORMULA_DEPTH - 1, MAX_FORMULA_DEPTH,
                      MAX_FORMULA_DEPTH + 1, MAX_FORMULA_DEPTH + 5):
            text = nested_formula(kind, depth)
            for variant in (text, text[:-1], f"(Dia {text}, 2) ->",
                            f"(imp(p, {text}), 2) -> (q, 1)"):
                self.check(luk3, variant)

    def test_deepest_formula_needs_no_recursion(self, luk3):
        # a recursive reader needs a frame or more per level, 100 here
        texts = [nested_formula(kind, MAX_FORMULA_DEPTH)
                 for kind in ("box", "imp", "paren", "mixed", "dia-args")]
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            parsed = [parse_formula(text, luk3) for text in texts]
        finally:
            sys.setrecursionlimit(limit)
        for text, formula in zip(texts, parsed):
            assert oracle_parse_formula(text, luk3) is formula
