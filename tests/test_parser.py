import random
import tracemalloc
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_formula, rand_sequent
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
from mvmodal.semantics import KripkeModel

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
