import random

import pytest

from helpers import rand_formula, rand_sequent
from mvmodal.core import (
    Apply,
    Box,
    Diamond,
    LabelledFormula,
    Sequent,
    Var,
    lukasiewicz_signature,
)
from mvmodal.parser import (
    ParseError,
    parse_formula,
    parse_model,
    parse_proof,
    parse_sequent,
    parse_sequents,
    parse_signature,
    render_formula,
    render_model,
    render_proof,
    render_sequent,
    render_signature,
)
from mvmodal.proofs import LogicId, check_derivation
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


class TestErrorSpans:
    CASES = [
        ("domain 1\n", parse_signature, None),
        ("conn f 1\n", parse_signature, None),
        ("domain 2\nconn Box 1\n", parse_signature, None),
        ("(p, 4) ->", None, "sequent"),
        ("(p, 0) ->", None, "sequent"),
        ("(p 1) ->", None, "sequent"),
        ("p ->", None, "sequent"),
        ("imp(p q)", None, "formula"),
        ("Box", None, "formula"),
        ("@", None, "formula"),
        ("worlds 2\nedge 2 0\n", None, "model"),
        ("edge 0 1\n", None, "model"),
        ("worlds 1\nval 0 Box 1\n", None, "model"),
        ("1: (p, 1) -> ; cut\n", None, "proof"),
        ("1: (p, 1) -> (p, 1) ax-id\n", None, "proof"),
        ("0: -> ; mshift p {4}\n", None, "proof"),
    ]

    def test_spans_inside_input(self, luk3):
        parsers = {
            "sequent": lambda t: parse_sequent(t, luk3),
            "formula": lambda t: parse_formula(t, luk3),
            "model": lambda t: parse_model(t, luk3),
            "proof": lambda t: parse_proof(t, luk3),
        }
        for text, direct, kind in self.CASES:
            parse = direct if direct else parsers[kind]
            with pytest.raises(ParseError) as info:
                parse(text)
            span = info.value.span
            assert 1 <= span.line <= text.count("\n") + 1
            assert span.column >= 1
            assert 0 <= span.offset <= len(text)

    def test_error_message_carries_position(self, luk3):
        with pytest.raises(ParseError) as info:
            parse_sequent("(p, 9) ->", luk3)
        assert "line 1" in str(info.value)
        assert "column" in str(info.value)
