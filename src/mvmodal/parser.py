"""Text formats: signatures, formulas, sequents, models and proof scripts.

All formats are line-oriented UTF-8 with `#` comments.  Rendering is
canonical (sorted sets, sequential step numbers), and parsing a rendered
value gives the value back.

Formula grammar: a variable, `conn(arg, ...)`, `Box f`, `Dia f`, or a
parenthesized formula, nested at most MAX_FORMULA_DEPTH levels.  `Box`,
`Dia` are reserved; in proof scripts the word `from` introduces premise
references and cannot name a variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Union

from .core import (
    Apply,
    Box,
    Connective,
    Diamond,
    Formula,
    LabelledFormula,
    RESERVED_NAMES,
    Sequent,
    Signature,
    Var,
    all_entries,
    make_signature,
)
from .proofs import (
    AxiomIdentity,
    AxiomTable,
    Cut,
    Derivation,
    ExtensionAxiom,
    Hypothesis,
    Justification,
    LeftShift,
    LeftWeaken,
    LogicId,
    MultiShift,
    RULES,
    Resolution,
    RightShift,
    RightWeaken,
    RuleBox,
    RuleDiamond,
    SCHEME_FRAMES,
    Step,
    SuperMultiShift,
    rule_name,
)
from .semantics import KripkeModel


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    offset: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan,
                 expected: Optional[str] = None):
        super().__init__(f"line {span.line}, column {span.column}: {message}")
        self.message = message
        self.span = span
        self.expected = expected


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[^\S\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<arrow>->)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<punct>[(){},;:=\-])
""", re.VERBOSE)

_PUNCT_KINDS = {"(": "lparen", ")": "rparen", "{": "lbrace", "}": "rbrace",
                ",": "comma", ";": "semi", ":": "colon", "=": "equals",
                "-": "minus"}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(line, pos - line_start + 1, pos)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        span = SourceSpan(line, pos - line_start + 1, pos)
        kind = m.lastgroup
        value = m.group()
        pos = m.end()
        if kind == "newline":
            tokens.append(Token("newline", value, span))
            line += 1
            line_start = pos
            continue
        if kind in ("ws", "comment"):
            continue
        if kind == "punct":
            tokens.append(Token(_PUNCT_KINDS[value], value, span))
        else:
            tokens.append(Token(kind, value, span))
    tokens.append(Token("eof", "", SourceSpan(line, pos - line_start + 1, pos)))
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text!r}" if tok.text
                             else f"expected {what}, found end of input",
                             tok.span, expected=what)
        return self.advance()

    def expect_int(self, what: str) -> int:
        return int(self.expect("int", what).text)

    def skip_newlines(self) -> None:
        while self.accept("newline"):
            pass

    def end_statement(self) -> None:
        tok = self.peek()
        if tok.kind == "eof":
            return
        if tok.kind == "newline":
            self.advance()
            return
        raise ParseError(f"unexpected {tok.text!r} at end of statement", tok.span)


# ---------------------------------------------------------------------------
# Formulas and sequents
# ---------------------------------------------------------------------------

#: Deepest nesting of Box, Dia, connectives and parentheses in a formula.
#: Evaluation and the other recursive passes over a formula this deep stay
#: inside Python's default recursion limit in every subcommand.
MAX_FORMULA_DEPTH = 100


def _parse_formula(ts: TokenStream, sig: Signature, depth: int = 0) -> Formula:
    tok = ts.peek()
    if depth > MAX_FORMULA_DEPTH:
        raise ParseError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels",
                         tok.span)
    if tok.kind == "lparen":
        ts.advance()
        inner = _parse_formula(ts, sig, depth + 1)
        ts.expect("rparen", "')'")
        return inner
    if tok.kind != "ident":
        raise ParseError(f"expected a formula, found {tok.text!r}", tok.span,
                         expected="formula")
    ts.advance()
    if tok.text == "Box":
        return Box(_parse_formula(ts, sig, depth + 1))
    if tok.text == "Dia":
        return Diamond(_parse_formula(ts, sig, depth + 1))
    if ts.peek().kind == "lparen":
        ts.advance()
        args: list[Formula] = []
        if ts.peek().kind != "rparen":
            args.append(_parse_formula(ts, sig, depth + 1))
            while ts.accept("comma"):
                args.append(_parse_formula(ts, sig, depth + 1))
        ts.expect("rparen", "')'")
        conn = sig.connectives.get(tok.text)
        if conn is None:
            raise ParseError(f"unknown connective {tok.text!r}", tok.span)
        if len(args) != conn.arity:
            raise ParseError(
                f"connective {tok.text!r} expects {conn.arity} arguments, "
                f"got {len(args)}", tok.span)
        return Apply(tok.text, tuple(args))
    if tok.text in sig.connectives:
        raise ParseError(f"connective {tok.text!r} needs an argument list",
                         tok.span)
    return Var(tok.text)


def _parse_labelled(ts: TokenStream, sig: Signature) -> LabelledFormula:
    ts.expect("lparen", "'('")
    formula = _parse_formula(ts, sig)
    ts.expect("comma", "','")
    tok = ts.expect("int", "a label")
    label = int(tok.text)
    if not 1 <= label <= sig.n:
        raise ParseError(f"label {label} out of 1..{sig.n}", tok.span)
    ts.expect("rparen", "')'")
    return LabelledFormula(formula, label)


def _parse_sequent(ts: TokenStream, sig: Signature) -> Sequent:
    ante: list[LabelledFormula] = []
    if ts.peek().kind == "lparen":
        ante.append(_parse_labelled(ts, sig))
        while ts.accept("comma"):
            ante.append(_parse_labelled(ts, sig))
    ts.expect("arrow", "'->'")
    succ: list[LabelledFormula] = []
    if ts.peek().kind == "lparen":
        succ.append(_parse_labelled(ts, sig))
        while ts.accept("comma"):
            succ.append(_parse_labelled(ts, sig))
    return Sequent(ante, succ)


def _single(text: str, parse, sig: Signature):
    ts = TokenStream(tokenize(text))
    ts.skip_newlines()
    out = parse(ts, sig)
    ts.skip_newlines()
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing {tok.text!r}", tok.span)
    return out


def parse_formula(text: str, sig: Signature) -> Formula:
    return _single(text, _parse_formula, sig)


def parse_sequent(text: str, sig: Signature) -> Sequent:
    return _single(text, _parse_sequent, sig)


def parse_sequents(text: str, sig: Signature) -> tuple[Sequent, ...]:
    """One sequent per non-empty line."""
    ts = TokenStream(tokenize(text))
    out = []
    ts.skip_newlines()
    while ts.peek().kind != "eof":
        out.append(_parse_sequent(ts, sig))
        ts.end_statement()
        ts.skip_newlines()
    return tuple(out)


def render_formula(formula: Formula) -> str:
    # An explicit stack, not recursion: formulas built in code may nest
    # deeper than the interpreter's recursion limit.
    pieces: list[str] = []
    stack: list[Union[Formula, str]] = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, str):
            pieces.append(f)
        elif isinstance(f, Var):
            pieces.append(f.name)
        elif isinstance(f, Apply):
            pieces.append(f"{f.conn}(")
            stack.append(")")
            for i, a in enumerate(reversed(f.args)):
                if i:
                    stack.append(", ")
                stack.append(a)
        elif isinstance(f, Box):
            pieces.append("Box ")
            stack.append(f.sub)
        elif isinstance(f, Diamond):
            pieces.append("Dia ")
            stack.append(f.sub)
        else:
            raise TypeError(f"not a formula: {f!r}")
    return "".join(pieces)


def render_labelled(lf: LabelledFormula) -> str:
    return f"({render_formula(lf.formula)}, {lf.label})"


def render_sequent(sequent: Sequent) -> str:
    left = ", ".join(render_labelled(lf) for lf in sequent.antecedent)
    right = ", ".join(render_labelled(lf) for lf in sequent.succedent)
    if left and right:
        return f"{left} -> {right}"
    if left:
        return f"{left} ->"
    if right:
        return f"-> {right}"
    return "->"


def render_sequents(sequents: Iterable[Sequent]) -> str:
    return "".join(render_sequent(s) + "\n" for s in sequents)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


def parse_signature(text: str) -> Signature:
    ts = TokenStream(tokenize(text))
    ts.skip_newlines()
    tok = ts.expect("ident", "'domain'")
    if tok.text != "domain":
        raise ParseError("signature must start with a domain declaration",
                         tok.span, expected="domain")
    ntok = ts.expect("int", "the domain size")
    n = int(ntok.text)
    if n < 2:
        raise ParseError(f"domain needs at least 2 values, got {n}", ntok.span)
    ts.end_statement()

    declared: dict[str, tuple[int, Token]] = {}
    tables: dict[str, dict[tuple[int, ...], int]] = {}
    while True:
        ts.skip_newlines()
        tok = ts.peek()
        if tok.kind == "eof":
            break
        name_tok = ts.expect("ident", "'conn' or a table row")
        if name_tok.text == "conn":
            ctok = ts.expect("ident", "a connective name")
            if ctok.text in RESERVED_NAMES:
                raise ParseError(f"connective name {ctok.text!r} is reserved",
                                 ctok.span)
            if ctok.text in declared:
                raise ParseError(f"duplicate connective name {ctok.text!r}",
                                 ctok.span)
            arity = ts.expect_int("an arity")
            declared[ctok.text] = (arity, ctok)
            tables[ctok.text] = {}
            ts.end_statement()
            continue
        if name_tok.text not in declared:
            raise ParseError(f"table row for undeclared connective "
                             f"{name_tok.text!r}", name_tok.span)
        arity, _ = declared[name_tok.text]
        entry = []
        for _ in range(arity):
            ktok = ts.expect("int", "an argument label")
            k = int(ktok.text)
            if not 1 <= k <= n:
                raise ParseError(f"label {k} out of 1..{n}", ktok.span)
            entry.append(k)
        ts.expect("equals", "'='")
        otok = ts.expect("int", "the table value")
        out = int(otok.text)
        if not 1 <= out <= n:
            raise ParseError(f"label {out} out of 1..{n}", otok.span)
        key = tuple(entry)
        if key in tables[name_tok.text]:
            raise ParseError(f"duplicate table row for {name_tok.text!r}",
                             name_tok.span)
        tables[name_tok.text][key] = out
        ts.end_statement()

    connectives = []
    for name, (arity, ctok) in declared.items():
        table = tables[name]
        if len(table) != n ** arity:
            missing = next(e for e in all_entries(n, arity) if e not in table)
            raise ParseError(
                f"connective {name!r}: missing table entry for "
                f"{' '.join(map(str, missing)) or '()'}", ctok.span)
        connectives.append(Connective(name, arity, table))
    return make_signature(n, connectives)


def render_signature(sig: Signature) -> str:
    lines = [f"domain {sig.n}"]
    for name in sorted(sig.connectives):
        conn = sig.connectives[name]
        lines.append(f"conn {name} {conn.arity}")
        for entry in all_entries(sig.n, conn.arity):
            args = " ".join(str(k) for k in entry)
            args = args + " " if args else ""
            lines.append(f"{name} {args}= {conn.table[entry]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def parse_model(text: str, sig: Signature) -> KripkeModel:
    ts = TokenStream(tokenize(text))
    ts.skip_newlines()
    tok = ts.expect("ident", "'worlds'")
    if tok.text != "worlds":
        raise ParseError("model must start with a worlds declaration", tok.span,
                         expected="worlds")
    wtok = ts.expect("int", "the world count")
    world_count = int(wtok.text)
    if world_count < 1:
        raise ParseError("a model needs at least one world", wtok.span)
    ts.end_statement()

    def world_index(what: str) -> int:
        tok = ts.expect("int", what)
        u = int(tok.text)
        if not 0 <= u < world_count:
            raise ParseError(f"{what} references undeclared world {u} "
                             f"(have 0..{world_count - 1})", tok.span)
        return u

    edges = set()
    vals: dict[tuple[int, str], int] = {}
    while True:
        ts.skip_newlines()
        tok = ts.peek()
        if tok.kind == "eof":
            break
        key = ts.expect("ident", "'edge' or 'val'")
        if key.text == "edge":
            u = world_index("edge source")
            v = world_index("edge target")
            edges.add((u, v))
        elif key.text == "val":
            u = world_index("valuation world")
            vtok = ts.expect("ident", "a variable name")
            if vtok.text in RESERVED_NAMES:
                raise ParseError(f"variable name {vtok.text!r} is reserved",
                                 vtok.span)
            ktok = ts.expect("int", "a label")
            k = int(ktok.text)
            if not 1 <= k <= sig.n:
                raise ParseError(f"label {k} out of 1..{sig.n}", ktok.span)
            if (u, vtok.text) in vals:
                raise ParseError(f"duplicate valuation for {vtok.text!r} "
                                 f"at world {u}", vtok.span)
            vals[(u, vtok.text)] = k
        else:
            raise ParseError(f"expected 'edge' or 'val', found {key.text!r}",
                             key.span)
        ts.end_statement()
    return KripkeModel(world_count, edges, vals)


def render_model(model: KripkeModel) -> str:
    lines = [f"worlds {model.world_count}"]
    for u, v in sorted(model.edges):
        lines.append(f"edge {u} {v}")
    for (u, p), k in model.vals:
        lines.append(f"val {u} {p} {k}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Proof scripts
# ---------------------------------------------------------------------------

def _parse_rule_name(ts: TokenStream) -> tuple[str, SourceSpan]:
    tok = ts.expect("ident", "a rule name")
    parts = [tok.text]
    while ts.accept("minus"):
        part = ts.peek()
        if part.kind not in ("ident", "int"):
            raise ParseError("malformed rule name", part.span)
        ts.advance()
        parts.append(part.text)
    return "-".join(parts), tok.span


def _parse_label_set(ts: TokenStream, n: int) -> frozenset[int]:
    ts.expect("lbrace", "'{'")
    labels = set()
    while ts.peek().kind == "int":
        tok = ts.advance()
        k = int(tok.text)
        if not 1 <= k <= n:
            raise ParseError(f"label {k} out of 1..{n}", tok.span)
        labels.add(k)
    ts.expect("rbrace", "'}'")
    return frozenset(labels)


def _render_group(formula: Formula, labels: frozenset[int]) -> str:
    return f"{render_formula(formula)} {{{' '.join(map(str, sorted(labels)))}}}"


def _at_formula_start(ts: TokenStream) -> bool:
    tok = ts.peek()
    return (tok.kind == "lparen"
            or (tok.kind == "ident" and tok.text != "from"))


def _label(ts: TokenStream) -> int:
    return ts.expect_int("a label")


def _parse_hypothesis(ts: TokenStream, sig: Signature) -> Hypothesis:
    tok = ts.expect("int", "a hypothesis number")
    if int(tok.text) < 1:
        raise ParseError("hypothesis numbers start at 1", tok.span)
    return Hypothesis(int(tok.text) - 1)


def _parse_table_entry(ts: TokenStream, sig: Signature) -> AxiomTable:
    conn = ts.expect("ident", "a connective name").text
    entry = []
    while ts.peek().kind == "int":
        entry.append(int(ts.advance().text))
    return AxiomTable(conn, tuple(entry))


def _parse_groups(ts: TokenStream, sig: Signature) -> SuperMultiShift:
    formulas, label_sets = [], []
    while _at_formula_start(ts):
        formulas.append(_parse_formula(ts, sig))
        label_sets.append(_parse_label_set(ts, sig.n))
    if not formulas:
        raise ParseError("expected at least one formula group",
                         ts.peek().span, expected="formula")
    return SuperMultiShift(tuple(formulas), tuple(label_sets))


def _parse_extension(scheme: int, ts: TokenStream, sig: Signature) -> ExtensionAxiom:
    formula = _parse_formula(ts, sig)
    return ExtensionAxiom(scheme, formula, 1 if scheme == 20 else _label(ts))


#: Argument syntax per justification type: (parse, render).  Extension
#: axioms are parsed per scheme, under the names ext-N.
_ARGUMENTS: dict[type, tuple[Callable[..., Justification], Callable[..., str]]] = {
    Hypothesis: (_parse_hypothesis, lambda j: str(j.index + 1)),
    AxiomIdentity: (lambda ts, sig: AxiomIdentity(), lambda j: ""),
    AxiomTable: (_parse_table_entry, lambda j: " ".join([j.conn, *map(str, j.entry)])),
    RuleBox: (lambda ts, sig: RuleBox(), lambda j: ""),
    RuleDiamond: (lambda ts, sig: RuleDiamond(), lambda j: ""),
    LeftShift: (lambda ts, sig: LeftShift(_label(ts)), lambda j: str(j.label)),
    RightShift: (lambda ts, sig: RightShift(_label(ts), _label(ts)),
                 lambda j: f"{j.from_label} {j.to_label}"),
    LeftWeaken: (lambda ts, sig: LeftWeaken(_parse_labelled(ts, sig)),
                 lambda j: render_labelled(j.added)),
    RightWeaken: (lambda ts, sig: RightWeaken(_parse_labelled(ts, sig)),
                  lambda j: render_labelled(j.added)),
    Cut: (lambda ts, sig: Cut(_parse_labelled(ts, sig)),
          lambda j: render_labelled(j.cut)),
    Resolution: (lambda ts, sig: Resolution(_parse_formula(ts, sig),
                                            _label(ts), _label(ts)),
                 lambda j: f"{render_formula(j.formula)} {j.first_label} "
                           f"{j.second_label}"),
    MultiShift: (lambda ts, sig: MultiShift(_parse_formula(ts, sig),
                                            _parse_label_set(ts, sig.n)),
                 lambda j: _render_group(j.formula, j.labels)),
    SuperMultiShift: (_parse_groups,
                      lambda j: " ".join(map(_render_group, j.formulas, j.label_sets))),
    ExtensionAxiom: (_parse_extension, lambda j: render_formula(j.formula)
                     + ("" if j.scheme == 20 else f" {j.label}")),
}

_PARSERS = {RULES[typ].name: parse for typ, (parse, _) in _ARGUMENTS.items()
            if typ is not ExtensionAxiom}
_PARSERS.update((f"{RULES[ExtensionAxiom].name}-{scheme}",
                 partial(_parse_extension, scheme)) for scheme in SCHEME_FRAMES)


def _parse_justification(ts: TokenStream, sig: Signature) -> Justification:
    name, span = _parse_rule_name(ts)
    parse = _PARSERS.get(name)
    if parse is None:
        raise ParseError(f"unknown rule name {name!r}", span)
    return parse(ts, sig)


def parse_proof(text: str, sig: Signature, logic: LogicId = LogicId.MV_K,
                hypotheses: Iterable[Sequent] = ()) -> Derivation:
    """Parse a proof script; the logic and hypotheses come from the caller."""
    ts = TokenStream(tokenize(text))
    steps: list[Step] = []
    positions: dict[int, int] = {}
    while True:
        ts.skip_newlines()
        if ts.peek().kind == "eof":
            break
        idx_tok = ts.expect("int", "a step number")
        idx = int(idx_tok.text)
        if idx in positions:
            raise ParseError(f"duplicate step number {idx}", idx_tok.span)
        ts.expect("colon", "':'")
        sequent = _parse_sequent(ts, sig)
        ts.expect("semi", "';'")
        justification = _parse_justification(ts, sig)
        premises = []
        if ts.accept("ident", "from"):
            while True:
                ref_tok = ts.expect("int", "a premise step number")
                ref = int(ref_tok.text)
                if ref not in positions:
                    raise ParseError(f"premise reference {ref} does not name "
                                     "an earlier step", ref_tok.span)
                premises.append(positions[ref])
                if not ts.accept("comma"):
                    break
        ts.end_statement()
        positions[idx] = len(steps)
        steps.append(Step(sequent, justification, tuple(premises)))
    return Derivation(logic, tuple(hypotheses), tuple(steps))


def render_proof(derivation: Derivation) -> str:
    lines = []
    for pos, step in enumerate(derivation.steps, start=1):
        parts = [f"{pos}: {render_sequent(step.conclusion)} ;",
                 rule_name(step.justification)]
        _, render = _ARGUMENTS[type(step.justification)]
        args = render(step.justification)
        if args:
            parts.append(args)
        if step.premises:
            parts.append("from " + ", ".join(str(p + 1) for p in step.premises))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
