"""Text formats: signatures, formulas, sequents, models and proof scripts.

All formats are line-oriented UTF-8 with `#` comments.  Rendering is
canonical (sorted sets, sequential step numbers), and parsing a rendered
value gives the value back.

Formula grammar: a variable, `conn(arg, ...)`, `Box f`, `Dia f`, or a
parenthesized formula, nested at most MAX_FORMULA_DEPTH levels.  `Box`,
`Dia` are reserved; in proof scripts the word `from` introduces premise
references and cannot name a variable.

Every format has one tokenizer: one regex `findall` gives the text of
each word, and nothing else.  A word's offset is found only when a
ParseError needs its 1-based line and column, by scanning the text
again up to that word (TokenStream.span).  Every file format is a
sequence of statements, one per non-blank line.  Formulas, sequents and
proof scripts are tokenized whole and read by index into the word list,
formulas with an explicit stack (_parse_formula), statements by
TokenStream.statements.
Signature and model files are first read a line at a time
(_statement_lines): each line is cut at `#` and split into fields.  A
signature is taken whole when every line is a well-formed header,
declaration or table row and the tables are total
(_read_signature_lines); otherwise the token reader reads the whole
text.  A model file is read a line at a time while each line is a
well-formed header, edge or valuation (_read_model_lines); from the
first line that is not, the token reader reads the rest of the text
with the world count, edges and valuation read so far.  The lines
before it hold no error and no bad character, so in both formats every
error, with its span, is the one the token reader gives on the whole
text.
"""

from __future__ import annotations

import math
import re
import string
import sys
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Union

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
    labelled_key,
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


def _quote(text: str) -> str:
    """A token's text for an error message: quoted, and cut after 32 characters."""
    if len(text) <= 32:
        return repr(text)
    return f"{text[:32]!r}... ({len(text)} characters)"


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

_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_IDENT_RE = re.compile(_IDENT)
_IDENT_START = frozenset(string.ascii_letters + "_")

# Whitespace and a comment before a word are part of its match (a comment
# runs to the newline).  The one group is the word: an identifier, a
# punctuation mark, `->`, an integer, a newline, the empty word at the end
# of the text, or a bad character together with the rest of the text.
_WORD_RE = re.compile(r"""
    [^\S\n]*(?:\#[^\n]*)?
    (""" + _IDENT + r"""|[(){},;:=]|->|-|\d+|\n|\Z|[^\n][\s\S]*)
""", re.VERBOSE)

_KINDS = {"": "eof", "\n": "newline", "->": "arrow", "(": "lparen",
          ")": "rparen", "{": "lbrace", "}": "rbrace", ",": "comma",
          ";": "semi", ":": "colon", "=": "equals", "-": "minus"}

#: The first characters of the words that are not `int` words.
_WORD_START = _IDENT_START | {word[0] for word in _KINDS if word}


def _kind(word: str) -> str:
    return _KINDS.get(word) or ("int" if word[0].isdecimal() else "ident")


def _span(text: str, offset: int) -> SourceSpan:
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1,
                      offset)


def tokenize(text: str, start: int = 0) -> list[str]:
    """The words of `text` from offset `start` on, newlines included,
    ending with an empty word for the end of the text (a second one
    follows when whitespace or a comment ends it)."""
    words = _WORD_RE.findall(text, start)
    # a bad character's word runs to the end, so only the empty word
    # that closes the list follows it
    bad = words[-2] if len(words) > 1 else ""
    if bad and bad[0] not in _WORD_START and not bad[0].isdecimal():
        raise ParseError(f"unexpected character {_quote(bad[0])}",
                         _span(text, len(text) - len(bad)))
    return words


class TokenStream:
    """The words of a text, read by index.

    A word's offset is found only for an error, by scanning the text
    again up to that word (span).
    """

    def __init__(self, text: str, start: int = 0):
        self.text = text
        self.start = start
        self.words = tokenize(text, start)
        self.pos = 0

    def span(self, at: int) -> SourceSpan:
        match = next(islice(_WORD_RE.finditer(self.text, self.start), at, None))
        return _span(self.text, match.start(1))

    def error(self, message: str, at: Optional[int] = None,
              expected: Optional[str] = None) -> ParseError:
        """A ParseError at word `at`, by default the next word."""
        return ParseError(message, self.span(self.pos if at is None else at),
                          expected)

    def expected(self, what: str, at: Optional[int] = None) -> ParseError:
        word = self.words[self.pos if at is None else at]
        return self.error(f"expected {what}, found {_quote(word)}" if word
                          else f"expected {what}, found end of input", at, what)

    def peek(self) -> str:
        return self.words[self.pos]

    def kind(self) -> str:
        return _kind(self.words[self.pos])

    def advance(self) -> str:
        word = self.words[self.pos]
        if word:
            self.pos += 1
        return word

    def accept(self, kind: str, text: Optional[str] = None) -> bool:
        word = self.words[self.pos]
        if _kind(word) == kind and (text is None or word == text):
            self.advance()
            return True
        return False

    def expect(self, kind: str, what: str) -> str:
        if _kind(self.words[self.pos]) != kind:
            raise self.expected(what)
        return self.advance()

    def expect_int(self, what: str, low: int = 0, high: Optional[int] = None,
                   message: str = "") -> int:
        """An integer in low..high (no upper limit when high is None).

        Out of range, `message` is formatted with the integer, low and high.
        Every integer of every format is read here.
        """
        word = self.expect("int", what)
        try:
            value = int(word)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise self.error(f"integer of {len(word)} digits is too long",
                             self.pos - 1) from None
        if value < low or (high is not None and value > high):
            raise self.error(message.format(value, low, high), self.pos - 1)
        return value

    def comma_list(self, read: Callable[..., object], *args) -> list:
        """read(self, *args), then once more after each comma."""
        items = [read(self, *args)]
        while self.words[self.pos] == ",":
            self.pos += 1
            items.append(read(self, *args))
        return items

    def skip_newlines(self) -> None:
        while self.words[self.pos] == "\n":
            self.pos += 1

    def end_statement(self) -> None:
        word = self.words[self.pos]
        if word == "\n":
            self.pos += 1
        elif word:
            raise self.error(f"unexpected {_quote(word)} at end of statement")

    def header(self, keyword: str, noun: str, what: str, low: int,
               too_small: str, high: Optional[int] = None) -> int:
        """The integer of the `keyword N` statement that opens a file.

        Above `high` it is an error, raised before the caller allocates.
        """
        self.skip_newlines()
        if self.expect("ident", f"'{keyword}'") != keyword:
            raise self.error(f"{noun} must start with a {keyword} declaration",
                             self.pos - 1, keyword)
        value = self.expect_int(what, low, None, too_small)
        if high is not None and value > high:
            raise self.error(f"{what} is above the limit of {high}", self.pos - 1)
        self.end_statement()
        return value

    def statements(self) -> Iterator[str]:
        """Each statement's first word, skipping blank lines.

        The caller reads the statement; the stream then checks its end.
        """
        while True:
            self.skip_newlines()
            word = self.words[self.pos]
            if not word:
                return
            yield word
            self.end_statement()


def _label(ts: TokenStream, n: int, what: str = "a label") -> int:
    return ts.expect_int(what, 1, n, "label {} out of {}..{}")


# ---------------------------------------------------------------------------
# Formulas and sequents
# ---------------------------------------------------------------------------

#: Deepest nesting of Box, Dia, connectives and parentheses in a formula;
#: _parse_formula checks its stack against it.
MAX_FORMULA_DEPTH = 100

#: Most worlds a model file may declare; a model allocates per world.
MAX_WORLDS = 100_000

# Entries of _parse_formula's stack for an open parenthesis, Box and Dia;
# an open argument list is a list of its name's position and arguments.
_PAREN, _BOX, _DIA = object(), object(), object()


def _parse_formula(ts: TokenStream, sig: Signature) -> Formula:
    """The formula at the stream's position.

    An explicit stack, not recursion: it holds one entry per open
    parenthesis, Box, Dia and argument list, so its height is the depth
    of the formula read next.
    """
    words, i, connectives = ts.words, ts.pos, sig.connectives
    stack: list = []
    while True:
        if len(stack) > MAX_FORMULA_DEPTH:
            raise ts.error(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", i)
        word = words[i]
        if word == "(":
            stack.append(_PAREN)
            i += 1
            continue
        if word[:1] not in _IDENT_START:
            raise ts.error(f"expected a formula, found {_quote(word)}", i, "formula")
        i += 1
        if word == "Box":
            stack.append(_BOX)
            continue
        if word == "Dia":
            stack.append(_DIA)
            continue
        if words[i] == "(":
            if words[i + 1] != ")":
                stack.append([i - 1])
                i += 1
                continue
            i += 2
            node = _apply(ts, sig, i - 3, ())
        elif word in connectives:
            raise ts.error(f"connective {_quote(word)} needs an argument list", i - 1)
        else:
            node = Var(word)
        # `node` is whole: close every entry it completes
        while stack:
            top = stack[-1]
            if top is _BOX:
                node = Box(node)
            elif top is _DIA:
                node = Diamond(node)
            else:
                if top is not _PAREN:
                    top.append(node)
                    if words[i] == ",":
                        i += 1
                        break
                if words[i] != ")":
                    raise ts.expected("')'", i)
                i += 1
                if top is not _PAREN:
                    node = _apply(ts, sig, top[0], top[1:])
            stack.pop()
        else:
            ts.pos = i
            return node


def _apply(ts: TokenStream, sig: Signature, at: int, args) -> Apply:
    """The connective named by word `at` applied to `args`."""
    name = ts.words[at]
    conn = sig.connectives.get(name)
    if conn is None:
        raise ts.error(f"unknown connective {_quote(name)}", at)
    if len(args) != conn.arity:
        raise ts.error(f"connective {_quote(name)} expects {conn.arity} arguments, "
                       f"got {len(args)}", at)
    return Apply(name, args)


def _parse_labelled(ts: TokenStream, sig: Signature) -> LabelledFormula:
    ts.expect("lparen", "'('")
    formula = _parse_formula(ts, sig)
    ts.expect("comma", "','")
    label = _label(ts, sig.n)
    ts.expect("rparen", "')'")
    return LabelledFormula(formula, label)


def _parse_side(ts: TokenStream, sig: Signature) -> list[LabelledFormula]:
    if ts.peek() != "(":
        return []
    return ts.comma_list(_parse_labelled, sig)


def _parse_sequent(ts: TokenStream, sig: Signature) -> Sequent:
    antecedent = _parse_side(ts, sig)
    ts.expect("arrow", "'->'")
    return Sequent(antecedent, _parse_side(ts, sig))


def _single(text: str, parse, sig: Signature):
    ts = TokenStream(text)
    ts.skip_newlines()
    out = parse(ts, sig)
    ts.skip_newlines()
    word = ts.peek()
    if word:
        raise ts.error(f"unexpected trailing {_quote(word)}")
    return out


def parse_formula(text: str, sig: Signature) -> Formula:
    return _single(text, _parse_formula, sig)


def parse_formulas(text: str, sig: Signature) -> tuple[Formula, ...]:
    """One formula per non-empty line."""
    ts = TokenStream(text)
    return tuple(_parse_formula(ts, sig) for _ in ts.statements())


def parse_sequent(text: str, sig: Signature) -> Sequent:
    return _single(text, _parse_sequent, sig)


def parse_sequents(text: str, sig: Signature) -> tuple[Sequent, ...]:
    """One sequent per non-empty line."""
    ts = TokenStream(text)
    return tuple(_parse_sequent(ts, sig) for _ in ts.statements())


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
    """The sequent as text, each side in canonical order (labelled_key)."""
    left = ", ".join(map(render_labelled, sorted(sequent.antecedent, key=labelled_key)))
    right = ", ".join(map(render_labelled, sorted(sequent.succedent, key=labelled_key)))
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
# Line reading: signature and model files before the token reader
# ---------------------------------------------------------------------------


def _statement_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    r"""The offset and fields of each line of `text` that holds a statement.

    Lines are split on newlines only, since the token grammar treats
    every other whitespace character, `\r` included, as in-line
    whitespace, as str.split() does; a `#` always starts a comment.
    """
    offset = 0
    for line in text.split("\n"):
        fields = line.partition("#")[0].split()
        if fields:
            yield offset, fields
        offset += len(line) + 1


def _width(high: Optional[int] = None) -> int:
    """The digits of `high`, but no more than int() reads from a string:
    a decimal field no longer than this is safe to convert.  Without
    `high`, the most digits int() reads."""
    if high is not None:
        try:
            return len(str(high))
        except ValueError:  # past sys.get_int_max_str_digits()
            pass
    # 0, or no such function before Python 3.10.7: int() reads any length
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit or sys.maxsize


def _field_int(field: str, low: int, high: float, width: int) -> Optional[int]:
    r"""The decimal field's integer when it lies in low..high, else None.

    A field is decimal when it passes str.isdecimal(), as the token
    grammar's `\d` does."""
    if field.isdecimal() and len(field) <= width:
        value = int(field)
        if low <= value <= high:
            return value
    return None


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


def _read_signature_lines(text: str) -> Optional[Signature]:
    """The signature read a line at a time, or None when a line is not a
    plain header, declaration or table row, or a check fails: the token
    reader then reads the whole text and gives the error.

    The checks are the token reader's: a `conn` line declares unless
    `conn` names a connective and no name follows; names are neither
    reserved nor repeated; rows belong to a declared connective, hold
    labels in 1..n, are not repeated and fit in the text's lines
    (_rows_fit); every table is total.  Nothing is sized by n.
    """
    lines = text.count("\n") + 1
    # an arity passes _rows_fit only below lines.bit_length()
    arity_high = lines.bit_length()
    arity_width = _width(arity_high)
    n = None
    # name -> (arity, table)
    declared: dict[str, tuple[int, dict[tuple[int, ...], int]]] = {}
    for _, fields in _statement_lines(text):
        if n is None:
            if len(fields) != 2 or fields[0] != "domain":
                return None
            n = _field_int(fields[1], 2, math.inf, _width())
            if n is None:
                return None
            label_width = _width(n)
            continue
        name = fields[0]
        if name == "conn" and ("conn" not in declared or (
                len(fields) > 1 and _IDENT_RE.fullmatch(fields[1]))):
            if (len(fields) != 3 or not _IDENT_RE.fullmatch(fields[1])
                    or fields[1] in RESERVED_NAMES or fields[1] in declared):
                return None
            arity = _field_int(fields[2], 0, arity_high, arity_width)
            if arity is None or not _rows_fit(n, arity, lines):
                return None
            declared[fields[1]] = (arity, {})
            continue
        if name not in declared:
            return None
        arity, table = declared[name]
        if len(fields) != arity + 3 or fields[-2] != "=":
            return None
        key = tuple([_field_int(label, 1, n, label_width)
                     for label in fields[1:-2]])
        out = _field_int(fields[-1], 1, n, label_width)
        if out is None or None in key or key in table:
            return None
        table[key] = out
    if n is None:
        return None
    connectives = []
    for name, (arity, table) in declared.items():
        if len(table) != n ** arity:
            return None
        connectives.append(Connective(name, arity, table))
    return make_signature(n, connectives)


def parse_signature(text: str) -> Signature:
    sig = _read_signature_lines(text)
    if sig is not None:
        return sig
    ts = TokenStream(text)
    n = ts.header("domain", "signature", "the domain size", 2,
                  "domain needs at least 2 values, got {}")
    # A complete table of arity a has n^a rows, one per line, so an arity
    # whose rows cannot fit in the text's lines is rejected at once.
    lines = text.count("\n") + 1
    # name -> (arity, position of the name's word, table)
    declared: dict[str, tuple[int, int, dict[tuple[int, ...], int]]] = {}
    for _ in ts.statements():
        name_at = ts.pos
        name = ts.expect("ident", "'conn' or a table row")
        # once a connective named `conn` is declared, `conn` followed by
        # anything but a name starts one of its table rows
        if name == "conn" and ("conn" not in declared or ts.kind() == "ident"):
            conn_at = ts.pos
            conn = ts.expect("ident", "a connective name")
            if conn in RESERVED_NAMES:
                raise ts.error(f"connective name {_quote(conn)} is reserved", conn_at)
            if conn in declared:
                raise ts.error(f"duplicate connective name {_quote(conn)}", conn_at)
            arity = ts.expect_int("an arity")
            if not _rows_fit(n, arity, lines):
                raise ts.error(f"connective {_quote(conn)}: arity {arity} "
                               f"needs {n}^{arity} table rows, more than the "
                               f"signature's {lines} lines", ts.pos - 1)
            declared[conn] = (arity, conn_at, {})
            continue
        if name not in declared:
            raise ts.error(f"table row for undeclared connective {_quote(name)}",
                           name_at)
        arity, _, table = declared[name]
        key = tuple(_label(ts, n, "an argument label") for _ in range(arity))
        ts.expect("equals", "'='")
        out = _label(ts, n, "the table value")
        if key in table:
            raise ts.error(f"duplicate table row for {_quote(name)}", name_at)
        table[key] = out

    connectives = []
    for name, (arity, conn_at, table) in declared.items():
        if len(table) != n ** arity:
            missing = next(e for e in all_entries(n, arity) if e not in table)
            raise ts.error(
                f"connective {_quote(name)}: missing table entry for "
                f"{' '.join(map(str, missing)) or '()'}", conn_at)
        connectives.append(Connective(name, arity, table))
    return make_signature(n, connectives)


def _rows_fit(n: int, arity: int, lines: int) -> bool:
    """Whether n^arity <= lines; with n >= 2 the product passes `lines`
    within lines.bit_length() steps, so no large power is formed."""
    rows = 1
    for _ in range(arity):
        rows *= n
        if rows > lines:
            return False
    return True


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


def _read_model_lines(text: str, n: int
                      ) -> tuple[Optional[int], set[tuple[int, int]],
                                 dict[tuple[int, str], int], Optional[int]]:
    r"""The model statements read a line at a time, up to the first line
    that is not one the token reader would take with the same effect.

    Returns the world count (None before a header), the edges, the
    valuation, and the offset where the token reader must go on: the
    first line not taken, 0 when no header was read, or None when every
    line was taken.
    """
    world_count = None
    edges: set[tuple[int, int]] = set()
    vals: dict[tuple[int, str], int] = {}
    label_width = _width(n)
    for start, fields in _statement_lines(text):
        if world_count is None:
            if len(fields) == 2 and fields[0] == "worlds":
                world_count = _field_int(fields[1], 1, MAX_WORLDS,
                                         _width(MAX_WORLDS))
            if world_count is None:
                return None, edges, vals, 0
            last, world_width = world_count - 1, _width(world_count - 1)
            continue
        if len(fields) == 3 and fields[0] == "edge":
            u = _field_int(fields[1], 0, last, world_width)
            v = _field_int(fields[2], 0, last, world_width)
            if u is not None and v is not None:
                edges.add((u, v))
                continue
        elif len(fields) == 4 and fields[0] == "val":
            u = _field_int(fields[1], 0, last, world_width)
            name = fields[2]
            k = _field_int(fields[3], 1, n, label_width)
            if (u is not None and k is not None and _IDENT_RE.fullmatch(name)
                    and name not in RESERVED_NAMES and (u, name) not in vals):
                vals[(u, name)] = k
                continue
        return world_count, edges, vals, start
    # every line was taken, but a text of blank lines has no header
    return world_count, edges, vals, (0 if world_count is None else None)


def parse_model(text: str, sig: Signature) -> KripkeModel:
    world_count, edges, vals, rest = _read_model_lines(text, sig.n)
    if rest is None:
        return KripkeModel(world_count, edges, vals)
    ts = TokenStream(text, rest)
    if world_count is None:
        world_count = ts.header("worlds", "model", "the world count", 1,
                                "a model needs at least one world", MAX_WORLDS)

    def world(what: str) -> int:
        return ts.expect_int(what, 0, world_count - 1,
                             what + " references undeclared world {} (have {}..{})")

    for _ in ts.statements():
        key = ts.expect("ident", "'edge' or 'val'")
        if key == "edge":
            edges.add((world("edge source"), world("edge target")))
        elif key == "val":
            u = world("valuation world")
            name_at = ts.pos
            name = ts.expect("ident", "a variable name")
            if name in RESERVED_NAMES:
                raise ts.error(f"variable name {_quote(name)} is reserved", name_at)
            k = _label(ts, sig.n)
            if (u, name) in vals:
                raise ts.error(f"duplicate valuation for {_quote(name)} "
                               f"at world {u}", name_at)
            vals[(u, name)] = k
        else:
            raise ts.error(f"expected 'edge' or 'val', found {_quote(key)}",
                           ts.pos - 1)
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

def _parse_rule_name(ts: TokenStream) -> str:
    parts = [ts.expect("ident", "a rule name")]
    while ts.accept("minus"):
        if ts.kind() not in ("ident", "int"):
            raise ts.error("malformed rule name")
        parts.append(ts.advance())
    return "-".join(parts)


def _parse_label_set(ts: TokenStream, n: int) -> frozenset[int]:
    ts.expect("lbrace", "'{'")
    labels = set()
    while ts.kind() == "int":
        labels.add(_label(ts, n))
    ts.expect("rbrace", "'}'")
    return frozenset(labels)


def _render_group(formula: Formula, labels: frozenset[int]) -> str:
    return f"{render_formula(formula)} {{{' '.join(map(str, sorted(labels)))}}}"


def _at_formula_start(ts: TokenStream) -> bool:
    kind = ts.kind()
    return kind == "lparen" or (kind == "ident" and ts.peek() != "from")


def _any_label(ts: TokenStream) -> int:
    # range-checked by the rule, not by the parser
    return ts.expect_int("a label")


def _parse_hypothesis(ts: TokenStream, sig: Signature) -> Hypothesis:
    return Hypothesis(ts.expect_int("a hypothesis number", 1, None,
                                    "hypothesis numbers start at 1") - 1)


def _parse_table_entry(ts: TokenStream, sig: Signature) -> AxiomTable:
    conn = ts.expect("ident", "a connective name")
    entry = []
    while ts.kind() == "int":
        entry.append(ts.expect_int("a table entry"))
    return AxiomTable(conn, tuple(entry))


def _parse_groups(ts: TokenStream, sig: Signature) -> SuperMultiShift:
    formulas, label_sets = [], []
    while _at_formula_start(ts):
        formulas.append(_parse_formula(ts, sig))
        label_sets.append(_parse_label_set(ts, sig.n))
    if not formulas:
        raise ts.error("expected at least one formula group", expected="formula")
    return SuperMultiShift(tuple(formulas), tuple(label_sets))


def _parse_extension(scheme: int, ts: TokenStream, sig: Signature) -> ExtensionAxiom:
    formula = _parse_formula(ts, sig)
    return ExtensionAxiom(scheme, formula, 1 if scheme == 20 else _any_label(ts))


#: Argument syntax per justification type: (parse, render).  Extension
#: axioms are parsed per scheme, under the names ext-N.
_ARGUMENTS: dict[type, tuple[Callable[..., Justification], Callable[..., str]]] = {
    Hypothesis: (_parse_hypothesis, lambda j: str(j.index + 1)),
    AxiomIdentity: (lambda ts, sig: AxiomIdentity(), lambda j: ""),
    AxiomTable: (_parse_table_entry, lambda j: " ".join([j.conn, *map(str, j.entry)])),
    RuleBox: (lambda ts, sig: RuleBox(), lambda j: ""),
    RuleDiamond: (lambda ts, sig: RuleDiamond(), lambda j: ""),
    LeftShift: (lambda ts, sig: LeftShift(_any_label(ts)), lambda j: str(j.label)),
    RightShift: (lambda ts, sig: RightShift(_any_label(ts), _any_label(ts)),
                 lambda j: f"{j.from_label} {j.to_label}"),
    LeftWeaken: (lambda ts, sig: LeftWeaken(_parse_labelled(ts, sig)),
                 lambda j: render_labelled(j.added)),
    RightWeaken: (lambda ts, sig: RightWeaken(_parse_labelled(ts, sig)),
                  lambda j: render_labelled(j.added)),
    Cut: (lambda ts, sig: Cut(_parse_labelled(ts, sig)),
          lambda j: render_labelled(j.cut)),
    Resolution: (lambda ts, sig: Resolution(_parse_formula(ts, sig),
                                            _any_label(ts), _any_label(ts)),
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
    name_at = ts.pos
    name = _parse_rule_name(ts)
    parse = _PARSERS.get(name)
    if parse is None:
        raise ts.error(f"unknown rule name {_quote(name)}", name_at)
    return parse(ts, sig)


def parse_proof(text: str, sig: Signature, logic: LogicId = LogicId.MV_K,
                hypotheses: Iterable[Sequent] = ()) -> Derivation:
    """Parse a proof script; the logic and hypotheses come from the caller."""
    ts = TokenStream(text)
    steps: list[Step] = []
    positions: dict[int, int] = {}

    def premise(ts: TokenStream) -> int:
        ref = ts.expect_int("a premise step number")
        if ref not in positions:
            raise ts.error(f"premise reference {ref} does not name "
                           "an earlier step", ts.pos - 1)
        return positions[ref]

    for _ in ts.statements():
        idx = ts.expect_int("a step number")
        if idx in positions:
            raise ts.error(f"duplicate step number {idx}", ts.pos - 1)
        ts.expect("colon", "':'")
        sequent = _parse_sequent(ts, sig)
        ts.expect("semi", "';'")
        justification = _parse_justification(ts, sig)
        premises = ts.comma_list(premise) if ts.accept("ident", "from") else ()
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
