"""Text formats: signatures, formulas, sequents, models and proof scripts.

All formats are line-oriented UTF-8 with `#` comments.  Rendering is
canonical (sorted sets, sequential step numbers), and parsing a rendered
value gives the value back.

Formula grammar: a variable, `conn(arg, ...)`, `Box f`, `Dia f`, or a
parenthesized formula, nested at most MAX_FORMULA_DEPTH levels.  `Box`,
`Dia` are reserved; in proof scripts the word `from` introduces premise
references and cannot name a variable.

No statement spans lines, so every format is read a line at a time
(_read_lines).  A line is tokenized alone: one regex `findall` gives the
text of each word, and nothing else.  Formulas, sequents and proof
scripts tokenize every line that holds a statement and read its words
by index through a cursor (TokenStream), formulas with an explicit
stack (_parse_formula).  Signature and model files read a line from its
fields, cut at `#` and split, when every field is a whole word, and
tokenize any other line to read it again by the same checks.

tokenize raises the error for a bad character.  Every other error is a
_WordError at a word of its line, which _line_error alone turns into a
ParseError: the word's 1-based line and column are found only then, by
scanning the line again up to that word (_word_span).  The first bad
character of the file comes before any other error, so _line_error
first looks for one from that line to the end of the text.
"""

from __future__ import annotations

import re
import string
from collections import deque
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Optional, Union

from .core import (
    Apply,
    Box,
    Connective,
    Diamond,
    Formula,
    LabelledFormula,
    RESERVED_NAMES,
    Record,
    Sequent,
    Signature,
    Var,
    _set_field,
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


class SourceSpan(Record):
    __match_args__ = ("line", "column", "offset")
    line: int
    column: int
    offset: int

    def __init__(self, line: int, column: int, offset: int):
        _set_field(self, "line", line)
        _set_field(self, "column", column)
        _set_field(self, "offset", offset)


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
# of the slice read, or a bad character together with the rest of it.
_WORD_RE = re.compile(r"""
    [^\S\n]*(?:\#[^\n]*)?
    (""" + _IDENT + r"""|[(){},;:=]|->|-|\d+|\n|\Z|[^\n][\s\S]*)
""", re.VERBOSE)

#: The first characters of the words that are not `int` words.
_WORD_START = _IDENT_START | set("(){},;:=-\n")


def _span(text: str, offset: int) -> SourceSpan:
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1,
                      offset)


def _bad_character(text: str, word: str, end: int) -> None:
    """Raise the error for `word` when it is a bad character's word,
    which runs to offset `end`."""
    if word and word[0] not in _WORD_START and not word[0].isdecimal():
        raise ParseError(f"unexpected character {_quote(word[0])}",
                         _span(text, end - len(word)))


def tokenize(text: str, start: int, end: int) -> list[str]:
    """The words of the line text[start:end], ending with its newline or,
    on the last line, with the empty word for the end of the text."""
    words = _WORD_RE.findall(text, start, end)
    # a bad character's word runs to the end, so only the empty word
    # that closes the list follows it
    _bad_character(text, words[-2] if len(words) > 1 else "", end)
    if len(words) > 1 and words[-2] in ("\n", ""):
        words.pop()  # the slice's end, after the line's own end
    return words


def _check_characters(text: str, start: int) -> None:
    """Raise the error for the first bad character of text[start:], if
    it has one.  No word list is built: a bad character's word runs to
    the end, so only the last two words are kept."""
    last = deque(_WORD_RE.finditer(text, start), maxlen=2)
    _bad_character(text, last[0][1], len(text))


def _word_span(text: str, start: int, at: int) -> SourceSpan:
    """The span of word `at` of the words of text[start:]."""
    match = next(islice(_WORD_RE.finditer(text, start), at, None))
    return _span(text, match.start(1))


def _found(what: str, word: str) -> str:
    return (f"expected {what}, found {_quote(word)}" if word
            else f"expected {what}, found end of input")


class _WordError(Exception):
    """An error at word `at` of a line's words, which _line_error raises
    as a ParseError at that word's span."""

    def __init__(self, at: int, message: str, expected: Optional[str] = None):
        super().__init__(message)
        self.at = at
        self.message = message
        self.expected = expected


#: The message for a label out of range; formatted by _int.
_LABEL_RANGE = "label {} out of {}..{}"


def _int(words: list[str], at: int, what: str, low: int = 0,
         high: Optional[int] = None, message: str = "") -> int:
    """The integer of word `at`, in low..high (no upper limit when high
    is None).

    Out of range, `message` is formatted with the integer, low, high and
    `what`.  Every integer of every format is read here.
    """
    word = words[at]
    if not word.isdecimal():
        raise _WordError(at, _found(what, word), what)
    try:
        value = int(word)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise _WordError(at, f"integer of {len(word)} digits is too long") from None
    if value < low or (high is not None and value > high):
        raise _WordError(at, message.format(value, low, high, what))
    return value


class TokenStream:
    """A cursor over the words of one line (tokenize).  Words are told
    apart by their text: a name starts with a letter or `_`, an integer
    is all digits."""

    def __init__(self, words: list[str]):
        self.words = words
        self.pos = 0

    def peek(self) -> str:
        return self.words[self.pos]

    def expect(self, word: str) -> None:
        """Read `word`, a punctuation mark or `->`."""
        if self.words[self.pos] != word:
            what = f"'{word}'"
            raise _WordError(self.pos, _found(what, self.words[self.pos]), what)
        self.pos += 1

    def name(self, what: str) -> str:
        word = self.words[self.pos]
        if word[:1] not in _IDENT_START:
            raise _WordError(self.pos, _found(what, word), what)
        self.pos += 1
        return word

    def expect_int(self, what: str, low: int = 0, high: Optional[int] = None,
                   message: str = "") -> int:
        """An integer in low..high, read by _int."""
        value = _int(self.words, self.pos, what, low, high, message)
        self.pos += 1
        return value

    def comma_list(self, read: Callable[..., object], *args) -> list:
        """read(self, *args), then once more after each comma."""
        items = [read(self, *args)]
        while self.words[self.pos] == ",":
            self.pos += 1
            items.append(read(self, *args))
        return items


# ---------------------------------------------------------------------------
# Line reading: every format is read a line at a time
# ---------------------------------------------------------------------------


def _read_lines(text: str, read: Callable[[list[str], int], None],
                fields_first: bool = False) -> None:
    r"""Call read(words, start) for each line of `text` that holds a
    statement, in order, `start` being the line's offset.

    Lines are split on newlines only, since the token grammar treats
    every other whitespace character, `\r` included, as in-line
    whitespace, as str.split() does; a `#` always starts a comment.
    `words` are the line's words (tokenize), which end with its "\n" or
    the end of the text; an error then is raised as a ParseError
    (_read_words).

    With `fields_first`, `words` are first the line's fields and "\n",
    and the line is tokenized only when read raises a _WordError.  read
    takes only whole words (an identifier, an integer or `=`), so it
    changes nothing before its last check, and which error it raises
    matters only on the tokenizer's words, where a word is an identifier
    when its first character may start one.
    """
    start = 0
    for line in text.split("\n"):
        head = line.partition("#")[0]
        if head and not head.isspace() and not (
                fields_first and _read_fields(read, head.split(), start)):
            words = tokenize(text, start, min(start + len(line) + 1, len(text)))
            _read_words(text, start, words, read)
        start += len(line) + 1


def _read_fields(read: Callable[[list[str], int], None], fields: list[str],
                 start: int) -> bool:
    """Whether read(fields + ["\n"], start) raised no _WordError."""
    fields.append("\n")
    try:
        read(fields, start)
    except _WordError:
        return False
    return True


def _read_words(text: str, start: int, words: list[str],
                read: Callable[[list[str], int], None]) -> None:
    """read(words, start) on the words of the line at `start`, or of the
    end of the text, with a _WordError raised as a ParseError."""
    try:
        read(words, start)
    except _WordError as error:
        raise _line_error(text, start, error) from None


def _line_error(text: str, start: int, error: _WordError) -> ParseError:
    """`error`, at a word of the line at `start`, as a ParseError; but
    the first bad character of the text comes first.  The lines before
    have none, so it is looked for from `start` on."""
    _check_characters(text, start)
    return ParseError(error.message, _word_span(text, start, error.at),
                      error.expected)


def _header(words: list[str], keyword: str, noun: str, what: str, low: int,
            too_small: str, high: Optional[int] = None) -> int:
    """The integer of the `keyword N` statement that opens a file.

    Above `high` it is an error, raised before the caller allocates.
    """
    word = words[0]
    if word != keyword:
        if word[:1] in _IDENT_START:
            raise _WordError(0, f"{noun} must start with a {keyword} declaration",
                             keyword)
        raise _WordError(0, _found(f"'{keyword}'", word), f"'{keyword}'")
    value = _int(words, 1, what, low, None, too_small)
    if high is not None and value > high:
        raise _WordError(1, f"{what} is above the limit of {high}")
    _end(words, 2)
    return value


def _end(words: list[str], at: int) -> None:
    """Word `at` must end the statement."""
    if len(words) > at + 1:
        raise _WordError(at, f"unexpected {_quote(words[at])} at end of statement")


def _statements(text: str, read: Callable[[TokenStream, Signature], object],
                sig: Signature, single: bool = False) -> list:
    """read(cursor, sig) over the words of each line that holds a
    statement, which must end there.

    With `single`, the text holds one statement: a word after it, on its
    line or a later one, is "unexpected trailing", and where a text has
    none, the words at its end, [""], are read.
    """
    values = []

    def read_line(words: list[str], start: int) -> None:
        if single and values:
            raise _WordError(0, f"unexpected trailing {_quote(words[0])}")
        ts = TokenStream(words)
        values.append(read(ts, sig))
        if single and len(words) > ts.pos + 1:
            raise _WordError(ts.pos, f"unexpected trailing {_quote(ts.peek())}")
        _end(words, ts.pos)

    _read_lines(text, read_line)
    if single and not values:
        _read_words(text, len(text), [""], read_line)
    return values


def _label(ts: TokenStream, n: int, what: str = "a label") -> int:
    return ts.expect_int(what, 1, n, _LABEL_RANGE)


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
    """The formula at the cursor.

    An explicit stack, not recursion: it holds one entry per open
    parenthesis, Box, Dia and argument list, so its height is the depth
    of the formula read next.
    """
    words, i, connectives = ts.words, ts.pos, sig.connectives
    stack: list = []
    while True:
        if len(stack) > MAX_FORMULA_DEPTH:
            raise _WordError(
                i, f"formula nested deeper than {MAX_FORMULA_DEPTH} levels")
        word = words[i]
        if word == "(":
            stack.append(_PAREN)
            i += 1
            continue
        if word[:1] not in _IDENT_START:
            raise _WordError(i, f"expected a formula, found {_quote(word)}", "formula")
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
            node = _apply(words, sig, i - 3, ())
        elif word in connectives:
            raise _WordError(i - 1, f"connective {_quote(word)} needs an argument list")
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
                    raise _WordError(i, _found("')'", words[i]), "')'")
                i += 1
                if top is not _PAREN:
                    node = _apply(words, sig, top[0], top[1:])
            stack.pop()
        else:
            ts.pos = i
            return node


def _apply(words: list[str], sig: Signature, at: int, args) -> Apply:
    """The connective named by word `at` applied to `args`."""
    name = words[at]
    conn = sig.connectives.get(name)
    if conn is None:
        raise _WordError(at, f"unknown connective {_quote(name)}")
    if len(args) != conn.arity:
        raise _WordError(at, f"connective {_quote(name)} expects {conn.arity} "
                             f"arguments, got {len(args)}")
    return Apply(name, args)


def _parse_labelled(ts: TokenStream, sig: Signature) -> LabelledFormula:
    ts.expect("(")
    formula = _parse_formula(ts, sig)
    ts.expect(",")
    label = _label(ts, sig.n)
    ts.expect(")")
    return LabelledFormula(formula, label)


def _parse_side(ts: TokenStream, sig: Signature) -> list[LabelledFormula]:
    if ts.peek() != "(":
        return []
    return ts.comma_list(_parse_labelled, sig)


def _parse_sequent(ts: TokenStream, sig: Signature) -> Sequent:
    antecedent = _parse_side(ts, sig)
    ts.expect("->")
    return Sequent(antecedent, _parse_side(ts, sig))


def parse_formula(text: str, sig: Signature) -> Formula:
    return _statements(text, _parse_formula, sig, single=True)[0]


def parse_formulas(text: str, sig: Signature) -> tuple[Formula, ...]:
    """One formula per non-empty line."""
    return tuple(_statements(text, _parse_formula, sig))


def parse_sequent(text: str, sig: Signature) -> Sequent:
    return _statements(text, _parse_sequent, sig, single=True)[0]


def parse_sequents(text: str, sig: Signature) -> tuple[Sequent, ...]:
    """One sequent per non-empty line."""
    return tuple(_statements(text, _parse_sequent, sig))


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
# Signatures
# ---------------------------------------------------------------------------


def parse_signature(text: str) -> Signature:
    # A complete table of arity a has n^a rows, one per line, so an arity
    # whose rows cannot fit in the text's lines is rejected at once.
    lines = text.count("\n") + 1
    n = None
    # name -> (arity, offset of the declaring line, table)
    declared: dict[str, tuple[int, int, dict[tuple[int, ...], int]]] = {}

    def read(words: list[str], start: int) -> None:
        nonlocal n
        if n is None:
            n = _header(words, "domain", "signature", "the domain size", 2,
                        "domain needs at least 2 values, got {}")
            return
        name = words[0]
        # once a connective named `conn` is declared, `conn` followed by
        # anything but a name starts one of its table rows
        if name == "conn" and ("conn" not in declared
                               or _IDENT_RE.fullmatch(words[1])):
            conn = words[1]
            if not _IDENT_RE.fullmatch(conn):
                raise _WordError(1, _found("a connective name", conn),
                                 "a connective name")
            if conn in RESERVED_NAMES:
                raise _WordError(1, f"connective name {_quote(conn)} is reserved")
            if conn in declared:
                raise _WordError(1, f"duplicate connective name {_quote(conn)}")
            arity = _int(words, 2, "an arity")
            if not _rows_fit(n, arity, lines):
                raise _WordError(2, f"connective {_quote(conn)}: arity {arity} "
                                    f"needs {n}^{arity} table rows, more than "
                                    f"the signature's {lines} lines")
            _end(words, 3)
            declared[conn] = (arity, start, {})
            return
        if name not in declared:
            if name[0] not in _IDENT_START:
                raise _WordError(0, _found("'conn' or a table row", name),
                                 "'conn' or a table row")
            raise _WordError(0, f"table row for undeclared connective {_quote(name)}")
        arity, _, table = declared[name]
        key = tuple([_int(words, at, "an argument label", 1, n, _LABEL_RANGE)
                     for at in range(1, arity + 1)])
        if words[arity + 1] != "=":
            raise _WordError(arity + 1, _found("'='", words[arity + 1]), "'='")
        out = _int(words, arity + 2, "the table value", 1, n, _LABEL_RANGE)
        if key in table:
            raise _WordError(0, f"duplicate table row for {_quote(name)}")
        _end(words, arity + 3)
        table[key] = out

    _read_lines(text, read, fields_first=True)
    if n is None:  # no statement: _header raises at the end of the text
        _read_words(text, len(text), [""], read)
    connectives = []
    for name, (arity, start, table) in declared.items():
        if len(table) != n ** arity:
            missing = next(e for e in all_entries(n, arity) if e not in table)
            raise _line_error(text, start, _WordError(
                1, f"connective {_quote(name)}: missing table entry for "
                   f"{' '.join(map(str, missing)) or '()'}"))
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


#: The message for a world out of range; formatted by _int.
_UNDECLARED_WORLD = "{3} references undeclared world {0} (have {1}..{2})"


def parse_model(text: str, sig: Signature) -> KripkeModel:
    n = sig.n
    world_count = last = None
    edges: set[tuple[int, int]] = set()
    vals: dict[tuple[int, str], int] = {}

    def read(words: list[str], start: int) -> None:
        nonlocal world_count, last
        if world_count is None:
            world_count = _header(words, "worlds", "model", "the world count", 1,
                                  "a model needs at least one world", MAX_WORLDS)
            last = world_count - 1
            return
        key = words[0]
        if key == "edge":
            u = _int(words, 1, "edge source", 0, last, _UNDECLARED_WORLD)
            v = _int(words, 2, "edge target", 0, last, _UNDECLARED_WORLD)
            _end(words, 3)
            edges.add((u, v))
        elif key == "val":
            u = _int(words, 1, "valuation world", 0, last, _UNDECLARED_WORLD)
            name = words[2]
            if not _IDENT_RE.fullmatch(name):
                raise _WordError(2, _found("a variable name", name),
                                 "a variable name")
            if name in RESERVED_NAMES:
                raise _WordError(2, f"variable name {_quote(name)} is reserved")
            k = _int(words, 3, "a label", 1, n, _LABEL_RANGE)
            if (u, name) in vals:
                raise _WordError(2, f"duplicate valuation for {_quote(name)} "
                                    f"at world {u}")
            _end(words, 4)
            vals[(u, name)] = k
        else:
            what = "'edge' or 'val'"
            raise _WordError(0, _found(what, key),
                             None if key[0] in _IDENT_START else what)

    _read_lines(text, read, fields_first=True)
    if world_count is None:  # no statement: _header raises at the end of the text
        _read_words(text, len(text), [""], read)
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
    parts = [ts.name("a rule name")]
    while ts.peek() == "-":
        word = ts.words[ts.pos + 1]
        if word[:1] not in _IDENT_START and not word.isdecimal():
            raise _WordError(ts.pos + 1, "malformed rule name")
        ts.pos += 2
        parts.append(word)
    return "-".join(parts)


def _parse_label_set(ts: TokenStream, n: int) -> frozenset[int]:
    ts.expect("{")
    labels = set()
    while ts.peek().isdecimal():
        labels.add(_label(ts, n))
    ts.expect("}")
    return frozenset(labels)


def _render_group(formula: Formula, labels: frozenset[int]) -> str:
    return f"{render_formula(formula)} {{{' '.join(map(str, sorted(labels)))}}}"


def _at_formula_start(ts: TokenStream) -> bool:
    word = ts.peek()
    return word == "(" or (word[:1] in _IDENT_START and word != "from")


def _any_label(ts: TokenStream) -> int:
    # range-checked by the rule, not by the parser
    return ts.expect_int("a label")


def _parse_hypothesis(ts: TokenStream, sig: Signature) -> Hypothesis:
    return Hypothesis(ts.expect_int("a hypothesis number", 1, None,
                                    "hypothesis numbers start at 1") - 1)


def _parse_table_entry(ts: TokenStream, sig: Signature) -> AxiomTable:
    conn = ts.name("a connective name")
    entry = []
    while ts.peek().isdecimal():
        entry.append(ts.expect_int("a table entry"))
    return AxiomTable(conn, tuple(entry))


def _parse_groups(ts: TokenStream, sig: Signature) -> SuperMultiShift:
    formulas, label_sets = [], []
    while _at_formula_start(ts):
        formulas.append(_parse_formula(ts, sig))
        label_sets.append(_parse_label_set(ts, sig.n))
    if not formulas:
        raise _WordError(ts.pos, "expected at least one formula group", "formula")
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
        raise _WordError(name_at, f"unknown rule name {_quote(name)}")
    return parse(ts, sig)


def parse_proof(text: str, sig: Signature, logic: LogicId = LogicId.MV_K,
                hypotheses: Iterable[Sequent] = ()) -> Derivation:
    """Parse a proof script; the logic and hypotheses come from the caller."""
    positions: dict[int, int] = {}

    def premise(ts: TokenStream) -> int:
        ref = ts.expect_int("a premise step number")
        if ref not in positions:
            raise _WordError(ts.pos - 1, f"premise reference {ref} does not name "
                                         "an earlier step")
        return positions[ref]

    def step(ts: TokenStream, sig: Signature) -> Step:
        idx = ts.expect_int("a step number")
        if idx in positions:
            raise _WordError(ts.pos - 1, f"duplicate step number {idx}")
        ts.expect(":")
        sequent = _parse_sequent(ts, sig)
        ts.expect(";")
        justification = _parse_justification(ts, sig)
        premises = ()
        if ts.peek() == "from":
            ts.pos += 1
            premises = ts.comma_list(premise)
        positions[idx] = len(positions)
        return Step(sequent, justification, tuple(premises))

    return Derivation(logic, tuple(hypotheses), tuple(_statements(text, step, sig)))


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
