"""Command-line interface.

Exit status contract: 0 for an affirmative result, 1 for a negative
result with a witness on stdout, 2 for usage or input errors (reported
on stderr).  Output is machine-parseable: the first stdout line is the
verdict, witnesses follow in the standard file formats.  A closed
stdout and running out of memory are errors too: one line on stderr and
status 2.

A process holds parsed input files and the command lines it has read
in one memo, `_parsed`, the least recently used dropped first once the
texts its keys hold pass `MEMO_BUDGET` (8 MiB) characters; a longer text
is answered and not held.  A command line is keyed on its arguments and
holds argparse's namespace.  A `--model` file is keyed on its text
alone, parsed under `PERMISSIVE` whatever the signature; a `--phi`,
`--sigma` or `translate` sequent file on its text and the signature
file's text; a `check-proof` script also on the logic and the sigma
file's text, which a derivation holds.  So what is held is at most what
parses of 8 MiB of text take: about 14 bytes a character for a model
(the 7.5 MB text of a 100,000-world model parses to 103 MB), up to
about 70 for a formula file of distinct formulas, or about 560 MB.
Signature files and the formulas and sequents given in argv are parsed
on every call.  Each call still reads every file, so an edited file is
parsed again, and an error is never held: help and usage errors go
through argparse on every call, with its messages and exit status.
Answers, exit statuses and messages are unchanged; on the error path a
malformed model file is parsed twice.

Each subcommand and its options are declared once, in `_COMMANDS`,
and the argparse parser is built from that table once per process.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import OrderedDict
from functools import cache
from typing import Callable, Optional

from .core import Sequent, Signature, TruthDomain, is_modal_free, subformula_closure
from .decision import (
    DEFAULT_ENUM_CEILING,
    ENUM_CEILING_VAR,
    Countermodel,
    EnumerationCeilingError,
    ProvedValid,
    ValidUpTo,
    decide,
)
from .duality import uniqueness_scan
from .filtration import filter_model
from .intuitionistic import translate_sequent
from .parser import (
    ParseError,
    _quote,
    parse_formula,
    parse_formulas,
    parse_model,
    parse_proof,
    parse_sequent,
    parse_sequents,
    parse_signature,
    render_model,
    render_sequent,
)
from .proofs import LogicId, check_derivation
from .semantics import (
    FrameClass,
    KripkeModel,
    evaluate,
    frame_check,
    refuting_worlds,
    satisfies_sequent,
)


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    # utf-8-sig drops the byte-order mark some editors write first
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc


def _signature(args) -> tuple[Signature, str]:
    """The signature of the file `args.sig`, and its text."""
    text = _read(args.sig)
    return parse_signature(text), text


#: frame-check's signature: only the relation matters there, and labels
#: up to 2^31 are read.  Every model file is first parsed under it.
PERMISSIVE = Signature(TruthDomain(2 ** 31), {})

#: How many characters of file text and argv the memo of parsed inputs holds.
MEMO_BUDGET = 8 * 2 ** 20


class _ParsedFiles:
    """Parsed input files and command lines, least recently used first,
    by key.

    A key is the kind of parse, the tuple of texts the parse read (file
    texts, or a command line's arguments), and anything else it read,
    such as a logic.  The texts of the keys held add up to at most
    `budget` characters.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.entries: OrderedDict[tuple, object] = OrderedDict()
        self.length = 0

    def clear(self) -> None:
        self.entries.clear()
        self.length = 0

    def __call__(self, key: tuple, parse: Callable, *args):
        """The value held under `key`, or `parse(*args)`, held under
        `key` unless its texts alone are longer than the budget.  An
        error is raised and never held."""
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
            return value
        value = parse(*args)
        length = sum(map(len, key[1]))
        if length <= self.budget:
            self.entries[key] = value
            self.length += length
            while self.length > self.budget:
                old, _ = self.entries.popitem(last=False)
                self.length -= sum(map(len, old[1]))
        return value


_parsed = _ParsedFiles(MEMO_BUDGET)


def _model(args, sig: Signature) -> KripkeModel:
    """`parse_model(text, sig)` of the file `args.model`, from the memo.

    A text is parsed once under `PERMISSIVE`, whatever the signature.  A
    model with a label above `sig.n` (the largest label a model records),
    and a text that does not parse under `PERMISSIVE`, is parsed again
    under `sig`: that raises the error and span of a fresh parse, or, in
    a domain wider than 2^31, reads the model, which is not held.
    """
    text = _read(args.model)
    try:
        model = _parsed(("model", (text,)), parse_model, text, PERMISSIVE)
    except ParseError:
        return parse_model(text, sig)
    return model if model._top <= sig.n else parse_model(text, sig)


def _file(kind: str, path: str, parse: Callable, sig: Signature, sig_text: str):
    """`parse(text, sig)` of the file `path`, from the memo, keyed on its
    text and the signature file's text; and its text."""
    text = _read(path)
    return _parsed((kind, (text, sig_text)), parse, text, sig), text


def _member(kind: type, name: str, what: str):
    """The member of `kind` whose value is `name`; `what` names the kind."""
    try:
        return kind(name)
    except ValueError:
        raise UsageError(f"unknown {what} {name!r}; choose from "
                         + ", ".join(m.value for m in kind)) from None


def _sigma(args, sig: Signature, sig_text: str) -> tuple[tuple[Sequent, ...], str]:
    """The sequents of the file `args.sigma`, and its text; with no file,
    none and "", as an empty file gives."""
    if not args.sigma:
        return (), ""
    return _file("sequents", args.sigma, parse_sequents, sig, sig_text)


def cmd_eval(args) -> int:
    sig, _ = _signature(args)
    model = _model(args, sig)
    formula = parse_formula(args.formula, sig)
    if not 0 <= args.world < model.world_count:
        raise UsageError(f"world {args.world} not in the model")
    print(evaluate(sig, model, args.world, formula))
    return 0


def cmd_sat(args) -> int:
    sig, _ = _signature(args)
    model = _model(args, sig)
    sequent = parse_sequent(args.sequent, sig)
    if args.world is not None and not 0 <= args.world < model.world_count:
        raise UsageError(f"world {args.world} not in the model")
    if args.world is None:
        witness = next(refuting_worlds(sig, model, sequent), None)
    else:
        witness = (None if satisfies_sequent(sig, model, args.world, sequent)
                   else args.world)
    if witness is None:
        print("satisfied")
        return 0
    print("unsatisfied")
    print(f"world {witness}")
    return 1


def cmd_decide(args) -> int:
    sig, sig_text = _signature(args)
    sigma, _ = _sigma(args, sig, sig_text)
    goal = parse_sequent(args.sequent, sig)
    logic = _member(LogicId, args.logic, "logic")
    outcome = decide(sig, sigma, goal, logic, args.bound, ceiling=args.ceiling)
    if isinstance(outcome, Countermodel):
        print("countermodel")
        print(f"world {outcome.world}")
        print(render_model(outcome.model), end="")
        return 1
    if isinstance(outcome, ProvedValid):
        print("valid")
        return 0
    assert isinstance(outcome, ValidUpTo)
    print(f"valid-up-to {outcome.bound}")
    return 0


def cmd_check_proof(args) -> int:
    sig, sig_text = _signature(args)
    sigma, sigma_text = _sigma(args, sig, sig_text)
    logic = _member(LogicId, args.logic, "logic")
    text = _read(args.proof)
    # a derivation holds its logic and hypotheses as well as its steps
    derivation = _parsed(("proof", (text, sig_text, sigma_text), logic),
                         parse_proof, text, sig, logic, sigma)
    violation = check_derivation(derivation, sig)
    if violation is None:
        print("accepted")
        return 0
    print(f"violation at step {violation.step}: "
          f"{violation.rule}: {violation.reason}")
    return 1


def cmd_filter(args) -> int:
    sig, sig_text = _signature(args)
    model = _model(args, sig)
    logic = _member(LogicId, args.logic, "logic")
    phi, _ = _file("formulas", args.phi, parse_formulas, sig, sig_text)
    filtered = filter_model(sig, model, subformula_closure(phi), logic)
    print("filtered")
    for idx, members in enumerate(filtered.classes):
        print(f"class {idx}: {' '.join(map(str, members))}")
    print(render_model(filtered.model), end="")
    return 0


def cmd_neg_scan(args) -> int:
    if args.n < 2:
        raise UsageError("the domain needs at least 2 values")
    survivors = uniqueness_scan(args.n, args.bound, ceiling=args.ceiling)
    print(f"survivors {len(survivors)}")
    for table in survivors:
        print("table " + " ".join(map(str, table)))
    return 0


def cmd_translate(args) -> int:
    sig, sig_text = _signature(args)
    sequent, _ = _file("sequent", args.sequent, parse_sequent, sig, sig_text)
    if not all(is_modal_free(lf.formula)
               for lf in sequent.antecedent | sequent.succedent):
        raise UsageError("input sequent must be modal-free")
    print(render_sequent(translate_sequent(sequent, sig if args.optimized
                                           else None)))
    return 0


def cmd_frame_check(args) -> int:
    # only the relation matters here; a label above 2^31 is still an error
    model = _model(args, PERMISSIVE)
    if frame_check(model, _member(FrameClass, args.frame_class, "frame class")):
        print("yes")
        return 0
    print("no")
    return 1


def _integer(text: str) -> int:
    """`int(text)`; a value int() does not read gets argparse's own
    message, the value cut after 32 characters as `--ceiling`'s is."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {_quote(text)}") from None


def _ceiling(text: str) -> int:
    if text.isdecimal():
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {_quote(text)}")


class _ArgumentParser(argparse.ArgumentParser):
    """Reads an argument beginning with "->" as a positional: a sequent
    with an empty antecedent, such as "->(p, 1)" or the empty sequent
    "->", and never an option."""

    def _parse_optional(self, arg_string):
        if arg_string.startswith("->"):
            return None
        return super()._parse_optional(arg_string)


#: Each subcommand, declared once: its handler, its help line and its
#: arguments in declaration order, each option string or positional name
#: with the keywords of its add_argument call, which build_parser reads.
_COMMANDS = {
    "eval": (cmd_eval, "evaluate a formula at a world", {
        "--sig": {"required": True},
        "--model": {"required": True},
        "--world": {"type": _integer, "required": True},
        "formula": {},
    }),
    "sat": (cmd_sat, "check sequent satisfaction on a model", {
        "--sig": {"required": True},
        "--model": {"required": True},
        "--world": {"type": _integer},
        "sequent": {},
    }),
    "decide": (cmd_decide, "bounded countermodel search", {
        "--sig": {"required": True},
        "--sigma": {},
        "--logic": {"default": "mv-K"},
        "--bound": {"type": _integer, "default": 2},
        "--ceiling": {"type": _ceiling,
                      "help": f"models examined over the whole search (default "
                              f"{ENUM_CEILING_VAR} or {DEFAULT_ENUM_CEILING})"},
        "sequent": {},
    }),
    "check-proof": (cmd_check_proof, "check a proof script", {
        "--sig": {"required": True},
        "--sigma": {},
        "--logic": {"default": "mv-K"},
        "proof": {},
    }),
    "filter": (cmd_filter, "filter a model through formulas", {
        "--sig": {"required": True},
        "--model": {"required": True},
        "--logic": {"default": "mv-K"},
        "--phi": {"required": True,
                  "help": "file of formulas; their closure is used"},
    }),
    "neg-scan": (cmd_neg_scan, "scan unary tables for modal duality", {
        "--n": {"type": _integer, "required": True},
        "--bound": {"type": _integer, "required": True},
        "--ceiling": {"type": _ceiling,
                      "help": "models examined over the whole scan"},
    }),
    "translate": (cmd_translate,
                  "insert necessity operators into a modal-free sequent", {
        "--sig": {"required": True},
        "--optimized": {"action": "store_true",
                        "help": "skip the box on monotone connectives"},
        "sequent": {"help": "file containing one sequent"},
    }),
    "frame-check": (cmd_frame_check, "test a frame property", {
        "--model": {"required": True},
        "frame_class": {},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="mvmodal",
        description="Many-valued modal logic: evaluation, decision, proofs")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (func, summary, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for argument, keywords in arguments.items():
            p.add_argument(argument, **keywords)
    return top


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once and reused: parsing leaves no state
    in the parser, and building it costs about as much as a small query."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parsed(("argv", tuple(argv)), _shared_parser().parse_args, argv)
    except SystemExit as exc:  # help or a usage error, never held
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except EnumerationCeilingError:  # decide and neg-scan
        print("aborted: ceiling")
        return 2
    except (ParseError, UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed stdout shows here, inside the try
    except BrokenPipeError as exc:
        # the interpreter flushes stdout again at exit; give that flush
        # somewhere to write
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        code = 2
    raise SystemExit(code)
