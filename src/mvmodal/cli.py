"""Command-line interface.

Exit status contract: 0 for an affirmative result, 1 for a negative
result with a witness on stdout, 2 for usage or input errors (reported
on stderr).  Output is machine-parseable: the first stdout line is the
verdict, witnesses follow in the standard file formats.  A closed
stdout and running out of memory are errors too: one line on stderr and
status 2.

A process holds at most 4 (`_MODEL_MEMO_SIZE`) parsed model files, one
per text whatever the signature, the most recently used kept.  `eval`,
`sat`, `filter` and `frame-check` on a file that an earlier call of the
process read do not parse it again.  Each call still reads the file, so
an edited file is parsed again, and an error is never held.  Answers,
exit statuses and messages are unchanged; on the error path a malformed
file is parsed twice.

argv is read without argparse when argparse would accept it unchanged: a
subcommand, then that subcommand's exact option strings, each at most
once, each value not beginning with "-" (a sequent beginning with "->"
is a value), every required option and as many positionals as it takes.
Every other argv, such as help, "--", an abbreviated or "="-joined
option, a negative number or any error, goes to argparse, so its
messages and exit status are argparse's own.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import OrderedDict
from functools import cache
from typing import NamedTuple, Optional

from .core import Signature, TruthDomain, is_modal_free, subformula_closure
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


def _signature(args) -> Signature:
    return parse_signature(_read(args.sig))


#: frame-check's signature: only the relation matters there, and labels
#: up to 2^31 are read.  Every model file is first parsed under it.
PERMISSIVE = Signature(TruthDomain(2 ** 31), {})

#: How many parsed model files a process holds.
_MODEL_MEMO_SIZE = 4

#: Parsed model files by text, least recently used first.
_models: OrderedDict[str, KripkeModel] = OrderedDict()


def _model(args, sig: Signature) -> KripkeModel:
    """`parse_model(text, sig)` of the file `args.model`, from the memo.

    A text is parsed once under `PERMISSIVE`.  A model with a label above
    `sig.n` (the largest label a model records), and a text that does
    not parse under `PERMISSIVE`, is parsed again under `sig`: that
    raises the error and span of a fresh parse, or, in a domain wider
    than 2^31, reads the model, which is not held.
    """
    text = _read(args.model)
    model = _models.get(text)
    if model is None:
        try:
            model = parse_model(text, PERMISSIVE)
        except ParseError:
            return parse_model(text, sig)
        _models[text] = model
        if len(_models) > _MODEL_MEMO_SIZE:
            _models.popitem(last=False)
    else:
        _models.move_to_end(text)
    return model if model._top <= sig.n else parse_model(text, sig)


def _member(kind: type, name: str, what: str):
    """The member of `kind` whose value is `name`; `what` names the kind."""
    try:
        return kind(name)
    except ValueError:
        raise UsageError(f"unknown {what} {name!r}; choose from "
                         + ", ".join(m.value for m in kind)) from None


def _sigma(args, sig: Signature):
    if getattr(args, "sigma", None):
        return parse_sequents(_read(args.sigma), sig)
    return ()


def cmd_eval(args) -> int:
    sig = _signature(args)
    model = _model(args, sig)
    formula = parse_formula(args.formula, sig)
    if not 0 <= args.world < model.world_count:
        raise UsageError(f"world {args.world} not in the model")
    print(evaluate(sig, model, args.world, formula))
    return 0


def cmd_sat(args) -> int:
    sig = _signature(args)
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
    sig = _signature(args)
    sigma = _sigma(args, sig)
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
    sig = _signature(args)
    sigma = _sigma(args, sig)
    logic = _member(LogicId, args.logic, "logic")
    derivation = parse_proof(_read(args.proof), sig, logic, sigma)
    violation = check_derivation(derivation, sig)
    if violation is None:
        print("accepted")
        return 0
    print(f"violation at step {violation.step}: "
          f"{violation.rule}: {violation.reason}")
    return 1


def cmd_filter(args) -> int:
    sig = _signature(args)
    model = _model(args, sig)
    logic = _member(LogicId, args.logic, "logic")
    phi = parse_formulas(_read(args.phi), sig)
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
    sig = _signature(args)
    sequent = parse_sequent(_read(args.sequent), sig)
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


def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="mvmodal",
        description="Many-valued modal logic: evaluation, decision, proofs")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("eval", cmd_eval, help="evaluate a formula at a world")
    p.add_argument("--sig", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--world", type=int, required=True)
    p.add_argument("formula")

    p = add("sat", cmd_sat, help="check sequent satisfaction on a model")
    p.add_argument("--sig", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--world", type=int)
    p.add_argument("sequent")

    p = add("decide", cmd_decide, help="bounded countermodel search")
    p.add_argument("--sig", required=True)
    p.add_argument("--sigma")
    p.add_argument("--logic", default="mv-K")
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--ceiling", type=_ceiling, default=None,
                   help=f"models examined over the whole search (default "
                        f"{ENUM_CEILING_VAR} or {DEFAULT_ENUM_CEILING})")
    p.add_argument("sequent")

    p = add("check-proof", cmd_check_proof, help="check a proof script")
    p.add_argument("--sig", required=True)
    p.add_argument("--sigma")
    p.add_argument("--logic", default="mv-K")
    p.add_argument("proof")

    p = add("filter", cmd_filter, help="filter a model through formulas")
    p.add_argument("--sig", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--logic", default="mv-K")
    p.add_argument("--phi", required=True,
                   help="file of formulas; their closure is used")

    p = add("neg-scan", cmd_neg_scan,
            help="scan unary tables for modal duality")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--ceiling", type=_ceiling, default=None,
                   help="models examined over the whole scan")

    p = add("translate", cmd_translate,
            help="insert necessity operators into a modal-free sequent")
    p.add_argument("--sig", required=True)
    p.add_argument("--optimized", action="store_true",
                   help="skip the box on monotone connectives")
    p.add_argument("sequent", help="file containing one sequent")

    p = add("frame-check", cmd_frame_check, help="test a frame property")
    p.add_argument("--model", required=True)
    p.add_argument("frame_class")
    return top


# Built on the first call to main and reused: parsing leaves no state in
# the parser, and building it costs about as much as a small query.  Its
# actions are also the only declaration of the options: the argv reader's
# table below is built from them.
_shared_parser = cache(build_parser)


class _Command(NamedTuple):
    """What the argv reader needs of one subcommand's parser."""
    options: dict[str, argparse.Action]  # each exact option string
    positionals: tuple[argparse.Action, ...]
    required: frozenset[argparse.Action]
    defaults: dict[str, object]  # the namespace before any argument


def _command(parser: argparse.ArgumentParser) -> Optional[_Command]:
    """The table of `parser`, or None when it has an action whose effect
    the reader does not repeat: such a subcommand is left to argparse."""
    options, positionals, defaults = {}, [], {}
    for action in parser._actions:
        if type(action) is argparse._HelpAction:
            continue  # its option strings are unknown to the reader
        kind = type(action)
        if action.default is argparse.SUPPRESS or not (
                kind is argparse._StoreTrueAction
                or kind is argparse._StoreAction
                and action.nargs is None and action.choices is None
                # argparse passes a string default through the type
                and not (isinstance(action.default, str) and action.type)):
            return None
        options.update(dict.fromkeys(action.option_strings, action))
        if not action.option_strings:
            positionals.append(action)
        defaults[action.dest] = action.default
    if parser._mutually_exclusive_groups:
        return None
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    required = frozenset(a for a in options.values() if a.required)
    return _Command(options, tuple(positionals), required, defaults)


@cache
def _commands() -> tuple[str, dict[str, _Command]]:
    """The subcommands' dest and, by name, each subcommand's table."""
    (sub,) = (a for a in _shared_parser()._actions
              if type(a) is argparse._SubParsersAction)
    tables = {name: _command(parser) for name, parser in sub.choices.items()}
    return sub.dest, {name: t for name, t in tables.items() if t is not None}


def _plain(arg: str) -> bool:
    """Whether argparse reads `arg` as a value and never as an option."""
    return not arg.startswith("-") or arg.startswith("->")


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse would return for `argv`, or None to leave
    `argv` to argparse.

    Reads only argv that argparse accepts unchanged: a subcommand, then
    its exact option strings, each at most once and each value plain
    (see `_plain`), every required option and the positionals' count.
    Everything else, from help and `--` to every error, is declined, so
    argparse writes every message and chooses every exit status.
    """
    dest, commands = _commands()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {dest: argv[0], **command.defaults}
    seen: set[argparse.Action] = set()
    plain = []
    args = iter(argv[1:])
    try:
        for arg in args:
            if _plain(arg):
                plain.append(arg)
                continue
            action = command.options.get(arg)
            if action is None or action in seen:
                return None
            seen.add(action)
            if action.nargs == 0:
                values[action.dest] = action.const
                continue
            value = next(args, "-")  # a missing value is declined
            if not _plain(value):
                return None
            values[action.dest] = action.type(value) if action.type else value
        if (len(plain) != len(command.positionals)
                or not command.required <= seen):
            return None
        for action, value in zip(command.positionals, plain):
            values[action.dest] = action.type(value) if action.type else value
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None  # argparse reports the value
    return argparse.Namespace(**values)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = _shared_parser().parse_args(argv)
        except SystemExit as exc:
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
