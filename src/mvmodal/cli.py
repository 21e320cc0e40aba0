"""Command-line interface.

Exit status contract: 0 for an affirmative result, 1 for a negative
result with a witness on stdout, 2 for usage or input errors (reported
on stderr).  Output is machine-parseable: the first stdout line is the
verdict, witnesses follow in the standard file formats.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Optional

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
from .semantics import FrameClass, evaluate, frame_check, refuting_worlds


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc


def _signature(args) -> Signature:
    return parse_signature(_read(args.sig))


def _logic(name: str) -> LogicId:
    try:
        return LogicId(name)
    except ValueError:
        raise UsageError(
            f"unknown logic {name!r}; choose from "
            + ", ".join(l.value for l in LogicId)) from None


def _frame_class(name: str) -> FrameClass:
    try:
        return FrameClass(name)
    except ValueError:
        raise UsageError(
            f"unknown frame class {name!r}; choose from "
            + ", ".join(c.value for c in FrameClass)) from None


def _sigma(args, sig: Signature):
    if getattr(args, "sigma", None):
        return parse_sequents(_read(args.sigma), sig)
    return ()


def cmd_eval(args) -> int:
    sig = _signature(args)
    model = parse_model(_read(args.model), sig)
    formula = parse_formula(args.formula, sig)
    if not 0 <= args.world < model.world_count:
        raise UsageError(f"world {args.world} not in the model")
    print(evaluate(sig, model, args.world, formula))
    return 0


def cmd_sat(args) -> int:
    sig = _signature(args)
    model = parse_model(_read(args.model), sig)
    sequent = parse_sequent(args.sequent, sig)
    if args.world is not None and not 0 <= args.world < model.world_count:
        raise UsageError(f"world {args.world} not in the model")
    witness = next((w for w in refuting_worlds(sig, model, sequent)
                    if args.world in (None, w)), None)
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
    logic = _logic(args.logic)
    try:
        outcome = decide(sig, sigma, goal, logic, args.bound,
                         ceiling=args.ceiling)
    except EnumerationCeilingError:
        print("aborted: ceiling")
        return 2
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
    logic = _logic(args.logic)
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
    model = parse_model(_read(args.model), sig)
    logic = _logic(args.logic)
    phi = parse_formulas(_read(args.phi), sig)
    try:
        filtered = filter_model(sig, model, subformula_closure(phi), logic)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print("filtered")
    for idx, members in enumerate(filtered.classes):
        print(f"class {idx}: {' '.join(map(str, members))}")
    print(render_model(filtered.model), end="")
    return 0


def cmd_neg_scan(args) -> int:
    if args.n < 2:
        raise UsageError("the domain needs at least 2 values")
    try:
        survivors = uniqueness_scan(args.n, args.bound, ceiling=args.ceiling)
    except EnumerationCeilingError:
        print("aborted: ceiling")
        return 2
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
    # only the relation matters here, so labels are left unconstrained
    permissive = Signature(TruthDomain(2 ** 31), {})
    model = parse_model(_read(args.model), permissive)
    if frame_check(model, _frame_class(args.frame_class)):
        print("yes")
        return 0
    print("no")
    return 1


def _ceiling(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
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
# the parser, and building it costs about as much as a small query.
_shared_parser = cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ParseError, UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
