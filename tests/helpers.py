"""Shared generators and mutation helpers for the test suite."""

from __future__ import annotations

import random
from typing import Iterator

from mvmodal.core import (
    Apply,
    Box,
    Diamond,
    Formula,
    LabelledFormula,
    Sequent,
    Signature,
    Var,
    apply_connective,
)
from mvmodal.proofs import Derivation, Step
from mvmodal.semantics import KripkeModel

# ---------------------------------------------------------------------------
# Oracles: the recursive evaluators that label_vectors replaced, kept
# verbatim.  Each reads only what evaluation at `world` reaches.
# ---------------------------------------------------------------------------

Cache = dict[tuple[int, Formula], int]


def _eval(sig: Signature, model: KripkeModel, world: int, formula: Formula,
          cache: Cache) -> int:
    key = (world, formula)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if isinstance(formula, Var):
        out = model.value(world, formula.name)
    elif isinstance(formula, Apply):
        args = tuple(_eval(sig, model, world, a, cache) for a in formula.args)
        out = apply_connective(sig, formula.conn, args)
    elif isinstance(formula, Box):
        succ = model.successors(world)
        out = min((_eval(sig, model, v, formula.sub, cache) for v in succ),
                  default=sig.n)
    elif isinstance(formula, Diamond):
        succ = model.successors(world)
        out = max((_eval(sig, model, v, formula.sub, cache) for v in succ),
                  default=1)
    else:
        raise TypeError(f"not a formula: {formula!r}")
    cache[key] = out
    return out


def _eval_mvil(sig: Signature, model: KripkeModel, world: int, formula: Formula,
               cache: Cache) -> int:
    key = (world, formula)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if isinstance(formula, Var):
        out = model.value(world, formula.name)
    else:
        succ = model.successors(world)
        if not succ:
            raise ValueError(f"world {world} has no successors; "
                             "interpretation is not reflexive")
        out = min(apply_connective(
            sig, formula.conn,
            tuple(_eval_mvil(sig, model, v, a, cache) for a in formula.args))
            for v in succ)
    cache[key] = out
    return out


def rand_formula(rng: random.Random, sig: Signature, variables: list[str],
                 depth: int, modal: bool = True) -> Formula:
    choices = ["var"]
    if depth > 0:
        choices += ["conn"] * (2 if sig.connectives else 0)
        if modal:
            choices += ["box", "dia"]
    pick = rng.choice(choices)
    if pick == "var":
        return Var(rng.choice(variables))
    if pick == "box":
        return Box(rand_formula(rng, sig, variables, depth - 1, modal))
    if pick == "dia":
        return Diamond(rand_formula(rng, sig, variables, depth - 1, modal))
    name = rng.choice(sorted(sig.connectives))
    arity = sig.connectives[name].arity
    return Apply(name, tuple(rand_formula(rng, sig, variables, depth - 1, modal)
                             for _ in range(arity)))


def rand_sequent(rng: random.Random, sig: Signature, variables: list[str],
                 depth: int = 2, max_side: int = 3) -> Sequent:
    def side():
        return [LabelledFormula(rand_formula(rng, sig, variables, depth),
                                rng.randint(1, sig.n))
                for _ in range(rng.randint(0, max_side))]
    return Sequent(side(), side())


def _flip_side(side: tuple[LabelledFormula, ...], pos: int, new_label: int):
    out = list(side)
    out[pos] = LabelledFormula(out[pos].formula, new_label)
    return out


def label_mutations(derivation: Derivation, n: int) -> Iterator[Derivation]:
    """Every derivation obtained by changing one label in one stated sequent."""
    for idx, step in enumerate(derivation.steps):
        for side_name in ("antecedent", "succedent"):
            side = getattr(step.conclusion, side_name)
            for pos, lf in enumerate(side):
                for new_label in range(1, n + 1):
                    if new_label == lf.label:
                        continue
                    mutated_side = _flip_side(side, pos, new_label)
                    if side_name == "antecedent":
                        sequent = Sequent(mutated_side, step.conclusion.succedent)
                    else:
                        sequent = Sequent(step.conclusion.antecedent, mutated_side)
                    steps = list(derivation.steps)
                    steps[idx] = Step(sequent, step.justification, step.premises)
                    yield Derivation(derivation.logic, derivation.hypotheses,
                                     tuple(steps))


def premise_drop_mutations(derivation: Derivation) -> Iterator[Derivation]:
    """Every derivation obtained by dropping one premise reference."""
    for idx, step in enumerate(derivation.steps):
        for pos in range(len(step.premises)):
            premises = step.premises[:pos] + step.premises[pos + 1:]
            steps = list(derivation.steps)
            steps[idx] = Step(step.conclusion, step.justification, premises)
            yield Derivation(derivation.logic, derivation.hypotheses,
                             tuple(steps))
