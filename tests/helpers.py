"""Shared generators and mutation helpers for the test suite."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import permutations, product
from operator import index
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from hypothesis import strategies as st

from mvmodal import decision
from mvmodal.core import (
    RESERVED_NAMES,
    Apply,
    Box,
    Connective,
    Diamond,
    Formula,
    LabelledFormula,
    Sequent,
    Signature,
    TruthDomain,
    Var,
    all_entries,
    apply_connective,
    closure_order,
    labelled_key,
    make_signature,
)
from mvmodal.decision import Countermodel, ProvedValid, ValidUpTo, filtration_bound
from mvmodal.duality import (
    _CLAIMS,
    _CLAIMS_ORDER,
    DualityReport,
    DualityWitness,
    UnaryTable,
    _first_break,
    _first_sets,
    _spend_whole_scan,
    negation_connective,
)
from mvmodal.parser import (
    MAX_FORMULA_DEPTH,
    MAX_WORLDS,
    ParseError,
    SourceSpan,
    _quote,
)
from mvmodal.proofs import (
    SCHEME_FRAMES,
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
    Resolution,
    RightShift,
    RightWeaken,
    RuleBox,
    RuleDiamond,
    Step,
    SuperMultiShift,
)
from mvmodal.sampling import EDGE_PROBABILITY
from mvmodal.semantics import (
    FrameClass,
    KripkeModel,
    label_vectors,
    model_satisfies,
    satisfies_sequent,
)

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


# ---------------------------------------------------------------------------
# Oracle: refuting_worlds before it filtered the worlds member by member,
# kept verbatim but for the evaluation cache it no longer takes.  It tests
# every world against every member.
# ---------------------------------------------------------------------------


def refuting_worlds(sig: Signature, model: KripkeModel,
                    sequent: Sequent) -> Iterator[int]:
    vectors = label_vectors(sig, model, closure_order(sequent.formulas()))
    ante = [(vectors[lf.formula], lf.label) for lf in sequent.antecedent]
    succ = [(vectors[lf.formula], lf.label) for lf in sequent.succedent]
    return (w for w in model.worlds
            if all(vec[w] == k for vec, k in ante)
            and not any(vec[w] == k for vec, k in succ))


# ---------------------------------------------------------------------------
# Oracle: the nested formula key that the flat token key replaced, kept
# verbatim but for its name.
# ---------------------------------------------------------------------------


def formula_key(formula: Formula):
    """A total structural order on formulas, for canonical rendering."""
    if isinstance(formula, Var):
        return (0, formula.name)
    if isinstance(formula, Apply):
        return (1, formula.conn, tuple(formula_key(a) for a in formula.args))
    if isinstance(formula, Box):
        return (2, formula_key(formula.sub))
    if isinstance(formula, Diamond):
        return (3, formula_key(formula.sub))
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Oracle: the powerset filter that the frame-class generators replaced,
# `_relations` and `frame_check` kept verbatim.
# ---------------------------------------------------------------------------


def _relations(world_count: int) -> Iterator[frozenset[tuple[int, int]]]:
    pairs = [(u, v) for u in range(world_count) for v in range(world_count)]
    for mask in range(1 << len(pairs)):
        yield frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)


def frame_check(model: KripkeModel, frame_class: FrameClass) -> bool:
    """Direct quantifier evaluation of the frame property over the worlds."""
    edges = model.edges
    worlds = model.worlds
    if frame_class is FrameClass.ANY:
        return True
    if frame_class is FrameClass.SERIAL:
        return all(model.successors(u) for u in worlds)
    if frame_class is FrameClass.REFLEXIVE:
        return all((u, u) in edges for u in worlds)
    if frame_class is FrameClass.TRANSITIVE:
        return all((u, w) in edges
                   for (u, v) in edges for w in model.successors(v))
    if frame_class is FrameClass.SYMMETRIC:
        return all((v, u) in edges for (u, v) in edges)
    if frame_class is FrameClass.EUCLIDEAN:
        return all((v, w) in edges
                   for u in worlds
                   for v in model.successors(u)
                   for w in model.successors(u))
    if frame_class is FrameClass.PREORDER:
        return (frame_check(model, FrameClass.REFLEXIVE)
                and frame_check(model, FrameClass.TRANSITIVE))
    if frame_class is FrameClass.EQUIVALENCE:
        return (frame_check(model, FrameClass.REFLEXIVE)
                and frame_check(model, FrameClass.EUCLIDEAN))
    raise ValueError(f"unknown frame class {frame_class!r}")


def edges_of(rows: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The edge set of decision._relations' successor rows, by a
    comprehension of its own rather than semantics.edge_set."""
    worlds = range(len(rows))
    return frozenset((u, v) for u in worlds for v in worlds if rows[u] >> v & 1)


def oracle_relations(world_count: int, frame_class: FrameClass
                     ) -> Iterator[frozenset[tuple[int, int]]]:
    """Every subset of the world square that passes the oracle frame_check."""
    for edges in _relations(world_count):
        candidate = KripkeModel(world_count, edges)
        if not frame_check(candidate, frame_class):
            continue
        yield edges


# ---------------------------------------------------------------------------
# Brute force: the relations on which world 0 reaches every world, up to
# isomorphism fixing world 0, by relabelling the oracle's edge sets.
# ---------------------------------------------------------------------------


def relabellings(world_count: int) -> list[tuple[int, ...]]:
    """Every permutation of the worlds that fixes world 0; perm[u] is u's
    new name."""
    return [(0, *rest) for rest in permutations(range(1, world_count))]


def relabel(edges: frozenset[tuple[int, int]], perm: tuple[int, ...]
            ) -> frozenset[tuple[int, int]]:
    return frozenset((perm[u], perm[v]) for u, v in edges)


def reaches_all(edges: frozenset[tuple[int, int]], world_count: int) -> bool:
    """World 0 reaches every world along the edges."""
    seen, todo = {0}, [0]
    while todo:
        u = todo.pop()
        for x, v in edges:
            if x == u and v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == world_count


def rooted_key(edges: frozenset[tuple[int, int]], world_count: int) -> tuple:
    """The least sorted edge list over the relabellings fixing 0: two edge
    sets share it iff one relabels onto the other fixing 0."""
    return min(tuple(sorted(relabel(edges, perm)))
               for perm in relabellings(world_count))


@lru_cache(maxsize=None)
def _rooted_any(world_count: int) -> dict[tuple, frozenset[tuple[int, int]]]:
    classes: dict[tuple, frozenset[tuple[int, int]]] = {}
    for edges in _relations(world_count):
        if reaches_all(edges, world_count):
            classes.setdefault(rooted_key(edges, world_count), edges)
    return classes


def rooted_classes(world_count: int, frame_class: FrameClass
                   ) -> dict[tuple, frozenset[tuple[int, int]]]:
    """The isomorphism classes fixing 0 of the frame class's relations on
    which world 0 reaches every world, by rooted_key, each with its first
    member in the powerset order.  A frame class is closed under
    isomorphism, so each class is tested by the oracle frame_check on
    that member alone."""
    return {key: edges for key, edges in _rooted_any(world_count).items()
            if frame_check(KripkeModel(world_count, edges), frame_class)}


@lru_cache(maxsize=None)
def _class_relations(world_count: int, frame_class: FrameClass
                     ) -> list[frozenset[tuple[int, int]]]:
    # fewest edges first, so a drawn relation shrinks toward the smallest
    return sorted(oracle_relations(world_count, frame_class),
                  key=lambda edges: (len(edges), sorted(edges)))


def class_models(frame_class: FrameClass) -> st.SearchStrategy[KripkeModel]:
    """Hypothesis strategy: models of the frame class on 1 to 3 worlds, with
    p and q valued in 1..3 at every world.

    Shrinks toward fewer worlds, fewer edges and label 1.
    """
    @st.composite
    def models(draw):
        world_count = draw(st.integers(1, 3))
        edges = draw(st.sampled_from(_class_relations(world_count, frame_class)))
        slots = list(product(range(world_count), ("p", "q")))
        labels = draw(st.lists(st.integers(1, 3), min_size=len(slots),
                               max_size=len(slots)))
        return KripkeModel(world_count, edges, dict(zip(slots, labels)))
    return models()


def logic_models() -> st.SearchStrategy[tuple[LogicId, KripkeModel]]:
    """Hypothesis strategy: a logic and a model of its frame class."""
    return st.sampled_from(list(LogicId)).flatmap(
        lambda logic: st.tuples(st.just(logic), class_models(logic.frame_class)))


def oracle_decide(sig: Signature, hypotheses: tuple[Sequent, ...],
                  goal: Sequent, frame_class: FrameClass, bound: int,
                  relations=oracle_relations):
    """decide's outcome over the oracle relations, first countermodel first.

    Over `relations=decision._relations` it searches the models decide
    searches, in the same order, each built and checked in full; that
    generator's successor rows become edges by edges_of.
    """
    variables = sorted({f.name for s in (goal, *hypotheses)
                        for f in closure_order(s.formulas())
                        if isinstance(f, Var)})
    for world_count in range(1, bound + 1):
        slots = [(u, p) for u in range(world_count) for p in variables]
        for edges in relations(world_count, frame_class):
            if not isinstance(edges, frozenset):
                edges = edges_of(edges)
            for labels in product(range(1, sig.n + 1), repeat=len(slots)):
                model = KripkeModel(world_count, edges, dict(zip(slots, labels)))
                if hypotheses and not model_satisfies(sig, model, hypotheses):
                    continue
                for world in model.worlds:
                    if not satisfies_sequent(sig, model, world, goal):
                        return Countermodel(model, world)
    if bound >= filtration_bound(hypotheses, goal, sig.n):
        return ProvedValid(bound)
    return ValidUpTo(bound)


def shared_budget(ceiling: Union[int, decision._Budget, None]) -> decision._Budget:
    """A fresh budget for an int ceiling, or the given budget, so that the
    oracles below can count one scan's models together."""
    if isinstance(ceiling, decision._Budget):
        return ceiling
    return decision._Budget(ceiling)


# ---------------------------------------------------------------------------
# Oracle: decision.enumerate_models, the model-by-model enumeration the
# bit-sliced search replaced, as it was before each relation's later
# valuations reused its validated model; kept verbatim but for its name,
# the module of _Budget and _relations, the edges of _relations' rows,
# and shared_budget.
# ---------------------------------------------------------------------------


def oracle_models(variables: Iterable[str], n: int, world_count: int,
                  frame_class: FrameClass,
                  ceiling: Union[int, decision._Budget, None] = None
                  ) -> Iterator[KripkeModel]:
    if world_count < 1:
        raise ValueError("world_count must be >= 1")
    variables = sorted(set(variables))
    budget = shared_budget(ceiling)
    slots = [(u, p) for u in range(world_count) for p in variables]
    for rows in decision._relations(world_count, frame_class):
        edges = edges_of(rows)
        for labels in product(range(1, n + 1), repeat=len(slots)):
            budget.spend()
            yield KripkeModel(world_count, edges, dict(zip(slots, labels)))


# ---------------------------------------------------------------------------
# The search's models one at a time: the chunks decision._chunks cuts
# from decision._relations, copy i of each chunk relation carrying
# labelling start + i (decision._labelling).  Each model is counted as it
# is drawn, so a ceiling aborts where a model-by-model enumeration would.
# ---------------------------------------------------------------------------


def search_models(variables: Iterable[str], n: int, world_count: int,
                  frame_class: FrameClass, ceiling: Optional[int] = None
                  ) -> Iterator[KripkeModel]:
    budget = decision._Budget(ceiling)
    slots = [(u, p) for u in range(world_count) for p in sorted(set(variables))]
    relations = decision._relations(world_count, frame_class)
    for chunk, start, count, top in decision._chunks(relations, world_count,
                                                     len(slots), n, budget):
        for rows in chunk:
            edges = edges_of(rows)
            for number in range(start, start + count):
                budget.spend()
                labels = decision._labelling(number, top, len(slots))
                yield KripkeModel(world_count, edges, zip(slots, labels))


# ---------------------------------------------------------------------------
# Oracle: duality_holds before it walked the search's stacked blocks,
# its model-by-model loop kept verbatim but for its name and its models,
# drawn from oracle_models.
# ---------------------------------------------------------------------------


def oracle_duality_holds(table: UnaryTable, n: int, bound: int,
                         ceiling: Union[int, decision._Budget, None] = None
                         ) -> DualityReport:
    domain = TruthDomain(n)
    try:
        # Signature checks the table: n entries, each image in 1..n
        sig = Signature(domain, {"neg": negation_connective(table)})
    except ValueError:
        raise ValueError(f"not a unary table over 1..{n}: {table}") from None
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    budget = shared_budget(ceiling)
    for world_count in range(1, bound + 1):
        for model in oracle_models(["p"], n, world_count, FrameClass.ANY,
                                   ceiling=budget):
            val = label_vectors(sig, model, _CLAIMS_ORDER)
            for world in model.worlds:
                for side, plain, dual in _CLAIMS:
                    left = val[plain][world]
                    right = val[dual][world]
                    if left != right:
                        # The sequent (plain, left) -> (dual, left) fails here.
                        return DualityReport(False,
                                             DualityWitness(model, world, left, side))
    return DualityReport(True)


# ---------------------------------------------------------------------------
# Oracle: uniqueness_scan as a loop over all n^n tables, before it walked
# partial tables.  Each table is checked against every set of successor
# values, the empty set included, and charged the count of its first
# failing set or, for a survivor, the whole scan.  Kept verbatim but for
# its name, a shared budget and no limit on n: it takes about a second
# at n = 7.
# ---------------------------------------------------------------------------


def oracle_uniqueness_scan(n: int, bound: int,
                           ceiling: Union[int, decision._Budget, None] = None
                           ) -> tuple[UnaryTable, ...]:
    TruthDomain(n)  # the domain check of duality_holds: n >= 2
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    budget = shared_budget(ceiling)
    firsts = list(_first_sets(n, bound, budget.ceiling))
    survivors = []
    for table in product(range(1, n + 1), repeat=n):
        broken = _first_break(table, n, firsts)
        if broken is None:
            _spend_whole_scan(budget, n, bound)
            survivors.append(table)
        else:
            budget.spend(broken[0].count)
    return tuple(survivors)


# ---------------------------------------------------------------------------
# Oracle: the filtration's class relation before the projection and the
# comparison table replaced it, `_class_relation` kept verbatim but for
# its name.
# ---------------------------------------------------------------------------


def class_relation(model: KripkeModel, logic: LogicId,
                   phi: tuple[Formula, ...],
                   classes: tuple[tuple[int, ...], ...],
                   reps: tuple[int, ...],
                   val: dict[Formula, tuple[int, ...]]) -> set[tuple[int, int]]:
    boxed = [f for f in phi if isinstance(f, Box)]
    diamonded = [f for f in phi if isinstance(f, Diamond)]

    def related(u: int, v: int) -> bool:
        if logic in (LogicId.MV_K, LogicId.MV_D, LogicId.MV_T):
            raise AssertionError("projection logics handled separately")
        if logic is LogicId.MV_K4:
            return (all(val[f][u] <= val[f][v] and val[f][u] <= val[f.sub][v]
                        for f in boxed)
                    and all(val[f][u] >= val[f][v] and val[f][u] >= val[f.sub][v]
                            for f in diamonded))
        if logic is LogicId.MV_S4:
            return (all(val[f][u] <= val[f][v] for f in boxed)
                    and all(val[f][u] >= val[f][v] for f in diamonded))
        if logic is LogicId.MV_B:
            return (all(val[f][u] <= val[f.sub][v] and val[f][v] <= val[f.sub][u]
                        for f in boxed)
                    and all(val[f][u] >= val[f.sub][v] and val[f][v] >= val[f.sub][u]
                            for f in diamonded))
        if logic is LogicId.MV_S5:
            return (all(val[f][u] == val[f][v] for f in boxed)
                    and all(val[f][u] == val[f][v] for f in diamonded))
        raise ValueError(f"unknown logic {logic!r}")

    edges: set[tuple[int, int]] = set()
    if logic in (LogicId.MV_K, LogicId.MV_D, LogicId.MV_T):
        for i, members_i in enumerate(classes):
            for j, members_j in enumerate(classes):
                if any(v in model.successors(u)
                       for u in members_i for v in members_j):
                    edges.add((i, j))
    else:
        for i, u in enumerate(reps):
            for j, v in enumerate(reps):
                if related(u, v):
                    edges.add((i, j))
    return edges


# ---------------------------------------------------------------------------
# Oracle: the set-based sampler that the bitmask rows replaced,
# `random_relation` and its two closures kept verbatim.
# ---------------------------------------------------------------------------


def _transitive_closure(edges: set[tuple[int, int]], worlds: range) -> None:
    changed = True
    while changed:
        changed = False
        for u, v in list(edges):
            for w in worlds:
                if (v, w) in edges and (u, w) not in edges:
                    edges.add((u, w))
                    changed = True


def _euclidean_closure(edges: set[tuple[int, int]], worlds: range) -> None:
    changed = True
    while changed:
        changed = False
        for u in worlds:
            succ = [v for v in worlds if (u, v) in edges]
            for v in succ:
                for w in succ:
                    if (v, w) not in edges:
                        edges.add((v, w))
                        changed = True


def random_relation(rng: random.Random, world_count: int,
                    frame_class: FrameClass) -> frozenset[tuple[int, int]]:
    worlds = range(world_count)
    edges = {(u, v) for u in worlds for v in worlds
             if rng.random() < EDGE_PROBABILITY}
    if frame_class in (FrameClass.REFLEXIVE, FrameClass.PREORDER,
                       FrameClass.EQUIVALENCE):
        edges.update((u, u) for u in worlds)
    if frame_class in (FrameClass.SYMMETRIC, FrameClass.EQUIVALENCE):
        edges.update((v, u) for u, v in list(edges))
    if frame_class in (FrameClass.TRANSITIVE, FrameClass.PREORDER,
                       FrameClass.EQUIVALENCE):
        _transitive_closure(edges, worlds)
    if frame_class is FrameClass.EUCLIDEAN:
        _euclidean_closure(edges, worlds)
    if frame_class is FrameClass.SERIAL:
        for u in worlds:
            if not any(x == u for x, _ in edges):
                edges.add((u, rng.randrange(world_count)))
    return frozenset(edges)


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


def nested_formula(kind: str, depth: int) -> str:
    """A formula `depth` levels deep of one shape: a Box chain, a
    connective chain, parentheses, Box and connective levels in turn, or
    Dia and connective levels in turn with each Dia in a first argument."""
    if kind == "box":
        return "Box " * depth + "p"
    if kind == "imp":
        return "imp(p, " * depth + "p" + ")" * depth
    if kind == "paren":
        return "(" * depth + "p" + ")" * depth
    if kind == "mixed":
        outer = "".join("Box " if i % 2 else "imp(q, " for i in range(depth))
        return outer + "p" + ")" * ((depth + 1) // 2)
    outer = "".join("Dia " if i % 2 else "imp(" for i in range(depth))
    return outer + "p" + ", q)" * ((depth + 1) // 2)


def rand_sequent(rng: random.Random, sig: Signature, variables: list[str],
                 depth: int = 2, max_side: int = 3) -> Sequent:
    def side():
        return [LabelledFormula(rand_formula(rng, sig, variables, depth),
                                rng.randint(1, sig.n))
                for _ in range(rng.randint(0, max_side))]
    return Sequent(side(), side())


def _flip_side(side: list[LabelledFormula], pos: int, new_label: int):
    out = list(side)
    out[pos] = LabelledFormula(out[pos].formula, new_label)
    return out


def label_mutations(derivation: Derivation, n: int) -> Iterator[Derivation]:
    """Every derivation obtained by changing one label in one stated sequent."""
    for idx, step in enumerate(derivation.steps):
        for side_name in ("antecedent", "succedent"):
            # in canonical order, so the mutations come in a fixed order
            side = sorted(getattr(step.conclusion, side_name), key=labelled_key)
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


# ---------------------------------------------------------------------------
# Parser oracle: the token reader that the word list replaced, kept as it
# was.  One Token per regex match, TokenStream methods per token and a
# recursive descent for formulas.  Its errors are mvmodal's ParseError.
# ---------------------------------------------------------------------------

_ORACLE_TOKEN_RE = re.compile(r"""
    (?:[^\S\n]+|\#[^\n]*)*
    (?:(?P<newline>\n) | (?P<arrow>->) | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<lparen>\() | (?P<rparen>\)) | (?P<lbrace>\{) | (?P<rbrace>\})
      | (?P<comma>,) | (?P<semi>;) | (?P<colon>:) | (?P<equals>=) | (?P<minus>-)
      | (?P<eof>\Z) | (?P<bad>.))
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str
    text: str
    offset: int
    source: str

    @property
    def span(self) -> SourceSpan:
        line_start = self.source.rfind("\n", 0, self.offset) + 1
        return SourceSpan(self.source.count("\n", 0, self.offset) + 1,
                          self.offset - line_start + 1, self.offset)


def oracle_tokenize(text: str, start: int = 0) -> list[Token]:
    tokens: list[Token] = []
    for m in _ORACLE_TOKEN_RE.finditer(text, start):
        kind = m.lastgroup
        tokens.append(Token(kind, m[kind], m.start(kind), text))
        if kind == "bad":
            raise ParseError(f"unexpected character {_quote(m[kind])}",
                             tokens[-1].span)
        if kind == "eof":
            break
    return tokens


class OracleTokenStream:
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
            raise ParseError(f"expected {what}, found {_quote(tok.text)}" if tok.text
                             else f"expected {what}, found end of input",
                             tok.span, expected=what)
        return self.advance()

    def expect_int(self, what: str, low: int = 0, high: Optional[int] = None,
                   message: str = "") -> int:
        tok = self.expect("int", what)
        try:
            value = int(tok.text)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ParseError(f"integer of {len(tok.text)} digits is too long",
                             tok.span) from None
        if value < low or (high is not None and value > high):
            raise ParseError(message.format(value, low, high), tok.span)
        return value

    def comma_list(self, read: Callable[..., object], *args) -> list:
        items = [read(self, *args)]
        while self.accept("comma"):
            items.append(read(self, *args))
        return items

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
        raise ParseError(f"unexpected {_quote(tok.text)} at end of statement",
                         tok.span)

    def header(self, keyword: str, noun: str, what: str, low: int,
               too_small: str, high: Optional[int] = None) -> int:
        self.skip_newlines()
        tok = self.expect("ident", f"'{keyword}'")
        if tok.text != keyword:
            raise ParseError(f"{noun} must start with a {keyword} declaration",
                             tok.span, expected=keyword)
        int_tok = self.peek()
        value = self.expect_int(what, low, None, too_small)
        if high is not None and value > high:
            raise ParseError(f"{what} is above the limit of {high}", int_tok.span)
        self.end_statement()
        return value

    def statements(self) -> Iterator[Token]:
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "eof":
                return
            yield tok
            self.end_statement()


def _oracle_label(ts: OracleTokenStream, n: int, what: str = "a label") -> int:
    return ts.expect_int(what, 1, n, "label {} out of {}..{}")


def oracle_read_formula(ts: OracleTokenStream, sig: Signature,
                        depth: int = 0) -> Formula:
    tok = ts.peek()
    if depth > MAX_FORMULA_DEPTH:
        raise ParseError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels",
                         tok.span)
    if tok.kind == "lparen":
        ts.advance()
        inner = oracle_read_formula(ts, sig, depth + 1)
        ts.expect("rparen", "')'")
        return inner
    if tok.kind != "ident":
        raise ParseError(f"expected a formula, found {_quote(tok.text)}", tok.span,
                         expected="formula")
    ts.advance()
    if tok.text == "Box":
        return Box(oracle_read_formula(ts, sig, depth + 1))
    if tok.text == "Dia":
        return Diamond(oracle_read_formula(ts, sig, depth + 1))
    if ts.accept("lparen"):
        args = ([] if ts.peek().kind == "rparen"
                else ts.comma_list(oracle_read_formula, sig, depth + 1))
        ts.expect("rparen", "')'")
        conn = sig.connectives.get(tok.text)
        if conn is None:
            raise ParseError(f"unknown connective {_quote(tok.text)}", tok.span)
        if len(args) != conn.arity:
            raise ParseError(
                f"connective {_quote(tok.text)} expects {conn.arity} arguments, "
                f"got {len(args)}", tok.span)
        return Apply(tok.text, tuple(args))
    if tok.text in sig.connectives:
        raise ParseError(f"connective {_quote(tok.text)} needs an argument list",
                         tok.span)
    return Var(tok.text)


def _oracle_labelled(ts: OracleTokenStream, sig: Signature) -> LabelledFormula:
    ts.expect("lparen", "'('")
    formula = oracle_read_formula(ts, sig)
    ts.expect("comma", "','")
    label = _oracle_label(ts, sig.n)
    ts.expect("rparen", "')'")
    return LabelledFormula(formula, label)


def _oracle_side(ts: OracleTokenStream, sig: Signature) -> list[LabelledFormula]:
    if ts.peek().kind != "lparen":
        return []
    return ts.comma_list(_oracle_labelled, sig)


def _oracle_sequent(ts: OracleTokenStream, sig: Signature) -> Sequent:
    antecedent = _oracle_side(ts, sig)
    ts.expect("arrow", "'->'")
    return Sequent(antecedent, _oracle_side(ts, sig))


def _oracle_single(text: str, parse, sig: Signature):
    ts = OracleTokenStream(oracle_tokenize(text))
    ts.skip_newlines()
    out = parse(ts, sig)
    ts.skip_newlines()
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing {_quote(tok.text)}", tok.span)
    return out


def oracle_parse_formula(text: str, sig: Signature) -> Formula:
    return _oracle_single(text, oracle_read_formula, sig)


def oracle_parse_formulas(text: str, sig: Signature) -> tuple[Formula, ...]:
    ts = OracleTokenStream(oracle_tokenize(text))
    return tuple(oracle_read_formula(ts, sig) for _ in ts.statements())


def oracle_parse_sequent(text: str, sig: Signature) -> Sequent:
    return _oracle_single(text, _oracle_sequent, sig)


def oracle_parse_sequents(text: str, sig: Signature) -> tuple[Sequent, ...]:
    ts = OracleTokenStream(oracle_tokenize(text))
    return tuple(_oracle_sequent(ts, sig) for _ in ts.statements())


def oracle_parse_signature(text: str) -> Signature:
    """The signature token reader alone, on the whole text."""
    ts = OracleTokenStream(oracle_tokenize(text))
    n = ts.header("domain", "signature", "the domain size", 2,
                  "domain needs at least 2 values, got {}")
    lines = text.count("\n") + 1
    declared: dict[str, tuple[int, Token, dict[tuple[int, ...], int]]] = {}
    for _ in ts.statements():
        name_tok = ts.expect("ident", "'conn' or a table row")
        if name_tok.text == "conn" and ("conn" not in declared
                                        or ts.peek().kind == "ident"):
            ctok = ts.expect("ident", "a connective name")
            if ctok.text in RESERVED_NAMES:
                raise ParseError(f"connective name {_quote(ctok.text)} is reserved",
                                 ctok.span)
            if ctok.text in declared:
                raise ParseError(f"duplicate connective name {_quote(ctok.text)}",
                                 ctok.span)
            arity_tok = ts.peek()
            arity = ts.expect_int("an arity")
            if not _oracle_rows_fit(n, arity, lines):
                raise ParseError(f"connective {_quote(ctok.text)}: arity {arity} "
                                 f"needs {n}^{arity} table rows, more than the "
                                 f"signature's {lines} lines", arity_tok.span)
            declared[ctok.text] = (arity, ctok, {})
            continue
        if name_tok.text not in declared:
            raise ParseError(f"table row for undeclared connective "
                             f"{_quote(name_tok.text)}", name_tok.span)
        arity, _, table = declared[name_tok.text]
        key = tuple(_oracle_label(ts, n, "an argument label") for _ in range(arity))
        ts.expect("equals", "'='")
        out = _oracle_label(ts, n, "the table value")
        if key in table:
            raise ParseError(f"duplicate table row for {_quote(name_tok.text)}",
                             name_tok.span)
        table[key] = out
    connectives = []
    for name, (arity, ctok, table) in declared.items():
        if len(table) != n ** arity:
            missing = next(e for e in all_entries(n, arity) if e not in table)
            raise ParseError(
                f"connective {_quote(name)}: missing table entry for "
                f"{' '.join(map(str, missing)) or '()'}", ctok.span)
        connectives.append(Connective(name, arity, table))
    return make_signature(n, connectives)


def _oracle_rows_fit(n: int, arity: int, lines: int) -> bool:
    rows = 1
    for _ in range(arity):
        rows *= n
        if rows > lines:
            return False
    return True


def oracle_parse_model(text: str, sig: Signature) -> KripkeModel:
    """The model token reader alone, on the whole text."""
    ts = OracleTokenStream(oracle_tokenize(text))
    world_count = ts.header("worlds", "model", "the world count", 1,
                            "a model needs at least one world", MAX_WORLDS)
    edges: set[tuple[int, int]] = set()
    vals: dict[tuple[int, str], int] = {}

    def world(what: str) -> int:
        return ts.expect_int(what, 0, world_count - 1,
                             what + " references undeclared world {} (have {}..{})")

    for _ in ts.statements():
        key = ts.expect("ident", "'edge' or 'val'")
        if key.text == "edge":
            edges.add((world("edge source"), world("edge target")))
        elif key.text == "val":
            u = world("valuation world")
            vtok = ts.expect("ident", "a variable name")
            if vtok.text in RESERVED_NAMES:
                raise ParseError(f"variable name {_quote(vtok.text)} is reserved",
                                 vtok.span)
            k = _oracle_label(ts, sig.n)
            if (u, vtok.text) in vals:
                raise ParseError(f"duplicate valuation for {_quote(vtok.text)} "
                                 f"at world {u}", vtok.span)
            vals[(u, vtok.text)] = k
        else:
            raise ParseError(f"expected 'edge' or 'val', found {_quote(key.text)}",
                             key.span)
    return KripkeModel(world_count, edges, vals)


def _oracle_label_set(ts: OracleTokenStream, n: int) -> frozenset[int]:
    ts.expect("lbrace", "'{'")
    labels = set()
    while ts.peek().kind == "int":
        labels.add(_oracle_label(ts, n))
    ts.expect("rbrace", "'}'")
    return frozenset(labels)


def _oracle_any_label(ts: OracleTokenStream) -> int:
    return ts.expect_int("a label")


def _oracle_table_entry(ts: OracleTokenStream, sig: Signature) -> AxiomTable:
    conn = ts.expect("ident", "a connective name").text
    entry = []
    while ts.peek().kind == "int":
        entry.append(ts.expect_int("a table entry"))
    return AxiomTable(conn, tuple(entry))


def _oracle_groups(ts: OracleTokenStream, sig: Signature) -> SuperMultiShift:
    formulas, label_sets = [], []
    while ts.peek().kind == "lparen" or (ts.peek().kind == "ident"
                                         and ts.peek().text != "from"):
        formulas.append(oracle_read_formula(ts, sig))
        label_sets.append(_oracle_label_set(ts, sig.n))
    if not formulas:
        raise ParseError("expected at least one formula group",
                         ts.peek().span, expected="formula")
    return SuperMultiShift(tuple(formulas), tuple(label_sets))


def _oracle_extension(scheme: int, ts: OracleTokenStream,
                      sig: Signature) -> ExtensionAxiom:
    formula = oracle_read_formula(ts, sig)
    return ExtensionAxiom(scheme, formula,
                          1 if scheme == 20 else _oracle_any_label(ts))


_ORACLE_ARGUMENTS = {
    "hyp": lambda ts, sig: Hypothesis(ts.expect_int(
        "a hypothesis number", 1, None, "hypothesis numbers start at 1") - 1),
    "ax-id": lambda ts, sig: AxiomIdentity(),
    "ax-table": _oracle_table_entry,
    "r-box": lambda ts, sig: RuleBox(),
    "r-dia": lambda ts, sig: RuleDiamond(),
    "lshift": lambda ts, sig: LeftShift(_oracle_any_label(ts)),
    "rshift": lambda ts, sig: RightShift(_oracle_any_label(ts),
                                         _oracle_any_label(ts)),
    "lweak": lambda ts, sig: LeftWeaken(_oracle_labelled(ts, sig)),
    "rweak": lambda ts, sig: RightWeaken(_oracle_labelled(ts, sig)),
    "cut": lambda ts, sig: Cut(_oracle_labelled(ts, sig)),
    "resolve": lambda ts, sig: Resolution(oracle_read_formula(ts, sig),
                                          _oracle_any_label(ts),
                                          _oracle_any_label(ts)),
    "mshift": lambda ts, sig: MultiShift(oracle_read_formula(ts, sig),
                                         _oracle_label_set(ts, sig.n)),
    "smshift": _oracle_groups,
    **{f"ext-{scheme}": partial(_oracle_extension, scheme)
       for scheme in SCHEME_FRAMES},
}


def _oracle_justification(ts: OracleTokenStream, sig: Signature) -> Justification:
    tok = ts.expect("ident", "a rule name")
    parts = [tok.text]
    while ts.accept("minus"):
        part = ts.peek()
        if part.kind not in ("ident", "int"):
            raise ParseError("malformed rule name", part.span)
        ts.advance()
        parts.append(part.text)
    name = "-".join(parts)
    parse = _ORACLE_ARGUMENTS.get(name)
    if parse is None:
        raise ParseError(f"unknown rule name {_quote(name)}", tok.span)
    return parse(ts, sig)


def oracle_parse_proof(text: str, sig: Signature, logic: LogicId = LogicId.MV_K,
                       hypotheses: Iterable[Sequent] = ()) -> Derivation:
    ts = OracleTokenStream(oracle_tokenize(text))
    steps: list[Step] = []
    positions: dict[int, int] = {}

    def premise(ts: OracleTokenStream) -> int:
        tok = ts.peek()
        ref = ts.expect_int("a premise step number")
        if ref not in positions:
            raise ParseError(f"premise reference {ref} does not name "
                             "an earlier step", tok.span)
        return positions[ref]

    for _ in ts.statements():
        idx_tok = ts.peek()
        idx = ts.expect_int("a step number")
        if idx in positions:
            raise ParseError(f"duplicate step number {idx}", idx_tok.span)
        ts.expect("colon", "':'")
        sequent = _oracle_sequent(ts, sig)
        ts.expect("semi", "';'")
        justification = _oracle_justification(ts, sig)
        premises = ts.comma_list(premise) if ts.accept("ident", "from") else ()
        positions[idx] = len(steps)
        steps.append(Step(sequent, justification, tuple(premises)))
    return Derivation(logic, tuple(hypotheses), tuple(steps))


# ---------------------------------------------------------------------------
# Oracle: the package's record types as the frozen dataclasses they were,
# with their __post_init__ checks and normalisations, and the
# LabelledFormula label through operator.index.  Each twin has the
# qualified name of its record, so the two reprs compare as text.
# ---------------------------------------------------------------------------


class DataclassTwins:
    @dataclass(frozen=True)
    class TruthDomain:
        n: int

        def __post_init__(self):
            if self.n < 2:
                raise ValueError(f"truth domain needs at least 2 values, got {self.n}")

    @dataclass(frozen=True)
    class Connective:
        name: str
        arity: int
        table: Mapping[tuple[int, ...], int]

        def __post_init__(self):
            if self.arity < 0:
                raise ValueError(f"negative arity for connective {self.name!r}")

        def __hash__(self):
            return hash((self.name, self.arity))

    @dataclass(frozen=True)
    class Signature:
        domain: TruthDomain
        connectives: Mapping[str, Connective]

        def __post_init__(self):
            n = self.domain.n
            for name, conn in self.connectives.items():
                if name != conn.name:
                    raise ValueError(f"connective {conn.name!r} registered under {name!r}")
                if name in RESERVED_NAMES:
                    raise ValueError(f"connective name {name!r} is reserved")
                expected = n ** conn.arity
                if len(conn.table) != expected:
                    raise ValueError(
                        f"connective {name!r}: table has {len(conn.table)} entries, "
                        f"needs {expected}"
                    )
                for entry, out in conn.table.items():
                    if len(entry) != conn.arity:
                        raise ValueError(f"connective {name!r}: entry {entry} has wrong arity")
                    if any(k < 1 or k > n for k in entry) or out < 1 or out > n:
                        raise ValueError(f"connective {name!r}: label out of 1..{n} "
                                         f"in {entry} = {out}")

    @dataclass(frozen=True)
    class LabelledFormula:
        formula: Formula
        label: int

        def __post_init__(self):
            object.__setattr__(self, "label", index(self.label))
            if self.label < 1:
                raise ValueError(f"label must be >= 1, got {self.label}")

    @dataclass(frozen=True)
    class Sequent:
        antecedent: frozenset[LabelledFormula]
        succedent: frozenset[LabelledFormula]

        def __init__(self, antecedent: Iterable[LabelledFormula] = (),
                     succedent: Iterable[LabelledFormula] = ()):
            object.__setattr__(self, "antecedent", frozenset(antecedent))
            object.__setattr__(self, "succedent", frozenset(succedent))

    @dataclass(frozen=True, init=False)
    class KripkeModel:
        world_count: int
        edges: frozenset[tuple[int, int]]
        vals: tuple[tuple[tuple[int, str], int], ...]

        def __init__(self, world_count: int,
                     edges: Iterable[tuple[int, int]] = (),
                     vals: Union[Mapping[tuple[int, str], int],
                                 Iterable[tuple[tuple[int, str], int]]] = ()):
            world_count = index(world_count)
            if world_count < 1:
                raise ValueError("a model needs at least one world")
            edge_set = frozenset((index(u), index(v)) for u, v in edges)
            for u, v in edge_set:
                if not (0 <= u < world_count and 0 <= v < world_count):
                    raise ValueError(f"edge ({u}, {v}) references an undeclared world")
            val_map: dict[tuple[int, str], int] = {}
            for (u, p), k in (vals.items() if isinstance(vals, Mapping) else vals):
                world, k = index(u), index(k)
                if not 0 <= world < world_count:
                    raise ValueError(f"valuation of {p!r} at undeclared world {world}")
                if k < 1:
                    raise ValueError(f"valuation label must be >= 1, got {k}")
                val_map[world, p] = k
            object.__setattr__(self, "world_count", world_count)
            object.__setattr__(self, "edges", edge_set)
            object.__setattr__(self, "vals", tuple(sorted(val_map.items())))

    @dataclass(frozen=True)
    class Countermodel:
        model: KripkeModel
        world: int

    @dataclass(frozen=True)
    class ValidUpTo:
        bound: int

    @dataclass(frozen=True)
    class ProvedValid:
        bound: int

    @dataclass(frozen=True)
    class DualityWitness:
        model: KripkeModel
        world: int
        label: int
        side: str

    @dataclass(frozen=True)
    class DualityReport:
        holds: bool
        witness: Optional[DualityWitness] = None

    @dataclass(frozen=True)
    class Filtered:
        classes: tuple[tuple[int, ...], ...]
        representatives: tuple[int, ...]
        model: KripkeModel
        values: Mapping[tuple[int, Formula], int]
        _class_index: dict[int, int] = field(init=False, repr=False, compare=False)

        def __post_init__(self):
            object.__setattr__(self, "_class_index",
                               {w: idx for idx, members in enumerate(self.classes)
                                for w in members})

    @dataclass(frozen=True)
    class FiltrationReport:
        ok: bool
        frame_ok: bool
        frame_class: FrameClass
        value_mismatches: tuple[tuple[int, Formula, int, int], ...]

    @dataclass(frozen=True)
    class SourceSpan:
        line: int
        column: int
        offset: int

    @dataclass(frozen=True)
    class Hypothesis:
        index: int

    @dataclass(frozen=True)
    class AxiomIdentity:
        pass

    @dataclass(frozen=True)
    class AxiomTable:
        conn: str
        entry: tuple[int, ...]

        def __post_init__(self):
            object.__setattr__(self, "entry", tuple(self.entry))

    @dataclass(frozen=True)
    class RuleBox:
        pass

    @dataclass(frozen=True)
    class RuleDiamond:
        pass

    @dataclass(frozen=True)
    class LeftShift:
        label: int

    @dataclass(frozen=True)
    class RightShift:
        from_label: int
        to_label: int

    @dataclass(frozen=True)
    class LeftWeaken:
        added: LabelledFormula

    @dataclass(frozen=True)
    class RightWeaken:
        added: LabelledFormula

    @dataclass(frozen=True)
    class Cut:
        cut: LabelledFormula

    @dataclass(frozen=True)
    class Resolution:
        formula: Formula
        first_label: int
        second_label: int

    @dataclass(frozen=True)
    class MultiShift:
        formula: Formula
        labels: frozenset[int]

        def __post_init__(self):
            object.__setattr__(self, "labels", frozenset(self.labels))

    @dataclass(frozen=True)
    class SuperMultiShift:
        formulas: tuple[Formula, ...]
        label_sets: tuple[frozenset[int], ...]

        def __post_init__(self):
            object.__setattr__(self, "formulas", tuple(self.formulas))
            object.__setattr__(self, "label_sets",
                               tuple(frozenset(s) for s in self.label_sets))

    @dataclass(frozen=True)
    class ExtensionAxiom:
        scheme: int
        formula: Formula
        label: int = 1

        def __post_init__(self):
            if self.scheme == 20:
                object.__setattr__(self, "label", 1)

    @dataclass(frozen=True)
    class Step:
        conclusion: Sequent
        justification: Justification
        premises: tuple[int, ...] = ()

        def __post_init__(self):
            object.__setattr__(self, "premises", tuple(self.premises))

    @dataclass(frozen=True)
    class Derivation:
        logic: LogicId
        hypotheses: tuple[Sequent, ...]
        steps: tuple[Step, ...]

        def __post_init__(self):
            object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
            object.__setattr__(self, "steps", tuple(self.steps))

    @dataclass(frozen=True)
    class Violation:
        step: int
        rule: str
        reason: str


#: Each twin by the name of its record.
TWINS: dict[str, type] = {}
for _name, _twin in vars(DataclassTwins).items():
    if isinstance(_twin, type):
        _twin.__qualname__ = _name
        TWINS[_name] = _twin
