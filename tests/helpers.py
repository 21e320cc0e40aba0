"""Shared generators and mutation helpers for the test suite."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, Union

from hypothesis import strategies as st

from mvmodal import decision
from mvmodal.core import (
    Apply,
    Box,
    Diamond,
    Formula,
    LabelledFormula,
    Sequent,
    Signature,
    TruthDomain,
    Var,
    apply_connective,
    closure_order,
    labelled_key,
)
from mvmodal.decision import Countermodel, ProvedValid, ValidUpTo, filtration_bound
from mvmodal.duality import (
    _CLAIMS,
    _CLAIMS_ORDER,
    DualityReport,
    DualityWitness,
    UnaryTable,
    negation_connective,
)
from mvmodal.proofs import Derivation, LogicId, Step
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
# kept verbatim.  It tests every world against every member.
# ---------------------------------------------------------------------------


def refuting_worlds(sig: Signature, model: KripkeModel, sequent: Sequent,
                    cache=None) -> Iterator[int]:
    vectors = {} if cache is None else cache
    missing = [lf.formula for lf in sequent.antecedent | sequent.succedent
               if lf.formula not in vectors]
    if missing:
        label_vectors(sig, model, closure_order(missing), vectors)
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


# ---------------------------------------------------------------------------
# Oracle: enumerate_models before each relation's later valuations
# reused its validated model, kept verbatim but for its name, the
# module of _Budget and _relations, and the edges of _relations' rows.
# ---------------------------------------------------------------------------


def oracle_models(variables: Iterable[str], n: int, world_count: int,
                  frame_class: FrameClass,
                  ceiling: Union[int, decision._Budget, None] = None
                  ) -> Iterator[KripkeModel]:
    if world_count < 1:
        raise ValueError("world_count must be >= 1")
    variables = sorted(set(variables))
    budget = decision._Budget.of(ceiling)
    slots = [(u, p) for u in range(world_count) for p in variables]
    for rows in decision._relations(world_count, frame_class):
        edges = edges_of(rows)
        for labels in product(range(1, n + 1), repeat=len(slots)):
            budget.spend()
            yield KripkeModel(world_count, edges, dict(zip(slots, labels)))


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
    budget = decision._Budget.of(ceiling)
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
