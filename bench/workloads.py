"""Seeded inputs, queries and expected answers for each workload.

A workload is built from the seed alone: it writes its input files,
returns the queries of one pass, and attaches to each query a check that
compares the program's answer with bench/reference.py.  The seed fills in
variable names, formulas and models; the shape of a pass (which logics,
bounds, side sizes and depths) is fixed, so the work per pass stays
comparable across seeds.

Why each workload exists (see README.md for the full table):
- decide-exhaustive: valid goals up to 3 worlds; time goes to per-model
  evaluation and model construction.
- decide-frames: valid goals at 4 worlds in strong frame classes; time
  goes to filtering 66,066 candidate relations per query.
- refute-scan: ~150 goals refuted within two worlds plus neg-scan;
  per-query fixed costs and the duality layer.
- model-check: point queries on given models (eval, sat, filter,
  check-proof, translate, frame-check, the intuitionistic layer); no search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import reference as R

PROOFS = Path(__file__).resolve().parent / "proofs"
CEILING = "10000000"  # passed explicitly; MVK_ENUM_CEILING is unset
VAR_NAMES = "pqrsuvw"  # one letter each, so seeds do not change formula sizes
LOGICS = tuple(R.LOGIC_CLASS)

Check = Callable[[Optional[int], object], Optional[str]]


@dataclass
class Query:
    """One query: a CLI argv, or a direct call for the intuitionistic layer.

    `check(exit_code, output)` returns None when the answer is right and a
    one-line reason otherwise; it runs after the timed region.
    """

    kind: str
    check: Check
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], object]] = None


class Inputs:
    """Writes a workload's input files into its work directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.directory / f"{self.count:04d}-{stem}"
        path.write_text(text)
        return str(path)


# ---------------------------------------------------------------------------
# Formula helpers
# ---------------------------------------------------------------------------


def box(f):
    return ("B", f)


def dia(f):
    return ("D", f)


def imp(a, b):
    return ("c", "imp", (a, b))


def up(f, k, n):
    return [(f, j) for j in range(k, n + 1)]


def down(f, k):
    return [(f, j) for j in range(1, k + 1)]


_SCHEME_SHAPES = {
    21: lambda f: (box(f), f),
    22: lambda f: (f, dia(f)),
    23: lambda f: (box(f), box(box(f))),
    24: lambda f: (dia(dia(f)), dia(f)),
    25: lambda f: (f, box(dia(f))),
    26: lambda f: (dia(box(f)), f),
    27: lambda f: (dia(f), box(dia(f))),
    28: lambda f: (dia(box(f)), box(f)),
}


def scheme(number, f, k, n):
    """The extension-axiom instance, as the paper states it."""
    if number == 20:
        return [(box(f), n)], [(dia(f), n)]
    left, right = _SCHEME_SHAPES[number](f)
    return [(left, k)], up(right, k, n)


def spine_formula(rng, names, conns, depth, modal):
    """A chain of `depth` operators over a variable, `modal` of them Box or Dia.

    A binary connective takes a fresh variable as its other argument, so
    depth, modal depth and size are fixed and the seed picks the rest; this
    keeps the cost of a query about the same for every seed.
    """
    modal_levels = set(rng.sample(range(depth), modal))
    f = ("v", rng.choice(names))
    for level in range(depth):
        if level in modal_levels:
            f = (rng.choice("BD"), f)
            continue
        op = rng.choice(conns)
        if op == "neg":
            f = ("c", op, (f,))
        else:
            leaf = ("v", rng.choice(names))
            f = ("c", op, (f, leaf) if rng.random() < 0.5 else (leaf, f))
    return f


def random_relation(rng, world_count: int, frame_class: str, density: float):
    """A random relation closed into the frame class."""
    worlds = range(world_count)
    if frame_class == "equivalence":
        block = [rng.randrange(world_count) for _ in worlds]
        return {(u, v) for u in worlds for v in worlds if block[u] == block[v]}
    rel = {(u, v) for u in worlds for v in worlds if rng.random() < density}
    if frame_class in ("reflexive", "preorder"):
        rel |= {(u, u) for u in worlds}
    if frame_class == "serial":
        rel |= {(u, rng.randrange(world_count)) for u in worlds
                if not any(a == u for a, _ in rel)}
    if frame_class == "symmetric":
        rel |= {(v, u) for u, v in rel}
    if frame_class in ("transitive", "preorder"):
        changed = True
        while changed:
            extra = {(u, w) for u, v in rel for x, w in rel if v == x} - rel
            rel |= extra
            changed = bool(extra)
    return rel


def random_model(rng, world_count, frame_class, names, n, density=0.3):
    rel = random_relation(rng, world_count, frame_class, density)
    vals = {(w, p): rng.randint(1, n) for w in range(world_count) for p in names}
    return R.make_model(world_count, rel, vals)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _lines(out) -> list[str]:
    return out.splitlines() if isinstance(out, str) else []


def check_decide(sig, hyps, goal, logic, bound, expect, max_worlds=None) -> Check:
    """expect is "valid" (no countermodel exists) or "countermodel"."""

    def check(code, out):
        lines = _lines(out)
        if expect == "valid":
            formulas = [f for s in (goal, *hyps) for side in s for f, _ in side]
            covered = bound >= sig[0] ** len(R.closure(formulas))
            want = "valid" if covered else f"valid-up-to {bound}"
            if code != 0 or lines != [want]:
                return f"expected {want!r}, got exit {code} {lines[:1]}"
            return None
        if code != 1 or lines[:1] != ["countermodel"] or len(lines) < 3:
            return f"expected a countermodel, got exit {code} {lines[:1]}"
        world = int(lines[1].split()[1])
        model = R.parse_model(lines[2:])
        if model[0] > (max_worlds or bound) or not 0 <= world < model[0]:
            return f"countermodel has {model[0]} worlds, world {world}"
        if not R.in_class(model, R.LOGIC_CLASS[logic]):
            return f"countermodel is not {R.LOGIC_CLASS[logic]}"
        if not R.holds_everywhere(sig, model, hyps):
            return "countermodel breaks a hypothesis"
        if R.holds(sig, model, world, goal):
            return "countermodel satisfies the goal"
        return None

    return check


def check_lines(code_want: int, lines_want: list[str]) -> Check:
    def check(code, out):
        if code != code_want or _lines(out) != lines_want:
            return f"expected exit {code_want} {lines_want[:2]}, got {code} {_lines(out)[:2]}"
        return None
    return check


def check_first_line(code_want: int, prefix: str) -> Check:
    def check(code, out):
        lines = _lines(out)
        if code != code_want or not lines or not lines[0].startswith(prefix):
            return f"expected exit {code_want} {prefix!r}, got {code} {lines[:1]}"
        return None
    return check


# ---------------------------------------------------------------------------
# decide-exhaustive
# ---------------------------------------------------------------------------


def _decide(io, sig_path, sig, logic, bound, goal, expect, hyps=(),
            max_worlds=None, kind="decide") -> Query:
    argv = ["decide", "--sig", sig_path, "--logic", logic, "--bound", str(bound),
            "--ceiling", CEILING]
    if hyps:
        argv += ["--sigma", io.write("sigma", "".join(
            R.render_sequent(*h) + "\n" for h in hyps))]
    argv.append(R.render_sequent(*goal))
    return Query(kind, check_decide(sig, hyps, goal, logic, bound, expect,
                                    max_worlds), argv=argv)


def decide_exhaustive(rng: random.Random, io: Inputs, mv) -> list[Query]:
    x, y = (("v", name) for name in rng.sample(VAR_NAMES, 2))
    sig3, sig2 = R.lukasiewicz(3), R.lukasiewicz(2)
    s3 = io.write("luk3.sig", R.render_signature(sig3))
    s2 = io.write("luk2.sig", R.render_signature(sig2))
    queries = []

    def valid(sig_path, sig, logic, bound, goal, hyps=()):
        queries.append(_decide(io, sig_path, sig, logic, bound, goal, "valid", hyps))

    # The criterion-3 acceptance goals: valid in mv-K, so in every extension.
    # Labels are fixed, so the seed changes names but not the work.
    def criterion3(x, y):
        return [([(box(x), 1)], up(dia(x), 1, 3)),
                ([(box(x), 2)], up(dia(x), 2, 3)),
                ([(dia(x), 2)], down(box(x), 2)),
                ([(dia(x), 3)], down(box(x), 3)),
                ([(box(x), 3)], [(dia(x), 1), (dia(x), 3)]),
                ([(box(x), 3), (dia(x), 1)], [(box(y), 3)]),
                ([(box(x), 3), (dia(x), 1)], [(dia(y), 1)])]

    crit3 = criterion3(x, y)
    # Most goals cost about the same as their neighbours in the sorted
    # latencies, so p50 and p90 fall inside groups of similar queries: the
    # bound-2 goals with the variables swapped put p50 among the bound-2
    # goals and p90 in the middle of the bound-3 goals, not at their edge.
    for goal in crit3:
        valid(s3, sig3, "mv-K", 2, goal)
        valid(s3, sig3, "mv-K4", 2, goal)
    for goal in criterion3(y, x):
        for logic in ("mv-K", "mv-D", "mv-T", "mv-K4"):
            valid(s3, sig3, logic, 2, goal)
    for goal in crit3[:5]:
        valid(s3, sig3, "mv-D", 2, goal)
        valid(s3, sig3, "mv-T", 2, goal)
        valid(s3, sig3, "mv-K4", 3, goal)
    valid(s3, sig3, "mv-K", 3, crit3[4])
    # Schemes 20-24, each valid on its own frame class.
    for number, logic in ((20, "mv-D"), (21, "mv-T"), (22, "mv-T"),
                          (23, "mv-K4"), (24, "mv-K4")):
        valid(s3, sig3, logic, 2, scheme(number, x, 2, 3))
        valid(s3, sig3, logic, 2, scheme(number, x, 3, 3))
        valid(s3, sig3, logic, 3, scheme(number, x, 3, 3))
        if logic == "mv-K4":
            valid(s3, sig3, logic, 3, scheme(number, x, 2, 3))
    # Closure {x} has 3 vectors, so bound 3 settles validity outright.
    valid(s3, sig3, "mv-K", 2, ([(x, 2)], [(x, 2)]))
    valid(s3, sig3, "mv-K", 3, ([(x, 2)], [(x, 2)]))
    # Two variables: Box distributes over the implication (box_modus_ponens).
    k_axiom2 = ([(box(imp(x, y)), 2), (box(x), 2)], [(box(y), 2)])
    valid(s2, sig2, "mv-K", 2, k_axiom2)
    valid(s2, sig2, "mv-K", 3, k_axiom2)
    valid(s2, sig2, "mv-K", 2, ([(box(x), 2), (dia(x), 1)], [(box(y), 2)]))
    valid(s2, sig2, "mv-K", 2, ([(box(x), 2), (dia(x), 1)], [(dia(y), 1)]))
    valid(s3, sig3, "mv-K", 2, ([(box(imp(x, y)), 3), (box(x), 3)], [(box(y), 3)]))
    # Global hypotheses: x = 3 everywhere forces Box x = 3, and Dia x = 3 on
    # serial frames; x != 1 everywhere rules out Box x = 1.
    top = [((), [(x, 3)])]
    never_bottom = [([(x, 1)], ())]
    valid(s3, sig3, "mv-K", 2, ((), [(box(x), 3)]), top)
    valid(s3, sig3, "mv-K", 3, ((), [(box(x), 3)]), top)
    valid(s3, sig3, "mv-D", 3, ((), [(dia(x), 3)]), top)
    valid(s3, sig3, "mv-K4", 3, ([(box(x), 1)], ()), never_bottom)
    return queries


# ---------------------------------------------------------------------------
# decide-frames
# ---------------------------------------------------------------------------


def decide_frames(rng: random.Random, io: Inputs, mv) -> list[Query]:
    x = ("v", rng.choice(VAR_NAMES))
    sig3, sig2 = R.lukasiewicz(3), R.lukasiewicz(2)
    s3 = io.write("luk3.sig", R.render_signature(sig3))
    s2 = io.write("luk2.sig", R.render_signature(sig2))
    plan = [(27, "mv-S5", s3, sig3), (28, "mv-S5", s3, sig3),
            (23, "mv-S4", s2, sig2), (24, "mv-S4", s2, sig2),
            (25, "mv-B", s2, sig2), (26, "mv-B", s2, sig2)]
    queries = []
    for number, logic, path, sig in plan:
        queries.append(_decide(io, path, sig, logic, 4,
                               scheme(number, x, 2, sig[0]), "valid"))
    return queries


# ---------------------------------------------------------------------------
# refute-scan
# ---------------------------------------------------------------------------

# (scheme, logic) pairs whose scheme fails somewhere on a two-world frame
# of the logic's class; none fails on one world, so each needs two.
TWO_WORLD_REFUTATIONS = (
    [(s, "mv-K") for s in (23, 24, 25, 26, 27, 28)]
    + [(s, "mv-D") for s in (21, 22, 23, 24, 25, 26, 27, 28)]
    + [(s, "mv-T") for s in (25, 26, 27, 28)]
    + [(s, "mv-K4") for s in (25, 26, 27, 28)]
    + [(s, "mv-S4") for s in (25, 26, 27, 28)]
    + [(s, "mv-B") for s in (23, 24, 27, 28)])


def _one_world_goal(rng, sig, logic, slot):
    """A goal refuted at world 0 of a one-world model in the logic's class.

    The slot fixes the goal's shape (variables, side sizes, depths) and the
    seed fills it in, so every seed gives the same mix of query sizes.
    """
    n = sig[0]
    names = rng.sample(VAR_NAMES, 1 + slot % 2)
    frame_class = R.LOGIC_CLASS[logic]
    dead_end_ok = frame_class in ("any", "transitive", "symmetric")
    edges = [] if dead_end_ok and rng.random() < 0.5 else [(0, 0)]
    witness = R.make_model(1, edges, {(0, p): rng.randint(1, n) for p in names})
    conns = ("imp", "neg")

    def labelled(depth):
        f = spine_formula(rng, names, conns, depth, depth // 2)
        return f, R.values(sig, witness, f)[0]

    ante = [labelled(1 + j % 2) for j in range(slot % 3)]
    succ = []
    for j in range(1 + slot // 3 % 2):
        f, value = labelled(1 + (slot + j) % 3)
        succ.append((f, rng.choice([k for k in range(1, n + 1) if k != value])))
    return ante, succ


def refute_scan(rng: random.Random, io: Inputs, mv) -> list[Query]:
    sig = R.lukasiewicz(3, ("neg",))
    path = io.write("luk3neg.sig", R.render_signature(sig))
    queries = []
    pairs = list(TWO_WORLD_REFUTATIONS)
    for i in range(150):
        if i % 5 == 4:
            number, logic = pairs[(i // 5) % len(pairs)]
            f = ("v", rng.choice(VAR_NAMES))
            goal = scheme(number, f, 2 + i // 5 % 2, 3)
            queries.append(_decide(io, path, sig, logic, 4, goal, "countermodel",
                                   max_worlds=2, kind="decide-2w"))
        else:
            logic = LOGICS[i % len(LOGICS)]
            goal = _one_world_goal(rng, sig, logic, i)
            queries.append(_decide(io, path, sig, logic, 4, goal, "countermodel",
                                   max_worlds=1, kind="decide-1w"))
    # Only the order-reversing table makes Box and Dia dual (criterion 6).
    for n in (4, 5, 6):
        reversal = " ".join(str(n - k + 1) for k in range(1, n + 1))
        queries.append(Query(
            "neg-scan", check_lines(0, ["survivors 1", f"table {reversal}"]),
            argv=["neg-scan", "--n", str(n), "--bound", "2", "--ceiling", CEILING]))
    return queries


# ---------------------------------------------------------------------------
# model-check
# ---------------------------------------------------------------------------


def _check_eval(sig, model, world, f) -> Check:
    def check(code, out):
        return check_lines(0, [str(R.values(sig, model, f)[world])])(code, out)
    return check


def _check_sat(sig, model, sequent, world) -> Check:
    def check(code, out):
        lines = _lines(out)
        worlds = [world] if world is not None else range(model[0])
        memo: dict = {}
        failing = [w for w in worlds if not R.holds(sig, model, w, sequent, memo)]
        if not failing:
            return None if (code, lines) == (0, ["satisfied"]) else f"wanted satisfied, got {lines[:1]}"
        if code != 1 or lines[:1] != ["unsatisfied"] or len(lines) != 2:
            return f"wanted unsatisfied, got exit {code} {lines[:1]}"
        witness = int(lines[1].split()[1])
        return None if witness in failing else f"world {witness} satisfies the sequent"
    return check


def _check_filter(sig, model, phi, logic) -> Check:
    def check(code, out):
        memo: dict = {}
        vectors = {w: tuple(R.values(sig, model, f, memo)[w] for f in phi)
                   for w in range(model[0])}
        groups: dict = {}
        for w, vec in vectors.items():
            groups.setdefault(vec, []).append(w)
        want = sorted(sorted(ws) for ws in groups.values())
        lines = _lines(out)
        if code != 0 or lines[:1] != ["filtered"]:
            return f"expected filtered, got exit {code} {lines[:1]}"
        classes = []
        rest = lines[1:]
        while rest and rest[0].startswith("class "):
            classes.append([int(w) for w in rest[0].split(":", 1)[1].split()])
            rest = rest[1:]
        if sorted(sorted(c) for c in classes) != want:
            return "filtration classes differ from agreement on the closure"
        filtered = R.parse_model(rest)
        if filtered[0] != len(classes):
            return "filtered model has the wrong number of worlds"
        if not R.in_class(filtered, R.LOGIC_CLASS[logic]):
            return f"filtered model is not {R.LOGIC_CLASS[logic]}"
        fmemo: dict = {}
        for idx, members in enumerate(classes):
            for j, f in enumerate(phi):
                if R.values(sig, filtered, f, fmemo)[idx] != vectors[members[0]][j]:
                    return f"class {idx} changed the value of {R.render(f)}"
        return None
    return check


def _check_translate(sequent, sig_opt) -> Check:
    def check(code, out):
        want = tuple(frozenset((R.godel(f, sig_opt), k) for f, k in side)
                     for side in sequent)
        lines = _lines(out)
        if code != 0 or len(lines) != 1:
            return f"expected one translated sequent, got exit {code}"
        return None if R.parse_sequent(lines[0]) == want else "translation differs"
    return check


def _check_mvil(sig, model, formulas) -> Check:
    def check(code, out):
        world_count, succ, vals = model
        names = sorted({p for (_, p) in vals})
        hat_vals = {(w, p): min((vals.get((v, p), 1) for v in succ[w]), default=sig[0])
                    for w in range(world_count) for p in names}
        hat = R.make_model(world_count, R.edges_of(model), hat_vals)
        memo: dict = {}
        want = tuple(R.mvil_values(sig, hat, f, memo) for f in formulas)
        return None if out == want else "intuitionistic values differ"
    return check


def model_check(rng: random.Random, io: Inputs, mv) -> list[Query]:
    sig = R.lukasiewicz(3, ("neg", "or", "and"))
    n = sig[0]
    sig_path = io.write("luk3full.sig", R.render_signature(sig))
    names = ["p", "q", "r"]
    all_conns = ("imp", "neg", "or", "and")
    queries = []

    big = random_model(rng, 150, "any", names, n, density=3 / 150)
    big_path = io.write("big.model", R.render_model(big))
    for _ in range(30):
        f = spine_formula(rng, names, all_conns, 6, 3)
        world = rng.randrange(big[0])
        queries.append(Query("eval", _check_eval(sig, big, world, f), argv=[
            "eval", "--sig", sig_path, "--model", big_path, "--world", str(world),
            R.render(f)]))
    for i in range(15):
        sequent = ([(spine_formula(rng, names, all_conns, 4, 2), rng.randint(1, n))
                    for _ in range(i % 3)],
                   [(spine_formula(rng, names, all_conns, 4, 2), rng.randint(1, n))
                    for _ in range(1 + i % 2)])
        world = rng.randrange(big[0]) if i % 2 else None
        argv = ["sat", "--sig", sig_path, "--model", big_path]
        if world is not None:
            argv += ["--world", str(world)]
        queries.append(Query("sat", _check_sat(sig, big, sequent, world),
                             argv=argv + [R.render_sequent(*sequent)]))

    for logic in LOGICS:
        for world_count in (6, 8, 10, 12):
            model = random_model(rng, world_count, R.LOGIC_CLASS[logic], names[:2], n)
            phi_roots = [spine_formula(rng, names[:2], all_conns, 3, 1)
                         for _ in range(2)]
            phi = sorted(R.closure(phi_roots), key=R.render)
            queries.append(Query("filter", _check_filter(sig, model, phi, logic), argv=[
                "filter", "--sig", sig_path, "--logic", logic,
                "--model", io.write("filter.model", R.render_model(model)),
                "--phi", io.write("phi", "".join(R.render(f) + "\n" for f in phi_roots))]))

    proof_sig = io.write("proofs.sig", (PROOFS / "signature.sig").read_text())
    mutations: dict = {}
    for row in (PROOFS / "mutations.tsv").read_text().splitlines():
        name, step, sequent = row.split("\t")
        mutations.setdefault(name, []).append((int(step), sequent))
    for name in sorted(mutations):
        text = (PROOFS / f"{name}.proof").read_text()
        argv = ["check-proof", "--sig", proof_sig, "--logic", "mv-K"]
        sigma = PROOFS / f"{name}.sigma"
        if sigma.exists():
            argv += ["--sigma", io.write(f"{name}.sigma", sigma.read_text())]
        queries.append(Query("check-proof", check_lines(0, ["accepted"]),
                             argv=argv + [io.write(f"{name}.proof", text)]))
        step, sequent = rng.choice(mutations[name])
        lines = text.splitlines()
        tail = lines[step - 1].split(" ; ", 1)[1]
        lines[step - 1] = f"{step}: {sequent} ; {tail}"
        queries.append(Query("check-proof", check_first_line(1, "violation at step"),
                             argv=argv + [io.write(f"{name}.mutant",
                                                   "\n".join(lines) + "\n")]))

    for i in range(10):
        sequent = ([(spine_formula(rng, names, all_conns, 3, 0), rng.randint(1, n))
                    for _ in range(1 + i % 2)],
                   [(spine_formula(rng, names, all_conns, 3, 0), rng.randint(1, n))
                    for _ in range(1 + i // 2 % 2)])
        optimized = i % 2 == 1
        argv = ["translate", "--sig", sig_path]
        if optimized:
            argv.append("--optimized")
        queries.append(Query("translate", _check_translate(
            sequent, sig if optimized else None), argv=argv + [
                io.write("translate.seq", R.render_sequent(*sequent) + "\n")]))

    classes = sorted(set(R.LOGIC_CLASS.values()) | {"euclidean"})
    for i in range(10):
        frame_class = rng.choice(classes)
        world_count = 4 + i % 4
        model = (random_model(rng, world_count, frame_class, [], n) if i % 2
                 else random_model(rng, world_count, "any", [], n, density=0.4))
        yes = R.in_class(model, frame_class)
        queries.append(Query("frame-check", check_lines(0 if yes else 1,
                                                        ["yes" if yes else "no"]),
                             argv=["frame-check", "--model",
                                   io.write("frame.model", R.render_model(model)),
                                   frame_class]))

    # The intuitionistic layer has no subcommand: direct calls on parsed inputs.
    intu = mv.intuitionistic
    mv_sig = mv.parser.parse_signature(R.render_signature(sig))
    for i in range(15):
        model = random_model(rng, 4 + i % 5, "preorder", names[:2], n)
        formulas = [spine_formula(rng, names[:2], all_conns, 3, 0)
                    for _ in range(3)]
        mv_model = mv.parser.parse_model(R.render_model(model), mv_sig)
        mv_formulas = [mv.parser.parse_formula(R.render(f), mv_sig) for f in formulas]

        def call(mv_model=mv_model, mv_formulas=mv_formulas):
            hat = intu.hat_model(mv_sig, mv_model)
            return tuple(tuple(intu.eval_mvil(mv_sig, hat, w, f)
                               for w in range(mv_model.world_count))
                         for f in mv_formulas)
        queries.append(Query("hat-mvil", _check_mvil(sig, model, formulas), call=call))
    return queries


WORKLOADS = {
    "decide-exhaustive": decide_exhaustive,
    "decide-frames": decide_frames,
    "refute-scan": refute_scan,
    "model-check": model_check,
}
