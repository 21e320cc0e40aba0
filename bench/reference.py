"""The benchmark's own formulas, models, evaluator and frame predicates.

Everything here is independent of mvmodal, so the answers the program
returns are checked against code it does not share.  Formulas are
tuples: ("v", name), ("c", conn, args), ("B", sub) for necessity and
("D", sub) for possibility.  A model is (world count, successor tuples,
valuation dict keyed by (world, variable)); unvalued variables are 1.
"""

from __future__ import annotations

import re

# ---------------------------------------------------------------------------
# Signatures: n and {name: (arity, table)} with tables keyed by label tuples
# ---------------------------------------------------------------------------


def lukasiewicz(n: int, extra: tuple[str, ...] = ()) -> tuple[int, dict]:
    labels = range(1, n + 1)
    conns = {"imp": (2, {(a, b): min(n, n - a + b) for a in labels for b in labels})}
    if "neg" in extra:
        conns["neg"] = (1, {(a,): n - a + 1 for a in labels})
    if "or" in extra:
        conns["or"] = (2, {(a, b): max(a, b) for a in labels for b in labels})
    if "and" in extra:
        conns["and"] = (2, {(a, b): min(a, b) for a in labels for b in labels})
    return n, conns


def render_signature(sig) -> str:
    n, conns = sig
    lines = [f"domain {n}"]
    for name, (arity, table) in sorted(conns.items()):
        lines.append(f"conn {name} {arity}")
        for entry, out in sorted(table.items()):
            lines.append(f"{name} {' '.join(map(str, entry))} = {out}")
    return "\n".join(lines) + "\n"


def monotone(table: dict) -> bool:
    return all(out <= table.get(entry[:i] + (entry[i] + 1,) + entry[i + 1:], out)
               for entry, out in table.items() for i in range(len(entry)))


# ---------------------------------------------------------------------------
# Formulas and sequents
# ---------------------------------------------------------------------------


def render(f) -> str:
    tag = f[0]
    if tag == "v":
        return f[1]
    if tag == "c":
        return f"{f[1]}({', '.join(render(a) for a in f[2])})"
    return ("Box " if tag == "B" else "Dia ") + render(f[1])


def render_sequent(ante, succ) -> str:
    def side(lfs):
        return ", ".join(f"({render(f)}, {k})" for f, k in lfs)
    return f"{side(ante)} -> {side(succ)}".strip()


def closure(formulas) -> set:
    seen = set()
    stack = list(formulas)
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        if f[0] == "c":
            stack.extend(f[2])
        elif f[0] in "BD":
            stack.append(f[1])
    return seen


def godel(f, sig=None):
    """Box before every subformula; with sig, none before monotone connectives."""
    if f[0] == "v":
        return ("B", f)
    body = ("c", f[1], tuple(godel(a, sig) for a in f[2]))
    if sig is not None and monotone(sig[1][f[1]][1]):
        return body
    return ("B", body)


_TOKEN = re.compile(r"\s*(->|[(),]|[A-Za-z_][A-Za-z0-9_']*|\d+)")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_sequent(text: str):
    """(antecedent, succedent) as frozensets of (formula, label)."""
    toks = _tokens(text)
    pos = 0

    def formula():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            inner = formula()
            pos += 1  # ')'
            return inner
        if tok in ("Box", "Dia"):
            return ("B" if tok == "Box" else "D", formula())
        if pos < len(toks) and toks[pos] == "(":  # rendered calls only
            pos += 1
            args = [formula()]
            while toks[pos] == ",":
                pos += 1
                args.append(formula())
            pos += 1  # ')'
            return ("c", tok, tuple(args))
        return ("v", tok)

    def labelled():
        nonlocal pos
        pos += 1  # '('
        f = formula()
        pos += 1  # ','
        k = int(toks[pos])
        pos += 2  # label ')'
        return f, k

    def side():
        nonlocal pos
        out = []
        while pos < len(toks) and toks[pos] == "(":
            out.append(labelled())
            if pos < len(toks) and toks[pos] == ",":
                pos += 1
        return frozenset(out)

    ante = side()
    if toks[pos] != "->":
        raise ValueError(f"no arrow in {text!r}")
    pos += 1
    succ = side()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return ante, succ


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def make_model(world_count: int, edges, vals: dict):
    succ = [[] for _ in range(world_count)]
    for u, v in sorted(set(edges)):
        succ[u].append(v)
    return world_count, tuple(tuple(s) for s in succ), dict(vals)


def edges_of(model):
    return [(u, v) for u, vs in enumerate(model[1]) for v in vs]


def render_model(model) -> str:
    world_count, _, vals = model
    lines = [f"worlds {world_count}"]
    lines += [f"edge {u} {v}" for u, v in edges_of(model)]
    lines += [f"val {u} {p} {k}" for (u, p), k in sorted(vals.items())]
    return "\n".join(lines) + "\n"


def parse_model(lines) -> tuple:
    world_count, edges, vals = None, [], {}
    for line in lines:
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] == "worlds":
            world_count = int(words[1])
        elif words[0] == "edge":
            edges.append((int(words[1]), int(words[2])))
        elif words[0] == "val":
            vals[(int(words[1]), words[2])] = int(words[3])
        else:
            raise ValueError(f"unexpected model line {line!r}")
    if world_count is None:
        raise ValueError("model without a worlds line")
    return make_model(world_count, edges, vals)


# ---------------------------------------------------------------------------
# Evaluation: one value vector over all worlds per formula
# ---------------------------------------------------------------------------


def values(sig, model, f, memo=None) -> tuple[int, ...]:
    n, conns = sig
    world_count, succ, vals = model
    memo = {} if memo is None else memo
    if f in memo:
        return memo[f]
    tag = f[0]
    if tag == "v":
        out = tuple(vals.get((w, f[1]), 1) for w in range(world_count))
    elif tag == "c":
        table = conns[f[1]][1]
        args = [values(sig, model, a, memo) for a in f[2]]
        out = tuple(table[tuple(a[w] for a in args)] for w in range(world_count))
    else:
        sub = values(sig, model, f[1], memo)
        if tag == "B":
            out = tuple(min((sub[v] for v in succ[w]), default=n)
                        for w in range(world_count))
        else:
            out = tuple(max((sub[v] for v in succ[w]), default=1)
                        for w in range(world_count))
    memo[f] = out
    return out


def mvil_values(sig, model, f, memo=None) -> tuple[int, ...]:
    """Intuitionistic values: compounds take the minimum over successors."""
    conns = sig[1]
    world_count, succ, vals = model
    memo = {} if memo is None else memo
    if f in memo:
        return memo[f]
    if f[0] == "v":
        out = tuple(vals.get((w, f[1]), 1) for w in range(world_count))
    else:
        table = conns[f[1]][1]
        args = [mvil_values(sig, model, a, memo) for a in f[2]]
        out = tuple(min(table[tuple(a[v] for a in args)] for v in succ[w])
                    for w in range(world_count))
    memo[f] = out
    return out


def holds(sig, model, world, sequent, memo=None) -> bool:
    ante, succ = sequent
    memo = {} if memo is None else memo
    if not all(values(sig, model, f, memo)[world] == k for f, k in ante):
        return True
    return any(values(sig, model, f, memo)[world] == k for f, k in succ)


def holds_everywhere(sig, model, sequents) -> bool:
    memo: dict = {}
    return all(holds(sig, model, w, s, memo)
               for s in sequents for w in range(model[0]))


# ---------------------------------------------------------------------------
# Frame classes
# ---------------------------------------------------------------------------


def in_class(model, frame_class: str) -> bool:
    world_count, succ, _ = model
    worlds = range(world_count)
    rel = {(u, v) for u in worlds for v in succ[u]}
    reflexive = all((u, u) in rel for u in worlds)
    transitive = all((u, w) in rel for u, v in rel for w in succ[v])
    euclidean = all((v, w) in rel for u in worlds for v in succ[u] for w in succ[u])
    return {
        "any": True,
        "serial": all(succ[u] for u in worlds),
        "reflexive": reflexive,
        "transitive": transitive,
        "symmetric": all((v, u) in rel for u, v in rel),
        "euclidean": euclidean,
        "preorder": reflexive and transitive,
        "equivalence": reflexive and euclidean,
    }[frame_class]


LOGIC_CLASS = {
    "mv-K": "any",
    "mv-D": "serial",
    "mv-T": "reflexive",
    "mv-K4": "transitive",
    "mv-S4": "preorder",
    "mv-B": "symmetric",
    "mv-S5": "equivalence",
}
