"""Truth domains, signatures, formulas, labelled formulas and sequents.

Truth values are identified with the integer labels 1..n, ordered as
integers (label k stands for the k-th truth value in the chain).  All
values here are immutable and safe to share; equal formulas are one object.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

#: Names that may never be used as connective names.
RESERVED_NAMES = frozenset({"Box", "Dia"})


@dataclass(frozen=True)
class TruthDomain:
    """A linearly ordered set of n >= 2 truth values, as labels 1..n."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"truth domain needs at least 2 values, got {self.n}")

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class Connective:
    """A truth-table connective of fixed arity (arity 0 = constant)."""

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
    """A truth domain together with named truth-table connectives.

    Construction validates that every table is total on the domain and
    that no connective reuses a reserved modal keyword.
    """

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
                    raise ValueError(f"connective {name!r}: label out of 1..{n} in {entry} = {out}")

    @property
    def n(self) -> int:
        return self.domain.n

    def connective(self, name: str) -> Connective:
        try:
            return self.connectives[name]
        except KeyError:
            raise ValueError(f"unknown connective {name!r}") from None


def make_signature(n: int, connectives: Iterable[Connective] = ()) -> Signature:
    """Convenience constructor; rejects duplicate connective names."""
    table: dict[str, Connective] = {}
    for conn in connectives:
        if conn.name in table:
            raise ValueError(f"duplicate connective name {conn.name!r}")
        table[conn.name] = conn
    return Signature(TruthDomain(n), table)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


#: The live formula nodes, keyed by class and fields (children by identity).
_nodes: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_nodes_lock = threading.Lock()


def _intern(cls, *values):
    key = (cls, *values)
    node = _nodes.get(key)
    if node is None:
        with _nodes_lock:  # two threads that miss together build one node
            node = _nodes.get(key)
            if node is None:
                node = object.__new__(cls)
                node.__dict__.update(zip(cls.__match_args__, values))
                _nodes[key] = node
    return node


def _rebuild(node):
    # Copies and unpickling go through the constructor, so they intern.
    return type(node), tuple(getattr(node, name) for name in node.__match_args__)


class _Node:
    __reduce__ = _rebuild


@dataclass(frozen=True, eq=False, init=False)
class Var(_Node):
    name: str

    def __new__(cls, name: str):
        return _intern(cls, name)


@dataclass(frozen=True, eq=False, init=False)
class Apply(_Node):
    conn: str
    args: tuple["Formula", ...]

    def __new__(cls, conn: str, args: Iterable["Formula"]):
        return _intern(cls, conn, tuple(args))


@dataclass(frozen=True, eq=False, init=False)
class Box(_Node):
    sub: "Formula"

    def __new__(cls, sub: "Formula"):
        return _intern(cls, sub)


@dataclass(frozen=True, eq=False, init=False)
class Diamond(_Node):
    sub: "Formula"

    def __new__(cls, sub: "Formula"):
        return _intern(cls, sub)


# An operator union, not typing.Union: typing caches the arguments of each
# Union it builds, and would keep every re-imported copy of the package.
Formula = Var | Apply | Box | Diamond


#: Closes an Apply's arguments in formula_key; below every tag, so an
#: argument list that is a prefix of another orders first.
_END = -1
_CLOSE_ARGS = object()  # marks on formula_key's stack where _END goes


def formula_key(formula: Formula) -> tuple:
    """A total structural order on formulas, for canonical rendering.

    The key is the preorder token tuple: a tag (0 Var, 1 Apply, 2 Box,
    3 Dia), then the name or connective, the operands' tokens, and _END
    after an Apply's arguments.  The encoding is prefix-free, so flat
    keys order formulas as the nested keys (tag, name-or-connective,
    operand keys) do, and neither building nor comparing one recurses.
    """
    tokens: list = []
    stack: list = [formula]
    while stack:
        f = stack.pop()
        if f is _CLOSE_ARGS:
            tokens.append(_END)
        elif isinstance(f, Var):
            tokens += (0, f.name)
        elif isinstance(f, Apply):
            tokens += (1, f.conn)
            stack.append(_CLOSE_ARGS)
            stack.extend(reversed(f.args))
        elif isinstance(f, Box):
            tokens.append(2)
            stack.append(f.sub)
        elif isinstance(f, Diamond):
            tokens.append(3)
            stack.append(f.sub)
        else:
            raise TypeError(f"not a formula: {f!r}")
    return tuple(tokens)


def closure_order(formulas: Iterable[Formula]) -> tuple[Formula, ...]:
    """Every formula and subformula once, each after its subformulas."""
    order: list[Formula] = []
    done: set[Formula] = set()
    stack = list(formulas)
    while stack:
        f = stack[-1]
        if f not in done:
            subs = (f.args if isinstance(f, Apply)
                    else (f.sub,) if isinstance(f, (Box, Diamond)) else ())
            pending = [a for a in subs if a not in done]
            if pending:
                stack.extend(pending)
                continue
            done.add(f)
            order.append(f)
        stack.pop()
    return tuple(order)


def variables_of(formula: Formula) -> frozenset[str]:
    """All propositional variable names occurring in the formula."""
    return frozenset(f.name for f in closure_order((formula,)) if isinstance(f, Var))


def is_modal_free(formula: Formula) -> bool:
    return not any(isinstance(f, (Box, Diamond)) for f in closure_order((formula,)))


@dataclass(frozen=True)
class LabelledFormula:
    """A formula paired with the label of the truth value it takes."""

    formula: Formula
    label: int

    def __post_init__(self):
        if self.label < 1:
            raise ValueError(f"label must be >= 1, got {self.label}")


def labelled_key(lf: LabelledFormula):
    return (formula_key(lf.formula), lf.label)


@dataclass(frozen=True)
class Sequent:
    """A pair of finite sets of labelled formulas.

    Each side is a frozenset, so equal sets of members give equal
    sequents whatever order or repetition they were given in; the
    canonical order is applied only when a sequent is written as text.
    """

    antecedent: frozenset[LabelledFormula]
    succedent: frozenset[LabelledFormula]

    def __init__(self, antecedent: Iterable[LabelledFormula] = (),
                 succedent: Iterable[LabelledFormula] = ()):
        object.__setattr__(self, "antecedent", frozenset(antecedent))
        object.__setattr__(self, "succedent", frozenset(succedent))

    def formulas(self) -> frozenset[Formula]:
        return frozenset(lf.formula for lf in self.antecedent | self.succedent)

    def variables(self) -> frozenset[str]:
        return frozenset(f.name for f in closure_order(self.formulas())
                         if isinstance(f, Var))


# ---------------------------------------------------------------------------
# Label intervals and derived sets
# ---------------------------------------------------------------------------


def interval(i: int, j: int, n: int) -> frozenset[int]:
    """The labels k with i <= k <= j; empty when i > j.

    i and j may be the formal bounds 0 and n+1, which only ever widen or
    empty the range.
    """
    return frozenset(k for k in range(max(i, 1), min(j, n) + 1))


def _interval_size(i: int, j: int, n: int) -> int:
    """len(interval(i, j, n)), without building the interval."""
    return max(0, min(j, n) - max(i, 1) + 1)


def complement_interval(i: int, j: int, n: int) -> frozenset[int]:
    """{1..n} minus interval(i, j, n)."""
    return frozenset(range(1, n + 1)) - interval(i, j, n)


def up_set(lf: LabelledFormula, n: int) -> frozenset[LabelledFormula]:
    """{formula} x [k, n] for a labelled formula (formula, k)."""
    return frozenset(LabelledFormula(lf.formula, k) for k in interval(lf.label, n, n))


def down_set(lf: LabelledFormula, n: int) -> frozenset[LabelledFormula]:
    """{formula} x [1, k] for a labelled formula (formula, k)."""
    return frozenset(LabelledFormula(lf.formula, k) for k in interval(1, lf.label, n))


def gamma_cross(gamma: Iterable[LabelledFormula], n: int) -> frozenset[LabelledFormula]:
    """Labelled formulas excluded at every successor of a world satisfying gamma.

    For every formula psi with both a boxed label i and a diamonded label j
    in gamma, contributes {psi} x complement_interval(i, j, n).  When a psi
    carries several boxed or diamonded labels, all (i, j) pairs contribute:
    together the complement of the interval from the greatest i to the
    least j.
    """
    return frozenset(LabelledFormula(psi, k)
                     for psi, (i, j) in _cross_bounds(gamma).items()
                     for k in complement_interval(i, j, n))


def _gamma_cross_size(gamma: Iterable[LabelledFormula], n: int) -> int:
    """len(gamma_cross(gamma, n)), without building the set."""
    return sum(n - _interval_size(i, j, n) for i, j in _cross_bounds(gamma).values())


def _cross_bounds(gamma: Iterable[LabelledFormula]) -> dict[Formula, tuple[int, int]]:
    """(greatest boxed label, least diamonded label) of each formula that
    gamma both boxes and diamonds."""
    box_labels: dict[Formula, int] = {}
    dia_labels: dict[Formula, int] = {}
    for lf in gamma:
        if isinstance(lf.formula, Box):
            psi = lf.formula.sub
            box_labels[psi] = max(lf.label, box_labels.get(psi, lf.label))
        elif isinstance(lf.formula, Diamond):
            psi = lf.formula.sub
            dia_labels[psi] = min(lf.label, dia_labels.get(psi, lf.label))
    return {psi: (i, dia_labels[psi]) for psi, i in box_labels.items()
            if psi in dia_labels}


def subformula_closure(formulas: Iterable[Formula]) -> frozenset[Formula]:
    """Smallest superset closed under taking immediate subformulas."""
    return frozenset(closure_order(formulas))


def apply_connective(sig: Signature, name: str, args: tuple[int, ...]) -> int:
    """Look up a connective's truth table on a tuple of labels."""
    conn = sig.connective(name)
    args = tuple(args)
    if len(args) != conn.arity:
        raise ValueError(
            f"connective {name!r} expects {conn.arity} arguments, got {len(args)}"
        )
    return conn.table[args]


# ---------------------------------------------------------------------------
# Stock connective tables
# ---------------------------------------------------------------------------


def lukasiewicz_implication(n: int, name: str = "imp") -> Connective:
    """imp(a, b) = min(n, n - a + b); the classical table at n = 2."""
    table = {(a, b): min(n, n - a + b)
             for a in range(1, n + 1) for b in range(1, n + 1)}
    return Connective(name, 2, table)


def reversal_connective(n: int, name: str = "neg") -> Connective:
    """The order-reversing unary table k -> n - k + 1."""
    return Connective(name, 1, {(k,): n - k + 1 for k in range(1, n + 1)})


def min_connective(n: int, name: str = "and") -> Connective:
    table = {(a, b): min(a, b) for a in range(1, n + 1) for b in range(1, n + 1)}
    return Connective(name, 2, table)


def max_connective(n: int, name: str = "or") -> Connective:
    table = {(a, b): max(a, b) for a in range(1, n + 1) for b in range(1, n + 1)}
    return Connective(name, 2, table)


def lukasiewicz_signature(n: int = 3, negation: bool = False) -> Signature:
    """Domain of size n with Lukasiewicz implication, optionally negation."""
    conns = [lukasiewicz_implication(n)]
    if negation:
        conns.append(reversal_connective(n))
    return make_signature(n, conns)


def all_entries(n: int, arity: int):
    """All label tuples of the given arity, in lexicographic order."""
    return product(range(1, n + 1), repeat=arity)
