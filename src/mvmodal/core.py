"""Truth domains, signatures, formulas, labelled formulas and sequents.

Truth values are identified with the integer labels 1..n, ordered as
integers (label k stands for the k-th truth value in the chain).  All
values here are immutable and safe to share; equal formulas are one object.

The formula nodes are dataclasses.  Every other value type of the
package (domains, signatures, labelled formulas, sequents, models,
verdicts, reports and proof steps) is a Record: a frozen value record
that behaves as @dataclass(frozen=True) did, with none of the code
generation that costs the decorator most of a module's import time.  A
record class lists its fields in __match_args__.  Record stores the
fields, binding its arguments to those names as a Python signature of
them would; a record that checks or normalises writes its own __init__,
which stores each field through _set_field.  Record gives every record
the rest: equality on the exact class and the tuple of fields, a hash
of that tuple, the dataclass repr, and dataclasses.FrozenInstanceError
on assignment and deletion.  Instances keep their __dict__, so copy and
pickle handle them as they handle any plain object.
"""

from __future__ import annotations

import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import FrozenInstanceError, dataclass
from itertools import product
from operator import attrgetter, index
from typing import Iterable, Mapping

#: Names that may never be used as connective names.
RESERVED_NAMES = frozenset({"Box", "Dia"})

#: Stores a field of a record in its __init__, past Record.__setattr__.
_set_field = object.__setattr__


class Record:
    """A frozen value record; see the module docstring."""

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Equality and hash close over the class's field getter, so a
        # call looks nothing up to find the fields; a class that writes
        # its own keeps it.
        names = cls.__match_args__
        if len(names) != 1:
            fields = attrgetter(*names) if names else (lambda self: ())

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return fields(self) == fields(other)
                return NotImplemented

            def __hash__(self):
                return hash(fields(self))
        else:
            get = attrgetter(names[0])

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return (get(self),) == (get(other),)
                return NotImplemented

            def __hash__(self):
                return hash((get(self),))
        for method in (__eq__, __hash__):
            if method.__name__ not in cls.__dict__:
                setattr(cls, method.__name__, method)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(names, args))

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The fields' values in order, from arguments bound to the
        field names as a Python signature of those parameters binds them."""
        names, cls = self.__match_args__, self.__class__.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} positional argument"
                            f"{'s' * (len(names) != 1)} but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                raise TypeError(f"{cls}() missing required argument {name!r}")
        return [values[name] for name in names]

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class TruthDomain(Record):
    """A linearly ordered set of n >= 2 truth values, as labels 1..n."""

    __match_args__ = ("n",)
    n: int

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"truth domain needs at least 2 values, got {n}")
        _set_field(self, "n", n)

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)


class Connective(Record):
    """A truth-table connective of fixed arity (arity 0 = constant)."""

    __match_args__ = ("name", "arity", "table")
    name: str
    arity: int
    table: Mapping[tuple[int, ...], int]

    def __init__(self, name: str, arity: int, table: Mapping[tuple[int, ...], int]):
        if arity < 0:
            raise ValueError(f"negative arity for connective {name!r}")
        _set_field(self, "name", name)
        _set_field(self, "arity", arity)
        _set_field(self, "table", table)

    def __hash__(self):
        return hash((self.name, self.arity))


class Signature(Record):
    """A truth domain together with named truth-table connectives.

    Construction validates that every table is total on the domain and
    that no connective reuses a reserved modal keyword.
    """

    __match_args__ = ("domain", "connectives")
    domain: TruthDomain
    connectives: Mapping[str, Connective]

    def __init__(self, domain: TruthDomain, connectives: Mapping[str, Connective]):
        _set_field(self, "domain", domain)
        _set_field(self, "connectives", connectives)
        n = domain.n
        for name, conn in connectives.items():
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
            # one pass over the whole table; the entries are walked only
            # to name the first bad one
            labels = set(conn.table.values()).union(*conn.table)
            if (set(map(len, conn.table)) == {conn.arity}
                    and min(labels) >= 1 and max(labels) <= n):
                continue
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


#: The live formula nodes, keyed by class and fields (children by identity),
#: each held by a weak reference that deletes its own entry when it dies.
_nodes: dict[tuple, weakref.KeyedRef] = {}
_nodes_lock = threading.Lock()


def _forget(ref: weakref.KeyedRef, nodes: dict = _nodes) -> None:
    # deletes the entry only if it still holds a dead reference, so a node
    # built again under the same key keeps its live one; the table is
    # bound as a default because callbacks can run while modules unload
    _remove_dead_weakref(nodes, ref.key)


def _intern(cls, *values):
    key = (cls, *values)
    ref = _nodes.get(key)
    node = ref and ref()
    if node is None:
        with _nodes_lock:  # two threads that miss together build one node
            ref = _nodes.get(key)
            node = ref and ref()
            if node is None:
                node = object.__new__(cls)
                node.__dict__.update(zip(cls.__match_args__, values))
                _nodes[key] = weakref.KeyedRef(node, _forget, key)
    return node


def _build(nodes: tuple) -> "Formula":
    """The formula that _Node.__reduce__ flattened: each entry is a class,
    then its fields, a subformula given as the index of its entry and
    an Apply's arguments as a tuple of indexes; the last entry is the
    formula.  Built bottom-up through the constructors, so it interns."""
    built: list = []
    for cls, *fields in nodes:
        if cls is Var:
            built.append(Var(fields[0]))
        elif cls is Apply:
            conn, args = fields
            built.append(Apply(conn, map(built.__getitem__, args)))
        else:
            built.append(cls(built[fields[0]]))
    return built[-1]


class _Node:
    """What every formula node shares: it is its own copy, and it pickles
    and prints without recursing, so a formula nested thousands deep
    does both."""

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        order = closure_order((self,))
        index = {f: i for i, f in enumerate(order)}.__getitem__
        nodes = []
        for f in order:
            if isinstance(f, Var):
                nodes.append((Var, f.name))
            elif isinstance(f, Apply):
                nodes.append((Apply, f.conn, tuple(map(index, f.args))))
            else:
                nodes.append((type(f), index(f.sub)))
        return _build, (tuple(nodes),)

    def __repr__(self):
        # the dataclass repr, written from a stack: a str on it is output,
        # a node is replaced by its parts
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts: list = [f"{type(item).__qualname__}("]
            for i, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                parts.append(f"{', ' if i else ''}{name}=")
                if isinstance(value, tuple):
                    parts.append("(")
                    for j, arg in enumerate(value):
                        if j:
                            parts.append(", ")
                        parts.append(arg if isinstance(arg, _Node) else repr(arg))
                    parts.append(",)" if len(value) == 1 else ")")
                else:
                    parts.append(value if isinstance(value, _Node) else repr(value))
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(out)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Var(_Node):
    name: str

    def __new__(cls, name: str):
        return _intern(cls, name)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Apply(_Node):
    conn: str
    args: tuple["Formula", ...]

    def __new__(cls, conn: str, args: Iterable["Formula"]):
        return _intern(cls, conn, tuple(args))


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Box(_Node):
    sub: "Formula"

    def __new__(cls, sub: "Formula"):
        return _intern(cls, sub)


@dataclass(frozen=True, eq=False, init=False, repr=False)
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


class LabelledFormula(Record):
    """A formula paired with the label of the truth value it takes.

    The label goes through operator.index, so any int-like value is
    stored as an int and a float is a TypeError.
    """

    __match_args__ = ("formula", "label")
    formula: Formula
    label: int

    def __init__(self, formula: Formula, label: int):
        label = index(label)
        if label < 1:
            raise ValueError(f"label must be >= 1, got {label}")
        _set_field(self, "formula", formula)
        _set_field(self, "label", label)

    # Record's methods, written out: sequent sides are sets of these
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.formula, self.label) == (other.formula, other.label)
        return NotImplemented

    def __hash__(self):
        return hash((self.formula, self.label))


def labelled_key(lf: LabelledFormula):
    return (formula_key(lf.formula), lf.label)


class Sequent(Record):
    """A pair of finite sets of labelled formulas.

    Each side is a frozenset, so equal sets of members give equal
    sequents whatever order or repetition they were given in; the
    canonical order is applied only when a sequent is written as text.
    """

    __match_args__ = ("antecedent", "succedent")
    antecedent: frozenset[LabelledFormula]
    succedent: frozenset[LabelledFormula]

    def __init__(self, antecedent: Iterable[LabelledFormula] = (),
                 succedent: Iterable[LabelledFormula] = ()):
        _set_field(self, "antecedent", frozenset(antecedent))
        _set_field(self, "succedent", frozenset(succedent))

    # Record's methods, written out: the proof checker compares sequents
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.antecedent, self.succedent)
                    == (other.antecedent, other.succedent))
        return NotImplemented

    def __hash__(self):
        return hash((self.antecedent, self.succedent))

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


def _checked_connective(sig: Signature, name: str, count: int) -> Connective:
    """The signature's connective `name`, checked against `count` arguments."""
    conn = sig.connective(name)
    if count != conn.arity:
        raise ValueError(f"connective {name!r} expects {conn.arity} arguments, got {count}")
    return conn


def apply_connective(sig: Signature, name: str, args: tuple[int, ...]) -> int:
    """Look up a connective's truth table on a tuple of labels."""
    args = tuple(args)
    return _checked_connective(sig, name, len(args)).table[args]


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
