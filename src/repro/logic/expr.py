"""Hash-consed Boolean expression DAGs.

This module is the Boolean substrate for the whole library: transition
relations, initial/final state predicates and properties are all built as
:class:`Expr` DAGs and later compiled to CNF (:mod:`repro.logic.tseitin`)
or to AIGs (:mod:`repro.logic.aig`).

Expressions are immutable and *hash-consed*: structurally identical
sub-expressions are represented by the same Python object, so equality is
identity and DAG sharing is automatic.  Constructors perform light,
local simplification (constant folding, flattening, complement
detection), which keeps downstream CNF encodings small without a separate
rewriting pass.

Example
-------
>>> a, b = var("a"), var("b")
>>> f = (a & ~b) | (b & ~a)
>>> f.evaluate({"a": True, "b": False})
True
>>> sorted(f.support())
['a', 'b']
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple

__all__ = [
    "Expr",
    "var",
    "const",
    "TRUE",
    "FALSE",
    "mk_not",
    "mk_and",
    "mk_or",
    "mk_xor",
    "mk_iff",
    "mk_implies",
    "mk_ite",
    "conjoin",
    "disjoin",
    "equal_vectors",
    "substitute",
    "simplify_with",
    "expr_size",
    "clear_intern_cache",
    "interning_scope",
]

# Node operator tags.  Kept as plain strings for debuggability.
_VAR = "var"
_CONST = "const"
_NOT = "not"
_AND = "and"
_OR = "or"
_XOR = "xor"
_IFF = "iff"
_ITE = "ite"

_OPS_WITH_ARGS = frozenset({_NOT, _AND, _OR, _XOR, _IFF, _ITE})

_intern_table: Dict[tuple, "Expr"] = {}
_id_counter = itertools.count()


class Expr:
    """An immutable node of a Boolean expression DAG.

    Do not instantiate directly; use :func:`var`, :func:`const` and the
    ``mk_*`` constructors (or the overloaded operators ``&``, ``|``,
    ``~``, ``^``).  Thanks to hash-consing, ``==`` is identity and nodes
    are safely usable as dictionary keys.
    """

    __slots__ = ("op", "args", "name", "value", "uid")

    op: str
    args: Tuple["Expr", ...]
    name: str | None
    value: bool | None
    uid: int

    def __new__(cls, op: str, args: Tuple["Expr", ...] = (),
                name: str | None = None, value: bool | None = None) -> "Expr":
        key = (op, args, name, value)
        node = _intern_table.get(key)
        if node is not None:
            return node
        node = object.__new__(cls)
        object.__setattr__(node, "op", op)
        object.__setattr__(node, "args", args)
        object.__setattr__(node, "name", name)
        object.__setattr__(node, "value", value)
        object.__setattr__(node, "uid", next(_id_counter))
        _intern_table[key] = node
        return node

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Expr nodes are immutable")

    def __reduce__(self) -> tuple:
        # Hash-consed nodes cannot use default pickling (__new__ takes
        # arguments and __setattr__ is disabled).  Reconstructing through
        # Expr(...) re-interns every node in the receiving process, so
        # DAG sharing and identity-equality survive a round trip — this
        # is what lets transition systems travel to portfolio worker
        # processes.
        return (Expr, (self.op, self.args, self.name, self.value))

    # ------------------------------------------------------------------
    # Operator sugar
    # ------------------------------------------------------------------
    def __invert__(self) -> "Expr":
        return mk_not(self)

    def __and__(self, other: "Expr") -> "Expr":
        return mk_and(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return mk_or(self, other)

    def __xor__(self, other: "Expr") -> "Expr":
        return mk_xor(self, other)

    def implies(self, other: "Expr") -> "Expr":
        """Return ``self -> other``."""
        return mk_implies(self, other)

    def iff(self, other: "Expr") -> "Expr":
        """Return ``self <-> other``."""
        return mk_iff(self, other)

    def ite(self, then_branch: "Expr", else_branch: "Expr") -> "Expr":
        """Return ``if self then then_branch else else_branch``."""
        return mk_ite(self, then_branch, else_branch)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_var(self) -> bool:
        return self.op == _VAR

    @property
    def is_const(self) -> bool:
        return self.op == _CONST

    @property
    def is_true(self) -> bool:
        return self.op == _CONST and self.value is True

    @property
    def is_false(self) -> bool:
        return self.op == _CONST and self.value is False

    def iter_dag(self) -> Iterator["Expr"]:
        """Yield every node of the DAG rooted here exactly once.

        Children are yielded before parents (post-order), which makes the
        iterator directly usable for bottom-up evaluation passes.
        """
        seen: set[int] = set()
        stack: list[tuple[Expr, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if node.uid in seen:
                continue
            if expanded:
                seen.add(node.uid)
                yield node
            else:
                stack.append((node, True))
                for child in node.args:
                    if child.uid not in seen:
                        stack.append((child, False))

    def support(self) -> FrozenSet[str]:
        """Return the set of variable names the expression depends on."""
        return frozenset(n.name for n in self.iter_dag()
                         if n.op == _VAR and n.name is not None)

    def evaluate(self, env: Mapping[str, bool]) -> bool:
        """Evaluate under a total assignment ``env`` (name -> bool).

        Raises ``KeyError`` if a variable in the support is missing from
        ``env``.  Evaluation is iterative, so arbitrarily deep DAGs are
        safe.
        """
        values: Dict[int, bool] = {}
        for node in self.iter_dag():
            values[node.uid] = _eval_node(node, values, env)
        return values[self.uid]

    def size(self) -> int:
        """Number of distinct DAG nodes (a proxy for formula size)."""
        return sum(1 for _ in self.iter_dag())

    def depth(self) -> int:
        """Longest path from this node to a leaf."""
        depths: Dict[int, int] = {}
        for node in self.iter_dag():
            if not node.args:
                depths[node.uid] = 0
            else:
                depths[node.uid] = 1 + max(depths[c.uid] for c in node.args)
        return depths[self.uid]

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Expr({self})"

    def __str__(self) -> str:
        return _format(self)


def _eval_node(node: Expr, values: Dict[int, bool],
               env: Mapping[str, bool]) -> bool:
    op = node.op
    if op == _CONST:
        assert node.value is not None
        return node.value
    if op == _VAR:
        assert node.name is not None
        return bool(env[node.name])
    child = [values[c.uid] for c in node.args]
    if op == _NOT:
        return not child[0]
    if op == _AND:
        return all(child)
    if op == _OR:
        return any(child)
    if op == _XOR:
        return child[0] != child[1]
    if op == _IFF:
        return child[0] == child[1]
    if op == _ITE:
        return child[1] if child[0] else child[2]
    raise ValueError(f"unknown operator {op!r}")


def _format(root: Expr) -> str:
    parts: Dict[int, str] = {}
    for node in root.iter_dag():
        op = node.op
        if op == _CONST:
            parts[node.uid] = "1" if node.value else "0"
        elif op == _VAR:
            parts[node.uid] = str(node.name)
        elif op == _NOT:
            parts[node.uid] = f"!{parts[node.args[0].uid]}"
        elif op == _ITE:
            c, t, e = (parts[a.uid] for a in node.args)
            parts[node.uid] = f"ite({c}, {t}, {e})"
        else:
            sym = {_AND: " & ", _OR: " | ", _XOR: " ^ ", _IFF: " <-> "}[op]
            parts[node.uid] = "(" + sym.join(parts[a.uid] for a in node.args) + ")"
    return parts[root.uid]


# ----------------------------------------------------------------------
# Leaf constructors
# ----------------------------------------------------------------------

TRUE = Expr(_CONST, value=True)
FALSE = Expr(_CONST, value=False)


def const(value: bool) -> Expr:
    """Return the constant TRUE or FALSE node."""
    return TRUE if value else FALSE


def var(name: str) -> Expr:
    """Return the (unique) variable node with the given name."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"variable name must be a non-empty string, got {name!r}")
    return Expr(_VAR, name=name)


# ----------------------------------------------------------------------
# Simplifying constructors
# ----------------------------------------------------------------------

def mk_not(a: Expr) -> Expr:
    """Negation with double-negation and constant folding."""
    if a.op == _NOT:
        return a.args[0]
    if a.is_const:
        return const(not a.value)
    return Expr(_NOT, (a,))


def _strip_not(a: Expr) -> Tuple[Expr, bool]:
    """Return (atom, negated) where ``a == ~atom`` iff ``negated``."""
    if a.op == _NOT:
        return a.args[0], True
    return a, False


def _mk_nary(op: str, neutral: Expr, dominant: Expr,
             operands: Iterable[Expr]) -> Expr:
    """Shared builder for AND/OR: flatten, fold, dedupe, detect x op ~x."""
    flat: list[Expr] = []
    stack = list(operands)
    stack.reverse()
    while stack:
        item = stack.pop()
        if not isinstance(item, Expr):
            raise TypeError(f"expected Expr, got {type(item).__name__}")
        if item.op == op:
            stack.extend(reversed(item.args))
        elif item is dominant:
            return dominant
        elif item is neutral:
            continue
        else:
            flat.append(item)

    seen: set[int] = set()
    atoms: set[tuple[int, bool]] = set()
    unique: list[Expr] = []
    for item in flat:
        if item.uid in seen:
            continue
        seen.add(item.uid)
        atom, neg = _strip_not(item)
        if (atom.uid, not neg) in atoms:
            return dominant          # x and ~x both present
        atoms.add((atom.uid, neg))
        unique.append(item)

    if not unique:
        return neutral
    if len(unique) == 1:
        return unique[0]
    unique.sort(key=lambda n: n.uid)
    return Expr(op, tuple(unique))


def mk_and(*operands: Expr) -> Expr:
    """N-ary conjunction with flattening and local simplification."""
    return _mk_nary(_AND, TRUE, FALSE, operands)


def mk_or(*operands: Expr) -> Expr:
    """N-ary disjunction with flattening and local simplification."""
    return _mk_nary(_OR, FALSE, TRUE, operands)


def conjoin(operands: Iterable[Expr]) -> Expr:
    """Conjunction of an iterable (``mk_and`` over a sequence)."""
    return mk_and(*operands)


def disjoin(operands: Iterable[Expr]) -> Expr:
    """Disjunction of an iterable (``mk_or`` over a sequence)."""
    return mk_or(*operands)


def mk_xor(a: Expr, b: Expr) -> Expr:
    """Binary exclusive-or with constant/complement folding."""
    if a.is_const:
        return mk_not(b) if a.value else b
    if b.is_const:
        return mk_not(a) if b.value else a
    if a is b:
        return FALSE
    a_atom, a_neg = _strip_not(a)
    b_atom, b_neg = _strip_not(b)
    if a_atom is b_atom:
        return TRUE if a_neg != b_neg else FALSE
    # Canonicalize: keep negations out of XOR when they cancel pairwise.
    if a_neg and b_neg:
        a, b = a_atom, b_atom
    if a.uid > b.uid:
        a, b = b, a
    return Expr(_XOR, (a, b))


def mk_iff(a: Expr, b: Expr) -> Expr:
    """Binary equivalence: ``a <-> b == ~(a ^ b)``."""
    return mk_not(mk_xor(a, b))


def mk_implies(a: Expr, b: Expr) -> Expr:
    """Implication ``a -> b`` as ``~a | b``."""
    return mk_or(mk_not(a), b)


def mk_ite(cond: Expr, then_branch: Expr, else_branch: Expr) -> Expr:
    """If-then-else with constant folding on any argument."""
    if cond.is_const:
        return then_branch if cond.value else else_branch
    if then_branch is else_branch:
        return then_branch
    if then_branch.is_true and else_branch.is_false:
        return cond
    if then_branch.is_false and else_branch.is_true:
        return mk_not(cond)
    if then_branch.is_true:
        return mk_or(cond, else_branch)
    if then_branch.is_false:
        return mk_and(mk_not(cond), else_branch)
    if else_branch.is_true:
        return mk_or(mk_not(cond), then_branch)
    if else_branch.is_false:
        return mk_and(cond, then_branch)
    return Expr(_ITE, (cond, then_branch, else_branch))


def equal_vectors(xs: Iterable[Expr], ys: Iterable[Expr]) -> Expr:
    """Bitwise equality of two equal-length vectors: ``⋀ (x_i <-> y_i)``.

    This is the ``U <-> Z_i`` selector used throughout the QBF encodings
    of the paper (formulae (2) and (3)).
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"vector length mismatch: {len(xs)} vs {len(ys)}")
    return conjoin(mk_iff(x, y) for x, y in zip(xs, ys))


# ----------------------------------------------------------------------
# Structure-preserving transforms
# ----------------------------------------------------------------------

def _rebuild(node: Expr, new_args: Tuple[Expr, ...]) -> Expr:
    op = node.op
    if op == _NOT:
        return mk_not(new_args[0])
    if op == _AND:
        return mk_and(*new_args)
    if op == _OR:
        return mk_or(*new_args)
    if op == _XOR:
        return mk_xor(new_args[0], new_args[1])
    if op == _IFF:
        return mk_iff(new_args[0], new_args[1])
    if op == _ITE:
        return mk_ite(new_args[0], new_args[1], new_args[2])
    raise ValueError(f"cannot rebuild operator {op!r}")


def substitute(root: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneously replace variables by expressions.

    ``mapping`` maps variable *names* to replacement expressions.
    Variables absent from the mapping are left untouched.  The result is
    re-simplified bottom-up by the ``mk_*`` constructors.
    """
    out: Dict[int, Expr] = {}
    for node in root.iter_dag():
        if node.op == _VAR:
            assert node.name is not None
            out[node.uid] = mapping.get(node.name, node)
        elif node.op == _CONST:
            out[node.uid] = node
        else:
            out[node.uid] = _rebuild(node, tuple(out[c.uid] for c in node.args))
    return out[root.uid]


def simplify_with(root: Expr, partial: Mapping[str, bool]) -> Expr:
    """Cofactor ``root`` with respect to a partial assignment."""
    mapping = {name: const(value) for name, value in partial.items()}
    return substitute(root, mapping)


def expr_size(root: Expr) -> int:
    """Convenience alias for ``root.size()``."""
    return root.size()


def rename_vars(root: Expr, rename: Mapping[str, str] | Callable[[str], str]) -> Expr:
    """Rename variables via a dict or a callable on names."""
    if callable(rename):
        fn = rename
    else:
        table = dict(rename)

        def fn(name: str) -> str:
            return table.get(name, name)

    mapping = {name: var(fn(name)) for name in root.support()}
    return substitute(root, mapping)


def clear_intern_cache() -> None:
    """Drop the global hash-consing table (keeps TRUE/FALSE alive).

    Mainly useful in long-running test sessions to bound memory.  Existing
    Expr objects remain valid; newly built structurally-equal nodes will
    simply no longer be identical to the old ones, so callers must not mix
    expressions created across a cache clear.
    """
    _intern_table.clear()
    _intern_table[(_CONST, (), None, True)] = TRUE
    _intern_table[(_CONST, (), None, False)] = FALSE


@contextlib.contextmanager
def interning_scope() -> Iterator[None]:
    """Forget, on exit, every node first interned inside the block.

    Nodes that existed before the block are untouched, so the table
    leaves the block as it entered it, and what is built after the
    block is canonicalised (``uid`` order) exactly as if the block had
    never run.  Nodes built inside stay valid as values, with the same
    caveat as :func:`clear_intern_cache`: do not mix them with nodes
    built after the block.
    """
    mark = len(_intern_table)
    try:
        yield
    finally:
        for key in list(itertools.islice(_intern_table, mark, None)):
            del _intern_table[key]
