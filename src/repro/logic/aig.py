"""And-Inverter Graphs (AIGs) with structural hashing.

AIGs are the de-facto exchange format of the hardware model-checking
community (AIGER).  This module provides:

* a compact AIG data structure (ands over two literal operands, with
  inversion encoded in the literal's low bit, as in AIGER),
* structural hashing plus the usual local rewrites,
* conversion to/from :class:`repro.logic.expr.Expr`, and
* sequential elements (latches) and named inputs/outputs, enough to
  round-trip AIGER ASCII files (see :mod:`repro.system.aiger_io`).

Literal convention (AIGER): a *literal* is ``2*var + sign`` where
``var`` 0 is the constant FALSE, so literal 0 is FALSE and literal 1 is
TRUE.  ``lit ^ 1`` negates.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from . import expr as ex
from .expr import Expr
from .program import Program

__all__ = ["AIG", "aig_from_expr", "aig_to_expr", "build_literals",
           "AIG_FALSE", "AIG_TRUE"]

AIG_FALSE = 0
AIG_TRUE = 1


def _aig_not(lit: int) -> int:
    return lit ^ 1


class AIG:
    """A (possibly sequential) And-Inverter Graph.

    Attributes
    ----------
    inputs:
        List of input literals (even, positive).
    latches:
        List of ``(latch_literal, next_state_literal, init_value)``
        triples; ``init_value`` is 0, 1 or None (uninitialized).
    outputs:
        List of output literals.
    ands:
        ``ands[i]`` is the pair of operand literals of AND node with
        variable index ``i + first_and_var``.
    """

    def __init__(self) -> None:
        self._num_vars = 0                     # excluding constant var 0
        self.inputs: List[int] = []
        self.latches: List[Tuple[int, int, int | None]] = []
        self.outputs: List[int] = []
        self._and_defs: Dict[int, Tuple[int, int]] = {}   # var -> (a, b)
        self._strash: Dict[Tuple[int, int], int] = {}     # (a, b) -> lit
        self.names: Dict[int, str] = {}                   # literal -> name

    # ------------------------------------------------------------------
    # Node creation
    # ------------------------------------------------------------------
    def _new_var(self) -> int:
        self._num_vars += 1
        return self._num_vars

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_ands(self) -> int:
        return len(self._and_defs)

    def add_input(self, name: str | None = None) -> int:
        """Create a new primary input; returns its (positive) literal."""
        lit = 2 * self._new_var()
        self.inputs.append(lit)
        if name:
            self.names[lit] = name
        return lit

    def add_latch(self, name: str | None = None,
                  init: int | None = 0) -> int:
        """Create a latch with yet-unset next-state; returns its literal.

        Call :meth:`set_latch_next` once the next-state cone is built.
        """
        lit = 2 * self._new_var()
        self.latches.append((lit, AIG_FALSE, init))
        if name:
            self.names[lit] = name
        return lit

    def set_latch_next(self, latch_lit: int, next_lit: int) -> None:
        """Define the next-state function of an existing latch."""
        for idx, (lit, _, init) in enumerate(self.latches):
            if lit == latch_lit:
                self.latches[idx] = (lit, next_lit, init)
                return
        raise KeyError(f"literal {latch_lit} is not a latch")

    def add_output(self, lit: int, name: str | None = None) -> None:
        """Mark a literal as a primary output."""
        self.outputs.append(lit)
        if name:
            self.names[lit] = name

    def mk_and(self, a: int, b: int) -> int:
        """Structural-hashed AND with the standard local rewrites."""
        if a > b:
            a, b = b, a
        if a == AIG_FALSE or a == _aig_not(b):
            return AIG_FALSE
        if a == AIG_TRUE:
            return b
        if a == b:
            return a
        key = (a, b)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        v = self._new_var()
        lit = 2 * v
        self._and_defs[v] = key
        self._strash[key] = lit
        return lit

    def mk_or(self, a: int, b: int) -> int:
        return _aig_not(self.mk_and(_aig_not(a), _aig_not(b)))

    def mk_xor(self, a: int, b: int) -> int:
        return self.mk_or(self.mk_and(a, _aig_not(b)),
                          self.mk_and(_aig_not(a), b))

    def mk_ite(self, c: int, t: int, e: int) -> int:
        return self.mk_or(self.mk_and(c, t), self.mk_and(_aig_not(c), e))

    def mk_not(self, a: int) -> int:
        return _aig_not(a)

    def and_def(self, var: int) -> Tuple[int, int]:
        """Operands of AND node ``var``."""
        return self._and_defs[var]

    def iter_ands(self) -> Iterable[Tuple[int, int, int]]:
        """Yield ``(lhs_literal, rhs0, rhs1)`` in topological order."""
        for v in sorted(self._and_defs):
            a, b = self._and_defs[v]
            yield 2 * v, a, b

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, lit_values: Dict[int, bool],
                 targets: Sequence[int]) -> List[bool]:
        """Evaluate target literals given values for inputs and latches.

        ``lit_values`` maps *positive* literals (inputs/latches) to bool.
        """
        leaves = {lit: f"l{lit}" for lit in lit_values}
        program = Program([aig_to_expr(self, t, leaves) for t in targets])
        return [bool(v) for v in program.evaluate(
            {leaves[lit]: bool(v) for lit, v in lit_values.items()})]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AIG(inputs={len(self.inputs)}, latches={len(self.latches)},"
                f" ands={self.num_ands}, outputs={len(self.outputs)})")


def aig_from_expr(roots: Sequence[Expr]) -> Tuple[AIG, List[int]]:
    """Build a combinational AIG from expression roots.

    Expression variables become AIG inputs (one per distinct name, in
    first-seen order).  Returns the AIG and the literal of each root.
    """
    aig = AIG()
    return aig, build_literals(aig, roots, aig.add_input)


def build_literals(aig: AIG, roots: Sequence[Expr],
                   leaf: Callable[[str], int]) -> List[int]:
    """The literal of each root, built into ``aig`` from its compiled
    program; ``leaf(name)`` gives each variable's literal."""
    def chain(gate: Callable[[int, int], int], unit: int):
        return lambda *kids: functools.reduce(gate, kids, unit)
    return Program(roots).lower(leaf, {
        "not": _aig_not,
        "and": chain(aig.mk_and, AIG_TRUE),
        "or": chain(aig.mk_or, AIG_FALSE),
        "xor": aig.mk_xor,
        "iff": lambda a, b: _aig_not(aig.mk_xor(a, b)),
        "ite": aig.mk_ite,
    }, AIG_FALSE, AIG_TRUE)


def aig_to_expr(aig: AIG, lit: int,
                leaf_names: Dict[int, str] | None = None) -> Expr:
    """Convert the cone of ``lit`` back into an expression.

    ``leaf_names`` optionally overrides the names of input/latch leaves
    (keyed by positive literal); unnamed leaves get ``n<var>``.

    AND operands always have smaller variable indices than the node that
    uses them (nodes are hashed after their operands exist), so a single
    pass over AND nodes in variable order is a topological rebuild.
    """
    leaf_names = leaf_names or {}

    def leaf(positive_lit: int) -> Expr:
        name = leaf_names.get(positive_lit) or aig.names.get(positive_lit)
        if name is None:
            name = f"n{positive_lit // 2}"
        return ex.var(name)

    memo: Dict[int, Expr] = {AIG_FALSE: ex.FALSE}

    def expr_of(l: int) -> Expr:
        positive = l & ~1
        node = memo.get(positive)
        if node is None:
            node = leaf(positive)
            memo[positive] = node
        return ex.mk_not(node) if (l & 1) else node

    for lhs, a, b in aig.iter_ands():
        memo[lhs] = ex.mk_and(expr_of(a), expr_of(b))
    return expr_of(lit)
