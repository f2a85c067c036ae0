"""Symbolic transition systems M = (S, I, TR).

A :class:`TransitionSystem` describes a finite-state machine over Boolean
state variables, exactly the object the paper's reachability formulae
quantify over:

* ``state_vars`` — the state encoding bits (the Z/U/V vectors);
* ``input_vars`` — primary inputs (nondeterminism inside TR);
* ``init`` — characteristic function I of the initial states, an
  :class:`repro.logic.expr.Expr` over ``state_vars``;
* ``trans`` — the transition relation TR(Z, X, Z'), an expression over
  current-state variables, inputs, and *primed* next-state variables.

Priming is by naming convention: the next-state copy of variable ``v``
is ``v'`` (see :func:`primed`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..logic import expr as ex
from ..logic.expr import Expr
from ..logic.program import cached_program

__all__ = ["TransitionSystem", "primed", "unprimed", "is_primed",
           "compose_systems"]

_PRIME = "'"


def primed(name: str) -> str:
    """Next-state copy of a variable name."""
    return name + _PRIME


def unprimed(name: str) -> str:
    """Strip one prime from a primed name."""
    if not name.endswith(_PRIME):
        raise ValueError(f"{name!r} is not primed")
    return name[:-1]


def is_primed(name: str) -> bool:
    """Whether ``name`` is the primed (next-state) copy of a variable."""
    return name.endswith(_PRIME)


class TransitionSystem:
    """A finite-state system with symbolic init and transition relation.

    Example: a 2-bit counter.

    >>> b0, b1 = ex.var("b0"), ex.var("b1")
    >>> ts = TransitionSystem(
    ...     state_vars=["b0", "b1"],
    ...     init=~b0 & ~b1,
    ...     trans=(ex.var("b0'").iff(~b0)
    ...            & ex.var("b1'").iff(b1 ^ b0)))
    >>> ts.num_state_bits
    2
    """

    def __init__(self, state_vars: Sequence[str], init: Expr, trans: Expr,
                 input_vars: Sequence[str] = (), name: str = "system") -> None:
        self.state_vars = list(state_vars)
        self.input_vars = list(input_vars)
        self.init = init
        self.trans = trans
        self.name = name
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if len(set(self.state_vars)) != len(self.state_vars):
            raise ValueError("duplicate state variables")
        if len(set(self.input_vars)) != len(self.input_vars):
            raise ValueError("duplicate input variables")
        overlap = set(self.state_vars) & set(self.input_vars)
        if overlap:
            raise ValueError(f"variables both state and input: {overlap}")
        state = set(self.state_vars)
        allowed_init = state
        stray = self.init.support() - allowed_init
        if stray:
            raise ValueError(f"init depends on non-state variables: {stray}")
        allowed_trans = (state | set(self.input_vars)
                         | {primed(v) for v in self.state_vars})
        stray = self.trans.support() - allowed_trans
        if stray:
            raise ValueError(f"trans depends on unknown variables: {stray}")

    # ------------------------------------------------------------------
    @property
    def num_state_bits(self) -> int:
        """Number of state variables (the width of the state vector)."""
        return len(self.state_vars)

    @property
    def next_vars(self) -> List[str]:
        """Primed copies of the state variables, in declaration order."""
        return [primed(v) for v in self.state_vars]

    def state_exprs(self) -> List[Expr]:
        """The state variables as expression nodes."""
        return [ex.var(v) for v in self.state_vars]

    def trans_size(self) -> int:
        """DAG size of TR — the paper's |TR| in the growth analyses."""
        return self.trans.size()

    # ------------------------------------------------------------------
    # Renaming helpers used by the BMC encoders
    # ------------------------------------------------------------------
    def rename_state_expr(self, root: Expr, target: Sequence[str]) -> Expr:
        """Rename ``state_vars`` to ``target`` names inside ``root``."""
        if len(target) != len(self.state_vars):
            raise ValueError("target vector length mismatch")
        mapping = {old: ex.var(new)
                   for old, new in zip(self.state_vars, target)}
        return ex.substitute(root, mapping)

    def trans_between(self, current: Sequence[str], nxt: Sequence[str],
                      input_suffix: str = "") -> Expr:
        """TR instantiated over explicit vectors: TR(current, inputs, nxt).

        ``input_suffix`` disambiguates input copies across timeframes.
        """
        if len(current) != len(self.state_vars) or \
                len(nxt) != len(self.state_vars):
            raise ValueError("state vector length mismatch")
        mapping: Dict[str, Expr] = {}
        for old, new in zip(self.state_vars, current):
            mapping[old] = ex.var(new)
        for old, new in zip(self.next_vars, nxt):
            mapping[old] = ex.var(new)
        for inp in self.input_vars:
            mapping[inp] = ex.var(inp + input_suffix)
        return ex.substitute(self.trans, mapping)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_self_loops(self) -> "TransitionSystem":
        """Add a stutter step to every state: TR' = TR ∨ (Z' = Z).

        This is the paper's §2 trick that turns "reachable in exactly k
        steps" into "reachable in at most k steps" (needed to use the
        iterative-squaring formula (3) at non-power-of-two bounds).
        """
        stutter = ex.conjoin(
            ex.mk_iff(ex.var(primed(v)), ex.var(v))
            for v in self.state_vars)
        return TransitionSystem(self.state_vars,
                                self.init,
                                ex.mk_or(self.trans, stutter),
                                self.input_vars,
                                name=f"{self.name}+stutter")

    def reversed(self) -> "TransitionSystem":
        """Swap the roles of current and next state (backward TR).

        Note: ``init`` is carried over unchanged; callers doing backward
        reachability supply their own target as the new init.
        """
        mapping: Dict[str, Expr] = {}
        for v in self.state_vars:
            mapping[v] = ex.var(primed(v))
            mapping[primed(v)] = ex.var(v)
        return TransitionSystem(self.state_vars, self.init,
                                ex.substitute(self.trans, mapping),
                                self.input_vars,
                                name=f"{self.name}.reversed")

    # ------------------------------------------------------------------
    # Concrete-state evaluation (used by traces and the LTL loop check)
    # ------------------------------------------------------------------
    def state_dict(self, bits: Sequence[bool]) -> Dict[str, bool]:
        """Assignment mapping for a concrete state given as a bit tuple."""
        if len(bits) != len(self.state_vars):
            raise ValueError("state width mismatch")
        return dict(zip(self.state_vars, bits))

    def holds_init(self, bits: Sequence[bool]) -> bool:
        """Whether the concrete state ``bits`` satisfies ``init``."""
        return self.init.evaluate(self.state_dict(bits))

    def holds_trans(self, current: Sequence[bool], inputs: Mapping[str, bool],
                    nxt: Sequence[bool]) -> bool:
        """Whether TR admits the step ``current`` → ``nxt`` under
        ``inputs`` (all states given as concrete bit vectors)."""
        if len(current) != len(self.state_vars) or \
                len(nxt) != len(self.state_vars):
            raise ValueError("state width mismatch")
        return bool(self.trans_lanes(
            [int(bool(b)) for b in current],
            [int(bool(inputs[name])) for name in self.input_vars],
            [int(bool(b)) for b in nxt], 1))

    def trans_lanes(self, current: Sequence[int], inputs: Sequence[int],
                    nxt: Sequence[int], mask: int) -> int:
        """The lanes of ``mask = (1 << W) - 1`` whose step satisfies TR,
        for lane vectors aligned to :attr:`state_vars` (``current``,
        ``nxt``) and :attr:`input_vars`; TR is compiled once per system.
        """
        program = cached_program(self, "trans", (self.trans,))
        where = program.slots_of(self.state_vars + self.input_vars
                              + self.next_vars)
        slots = program.run(where, [*current, *inputs, *nxt], mask)
        return slots[program.outputs[0]]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"TransitionSystem({self.name!r}, bits={self.num_state_bits},"
                f" inputs={len(self.input_vars)}, |TR|={self.trans.size()})")


def compose_systems(*systems: TransitionSystem,
                    prefixes: Sequence[str] | None = None
                    ) -> TransitionSystem:
    """Side-by-side parallel composition of independent systems.

    The components run in lockstep but share no variables: component i
    has every state variable and input renamed with ``prefixes[i]``
    (default: ``""`` for the first component, ``"u<i>."`` for the
    rest, so predicates written against the first component keep
    working verbatim).  The composite's init/TR are the conjunctions
    of the renamed component init/TRs.

    This is the "many blocks, one design" shape real model-checking
    inputs have — and the workload where per-property cone-of-influence
    reduction (:mod:`repro.reduce`) shines: a property about one block
    solves without paying for any other block's latches.

    >>> from repro.logic import expr as ex
    >>> a = TransitionSystem(["x"], ~ex.var("x"),
    ...                      ex.var("x'").iff(~ex.var("x")))
    >>> b = TransitionSystem(["x"], ~ex.var("x"),
    ...                      ex.var("x'").iff(ex.var("x")))
    >>> both = compose_systems(a, b)
    >>> both.state_vars
    ['x', 'u1.x']
    """
    if not systems:
        raise ValueError("compose_systems needs at least one system")
    if prefixes is None:
        prefixes = [""] + [f"u{i}." for i in range(1, len(systems))]
    prefixes = list(prefixes)
    if len(prefixes) != len(systems):
        raise ValueError(f"need one prefix per system "
                         f"({len(systems)}), got {len(prefixes)}")
    state_vars: List[str] = []
    input_vars: List[str] = []
    init_parts: List[Expr] = []
    trans_parts: List[Expr] = []
    for system, prefix in zip(systems, prefixes):
        mapping: Dict[str, Expr] = {}
        for v in system.state_vars:
            mapping[v] = ex.var(prefix + v)
            mapping[primed(v)] = ex.var(primed(prefix + v))
        for v in system.input_vars:
            mapping[v] = ex.var(prefix + v)
        state_vars.extend(prefix + v for v in system.state_vars)
        input_vars.extend(prefix + v for v in system.input_vars)
        init_parts.append(ex.substitute(system.init, mapping))
        trans_parts.append(ex.substitute(system.trans, mapping))
    if len(set(state_vars)) != len(state_vars) or \
            len(set(input_vars)) != len(input_vars):
        raise ValueError("prefixes do not make the component "
                         "variables disjoint")
    return TransitionSystem(
        state_vars, ex.conjoin(init_parts), ex.conjoin(trans_parts),
        input_vars,
        name="+".join(s.name for s in systems))
