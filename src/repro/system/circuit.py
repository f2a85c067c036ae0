"""Sequential-circuit netlists (latches + combinational logic).

:class:`Circuit` is the RTL-flavoured front end of the library: the 13
benchmark designs (:mod:`repro.models`) are built with it, and the
``.bench`` / AIGER readers produce it.  A circuit compiles to the
:class:`repro.system.model.TransitionSystem` the BMC engines consume.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..logic import expr as ex
from ..logic.expr import Expr
from ..logic.program import cached_program
from .model import TransitionSystem, primed

if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime only
    from ..spec.property import Property

__all__ = ["Circuit"]


class Circuit:
    """A synchronous sequential circuit.

    * **inputs** — primary inputs (free Boolean wires each cycle);
    * **latches** — state elements with a reset value (True/False, or
      None for an unconstrained initial value) and a next-state
      expression over inputs and latch outputs;
    * **outputs** — named combinational functions (observability only);
    * **bad** — named safety targets: the model checker asks whether a
      state satisfying a bad expression is reachable;
    * **properties** — named :class:`repro.spec.property.Property`
      specifications.  Every ``add_bad`` contributes its ``Reachable``
      form automatically; richer bounded-LTL properties attach via
      :meth:`add_property` (the SMV front end maps ``SPEC`` /
      ``INVARSPEC`` here).

    Example
    -------
    >>> c = Circuit("toggler")
    >>> en = c.add_input("en")
    >>> q = c.add_latch("q", init=False)
    >>> c.set_next("q", q ^ en)
    >>> c.add_bad("stuck", q & ~q)   # trivially unreachable
    >>> ts = c.to_transition_system()
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.input_names: List[str] = []
        self.latch_names: List[str] = []
        self._init_values: Dict[str, Optional[bool]] = {}
        self._next_exprs: Dict[str, Optional[Expr]] = {}
        self.outputs: Dict[str, Expr] = {}
        self.bad: Dict[str, Expr] = {}
        self.properties: Dict[str, "Property"] = {}
        self.constraints: List[Expr] = []          # invariants assumed on TR

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> Expr:
        """Declare a primary input; returns its wire expression."""
        self._check_fresh(name)
        self.input_names.append(name)
        return ex.var(name)

    def add_latch(self, name: str, init: Optional[bool] = False) -> Expr:
        """Declare a latch; returns its output wire expression.

        ``init`` None means the initial value is unconstrained.
        """
        self._check_fresh(name)
        self.latch_names.append(name)
        self._init_values[name] = init
        self._next_exprs[name] = None
        return ex.var(name)

    def set_next(self, latch_name: str, next_expr: Expr) -> None:
        """Define the next-state function of a latch."""
        if latch_name not in self._next_exprs:
            raise KeyError(f"unknown latch {latch_name!r}")
        self._next_exprs[latch_name] = next_expr

    def add_output(self, name: str, expression: Expr) -> None:
        """Declare a named combinational output (observability only)."""
        self.outputs[name] = expression

    def add_bad(self, name: str, expression: Expr) -> None:
        """Declare a safety target (a set of bad states to reach).

        The target is also registered as the named property
        ``Reachable(expression)``, so circuit-level bads flow straight
        into multi-property sessions.
        """
        # Imported lazily: repro.spec imports the system layer.
        from ..spec.property import Reachable
        self.bad[name] = expression
        self.properties[name] = Reachable(expression)

    def add_property(self, name: str, prop: "Property | Expr") -> None:
        """Declare a named specification.

        ``prop`` must be a :class:`repro.spec.property.Property` or a
        raw :class:`~repro.logic.expr.Expr` state predicate (wrapped
        as ``Reachable``); anything else is rejected here, with the
        offending type named, instead of surfacing later as a checker
        failure.
        """
        from ..spec.checker import normalize_properties
        from ..spec.property import Property
        if not isinstance(prop, (Property, Expr)):
            raise TypeError(
                f"add_property({name!r}) expects a repro.spec Property "
                f"or an Expr state predicate, got "
                f"{type(prop).__name__}")
        self.properties[name] = normalize_properties({name: prop})[name]

    def add_constraint(self, expression: Expr) -> None:
        """Conjoin an invariant constraint into the transition relation.

        The constraint may mention current-state variables and inputs; it
        restricts which transitions exist (like AIGER invariant
        constraints applied at the source state).
        """
        self.constraints.append(expression)

    def _check_fresh(self, name: str) -> None:
        if name in self.input_names or name in self._init_values:
            raise ValueError(f"wire {name!r} already declared")

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def init_expr(self) -> Expr:
        """Characteristic function of the initial states."""
        parts: List[Expr] = []
        for name in self.latch_names:
            init = self._init_values[name]
            if init is None:
                continue
            wire = ex.var(name)
            parts.append(wire if init else ex.mk_not(wire))
        return ex.conjoin(parts)

    def trans_expr(self) -> Expr:
        """TR(Z, X, Z'): conjunction of latch updates and constraints."""
        parts: List[Expr] = []
        for name in self.latch_names:
            next_expr = self._next_exprs[name]
            if next_expr is None:
                raise ValueError(f"latch {name!r} has no next-state function")
            parts.append(ex.mk_iff(ex.var(primed(name)), next_expr))
        parts.extend(self.constraints)
        return ex.conjoin(parts)

    def to_transition_system(self) -> TransitionSystem:
        """Compile to the symbolic transition system."""
        return TransitionSystem(
            state_vars=list(self.latch_names),
            init=self.init_expr(),
            trans=self.trans_expr(),
            input_vars=list(self.input_names),
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Simulation (golden reference for tests)
    # ------------------------------------------------------------------
    def simulate(self, input_sequence: Sequence[Dict[str, bool]],
                 initial: Optional[Dict[str, bool]] = None
                 ) -> List[Dict[str, bool]]:
        """Cycle-accurate simulation; returns the state after each step.

        ``initial`` overrides/completes latch reset values (required for
        latches with unconstrained init).
        """
        state: Dict[str, bool] = {}
        for name in self.latch_names:
            if initial is not None and name in initial:
                state[name] = bool(initial[name])
            else:
                init = self._init_values[name]
                if init is None:
                    raise ValueError(
                        f"latch {name!r} has unconstrained init; supply it")
                state[name] = init
        nexts = [self._next_exprs[name] for name in self.latch_names]
        assert all(next_expr is not None for next_expr in nexts)
        program = cached_program(self, "next", nexts)
        states = [dict(state)]
        for step_inputs in input_sequence:
            env = dict(state)
            for name in self.input_names:
                env[name] = bool(step_inputs[name])
            values = program.evaluate(env)
            state = {name: bool(value)
                     for name, value in zip(self.latch_names, values)}
            states.append(dict(state))
        return states

    def output_values(self, state: Dict[str, bool],
                      inputs: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate all declared outputs in a given state."""
        env = dict(state)
        env.update(inputs)
        program = cached_program(self, "outputs", list(self.outputs.values()))
        return {name: bool(value) for name, value
                in zip(self.outputs, program.evaluate(env))}

    def stats(self) -> Dict[str, int]:
        """Size counters: inputs, latches and compiled DAG nodes."""
        gates = ex.conjoin([self.trans_expr(), self.init_expr()]).size()
        return {
            "inputs": len(self.input_names),
            "latches": len(self.latch_names),
            "dag_nodes": gates,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Circuit({self.name!r}, inputs={len(self.input_names)}, "
                f"latches={len(self.latch_names)})")
