"""Reduced systems and witness lifting.

A :class:`ReducedSystem` packages the outcome of a reduction pipeline:
the smaller :class:`~repro.system.model.TransitionSystem` a backend
should actually solve, plus the complete variable map — which latches
were kept, fixed to a constant, merged into a representative, or freed
(outside the cone of influence) — needed to translate between the two
worlds:

* **queries map down**: :meth:`map_expr` / :meth:`map_property`
  rewrite a predicate or :class:`~repro.spec.property.Property` over
  the original variables into one over the reduced variables;
* **witnesses lift back**: :meth:`lift` turns a SAT trace over the
  reduced system into a full-width trace over the original system —
  kept latches copy their recorded values, every removed latch is
  re-simulated from its reset value through its original next-state
  function, and pruned inputs are filled with a default — so nothing
  downstream (trace validation, shortening, reports) ever sees a
  partial state.

Lifting is sound because the cone-of-influence closure guarantees
removed latches never feed kept ones: the simulated values cannot
disturb the recorded cone behaviour, and the lifted path replays
against the original transition relation by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..logic import expr as ex
from ..logic.expr import Expr
from ..logic.program import cached_program
from ..spec.property import (And, Atom, Finally, Globally, Invariant, Next,
                             Not, Or, Property, Reachable, Release, Until)
from ..system.model import TransitionSystem
from ..system.trace import Trace
from .structure import FunctionalView

__all__ = ["ReducedSystem", "identity_reduction"]


class ReducedSystem:
    """A reduced transition system plus the map back to the original.

    Attributes
    ----------
    original, system:
        The full-width system and its reduction (``system is
        original`` for the identity reduction).
    kept_latches, kept_inputs:
        Surviving variables, in the original declaration order.
    fixed:
        Latches removed as constants: ``{latch: stuck-at value}``.
    merged:
        Latches removed as duplicates: ``{latch: representative}``.
    freed:
        Latches removed by the cone-of-influence pass (they exist and
        vary, but the query cannot observe them).
    """

    def __init__(self, original: TransitionSystem,
                 system: TransitionSystem,
                 view: Optional[FunctionalView],
                 kept_latches: List[str],
                 kept_inputs: List[str],
                 fixed: Dict[str, bool],
                 merged: Dict[str, str],
                 freed: List[str]) -> None:
        self.original = original
        self.system = system
        self.view = view
        self.kept_latches = list(kept_latches)
        self.kept_inputs = list(kept_inputs)
        self.fixed = dict(fixed)
        self.merged = dict(merged)
        self.freed = list(freed)
        self._kept_set = set(self.kept_latches)
        self._substitution: Dict[str, Expr] = {
            latch: ex.const(value) for latch, value in self.fixed.items()}
        self._substitution.update(
            {latch: ex.var(rep) for latch, rep in self.merged.items()})

    # ------------------------------------------------------------------
    @property
    def is_identity(self) -> bool:
        """True when nothing was removed or rewritten — callers can
        (and do) skip mapping and lifting entirely."""
        return self.system is self.original

    def cone_key(self) -> tuple:
        """Grouping key: reductions with equal keys produced the same
        reduced system, so their queries can share one unrolling.

        The reduced init/TR node identities participate (``Expr`` is
        hash-consed, so uid equality is structural equality): two
        reductions keeping the same variables but rewriting the logic
        differently — possible with property-structure-dependent
        custom transforms — never alias into one unrolling.
        """
        return (tuple(self.kept_latches), tuple(self.kept_inputs),
                self.system.init.uid, self.system.trans.uid)

    # ------------------------------------------------------------------
    # Mapping queries down
    # ------------------------------------------------------------------
    def map_expr(self, predicate: Expr) -> Expr:
        """Rewrite a state predicate over the reduced variables
        (constants folded in, duplicates renamed to their
        representative).  The predicate's remaining support must be
        inside the kept cone."""
        if self.is_identity:
            return predicate
        mapped = ex.substitute(predicate, self._substitution)
        stray = mapped.support() - self._kept_set
        if stray:
            raise ValueError(
                f"predicate depends on variables outside the reduced "
                f"cone: {sorted(stray)} (kept: {self.kept_latches})")
        return mapped

    def map_property(self, prop: Property) -> Property:
        """Rewrite every atom of a property via :meth:`map_expr`."""
        if self.is_identity:
            return prop
        return _map_property(prop, self.map_expr)

    # ------------------------------------------------------------------
    # Lifting witnesses back
    # ------------------------------------------------------------------
    def lift(self, trace: Trace) -> Trace:
        """Lift a reduced-system trace to a full-width original trace.

        Kept latches and inputs copy their recorded values; pruned
        inputs are filled with False; every removed latch (fixed,
        merged or freed) is re-simulated step by step from its reset
        value through its original next-state function.  The result
        replays against the original system — exactly what
        :meth:`repro.system.trace.Trace.validate` checks.
        """
        if self.is_identity:
            return trace
        assert self.view is not None
        original = self.original
        removed = [latch for latch in original.state_vars
                   if latch not in self._kept_set]
        program = cached_program(
            self, "lift", [self.view.updates[latch] for latch in removed])
        where = program.slots_of(original.state_vars + original.input_vars)
        state0: Dict[str, bool] = {}
        for latch in original.state_vars:
            if latch in self._kept_set:
                state0[latch] = bool(trace.states[0][latch])
            else:
                state0[latch] = bool(self.view.resets.get(latch, False))
        states = [state0]
        inputs: List[Dict[str, bool]] = []
        for i in range(trace.length):
            step_inputs = {name: bool(trace.inputs[i].get(name, False))
                           for name in original.input_vars}
            slots = program.run(where, [
                *map(int, states[i].values()),
                *map(int, step_inputs.values())], 1)
            computed = iter(program.outputs)
            states.append({
                latch: bool(trace.states[i + 1][latch])
                if latch in self._kept_set else bool(slots[next(computed)])
                for latch in original.state_vars})
            inputs.append(step_inputs)
        return Trace(states, inputs)

    def lift_witness(self, trace: Trace, target: Expr, *,
                     shorten: bool = False) -> Optional[Trace]:
        """:meth:`lift` ``trace`` (cut at its first ``target`` state when
        ``shorten``); None unless it replays on the original system and
        ends in ``target``, the original query's (unmapped) target."""
        lifted = self.lift(trace)
        if shorten:
            lifted = lifted.shorten_to(target)
        return lifted if lifted.is_valid(self.original, target) else None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Before/after size counters (the ``repro reduce`` report)."""
        return {
            "latches_before": len(self.original.state_vars),
            "latches_after": len(self.system.state_vars),
            "inputs_before": len(self.original.input_vars),
            "inputs_after": len(self.system.input_vars),
            "trans_nodes_before": self.original.trans.size(),
            "trans_nodes_after": self.system.trans.size(),
            "fixed": len(self.fixed),
            "merged": len(self.merged),
            "freed": len(self.freed),
        }

    def __repr__(self) -> str:  # pragma: no cover
        if self.is_identity:
            return f"ReducedSystem({self.original.name!r}, identity)"
        return (f"ReducedSystem({self.original.name!r}, "
                f"{len(self.original.state_vars)}->"
                f"{len(self.kept_latches)} latches, "
                f"fixed={len(self.fixed)}, merged={len(self.merged)}, "
                f"freed={len(self.freed)})")


def identity_reduction(system: TransitionSystem) -> ReducedSystem:
    """The no-op reduction: same system, everything kept."""
    return ReducedSystem(system, system, None,
                         list(system.state_vars), list(system.input_vars),
                         {}, {}, [])


def _map_property(prop: Property, map_expr) -> Property:
    """Rebuild a property AST with every atom expression rewritten."""
    if isinstance(prop, Atom):
        return Atom(map_expr(prop.expr))
    if isinstance(prop, Invariant):
        return Invariant(map_expr(prop.expr))
    if isinstance(prop, Reachable):
        return Reachable(map_expr(prop.expr))
    if isinstance(prop, Not):
        return Not(_map_property(prop.arg, map_expr))
    if isinstance(prop, And):
        return And(*(_map_property(a, map_expr) for a in prop.args))
    if isinstance(prop, Or):
        return Or(*(_map_property(a, map_expr) for a in prop.args))
    if isinstance(prop, Next):
        return Next(_map_property(prop.arg, map_expr))
    if isinstance(prop, Finally):
        return Finally(_map_property(prop.arg, map_expr))
    if isinstance(prop, Globally):
        return Globally(_map_property(prop.arg, map_expr))
    if isinstance(prop, Until):
        return Until(_map_property(prop.left, map_expr),
                     _map_property(prop.right, map_expr))
    if isinstance(prop, Release):
        return Release(_map_property(prop.left, map_expr),
                       _map_property(prop.right, map_expr))
    raise TypeError(f"unknown property node {type(prop).__name__}")
