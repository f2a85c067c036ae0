"""Counterexample traces and their validation.

Every BMC backend in this library returns, on SAT, a :class:`Trace` —
the witness path Z0 → Z1 → ... → Zk.  ``validate`` replays the trace
against the transition system, which is how the test-suite proves that
the four different decision procedures (formulae (1)–(3) and jSAT) all
find *real* paths: all k steps in one k-lane run of the compiled TR.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..logic.expr import Expr
from .model import TransitionSystem

__all__ = ["Trace", "TraceError", "lane_vector"]


class TraceError(ValueError):
    """Raised when a trace does not replay against its system."""


class Trace:
    """A finite path through a transition system.

    Attributes
    ----------
    states:
        ``states[i]`` maps every state variable name to its value at
        step i.  ``len(states) == k + 1`` for a k-step trace.
    inputs:
        ``inputs[i]`` gives the primary-input values driving the step
        from state i to state i+1 (``len(inputs) == k``).  May be empty
        per-step dicts for systems without inputs.
    """

    def __init__(self, states: Sequence[Dict[str, bool]],
                 inputs: Optional[Sequence[Dict[str, bool]]] = None) -> None:
        self.states: List[Dict[str, bool]] = [dict(s) for s in states]
        if inputs is None:
            inputs = [{} for _ in range(max(0, len(self.states) - 1))]
        self.inputs: List[Dict[str, bool]] = [dict(i) for i in inputs]
        if len(self.inputs) != max(0, len(self.states) - 1):
            raise ValueError("need exactly one input valuation per step")

    @property
    def length(self) -> int:
        """Number of steps (k), not states."""
        return len(self.states) - 1

    # ------------------------------------------------------------------
    def validate(self, system: TransitionSystem,
                 final: Expr | None = None) -> None:
        """Replay the trace; raises :class:`TraceError` on any violation.

        Checks: (a) state 0 satisfies init, (b) every consecutive pair
        satisfies TR under the recorded inputs, (c) the last state
        satisfies ``final`` if given.  Lane i of one TR run checks step i.
        """
        if not self.states:
            raise TraceError("empty trace")
        for i, state in enumerate(self.states):
            missing = set(system.state_vars) - set(state)
            if missing:
                raise TraceError(f"state {i} missing variables {missing}")
        if not system.init.evaluate(self.states[0]):
            raise TraceError("state 0 does not satisfy init")
        # Steps before the first one missing an input replay; that
        # step reports its input unless an earlier transition fails.
        inputs = system.input_vars
        steps = next((i for i, step in enumerate(self.inputs)
                      if any(n not in step for n in inputs)), self.length)
        mask = (1 << steps) - 1
        # Bit i of a state vector is the value at state i, so the
        # next-state lanes are the same vector shifted down by one.
        states = [lane_vector(self.states, v) for v in system.state_vars]
        failed = mask & ~system.trans_lanes(
            [vector & mask for vector in states],
            [lane_vector(self.inputs, n) & mask for n in inputs],
            [vector >> 1 & mask for vector in states], mask)
        if failed:
            i = (failed & -failed).bit_length() - 1
            raise TraceError(f"transition {i} -> {i + 1} violates TR")
        if steps < self.length:
            name = next(n for n in inputs if n not in self.inputs[steps])
            raise TraceError(f"step {steps} missing input {name!r}")
        if final is not None and not final.evaluate(self.states[-1]):
            raise TraceError("last state does not satisfy the target")

    def is_valid(self, system: TransitionSystem,
                 final: Expr | None = None) -> bool:
        """Boolean version of :meth:`validate`."""
        try:
            self.validate(system, final)
        except TraceError:
            return False
        return True

    # ------------------------------------------------------------------
    def shorten_to(self, target: Expr) -> "Trace":
        """Cut the trace at its first state satisfying ``target``.

        Any prefix of a valid trace is valid, so this turns a within-k
        witness into the shortest certificate it contains; a trace
        never reaching ``target`` is returned unchanged.
        """
        for i, state in enumerate(self.states):
            if target.evaluate(state):
                return Trace(self.states[:i + 1], self.inputs[:i])
        return self

    # ------------------------------------------------------------------
    def format(self, variables: Sequence[str] | None = None) -> str:
        """Pretty waveform-style rendering (one row per variable)."""
        if not self.states:
            return "(empty trace)"
        if variables is None:
            variables = sorted(self.states[0])
        width = max(len(v) for v in variables) if variables else 0
        lines = [f"trace of length {self.length}:"]
        for v in variables:
            row = "".join("1" if s.get(v) else "0" for s in self.states)
            lines.append(f"  {v:<{width}} {row}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Trace(length={self.length})"


def lane_vector(steps: Sequence[Dict[str, bool]], name: str) -> int:
    """One variable across steps (states or inputs) as a lane vector:
    bit i is its value at step i."""
    return sum(1 << i for i, step in enumerate(steps) if step.get(name))
