"""Shared types for the SAT subsystem.

Internal literal encoding (MiniSat-style): DIMACS variable ``v`` becomes
internal variable index ``v``; the internal literal is ``2*v`` for the
positive phase and ``2*v + 1`` for the negative phase, so ``lit ^ 1``
negates and ``lit >> 1`` recovers the variable.
"""

from __future__ import annotations

import enum
import time
from typing import Any, Callable, Dict, Optional

__all__ = ["SolveResult", "Budget", "BudgetExceeded", "to_internal",
           "from_internal", "install_stop_check", "stop_requested",
           "stop_check_installed"]


def to_internal(dimacs_lit: int) -> int:
    """DIMACS literal -> internal literal."""
    v = abs(dimacs_lit)
    return 2 * v + (1 if dimacs_lit < 0 else 0)


def from_internal(lit: int) -> int:
    """Internal literal -> DIMACS literal."""
    v = lit >> 1
    return -v if (lit & 1) else v


class SolveResult(enum.Enum):
    """Outcome of a solver call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"          # a resource budget was exhausted

    def __bool__(self) -> bool:
        raise TypeError("SolveResult is tri-valued; compare explicitly")


class BudgetExceeded(Exception):
    """Internal signal: a resource budget ran out mid-search."""


# ----------------------------------------------------------------------
# Cooperative cancellation (the SMPT stop-Event pattern)
# ----------------------------------------------------------------------
# A process-wide hook consulted at every solver budget checkpoint.  A
# worker process installs a check bound to its cancellation Event (and
# its parent's liveness) once at startup; solvers then abort mid-search
# with BudgetExceeded("cancelled") as soon as the check fires, freeing
# the core without killing the process.  In-process callers never pay
# more than one None comparison.
_STOP_CHECK: Optional[Callable[[], bool]] = None


def install_stop_check(check: Optional[Callable[[], bool]]
                       ) -> Optional[Callable[[], bool]]:
    """Install a process-wide cancellation probe; returns the previous.

    ``check`` is called (with no arguments) from solver budget
    checkpoints — keep it cheap.  Pass None to uninstall.
    """
    global _STOP_CHECK
    previous = _STOP_CHECK
    _STOP_CHECK = check
    return previous


def stop_requested() -> bool:
    """True when an installed stop check says to abandon the search."""
    return _STOP_CHECK is not None and _STOP_CHECK()


def stop_check_installed() -> bool:
    """True when a cancellation probe is currently installed.

    The compiled kernel core uses this to decide whether to pass a
    callback across the FFI boundary at all — in-process callers pay
    nothing.
    """
    return _STOP_CHECK is not None


class Budget:
    """Resource limits for a solver run, and the pool that enforces them.

    Any limit set to None is unlimited.  ``max_literals`` caps the total
    number of literals resident in the clause database — the analogue of
    the paper's 1 GB memory limit.

    A budget is *started* once per entry point: :meth:`start` pins the
    wall-clock deadline to now + ``max_seconds`` and opens the
    conflict, decision and propagation pools.  Every solver call that
    receives the started object draws from the same pools (solvers
    :meth:`spend` what they used when they return) and stops at the
    same deadline, so a deepening loop, a bound sweep or a batch of
    properties shares one limit.  Passing an unstarted budget keeps it
    private to that call: the callee starts its own copy, and the
    caller's object is never mutated.
    """

    #: The limit fields, in wire order (see :meth:`as_dict`).
    FIELDS = ("max_conflicts", "max_decisions", "max_propagations",
              "max_seconds", "max_literals")

    def __init__(self,
                 max_conflicts: int | None = None,
                 max_decisions: int | None = None,
                 max_propagations: int | None = None,
                 max_seconds: float | None = None,
                 max_literals: int | None = None) -> None:
        self.max_conflicts = max_conflicts
        self.max_decisions = max_decisions
        self.max_propagations = max_propagations
        self.max_seconds = max_seconds
        self.max_literals = max_literals
        self.started = False
        self.deadline: Optional[float] = None
        self.conflicts_left: Optional[int] = None
        self.decisions_left: Optional[int] = None
        self.propagations_left: Optional[int] = None

    def start(self) -> "Budget":
        """The started form of this budget: itself when already
        started, else a started copy (deadline = now + ``max_seconds``,
        full pools) that leaves this object unstarted."""
        if self.started:
            return self
        out = Budget(*(getattr(self, f) for f in Budget.FIELDS))
        out.started = True
        if self.max_seconds is not None:
            out.deadline = time.monotonic() + self.max_seconds
        out.conflicts_left = self.max_conflicts
        out.decisions_left = self.max_decisions
        out.propagations_left = self.max_propagations
        return out

    def spend(self, conflicts: int = 0, decisions: int = 0,
              propagations: int = 0) -> None:
        """Draw one call's work down from the pools (no-op when
        unstarted)."""
        if self.conflicts_left is not None:
            self.conflicts_left -= conflicts
        if self.decisions_left is not None:
            self.decisions_left -= decisions
        if self.propagations_left is not None:
            self.propagations_left -= propagations

    def exhausted(self) -> bool:
        """True once the deadline has passed or a pool is empty (never
        for an unstarted budget)."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            return True
        return any(left is not None and left <= 0
                   for left in (self.conflicts_left, self.decisions_left,
                                self.propagations_left))

    def as_dict(self) -> Dict[str, Any]:
        """The wire form: the limits of an unstarted budget, or what a
        started one has left (seconds to the deadline, counts left in
        the pools, each floored so a remote lane still gets a budget)."""
        if not self.started:
            return {f: getattr(self, f) for f in Budget.FIELDS}

        def floor(left: Optional[int]) -> Optional[int]:
            return None if left is None else max(1, left)
        return {"max_conflicts": floor(self.conflicts_left),
                "max_decisions": floor(self.decisions_left),
                "max_propagations": floor(self.propagations_left),
                "max_seconds": None if self.deadline is None
                else max(1e-3, self.deadline - time.monotonic()),
                "max_literals": self.max_literals}

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]
                  ) -> Optional["Budget"]:
        """Inverse of :meth:`as_dict` (None stays None); the result is
        unstarted."""
        if data is None:
            return None
        return cls(**{f: data.get(f) for f in cls.FIELDS})

    def __repr__(self) -> str:  # pragma: no cover
        parts = [f"{name}={getattr(self, name)}" for name in Budget.FIELDS
                 if getattr(self, name) is not None]
        return "Budget(" + ", ".join(parts) + ")"
