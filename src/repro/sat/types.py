"""Shared types for the SAT subsystem.

Internal literal encoding (MiniSat-style): DIMACS variable ``v`` becomes
internal variable index ``v``; the internal literal is ``2*v`` for the
positive phase and ``2*v + 1`` for the negative phase, so ``lit ^ 1``
negates and ``lit >> 1`` recovers the variable.
"""

from __future__ import annotations

import enum
import time
from typing import Callable, Optional

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
    """Resource limits for a solver run.

    Any limit set to None is unlimited.  ``max_literals`` caps the total
    number of literals resident in the clause database — the analogue of
    the paper's 1 GB memory limit.

    ``max_seconds`` by itself is a *per-call* allowance: every solver
    call measures its own slice, so a deepening loop that reuses one
    budget grants each of its O(max_bound) SAT calls a fresh full
    window.  Call :meth:`arm` to pin the wall-clock limit to one shared
    deadline instead — armed once, consumed across every call that
    carries this budget object (the unbounded provers and
    ``verify_unbounded`` arm their budget at loop entry).
    """

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
        self.deadline: Optional[float] = None

    @staticmethod
    def unlimited() -> "Budget":
        return Budget()

    def arm(self) -> "Budget":
        """Fix the wall-clock limit to one shared deadline, now.

        Idempotent: the first call stamps ``deadline = now +
        max_seconds``; later calls (and every solver call consuming
        this object) see the same instant.  A budget without
        ``max_seconds`` arms to nothing.  Returns self for chaining.
        """
        if self.deadline is None and self.max_seconds is not None:
            self.deadline = time.monotonic() + self.max_seconds
        return self

    def expired(self) -> bool:
        """True once an armed deadline has passed (False when unarmed)."""
        return self.deadline is not None \
            and time.monotonic() > self.deadline

    def scaled(self, factor: float) -> "Budget":
        """A copy with all countable limits multiplied by ``factor``."""
        def mul(x: int | None) -> int | None:
            return None if x is None else max(1, int(x * factor))

        out = Budget(mul(self.max_conflicts), mul(self.max_decisions),
                     mul(self.max_propagations),
                     None if self.max_seconds is None
                     else self.max_seconds * factor,
                     mul(self.max_literals))
        return out

    def __repr__(self) -> str:  # pragma: no cover
        parts = []
        for name in ("max_conflicts", "max_decisions", "max_propagations",
                     "max_seconds", "max_literals"):
            val = getattr(self, name)
            if val is not None:
                parts.append(f"{name}={val}")
        return "Budget(" + ", ".join(parts) + ")"

