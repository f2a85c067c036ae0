"""k-induction — the paper-intro's "induction based methods".

Temporal induction (Sheeran, Singh & Stålmarck): a safety property
``P = ¬bad`` holds in all reachable states if

* **base(k)**: no path of length ≤ k from init reaches ``bad``;
* **step(k)**: every *loop-free* path of k+1 consecutive P-states ends
  in a P-state (checked as the UNSAT-ness of a path with k P-states
  followed by a bad one, with pairwise-distinct states).

Increasing k makes the step obligation strictly weaker, so iterating
k = 0, 1, 2, ... yields a complete procedure for finite systems — at
the cost of the same unrolled-formula growth the paper attacks.
:func:`prove_by_induction` is the one-shot form of the ``k-induction``
backend (:class:`repro.bmc.provers.KInductionBackend`), which grows
both cases incrementally on :class:`repro.bmc.unroll.Unrolling`.
"""

from __future__ import annotations

from typing import Optional

from ..logic.expr import Expr
from ..sat.types import Budget, SolveResult
from ..system.model import TransitionSystem
from ..system.trace import Trace
from .provers import KInductionBackend

__all__ = ["InductionResult", "prove_by_induction"]


class InductionResult:
    """Outcome of a k-induction run.

    ``status``: "proved", "cex" (counterexample found, see ``trace``),
    or "unknown" (bound/budget exhausted).  ``k`` is the bound at which
    the run concluded.
    """

    def __init__(self, status: str, k: int,
                 trace: Optional[Trace] = None) -> None:
        self.status = status
        self.k = k
        self.trace = trace

    def __repr__(self) -> str:  # pragma: no cover
        return f"InductionResult({self.status!r}, k={self.k})"


def prove_by_induction(system: TransitionSystem, bad: Expr,
                       max_k: int = 32,
                       budget: Budget | None = None) -> InductionResult:
    """Prove ``bad`` unreachable (or find a counterexample) by
    k-induction with loop-free strengthening.

    Returns "proved", "cex" (with a validated, shortest trace), or
    "unknown" when ``max_k`` or the budget runs out.
    """
    backend = KInductionBackend(system, bad)
    try:
        result = backend.check(max_k, semantics="within", budget=budget)
    finally:
        backend.close()
    k = result.stats["induction_rungs"] - 1
    if result.status is SolveResult.SAT:
        result.trace.validate(system, bad)
        return InductionResult("cex", k, result.trace)
    if result.proved:
        return InductionResult("proved", k)
    return InductionResult("unknown", k)
