"""Completeness: the recurrence diameter and full unbounded verification.

The paper's introduction: "To implement a complete model checking
procedure the bound should be increased iteratively up to the length of
the longest simple path in the system".  That length is the *recurrence
diameter from init*: once no loop-free path of length k exists, every
state reachable at depth >= k is also reachable earlier, so a BMC sweep
that reaches k is a full proof.

``longest_simple_path_reached(system, k)`` decides, with one SAT call
on an unrolled path with pairwise-distinct states, whether loop-free
paths of length k exist.  ``verify_unbounded`` combines it with any of
the bounded engines into the complete procedure of the paper — and
inherits each engine's space behaviour, which is the whole point:
with ``method="jsat"`` the procedure's resident formula stays at one TR
copy even as the bound climbs (only the diameter side-check unrolls).
"""

from __future__ import annotations

from typing import Optional

from ..logic.expr import Expr
from ..sat.types import Budget, SolveResult
from ..system.model import TransitionSystem
from .backend import BmcResult
from .session import BmcSession
from .unroll import Unrolling

__all__ = ["longest_simple_path_reached", "verify_unbounded",
           "UnboundedResult"]


class UnboundedResult:
    """Outcome of the complete procedure.

    ``status``: "safe" (target unreachable at every depth), "cex"
    (reachable; ``result.trace`` holds the witness), or "unknown"
    (budget or bound cap hit).  ``bound`` is the last bound examined.
    """

    def __init__(self, status: str, bound: int,
                 result: Optional[BmcResult] = None) -> None:
        self.status = status
        self.bound = bound
        self.result = result

    def __repr__(self) -> str:  # pragma: no cover
        return f"UnboundedResult({self.status!r}, bound={self.bound})"


def longest_simple_path_reached(system: TransitionSystem, k: int,
                                budget: Budget | None = None
                                ) -> Optional[bool]:
    """True iff NO loop-free path of length ``k`` from init exists.

    One SAT query: init + k unrolled steps + pairwise state
    distinctness.  Returns None if the budget ran out or a stop
    request cut the query short.

    ``k == 0`` degenerates to an init-satisfiability probe: a length-0
    path is just an initial state, so a system with unsatisfiable init
    has *no* simple path of length 0 and the diameter is already
    reached — ``verify_unbounded`` then concludes "safe" at bound 0.
    """
    if k < 0:
        return False
    if budget is not None:
        budget = budget.start()
    unrolling = Unrolling(system)
    if not unrolling.ensure_frames(k, budget):
        return None
    unrolling.assert_loop_free()
    status, _ = unrolling.solve([], budget=budget)
    if status is SolveResult.UNKNOWN:
        return None
    return status is SolveResult.UNSAT


def verify_unbounded(system: TransitionSystem, final: Expr,
                     method: str = "jsat",
                     max_bound: int = 64,
                     budget: Budget | None = None) -> UnboundedResult:
    """The paper's complete procedure: deepen exact-k BMC until either
    the target is hit or the recurrence diameter is passed.

    One :class:`BmcSession` serves every bound, so incremental methods
    (``sat-incremental``, ``jsat``) keep their solver state across the
    whole deepening loop — the session's persistence is exactly what
    this procedure wants.
    """
    if budget is not None:
        budget = budget.start()     # one pool for the whole loop
    with BmcSession(system, properties={"target": final}) as session:
        for k in range(max_bound + 1):
            if budget is not None and budget.exhausted():
                return UnboundedResult("unknown", k, None)
            result = session.check(k, method=method, semantics="exact",
                                   budget=budget)
            if result.status is SolveResult.SAT:
                return UnboundedResult("cex", k, result)
            if result.status is SolveResult.UNKNOWN:
                return UnboundedResult("unknown", k, result)
            done = longest_simple_path_reached(system, k, budget)
            if done is None:
                return UnboundedResult("unknown", k, result)
            if done:
                return UnboundedResult("safe", k, result)
    return UnboundedResult("unknown", max_bound, None)
