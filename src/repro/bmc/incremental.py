"""Incremental BMC: one CDCL solver across an entire bound sweep.

Classical BMC (``method="sat-unroll"``) re-encodes the unrolling and
builds a fresh :class:`~repro.sat.kernel.KernelSolver` for every bound,
throwing away the whole clause database — k shared transition frames
*and* every learnt clause — between k and k+1.  This module keeps
**one** solver alive for the whole sweep:

* each new bound adds exactly one transition frame of Tseitin clauses
  (frames 0..k-1 and the init constraint carry over verbatim);
* bound k's final-state constraint F(Z_k) is activated through an
  assumption *group literal* ``g_k``: the clause ``(-g_k, f_k)`` only
  bites while ``g_k`` is assumed, and once the bound is passed the
  group is permanently retired with ``add_clause([-g_k])`` — exactly
  the retractable-constraint idiom jSAT uses (see
  :mod:`repro.sat.kernel`), after which ``purge_satisfied`` physically
  reclaims the constraint and every learnt clause derived from it;
* learnt clauses not derived from a retired final constraint are
  resolvents of the carried-over frames and therefore stay valid for
  every later bound — the incremental-SAT speedup of Biere et al.'s
  linear encodings and of incremental symbolic BMC.

Because the sweep asks exact-k queries in increasing order, the first
SAT answer is the *shortest* counterexample, and no strict prefix of
its witness reaches the target (otherwise an earlier bound would have
answered SAT).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..logic.expr import Expr
from ..sat.types import Budget, SolveResult
from ..system.model import TransitionSystem
from ..system.trace import Trace
# The sweep record types and the shared ladder loop live with the
# Backend protocol; re-exported here for the callers that historically
# imported them from this module.
from .backend import (BoundResult, SweepResult,  # noqa: F401
                      drive_sweep, emit_bound)
from .unroll import SOLVER_COUNTERS, Unrolling, low_driver

__all__ = ["IncrementalBmc", "BoundResult", "SweepResult", "emit_bound"]


class IncrementalBmc(Unrolling):
    """Exact-k reachability over a growing unrolling, one solver for all.

    The frames, the live solver and group retirement are the
    :class:`~repro.bmc.unroll.Unrolling`'s; this class adds the
    per-bound final-state groups and the sweep.

    Parameters
    ----------
    system, final:
        The reachability query family: is a state satisfying ``final``
        reachable from init in exactly k steps, for k = 0, 1, 2, ...?
    polarity_reduction:
        Use Plaisted–Greenbaum definitions for the frame encodings
        (sound here: every constraint is used positively).
    purge_interval:
        Retired final-constraint groups are physically reclaimed every
        this many retirements (1 = immediately).

    Example
    -------
    >>> from repro.models import counter
    >>> system, final, depth = counter.make(3, 5)
    >>> result = IncrementalBmc(system, final).sweep(depth + 1)
    >>> result.shortest_k == depth
    True
    """

    def __init__(self, system: TransitionSystem, final: Expr,
                 polarity_reduction: bool = False,
                 purge_interval: int = 4) -> None:
        stray = final.support() - set(system.state_vars)
        if stray:
            raise ValueError(f"final predicate uses non-state vars: {stray}")
        super().__init__(system, polarity_reduction=polarity_reduction,
                         purge_interval=purge_interval)
        self.final = final
        self._groups: Dict[int, int] = {}      # bound -> live group literal
        # Auxiliary driver answering bounds below self.k (see
        # check_bound and unroll.low_driver).
        self._low: Optional["IncrementalBmc"] = None

    def _twin(self) -> "IncrementalBmc":
        return IncrementalBmc(self.system, self.final,
                              polarity_reduction=self.polarity_reduction,
                              purge_interval=self.purge_interval)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def check_bound(self, k: int, budget: Budget | None = None
                    ) -> Tuple[SolveResult, Optional[Trace], Dict[str, int]]:
        """Decide exact-k reachability, reusing all prior work.

        Returns ``(status, trace, stats)``; the trace is the length-k
        witness on SAT.  The bound may be queried repeatedly; a bound
        *below* the frames already encoded is answered by the auxiliary
        low driver (:func:`~repro.bmc.unroll.low_driver`).  UNKNOWN
        without encoding further frames when a stop request fires or
        the budget runs out during encoding.
        """
        if k < 0:
            raise ValueError("bound k must be non-negative")
        if budget is not None:
            budget = budget.start()
        if k < self.k:
            self._low = low_driver(self._low, k, self._twin)
            return self._low.check_bound(k, budget=budget)
        solver = self.solver
        clauses_before = solver.num_clauses()
        learnts_before = solver.num_learnts()
        status = SolveResult.UNKNOWN
        counters = dict.fromkeys(SOLVER_COUNTERS, 0)
        if self.ensure_frames(k, budget):
            g = self._groups.get(k)
            if g is None:
                g = self._groups[k] = self.activate(self.at(self.final, k))
            status, counters = self.solve([g], budget=budget)
        trace = self.extract_trace(k) if status is SolveResult.SAT else None
        stats = {
            "trans_frames": self.k,
            "clauses_reused": clauses_before,
            "clauses_added": solver.num_clauses() - clauses_before,
            "learnts_retained": learnts_before,
            "learnts_now": solver.num_learnts(),
            "vars": solver.num_vars,
            "db_literals": solver.stats.db_literals,
            "peak_db_literals": solver.stats.peak_db_literals,
            **counters,
        }
        return status, trace, stats

    def retire_bound(self, k: int) -> None:
        """Permanently disable bound k's final constraint.

        Retirement always also reaches the auxiliary low-bound driver:
        after an interleaving like check_bound(3), check_bound(5),
        check_bound(3), BOTH drivers hold a group for bound 3, and
        retiring only one would leave the other's constraint clauses
        unreclaimable forever.
        """
        if self._low is not None:
            self._low.retire_bound(k)
        g = self._groups.pop(k, None)
        if g is not None:
            self.retire(g)

    # ------------------------------------------------------------------
    def sweep(self, max_k: int, budget: Budget | None = None,
              on_bound=None) -> SweepResult:
        """Sweep bounds 0..max_k; stop at the shortest counterexample.

        The budget is global across the whole sweep (one deadline, one
        set of pools; see :func:`drive_sweep`).  ``on_bound`` (an ``on_bound(BoundResult)``
        callable) streams each bound's record as it lands — the
        progress hook :class:`repro.bmc.session.BmcSession` exposes.
        """
        if max_k < 0:
            raise ValueError("max_k must be non-negative")
        def check(k: int, remaining: Budget | None):
            return self.check_bound(k, budget=remaining)
        return drive_sweep("sat-incremental", max_k, range(max_k + 1),
                           check, budget=budget, on_bound=on_bound,
                           after_unsat=self.retire_bound)
