"""The ``simulation`` backend and the one pre-solve tier.

:class:`SimulationBackend` exposes random bit-parallel simulation
through the standard :class:`~repro.bmc.backend.Backend` protocol so
it composes with everything built on the registry — ``BmcSession``,
the CLI's ``--method`` choices, the batch scheduler.  It is
*one-sided*: ``check`` answers SAT with a concrete validated witness
or UNKNOWN, never UNSAT, so it cannot prove safety and its ``sweep``
overrides the default ladder (which would stop at the very first
UNKNOWN bound) with one deep within-k walk.

:func:`presolve` is the cheap front door every caller (``repro bmc``,
the property checker, the race, the batch scheduler, the serve
daemon) goes through before spinning up any solver: a strictly
bounded falsification attempt whose hit is already a checked
certificate for the caller's original query, or gets out of the way.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Callable, Optional

from ..bmc.backend import (Backend, BackendOptions, BmcResult, SweepResult,
                           emit_bound, register_backend)
from ..logic.expr import Expr
from ..sat.types import Budget, SolveResult
from ..system.model import TransitionSystem
from ..telemetry.metrics import current_metrics
from ..telemetry.trace import current_tracer
from .engine import CompiledNet, SimCompileError
from .falsify import _TARGET, SimOutcome, falsify

if TYPE_CHECKING:   # reduce imports spec, which imports sim via bmc
    from ..reduce import ReducedSystem

__all__ = ["SimulationOptions", "SimulationBackend", "presolve",
           "PRESOLVE_SECONDS"]

#: Wall-clock ceiling for one pre-solve attempt — the tier must stay
#: invisible next to worker spawn (~150 ms) and solver start-up costs.
PRESOLVE_SECONDS = 0.25


def _compile_query(system: TransitionSystem,
                   target: Expr) -> CompiledNet:
    """Compile one reachability query, rejecting non-state targets.

    Witness traces record states only, so a target reading primary
    inputs could not be validated (``final.evaluate(states[-1])``) —
    the same restriction every solver backend inherits from the
    trace format.
    """
    stray = target.support() - set(system.state_vars)
    if stray:
        raise SimCompileError(
            f"target depends on non-state variables {sorted(stray)}")
    return CompiledNet(system, {_TARGET: target})


@dataclasses.dataclass(frozen=True)
class SimulationOptions(BackendOptions):
    """Random-walk knobs.

    ``width`` is the starting lane count (doubled per restart, capped
    at 4096); ``restarts`` the schedule length; ``seed`` overrides the
    default per-query deterministic seed.
    """
    width: int = 256
    restarts: int = 4
    seed: Optional[int] = None


@register_backend("simulation")
class SimulationBackend(Backend):
    """Bit-parallel random simulation as a (SAT-only) decision tier."""

    options_class = SimulationOptions
    native_incremental = True       # one compiled net serves every bound

    def __init__(self, system: TransitionSystem, final: Expr,
                 options: BackendOptions | None = None, **kwargs) -> None:
        super().__init__(system, final, options, **kwargs)
        self._net: Optional[CompiledNet] = None
        self._net_error: Optional[str] = None
        try:
            self._net = _compile_query(system, final)
        except SimCompileError as exc:
            self._net_error = str(exc)

    # ------------------------------------------------------------------
    def _miss(self, k: int, out: Optional[SimOutcome] = None) -> BmcResult:
        stats = dict(out.stats) if out is not None else {}
        stats["sim_solver_calls"] = 0
        if self._net_error is not None:
            stats["sim_unsupported"] = 1
        return self.result(SolveResult.UNKNOWN, None, k, stats)

    def check(self, k: int, semantics: str = "exact",
              budget: Budget | None = None) -> BmcResult:
        if self._net is None:
            return self._miss(k)
        opts: SimulationOptions = self.options  # type: ignore[assignment]
        out = falsify(self.system, self.final, k, semantics=semantics,
                      width=opts.width, restarts=opts.restarts,
                      seed=opts.seed, budget=budget, net=self._net)
        if not out.hit:
            return self._miss(k, out)
        return self.result(SolveResult.SAT, out.trace, out.hit_k,
                           dict(out.stats, sim_solver_calls=0))

    # ------------------------------------------------------------------
    def sweep(self, max_k: int, budget: Budget | None = None,
              on_bound=None) -> SweepResult:
        """One deep within-k walk instead of the exact-k ladder.

        The default ladder stops at the first non-UNSAT bound — for a
        backend that answers UNKNOWN on every miss that would end the
        sweep at k = 0.  A single within-``max_k`` walk visits every
        depth anyway, and a hit at depth j *is* the ladder's SAT entry
        at bound j (random walks give no shortest-path guarantee, but
        neither does any within-k witness before shortening).
        """
        sweep_start = time.perf_counter()
        per_bound = []
        result = self.check(max_k, semantics="within", budget=budget)
        seconds = time.perf_counter() - sweep_start
        if result.status is SolveResult.SAT:
            emit_bound(per_bound, on_bound, result.k, SolveResult.SAT,
                       result.trace, seconds, sweep_start, result.stats)
        else:
            emit_bound(per_bound, on_bound, max_k, SolveResult.UNKNOWN,
                       None, seconds, sweep_start, result.stats)
        return SweepResult(self.name, max_k, per_bound,
                           time.perf_counter() - sweep_start)


# ----------------------------------------------------------------------
# The pre-solve tier
# ----------------------------------------------------------------------
def presolve(system: TransitionSystem, final: Expr, k: int, *,
             semantics: str = "exact",
             width: int = 256,
             restarts: int = 3,
             max_seconds: float = PRESOLVE_SECONDS,
             seed: Optional[int] = None,
             stop_check: Optional[Callable[[], bool]] = None,
             reduction: Optional["ReducedSystem"] = None
             ) -> Optional[SimOutcome]:
    """One strictly bounded falsification attempt, or None.

    With ``reduction`` (the caller's :class:`ReducedSystem` of
    ``system``) the walk runs on the reduced query.  A hit comes back
    lifted (:meth:`ReducedSystem.lift_witness`, shortened under
    ``within``) with a ``trace`` that replays on ``system`` and ends in
    ``final``, or ``rejected`` with no trace.  None means a miss, an
    uncompilable system, or a non-state target — the caller then
    proceeds to the solver tiers as if this function did not exist.
    """
    if reduction is None:
        from ..reduce import identity_reduction
        reduction = identity_reduction(system)
    sim_final = reduction.map_expr(final)
    metrics = current_metrics()
    with current_tracer().span("sim.presolve", system=system.name, k=k,
                               semantics=semantics) as span:
        try:
            net = _compile_query(reduction.system, sim_final)
        except SimCompileError:
            metrics.inc("sim.presolve.unsupported")
            span.set(outcome="unsupported")
            return None
        out = falsify(reduction.system, sim_final, k, semantics=semantics,
                      width=width, restarts=restarts, seed=seed,
                      budget=Budget(max_seconds=max_seconds),
                      stop_check=stop_check, net=net)
        if not out.hit:
            metrics.inc("sim.presolve.misses")
            span.set(outcome="stopped" if out.stopped else "miss")
            return None
        out.trace = reduction.lift_witness(out.trace, final,
                                           shorten=semantics == "within")
        if out.trace is None:
            out.rejected = True
            metrics.inc("sim.presolve.invalid")
            span.set(outcome="invalid", hit_k=out.hit_k)
            return out
        out.hit_k = out.trace.length
        metrics.inc("sim.presolve.hits")
        span.set(outcome="hit", hit_k=out.hit_k)
        return out
