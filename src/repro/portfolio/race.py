"""Race several BMC decision methods on one query.

The paper's evaluation is a head-to-head between jSAT and SAT on the
unrolled formula; this module turns that comparison into an execution
strategy: run each method as one task on a warm, process-wide
:class:`~repro.portfolio.pool.WorkerPool`, take the first *conclusive*
answer, and cancel the rest cooperatively at their next solver
checkpoint, so their workers stay warm for the next race (the
stop-each-other pattern SMPT uses for its parallel BMC/k-induction
portfolio).  A SAT claim only wins after its witness validates — by
trace replay when the back end produced a trace, or by the
explicit-state oracle for traceless back ends on small systems — so a
buggy or lucky method cannot poison the portfolio.

The pool is built at the first race and rebuilt when it cannot serve
the next one: in a process forked after it was built, for a race with
more lanes than it has workers, when a lane's registered backend class
(or this module's ``execute_cell``) is not the one its workers were
forked with, and after a shutdown forced by a loser that ignored its
cancel, an interrupt or an error.  It is shut down at interpreter exit.
"""

from __future__ import annotations

import atexit
import logging
import os
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from ..bmc.backend import (METHODS, BmcResult, backend_class,
                           fan_out_options, registered_backends)
from ..bmc.provers import validate_invariant
from ..logic.expr import Expr, interning_scope
from ..sat.types import Budget, SolveResult
from ..system.model import TransitionSystem
from ..system.oracle import ExplicitOracle
from ..system.trace import Trace
from ..telemetry.metrics import current_metrics
from ..telemetry.trace import current_tracer
from .ipc import (decode_outcome, encode_outcome, execute_cell,
                  make_cell_payload, merge_telemetry, strip_run_keys)
from .pool import Task, WorkerPool, pool_context

logger = logging.getLogger(__name__)

__all__ = ["RaceOutcome", "race", "DEFAULT_RACE_METHODS"]

# sat-unroll and jsat are the two methods the paper finds competitive;
# sat-incremental joins them since it shares sat-unroll's strength on
# single bounds while dominating on sweeps.  The QBF back ends lose so
# reliably that racing them by default would only burn a core.
DEFAULT_RACE_METHODS = ("sat-unroll", "jsat", "sat-incremental")

#: Seconds cancelled losers get to report before the pool is dropped.
_CANCEL_GRACE = 5.0

_pool: Optional[WorkerPool] = None
# (pid, execute function, backend registry) the pool's workers were
# forked with.
_pool_key: tuple = (0, None, {})
# Races from several threads take turns on the one pool.
_pool_lock = threading.Lock()


class RaceOutcome:
    """Result of one portfolio race.

    Attributes
    ----------
    result:
        The winning :class:`BmcResult` (status UNKNOWN when no method
        was conclusive within its budget).
    winner:
        Name of the winning method, or None.
    method_outcomes:
        Per-method terminal state: "won", "cancelled", "inconclusive",
        "invalid-witness", "invalid-proof", "deep-witness" (a prover
        found a real violation beyond the queried bound), or
        "timeout"; when a result cache serves
        the whole race (see ``race(cache=...)``) the recorded winner
        is "cache" and every other method "skipped".
    cancel_latency:
        Wall seconds from the winning answer's arrival until every
        loser reported its cancelled outcome.
    loser_pids:
        PIDs of the workers whose lanes were cancelled (alive on
        return: they stay warm for the next race).
    seconds:
        Total wall time of the race.
    """

    def __init__(self, result: BmcResult, winner: Optional[str],
                 method_outcomes: Dict[str, str], cancel_latency: float,
                 loser_pids: List[int], seconds: float) -> None:
        self.result = result
        self.winner = winner
        self.method_outcomes = method_outcomes
        self.cancel_latency = cancel_latency
        self.loser_pids = loser_pids
        self.seconds = seconds

    def __repr__(self) -> str:  # pragma: no cover
        return (f"RaceOutcome(winner={self.winner!r}, "
                f"{self.result.status.name}, {self.seconds:.3f}s, "
                f"cancel={self.cancel_latency * 1e3:.1f}ms)")


def ensure_methods_spawnable(methods: Sequence[str], ctx) -> None:
    """Reject custom backends up front on spawn-start platforms.

    Fork workers inherit the parent's registry, but a spawned worker
    re-imports repro and registers only the built-in backends, so a
    custom method would pass parent-side validation and then kill
    every worker with "unknown method".  Raise here, in the parent,
    with an actionable message instead.
    """
    if ctx.get_start_method() == "fork":
        return
    foreign = [m for m in methods
               if not backend_class(m).__module__.startswith("repro.bmc.")]
    if foreign:
        raise ValueError(
            f"custom backend(s) {foreign} cannot run in worker "
            f"processes on a {ctx.get_start_method()!r}-start platform "
            f"(spawned workers re-import repro with only the built-in "
            f"backends registered); run them in-process via BmcSession")


def _run_lane(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one lane in a pool worker as a process forked for this race
    alone would: the expression nodes the lane interns are forgotten
    afterwards, so its encoding, and with it its solver statistics,
    does not depend on the lanes its worker ran before."""
    with interning_scope():
        return execute_cell(payload)


def _race_pool(lanes: Sequence[str]) -> WorkerPool:
    """The warm pool, rebuilt first when it cannot serve ``lanes``."""
    global _pool, _pool_key
    pid, execute, backends = _pool_key
    if _pool is not None and (
            pid != os.getpid() or len(lanes) > _pool.jobs
            or execute is not execute_cell
            or any(backends.get(m) is not backend_class(m)
                   for m in lanes)):
        _drop_pool()
    if _pool is None:
        _pool = WorkerPool(jobs=len(lanes), execute=_run_lane)
        _pool_key = (os.getpid(), execute_cell, registered_backends())
    return _pool


def _drop_pool() -> None:
    """Shut the warm pool down; the next race forks a fresh one.

    In a forked child this only forgets the parent's pool (see
    :meth:`WorkerPool.shutdown`).
    """
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(grace=0.0)


atexit.register(_drop_pool)


def _validate_sat(system: TransitionSystem, final: Expr, k: int,
                  semantics: str, trace: Optional[Trace]) -> Optional[bool]:
    """True/False when the SAT claim could be checked, None otherwise."""
    if trace is not None:
        if not trace.is_valid(system, final):
            return False
        if semantics == "exact" and trace.length != k:
            return False
        if semantics == "within" and trace.length > k:
            return False
        return True
    # Traceless SAT (e.g. qbf-squaring): cross-check with the explicit
    # oracle when the system is small enough to enumerate.
    try:
        oracle = ExplicitOracle(system)
    except ValueError:
        return None
    if semantics == "exact":
        return oracle.reachable_in_exactly(final, k)
    return oracle.reachable_within(final, k)


def _judge(outcome: Dict[str, Any], method: str, system: TransitionSystem,
           final: Expr, k: int, semantics: str, prover: Optional[str],
           validate: bool) -> str:
    """The terminal state of a lane that answered first: "won" when its
    answer decides the race."""
    status = outcome["status"]
    if outcome.get("timed_out"):
        return "timeout"
    if status is SolveResult.UNKNOWN:
        return "inconclusive"
    if method == prover:
        if status is SolveResult.SAT:
            trace = outcome["trace"]
            length = trace.length if trace is not None else None
            if length is None or length > k or \
                    (semantics == "exact" and length != k):
                # A genuine violation, but deeper than the bounded
                # query asks about — it cannot decide this race (the
                # replay check below would reject it as invalid, which
                # it is not).
                return "deep-witness"
        elif outcome["proved"] and validate \
                and outcome["invariant"] is not None \
                and not validate_invariant(system, final,
                                           outcome["invariant"]):
            # Interpolation ships an inductive invariant; re-check it
            # in the parent before letting the proof win (same
            # distrust as SAT witnesses).
            return "invalid-proof"
        # A bounded prover UNSAT still answers the query: the prover
        # ladder runs to prover_k >= k.
    if status is SolveResult.SAT and validate and _validate_sat(
            system, final, k, semantics, outcome["trace"]) is False:
        return "invalid-witness"
    return "won"


def race(system: TransitionSystem, final: Expr, k: int,
         methods: Sequence[str] = DEFAULT_RACE_METHODS,
         semantics: str = "exact",
         budget: Budget | None = None,
         wall_timeout: Optional[float] = None,
         validate: bool = True,
         method_options: Optional[Dict[str, Dict[str, Any]]] = None,
         reduce: object = "off",
         cache: Optional[Any] = None,
         prover: Optional[str] = None,
         prover_max_k: Optional[int] = None,
         sim_tier: bool = True,
         **options) -> RaceOutcome:
    """Run ``methods`` concurrently; first conclusive answer wins.

    ``wall_timeout`` is the hard outer limit of each lane: the pool
    kills and respawns the worker of a lane that overruns it, and that
    lane reads "timeout".  It defaults to three times the budget's
    ``max_seconds`` (plus setup slack) when that is set, else
    unlimited.

    ``methods`` may name any non-composite backend in the registry,
    custom ones included: a lane whose registered class is not the one
    the warm workers were forked with makes the race fork a fresh pool.
    ``**options`` are broadcast: each raced
    method takes the keys its typed options class declares and ignores
    the rest, but a key *no* raced method declares raises —
    misspellings cannot silently kill a contender.  ``method_options``
    maps a method name to options for that method alone (these win
    over broadcast keys).

    ``reduce`` (``"off"`` / ``"auto"`` / a :class:`repro.reduce.Pipeline`)
    runs the model-reduction pipeline once in the parent; every
    contender then races on the same reduced system, witnesses are
    validated in the reduced vocabulary, and the winning trace is
    lifted back to a full-width path over the original system.

    ``cache`` (a :class:`~repro.portfolio.cache.ResultCache`) serves a
    previously-raced identical query without dispatching anything — the
    returned result carries ``stats["cache_served"] = True`` and the
    method outcomes record "cache" / "skipped" — and stores every
    conclusive live win.  Races whose ``reduce`` knob is a custom
    :class:`~repro.reduce.Pipeline` object are never cached (the
    pipeline cannot participate in the fingerprint).

    ``sim_tier`` (default on) runs the bit-parallel random-simulation
    falsifier (:func:`repro.sim.presolve`) in the parent before any
    lane is dispatched: a validated simulation witness settles the race
    in milliseconds with zero solver lanes (winner ``"simulation"``,
    every solver lane ``"skipped"``).  The tier is SAT-only and
    strictly wall-bounded, so switching it off changes timing, never
    verdicts.

    ``prover`` pairs the falsifier lanes with one unbounded prover
    (any registered backend whose ``proves_unbounded`` flag is set:
    ``"k-induction"`` / ``"interpolation"`` / ``"diameter"``).  The
    prover races the same query at depth ``prover_max_k`` (default:
    well past ``k``) under ``within`` semantics; a *proved* UNSAT wins
    any query — after its inductive invariant validates in the parent
    — so the race can return a conclusive safety verdict instead of
    UNKNOWN-at-bound-k.  The winning result then carries
    ``proved=True`` and the invariant (in the raced — possibly
    reduced — vocabulary).  A prover SAT wins only when its witness
    also answers the bounded query (``length <= k`` for within,
    ``== k`` for exact); a deeper witness is recorded as
    ``"deep-witness"`` and does not decide the race.  With a prover
    attached, ``methods`` may be empty (prover-only race).
    """
    from ..reduce import reduce_for_target, resolve_reduce
    methods = list(methods)
    if not methods and prover is None:
        raise ValueError("race needs at least one method or a prover")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown race methods {unknown}; "
                         f"pick from {METHODS}")
    prover_k = k
    if prover is not None:
        if prover not in METHODS:
            raise ValueError(f"unknown prover {prover!r}; "
                             f"pick from {METHODS}")
        if not backend_class(prover).proves_unbounded:
            raise ValueError(
                f"{prover!r} is a bounded falsifier, not a prover; "
                f"pass it via methods=[...] instead")
        if prover in methods:
            raise ValueError(
                f"{prover!r} is both a raced method and the prover; "
                f"list it only once")
        # The prover's ladder must cover the bounded query (so its
        # bounded UNSAT alone answers it) and should reach well past
        # it (so induction/diameter have room to close the proof).
        prover_k = max(prover_max_k if prover_max_k is not None else 0,
                       2 * k + 16, 24, k)
    if wall_timeout is None and budget is not None \
            and budget.max_seconds is not None:
        wall_timeout = budget.max_seconds * 3.0 + 1.0
    lanes = methods + ([prover] if prover is not None else [])
    per_method_options = fan_out_options(lanes, options,
                                         method_options or {})

    tracer = current_tracer()
    registry = current_metrics()
    race_key = None
    if cache is not None and isinstance(reduce, str):
        from .cache import cell_key
        tag = "race:" + "+".join(sorted(methods))
        if prover is not None:
            tag += f"|prover:{prover}@{prover_k}"
        race_key = cell_key(
            system, final, k, tag,
            semantics, budget,
            {m: sorted(per_method_options[m].items()) for m in lanes},
            reduce)
        cached = cache.get(race_key)
        if cached is not None and cached.get("error") is None \
                and cached["status"] != SolveResult.UNKNOWN.name:
            outcome = decode_outcome(cached)
            winner = outcome["stats"].get("portfolio_winner")
            logger.info("race served from cache (winner %s)", winner)
            tracer.instant("cache.hit", scope="race", k=k,
                           method=str(winner))
            # The invariant was stripped before the put (the cache is
            # JSON); the proved flag survives, so a cached proof still
            # reports conclusively.
            result = BmcResult(outcome["status"], outcome["trace"], k,
                               "portfolio", 0.0, dict(outcome["stats"]),
                               proved=outcome["proved"])
            result.stats["cache_served"] = True
            result.stats["portfolio_cancelled"] = 0
            method_outcomes = {m: "cache" if m == winner else "skipped"
                               for m in lanes}
            return RaceOutcome(result, winner, method_outcomes,
                               0.0, [], 0.0)

    pipeline = resolve_reduce(reduce)
    reduction = None
    original_system = system
    if pipeline is not None:
        candidate = reduce_for_target(system, final, pipeline)
        if not candidate.is_identity:
            reduction = candidate
            system = candidate.system
            final = candidate.map_expr(final)

    if sim_tier:
        from ..sim import presolve as sim_presolve
        sim_start = time.perf_counter()
        sim_out = sim_presolve(system, final, k, semantics=semantics)
        if sim_out is not None:
            trace = sim_out.trace
            assert trace is not None
            if reduction is not None:
                trace = reduction.lift(trace)
                if validate:
                    trace.validate(original_system)
            elif validate:
                trace.validate(original_system, final)
            sim_seconds = time.perf_counter() - sim_start
            stats = dict(sim_out.stats)
            stats["portfolio_winner"] = "simulation"
            stats["sim_presolved"] = True
            stats["portfolio_cancelled"] = 0
            if reduction is not None:
                stats["reduced_latches"] = len(system.state_vars)
                stats["original_latches"] = \
                    len(original_system.state_vars)
            result = BmcResult(SolveResult.SAT, trace, k, "portfolio",
                               sim_seconds, stats)
            tracer.instant("portfolio.winner", method="simulation", k=k)
            logger.info("race pre-solved by simulation in %.3fs "
                        "(witness length %d)", sim_seconds, trace.length)
            if race_key is not None:
                cache.put(race_key, strip_run_keys(encode_outcome(result)))
            method_outcomes = {m: "skipped" for m in lanes}
            method_outcomes["simulation"] = "won"
            return RaceOutcome(result, "simulation", method_outcomes,
                               0.0, [], sim_seconds)

    ensure_methods_spawnable(lanes, pool_context())
    telemetry = tracer.enabled or registry.enabled
    # Manual enter/exit: the span brackets dispatch-to-cancel without
    # reindenting the whole race body; a raised exception simply
    # forfeits the (advisory) parent span.
    race_span = tracer.span("portfolio.race", k=k,
                            methods=",".join(lanes),
                            prover=prover or "none")
    race_span.__enter__()
    start = time.perf_counter()
    method_outcomes = {m: "running" for m in lanes}
    winner: Optional[str] = None
    winning: Optional[Dict[str, Any]] = None
    fallback: Optional[Dict[str, Any]] = None     # an UNKNOWN to report
    loser_pids: List[int] = []
    cancel_start: Optional[float] = None
    with _pool_lock:
        try:
            pool = _race_pool(lanes)
            # Task ids are lane indices: a race has the pool to itself
            # and leaves no task behind on it.
            running = dict(enumerate(lanes))
            for task_id, method in running.items():
                # The prover lane searches past the query bound (within
                # semantics) so it can both refute deeper and close a
                # proof.
                lane_k = prover_k if method == prover else k
                lane_semantics = "within" if method == prover \
                    else semantics
                payload = make_cell_payload(system, final, lane_k, method,
                                            lane_semantics, budget,
                                            per_method_options[method],
                                            telemetry=telemetry)
                pool.submit(Task(task_id, payload, wall_timeout))
            while running:
                timeout = None
                if cancel_start is not None:
                    timeout = cancel_start + _CANCEL_GRACE \
                        - time.perf_counter()
                    if timeout <= 0:
                        break
                pool.collect(timeout)
                for task_id, raw in pool.take_results().items():
                    method = running.pop(task_id)
                    if telemetry:
                        merge_telemetry(raw)
                    if winner is not None:
                        method_outcomes[method] = "cancelled"
                        if raw.get("worker_pid"):
                            loser_pids.append(raw["worker_pid"])
                        continue
                    outcome = decode_outcome(raw)
                    verdict = _judge(outcome, method, system, final, k,
                                     semantics, prover, validate)
                    method_outcomes[method] = verdict
                    if verdict == "won":
                        winner, winning = method, outcome
                        cancel_start = time.perf_counter()
                        for other in running:
                            pool.cancel(other)
                    elif verdict == "inconclusive" and \
                            (fallback is None or fallback.get("error")):
                        fallback = outcome
        except BaseException:
            # Interrupted or broken mid-race: reap every lane now.
            _drop_pool()
            raise
        if running:
            # A loser ignored its cancel past the grace window.
            _drop_pool()
            for method in running.values():
                method_outcomes[method] = "cancelled"
    cancel_latency = 0.0 if cancel_start is None \
        else time.perf_counter() - cancel_start
    seconds = time.perf_counter() - start

    if telemetry and winner is not None:
        tracer.instant("portfolio.winner", method=winner, k=k)
    race_span.set(winner=winner or "none")
    race_span.__exit__(None, None, None)
    logger.info("race finished in %.3fs: winner=%s outcomes=%s",
                seconds, winner, method_outcomes)

    if winning is not None:
        trace = winning["trace"]
        if reduction is not None and trace is not None:
            # Workers validated in the reduced vocabulary; the lifted
            # full-width path must replay on the original system too
            # (the same double check every session/checker path runs).
            trace = reduction.lift(trace)
            if validate:
                trace.validate(original_system)
        # An invariant stays in the raced (possibly reduced)
        # vocabulary — it was validated against that system above and
        # has no full-width counterpart (reduction proved the dropped
        # latches irrelevant to this target).
        result = BmcResult(winning["status"], trace, k,
                           "portfolio", seconds, dict(winning["stats"]),
                           proved=winning["proved"],
                           invariant=winning["invariant"])
        result.stats["portfolio_winner"] = winner
        if reduction is not None:
            result.stats["reduced_latches"] = len(system.state_vars)
            result.stats["original_latches"] = \
                len(original_system.state_vars)
    else:
        stats = dict(fallback["stats"]) if fallback else {}
        result = BmcResult(SolveResult.UNKNOWN,
                           None, k, "portfolio", seconds, stats)
    result.stats["portfolio_cancelled"] = sum(
        1 for state in method_outcomes.values() if state == "cancelled")
    if race_key is not None and winning is not None:
        cache.put(race_key, strip_run_keys(encode_outcome(result)))
    return RaceOutcome(result, winner, method_outcomes, cancel_latency,
                       loser_pids, seconds)
