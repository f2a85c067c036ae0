"""Shard a (suite × methods) matrix across the worker pool.

The scheduler owns three concerns the raw pool does not:

* **ordering** — cells are dispatched hardest-first (by prior timings
  when available, by a bound/method heuristic otherwise) so stragglers
  start early and the pool drains evenly; idle workers then steal the
  next-hardest pending cell, which is exactly the work-stealing order
  a longest-processing-time-first schedule wants;
* **determinism** — results are assembled into the same method-major
  order :func:`repro.harness.runner.run_matrix` produces serially, so
  parallel and serial runs are interchangeable downstream;
* **memoization** — an optional :class:`ResultCache` is consulted
  before dispatch and fed after, so re-runs only pay for new cells.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..models.suite import Instance
from ..sat.types import Budget, SolveResult
from ..telemetry.metrics import current_metrics
from ..telemetry.trace import current_tracer
from .cache import ResultCache, cell_key
from .ipc import (decode_outcome, encode_trace, make_cell_payload,
                  merge_telemetry, strip_run_keys)
from .pool import Task, WorkerPool

logger = logging.getLogger(__name__)

__all__ = ["BatchScheduler", "hardness_estimate"]

# Relative cost of one bound-step per method, tuned on the E1 suite;
# only the ordering matters, not the absolute values.  The unbounded
# provers run a whole base-case ladder plus a proof obligation per
# rung, so they weigh heaviest.
_METHOD_WEIGHT = {"sat-unroll": 2.0, "sat-incremental": 2.0, "jsat": 1.0,
                  "qbf": 6.0, "qbf-squaring": 6.0,
                  "k-induction": 8.0, "interpolation": 10.0,
                  "diameter": 12.0, "simulation": 0.5}


def hardness_estimate(instance: Instance, method: str,
                      timings: Mapping[Tuple[str, str], float] | None = None
                      ) -> float:
    """Predicted cost of one cell, used for hardest-first ordering.

    ``timings`` maps ``(instance.name, method)`` to seconds observed in
    a previous run (e.g. harvested from an earlier result list); cells
    without history fall back to bound × method weight.
    """
    if timings is not None:
        seen = timings.get((instance.name, method))
        if seen is not None:
            return float(seen)
    return (instance.k + 1) * _METHOD_WEIGHT.get(method, 3.0)


class BatchScheduler:
    """Run a full experiment matrix on a :class:`WorkerPool`.

    After :meth:`run` the ``stats`` attribute holds the batch summary:
    executed / cache-hit / timed-out cell counts, worker count, wall
    seconds, and summed per-cell CPU seconds.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: ResultCache | str | None = None,
                 timings: Mapping[Tuple[str, str], float] | None = None,
                 wall_timeout_factor: float = 3.0) -> None:
        self.jobs = jobs
        if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
            cache = ResultCache(cache)
        self.cache = cache
        self.timings = timings
        self.wall_timeout_factor = wall_timeout_factor
        self.stats: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def harvest_timings(results: Sequence[Any]
                        ) -> Dict[Tuple[str, str], float]:
        """Extract a timings map from a previous run's CellResults."""
        return {(c.instance.name, c.method): c.seconds for c in results}

    # ------------------------------------------------------------------
    def run(self, instances: Sequence[Instance], methods: Sequence[str],
            budget: Budget | None = None,
            semantics: str = "exact",
            method_budgets: Dict[str, Budget] | None = None,
            reduce: str = "off",
            prover: Optional[str] = None,
            sim_tier: bool = False,
            **options) -> List:
        """Parallel equivalent of ``run_matrix`` (same result order).

        ``sim_tier`` answers pending cells with the bit-parallel
        random-simulation falsifier before any worker dispatch: a
        validated simulation witness fills the cell (worker ``"sim"``,
        its assigned method untouched, like a cache hit) so the pool
        only spins up for the cells randomness could not settle.  Off
        by default — experiment matrices exist to *measure* the solver
        methods, which a pre-solve tier would skip.

        ``reduce`` (``"auto"`` / ``"off"``) rides along in every cell
        payload — reduction happens inside the worker's session — and
        is part of the cache key, so reduced and unreduced runs never
        serve each other's cached traces.

        ``prover`` pairs every instance's falsifier cells with one
        unbounded-prover comparison lane (``"k-induction"`` /
        ``"interpolation"`` / ``"diameter"``).  Prover cells always run
        ``within`` semantics — a prover ladder cannot answer an exact-k
        query — and a conclusive proof surfaces as ``proved`` in the
        cell stats.
        """
        from ..bmc.backend import backend_class, fan_out_options
        from ..harness.runner import CellResult   # deferred: no cycle
        method_budgets = method_budgets or {}
        lanes = list(methods)
        if prover is not None:
            if not backend_class(prover).proves_unbounded:
                raise ValueError(
                    f"{prover!r} is a bounded falsifier, not a prover; "
                    f"list it in methods instead")
            if prover not in lanes:
                lanes.append(prover)
        # Same broadcast semantics as the serial run_matrix: each
        # method takes the keys its options class accepts; keys nobody
        # accepts raise before any worker is spawned.
        per_method = fan_out_options(lanes, options)

        # Method-major slot order, identical to the serial run_matrix.
        cells: List[Tuple[Instance, str, Budget | None]] = []
        for method in lanes:
            cell_budget = method_budgets.get(method, budget)
            for instance in instances:
                cells.append((instance, method, cell_budget))

        slots: List[Optional[CellResult]] = [None] * len(cells)
        keys: List[Optional[str]] = [None] * len(cells)
        pending: List[int] = []
        cache_hits = 0

        tracer = current_tracer()
        telemetry = tracer.enabled or current_metrics().enabled
        # Manual enter/exit (same pattern as race): the span brackets
        # the whole batch without reindenting the body.
        batch_span = tracer.span("batch.run", cells=len(cells),
                                 methods=",".join(lanes))
        batch_span.__enter__()

        wall_start = time.perf_counter()
        for slot, (instance, method, cell_budget) in enumerate(cells):
            cell_semantics = "within" if method == prover else semantics
            if self.cache is not None:
                key = cell_key(instance.system, instance.final, instance.k,
                               method, cell_semantics, cell_budget,
                               per_method[method], reduce=reduce)
                keys[slot] = key
                cached = self.cache.get(key)
                if cached is not None:
                    slots[slot] = self._to_cell_result(
                        instance, method, cached, worker="cache")
                    cache_hits += 1
                    tracer.instant("cache.hit", instance=instance.name,
                                   method=method, k=instance.k)
                    logger.debug("cache hit: %s/%s k=%d", instance.name,
                                 method, instance.k)
                    continue
            pending.append(slot)

        sim_answered = 0
        if sim_tier and pending:
            from ..sim import presolve
            still_pending: List[int] = []
            # One falsification attempt per (instance, semantics) pair
            # answers every method lane of that instance at once.
            attempts: Dict[Tuple[int, str], Any] = {}
            for slot in pending:
                instance, method, _cell_budget = cells[slot]
                cell_semantics = "within" if method == prover else semantics
                probe = (id(instance), cell_semantics)
                if probe not in attempts:
                    attempts[probe] = presolve(
                        instance.system, instance.final, instance.k,
                        semantics=cell_semantics)
                sim_out = attempts[probe]
                if sim_out is None or not sim_out.trace.is_valid(
                        instance.system, instance.final):
                    still_pending.append(slot)
                    continue
                outcome = {
                    "status": SolveResult.SAT.name,
                    "k": sim_out.hit_k,
                    "method": "simulation",
                    "seconds": sim_out.seconds,
                    "stats": dict(sim_out.stats,
                                  sim_presolved=True),
                    "trace": encode_trace(sim_out.trace),
                    "error": None,
                }
                slots[slot] = self._to_cell_result(
                    instance, method, outcome, worker="sim")
                sim_answered += 1
                tracer.instant("sim.hit", instance=instance.name,
                               method=method, k=sim_out.hit_k)
            pending = still_pending

        # Hardest first: a longest-job-first schedule minimizes the
        # makespan penalty of stragglers landing last.
        pending.sort(key=lambda slot: hardness_estimate(
            cells[slot][0], cells[slot][1], self.timings), reverse=True)

        timeouts = 0
        executed = 0
        cpu_total = 0.0
        if pending:
            from .pool import pool_context
            from .race import ensure_methods_spawnable
            ensure_methods_spawnable(lanes, pool_context())
            tasks = []
            for slot in pending:
                instance, method, cell_budget = cells[slot]
                cell_semantics = "within" if method == prover else semantics
                payload = make_cell_payload(instance.system, instance.final,
                                            instance.k, method,
                                            cell_semantics,
                                            cell_budget, per_method[method],
                                            reduce=reduce,
                                            telemetry=telemetry)
                wall_timeout = None
                if cell_budget is not None \
                        and cell_budget.max_seconds is not None:
                    wall_timeout = (cell_budget.max_seconds
                                    * self.wall_timeout_factor + 1.0)
                tasks.append(Task(slot, payload, wall_timeout))
            with WorkerPool(jobs=self.jobs) as pool:
                outcomes = pool.run(tasks)
            for slot, outcome in outcomes.items():
                instance, method, cell_budget = cells[slot]
                slots[slot] = self._to_cell_result(
                    instance, method, outcome,
                    worker=outcome.get("worker"))
                executed += 1
                cpu_total += outcome.get("cpu_seconds", 0.0)
                if telemetry:
                    merge_telemetry(outcome)
                if outcome.get("timed_out"):
                    timeouts += 1
                elif self._cacheable(outcome, cell_budget) \
                        and keys[slot] is not None:
                    self.cache.put(keys[slot], strip_run_keys(outcome))
        wall = time.perf_counter() - wall_start
        batch_span.set(executed=executed, cache_hits=cache_hits)
        batch_span.__exit__(None, None, None)
        logger.info("batch: %d cells (%d executed, %d cached) in %.3fs",
                    len(cells), executed, cache_hits, wall)

        self.stats = {
            "cells": len(cells),
            "executed": executed,
            "cache_hits": cache_hits,
            "cache_misses": (len(cells) - cache_hits
                             if self.cache is not None else 0),
            "sim_hits": sim_answered,
            "timeouts": timeouts,
            "jobs": self.jobs,
            "wall_seconds": wall,
            "cpu_seconds": cpu_total,
        }
        assert all(result is not None for result in slots)
        return list(slots)

    # ------------------------------------------------------------------
    def _cacheable(self, outcome: Dict[str, Any],
                   budget: Budget | None) -> bool:
        """Should this outcome be stored?

        Error outcomes never.  UNKNOWN under a wall-clock budget term is
        a property of that run's machine load, not of the query, so
        caching it would pin a transient answer; UNKNOWN under purely
        deterministic limits (conflicts / literals / decisions) is a
        pure function of the cache key and safe to store.
        """
        if self.cache is None or outcome.get("error"):
            return False
        if outcome["status"] == SolveResult.UNKNOWN.name \
                and budget is not None and budget.max_seconds is not None:
            return False
        return True

    # ------------------------------------------------------------------
    @staticmethod
    def _to_cell_result(instance: Instance, method: str,
                        outcome: Dict[str, Any],
                        worker: Optional[str]) -> Any:
        from ..harness.runner import CellResult   # deferred: no cycle
        decoded = decode_outcome(outcome)
        status = decoded["status"]
        correct: Optional[bool] = None
        if instance.expected is not None and \
                status is not SolveResult.UNKNOWN:
            want = SolveResult.SAT if instance.expected \
                else SolveResult.UNSAT
            correct = status is want
        stats = dict(decoded["stats"])
        if decoded["proved"]:
            stats["proved"] = True
        if worker == "cache":
            # A hit costs (essentially) nothing this run; the original
            # run's timings must not inflate this run's attribution.
            wall = 0.0
            cpu = 0.0
            stats["served_from_cache"] = True
        else:
            wall = outcome.get("wall_seconds", decoded["seconds"])
            cpu = outcome.get("cpu_seconds", 0.0)
        return CellResult(instance, method, status, wall, correct,
                          stats, cpu_seconds=cpu,
                          worker=worker)
