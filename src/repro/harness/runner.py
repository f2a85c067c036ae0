"""Budgeted experiment runner.

Runs (instance × method) cells under per-instance resource budgets —
the laptop-scale analogue of the paper's "300 seconds time limit and
1 GB memory limit" — and records outcome, wall time, CPU time and the
method's size/effort statistics.  Results feed the report tables of
:mod:`repro.harness.report` for experiments E1–E8 (the full benchmark
set under ``benchmarks/`` and the ``repro experiment`` subcommand).

``run_matrix`` runs serially by default; pass ``jobs=N`` to shard the
matrix across a :class:`repro.portfolio.scheduler.BatchScheduler`
worker pool (optionally with an on-disk result cache) — the result
list is identical to the serial one, in the same order.

``run_matrix(mode="sweep")`` replaces the single exact-k query per
cell with a full bound sweep 0..k (:meth:`repro.bmc.session.BmcSession.sweep`):
the cell's status is the sweep verdict, and the stats record the
number of bounds checked and the wall time to the shortest
counterexample — the evaluation axis the incremental driver exists
for.

``run_matrix(mode="properties")`` (or :func:`run_property_matrix`
directly) adds the *property* axis: every named property of each
instance is checked at the instance's bound through one
shared-unrolling session (:meth:`BmcSession.check_properties`), or —
with ``shared=False`` — through one throwaway session per property,
the sequential baseline the multi-property benchmark compares against.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..bmc.backend import fan_out_options
from ..bmc.metrics import measure_time
from ..bmc.session import BmcSession
from ..models.suite import Instance
from ..sat.types import Budget, SolveResult
from ..spec.checker import PropertyResult
from ..spec.property import Verdict

__all__ = ["CellResult", "PropertyCellResult", "run_cell",
           "run_sweep_cell", "run_property_cell", "run_matrix",
           "run_property_matrix", "default_budget", "solved_counts",
           "verdict_counts"]


def default_budget(scale: float = 1.0) -> Budget:
    """The per-instance budget used by the headline experiment E1.

    Deterministic limits (conflicts / clause-database literals) make the
    benches reproducible; the wall-clock cap keeps worst cases bounded.
    """
    return Budget(max_conflicts=int(20_000 * scale),
                  max_seconds=5.0 * scale,
                  max_literals=int(2_000_000 * scale))


class CellResult:
    """Outcome of one (instance, method) run.

    ``seconds`` is wall-clock; ``cpu_seconds`` is the process-CPU time
    of whoever solved the cell (the worker process, in a parallel run).
    ``worker`` attributes the cell to a pool worker (``"w0"``, ...),
    ``"cache"`` for a result-cache hit, or None for a serial run.
    """

    def __init__(self, instance: Instance, method: str,
                 status: SolveResult, seconds: float, correct: Optional[bool],
                 stats: Dict[str, int],
                 cpu_seconds: float = 0.0,
                 worker: Optional[str] = None) -> None:
        self.instance = instance
        self.method = method
        self.status = status
        self.seconds = seconds
        self.correct = correct        # None when ground truth is unknown
        self.stats = stats
        self.cpu_seconds = cpu_seconds
        self.worker = worker

    @property
    def solved(self) -> bool:
        """Solved = produced a definite answer within budget, and that
        answer matches the ground truth when one is known."""
        if self.status is SolveResult.UNKNOWN:
            return False
        return self.correct is not False

    def __repr__(self) -> str:  # pragma: no cover
        who = f", worker={self.worker}" if self.worker else ""
        return (f"CellResult({self.instance.name!r}, {self.method!r}, "
                f"{self.status.name}, {self.seconds * 1e3:.0f} ms{who})")


def run_cell(instance: Instance, method: str,
             budget: Budget | None = None,
             semantics: str = "exact",
             reduce: object = "off",
             **options) -> CellResult:
    """Run one instance with one method under the budget.

    ``method`` may name any registered backend — built-in or custom —
    and ``**options`` are validated by that backend's typed options
    class (unknown keys raise).  ``reduce`` is the session's
    model-reduction knob (``"off"`` / ``"auto"`` / a
    :class:`repro.reduce.Pipeline`).
    """
    with measure_time() as timing:
        with BmcSession(instance.system,
                        properties={"target": instance.final},
                        reduce=reduce) as session:
            result = session.check(instance.k, method=method,
                                   semantics=semantics, budget=budget,
                                   **options)
    correct: Optional[bool] = None
    if instance.expected is not None and \
            result.status is not SolveResult.UNKNOWN:
        want = SolveResult.SAT if instance.expected else SolveResult.UNSAT
        correct = result.status is want
    stats = dict(result.stats)
    if result.proved:
        # Same marker the parallel scheduler records, so downstream
        # reporting treats serial and sharded cells alike.
        stats["proved"] = True
    return CellResult(instance, method, result.status,
                      timing.wall_seconds, correct, stats,
                      cpu_seconds=timing.cpu_seconds)


def run_sweep_cell(instance: Instance, method: str,
                   budget: Budget | None = None,
                   reduce: object = "off",
                   **options) -> CellResult:
    """Sweep bounds 0..instance.k with one method; one CellResult.

    Status is the sweep verdict (SAT = shortest counterexample found).
    Correctness is judged by witness replay for SAT; for UNSAT the only
    checkable claim is that an expected-SAT instance must be hit by its
    own bound (exact-k reachability implies the sweep cannot miss it).
    """
    with measure_time() as timing:
        with BmcSession(instance.system,
                        properties={"target": instance.final},
                        reduce=reduce) as session:
            swept = session.sweep(instance.k, method=method,
                                  budget=budget, **options)
    correct: Optional[bool] = None
    if swept.status is SolveResult.SAT:
        hit = swept.hit
        if hit.trace is not None:
            correct = (hit.trace.is_valid(instance.system, instance.final)
                       and hit.trace.length == hit.k)
    elif swept.status is SolveResult.UNSAT and instance.expected is True:
        correct = False
    stats: Dict[str, int] = {
        "bounds_checked": len(swept.per_bound),
        "max_k": swept.max_k,
    }
    if swept.shortest_k is not None:
        stats["shortest_k"] = swept.shortest_k
        stats["time_to_cex_ms"] = int(swept.time_to_hit * 1e3)
    if swept.per_bound:
        stats.update({f"last_{key}": value
                      for key, value in swept.per_bound[-1].stats.items()})
    return CellResult(instance, method, swept.status, timing.wall_seconds,
                      correct, stats, cpu_seconds=timing.cpu_seconds)


class PropertyCellResult:
    """Outcome of one (instance, property) check.

    Wraps the checker's :class:`~repro.spec.checker.PropertyResult`
    with the harness bookkeeping (instance provenance, wall/CPU time
    of the enclosing session call).
    """

    def __init__(self, instance: Instance, result: PropertyResult,
                 seconds: float, cpu_seconds: float = 0.0) -> None:
        self.instance = instance
        self.result = result
        self.seconds = seconds
        self.cpu_seconds = cpu_seconds

    @property
    def property_name(self) -> str:
        return self.result.name

    @property
    def verdict(self) -> Verdict:
        return self.result.verdict

    def __repr__(self) -> str:  # pragma: no cover
        return (f"PropertyCellResult({self.instance.name!r}, "
                f"{self.result.name!r}, {self.verdict.name})")


def run_property_cell(instance: Instance,
                      budget: Budget | None = None,
                      shared: bool = True,
                      reduce: object = "off",
                      prover: Optional[str] = None,
                      prover_max_k: int = 64) -> List[PropertyCellResult]:
    """Check every named property of one instance at its bound.

    ``shared=True`` answers all properties over one shared unrolling
    in one session; ``shared=False`` opens a fresh session per
    property — the sequential baseline (same verdicts, re-encoded
    transition frames per property).  ``reduce`` is forwarded to the
    sessions, so ``"auto"`` groups properties by reduced cone, and
    ``prover`` pairs each property with an unbounded prover that can
    upgrade bounded UNSAT verdicts to conclusive proofs.
    """
    out: List[PropertyCellResult] = []
    if shared:
        with measure_time() as timing:
            with BmcSession(instance.system,
                            properties=instance.properties,
                            reduce=reduce, prover=prover,
                            prover_max_k=prover_max_k) as session:
                results = session.check_properties(instance.k,
                                                   budget=budget)
        per = timing.wall_seconds / max(1, len(results))
        per_cpu = timing.cpu_seconds / max(1, len(results))
        for result in results.values():
            out.append(PropertyCellResult(instance, result, per, per_cpu))
        return out
    for name, prop in instance.properties.items():
        with measure_time() as timing:
            with BmcSession(instance.system,
                            properties={name: prop},
                            reduce=reduce, prover=prover,
                            prover_max_k=prover_max_k) as session:
                result = session.check_properties(instance.k,
                                                  budget=budget)[name]
        out.append(PropertyCellResult(instance, result,
                                      timing.wall_seconds,
                                      timing.cpu_seconds))
    return out


def run_property_matrix(instances: Sequence[Instance],
                        budget: Budget | None = None,
                        shared: bool = True,
                        reduce: object = "off",
                        prover: Optional[str] = None,
                        prover_max_k: int = 64
                        ) -> List[PropertyCellResult]:
    """The (instances × properties) matrix, instance-major."""
    out: List[PropertyCellResult] = []
    for instance in instances:
        out.extend(run_property_cell(instance, budget=budget,
                                     shared=shared, reduce=reduce,
                                     prover=prover,
                                     prover_max_k=prover_max_k))
    return out


def verdict_counts(cells: Iterable[PropertyCellResult]
                   ) -> Dict[str, Dict[str, int]]:
    """Per-property-name verdict tallies across a property matrix."""
    table: Dict[str, Dict[str, int]] = {}
    for cell in cells:
        row = table.setdefault(cell.property_name, {
            "total": 0, "holds": 0, "violated": 0, "unknown": 0,
            "certified": 0})
        row["total"] += 1
        row[cell.verdict.value] += 1
        if cell.result.conclusive:
            row["certified"] += 1
    return table


def run_matrix(instances: Sequence[Instance], methods: Sequence[str],
               budget: Budget | None = None,
               semantics: str = "exact",
               method_budgets: Dict[str, Budget] | None = None,
               jobs: Optional[int] = None,
               cache=None,
               timings: Mapping[Tuple[str, str], float] | None = None,
               mode: str = "single",
               reduce: object = "off",
               prover: Optional[str] = None,
               sim_tier: bool = False,
               **options) -> List[CellResult]:
    """Run the full (instances × methods) matrix.

    ``jobs=None`` (or 1 with no cache) runs serially in-process.  With
    ``jobs=N`` the matrix is sharded across N worker processes by the
    portfolio :class:`~repro.portfolio.scheduler.BatchScheduler`;
    ``cache`` (a :class:`~repro.portfolio.cache.ResultCache` or a
    directory path) memoizes solved cells across runs, and ``timings``
    (``{(instance_name, method): seconds}`` from a previous run) tunes
    the hardest-first dispatch order.  Result order is method-major and
    identical in all modes.

    ``mode="sweep"`` runs each cell as a bound sweep 0..k via
    :func:`run_sweep_cell` (serial only: sweeps keep a live solver per
    cell, so they are not sharded or cached).

    ``mode="properties"`` checks every *named property* of each
    instance instead of the single final target, through one
    shared-unrolling session per instance
    (:func:`run_property_matrix`; serial only, ``methods`` does not
    apply — the spec engine is the incremental SAT checker — and must
    be empty or ``("spec",)``).  Returns
    :class:`PropertyCellResult` rows.

    ``**options`` are broadcast: each method takes the keys its typed
    options class accepts (e.g. ``use_cache=False`` tunes jsat while
    sat-unroll ignores it); a key no listed method accepts raises.

    ``reduce`` (``"off"`` / ``"auto"`` / a
    :class:`repro.reduce.Pipeline`) forwards the model-reduction knob
    to every cell's session; parallel (``jobs``/``cache``) runs accept
    the string forms only, because the knob travels in worker payloads
    and cache keys.

    ``sim_tier`` (default off — matrices measure solver methods) runs
    the bit-parallel random-simulation pre-solve over the pending
    cells before the worker pool starts; it forces the scheduler path
    even for ``jobs=1``, since the tier lives in
    :class:`~repro.portfolio.scheduler.BatchScheduler`.  ``"single"``
    mode only.

    ``prover`` pairs the matrix with one unbounded prover.  In
    ``"single"`` mode it adds a comparison lane (one extra prover cell
    per instance, ``within`` semantics — serial and sharded runs
    agree); in ``"properties"`` mode it is forwarded to every
    session's checker, which escalates bounded UNSAT verdicts to
    conclusive proofs per property cone.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if mode not in ("single", "sweep", "properties"):
        raise ValueError(f"unknown mode {mode!r}; pick 'single', "
                         f"'sweep' or 'properties'")
    if mode == "properties":
        if tuple(methods) not in ((), ("spec",)):
            raise ValueError(
                "mode='properties' checks named properties with the "
                "shared-unrolling spec engine; pass methods=() (or "
                "('spec',)), not a backend list")
        if (jobs is not None and jobs > 1) or cache is not None or options:
            raise ValueError("property mode runs serially "
                             "(no jobs/cache/backend options)")
        return run_property_matrix(instances, budget=budget,
                                   reduce=reduce, prover=prover)
    lanes = list(methods)
    if prover is not None and mode == "single":
        from ..bmc.backend import require_prover
        require_prover(prover)
        if prover not in lanes:
            lanes.append(prover)
    per_method = fan_out_options(lanes, options)
    if mode == "sweep":
        if prover is not None:
            raise ValueError("sweep mode has no prover lane; use "
                             "mode='single' or mode='properties'")
        if (jobs is not None and jobs > 1) or cache is not None:
            raise ValueError("sweep mode runs serially (no jobs/cache)")
        method_budgets = method_budgets or {}
        out: List[CellResult] = []
        for method in methods:
            cell_budget = method_budgets.get(method, budget)
            for instance in instances:
                out.append(run_sweep_cell(instance, method, cell_budget,
                                          reduce=reduce,
                                          **per_method[method]))
        return out
    if (jobs is not None and jobs > 1) or cache is not None or sim_tier:
        from ..reduce import REDUCE_MODES
        if reduce not in REDUCE_MODES:
            raise ValueError(
                f"parallel/cached runs take reduce='auto' or 'off' "
                f"(the knob travels in worker payloads and cache "
                f"keys), got {reduce!r}")
        from ..portfolio.scheduler import BatchScheduler
        scheduler = BatchScheduler(jobs=jobs or 1, cache=cache,
                                   timings=timings)
        return scheduler.run(instances, methods, budget=budget,
                             semantics=semantics,
                             method_budgets=method_budgets,
                             reduce=reduce, prover=prover,
                             sim_tier=sim_tier, **options)

    method_budgets = method_budgets or {}
    out: List[CellResult] = []
    for method in lanes:
        cell_budget = method_budgets.get(method, budget)
        cell_semantics = "within" if method == prover else semantics
        for instance in instances:
            out.append(run_cell(instance, method, cell_budget,
                                cell_semantics,
                                reduce=reduce, **per_method[method]))
    return out


def solved_counts(results: Iterable[CellResult]) -> Dict[str, Dict[str, int]]:
    """Aggregate per-method solved/total counts (the E1 headline)."""
    table: Dict[str, Dict[str, int]] = {}
    for cell in results:
        row = table.setdefault(cell.method, {
            "solved": 0, "total": 0, "sat": 0, "unsat": 0, "unknown": 0,
            "wrong": 0})
        row["total"] += 1
        if cell.status is SolveResult.UNKNOWN:
            row["unknown"] += 1
        elif cell.correct is False:
            row["wrong"] += 1
        else:
            row["solved"] += 1
            if cell.status is SolveResult.SAT:
                row["sat"] += 1
            else:
                row["unsat"] += 1
    return table
