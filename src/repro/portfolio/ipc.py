"""Inter-process payloads for the portfolio subsystem.

Worker processes receive a *cell payload* (system, query, method,
budget) and send back an *outcome* — a plain-data dict containing only
builtins and therefore safe to pickle through a ``multiprocessing``
pipe, write to the on-disk result cache, or diff in tests.  The
functions here are the single source of truth for both directions, so
the pool, the race primitive and the cache all agree on the format.
"""

from __future__ import annotations

import os
import traceback
from typing import Any, Dict, Optional

from ..bmc.backend import BmcResult, BoundResult, SweepResult
from ..bmc.metrics import measure_time
from ..bmc.session import BmcSession
from ..logic.expr import Expr
from ..sat.types import Budget, SolveResult
from ..system.model import TransitionSystem
from ..system.trace import Trace
from ..telemetry.metrics import MetricsRegistry, current_metrics, set_metrics
from ..telemetry.trace import NULL_TRACER, Tracer, current_tracer, set_tracer

__all__ = ["make_cell_payload",
           "execute_cell", "encode_outcome", "encode_sweep_outcome",
           "encode_trace", "decode_trace", "decode_outcome",
           "outcome_to_result", "strip_run_keys", "merge_telemetry",
           "set_progress_sink", "emit_progress"]

# ----------------------------------------------------------------------
# Streaming progress (worker -> parent)
# ----------------------------------------------------------------------
# The pool's worker loop installs a sink bound to the worker's IPC pipe
# for the duration of each task; cells whose payload asks for streaming
# (``stream: True``) then push per-bound records through it while the
# sweep is still running.  In-process execution leaves it None.
_PROGRESS_SINK: Optional[Any] = None


def set_progress_sink(sink) -> Any:
    """Install the worker-local progress sink; returns the previous."""
    global _PROGRESS_SINK
    previous = _PROGRESS_SINK
    _PROGRESS_SINK = sink
    return previous


def emit_progress(data: Dict[str, Any]) -> None:
    """Push one plain-data progress record to the installed sink."""
    if _PROGRESS_SINK is not None:
        _PROGRESS_SINK(data)


def make_cell_payload(system: TransitionSystem, final: Expr, k: int,
                      method: str, semantics: str = "exact",
                      budget: Budget | None = None,
                      options: Dict[str, Any] | None = None,
                      reduce: str = "off",
                      telemetry: bool = False,
                      kind: str = "check",
                      stream: bool = False) -> Dict[str, Any]:
    """Bundle one reachability query for execution in a worker.

    The system and target expression ride along as live objects —
    :class:`~repro.logic.expr.Expr` pickles via re-interning — so the
    payload works under both fork and spawn start methods.  ``reduce``
    (``"auto"`` / ``"off"``) is applied by the worker's session.
    ``telemetry`` asks the worker to attach its trace events and
    metrics snapshot to the outcome (see :func:`execute_cell`).

    ``kind`` selects the query shape: ``"check"`` (one bound ``k``, the
    default) or ``"sweep"`` (the ladder 0..k, answered by
    ``session.sweep``).  ``stream`` asks a sweep cell to push per-bound
    progress records through the worker's progress sink while solving.
    """
    if kind not in ("check", "sweep"):
        raise ValueError(f"unknown cell kind {kind!r}; "
                         f"pick 'check' or 'sweep'")
    return {
        "system": system,
        "final": final,
        "k": k,
        "method": method,
        "semantics": semantics,
        "budget": None if budget is None else budget.as_dict(),
        "options": dict(options or {}),
        "reduce": reduce,
        "telemetry": telemetry,
        "kind": kind,
        "stream": stream,
    }


def execute_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell payload and return its encoded outcome.

    This is the function worker processes actually call; it never
    raises — solver errors are folded into an ``error`` outcome so a
    bad cell cannot take down its worker.

    When the payload carries ``telemetry: True`` a fresh worker-local
    :class:`~repro.telemetry.trace.Tracer` and
    :class:`~repro.telemetry.metrics.MetricsRegistry` are installed for
    the duration of the cell (so a fork-inherited parent tracer never
    records worker events) and their contents ride back on the outcome
    under ``trace_events`` / ``metrics`` / ``worker_pid``, ready for
    the parent to merge into one timeline.
    """
    telemetry = bool(payload.get("telemetry"))
    kind = payload.get("kind", "check")
    tracer: Optional[Tracer] = None
    registry: Optional[MetricsRegistry] = None
    if telemetry:
        tracer = Tracer()
        registry = MetricsRegistry()
        prev_tracer = set_tracer(tracer)
        prev_metrics = set_metrics(registry)
    try:
        with measure_time() as timing:
            try:
                # Explicit None check: an empty Tracer is falsy
                # (it has __len__), so `tracer or NULL_TRACER` would
                # silently discard it.
                span_tracer = NULL_TRACER if tracer is None else tracer
                with span_tracer.span(
                        "worker.cell", method=payload["method"],
                        k=payload["k"], kind=kind):
                    with BmcSession(payload["system"],
                                    properties={
                                        "target": payload["final"]},
                                    reduce=payload.get("reduce", "off")
                                    ) as session:
                        if kind == "sweep":
                            on_bound = None
                            if payload.get("stream"):
                                on_bound = _progress_observer()
                            sweep = session.sweep(
                                payload["k"],
                                method=payload["method"],
                                budget=Budget.from_dict(
                                    payload.get("budget")),
                                on_bound=on_bound,
                                **payload.get("options", {}))
                            outcome = encode_sweep_outcome(sweep)
                        else:
                            result = session.check(
                                payload["k"],
                                method=payload["method"],
                                semantics=payload.get("semantics",
                                                      "exact"),
                                budget=Budget.from_dict(
                                    payload.get("budget")),
                                **payload.get("options", {}))
                            outcome = encode_outcome(result)
            except Exception:
                outcome = {
                    "status": SolveResult.UNKNOWN.name,
                    "k": payload["k"],
                    "method": payload["method"],
                    "seconds": 0.0,
                    "stats": {},
                    "trace": None,
                    "error": traceback.format_exc(limit=8),
                }
    finally:
        if telemetry:
            set_tracer(prev_tracer)
            set_metrics(prev_metrics)
    outcome["wall_seconds"] = timing.wall_seconds
    outcome["cpu_seconds"] = timing.cpu_seconds
    if telemetry:
        outcome["trace_events"] = tracer.drain()
        outcome["metrics"] = registry.snapshot()
        outcome["worker_pid"] = os.getpid()
    return outcome


def _progress_observer():
    """An ``on_bound`` observer that streams through the progress sink."""
    def observe(bound: BoundResult) -> None:
        emit_progress({
            "k": bound.k,
            "status": bound.status.name,
            "seconds": bound.seconds,
            "cumulative_seconds": bound.cumulative_seconds,
            "proved": bool(bound.proved),
        })
    return observe


def encode_sweep_outcome(sweep: SweepResult) -> Dict[str, Any]:
    """SweepResult -> plain-data dict, check-outcome compatible.

    The common fields (``status`` / ``k`` / ``trace`` / ...) carry the
    sweep's verdict so every check-outcome consumer works unchanged;
    ``kind: "sweep"`` plus ``max_k`` / ``per_bound`` preserve the
    ladder itself.
    """
    shortest = sweep.shortest_k
    return {
        "status": sweep.status.name,
        "k": shortest if shortest is not None else sweep.max_k,
        "method": sweep.method,
        "seconds": sweep.seconds,
        "stats": {"bounds_checked": len(sweep.per_bound)},
        "trace": encode_trace(sweep.trace),
        "proved": bool(sweep.proved),
        "invariant": None,
        "error": None,
        "kind": "sweep",
        "max_k": sweep.max_k,
        "per_bound": [{
            "k": b.k,
            "status": b.status.name,
            "seconds": b.seconds,
            "cumulative_seconds": b.cumulative_seconds,
            "proved": bool(b.proved),
        } for b in sweep.per_bound],
    }


def encode_outcome(result: BmcResult) -> Dict[str, Any]:
    """BmcResult -> plain-data dict.

    ``invariant`` rides along as a live :class:`~repro.logic.expr.Expr`
    (it pickles via re-interning, like the payload's system/target);
    cache writers must strip it first — the result cache stores JSON.
    """
    return {
        "status": result.status.name,
        "k": result.k,
        "method": result.method,
        "seconds": result.seconds,
        "stats": dict(result.stats),
        "trace": encode_trace(result.trace),
        "proved": bool(result.proved),
        "invariant": result.invariant,
        "error": None,
    }


def encode_trace(trace: Optional[Trace]) -> Optional[Dict[str, Any]]:
    """Trace -> plain dict of state and input lists (None stays None)."""
    if trace is None:
        return None
    return {"states": [dict(s) for s in trace.states],
            "inputs": [dict(i) for i in trace.inputs]}


def decode_trace(data: Optional[Dict[str, Any]]) -> Optional[Trace]:
    """Inverse of :func:`encode_trace`."""
    if data is None:
        return None
    return Trace(data["states"], data["inputs"])


def decode_outcome(outcome: Dict[str, Any]) -> Dict[str, Any]:
    """Plain dict -> dict with live SolveResult / Trace objects."""
    out = dict(outcome)
    out["status"] = SolveResult[outcome["status"]]
    out["trace"] = decode_trace(outcome.get("trace"))
    out["proved"] = bool(outcome.get("proved", False))
    out.setdefault("invariant", None)
    out.setdefault("cancelled", False)
    return out


def outcome_to_result(outcome: Dict[str, Any]) -> BmcResult:
    """Rebuild a :class:`BmcResult` from an encoded outcome."""
    decoded = decode_outcome(outcome)
    return BmcResult(decoded["status"], decoded["trace"], decoded["k"],
                     decoded["method"], decoded["seconds"],
                     decoded["stats"], proved=decoded["proved"],
                     invariant=decoded["invariant"])


# Per-run keys that must never be cached or sent out as JSON: worker
# identity and the run's own telemetry are properties of the run that
# produced the outcome, not of the query.  ``invariant`` is a live Expr
# — JSON cannot hold it — so cached proofs keep only the proved flag.
_RUN_KEYS = ("worker_pid", "trace_events", "metrics", "invariant")


def strip_run_keys(outcome: Dict[str, Any]) -> Dict[str, Any]:
    """Copy of ``outcome`` without its per-run and non-JSON keys."""
    return {k: v for k, v in outcome.items() if k not in _RUN_KEYS}


def merge_telemetry(outcome: Dict[str, Any]) -> None:
    """Fold one worker outcome's trace events and metrics snapshot into
    the parent's current tracer and registry, on the worker's lane."""
    events = outcome.get("trace_events")
    if events:
        tracer = current_tracer()
        tracer.extend(events)
        pid = outcome.get("worker_pid")
        if pid:
            tracer.name_lane(pid, f"worker {outcome.get('worker', pid)}")
    snapshot = outcome.get("metrics")
    if snapshot:
        current_metrics().merge(snapshot)
