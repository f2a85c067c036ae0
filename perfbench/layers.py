"""Outside-in layer timing: spans recorded around calls into each layer.

The benchmark adds no code to the program.  :class:`Tracer` replaces
the public entry points of each layer with thin wrappers that record a
span (name, start, end, parent, query id) and the counts measured at
that boundary, and puts the originals back on :meth:`Tracer.uninstall`.
A layer's *self time* is its spans' durations minus the part their
child spans cover; :func:`layer_table` adds an ``unattributed`` row so
that the rows sum to the wall time of the measured region.

Layers are named after the modules they wrap:

==================  ===================================================
``logic``           ``TseitinEncoder.encode`` / ``assert_expr``,
                    ``TransitionSystem.trans_between``
``sat.load``        ``add_clause`` / ``add_clauses`` of the compiled
                    kernel solver
``sat.solve``       ``KernelSolver.solve``
``bmc``             ``BmcSession.check`` / ``sweep`` and every
                    registered backend's ``check`` / ``sweep``
``spec``            ``PropertyChecker.check_all``
``reduce``          ``Pipeline.reduce`` (under ``reduce_for_target``)
``reduce.lift``     ``ReducedSystem.lift``
``sim``             ``repro.sim.presolve``
``system.extract``  the unrollings' ``extract_trace``
``system.validate`` ``Trace.validate``
``portfolio``       ``repro.portfolio.race``
``serve``           ``ServeClient.run``
==================  ===================================================

Work done in another process cannot be wrapped from here; it appears
as one child span per query whose length is the time that process
reported (``portfolio.lane``: the winning race lane; ``serve.worker``:
the daemon's worker).  A process forked while the wrappers are
installed inherits them, so it stops recording at the fork: there a
wrapper costs one test per call.  Spans opened on a thread other than the main
one, such as the serve daemon's event loop, become children of the
main thread's innermost open span, the call that is waiting on them.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span record fields: [name, start, end, parent index, query id].
NAME, START, END, PARENT, QUERY = range(5)

#: Name of the benchmark's own per-query root span (not a layer).
QUERY_SPAN = "query"


class PeakGauge:
    """The ``sat.peak_db_literals`` gauge: the largest clause database,
    in literals, that any solver reached after a ``solve`` call.

    Installed on every run of the in-process workloads, traced or not;
    it wraps only ``KernelSolver.solve``, reads one counter, and counts
    the solves and how many of them ran on the compiled kernel.  A
    :class:`Tracer` installed on top replaces this wrapper with its own
    ``sat.solve`` wrapper around :attr:`original`, which calls
    :meth:`record`, so a solve is never wrapped twice.
    """

    def __init__(self) -> None:
        self.query_peak = 0
        self.solves = 0
        self.compiled_solves = 0
        self.original: Optional[Callable] = None

    def install(self) -> None:
        from repro.sat.kernel import KernelSolver
        original = KernelSolver.__dict__["solve"]
        gauge = self

        def solve(solver, *args, **kwargs):
            result = original(solver, *args, **kwargs)
            gauge.record(solver)
            return result

        self.original = original
        KernelSolver.solve = solve

    def record(self, solver) -> None:
        """Account for one finished solve of ``solver``."""
        from repro.sat.kernel import _CKernelSolver
        self.solves += 1
        self.compiled_solves += isinstance(solver, _CKernelSolver)
        peak = solver.stats.peak_db_literals
        if peak > self.query_peak:
            self.query_peak = peak

    def uninstall(self) -> None:
        if self.original is not None:
            from repro.sat.kernel import KernelSolver
            KernelSolver.solve = self.original
            self.original = None

    def take(self) -> int:
        """The peak since the previous call, then reset."""
        peak, self.query_peak = self.query_peak, 0
        return peak


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.query = 0
        self._main = threading.main_thread()
        self._local = threading.local()
        self._focus = -1            # innermost open span of the main thread
        self._restore: List[Tuple[Any, str, Any]] = []
        self._depth: Dict[str, List[int]] = {}
        self.recording = True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span; returns its index."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = -1 if threading.current_thread() is self._main \
                else self._focus
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.query])
        stack.append(idx)
        if threading.current_thread() is self._main:
            self._focus = idx
        return idx

    def close(self, idx: int) -> None:
        """End the span ``idx`` (the innermost open one)."""
        span = self.spans[idx]
        span[END] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if threading.current_thread() is self._main:
            self._focus = stack[-1] if stack else -1

    def child(self, parent: int, name: str, seconds: float) -> None:
        """Record work another process reported as a child span that
        ends where ``parent`` ends."""
        end = self.spans[parent][END]
        seconds = max(0.0, min(seconds, end - self.spans[parent][START]))
        self.spans.append([name, end - seconds, end, parent,
                           self.spans[parent][QUERY]])

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        tracer = self
        # One depth counter per layer, shared by all of its wrappers: a
        # layer calling into itself (``add_clauses`` calling
        # ``add_clause`` once per clause) stays one span, and the inner
        # calls cost one list lookup.  Layers never run on two threads
        # at once in these workloads.
        depth = self._depth.setdefault(layer, [0])

        def wrapper(*args, **kwargs):
            if depth[0] or not tracer.recording:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            depth[0] += 1
            idx = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                depth[0] -= 1
            if after is not None:
                after(token, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def wrap_method(self, cls: type, attr: str, layer: str,
                    before: Optional[Callable] = None,
                    after: Optional[Callable] = None,
                    inner: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr`` when ``cls`` itself defines it; with
        ``inner``, wrap that function in its place."""
        if attr not in cls.__dict__:
            return
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(inner or original, layer, before,
                                      after))

    def wrap_function(self, fn: Callable, layer: str,
                      after: Optional[Callable] = None) -> None:
        """Wrap a module-level function in every loaded ``repro``
        module that holds a reference to it."""
        wrapped = self._wrap(fn, layer, after=after)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def install(self, gauge: Optional[PeakGauge] = None) -> None:
        """Wrap every layer boundary listed in the module docstring.

        With an installed ``gauge``, the ``sat.solve`` wrapper takes the
        place of the gauge's and feeds it.
        """
        from repro.bmc.backend import registered_backends
        from repro.bmc.incremental import IncrementalBmc
        from repro.bmc.session import BmcSession
        from repro.bmc.unroll import UnrolledEncoding
        from repro.logic.tseitin import TseitinEncoder
        race_module = importlib.import_module("repro.portfolio.race")
        from repro.reduce import Pipeline, ReducedSystem
        from repro.sat.kernel import KernelSolver, _CKernelSolver
        from repro.serve.client import ServeClient
        from repro.sim import presolve
        from repro.spec.checker import PropertyChecker, SharedUnrolling
        from repro.system.model import TransitionSystem
        from repro.system.trace import Trace

        os.register_at_fork(after_in_child=self._stop_recording)
        counts = self.counts

        def clauses_before(args):
            return len(args[0].cnf.clauses)

        def clauses_after(token, args, _result):
            counts["logic.clauses"] += len(args[0].cnf.clauses) - token

        for attr in ("encode", "assert_expr"):
            self.wrap_method(TseitinEncoder, attr, "logic",
                             clauses_before, clauses_after)
        self.wrap_method(TransitionSystem, "trans_between", "logic")

        def count_load(_token, _args, _result):
            counts["sat.load_calls"] += 1

        for attr in ("add_clause", "add_clauses"):
            self.wrap_method(_CKernelSolver, attr, "sat.load",
                             after=count_load)

        def conflicts_before(args):
            return args[0].stats.conflicts

        def solve_after(token, args, _result):
            counts["sat.solve_calls"] += 1
            counts["sat.conflicts"] += args[0].stats.conflicts - token
            if gauge is not None:
                gauge.record(args[0])

        self.wrap_method(KernelSolver, "solve", "sat.solve",
                         conflicts_before, solve_after,
                         inner=gauge.original if gauge is not None else None)

        for attr in ("check", "sweep"):
            self.wrap_method(BmcSession, attr, "bmc")
        classes = set()
        for cls in registered_backends().values():
            classes.update(c for c in cls.__mro__
                           if c.__module__.startswith("repro."))
        for cls in classes:
            for attr in ("check", "sweep"):
                self.wrap_method(cls, attr, "bmc")

        self.wrap_method(PropertyChecker, "check_all", "spec")

        def latch_ratio(_token, args, reduction):
            counts["reduce.latches_before"] += len(args[1].state_vars)
            counts["reduce.latches_after"] += \
                len(reduction.system.state_vars)

        self.wrap_method(Pipeline, "reduce", "reduce", after=latch_ratio)
        self.wrap_method(ReducedSystem, "lift", "reduce.lift")

        def sim_hits(_token, _args, outcome):
            counts["sim.calls"] += 1
            counts["sim.hits"] += outcome is not None

        self.wrap_function(presolve, "sim", after=sim_hits)

        for cls in (IncrementalBmc, UnrolledEncoding, SharedUnrolling):
            self.wrap_method(cls, "extract_trace", "system.extract")
        self.wrap_method(Trace, "validate", "system.validate")

        self.wrap_function(race_module.race, "portfolio")
        self.wrap_lane_seconds(race_module)
        self.wrap_method(ServeClient, "run", "serve")

    def wrap_lane_seconds(self, race_module) -> None:
        """Make each race lane report its own wall time in its stats.

        The lane runs in a forked child, where spans cannot be
        collected; its stats ride back to the parent with the result.
        """
        original = race_module.execute_cell

        def execute_cell(payload):
            outcome = original(payload)
            outcome.setdefault("stats", {})["lane_wall_seconds"] = \
                outcome.get("wall_seconds", 0.0)
            return outcome

        self._restore.append((race_module, "execute_cell", original))
        race_module.execute_cell = execute_cell

    def _stop_recording(self) -> None:
        self.recording = False

    def uninstall(self) -> None:
        """Put every wrapped original back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def dump(self) -> List[Dict[str, Any]]:
        """The spans as JSON-ready records (times in microseconds)."""
        return [{"name": s[NAME], "start_us": round(s[START] * 1e6, 1),
                 "end_us": round(s[END] * 1e6, 1), "parent": s[PARENT],
                 "query": s[QUERY]} for s in self.spans]


def self_times(spans: List[list]) -> Dict[str, Tuple[float, int]]:
    """Per span name: (total self seconds, span count)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span, child in zip(spans, covered):
        row = out[span[NAME]]
        row[0] += span[END] - span[START] - child
        row[1] += 1
    return {name: (row[0], int(row[1])) for name, row in out.items()}


def layer_table(spans: List[list], wall: float
                ) -> List[Tuple[str, float, int]]:
    """Rows of (layer, self seconds, calls), largest first, closed by an
    ``unattributed`` row: the wall time no layer span covers, including
    the benchmark's own per-query work.  The rows sum to ``wall``."""
    rows = [(name, seconds, calls)
            for name, (seconds, calls) in self_times(spans).items()
            if name != QUERY_SPAN]
    rows.sort(key=lambda row: -row[1])
    attributed = sum(seconds for _, seconds, _ in rows)
    queries = sum(1 for s in spans if s[NAME] == QUERY_SPAN)
    rows.append(("unattributed", wall - attributed, queries))
    return rows


def format_table(rows: List[Tuple[str, float, int]], wall: float) -> str:
    """The layer table as aligned text."""
    lines = [f"{'layer':<18} {'self ms':>10} {'% wall':>7} {'calls':>8}"]
    for name, seconds, calls in rows:
        share = 100.0 * seconds / wall if wall > 0 else 0.0
        lines.append(f"{name:<18} {seconds * 1e3:>10.1f} {share:>6.1f}% "
                     f"{calls:>8d}")
    lines.append(f"{'wall':<18} {wall * 1e3:>10.1f} {100.0:>6.1f}%")
    return "\n".join(lines)
