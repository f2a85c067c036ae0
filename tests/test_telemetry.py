"""Telemetry tests: trace schema, metrics semantics, worker merge.

Covers the PR 6 satellite checklist: Chrome trace-export schema
validation (required ``ph``/``ts``/``pid``/``name`` keys, monotonic
timestamps), cross-worker merge attribution, metrics
``snapshot``/``diff`` semantics, and NullTracer no-op behaviour on
every instrumented path.
"""

import json
import os

import pytest

from repro.bmc import BmcSession, IncrementalBmc
from repro.harness.report import format_metrics
from repro.harness.runner import run_matrix
from repro.models import build_suite, counter
from repro.portfolio import BatchScheduler, ResultCache, race
from repro.sat.kernel import make_solver
from repro.sat.types import Budget
from repro.telemetry import (NULL_TRACER, MetricsRegistry, NullTracer,
                             Tracer, current_metrics, current_tracer,
                             diff, set_metrics, set_tracer,
                             chrome_trace_document, write_chrome_trace,
                             validate_chrome_trace)
from repro.telemetry.trace import validate_chrome_trace_file

# Deterministic budget (no wall-clock term): identical solver paths
# in-process and in workers, regardless of machine load.
DET_BUDGET = Budget(max_conflicts=10_000, max_literals=1_000_000)


@pytest.fixture
def telemetry():
    """Install a fresh recording tracer + registry; restore on exit."""
    tracer, registry = Tracer(), MetricsRegistry()
    prev_tracer = set_tracer(tracer)
    prev_metrics = set_metrics(registry)
    yield tracer, registry
    set_tracer(prev_tracer)
    set_metrics(prev_metrics)


@pytest.fixture(scope="module")
def small_suite():
    # SAT instances only: reachable targets force real solver work in
    # the workers (trivially-refuted UNSAT cells can be decided during
    # encoding, without a single ``sat.solve`` call to trace).
    picked = {}
    for inst in build_suite():
        if inst.expected is True and inst.family not in picked \
                and 2 <= inst.k <= 6:
            picked[inst.family] = inst
    return list(picked.values())[:4]


# ----------------------------------------------------------------------
class TestTracer:
    def test_span_and_instant_events(self):
        tracer = Tracer()
        with tracer.span("outer", k=3) as sp:
            tracer.instant("mark", method="jsat")
            sp.set(status="SAT")
        events = tracer.events()
        assert [(e["name"], e["ph"]) for e in events] == \
            [("mark", "i"), ("outer", "X")]
        span = events[1]
        assert span["args"] == {"k": 3, "status": "SAT"}
        assert span["dur"] >= 0
        for key in ("name", "ph", "ts", "pid", "tid"):
            assert key in span
        assert events[0]["pid"] == os.getpid()

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.instant(f"e{i}")
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [e["name"] for e in tracer.events()] == \
            ["e6", "e7", "e8", "e9"]
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_drain_clears_buffer(self):
        tracer = Tracer()
        tracer.instant("a")
        drained = tracer.drain()
        assert [e["name"] for e in drained] == ["a"]
        assert len(tracer) == 0
        tracer.extend(drained)
        assert [e["name"] for e in tracer.events()] == ["a"]

    def test_document_sorts_by_timestamp_metadata_first(self):
        tracer = Tracer()
        # Nested spans complete inner-first, so raw buffer order is
        # completion order — the outer (earlier-starting) span lands
        # last.  Export must restore start order.
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.name_lane(1234, "worker")        # recorded last
        document = chrome_trace_document(tracer.events())
        names = [e["name"] for e in document["traceEvents"]]
        assert names == ["process_name", "outer", "inner"]
        validate_chrome_trace(document)         # must not raise

    def test_write_and_validate_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("work", k=1):
            tracer.instant("tick")
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), tracer.events())
        assert count == 2
        events = validate_chrome_trace_file(str(path))
        assert {e["name"] for e in events} == {"work", "tick"}
        # The document is plain JSON Perfetto can load.
        assert "traceEvents" in json.loads(path.read_text())

    def test_validate_rejects_missing_required_keys(self):
        base = {"name": "x", "ph": "i", "ts": 1, "pid": 1}
        for key in ("name", "ph", "ts", "pid"):
            bad = dict(base)
            del bad[key]
            with pytest.raises(ValueError, match=key):
                validate_chrome_trace({"traceEvents": [bad]})

    def test_validate_rejects_complete_event_without_dur(self):
        event = {"name": "x", "ph": "X", "ts": 1, "pid": 1}
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_validate_rejects_nonmonotonic_timestamps(self):
        events = [
            {"name": "a", "ph": "i", "ts": 10, "pid": 1},
            {"name": "b", "ph": "i", "ts": 5, "pid": 1},
        ]
        with pytest.raises(ValueError, match="timestamp order"):
            validate_chrome_trace({"traceEvents": events})

    def test_validate_rejects_non_document(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})


# ----------------------------------------------------------------------
class TestNullTracer:
    def test_default_tracer_is_the_shared_null(self):
        assert current_tracer() is NULL_TRACER
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled

    def test_every_operation_is_a_noop(self):
        null = NULL_TRACER
        with null.span("x", k=1) as sp:
            sp.set(status="SAT")
            null.instant("y")
        null.name_lane(1, "lane")
        null.extend([{"name": "z", "ph": "i", "ts": 0, "pid": 0}])
        assert null.events() == []
        assert null.drain() == []
        assert len(null) == 0

    def test_instrumented_paths_record_nothing_by_default(self):
        # Exercise solver, encoder, session, property and reduction
        # instrumentation under the default null tracer / disabled
        # registry: no events, no metrics, no attribute errors.
        assert current_tracer() is NULL_TRACER
        before = current_metrics().snapshot()
        system, final, depth = counter.make(3, 5)
        with BmcSession(system, properties={"target": final},
                        reduce="auto") as session:
            session.check(depth, method="sat-unroll")
            session.sweep(depth, method="sat-incremental")
        assert len(current_tracer()) == 0
        delta = diff(before, current_metrics().snapshot())
        assert not delta["counters"] and not delta["histograms"]


# ----------------------------------------------------------------------
class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.inc("c", 4)
        registry.gauge("g", 7)
        registry.gauge_max("peak", 3)
        registry.gauge_max("peak", 2)           # lower: ignored
        registry.observe("h", 1.0)
        registry.observe("h", 3.0)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"] == {"g": 7, "peak": 3}
        assert snap["histograms"]["h"] == \
            {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0}

    def test_diff_subtracts_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.observe("h", 1.0)
        registry.gauge("g", 1)
        before = registry.snapshot()
        registry.inc("c", 3)
        registry.inc("untouched", 0)
        registry.observe("h", 5.0)
        registry.gauge("g", 9)
        delta = diff(before, registry.snapshot())
        assert delta["counters"] == {"c": 3}    # zero deltas dropped
        assert delta["gauges"]["g"] == 9        # gauges keep "after"
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == 5.0

    def test_merge_adds_counters_maxes_gauges(self):
        worker = MetricsRegistry()
        worker.inc("c", 2)
        worker.gauge("g", 10)
        worker.observe("h", 2.0)
        parent = MetricsRegistry(enabled=False)  # disabled still merges
        parent.inc("c", 99)                      # no-op: disabled
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["c"] == 4
        assert snap["gauges"]["g"] == 10
        assert snap["histograms"]["h"]["count"] == 2

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("c")
        registry.gauge("g", 1)
        registry.observe("h", 1.0)
        assert not registry
        assert registry.snapshot() == \
            {"counters": {}, "gauges": {}, "histograms": {}}

    def test_format_metrics_table(self):
        registry = MetricsRegistry()
        registry.inc("sat.solve_calls", 7)
        registry.observe("sat.solve_seconds", 0.25)
        table = format_metrics(registry.snapshot())
        assert "sat.solve_calls" in table
        assert "counter" in table and "histogram" in table
        assert "count=1" in table


# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_session_sweep_records_spans_and_metrics(self, telemetry):
        tracer, registry = telemetry
        system, final, depth = counter.make(3, 5)
        with BmcSession(system, properties={"target": final},
                        reduce="auto") as session:
            result = session.check(depth, method="sat-unroll")
            session.sweep(depth, method="sat-incremental")
        assert result.status.name == "SAT"
        names = {e["name"] for e in tracer.events()}
        assert {"session.check", "sat.solve", "encode.unroll",
                "encode.frame", "bmc.bound",
                "reduce.pipeline"} <= names
        snap = registry.snapshot()
        assert snap["counters"]["sat.solve_calls"] > 0
        assert snap["counters"]["bmc.bounds_checked"] == depth + 1
        assert snap["histograms"]["sat.solve_seconds"]["count"] > 0
        validate_chrome_trace(chrome_trace_document(tracer.events()))

    def test_solver_span_carries_result_attrs(self, telemetry):
        tracer, _ = telemetry
        system, final, depth = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            session.check(depth, method="sat-unroll")
        solves = [e for e in tracer.events() if e["name"] == "sat.solve"]
        assert solves
        assert all("result" in e["args"] for e in solves)
        assert all("conflicts" in e["args"] for e in solves)

    def test_sat_load_spans_count_every_encoded_clause(self, telemetry):
        tracer, _ = telemetry
        system, final, _ = counter.make(4, 9)
        inc = IncrementalBmc(system, final)
        inc.sweep(8)
        loads = [e for e in tracer.events() if e["name"] == "sat.load"]
        assert loads
        assert sum(e["args"]["clauses"] for e in loads) == \
            len(inc.cnf.clauses)

    @pytest.mark.parametrize("method", ["sat-unroll", "jsat"])
    def test_sat_load_spans_match_loaded_clauses(self, telemetry,
                                                  monkeypatch, method):
        tracer, _ = telemetry
        loaded = []
        solver_cls = type(make_solver())
        add_clauses = solver_cls.add_clauses

        def counting_add_clauses(self, clauses):
            clauses = list(clauses)
            loaded.append(len(clauses))
            return add_clauses(self, clauses)

        monkeypatch.setattr(solver_cls, "add_clauses", counting_add_clauses)
        system, final, depth = counter.make(4, 9)
        with BmcSession(system, properties={"target": final}) as session:
            session.check(depth, method=method)
        loads = [e["args"]["clauses"] for e in tracer.events()
                 if e["name"] == "sat.load"]
        assert loads
        assert loads == loaded


# ----------------------------------------------------------------------
class TestWorkerMerge:
    def test_cross_worker_attribution(self, telemetry, small_suite):
        tracer, registry = telemetry
        results = run_matrix(small_suite, ["sat-unroll"],
                             budget=DET_BUDGET, jobs=2)
        assert len(results) == len(small_suite)
        events = tracer.events()
        worker_pids = {e["pid"] for e in events
                       if e["name"] == "worker.cell"}
        # Worker events carry the worker's pid, distinct from ours.
        assert worker_pids
        assert os.getpid() not in worker_pids
        # Each worker lane got a metadata label, and worker-side solver
        # spans rode back attributed to their worker's pid.
        lanes = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M"}
        assert worker_pids <= set(lanes)
        solve_pids = {e["pid"] for e in events
                      if e["name"] == "sat.solve"}
        assert solve_pids <= worker_pids
        # Metrics aggregated across workers into the parent registry.
        snap = registry.snapshot()
        assert snap["counters"]["sat.solve_calls"] > 0
        # The merged timeline still exports as a valid Chrome trace.
        validate_chrome_trace(chrome_trace_document(events))

    def test_race_merges_every_lane(self, telemetry):
        # The cancelled loser reports its telemetry too, so both lanes'
        # cells land in the parent timeline, each on its worker's lane.
        tracer, _ = telemetry
        system, final, depth = counter.make(5, 19)
        outcome = race(system, final, depth, methods=("jsat", "sat-unroll"),
                       sim_tier=False, budget=Budget(max_seconds=60.0))
        assert sorted(outcome.method_outcomes.values()) == \
            ["cancelled", "won"]
        events = tracer.events()
        cells = {e["args"]["method"]: e["pid"] for e in events
                 if e["name"] == "worker.cell"}
        assert set(cells) == {"jsat", "sat-unroll"}
        lanes = {e["pid"] for e in events if e["ph"] == "M"}
        assert set(cells.values()) <= lanes
        validate_chrome_trace(chrome_trace_document(events))

    def test_batch_cache_hits_annotated(self, telemetry, small_suite,
                                        tmp_path):
        tracer, _ = telemetry
        cache = ResultCache(tmp_path / "cache")
        sched1 = BatchScheduler(jobs=2, cache=cache)
        sched1.run(small_suite, ["sat-unroll"], budget=DET_BUDGET)
        assert sched1.stats["cache_hits"] == 0
        assert sched1.stats["cache_misses"] == len(small_suite)
        sched2 = BatchScheduler(jobs=2, cache=cache)
        results = sched2.run(small_suite, ["sat-unroll"],
                             budget=DET_BUDGET)
        assert sched2.stats["cache_hits"] == len(small_suite)
        assert sched2.stats["cache_misses"] == 0
        assert all(c.worker == "cache" for c in results)
        assert all(c.stats.get("served_from_cache") for c in results)
        hits = [e for e in tracer.events() if e["name"] == "cache.hit"]
        assert len(hits) == len(small_suite)

    def test_race_served_from_cache(self, tmp_path):
        system, final, depth = counter.make(3, 5)
        cache = ResultCache(tmp_path / "cache")
        # sim_tier off: this test watches the solver-lane cache
        # round-trip; the simulation pre-solve tier would answer first.
        first = race(system, final, depth, methods=("sat-unroll",),
                     budget=DET_BUDGET, cache=cache, sim_tier=False)
        assert first.winner == "sat-unroll"
        assert "cache_served" not in first.result.stats
        second = race(system, final, depth, methods=("sat-unroll",),
                      budget=DET_BUDGET, cache=cache, sim_tier=False)
        assert second.result.stats.get("cache_served") is True
        assert second.result.status.name == "SAT"
        assert second.method_outcomes == {"sat-unroll": "cache"}
        assert second.loser_pids == []


# ----------------------------------------------------------------------
class TestCliSurface:
    def test_trace_flag_writes_valid_file(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "trace.json"
        assert main(["--trace", str(path),
                     "bmc", "counter", "-k", "4"]) == 0
        events = validate_chrome_trace_file(str(path))
        names = {e["name"] for e in events}
        assert "sat.solve" in names and "session.check" in names
        captured = capsys.readouterr()
        assert "trace:" in captured.err
        # Tracer restored: the CLI run leaves no global tracer behind.
        assert current_tracer() is NULL_TRACER

    def test_metrics_flag_prints_table(self, capsys):
        from repro.cli import main
        assert main(["--metrics", "sweep", "counter", "--max-k", "4"]) \
            == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "sat.solve_calls" in out
        assert "sat.solve_seconds" in out

    def test_batch_reports_hits_and_misses(self, tmp_path, capsys):
        from repro.cli import main
        cache_dir = str(tmp_path / "cache")
        argv = ["batch", "--limit", "2", "--methods", "jsat",
                "--cache", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 hits, 2 misses (0% hit rate)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 hits, 0 misses (100% hit rate)" in second


# ----------------------------------------------------------------------
@pytest.mark.skipif("REPRO_TRACE_FILE" not in os.environ,
                    reason="no CI trace artifact to validate")
def test_ci_trace_artifact_is_valid():
    """Schema-check the trace CI produced with a traced portfolio run.

    Set ``REPRO_TRACE_FILE`` to a trace written by
    ``repro --trace FILE.json batch --jobs N ...``; asserts the file
    validates and shows more than one process lane (parent + workers).
    """
    events = validate_chrome_trace_file(os.environ["REPRO_TRACE_FILE"])
    assert events, "trace artifact is empty"
    pids = {e["pid"] for e in events}
    assert len(pids) >= 2, "expected parent + worker lanes"
