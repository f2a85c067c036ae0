"""The repo benchmark: one closed-loop workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads: ``sweep``, ``check``, ``race``, ``serve`` (see
``workloads.py``).  The program is imported from ``src/`` of the same
checkout; its compiled SAT core is built into the build directory
(``$CARGO_TARGET_DIR``, default ``.bench_build``) before timing starts.

With ``--trace 0`` a run reports the end-to-end metrics: throughput,
median and tail latency, set-up time, peak clause-DB literals and peak
resident memory.  With ``--trace 1`` it measures the same loop twice,
first untraced and then with the layer wrappers of ``layers.py``
installed, prints the per-layer table and reports the per-layer
metrics, including the tracing overhead.  Either way the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every answer is checked after the timed region; a wrong, errored or
UNKNOWN answer counts as a failed query.  An untraced run also prints,
before its result, how fast the machine itself ran during the timed
loop (``machine: probe_ms=...``), which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment variables that swap the SAT engine or its compiled core.
ENGINE_OVERRIDES = ("REPRO_SAT_KERNEL", "REPRO_SAT_CC")

#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 9

#: Iterations of the machine probe's fixed loop (a few ms), and the
#: seconds between probes in an untraced timed loop.
PROBE_ITERATIONS = 50_000
PROBE_EVERY = 0.5


class Record:
    """One query sent in a timed region."""

    __slots__ = ("query", "answer", "error", "seconds", "peak")

    def __init__(self, query, answer, error, seconds, peak) -> None:
        self.query = query
        self.answer = answer
        self.error = error
        self.seconds = seconds
        self.peak = peak


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time the loop runs (BENCHMARK.json: "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON, exit")
    return parser.parse_args(argv)


def build_dir() -> str:
    return os.path.join(os.environ.get("CARGO_TARGET_DIR")
                        or ".bench_build", "perfbench")


def prepare_environment() -> Optional[str]:
    """Point the program at this checkout; None, or why it cannot run."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return f"no program to measure: {SRC}/repro is missing"
    for var in ENGINE_OVERRIDES:
        if os.environ.get(var):
            return (f"{var}={os.environ[var]!r} overrides the default SAT "
                    f"engine; unset it to benchmark the default")
    out = os.path.abspath(build_dir())
    os.makedirs(out, exist_ok=True)
    # The compiled core is cached under XDG_CACHE_HOME, and the C
    # compiler writes its scratch files under TMPDIR: keep both in the
    # checkout.
    os.environ["XDG_CACHE_HOME"] = os.path.join(out, "cache")
    os.environ["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return None


def engine_core() -> str:
    """Build (or load) the compiled SAT core and confirm that default
    solvers run on it; raises when they would fall back."""
    from repro.sat.ckernel import compiled_available
    from repro.sat.kernel import _CKernelSolver, make_solver
    if not compiled_available():
        raise RuntimeError("the compiled SAT core could not be built or "
                           "loaded; the interpreted fallback is ~14x "
                           "slower and would skew every number")
    solver = make_solver()
    if not isinstance(solver, _CKernelSolver):
        raise RuntimeError(f"default solver is {type(solver).__name__}, "
                           f"not the compiled kernel")
    return "compiled"


def make_workload(name: str, seed: int):
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    if name == "serve":
        return cls(seed, socket_dir=build_dir())
    return cls(seed)


def machine_probe() -> float:
    """Seconds a fixed pure-Python loop takes now.  It does not touch the
    program, so it tells how fast the machine itself runs at the moment:
    on a shared VM that changes by a third for stretches of seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def timed_loop(workload, seconds: float, gauge=None, tracer=None
               ) -> Tuple[List[Record], float, List[float], List[float]]:
    """Send whole passes until ``seconds`` have passed and at least
    ``workload.min_queries`` were sent; returns the records, the wall
    seconds, each pass's throughput (queries per second) and, when
    untraced, the machine probes taken every ``PROBE_EVERY`` seconds
    between queries (their time is left out of the pass's)."""
    from layers import QUERY_SPAN
    records: List[Record] = []
    rates: List[float] = []
    probes: List[float] = []
    if gauge is not None:
        gauge.take()
    gc.collect()
    start = next_probe = time.perf_counter()
    while True:
        batch = workload.next_pass()
        pass_start = time.perf_counter()
        probed = 0.0
        for query in batch:
            if tracer is None and time.perf_counter() >= next_probe:
                probes.append(machine_probe())
                probed += probes[-1]
                next_probe = time.perf_counter() + PROBE_EVERY
            if tracer is not None:
                tracer.query += 1
                span = tracer.open(QUERY_SPAN)
            t0 = time.perf_counter()
            try:
                answer = workload.digest(workload.run(query))
                error = None
            except Exception as exc:   # a failed query, not a failed run
                answer, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                annotate(tracer, span, workload, answer)
            if gauge is not None:
                peak = gauge.take()
            elif answer is not None:
                peak = workload.peak(answer)
            else:
                peak = 0
            records.append(Record(query, answer, error, elapsed, peak))
        now = time.perf_counter()
        rates.append(len(batch) / (now - pass_start - probed))
        if now - start >= seconds and len(records) >= workload.min_queries:
            break
    return records, time.perf_counter() - start, rates, probes


def annotate(tracer, query_span: int, workload, answer) -> None:
    """Add the work another process did on a query as a child span of
    the layer span that waited for it."""
    from layers import NAME, PARENT
    remote = workload.remote_span(answer) if answer is not None else None
    if remote is None:
        return
    layer, name, seconds = remote
    parent = next((i for i in range(len(tracer.spans) - 1, query_span, -1)
                   if tracer.spans[i][NAME] == layer
                   and tracer.spans[i][PARENT] == query_span), None)
    if parent is not None:
        tracer.child(parent, name, seconds)


def check_answers(workload, records: List[Record]) -> List[str]:
    """Mark failed records; returns readable failure lines."""
    failures: List[str] = []
    answered = [r for r in records if r.error is None]
    verdicts = workload.verify_all([(r.query, r.answer) for r in answered])
    for record, verdict in zip(answered, verdicts):
        if verdict is not None:
            record.error = verdict
    for record in records:
        if record.error is not None:
            failures.append(record.error)
    return failures


def repetition_problems(workload, records: List[Record]) -> List[str]:
    """Counts that must repeat exactly across passes and did not."""
    if not workload.repeats:
        return []
    problems = []
    seen: Dict[Any, tuple] = {}
    for record in records:
        if record.error is not None:
            continue
        counts = (record.peak, workload.sim_hits(record.answer))
        first = seen.setdefault(workload.key(record.query), counts)
        if first != counts:
            problems.append(
                f"query {workload.key(record.query)}: (peak_db_literals, "
                f"sim hits) {first} then {counts}; a differing sim hit "
                f"count means the presolve wall allowance bound the work")
    return problems


def peak_rss_mb(workload) -> float:
    """The larger of this process's peak resident set and, when the
    program runs in child processes, its largest child's, in MiB.  A
    forked child's peak already counts the pages it shares with this
    process, so the two are not added.  An in-process workload's only
    children are the C compiler that builds the compiled core on a
    checkout's first run."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = 0
    if not workload.in_process:
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def setup_samples(args) -> List[float]:
    """Time set-up in fresh processes: from before ``import repro``
    until the workload could send its first query."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])
                   ["setup_s"])
    return out


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(workload, records: List[Record], rates: List[float],
               setups: List[float], rss: float) -> Dict[str, Any]:
    """Throughput is the median pass's, so that a stall in one pass
    moves it no more than the median latency."""
    from stats import percentile, tail_percentile
    latencies = [r.seconds * 1e3 for r in records]
    tail = tail_percentile(workload.min_queries)
    print(f"query_tail_ms is p{tail:g} of {len(latencies)} queries "
          f"(at least {workload.min_queries} in every run)")
    return {
        "queries_per_s": metric(statistics.median(rates), "1/s"),
        "query_p50_ms": metric(percentile(latencies, 50.0), "ms"),
        "query_tail_ms": metric(percentile(latencies, tail), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_db_literals": metric(max(r.peak for r in records),
                                   "literals"),
        "peak_rss_mb": metric(rss, "MiB"),
    }


def per_layer(workload, tracer, records: List[Record], wall: float,
              untraced_mean: float, extra: Dict[str, float]
              ) -> Dict[str, Any]:
    from layers import format_table, layer_table
    rows = layer_table(tracer.spans, wall)
    print(f"per-layer self time, {workload.name}, traced region:")
    print(format_table(rows, wall))
    self_ms = {name: seconds * 1e3 for name, seconds, _ in rows}
    n = max(1, len(records))
    counts = tracer.counts

    def per_query(layer: str) -> float:
        return self_ms.get(layer, 0.0) / n

    clauses = counts["logic.clauses"]
    reduce_before = counts["reduce.latches_before"]
    sim_calls = counts["sim.calls"]
    traced_mean = statistics.fmean(r.seconds for r in records)
    overhead = (traced_mean / untraced_mean - 1.0) * 100.0
    values = {
        "logic.encode_ms": (per_query("logic"), "ms/query"),
        "logic.clauses": (clauses / n, "count/query"),
        "logic.encode_us_per_clause":
            (self_ms.get("logic", 0.0) * 1e3 / clauses if clauses else 0.0,
             "us"),
        "sat.load_ms": (per_query("sat.load"), "ms/query"),
        "sat.load_calls": (counts["sat.load_calls"] / n, "count/query"),
        "sat.solve_ms": (per_query("sat.solve"), "ms/query"),
        "sat.solve_calls": (counts["sat.solve_calls"] / n, "count/query"),
        "sat.conflicts": (counts["sat.conflicts"] / n, "count/query"),
        "sat.peak_db_literals": (max((r.peak for r in records), default=0),
                                 "literals"),
        "bmc.self_ms": (per_query("bmc"), "ms/query"),
        "spec.self_ms": (per_query("spec"), "ms/query"),
        "reduce.ms": (per_query("reduce"), "ms/query"),
        "reduce.lift_ms": (per_query("reduce.lift"), "ms/query"),
        "reduce.latch_ratio":
            (counts["reduce.latches_after"] / reduce_before
             if reduce_before else 0.0, "ratio"),
        "sim.presolve_ms": (per_query("sim"), "ms/query"),
        "sim.hit_ratio": (counts["sim.hits"] / sim_calls
                          if sim_calls else 0.0, "ratio"),
        "system.extract_ms": (per_query("system.extract"), "ms/query"),
        "system.validate_ms": (per_query("system.validate"), "ms/query"),
        "unattributed_ms": (per_query("unattributed"), "ms/query"),
        "trace.overhead_pct": (overhead, "%"),
    }
    values.update({name: (value, LAYER_UNITS[name])
                   for name, value in extra.items()})
    for name in LAYER_UNITS:
        values.setdefault(name, (0.0, LAYER_UNITS[name]))
    print(f"tracing overhead: {overhead:+.1f}% per query "
          f"({untraced_mean * 1e3:.3f} ms untraced, "
          f"{traced_mean * 1e3:.3f} ms traced, mean latency)")
    return {name: metric(value, unit)
            for name, (value, unit) in values.items()}


#: Units of the per-layer metrics only some workloads produce.
LAYER_UNITS = {
    "workloads.ingest_ms": "ms",
    "portfolio.race_overhead_ms": "ms",
    "portfolio.sim_settled_ratio": "ratio",
    "serve.overhead_ms": "ms",
    "serve.cache_hit_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
}


def write_spans(tracer, workload: str, seed: int) -> str:
    path = os.path.join(build_dir(), f"spans-{workload}-{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "spans": tracer.dump()}, fh)
    return path


def main(argv: Optional[List[str]] = None) -> int:
    os.chdir(ROOT)
    args = parse_args(argv)
    problem = prepare_environment()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    workload = make_workload(args.workload, args.seed)
    if args.setup_only:
        try:
            workload.setup()
            seconds = time.perf_counter() - start
        finally:
            workload.close()
        print(json.dumps({"setup_s": seconds}))
        return 0

    from layers import PeakGauge, Tracer
    try:
        core = engine_core()
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    try:
        workload.setup()
        gauge = None
        if workload.in_process:
            gauge = PeakGauge()
            gauge.install()
        start = time.perf_counter()
        workload.warm()
        warm_seconds = time.perf_counter() - start
        print(f"perfbench {args.workload} seed={args.seed} core={core} "
              f"warm-up {warm_seconds:.2f}s")
        records, wall, rates, probes = timed_loop(workload, args.seconds,
                                                  gauge=gauge)
        print(f"timed loop: {len(records)} queries in {wall:.2f} s "
              f"({len(records) / wall:.2f}/s over the whole loop)")
        # compare.py reads this line to tell the machine's state apart
        # from the program's.
        print(f"machine: probe_ms={statistics.median(probes) * 1e3:.4f} "
              f"probes={len(probes)}")
        if args.trace:
            untraced_mean = statistics.fmean(r.seconds for r in records)
            workload.rewind()
            tracer = Tracer()
            tracer.install(gauge)
            try:
                traced, wall, _, _ = timed_loop(workload, args.seconds,
                                                gauge=gauge, tracer=tracer)
            finally:
                tracer.uninstall()
            answered = [(r.query, r.answer, r.seconds) for r in traced
                        if r.error is None]
            extra = workload.layer_metrics(answered) if answered else {}
            records += traced
        if gauge is not None:
            gauge.uninstall()
            print(f"core=compiled: {gauge.compiled_solves} of "
                  f"{gauge.solves} in-process solves ran on the compiled "
                  f"kernel")
    finally:
        workload.close()
    rss = peak_rss_mb(workload)

    failures = check_answers(workload, records)
    problems = repetition_problems(workload, records)
    hits = sum(workload.sim_hits(r.answer) for r in records
               if r.error is None)
    print(f"queries: {len(records)} attempted, {len(failures)} failed; "
          f"{workload.passes} passes; sim presolve hits {hits}")
    for line in (failures + problems)[:20]:
        print(f"  {line}")

    if args.trace:
        metrics = per_layer(workload, tracer, traced, wall, untraced_mean,
                            extra)
        path = write_spans(tracer, args.workload, args.seed)
        print(f"spans written to {path}")
    else:
        metrics = end_to_end(workload, records, rates,
                             setup_samples(args), rss)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": len(records), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
