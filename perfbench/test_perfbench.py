"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import truth  # noqa: E402
from workloads import (WORKLOADS, CheckAnswer, RaceAnswer,  # noqa: E402
                       ServeAnswer, SweepAnswer)


# ----------------------------------------------------------------------
# The tail-percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", list(range(20, 2000, 13)) + [204, 400, 500])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    pct = stats.tail_percentile(n)
    assert stats.samples_beyond(n, pct) >= stats.MIN_BEYOND
    higher = [p for p in stats.TAIL_LADDER if p > pct]
    if higher:
        assert stats.samples_beyond(n, higher[0]) < stats.MIN_BEYOND


def test_tail_percentile_known_values():
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(400) == 97.5
    assert stats.tail_percentile(500) == 98.0
    assert stats.tail_percentile(10000) == 99.9


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_every_workload_minimum_has_a_tail_percentile():
    for cls in WORKLOADS.values():
        assert stats.samples_beyond(
            cls.min_queries, stats.tail_percentile(cls.min_queries)) >= 10


def test_percentile_interpolates():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 50.0) == 3.0
    assert stats.percentile(values, 100.0) == 5.0
    assert stats.percentile(values, 12.5) == pytest.approx(1.5)


def test_seconds_has_no_default():
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "sweep", "--seed", "1"])
    assert run.parse_args(["--workload", "sweep", "--seed", "1",
                           "--seconds", "15"]).seconds == 15.0


def test_probe_normalisation_removes_a_machine_wide_speed_up():
    probes = [4.0, 4.0, 3.0, 4.0, 3.0]        # two runs in a fast stretch
    times = [20.0, 20.0, 15.0, 20.0, 15.0]
    rates = [50.0, 50.0, 200 / 3, 50.0, 200 / 3]
    assert compare.normalised(times, probes, 1) == pytest.approx([20.0] * 5)
    assert compare.normalised(rates, probes, -1) == pytest.approx([50.0] * 5)
    states = [compare.machine_state(p, probes) for p in probes]
    assert states == ["", "", "fast", "", "fast"]
    assert compare.machine_state(4.5, probes) == "slow"


def test_machine_probe_times_a_fixed_loop():
    assert 0.0 < run.machine_probe() < 5.0


def test_spread_matches_statistics_quantiles():
    out = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    assert out["median"] == 4.5
    assert out["iqr_share"] == pytest.approx((out["q3"] - out["q1"]) / 4.5)


# ----------------------------------------------------------------------
# The workload seed
# ----------------------------------------------------------------------
def _inputs(name, seed):
    workload = run.make_workload(name, seed)
    workload.prepare()
    return workload.inputs()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = _inputs(name, 7)
    assert first == _inputs(name, 7)
    assert first != _inputs(name, 8)


def test_serve_run_sends_every_submission_once():
    workload = run.make_workload("serve", 2)
    workload.prepare()
    sent = [q for block in workload.blocks for q in block]
    assert len(sent) == len(set(sent)) == workload.min_queries
    for block in workload.blocks:
        combos = {(f, m, sem) for f, _, m, sem in block}
        assert len(combos) == len(block)


def test_serve_sends_the_blocks_again_to_a_restarted_daemon(tmp_path):
    workload = WORKLOADS["serve"](4, socket_dir=str(tmp_path))
    workload.prepare()
    workload.blocks = workload.blocks[:2]
    workload.start()
    try:
        first = [workload.next_pass()[0] for _ in range(2)]
        again = workload.next_pass()[0]
        assert again[1:] == first[0][1:]
        answer = workload.digest(workload.run(again))
        assert not answer.cached and answer.state == "done"
    finally:
        workload.close()
    assert not os.path.exists(workload.socket_path)


# ----------------------------------------------------------------------
# The verdict checker
# ----------------------------------------------------------------------
def _answered(name, count):
    """A prepared workload and ``count`` (query, digest) pairs."""
    workload = run.make_workload(name, 3)
    workload.prepare()
    return workload, [(q, workload.digest(workload.run(q)))
                      for q in workload.next_pass()[:count]]


FLIP = {"HOLDS": "VIOLATED", "VIOLATED": "HOLDS", "SAT": "UNSAT",
        "UNSAT": "SAT"}


def test_check_verdicts_catch_a_flipped_property():
    workload, answered = _answered("check", 2)
    assert workload.verify_all(answered) == [None, None]
    query, answer = answered[0]
    name, verdict = next(iter(answer.verdicts.items()))
    wrong = CheckAnswer(dict(answer.verdicts, **{name: FLIP[verdict]}),
                        answer.sim_hits)
    found = workload.verify(query, wrong)
    assert found is not None and name in found
    missing = CheckAnswer({}, 0)
    assert workload.verify(query, missing) is not None


def test_check_truth_table_covers_every_instance():
    workload = run.make_workload("check", 1)
    workload.prepare()
    assert sorted(workload.table) == sorted(i.name
                                            for i in workload.instances)


# The explicit-state oracle of the 7-latch mutex design takes close to a
# minute to build; the tests re-derive every other entry.
ORACLE_LATCHES = 6


def test_check_truth_table_matches_the_explicit_oracle():
    table = truth.load()["check"]
    for inst in truth.check_instances():
        if len(inst.system.state_vars) <= ORACLE_LATCHES:
            assert truth.derive_check(inst) == table[inst.name], inst.name


def test_reach_truth_table_matches_the_explicit_oracle():
    table = truth.load()["reach"]
    for family, inst in truth.first_systems().items():
        if len(inst.system.state_vars) <= ORACLE_LATCHES:
            assert truth.derive_reach(inst) == table[family], family


def test_sweep_verdicts_catch_disagreeing_methods_and_bad_witnesses():
    workload = run.make_workload("sweep", 3)
    workload.prepare()
    design = next(i for i in range(len(workload.designs))
                  if workload.run((1, i, "jsat")).shortest_k)
    queries = [(1, design, m)
               for m in ("sat-incremental", "sat-unroll", "jsat")]
    answered = [(q, workload.digest(workload.run(q))) for q in queries]
    assert workload.verify_all(answered) == [None, None, None]
    good = answered[0][1]
    assert good.status == "SAT"

    lying = SweepAnswer("UNSAT", None, None)
    verdicts = workload.verify_all(answered[:2] + [(answered[2][0], lying)])
    assert all(v is not None and "disagree" in v for v in verdicts)

    trace = good.trace
    broken = type(trace)(trace.states[:1] + trace.states[:-1], trace.inputs)
    for wrong in (SweepAnswer("SAT", trace.length, broken),
                  SweepAnswer("SAT", trace.length + 1, trace),
                  SweepAnswer("SAT", trace.length, None)):
        assert workload.verify(answered[0][0], wrong) is not None


def test_sweep_verdicts_catch_a_reached_unreachable_target():
    workload = run.make_workload("sweep", 3)
    workload.prepare()
    design = next(i for i, d in enumerate(workload.designs)
                  if d[3] is not None)
    fake = SweepAnswer("SAT", 3, None)
    assert "unreachable" in workload.verify((1, design, "jsat"), fake)
    unknown = SweepAnswer("UNKNOWN", None, None)
    assert "UNKNOWN" in workload.verify((1, design, "jsat"), unknown)


def test_race_verdicts_catch_a_flipped_status():
    workload, answered = _answered("race", 2)
    assert workload.verify_all(answered) == [None, None]
    query, answer = answered[0]
    assert workload.verify(query, answer._replace(
        status=FLIP[answer.status])) is not None
    assert workload.verify(query, answer._replace(
        status="UNKNOWN")) is not None


def test_serve_verdicts_catch_wrong_cached_and_unknown_answers():
    workload = run.make_workload("serve", 1)
    workload.prepare()
    reach = truth.load()["reach"]
    family = "barrel"
    k = reach[family].index(True)
    query = (1, family, k, "jsat", "exact")

    def answer(status, cached=False, state="done"):
        return ServeAnswer(state, cached, status, 0, None)

    assert workload.verify(query, answer("SAT")) is None
    assert workload.verify(query, answer("UNSAT")) is not None
    assert workload.verify(query, answer("SAT", cached=True)) is not None
    assert workload.verify(query, answer("UNKNOWN")) is not None
    assert workload.verify(query, answer("SAT", state="failed")) is not None


def test_reach_verdict_semantics():
    reach = {"f": [False, False, True, False]}
    assert truth.reach_verdict(reach, "f", 2, "exact")
    assert not truth.reach_verdict(reach, "f", 3, "exact")
    assert truth.reach_verdict(reach, "f", 3, "within")
    assert not truth.reach_verdict(reach, "f", 1, "within")


def test_check_answers_marks_wrong_and_errored_queries_failed():
    workload, answered = _answered("race", 3)
    (q0, a0), (q1, a1), (q2, _) = answered
    wrong = a1._replace(status=FLIP[a1.status])
    records = [run.Record(q0, a0, None, 0.01, 0),
               run.Record(q1, wrong, None, 0.01, 0),
               run.Record(q2, None, "RuntimeError: boom", 0.01, 0)]
    failures = run.check_answers(workload, records)
    assert len(failures) == 2
    assert [r.error is None for r in records] == [True, False, False]


def test_repetition_problems_report_a_differing_count():
    workload = run.make_workload("check", 1)
    answer = CheckAnswer({"p": "VIOLATED"}, 1)
    other = CheckAnswer({"p": "VIOLATED"}, 0)
    same = [run.Record((1, 4), answer, None, 0.01, 120),
            run.Record((2, 4), answer, None, 0.01, 120)]
    assert run.repetition_problems(workload, same) == []
    differing = same + [run.Record((3, 4), other, None, 0.01, 120)]
    assert len(run.repetition_problems(workload, differing)) == 1
    grown = same + [run.Record((3, 4), answer, None, 0.01, 121)]
    assert len(run.repetition_problems(workload, grown)) == 1


# ----------------------------------------------------------------------
# The printed metrics are the ones BENCHMARK.json lists
# ----------------------------------------------------------------------
def _declared(kind):
    import json
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _printed(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_end_to_end_metrics_match_benchmark_json(capsys):
    workload = run.make_workload("sweep", 1)
    workload.min_queries = 20
    records = [run.Record((1, i), None, None, 0.001 * (i + 1), 10 + i)
               for i in range(20)]
    metrics = run.end_to_end(workload, records, [30.0, 31.0], [0.5], 40.0)
    assert _printed(metrics) == _declared("end_to_end")
    assert metrics["peak_db_literals"]["value"] == 29
    assert metrics["queries_per_s"]["value"] == 30.5


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_metrics_match_benchmark_json(capsys, name):
    workload = run.make_workload(name, 1)
    tracer = layers.Tracer()
    records = [run.Record((1, 0), None, None, 0.002, 0)]
    metrics = run.per_layer(workload, tracer, records, 0.002, 0.001, {})
    assert _printed(metrics) == _declared("per_layer")
    assert metrics["trace.overhead_pct"]["value"] == pytest.approx(100.0)


# ----------------------------------------------------------------------
# The engine guard
# ----------------------------------------------------------------------
@pytest.mark.parametrize("var", run.ENGINE_OVERRIDES)
def test_engine_override_is_refused(monkeypatch, var):
    monkeypatch.setenv(var, "reference")
    problem = run.prepare_environment()
    assert problem is not None and var in problem


def test_peak_rss_does_not_add_a_forked_child_to_its_parent():
    import resource
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert run.peak_rss_mb(run.make_workload("race", 1)) >= own
    assert run.peak_rss_mb(run.make_workload("race", 1)) < 2 * own


# ----------------------------------------------------------------------
# The traced table
# ----------------------------------------------------------------------
def test_tracer_over_the_gauge_wraps_solve_once():
    from repro.sat.kernel import KernelSolver, make_solver
    original = KernelSolver.__dict__["solve"]
    gauge = layers.PeakGauge()
    gauge.install()
    gauged = KernelSolver.__dict__["solve"]
    tracer = layers.Tracer()
    tracer.install(gauge)
    try:
        traced = KernelSolver.__dict__["solve"]
        assert traced.__wrapped__ is original
        solver = make_solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1])
        solver.solve()
    finally:
        tracer.uninstall()
        assert KernelSolver.__dict__["solve"] is gauged
        gauge.uninstall()
    assert KernelSolver.__dict__["solve"] is original
    assert gauge.solves == 1 and tracer.counts["sat.solve_calls"] == 1
    assert gauge.take() == solver.stats.peak_db_literals > 0



def test_race_layer_metrics_subtract_the_lane():
    workload = run.make_workload("race", 1)
    answered = [((1, 0), RaceAnswer("SAT", "jsat", 5, 0.010), 0.013),
                ((1, 1), RaceAnswer("SAT", "simulation", 0, None), 0.002),
                ((1, 2), RaceAnswer("UNSAT", "jsat", 5, 0.020), 0.025)]
    out = workload.layer_metrics(answered)
    assert out["portfolio.race_overhead_ms"] == pytest.approx(4.0)
    assert out["portfolio.sim_settled_ratio"] == pytest.approx(1 / 3)
    assert workload.remote_span(answered[1][1]) is None
    assert workload.remote_span(answered[0][1]) == (
        "portfolio", "portfolio.lane", 0.010)


def test_serve_remote_span_skips_cache_hits():
    workload = run.make_workload("serve", 1)
    assert workload.remote_span(
        ServeAnswer("done", True, "SAT", 0, 0.004)) is None
    assert workload.remote_span(
        ServeAnswer("done", False, "SAT", 0, 0.004)) == (
        "serve", "serve.worker", 0.004)


def test_self_times_subtract_children():
    spans = [
        ["query", 0.0, 10.0, -1, 1],
        ["logic", 1.0, 4.0, 0, 1],
        ["sat.solve", 2.0, 3.0, 1, 1],
        ["spec", 5.0, 9.0, 0, 1],
        ["query", 10.0, 11.0, -1, 2],
    ]
    rows = layers.layer_table(spans, wall=12.0)
    table = {name: (seconds, calls) for name, seconds, calls in rows}
    assert table["logic"] == (2.0, 1)
    assert table["sat.solve"] == (1.0, 1)
    assert table["spec"] == (4.0, 1)
    assert table["unattributed"] == (5.0, 2)
    assert rows[-1][0] == "unattributed"
    assert sum(seconds for _, seconds, _ in rows) == pytest.approx(12.0)


def test_traced_table_sums_to_wall_time():
    import time
    from repro.sat.kernel import KernelSolver
    original_solve = KernelSolver.__dict__["solve"]
    workload = run.make_workload("check", 5)
    workload.prepare()
    tracer = layers.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for query in workload.next_pass()[:6]:
            tracer.query += 1
            span = tracer.open(layers.QUERY_SPAN)
            workload.run(query)
            tracer.close(span)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert KernelSolver.__dict__["solve"] is original_solve
    rows = layers.layer_table(tracer.spans, wall)
    assert sum(seconds for _, seconds, _ in rows) == pytest.approx(wall)
    assert all(seconds >= 0.0 for _, seconds, _ in rows)
    names = {name for name, _, _ in rows}
    assert {"logic", "spec", "sat.solve", "unattributed"} <= names
    assert rows[-1] == ("unattributed", rows[-1][1], 6)
    assert {s[layers.QUERY] for s in tracer.spans} == set(range(1, 7))
