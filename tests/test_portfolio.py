"""Portfolio subsystem tests: pool, race, scheduler, cache, IPC.

Pinned behaviours: race losers are cancelled on warm workers that the
next race reuses, a lane whose worker dies mid-race is inconclusive
without costing the race, batch results are identical to serial
``run_matrix`` output, cache hits skip solving, and ``Budget`` limits
hold inside workers.
"""

import importlib
import os
import pickle
import signal
import time

import pytest

from repro.bmc import (Backend, BmcSession, register_backend,
                       unregister_backend)
from repro.harness.runner import run_matrix
from repro.logic import expr as ex
from repro.models import build_suite, counter
from repro.portfolio import (BatchScheduler, ResultCache, Task, WorkerPool,
                             budget_from_dict, budget_to_dict, cell_key,
                             decode_outcome, encode_outcome, execute_cell,
                             fingerprint_expr, fingerprint_system,
                             make_cell_payload, race)
from repro.portfolio.scheduler import hardness_estimate
from repro.sat.types import Budget, SolveResult


# Deterministic budget: no wall-clock term, so serial and parallel runs
# take identical solver paths regardless of machine load.
DET_BUDGET = Budget(max_conflicts=10_000, max_literals=1_000_000)


@pytest.fixture(scope="module")
def small_suite():
    suite = build_suite()
    picked = {}
    for inst in suite:
        if inst.family not in picked and 2 <= inst.k <= 6:
            picked[inst.family] = inst
    return list(picked.values())[:6]


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True


def _worker_pids():
    """PIDs of the warm pool race() runs its lanes on."""
    pool = importlib.import_module("repro.portfolio.race")._pool
    return {w.process.pid for w in pool._workers}


class _SuicideBackend(Backend):
    """A lane whose worker SIGKILLs itself as soon as it starts."""

    def check(self, k, semantics="exact", budget=None):
        os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def suicide_backend():
    register_backend("test-suicide")(_SuicideBackend)
    try:
        yield "test-suicide"
    finally:
        unregister_backend("test-suicide")


# ----------------------------------------------------------------------
class TestIpc:
    def test_expr_pickle_roundtrip_preserves_interning(self):
        f = (ex.var("a") & ~ex.var("b")) | ex.var("c").iff(ex.var("a"))
        g = pickle.loads(pickle.dumps(f))
        assert g is f                      # re-interned into same node
        assert g.evaluate({"a": True, "b": False, "c": True})

    def test_budget_dict_roundtrip(self):
        budget = Budget(max_conflicts=7, max_seconds=1.5)
        back = budget_from_dict(budget_to_dict(budget))
        assert back.max_conflicts == 7
        assert back.max_seconds == 1.5
        assert back.max_literals is None
        assert budget_from_dict(None) is None

    def test_outcome_roundtrip_with_trace(self):
        system, final, depth = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            result = session.check(depth, method="sat-unroll")
        assert result.status is SolveResult.SAT
        outcome = decode_outcome(encode_outcome(result))
        assert outcome["status"] is SolveResult.SAT
        assert outcome["trace"].is_valid(system, final)

    def test_execute_cell_never_raises(self):
        system, final, _ = counter.make(3, 5)
        # A bogus QBF backend makes the check raise; the worker
        # wrapper must fold that into an error outcome, not propagate.
        payload = make_cell_payload(
            system, final, 2, "qbf", semantics="exact",
            options={"qbf_backend": "no-such-backend"})
        outcome = execute_cell(payload)
        assert outcome["status"] == "UNKNOWN"
        assert outcome["error"]


# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_batch_executes_all_tasks(self, small_suite):
        tasks = [Task(i, make_cell_payload(inst.system, inst.final, inst.k,
                                           "jsat", budget=DET_BUDGET))
                 for i, inst in enumerate(small_suite)]
        with WorkerPool(jobs=2) as pool:
            outcomes = pool.run(tasks)
        assert sorted(outcomes) == list(range(len(small_suite)))
        assert all(o["status"] in ("SAT", "UNSAT", "UNKNOWN")
                   for o in outcomes.values())
        assert {o["worker"] for o in outcomes.values()} <= {"w0", "w1"}

    def test_budget_enforced_inside_worker(self, small_suite):
        # A zero-second budget must come back UNKNOWN from the worker —
        # the Budget machinery runs inside the child process.
        inst = small_suite[0]
        payload = make_cell_payload(inst.system, inst.final, inst.k,
                                    "jsat", budget=Budget(max_seconds=0.0))
        with WorkerPool(jobs=1) as pool:
            outcomes = pool.run([Task(0, payload)])
        assert outcomes[0]["status"] == "UNKNOWN"
        assert not outcomes[0].get("timed_out")

    def test_wall_timeout_kills_and_respawns(self):
        # A sleeping executor stands in for a hung solver.
        with WorkerPool(jobs=1, execute=_sleepy_execute) as pool:
            outcomes = pool.run([Task(0, {"sleep": 60.0},
                                      wall_timeout=0.3),
                                 Task(1, {"sleep": 0.0})])
            assert pool.respawns == 1
        assert outcomes[0]["status"] == "UNKNOWN"
        assert outcomes[0]["timed_out"]
        # The respawned worker still ran the second task.
        assert outcomes[1]["status"] == "DONE"

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)


def _sleepy_execute(payload):
    time.sleep(payload["sleep"])
    return {"status": "DONE", "stats": {}, "trace": None, "seconds": 0.0,
            "wall_seconds": 0.0, "cpu_seconds": 0.0, "error": None}


# ----------------------------------------------------------------------
class TestRace:
    def test_race_finds_sat_with_valid_witness(self):
        system, final, depth = counter.make(4, 9)
        # sim_tier off: this test races the solver lanes themselves.
        outcome = race(system, final, depth, sim_tier=False,
                       budget=Budget(max_seconds=10.0))
        from repro.portfolio import DEFAULT_RACE_METHODS
        assert outcome.result.status is SolveResult.SAT
        assert outcome.winner in DEFAULT_RACE_METHODS
        assert outcome.result.trace is not None
        assert outcome.result.trace.is_valid(system, final)
        assert outcome.result.stats["portfolio_winner"] == outcome.winner

    def test_race_cancels_losers_warm(self):
        # Give the loser an enormous budget so it would run for a long
        # time if not cancelled; the winner finishes almost instantly.
        system, final, depth = counter.make(5, 19)
        kwargs = dict(methods=("jsat", "sat-unroll"), sim_tier=False,
                      budget=Budget(max_seconds=60.0))
        first = race(system, final, depth, **kwargs)
        assert first.result.status is SolveResult.SAT
        assert sorted(first.method_outcomes.values()) == \
            ["cancelled", "won"]
        assert first.result.stats["portfolio_cancelled"] == 1
        # Cancelled, not killed: the loser's worker stays warm.
        assert len(first.loser_pids) == 1
        assert all(_pid_alive(pid) for pid in first.loser_pids)
        workers = _worker_pids()
        assert set(first.loser_pids) <= workers
        # Cancellation is prompt (well under the loser's 60 s budget).
        assert first.cancel_latency < 10.0
        # The next race runs on the same warm workers.
        second = race(system, final, depth, **kwargs)
        assert second.result.status is SolveResult.SAT
        assert set(second.loser_pids) <= workers
        assert _worker_pids() == workers

    def test_worker_death_mid_race(self, suicide_backend):
        race_module = importlib.import_module("repro.portfolio.race")
        # Fork the next pool with the suicide backend registered, so
        # the races below all run on that one pool.
        race_module._drop_pool()
        quick = counter.make(3, 5)
        kwargs = dict(sim_tier=False, budget=Budget(max_seconds=60.0))
        race(*quick, methods=("jsat", "sat-unroll"), **kwargs)
        pool = race_module._pool
        before = _worker_pids()
        # jsat needs about half a second here; its rival dies at once.
        system, final, depth = counter.make(7, 90)
        outcome = race(system, final, depth,
                       methods=(suicide_backend, "jsat"), **kwargs)
        assert outcome.method_outcomes == {suicide_backend: "inconclusive",
                                           "jsat": "won"}
        assert outcome.result.status is SolveResult.SAT
        assert outcome.result.trace.is_valid(system, final)
        # The dead worker was replaced in the same pool...
        after = _worker_pids()
        assert race_module._pool is pool
        assert len(after - before) == 1 and len(after) == len(before)
        # ...and the respawned worker serves the next race.
        again = race(*quick, methods=("jsat", "sat-unroll"), **kwargs)
        assert again.result.status is SolveResult.SAT
        assert race_module._pool is pool and _worker_pids() == after

    def test_race_all_inconclusive_returns_unknown(self):
        system, final, depth = counter.make(4, 9)
        # sim_tier off: it would (correctly) answer SAT before the
        # zero-budget solver lanes get to be inconclusive.
        outcome = race(system, final, depth, sim_tier=False,
                       budget=Budget(max_seconds=0.0))
        assert outcome.result.status is SolveResult.UNKNOWN
        assert outcome.winner is None
        assert set(outcome.method_outcomes.values()) <= {
            "inconclusive", "cancelled", "timeout"}

    def test_race_unsat_is_conclusive(self):
        system, final, depth = counter.make(4, 9)
        outcome = race(system, final, depth - 1,
                       budget=Budget(max_seconds=10.0))
        assert outcome.result.status is SolveResult.UNSAT

    def test_race_rejects_unknown_method(self):
        system, final, depth = counter.make(3, 5)
        with pytest.raises(ValueError):
            race(system, final, depth, methods=("no-such-method",))

    def test_engine_portfolio_method(self):
        system, final, depth = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            result = session.check(depth, method="portfolio",
                                   budget=Budget(max_seconds=10.0))
        assert result.status is SolveResult.SAT
        assert result.method == "portfolio"
        assert "portfolio_winner" in result.stats
        assert "portfolio_cancel_latency_ms" in result.stats


# ----------------------------------------------------------------------
class TestBatchScheduler:
    def test_batch_identical_to_serial(self, small_suite):
        methods = ["sat-unroll", "jsat"]
        serial = run_matrix(small_suite, methods, budget=DET_BUDGET)
        parallel = run_matrix(small_suite, methods, budget=DET_BUDGET,
                              jobs=2)
        assert len(serial) == len(parallel)
        for s, p in zip(serial, parallel):
            assert s.instance.name == p.instance.name
            assert s.method == p.method
            assert s.status is p.status
            assert s.correct == p.correct
            assert s.stats == p.stats
        assert all(p.worker in ("w0", "w1") for p in parallel)
        assert all(p.cpu_seconds >= 0.0 for p in parallel)

    def test_hardest_first_ordering(self, small_suite):
        timings = {(small_suite[0].name, "jsat"): 100.0}
        hard = hardness_estimate(small_suite[0], "jsat", timings)
        cold = hardness_estimate(small_suite[0], "jsat", None)
        assert hard == 100.0
        assert cold > 0.0
        # Method weight separates equal bounds.
        assert hardness_estimate(small_suite[0], "qbf", None) > cold

    def test_scheduler_stats(self, small_suite):
        scheduler = BatchScheduler(jobs=2)
        results = scheduler.run(small_suite[:3], ["jsat"],
                                budget=DET_BUDGET)
        assert len(results) == 3
        assert scheduler.stats["executed"] == 3
        assert scheduler.stats["cache_hits"] == 0
        assert scheduler.stats["cpu_seconds"] >= 0.0


# ----------------------------------------------------------------------
class TestResultCache:
    def test_fingerprints_stable_and_distinct(self):
        s1, f1, _ = counter.make(3, 5)
        s2, f2, _ = counter.make(3, 5)
        s3, f3, _ = counter.make(4, 9)
        assert fingerprint_system(s1) == fingerprint_system(s2)
        assert fingerprint_expr(f1) == fingerprint_expr(f2)
        assert fingerprint_system(s1) != fingerprint_system(s3)

    def test_key_sensitive_to_all_fields(self):
        system, final, _ = counter.make(3, 5)
        base = cell_key(system, final, 4, "jsat", "exact", DET_BUDGET, {})
        assert base != cell_key(system, final, 5, "jsat", "exact",
                                DET_BUDGET, {})
        assert base != cell_key(system, final, 4, "sat-unroll", "exact",
                                DET_BUDGET, {})
        assert base != cell_key(system, final, 4, "jsat", "within",
                                DET_BUDGET, {})
        assert base != cell_key(system, final, 4, "jsat", "exact",
                                Budget(max_conflicts=1), {})
        assert base != cell_key(system, final, 4, "jsat", "exact",
                                DET_BUDGET, {"f_pruning": False})

    def test_get_put_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("deadbeef" * 8) is None
        outcome = {"status": "UNSAT", "k": 3, "method": "jsat",
                   "seconds": 0.1, "stats": {"queries": 4}, "trace": None,
                   "error": None, "wall_seconds": 0.1, "cpu_seconds": 0.1}
        key = "ab" * 32
        cache.put(key, outcome)
        assert cache.get(key)["stats"] == {"queries": 4}
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_cache_hits_skip_solving(self, small_suite, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sched1 = BatchScheduler(jobs=2, cache=cache)
        first = sched1.run(small_suite[:4], ["jsat"], budget=DET_BUDGET)
        assert sched1.stats["executed"] == 4
        assert sched1.stats["cache_hits"] == 0

        sched2 = BatchScheduler(jobs=2, cache=cache)
        second = sched2.run(small_suite[:4], ["jsat"], budget=DET_BUDGET)
        assert sched2.stats["executed"] == 0          # nothing re-solved
        assert sched2.stats["cache_hits"] == 4
        assert all(c.worker == "cache" for c in second)
        # A hit costs nothing this run — no inherited timings.
        assert all(c.cpu_seconds == 0.0 and c.seconds == 0.0
                   for c in second)
        for a, b in zip(first, second):
            assert a.status is b.status
            # Identical modulo the hit annotation the cache adds.
            assert b.stats.pop("served_from_cache") is True
            assert a.stats == b.stats

    def test_wall_clock_unknown_not_cached(self, small_suite, tmp_path):
        # UNKNOWN under a wall-clock budget reflects machine load, not
        # the query; it must not be pinned into the cache.
        cache = ResultCache(tmp_path / "cache")
        sched = BatchScheduler(jobs=1, cache=cache)
        results = sched.run(small_suite[:2], ["jsat"],
                            budget=Budget(max_seconds=0.0))
        assert all(c.status is SolveResult.UNKNOWN for c in results)
        assert len(cache) == 0

    def test_semantics_never_cross_served(self, tmp_path):
        # Regression: an exact-k entry must never satisfy the same query
        # under within-k semantics (gray code: exact(depth+1) is UNSAT —
        # the single orbit has moved past the target — but within(depth+1)
        # is SAT).  A cross-served entry would flip the verdict.
        from repro.models import gray
        from repro.models.suite import Instance
        system, final, depth = gray.make(3)
        inst = Instance("gray3-sem", "gray", system, final, depth + 1, None)

        key_exact = cell_key(system, final, inst.k, "jsat", "exact",
                             DET_BUDGET, {})
        key_within = cell_key(system, final, inst.k, "jsat", "within",
                              DET_BUDGET, {})
        assert key_exact != key_within

        cache = ResultCache(tmp_path / "cache")
        sched1 = BatchScheduler(jobs=1, cache=cache)
        exact = sched1.run([inst], ["jsat"], budget=DET_BUDGET,
                           semantics="exact")
        assert exact[0].status is SolveResult.UNSAT
        assert len(cache) == 1

        sched2 = BatchScheduler(jobs=1, cache=cache)
        within = sched2.run([inst], ["jsat"], budget=DET_BUDGET,
                            semantics="within")
        assert sched2.stats["cache_hits"] == 0    # no cross-semantics hit
        assert sched2.stats["executed"] == 1
        assert within[0].status is SolveResult.SAT

        # The exact entry is still served to an exact re-run.
        sched3 = BatchScheduler(jobs=1, cache=cache)
        again = sched3.run([inst], ["jsat"], budget=DET_BUDGET,
                           semantics="exact")
        assert sched3.stats["cache_hits"] == 1
        assert again[0].status is SolveResult.UNSAT

    def test_wall_clock_unknown_still_refused_and_tampering_detected(
            self, small_suite, tmp_path):
        # Both cache-safety properties in one regression: (a) UNKNOWN
        # under a wall-clock budget is never stored, (b) an entry whose
        # recorded fingerprint does not match its key is never served.
        import json

        cache = ResultCache(tmp_path / "cache")
        sched = BatchScheduler(jobs=1, cache=cache)
        results = sched.run(small_suite[:1], ["jsat"],
                            budget=Budget(max_seconds=0.0))
        assert results[0].status is SolveResult.UNKNOWN
        assert len(cache) == 0                    # (a) refused

        key = "cd" * 32
        outcome = {"status": "UNSAT", "k": 1, "method": "jsat",
                   "seconds": 0.0, "stats": {}, "trace": None,
                   "error": None}
        cache.put(key, outcome)
        assert cache.get(key) is not None
        path = cache._path(key)
        entry = json.loads(open(path).read())
        entry["key"] = "ef" * 32                  # tamper the fingerprint
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get(key) is None             # (b) rejected

    def test_run_matrix_accepts_cache_path(self, small_suite, tmp_path):
        results = run_matrix(small_suite[:2], ["jsat"], budget=DET_BUDGET,
                             jobs=2, cache=str(tmp_path / "cache"))
        again = run_matrix(small_suite[:2], ["jsat"], budget=DET_BUDGET,
                           jobs=2, cache=str(tmp_path / "cache"))
        assert [c.status for c in results] == [c.status for c in again]
        assert all(c.worker == "cache" for c in again)
