"""One budget: ``Budget.start()`` opens the pool every solver draws from.

Pins the sharing contract of :class:`repro.sat.types.Budget` and the
behaviour it guarantees end to end:

* propagations are counted per solver call, like conflicts and
  decisions, so a bound sweep or a jSAT search given 1.5x the work it
  needs reaches its unbudgeted verdict, and the started pool shows
  exactly what the solver calls spent;
* starting never mutates the caller's budget, so prover cells that
  share one ``Budget`` object give the same verdict;
* the property checker's batch and sweep, the ``sat-unroll`` backend
  and QBF expansion see the started budget while encoding frames or
  expanding universals, not only inside the solver.

``make_solver()`` picks the kernel build, so running this module with
and without ``REPRO_SAT_CC=off`` covers both builds.
"""

import time

import pytest

from repro.bmc import BmcSession, IncrementalBmc, create_backend
from repro.bmc.jsat import JsatSolver
from repro.bmc.qbf_encoding import encode_qbf
from repro.harness.runner import run_cell
from repro.models import build_suite, counter, mixer
from repro.qbf.expansion import ExpansionSolver
from repro.sat.types import Budget, SolveResult
from repro.spec import PropertyChecker, Reachable, Verdict
from repro.telemetry.metrics import MetricsRegistry, set_metrics

COUNTERS = ("conflicts", "decisions", "propagations")


def _with_headroom(need):
    """A started budget granting 1.5x each counter of ``need``."""
    return Budget(**{f"max_{key}": need[key] * 3 // 2 + 1
                     for key in COUNTERS}).start()


def _spent(budget):
    return {key: getattr(budget, f"max_{key}")
            - getattr(budget, f"{key}_left") for key in COUNTERS}


class TestBudgetPool:
    def test_unlimited_never_exhausts(self):
        budget = Budget().start()
        budget.spend(conflicts=10 ** 9)
        assert not budget.exhausted()
        assert budget.as_dict() == dict.fromkeys(Budget.FIELDS)

    def test_conflict_pool_drains(self):
        budget = Budget(max_conflicts=100).start()
        assert budget.as_dict()["max_conflicts"] == 100
        budget.spend(conflicts=60)
        assert budget.as_dict()["max_conflicts"] == 40
        budget.spend(conflicts=60)
        assert budget.exhausted()

    def test_start_copies_an_unstarted_budget_once(self):
        budget = Budget(max_seconds=5.0, max_conflicts=10)
        started = budget.start()
        assert started is not budget and started.start() is started
        assert not budget.started and budget.deadline is None
        started.spend(conflicts=4)
        assert budget.as_dict()["max_conflicts"] == 10
        assert started.as_dict()["max_conflicts"] == 6
        assert 0 < started.as_dict()["max_seconds"] <= 5.0

    def test_unstarted_budget_is_private_to_each_solver_call(self):
        system, final, _ = counter.make(4)
        budget = Budget(max_conflicts=1)
        inc = IncrementalBmc(system, final)
        inc.check_bound(15, budget=budget)
        assert budget.as_dict() == Budget(max_conflicts=1).as_dict()


class TestPropagationsCountedPerCall:
    @staticmethod
    def _query():
        system, final, _ = counter.make(6, 40)
        return system, final

    def test_sweep_with_headroom_reaches_unbudgeted_verdict(self):
        system, final = self._query()
        free = IncrementalBmc(system, final).sweep(40)
        need = {key: sum(b.stats[f"solver_{key}"] for b in free.per_bound)
                for key in COUNTERS}
        budget = _with_headroom(need)
        swept = IncrementalBmc(system, final).sweep(40, budget=budget)
        assert free.status is SolveResult.SAT
        assert swept.status is SolveResult.SAT
        assert swept.shortest_k == free.shortest_k == 40
        assert _spent(budget) == {
            key: sum(b.stats[f"solver_{key}"] for b in swept.per_bound)
            for key in COUNTERS}

    def test_jsat_with_headroom_reaches_unbudgeted_verdict(self):
        system, final = self._query()
        free = JsatSolver(system, final, 40, semantics="within")
        assert free.solve() is SolveResult.SAT
        need = {key: getattr(free.solver.stats, key) for key in COUNTERS}
        budget = _with_headroom(need)
        solver = JsatSolver(system, final, 40, semantics="within")
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            assert solver.solve(budget=budget) is SolveResult.SAT
        finally:
            set_metrics(previous)
        # The sat.* counters sum the work of every solver call.
        counted = registry.snapshot()["counters"]
        assert _spent(budget) == {key: counted.get(f"sat.{key}", 0)
                                  for key in COUNTERS}


class TestStartNeverMutatesCaller:
    @pytest.mark.parametrize("method",
                             ["k-induction", "diameter", "interpolation"])
    def test_prover_check_leaves_budget_unstarted(self, method):
        system, final, _ = counter.make(3, 5)
        backend = create_backend(method, system, final)
        budget = Budget(max_seconds=30.0)
        try:
            backend.check(8, semantics="within", budget=budget)
        finally:
            backend.close()
        assert not budget.started and budget.deadline is None

    @pytest.mark.parametrize("method", ["k-induction", "diameter"])
    def test_cells_sharing_one_budget_agree(self, method):
        instance = next(i for i in build_suite()
                        if i.name == "counter3-t5-k3")
        budget = Budget(max_seconds=1.0)
        first = run_cell(instance, method, budget, semantics="within")
        time.sleep(1.05)        # past the first cell's deadline
        second = run_cell(instance, method, budget, semantics="within")
        assert first.status is SolveResult.UNSAT
        assert second.status is first.status


class TestEncodingSeesStartedBudget:
    """Mirrors ``test_unrolling.TestStopsDuringEncoding`` for the
    checker's batch and sweep entry points, ``sat-unroll`` and QBF
    expansion."""

    @staticmethod
    def _checker():
        system, final, _ = mixer.make(16, 6)
        return PropertyChecker(system, {"hit": Reachable(final)},
                               sim_tier=False)

    @staticmethod
    def _frames_of(checker):
        return checker._cone_for("hit").unrolling_for(60).k

    @pytest.mark.parametrize("entry", ["check_all", "sweep"])
    def test_expired_started_budget_encodes_no_frame(self, entry):
        checker = self._checker()
        result = getattr(checker, entry)(
            40, budget=Budget(max_seconds=0).start())["hit"]
        assert result.status is SolveResult.UNKNOWN
        assert result.verdict is Verdict.UNKNOWN
        assert self._frames_of(checker) == 0

    def test_deadline_stops_check_all_while_encoding(self):
        # Encoding all 60 frames takes well over 0.02 s; the batch's
        # deadline must stop the unrolling, not only the solver.
        checker = self._checker()
        result = checker.check_all(
            60, budget=Budget(max_seconds=0.02))["hit"]
        assert result.status is SolveResult.UNKNOWN
        assert self._frames_of(checker) < 60

    def test_deadline_stops_sat_unroll_while_encoding(self):
        # The hit is reachable within 60 steps; only a deadline that
        # covers encoding as well as solving turns the answer UNKNOWN.
        system, final, _ = mixer.make(16, 6)
        with BmcSession(system, properties={"target": final}) as session:
            result = session.check(60, method="sat-unroll",
                                   budget=Budget(max_seconds=0.02))
        assert result.status is SolveResult.UNKNOWN

    def test_expired_started_budget_stops_qbf_expansion(self):
        # Unbudgeted, this formula expands universals until the
        # solver's own literal cap, for seconds.
        system, final, _ = counter.make(5)
        solver = ExpansionSolver(encode_qbf(system, final, 4).pcnf)
        status = solver.solve(budget=Budget(max_seconds=0).start())
        assert status is SolveResult.UNKNOWN
        assert solver.expanded_vars <= 1
