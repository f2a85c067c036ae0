"""Incremental bound-sweep engine tests.

Covers the IncrementalBmc driver mechanics (clause reuse, assumption-
group retirement, budget exhaustion), the engine-level ``sweep`` API
contract for every method, the native jSAT sweep (persistent no-good
cache), and the uniform within-mode trace shortening.
"""

import pytest

from repro.bmc import METHODS, BmcSession, IncrementalBmc
from repro.bmc.jsat import JsatSolver
from repro.models import counter, gray, mutex, shift_register
from repro.sat.types import Budget, SolveResult


def _check(system, final, k, method, **options):
    with BmcSession(system, properties={"target": final}) as session:
        return session.check(k, method=method, **options)


def _sweep(system, final, max_k, method, **options):
    with BmcSession(system, properties={"target": final}) as session:
        return session.sweep(max_k, method=method, **options)


class TestIncrementalBmc:
    def test_sweep_finds_shortest_counterexample(self):
        system, final, depth = counter.make(4, 9)
        result = IncrementalBmc(system, final).sweep(depth + 3)
        assert result.status is SolveResult.SAT
        assert result.shortest_k == depth
        assert result.trace is not None
        result.trace.validate(system, final)
        assert result.trace.length == depth
        assert result.time_to_hit is not None
        assert result.time_to_hit <= result.seconds

    def test_lower_bound_after_extension_not_spurious_unsat(self):
        """Regression: frames beyond k are asserted unconditionally, so
        querying a bound below the frames already encoded used to
        exclude witnesses ending in a deadlock state (non-total TR) —
        check_bound(3) then check_bound(1) answered UNSAT where a fresh
        driver answers SAT."""
        from repro.logic import expr as ex
        from repro.system.model import TransitionSystem
        a = ex.var("a")
        deadlock = TransitionSystem(
            state_vars=["a"], init=~a, trans=~a & ex.var("a'"),
            name="deadlock")
        final = a
        inc = IncrementalBmc(deadlock, final)
        assert inc.check_bound(3)[0] is SolveResult.UNSAT
        status, trace, _ = inc.check_bound(1)
        assert status is SolveResult.SAT
        trace.validate(deadlock, final)
        # Ascending re-query through the same driver still works.
        assert inc.check_bound(4)[0] is SolveResult.UNSAT

    def test_low_driver_retention_is_bounded(self):
        """A long-lived driver keeps at most one auxiliary low driver
        (no unbounded chains): monotone low-bound patterns reuse it
        ascending, a query below its frames replaces it."""
        system, final, depth = counter.make(4, 9)
        inc = IncrementalBmc(system, final)
        inc.check_bound(depth)
        inc.check_bound(depth - 2)
        low = inc._low
        assert low is not None and low._low is None
        # Ascending within the low range grows the same driver.
        status, _, stats = inc.check_bound(depth - 1)
        assert inc._low is low and low._low is None
        assert status is SolveResult.UNSAT
        assert stats["clauses_reused"] > 0
        # Below the low driver's frames: replaced, never chained.
        inc.check_bound(depth - 3)
        assert inc._low is not low
        assert inc._low._low is None

    def test_retire_bound_reaches_low_driver(self):
        """Regression: after check_bound(3), check_bound(5),
        check_bound(3), BOTH drivers hold a group for bound 3;
        retire_bound(3) must retire it on both, or the low driver's
        constraint clauses stay unreclaimable forever."""
        system, final, _ = counter.make(4, 9)
        inc = IncrementalBmc(system, final)
        inc.check_bound(3)
        inc.check_bound(5)
        inc.check_bound(3)
        assert 3 in inc._groups and 3 in inc._low._groups
        inc.retire_bound(3)
        assert 3 not in inc._groups
        assert 3 not in inc._low._groups

    def test_sweep_after_deep_check_reuses_one_low_driver(self):
        """A sweep below the frames already encoded must reuse ONE
        auxiliary driver grown ascending (not a throwaway per bound),
        and retire refuted bounds on the driver that answered them."""
        system, final, depth = counter.make(4, 9)
        inc = IncrementalBmc(system, final)
        inc.check_bound(depth + 2)          # frames now extend past depth
        assert inc.k == depth + 2
        swept = inc.sweep(depth + 1)
        assert swept.shortest_k == depth
        low = inc._low
        assert low is not None
        reused = [b.stats["clauses_reused"] for b in swept.per_bound]
        assert reused[0] < reused[-1]       # one growing driver
        # Every refuted bound was retired on the low driver; only the
        # SAT bound's final-constraint group may remain live.
        assert len(low._groups) <= 1

    def test_clauses_carry_over_between_bounds(self):
        system, final, depth = shift_register.make(6)
        inc = IncrementalBmc(system, final)
        result = inc.sweep(depth)
        reused = [b.stats["clauses_reused"] for b in result.per_bound]
        # Later bounds reuse strictly more carried-over clauses than the
        # first (the whole point of keeping one solver alive).
        assert reused[0] < reused[-1]
        assert all(b.stats["trans_frames"] >= b.k for b in result.per_bound)

    def test_check_bound_is_repeatable(self):
        system, final, depth = counter.make(3, 5)
        inc = IncrementalBmc(system, final)
        first = inc.check_bound(depth)
        second = inc.check_bound(depth)
        assert first[0] is SolveResult.SAT
        assert second[0] is SolveResult.SAT
        # Out-of-order queries against earlier, unretired bounds work too.
        earlier = inc.check_bound(depth - 1)
        assert earlier[0] is SolveResult.UNSAT

    def test_retired_groups_are_reclaimed(self):
        system, final, _ = mutex.make_exclusion_check()
        inc = IncrementalBmc(system, final, purge_interval=1)
        inc.check_bound(2)
        before = inc.solver.num_clauses()
        inc.retire_bound(2)
        # The final constraint (and anything derived from it) is
        # physically gone; the transition frames remain.
        assert inc.solver.num_clauses() < before
        assert inc.solver.stats.purged > 0

    def test_unsat_sweep_refutes_every_bound(self):
        system, final, _ = mutex.make_exclusion_check()
        result = IncrementalBmc(system, final).sweep(5)
        assert result.status is SolveResult.UNSAT
        assert [b.k for b in result.per_bound] == list(range(6))
        assert all(b.status is SolveResult.UNSAT for b in result.per_bound)

    def test_budget_exhaustion_yields_unknown(self):
        system, final, _ = counter.make(5, 19)
        result = IncrementalBmc(system, final).sweep(
            12, budget=Budget(max_seconds=0.0))
        assert result.status is SolveResult.UNKNOWN
        assert len(result.per_bound) < 13

    def test_rejects_bad_inputs(self):
        system, final, _ = counter.make(3, 5)
        with pytest.raises(ValueError):
            IncrementalBmc(system, final).sweep(-1)
        with pytest.raises(ValueError):
            IncrementalBmc(system, final).check_bound(-2)


class TestEngineSweep:
    def test_all_methods_implement_the_contract(self):
        # ring(3) keeps even the QBF back ends inside a small budget.
        system, final, depth = shift_register.make(3)
        budget = Budget(max_seconds=10.0, max_decisions=200_000)
        for method in METHODS:
            result = _sweep(system, final, depth + 1, method=method,
                            budget=budget)
            assert result.method == method
            assert result.status is SolveResult.SAT, method
            if method == "qbf-squaring":
                # The squaring schedule brackets the shortest depth
                # (within-k rungs at 0, 1, 2, 4, ...), it does not pin it.
                assert result.shortest_k >= depth, method
            elif method == "simulation":
                # The random-simulation tier reports the first frame a
                # lane hit; it cannot certify lower rungs UNSAT, so the
                # sweep is a single SAT entry at (or past) the depth.
                assert result.shortest_k >= depth, method
                assert all(b.status is not SolveResult.UNSAT
                           for b in result.per_bound), method
            else:
                assert result.shortest_k == depth, method
                assert [b.k for b in result.per_bound] \
                    == list(range(depth + 1)), method

    def test_squaring_sweep_runs_the_log_schedule(self):
        # An unreachable target walks the whole power-of-two ladder;
        # rungs the QBF solver cannot finish in budget end the sweep
        # with UNKNOWN, so the recorded ks are a prefix of the ladder.
        system, final, _ = shift_register.make_invariant_violation(4)
        result = _sweep(system, final, 8, method="qbf-squaring",
                        budget=Budget(max_seconds=5.0))
        ladder = [0, 1, 2, 4, 8]
        ks = [b.k for b in result.per_bound]
        assert ks == ladder[:len(ks)]
        assert all(b.status is SolveResult.UNSAT
                   for b in result.per_bound[:-1])
        if result.status is not SolveResult.UNKNOWN:
            assert result.status is SolveResult.UNSAT

    def test_sweep_rejects_unknown_method(self):
        system, final, _ = counter.make(3, 5)
        with pytest.raises(ValueError):
            _sweep(system, final, 2, method="magic")

    def test_native_jsat_sweep_keeps_nogood_cache(self):
        system, final, _ = mutex.make_exclusion_check()
        result = _sweep(system, final, 6, method="jsat")
        assert result.status is SolveResult.UNSAT
        entries = [b.stats["cache_entries"] for b in result.per_bound]
        # The cache survives retargeting: it only ever grows.
        assert entries == sorted(entries)
        assert entries[-1] > 0

    def test_native_jsat_sweep_space_stays_bounded(self):
        # Every UNSAT bound retires its root enumeration group and
        # purges, so the resident database does not accumulate root
        # blocking clauses across the sweep (the paper's space claim).
        system, final, _ = mutex.make_exclusion_check()
        result = _sweep(system, final, 6, method="jsat")
        resident = [b.stats["resident_literals"] for b in result.per_bound]
        assert resident[-1] <= 2 * resident[0]

    def test_jsat_retarget_resets_trace_only(self):
        system, final, depth = counter.make(3, 5)
        jsolver = JsatSolver(system, final, depth, "exact")
        assert jsolver.solve() is SolveResult.SAT
        assert jsolver.trace() is not None
        jsolver.retarget(depth - 1)
        assert jsolver.trace() is None
        assert jsolver.solve() is SolveResult.UNSAT
        jsolver.retarget(depth)
        assert jsolver.solve() is SolveResult.SAT
        jsolver.trace().validate(system, final)
        with pytest.raises(ValueError):
            jsolver.retarget(-1)


class TestIncrementalMethod:
    def test_exact_matches_unroll(self):
        system, final, depth = gray.make(4)
        for k in (depth - 1, depth, depth + 1):
            a = _check(system, final, k, "sat-unroll")
            b = _check(system, final, k, "sat-incremental")
            assert a.status is b.status, k
            if b.status is SolveResult.SAT:
                b.trace.validate(system, final)
                assert b.trace.length == k

    def test_within_returns_shortest_hit(self):
        system, final, depth = counter.make(4, 3)
        result = _check(system, final, depth + 4,
                        "sat-incremental", semantics="within")
        assert result.status is SolveResult.SAT
        # The sweep refuted every smaller bound, so the witness is the
        # true shortest path — its only final state is the last one.
        assert result.trace.length == depth
        assert not any(final.evaluate(s) for s in result.trace.states[:-1])
        assert result.stats["shortest_k"] == depth

    def test_incremental_stats_expose_reuse(self):
        system, final, depth = counter.make(4, 9)
        result = _check(system, final, depth,
                        "sat-incremental")
        assert result.stats["trans_frames"] == depth
        assert result.stats["clauses_reused"] >= 0
        assert "learnts_retained" in result.stats


class TestUniformWithinShortening:
    def test_every_trace_method_shortens_within_traces(self):
        # The fix: _shorten_to_final used to run only inside
        # _check_unroll; now the session applies it to whatever
        # the back end returned.
        system, final, depth = counter.make(4, 3)
        for method in ("sat-unroll", "sat-incremental", "jsat"):
            result = _check(system, final, depth + 4, method,
                            semantics="within")
            assert result.status is SolveResult.SAT, method
            assert result.trace is not None, method
            result.trace.validate(system, final)
            # Trace ends at its first final state (length = first hit).
            assert final.evaluate(result.trace.states[-1]), method
            assert not any(final.evaluate(s)
                           for s in result.trace.states[:-1]), method
