"""jSAT decision-procedure tests (the paper's core contribution)."""

import random

import pytest

from repro.bmc.jsat import JsatSolver
from repro.logic import expr as ex
from repro.models import counter, lfsr, shift_register
from repro.sat.types import Budget, SolveResult
from repro.system import ExplicitOracle, random_predicate, random_system


class TestBasics:
    def test_sat_at_depth_with_trace(self):
        system, final, depth = counter.make(4, 9)
        solver = JsatSolver(system, final, depth)
        assert solver.solve() is SolveResult.SAT
        trace = solver.trace()
        assert trace is not None and trace.length == depth
        trace.validate(system, final)

    def test_unsat_below_depth(self):
        system, final, depth = counter.make(4, 9)
        solver = JsatSolver(system, final, depth - 1)
        assert solver.solve() is SolveResult.UNSAT

    def test_k0_sat_and_unsat(self):
        system, final, _ = counter.make(3, 0)
        assert JsatSolver(system, final, 0).solve() is SolveResult.SAT
        system, final, _ = counter.make(3, 5)
        assert JsatSolver(system, final, 0).solve() is SolveResult.UNSAT

    def test_unreachable_target(self):
        system, final, _ = shift_register.make_invariant_violation(4)
        for k in (1, 3, 5):
            assert JsatSolver(system, final, k).solve() is SolveResult.UNSAT

    def test_negative_k_rejected(self):
        system, final, _ = counter.make(3, 1)
        with pytest.raises(ValueError):
            JsatSolver(system, final, -1)

    def test_bad_semantics_rejected(self):
        system, final, _ = counter.make(3, 1)
        with pytest.raises(ValueError):
            JsatSolver(system, final, 1, semantics="upto")


class TestWithinSemantics:
    def test_within_finds_shallower_target(self):
        system, final, depth = counter.make(4, 5)
        solver = JsatSolver(system, final, depth + 3, semantics="within")
        assert solver.solve() is SolveResult.SAT
        trace = solver.trace()
        assert trace.length <= depth + 3
        trace.validate(system, final)

    def test_within_depth0_target(self):
        system, final, _ = counter.make(3, 0)
        solver = JsatSolver(system, final, 4, semantics="within")
        assert solver.solve() is SolveResult.SAT
        assert solver.trace().length == 0

    def test_within_unsat_when_too_shallow(self):
        system, final, depth = counter.make(4, 9)
        solver = JsatSolver(system, final, depth - 1, semantics="within")
        assert solver.solve() is SolveResult.UNSAT


class TestAblations:
    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("f_pruning", [True, False])
    def test_all_variants_agree(self, use_cache, f_pruning):
        rng = random.Random(40)
        for _ in range(10):
            system = random_system(rng, num_latches=3, num_inputs=1,
                                   depth=2)
            final = random_predicate(rng, system)
            oracle = ExplicitOracle(system)
            for k in (0, 1, 2, 4):
                expected = oracle.reachable_in_exactly(final, k)
                solver = JsatSolver(system, final, k,
                                    use_cache=use_cache,
                                    f_pruning=f_pruning)
                got = solver.solve()
                want = SolveResult.SAT if expected else SolveResult.UNSAT
                assert got is want
                if got is SolveResult.SAT:
                    solver.trace().validate(system, final)

    def test_cache_reduces_queries_on_diamond(self):
        """Diamond-shaped graphs revisit states; the cache must pay off."""
        system, final, depth = lfsr.make(6, 17)
        with_cache = JsatSolver(system, final, depth + 1, use_cache=True)
        without = JsatSolver(system, final, depth + 1, use_cache=False)
        r1, r2 = with_cache.solve(), without.solve()
        assert r1 is r2
        assert with_cache.stats.queries <= without.stats.queries


class TestSpaceBehaviour:
    def test_resident_formula_independent_of_k(self):
        """The title claim: one TR copy regardless of the bound."""
        system, final, _ = counter.make(6, 63)
        base_sizes = []
        for k in (2, 8, 32):
            solver = JsatSolver(system, final, k)
            base_sizes.append(solver.base_db_literals)
        assert len(set(base_sizes)) == 1

    def test_purge_bounds_resident_size(self):
        system, final, depth = counter.make(5, 19)
        solver = JsatSolver(system, final, depth, purge_interval=1)
        assert solver.solve() is SolveResult.SAT
        resident = solver.resident_literals()
        # Resident DB stays within a small factor of the base encoding.
        assert resident < solver.base_db_literals * 5

    def test_repeated_solves_do_not_leak_groups(self):
        """Regression: SAT exits and budget aborts used to leave their
        activation groups unretired, pinning the groups' blocking
        clauses in the database forever — unbounded growth across the
        repeated solves of a long-lived session."""
        system, final, depth = counter.make(5, 19)
        solver = JsatSolver(system, final, depth)
        assert solver.solve() is SolveResult.SAT
        assert not solver._live_groups
        resident_first = solver.resident_literals()
        for _ in range(5):
            assert solver.solve() is SolveResult.SAT
            assert not solver._live_groups
        assert solver.resident_literals() <= resident_first

        # Budget aborts unwind past every frame; leftovers must still
        # be retired and reclaimed.
        aborted = JsatSolver(system, final, depth, use_cache=False)
        sizes = []
        for _ in range(5):
            status = aborted.solve(budget=Budget(max_propagations=40))
            assert status is SolveResult.UNKNOWN
            assert not aborted._live_groups
            sizes.append(aborted.resident_literals())
        assert sizes[-1] <= sizes[0]

    def test_peak_much_smaller_than_unrolled(self):
        from repro.bmc import BmcSession
        system, final, _ = counter.make(6, 63)
        target = ex.var("c5")
        k = 40
        with BmcSession(system, properties={"target": target}) as session:
            unrolled = session.check(k, method="sat-unroll")
            jsat = session.check(k, method="jsat")
        assert jsat.status is unrolled.status
        assert (jsat.stats["peak_db_literals"] * 2
                < unrolled.stats["solver_peak_db_literals"])


class TestBudgets:
    def test_time_budget_unknown(self):
        # Deep enough that even the compiled kernel engine needs well
        # over the wall budget (~100x headroom measured).
        system, final, _ = lfsr.make(16, 2000)
        solver = JsatSolver(system, final, 2000)
        assert solver.solve(budget=Budget(max_seconds=0.001)) \
            is SolveResult.UNKNOWN

    def test_propagation_budget_is_global(self):
        # A deterministic LFSR is conflict-free for jSAT (every window
        # query propagates to the unique successor), so the global
        # budget must be enforced on propagations, not only conflicts.
        system, final, _ = lfsr.make(10, 400)
        solver = JsatSolver(system, final, 400)
        result = solver.solve(budget=Budget(max_propagations=500))
        assert result is SolveResult.UNKNOWN
        assert solver.stats.queries < 400


class TestRandomizedAgainstOracle:
    def test_matches_oracle(self):
        rng = random.Random(91)
        for trial in range(25):
            system = random_system(rng, num_latches=rng.randint(2, 4),
                                   num_inputs=rng.randint(0, 2), depth=2)
            final = random_predicate(rng, system)
            oracle = ExplicitOracle(system)
            for k in (0, 1, 2, 3, 6):
                expected = oracle.reachable_in_exactly(final, k)
                got = JsatSolver(system, final, k).solve()
                want = SolveResult.SAT if expected else SolveResult.UNSAT
                assert got is want, f"trial {trial} k={k}"


class TestConstantPredicates:
    """Regression: constant-FALSE targets once made jSAT report SAT
    (the encode(FALSE) literal-polarity bug found by bench E4)."""

    def test_constant_false_final_unsat(self):
        system, _, _ = counter.make(3, 1)
        for k in (0, 1, 3):
            assert JsatSolver(system, ex.FALSE, k).solve() \
                is SolveResult.UNSAT

    def test_constant_true_final_sat(self):
        system, _, _ = counter.make(3, 1)
        for k in (0, 2):
            solver = JsatSolver(system, ex.TRUE, k)
            assert solver.solve() is SolveResult.SAT
            solver.trace().validate(system, ex.TRUE)
