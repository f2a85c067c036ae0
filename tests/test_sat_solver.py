"""CDCL kernel unit and randomized tests.

Search-behaviour tests run on both builds of the kernel: the default
(the compiled core when it loads) and the interpreted one, which every
proof-logging solver runs on.
"""

import random

import pytest

from repro.logic.cnf import CNF
from repro.sat import (Budget, DratProof, KernelSolver, SolveResult,
                       brute_force_sat)
from repro.sat.ckernel import CORE_ENV, compiled_available
from repro.sat.types import from_internal, to_internal

#: A fresh solver of each kernel build, by name.
BUILDS = {"default": KernelSolver,
          "interpreted": lambda: KernelSolver(proof=DratProof())}


class TestBasics:
    def test_empty_formula_sat(self):
        for build in BUILDS.values():
            assert build().solve() is SolveResult.SAT

    def test_unit_conflict(self):
        for build in BUILDS.values():
            s = build()
            s.add_clause([1])
            assert not s.add_clause([-1])
            assert s.solve() is SolveResult.UNSAT

    def test_simple_sat_model(self):
        for build in BUILDS.values():
            s = build()
            s.add_clause([1, 2])
            s.add_clause([-1])
            assert s.solve() is SolveResult.SAT
            assert s.model_value(1) is False
            assert s.model_value(2) is True
            assert s.model_value(-2) is False

    def test_pigeonhole_3_2_unsat(self):
        # 3 pigeons, 2 holes: p_ij = pigeon i in hole j.
        def v(i, j):
            return i * 2 + j + 1
        for build in BUILDS.values():
            s = build()
            for i in range(3):
                s.add_clause([v(i, 0), v(i, 1)])
            for j in range(2):
                for i1 in range(3):
                    for i2 in range(i1 + 1, 3):
                        s.add_clause([-v(i1, j), -v(i2, j)])
            assert s.solve() is SolveResult.UNSAT

    def test_tautology_ignored(self):
        for build in BUILDS.values():
            s = build()
            s.add_clause([1, -1])
            assert s.solve() is SolveResult.SAT

    def test_model_covers_all_vars(self):
        for build in BUILDS.values():
            s = build()
            s.ensure_vars(5)
            s.add_clause([1, 2])
            assert s.solve() is SolveResult.SAT
            assert all(s.model_value(v) is not None for v in range(1, 6))


class TestAssumptions:
    def test_assumption_forces_value(self):
        for build in BUILDS.values():
            s = build()
            s.add_clause([1, 2])
            assert s.solve(assumptions=[-1]) is SolveResult.SAT
            assert s.model_value(2) is True

    def test_unsat_under_assumptions_recovers(self):
        for build in BUILDS.values():
            s = build()
            s.add_clause([-1, 2])
            s.add_clause([-2, 3])
            assert s.solve(assumptions=[1, -3]) is SolveResult.UNSAT
            core = s.core()
            assert set(core) <= {1, -3} and core
            # Still satisfiable without assumptions.
            assert s.solve() is SolveResult.SAT

    def test_core_is_unsat_subset(self):
        rng = random.Random(17)
        for _ in range(80):
            n = rng.randint(2, 8)
            cnf = CNF(n)
            for _ in range(rng.randint(2, 25)):
                cnf.add_clause([rng.choice([1, -1]) * rng.randint(1, n)
                                for _ in range(rng.randint(1, 3))])
            assumptions = [rng.choice([1, -1]) * v
                           for v in rng.sample(range(1, n + 1),
                                               rng.randint(1, n))]
            for build in BUILDS.values():
                s = build()
                s.add_clauses(cnf.clauses)
                if s.solve(assumptions) is SolveResult.UNSAT:
                    with_core = cnf.copy()
                    for lit in s.core():
                        with_core.add_clause([lit])
                    status, _ = brute_force_sat(with_core)
                    assert status is SolveResult.UNSAT

    def test_contradictory_assumptions(self):
        for build in BUILDS.values():
            s = build()
            s.ensure_vars(1)
            assert s.solve(assumptions=[1, -1]) is SolveResult.UNSAT
            assert 1 in set(map(abs, s.core()))


class TestBudgets:
    def test_conflict_budget_returns_unknown(self):
        # A hard random instance at the phase transition.
        rng = random.Random(1)
        n = 60
        clauses = []
        for _ in range(int(4.26 * n)):
            clause = rng.sample(range(1, n + 1), 3)
            clauses.append([rng.choice([1, -1]) * v for v in clause])
        for build in BUILDS.values():
            s = build()
            s.add_clauses(clauses)
            result = s.solve(budget=Budget(max_conflicts=3))
            assert result in (SolveResult.UNKNOWN, SolveResult.SAT,
                              SolveResult.UNSAT)
            # With a tiny budget on a hard instance UNKNOWN is
            # expected; a solved outcome just means the instance was
            # easy.

    def test_memory_budget(self):
        rng = random.Random(2)
        n = 50
        clauses = []
        for _ in range(int(4.26 * n)):
            clause = rng.sample(range(1, n + 1), 3)
            clauses.append([rng.choice([1, -1]) * v for v in clause])
        for build in BUILDS.values():
            s = build()
            s.add_clauses(clauses)
            result = s.solve(budget=Budget(max_literals=10))
            assert result is SolveResult.UNKNOWN


class TestGroupsAndPurge:
    def test_group_retirement_reclaims_clauses(self):
        for build in BUILDS.values():
            s = build()
            g = s.new_var()
            x = s.new_var()
            s.add_clause([-g, x])
            s.add_clause([-g, -x])
            assert s.solve(assumptions=[g]) is SolveResult.UNSAT
            assert s.solve() is SolveResult.SAT
            s.add_clause([-g])
            purged = s.purge_satisfied()
            assert purged >= 2
            assert s.solve() is SolveResult.SAT

    def test_purge_keeps_semantics(self):
        rng = random.Random(3)
        n = 10
        cnf = CNF(n)
        for _ in range(30):
            clause = [rng.choice([1, -1]) * rng.randint(1, n)
                      for _ in range(3)]
            cnf.add_clause(clause)
        for build in BUILDS.values():
            s = build()
            s.add_clauses(cnf.clauses)
            expected = s.solve()
            s.purge_satisfied()
            assert s.solve() is expected


class TestRandomizedAgainstBruteForce:
    def test_random_formulas(self):
        rng = random.Random(123)
        for trial in range(200):
            n = rng.randint(1, 10)
            cnf = CNF(n)
            for _ in range(rng.randint(1, 40)):
                clause = [rng.choice([1, -1]) * rng.randint(1, n)
                          for _ in range(rng.randint(1, 4))]
                cnf.add_clause(clause)
            expected, _ = brute_force_sat(cnf)
            for name, build in BUILDS.items():
                s = build()
                s.add_clauses(cnf.clauses)
                got = s.solve()
                assert got is expected, (trial, name)
                if got is SolveResult.SAT:
                    model = {v: bool(s.model_value(v))
                             for v in range(1, n + 1)}
                    assert cnf.evaluate(model)
                elif s.proof is not None:
                    assert s.proof.check_refutation(s.empty_clause_proof)

    def test_incremental_clause_addition(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 8)
            solvers = [build() for build in BUILDS.values()]
            cnf = CNF(n)
            for _ in range(12):
                clause = [rng.choice([1, -1]) * rng.randint(1, n)
                          for _ in range(rng.randint(1, 3))]
                cnf.add_clause(clause)
                expected, _ = brute_force_sat(cnf)
                for s in solvers:
                    s.add_clause(clause)
                    assert s.solve() is expected
                if expected is SolveResult.UNSAT:
                    break


class TestInternals:
    def test_literal_conversion_round_trip(self):
        for lit in (1, -1, 5, -17):
            assert from_internal(to_internal(lit)) == lit

    def test_tri_valued_result_guards_bool(self):
        with pytest.raises(TypeError):
            bool(SolveResult.SAT)

    def test_stats_counted(self):
        for build in BUILDS.values():
            s = build()
            s.add_clause([1, 2])
            s.add_clause([-1, 2])
            s.add_clause([1, -2])
            s.add_clause([-1, -2, 3])
            s.solve()
            assert s.stats.solve_calls == 1
            assert s.stats.propagations > 0
            assert s.stats.peak_db_literals >= 9


class TestEngineStatsParity:
    """Both builds expose the SAME observability surface: identical
    counter names and identical ``sat.solve`` span fields, so dashboards
    and bench harnesses never special-case the build."""

    CNF_CLAUSES = [[1, 2], [-1, 2], [1, -2], [-1, -2, 3], [-3, 4]]

    @pytest.fixture(autouse=True)
    def _needs_compiled(self):
        if not compiled_available():
            pytest.skip("no C compiler for the compiled kernel core")

    def _solved(self, monkeypatch, backend):
        """A proof-free solver of ``backend`` that has solved the CNF."""
        with monkeypatch.context() as m:
            if backend == "interpreted":
                m.setenv(CORE_ENV, "off")
            else:
                m.delenv(CORE_ENV, raising=False)
            s = KernelSolver()
        assert s.backend == backend
        for clause in self.CNF_CLAUSES:
            s.add_clause(clause)
        assert s.solve() is SolveResult.SAT
        return s

    def test_counter_names_identical(self, monkeypatch):
        interpreted = self._solved(monkeypatch, "interpreted")
        compiled = self._solved(monkeypatch, "compiled")
        assert set(compiled.stats.as_dict()) == \
            set(interpreted.stats.as_dict())
        for s in (interpreted, compiled):
            d = s.stats.as_dict()
            assert d["propagations"] > 0
            assert d["db_literals"] > 0
            assert d["peak_db_literals"] >= d["db_literals"]
            assert s.stats.solve_calls == 1

    def test_solve_span_fields_identical(self, monkeypatch):
        from repro.telemetry import (MetricsRegistry, Tracer, set_metrics,
                                     set_tracer)
        tracer, registry = Tracer(), MetricsRegistry()
        prev_tracer = set_tracer(tracer)
        prev_metrics = set_metrics(registry)
        try:
            self._solved(monkeypatch, "interpreted")
            self._solved(monkeypatch, "compiled")
        finally:
            set_tracer(prev_tracer)
            set_metrics(prev_metrics)
        solves = [e for e in tracer.events() if e["name"] == "sat.solve"]
        by_core = {e["args"]["core"]: e for e in solves}
        assert set(by_core) == {"interpreted", "compiled"}
        assert (set(by_core["interpreted"]["args"])
                == set(by_core["compiled"]["args"]))
        for event in by_core.values():
            assert event["args"]["result"] == "SAT"
            assert "engine" not in event["args"]
