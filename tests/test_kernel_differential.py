"""Differential/fuzz verification of the array-based CDCL kernel.

The :class:`repro.sat.kernel.KernelSolver` must be indistinguishable
from the reference :class:`repro.sat.solver.CdclSolver` at the public
surface — same verdicts, valid models, equivalent assumption-group
retirement, honored budgets, sane stats — on randomly generated
problems.  Both kernel backends are pinned: the pure-Python array
implementation (``REPRO_SAT_CC=off``) and, when a system C compiler is
available, the compiled core.

Three layers of agreement:

* random CNF formulas (hypothesis): kernel vs reference vs DPLL
  enumeration, incremental add/solve rounds with assumptions;
* random transition-system unrollings for k = 0..6 through
  :class:`repro.bmc.incremental.IncrementalBmc` on each engine,
  cross-checked against the explicit-state oracle;
* jSAT-style activation-group retirement: retiring groups mid-stream
  must leave both engines answering identically afterwards.
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.bmc.incremental import IncrementalBmc
from repro.logic.cnf import CNF
from repro.sat import ckernel as _ckernel
from repro.sat.ckernel import CORE_ENV, compiled_available
from repro.sat.dpll import brute_force_sat
from repro.sat.kernel import KernelSolver
from repro.sat.proof import DratProof, ResolutionProof
from repro.sat.solver import CdclSolver
from repro.sat.types import Budget, SolveResult, install_stop_check
from repro.system import ExplicitOracle, random_predicate, random_system

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])

#: Kernel backends under test; the compiled leg is skipped gracefully
#: when no C compiler is present (the pure-Python path is always on).
BACKENDS = ["interpreted", "compiled"]

#: The two CDCL implementations under comparison, by name.
ENGINES = {"reference": CdclSolver, "kernel": KernelSolver}


@pytest.fixture(params=BACKENDS)
def kernel_backend(request, monkeypatch):
    """Force one kernel backend for the test's solver constructions."""
    if request.param == "interpreted":
        monkeypatch.setenv(CORE_ENV, "off")
    else:
        monkeypatch.delenv(CORE_ENV, raising=False)
        if not compiled_available():
            pytest.skip("no C compiler for the compiled kernel core")
    return request.param


def _fresh_kernel(backend, proof=None):
    """A KernelSolver on the requested backend (dispatch happens at
    construction time, so the fixture's env var decides)."""
    solver = KernelSolver(proof=proof)
    if proof is None:
        assert solver.backend == backend
    return solver


# ----------------------------------------------------------------------
# Random CNF strategies
# ----------------------------------------------------------------------
def _random_cnf(rng, num_vars, num_clauses, max_len=4):
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        width = rng.randint(1, max_len)
        lits = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(width)]
        cnf.add_clause(lits)
    return cnf


def _assert_model_satisfies(cnf, model, context):
    assignment = {v: model.get(v, False)
                  for v in range(1, cnf.num_vars + 1)}
    assert cnf.evaluate(assignment), context


class TestRandomCnf:
    """Verdict and model agreement on one-shot random formulas."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, **COMMON)
    def test_kernel_matches_reference_and_dpll(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 12)
        cnf = _random_cnf(rng, num_vars, rng.randint(1, 4 * num_vars))
        expected, _ = brute_force_sat(cnf)

        for engine, solver_cls in ENGINES.items():
            solver = solver_cls()
            solver.ensure_vars(cnf.num_vars)
            loaded = solver.add_clauses(cnf.clauses)
            status = solver.solve() if loaded else SolveResult.UNSAT
            assert status is expected, (seed, engine)
            if status is SolveResult.SAT:
                _assert_model_satisfies(cnf, solver.model(), (seed, engine))

    @given(st.integers(0, 100_000))
    @example(10017)     # the builds learn different level-0 units here
    @settings(max_examples=40, **COMMON)
    def test_incremental_rounds_with_assumptions(self, seed):
        """Interleaved add/solve rounds under assumptions stay in
        lock-step: same verdict each round, failed-assumption cores are
        themselves unsatisfiable together with the clauses.

        ``add_clause`` is one-sided — False means refuted, True
        promises nothing — so each solver's ``ok`` is checked against
        the clauses, not against the other solver: which units a
        search learnt decides whether a conflict shows at the add or
        only at the next solve."""
        rng = random.Random(seed)
        num_vars = rng.randint(4, 10)
        reference = CdclSolver()
        kernel = KernelSolver()
        for solver in (reference, kernel):
            solver.ensure_vars(num_vars)
        added = []
        for _ in range(rng.randint(2, 5)):
            batch = _random_cnf(rng, num_vars, rng.randint(1, 6)).clauses
            ok_ref = all([reference.add_clause(c) for c in batch])
            ok_ker = all([kernel.add_clause(c) for c in batch])
            added.extend(batch)
            for solver in (reference, kernel):
                if not solver.ok:
                    refuted = CNF(num_vars)
                    for clause in added:
                        refuted.add_clause(clause)
                    assert brute_force_sat(refuted)[0] \
                        is SolveResult.UNSAT, (seed, type(solver))
            assumptions = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                           for _ in range(rng.randint(0, 3))]
            status_ref = reference.solve(assumptions)
            status_ker = kernel.solve(assumptions)
            assert status_ref is status_ker, (seed, assumptions,
                                              ok_ref, ok_ker)
            if status_ker is SolveResult.SAT:
                model = kernel.model()
                cnf = CNF(num_vars)
                for clause in added:
                    cnf.add_clause(clause)
                _assert_model_satisfies(cnf, model, seed)
                for lit in assumptions:
                    value = model.get(abs(lit), False)
                    assert value == (lit > 0), (seed, lit)
            elif status_ker is SolveResult.UNSAT and assumptions:
                core = kernel.core()
                assert set(map(abs, core)) <= set(map(abs, assumptions))

    def test_both_backends_agree(self, kernel_backend):
        """The forced backend answers exactly like the reference on a
        deterministic batch of formulas (belt over the fuzz above)."""
        rng = random.Random(20250808)
        for _ in range(25):
            num_vars = rng.randint(3, 10)
            cnf = _random_cnf(rng, num_vars, rng.randint(1, 30))
            expected, _ = brute_force_sat(cnf)
            solver = _fresh_kernel(kernel_backend)
            solver.ensure_vars(cnf.num_vars)
            loaded = solver.add_clauses(cnf.clauses)
            status = solver.solve() if loaded else SolveResult.UNSAT
            assert status is expected


# ----------------------------------------------------------------------
# Group retirement (the jSAT idiom)
# ----------------------------------------------------------------------
class TestGroupRetirement:
    @given(st.integers(0, 100_000))
    @settings(max_examples=30, **COMMON)
    def test_retirement_equivalence(self, seed):
        """Guarded constraints + retirement behave identically: while a
        group is assumed the constraint bites, after ``[-g]`` +
        purge both engines answer like the constraint never existed."""
        rng = random.Random(seed)
        num_vars = rng.randint(4, 9)
        base = _random_cnf(rng, num_vars, rng.randint(2, 10))
        constraint = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                      for _ in range(rng.randint(1, 3))]
        solvers = {"reference": CdclSolver(), "kernel": KernelSolver()}
        group = num_vars + 1
        status = {}
        for name, solver in solvers.items():
            solver.ensure_vars(num_vars + 1)
            loaded = solver.add_clauses(base.clauses)
            for lit in constraint:
                solver.add_clause([-group, lit])
            active = solver.solve([group]) if loaded else SolveResult.UNSAT
            solver.add_clause([-group])
            solver.purge_satisfied()
            retired = solver.solve() if solver.ok else SolveResult.UNSAT
            status[name] = (active, retired)
        assert status["reference"] == status["kernel"], seed
        # Retirement really removed the constraint: the plain base
        # formula's verdict matches the post-retirement answer.
        expected, _ = brute_force_sat(base)
        assert status["kernel"][1] is expected, seed


# ----------------------------------------------------------------------
# Random-system unrollings
# ----------------------------------------------------------------------
class TestRandomUnrollings:
    @given(st.integers(0, 100_000))
    @settings(max_examples=15, **COMMON)
    def test_incremental_bmc_engines_agree(self, reference_leg, seed):
        rng = random.Random(seed)
        system = random_system(rng, num_latches=3, num_inputs=1, depth=2)
        final = random_predicate(rng, system)
        oracle = ExplicitOracle(system)

        def leg(engine):
            driver = IncrementalBmc(system, final)
            verdicts = []
            for k in range(7):
                status, trace, _ = driver.check_bound(k)
                verdicts.append(status)
                if status is SolveResult.SAT:
                    assert trace is not None, (seed, k, engine)
                    trace.validate(system, final)
                    assert trace.length == k
                driver.retire_bound(k)
            return verdicts

        with reference_leg():
            reference = leg("reference")
        kernel = leg("kernel")
        for k in range(7):
            assert reference[k] is kernel[k], (seed, k)
            want = oracle.reachable_in_exactly(final, k)
            assert (kernel[k] is SolveResult.SAT) == want, (seed, k)


# ----------------------------------------------------------------------
# Budgets and cooperative cancellation
# ----------------------------------------------------------------------
def _pigeonhole(solver, holes=8):
    def var(i, j):
        return i * holes + j + 1
    solver.ensure_vars((holes + 1) * holes)
    for i in range(holes + 1):
        solver.add_clause([var(i, j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(holes + 1):
            for i2 in range(i1 + 1, holes + 1):
                solver.add_clause([-var(i1, j), -var(i2, j)])


class TestBudgetsAndCancellation:
    def test_conflict_budget_unknown(self, kernel_backend):
        solver = _fresh_kernel(kernel_backend)
        _pigeonhole(solver)
        status = solver.solve(budget=Budget(max_conflicts=5))
        assert status is SolveResult.UNKNOWN
        assert solver.stats.conflicts >= 5

    def test_decision_budget_unknown(self, kernel_backend):
        solver = _fresh_kernel(kernel_backend)
        _pigeonhole(solver)
        assert solver.solve(budget=Budget(max_decisions=5)) \
            is SolveResult.UNKNOWN

    def test_deadline_unknown(self, kernel_backend):
        solver = _fresh_kernel(kernel_backend)
        _pigeonhole(solver, holes=10)
        budget = Budget(max_seconds=0.001)
        assert solver.solve(budget=budget) is SolveResult.UNKNOWN

    def test_stop_check_aborts(self, kernel_backend):
        """An installed stop probe cancels the search mid-flight, the
        warm-cancel contract the worker pool relies on."""
        solver = _fresh_kernel(kernel_backend)
        _pigeonhole(solver, holes=6)
        calls = [0]

        def stop():
            calls[0] += 1
            return calls[0] > 3

        previous = install_stop_check(stop)
        try:
            assert solver.solve() is SolveResult.UNKNOWN
        finally:
            install_stop_check(previous)
        assert calls[0] > 3
        # The solver survives a cancellation: the same instance
        # finishes the query once the probe is gone.
        assert solver.solve() is SolveResult.UNSAT

    def test_budget_slices_resume(self, kernel_backend):
        """Repeated small conflict slices eventually finish the query
        (the jSAT global-budget slicing pattern)."""
        solver = _fresh_kernel(kernel_backend)
        _pigeonhole(solver, holes=5)
        for _ in range(2000):
            status = solver.solve(budget=Budget(max_conflicts=50))
            if status is not SolveResult.UNKNOWN:
                break
        assert status is SolveResult.UNSAT


# ----------------------------------------------------------------------
# Stats sanity
# ----------------------------------------------------------------------
class TestStatsSanity:
    def test_counters_present_and_monotone(self, kernel_backend):
        solver = _fresh_kernel(kernel_backend)
        reference = CdclSolver()
        assert set(solver.stats.as_dict()) == \
            set(reference.stats.as_dict())
        _pigeonhole(solver, holes=4)
        assert solver.solve() is SolveResult.UNSAT
        stats = solver.stats.as_dict()
        assert stats["conflicts"] > 0
        assert stats["decisions"] > 0
        assert stats["propagations"] > 0
        assert stats["learned"] > 0
        assert stats["db_literals"] >= 0
        assert stats["peak_db_literals"] >= stats["db_literals"]
        assert solver.stats.solve_calls == 1
        before = dict(stats)
        assert solver.solve() is SolveResult.UNSAT   # level-0 conflict
        after = solver.stats.as_dict()
        for key in ("conflicts", "decisions", "propagations"):
            assert after[key] >= before[key], key

    def test_engine_attributes(self, kernel_backend):
        solver = _fresh_kernel(kernel_backend)
        assert solver.engine == "kernel"
        assert CdclSolver().engine == "reference"


# ----------------------------------------------------------------------
# UNSAT proofs (resolution chains and DRAT/RUP) on both engines
# ----------------------------------------------------------------------
class TestUnsatProofs:
    @pytest.mark.parametrize("engine", ["reference", "kernel"])
    @pytest.mark.parametrize("proof_cls", [ResolutionProof, DratProof])
    def test_pigeonhole_refutation_validates(self, engine, proof_cls):
        proof = proof_cls()
        solver = ENGINES[engine](proof=proof)
        _pigeonhole(solver, holes=4)
        assert solver.solve() is SolveResult.UNSAT
        assert proof.check_refutation(solver.empty_clause_proof)

    @pytest.mark.parametrize("engine", ["reference", "kernel"])
    def test_incremental_unsat_proof(self, engine):
        """Proof logging across add/solve rounds: the refutation logged
        after the second batch still replays."""
        proof = DratProof()
        solver = ENGINES[engine](proof=proof)
        solver.ensure_vars(3)
        solver.add_clauses([[1, 2], [-1, 2], [1, -2]])
        assert solver.solve() is SolveResult.SAT
        solver.add_clauses([[-1, -2]])
        assert solver.solve() is SolveResult.UNSAT
        assert proof.check_refutation(solver.empty_clause_proof)


# ----------------------------------------------------------------------
# Out-of-range input: an exception, never a crash of the caller
# ----------------------------------------------------------------------
_CHILD = textwrap.dedent("""
    import resource, sys
    from repro.sat.kernel import KernelSolver
    solver = KernelSolver()
    assert solver.backend == sys.argv[1], solver.backend
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    try:
        eval(sys.argv[2], {"s": solver})
    except (ValueError, MemoryError) as exc:
        print(type(exc).__name__)
    solver.add_clause([1, 2])
    print(solver.solve([-1]).name)
""")


def _child_env(**overrides):
    """The environment of a child process that imports this checkout's
    ``repro``."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def _run_child(backend, call):
    """Run ``call`` on a fresh KernelSolver ``s`` in a child process
    whose address space is capped at 1 GiB."""
    env = _child_env()
    if backend == "interpreted":
        env[CORE_ENV] = "off"
    else:
        env.pop(CORE_ENV, None)
    return subprocess.run([sys.executable, "-c", _CHILD, backend, call],
                          env=env, capture_output=True, text=True,
                          timeout=120)


class TestOutOfRangeInput:
    @pytest.mark.parametrize("backend,call,error", [
        ("compiled", "s.add_clause([1 << 30])", "ValueError"),
        ("compiled", "s.add_clause([-(1 << 31)])", "ValueError"),
        ("compiled", "s.solve([1 << 29])", "MemoryError"),
        ("compiled", "s.ensure_vars(1 << 29)", "MemoryError"),
        ("compiled", "s.ensure_vars(1 << 26)", "MemoryError"),
        ("interpreted", "s.add_clause([1 << 30])", "ValueError"),
        ("interpreted", "s.add_clause([-(1 << 31)])", "ValueError"),
        ("interpreted", "s.solve([1 << 30])", "ValueError"),
        ("interpreted", "s.ensure_vars(1 << 30)", "ValueError"),
    ])
    def test_raises_and_stays_usable(self, backend, call, error):
        if backend == "compiled" and not compiled_available():
            pytest.skip("no C compiler for the compiled kernel core")
        child = _run_child(backend, call)
        assert child.returncode == 0, (child.returncode, child.stderr)
        assert child.stdout.split() == [error, "SAT"], child.stdout


# ----------------------------------------------------------------------
# Building the compiled core: cache key and reported fallback
# ----------------------------------------------------------------------
_FALLBACK_CHILD = textwrap.dedent("""
    from repro.sat.kernel import KernelSolver
    from repro.telemetry import MetricsRegistry, Tracer, set_metrics, set_tracer
    tracer, registry = Tracer(), MetricsRegistry()
    set_tracer(tracer)
    set_metrics(registry)
    for _ in range(2):
        solver = KernelSolver()
        solver.add_clause([1])
        solver.solve()
    print(solver.backend,
          registry.snapshot()["counters"]["sat.core_fallbacks"],
          *[e["args"]["core"] for e in tracer.events()
            if e["name"] == "sat.solve"])
""")


class TestCoreBuild:
    def test_cache_key_covers_the_compiler(self, monkeypatch):
        monkeypatch.delenv("CC", raising=False)
        default = _ckernel._cache_path(b"int x;")
        monkeypatch.setenv("CC", "clang")
        assert _ckernel._cache_path(b"int x;") != default

    def test_missing_compiler_warns_once_and_counts(self, tmp_path):
        """No compiler on PATH and an empty cache: one warning naming
        the cause, every fallback solver counted, spans say which core
        ran."""
        env = _child_env(PATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path))
        env.pop("CC", None)
        env.pop(CORE_ENV, None)
        child = subprocess.run([sys.executable, "-c", _FALLBACK_CHILD],
                               env=env, capture_output=True, text=True,
                               timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["interpreted", "2",
                                        "interpreted", "interpreted"]
        assert child.stderr.count("compiled SAT core unavailable") == 1
        assert "no C compiler found" in child.stderr
