"""Differential/fuzz verification of the array-based CDCL kernel.

The one SAT engine, :class:`repro.sat.kernel.KernelSolver`, ships in
two builds: the compiled core (``ckernel.c``) and the interpreted array
implementation (``REPRO_SAT_CC=off``, and every proof-logged solver).
This suite pins them to each other and checks every answer by
certificate rather than by trust:

* every SAT model is evaluated against the input clauses (and the
  assumptions it was asked under);
* every interpreted solve in the lock-step legs logs a
  :class:`repro.sat.proof.DratProof`: an UNSAT answer without
  assumptions must pass ``check_refutation``, one under assumptions
  must pass ``verify()``, and brute force must find its
  failed-assumption core unsatisfiable together with the clauses.

Three layers of agreement:

* random CNF formulas (hypothesis): both builds vs DPLL and
  brute-force enumeration, and incremental add/solve rounds with
  assumptions in lock-step;
* random transition-system unrollings for k = 0..6 through
  :class:`repro.bmc.incremental.IncrementalBmc` on each build (the
  interpreted one through the ``proof_leg`` fixture), cross-checked
  against the explicit-state oracle;
* jSAT-style activation-group retirement: retiring groups mid-stream
  must leave both builds answering identically afterwards, and like
  brute force on the formula without the retired constraint.
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
from repro.sat.dpll import DpllSolver, brute_force_sat
from repro.sat.kernel import KernelSolver, SolverStats, make_solver
from repro.sat.proof import DratProof, ResolutionProof
from repro.sat.types import Budget, SolveResult, install_stop_check
from repro.system import ExplicitOracle, random_predicate, random_system

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])

#: The two builds of the kernel, by name.  Proof logging always runs
#: interpreted; the proof-free default is the compiled core whenever it
#: loads (under ``REPRO_SAT_CC=off`` both legs are interpreted, and the
#: lock-step still pins the proof-free path to the logged one).
ENGINES = {"compiled": KernelSolver,
           "interpreted": lambda: KernelSolver(proof=DratProof())}


@pytest.fixture(params=["interpreted", "compiled"])
def kernel_backend(request, monkeypatch):
    """Force one kernel backend for the test's solver constructions; the
    compiled leg is skipped when no C compiler is present."""
    if request.param == "interpreted":
        monkeypatch.setenv(CORE_ENV, "off")
    else:
        monkeypatch.delenv(CORE_ENV, raising=False)
        if not compiled_available():
            pytest.skip("no C compiler for the compiled kernel core")
    return request.param


def _fresh_kernel(backend):
    """A proof-free KernelSolver on the ``kernel_backend`` build
    (dispatch happens at construction time, so the fixture's env var
    decides)."""
    solver = KernelSolver()
    assert solver.backend == backend
    return solver


# ----------------------------------------------------------------------
# Random CNF strategies and answer certificates
# ----------------------------------------------------------------------
def _random_cnf(rng, num_vars, num_clauses, max_len=4):
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        width = rng.randint(1, max_len)
        lits = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(width)]
        cnf.add_clause(lits)
    return cnf


def _cnf_of(num_vars, clauses):
    cnf = CNF(num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def _certify(solver, cnf, assumptions, status, context):
    """Check one answer of ``solver`` on ``cnf`` by its certificate.

    SAT: the model satisfies every clause and every assumption.  UNSAT
    from a proof-logging solver: the DRAT log replays — as a refutation
    when the solver derived the empty clause (always, without
    assumptions), else every learnt clause by RUP.  UNSAT under
    assumptions: the failed-assumption core is unsatisfiable together
    with the clauses, by brute force.
    """
    if status is SolveResult.SAT:
        model = solver.model()
        assignment = {v: model.get(v, False)
                      for v in range(1, cnf.num_vars + 1)}
        assert cnf.evaluate(assignment), context
        for lit in assumptions:
            assert model.get(abs(lit), False) == (lit > 0), (context, lit)
        return
    assert status is SolveResult.UNSAT, context
    proof = solver.proof
    if proof is not None:
        if solver.empty_clause_proof >= 0:
            assert proof.check_refutation(solver.empty_clause_proof), context
        else:
            assert assumptions, context
            assert proof.verify(), context
    if assumptions:
        core = solver.core()
        assert set(map(abs, core)) <= set(map(abs, assumptions)), context
        with_core = cnf.copy()
        for lit in core:
            with_core.add_clause([lit])
        assert _refuted(with_core), context


def _solve_loaded(solver, cnf):
    """Load ``cnf`` into a fresh solver and decide it."""
    solver.ensure_vars(cnf.num_vars)
    solver.add_clauses(cnf.clauses)
    return solver.solve()


def _refuted(cnf):
    """True when ``cnf`` is unsatisfiable: by brute force on small
    formulas, else by a DRAT-checked refutation from a fresh
    proof-logging solver (sound whatever that solver's own state)."""
    if cnf.num_vars <= 16:
        return brute_force_sat(cnf)[0] is SolveResult.UNSAT
    solver = KernelSolver(proof=DratProof())
    if _solve_loaded(solver, cnf) is not SolveResult.UNSAT:
        return False
    return solver.proof.check_refutation(solver.empty_clause_proof)


class TestRandomCnf:
    """Verdict and certificate agreement on random formulas."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, **COMMON)
    def test_builds_match_dpll(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 12)
        cnf = _random_cnf(rng, num_vars, rng.randint(1, 4 * num_vars))
        expected, _ = brute_force_sat(cnf)
        assert DpllSolver(cnf).solve() is expected, seed

        for engine, build in ENGINES.items():
            solver = build()
            status = _solve_loaded(solver, cnf)
            assert status is expected, (seed, engine)
            _certify(solver, cnf, (), status, (seed, engine))

    @given(st.integers(0, 100_000))
    @example(10017)     # the builds learn different level-0 units here
    @settings(max_examples=40, **COMMON)
    def test_incremental_rounds_with_assumptions(self, seed):
        """Interleaved add/solve rounds under assumptions stay in
        lock-step: same verdict each round, and every answer passes its
        certificate check.

        ``add_clause`` is one-sided — False means refuted, True
        promises nothing — so each solver's ``ok`` is checked against
        the clauses, not against the other build: which units a
        search learnt decides whether a conflict shows at the add or
        only at the next solve."""
        rng = random.Random(seed)
        num_vars = rng.randint(4, 10)
        solvers = {engine: build() for engine, build in ENGINES.items()}
        for solver in solvers.values():
            solver.ensure_vars(num_vars)
        added = []
        for _ in range(rng.randint(2, 5)):
            batch = _random_cnf(rng, num_vars, rng.randint(1, 6)).clauses
            for solver in solvers.values():
                for clause in batch:
                    solver.add_clause(clause)
            added.extend(batch)
            cnf = _cnf_of(num_vars, added)
            for engine, solver in solvers.items():
                if not solver.ok:
                    assert brute_force_sat(cnf)[0] is SolveResult.UNSAT, \
                        (seed, engine)
            assumptions = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                           for _ in range(rng.randint(0, 3))]
            status = {engine: solver.solve(assumptions)
                      for engine, solver in solvers.items()}
            assert status["compiled"] is status["interpreted"], \
                (seed, assumptions)
            for engine, solver in solvers.items():
                _certify(solver, cnf, assumptions, status[engine],
                         (seed, engine, assumptions))

    def test_midsize_lockstep_certified(self):
        """Random 3-SAT at the phase transition, n = 50..70: too big
        for brute force, so both builds are checked by certificate
        alone — one solve, then incremental rounds under assumptions.
        Formulas this size learn clauses over several decision levels,
        which the tiny fuzz formulas above rarely do."""
        rng = random.Random(20261018)
        for trial in range(24):
            num_vars = rng.randint(50, 70)
            cnf = CNF(num_vars)
            for _ in range(int(4.26 * num_vars)):
                cnf.add_clause([rng.choice([1, -1]) * v for v in
                                rng.sample(range(1, num_vars + 1), 3)])
            solvers = {engine: build() for engine, build in ENGINES.items()}
            for solver in solvers.values():
                solver.ensure_vars(num_vars)
                solver.add_clauses(cnf.clauses)
            rounds = [()] + [
                [rng.choice([1, -1]) * rng.randint(1, num_vars)
                 for _ in range(3)] for _ in range(3)]
            for assumptions in rounds:
                status = {engine: solver.solve(assumptions)
                          for engine, solver in solvers.items()}
                assert status["compiled"] is status["interpreted"], \
                    (trial, assumptions)
                for engine, solver in solvers.items():
                    _certify(solver, cnf, assumptions, status[engine],
                             (trial, engine, assumptions))

    def test_both_backends_agree(self, kernel_backend):
        """The forced backend answers like brute force on a
        deterministic batch of formulas (belt over the fuzz above)."""
        rng = random.Random(20250808)
        for _ in range(25):
            num_vars = rng.randint(3, 10)
            cnf = _random_cnf(rng, num_vars, rng.randint(1, 30))
            expected, _ = brute_force_sat(cnf)
            solver = _fresh_kernel(kernel_backend)
            status = _solve_loaded(solver, cnf)
            assert status is expected
            _certify(solver, cnf, (), status, kernel_backend)


# ----------------------------------------------------------------------
# Group retirement (the jSAT idiom)
# ----------------------------------------------------------------------
class TestGroupRetirement:
    @given(st.integers(0, 100_000))
    @settings(max_examples=30, **COMMON)
    def test_retirement_equivalence(self, seed):
        """Guarded constraints + retirement behave identically: while a
        group is assumed the constraint bites, after ``[-g]`` +
        purge both builds answer like the constraint never existed."""
        rng = random.Random(seed)
        num_vars = rng.randint(4, 9)
        base = _random_cnf(rng, num_vars, rng.randint(2, 10))
        constraint = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                      for _ in range(rng.randint(1, 3))]
        group = num_vars + 1
        guarded = _cnf_of(group, base.clauses)
        for lit in constraint:
            guarded.add_clause([-group, lit])
        retired_cnf = guarded.copy()
        retired_cnf.add_clause([-group])
        status = {}
        for engine, build in ENGINES.items():
            solver = build()
            solver.ensure_vars(group)
            solver.add_clauses(guarded.clauses)
            active = solver.solve([group])
            _certify(solver, guarded, [group], active, (seed, engine))
            solver.add_clause([-group])
            solver.purge_satisfied()
            retired = solver.solve()
            _certify(solver, retired_cnf, (), retired, (seed, engine))
            status[engine] = (active, retired)
        assert status["compiled"] == status["interpreted"], seed
        # Retirement really removed the constraint: the plain base
        # formula's verdict matches the post-retirement answer.
        expected, _ = brute_force_sat(base)
        assert status["compiled"][1] is expected, seed


# ----------------------------------------------------------------------
# Random-system unrollings
# ----------------------------------------------------------------------
class TestRandomUnrollings:
    @given(st.integers(0, 100_000))
    @settings(max_examples=15, **COMMON)
    def test_incremental_bmc_engines_agree(self, proof_leg, seed):
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

        with proof_leg():
            interpreted = leg("interpreted")
        compiled = leg("compiled")
        for k in range(7):
            assert interpreted[k] is compiled[k], (seed, k)
            want = oracle.reachable_in_exactly(final, k)
            assert (compiled[k] is SolveResult.SAT) == want, (seed, k)


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
        assert set(solver.stats.as_dict()) == set(SolverStats.__slots__)
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
        """A solver names its build by ``backend`` alone: there is one
        engine, so there is no ``engine`` attribute."""
        solver = _fresh_kernel(kernel_backend)
        assert solver.backend == kernel_backend
        assert not hasattr(solver, "engine")
        assert KernelSolver(proof=DratProof()).backend == "interpreted"


# ----------------------------------------------------------------------
# UNSAT proofs (resolution chains and DRAT/RUP)
# ----------------------------------------------------------------------
#: The two ways to build a proof-logging solver: the class itself and
#: the production constructor (which interpolation goes through).
PROOF_SOLVERS = {"kernel": KernelSolver, "make_solver": make_solver}


class TestUnsatProofs:
    @pytest.mark.parametrize("engine", list(PROOF_SOLVERS))
    @pytest.mark.parametrize("proof_cls", [ResolutionProof, DratProof])
    def test_pigeonhole_refutation_validates(self, engine, proof_cls):
        proof = proof_cls()
        solver = PROOF_SOLVERS[engine](proof=proof)
        assert solver.proof is proof
        _pigeonhole(solver, holes=4)
        assert solver.solve() is SolveResult.UNSAT
        assert proof.check_refutation(solver.empty_clause_proof)

    @pytest.mark.parametrize("engine", list(PROOF_SOLVERS))
    def test_incremental_unsat_proof(self, engine):
        """Proof logging across add/solve rounds: the refutation logged
        after the second batch still replays."""
        proof = DratProof()
        solver = PROOF_SOLVERS[engine](proof=proof)
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

    def test_build_prunes_stale_cores(self, monkeypatch, tmp_path):
        """A successful build deletes the cores built under older keys
        in its cache directory, and nothing else there."""
        if not compiled_available():
            pytest.skip("no C compiler for the compiled kernel core")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        with open(_ckernel._SOURCE, "rb") as fh:
            so_path = _ckernel._cache_path(fh.read())
        cache = os.path.dirname(so_path)
        for name in ("repro_ckernel_0123456789abcdef.so", "unrelated.so"):
            with open(os.path.join(cache, name), "wb"):
                pass
        assert _ckernel._compile(_ckernel._SOURCE, so_path) is None
        assert sorted(os.listdir(cache)) == sorted(
            [os.path.basename(so_path), "unrelated.so"])
