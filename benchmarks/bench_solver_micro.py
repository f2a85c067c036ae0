"""Micro-benchmarks of the substrate solvers.

Not a paper artifact — these keep the CDCL/QDPLL substrates honest
(throughput regressions would silently distort E1/E4/E5 comparisons).
"""

import os
import random

from repro.logic.cnf import CNF
from repro.qbf import PCNF, QdpllSolver
from repro.sat import SolveResult, make_solver


def _random_3sat(n, ratio, seed):
    rng = random.Random(seed)
    cnf = CNF(n)
    for _ in range(int(ratio * n)):
        clause = rng.sample(range(1, n + 1), 3)
        cnf.add_clause([rng.choice([1, -1]) * v for v in clause])
    return cnf


def bench_cdcl_random_3sat_sat_region(benchmark):
    cnf = _random_3sat(120, 3.5, seed=11)

    def run():
        solver = make_solver()
        solver.add_clauses(cnf.clauses)
        return solver.solve()

    result = benchmark(run)
    assert result is SolveResult.SAT


def bench_cdcl_random_3sat_phase_transition(benchmark):
    cnf = _random_3sat(60, 4.26, seed=7)

    def run():
        solver = make_solver()
        solver.add_clauses(cnf.clauses)
        return solver.solve()

    result = benchmark(run)
    assert result in (SolveResult.SAT, SolveResult.UNSAT)


def bench_cdcl_pigeonhole(benchmark):
    def run():
        solver = make_solver()
        holes = 5
        def var(i, j):
            return i * holes + j + 1
        for i in range(holes + 1):
            solver.add_clause([var(i, j) for j in range(holes)])
        for j in range(holes):
            for i1 in range(holes + 1):
                for i2 in range(i1 + 1, holes + 1):
                    solver.add_clause([-var(i1, j), -var(i2, j)])
        return solver.solve()

    assert benchmark(run) is SolveResult.UNSAT


def bench_cdcl_incremental_assumptions(benchmark):
    cnf = _random_3sat(80, 3.0, seed=3)
    solver = make_solver()
    solver.add_clauses(cnf.clauses)
    rng = random.Random(5)

    def run():
        outcomes = []
        for _ in range(10):
            assumptions = [rng.choice([1, -1]) * rng.randint(1, 80)
                           for _ in range(3)]
            outcomes.append(solver.solve(assumptions))
        return outcomes

    outcomes = benchmark(run)
    assert all(o is not SolveResult.UNKNOWN for o in outcomes)


def _pigeonhole_clauses(holes=5):
    def var(i, j):
        return i * holes + j + 1
    clauses = []
    for i in range(holes + 1):
        clauses.append([var(i, j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(holes + 1):
            for i2 in range(i1 + 1, holes + 1):
                clauses.append([-var(i1, j), -var(i2, j)])
    return clauses


def _interpreted():
    """A proof-free solver on the interpreted build."""
    from repro.sat.ckernel import CORE_ENV
    previous = os.environ.get(CORE_ENV)
    os.environ[CORE_ENV] = "off"
    try:
        return make_solver()
    finally:
        if previous is None:
            del os.environ[CORE_ENV]
        else:
            os.environ[CORE_ENV] = previous


def bench_compiled_vs_interpreted_speedup(benchmark):
    """Perf guard: the compiled kernel build must aggregate >= 6x over
    the interpreted build across the CDCL micro workloads above, and
    reach >= 1.5x on each of them (pigeonhole dominates the aggregate,
    so the floor keeps a slow workload from hiding behind it); fails
    when no compiled core loads.

    Records per-workload wall seconds and speedups via
    :func:`_emit.record` so the ``--json`` artifact carries the full
    table CI tracks run-over-run.
    """
    import time as _time

    from repro.sat.ckernel import compiled_available, fallback_reason

    assert compiled_available(), (
        f"no compiled SAT core to guard "
        f"({fallback_reason() or 'disabled by REPRO_SAT_CC'})")
    builds = {"interpreted": _interpreted, "compiled": make_solver}

    workloads = {
        "random_3sat": _random_3sat(120, 3.5, seed=11).clauses,
        "phase_transition": _random_3sat(60, 4.26, seed=7).clauses,
        "pigeonhole_6": _pigeonhole_clauses(6),
    }

    def one_shot(build, clauses):
        solver = builds[build]()
        assert solver.backend == build
        solver.add_clauses(clauses)
        status = solver.solve()
        assert status is not SolveResult.UNKNOWN
        return status

    def incremental(build):
        cnf = _random_3sat(80, 3.0, seed=3)
        solver = builds[build]()
        solver.add_clauses(cnf.clauses)
        rng = random.Random(5)
        for _ in range(10):
            assumptions = [rng.choice([1, -1]) * rng.randint(1, 80)
                           for _ in range(3)]
            assert solver.solve(assumptions) is not SolveResult.UNKNOWN

    def measure():
        table = {}
        for name, clauses in workloads.items():
            times = {}
            verdicts = set()
            for build in builds:
                verdicts.add(one_shot(build, clauses))   # warm-up
                start = _time.perf_counter()
                verdicts.add(one_shot(build, clauses))
                times[build] = _time.perf_counter() - start
            assert len(verdicts) == 1, (name, verdicts)
            table[name] = times
        times = {}
        for build in builds:
            start = _time.perf_counter()
            incremental(build)
            times[build] = _time.perf_counter() - start
        table["incremental_assumptions"] = times
        return table

    table = benchmark(measure)
    interpreted_total = sum(t["interpreted"] for t in table.values())
    compiled_total = sum(t["compiled"] for t in table.values())
    aggregate = interpreted_total / max(compiled_total, 1e-9)
    _emit_payload = {
        f"{name}_{build}_s": round(seconds, 6)
        for name, times in table.items()
        for build, seconds in times.items()
    }
    speedups = {name: times["interpreted"] / max(times["compiled"], 1e-9)
                for name, times in table.items()}
    _emit_payload.update({f"{name}_speedup": round(speedup, 2)
                          for name, speedup in speedups.items()})
    try:
        import _emit
        _emit.record(aggregate_speedup=round(aggregate, 2),
                     guard_min_speedup=6.0,
                     guard_min_workload_speedup=1.5, **_emit_payload)
    except ImportError:      # pytest run without benchmarks/ on path
        pass
    assert aggregate >= 6.0, (
        f"compiled kernel only {aggregate:.2f}x over interpreted "
        f"(guard: >=6x aggregate)")
    slow = {name: round(speedup, 2) for name, speedup in speedups.items()
            if speedup < 1.5}
    assert not slow, (
        f"compiled kernel below 1.5x over interpreted on {slow} "
        f"(guard: >=1.5x per workload)")


def bench_qdpll_small_2qbf(benchmark):
    rng = random.Random(13)
    n = 14
    cnf = CNF(n)
    for _ in range(30):
        cnf.add_clause([rng.choice([1, -1]) * rng.randint(1, n)
                        for _ in range(3)])
    pcnf = PCNF([("e", tuple(range(1, 8))), ("a", tuple(range(8, 11))),
                 ("e", tuple(range(11, n + 1)))], cnf)

    def run():
        return QdpllSolver(pcnf).solve()

    result = benchmark(run)
    assert result in (SolveResult.SAT, SolveResult.UNSAT)

if __name__ == "__main__":
    import _emit
    raise SystemExit(_emit.run(globals()))
