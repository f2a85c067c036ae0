"""Micro-benchmarks of the substrate solvers.

Not a paper artifact — these keep the CDCL/QDPLL substrates honest
(throughput regressions would silently distort E1/E4/E5 comparisons).
"""

import random

from repro.logic.cnf import CNF
from repro.qbf import PCNF, QdpllSolver
from repro.sat import CdclSolver, SolveResult


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
        solver = CdclSolver()
        solver.add_clauses(cnf.clauses)
        return solver.solve()

    result = benchmark(run)
    assert result is SolveResult.SAT


def bench_cdcl_random_3sat_phase_transition(benchmark):
    cnf = _random_3sat(60, 4.26, seed=7)

    def run():
        solver = CdclSolver()
        solver.add_clauses(cnf.clauses)
        return solver.solve()

    result = benchmark(run)
    assert result in (SolveResult.SAT, SolveResult.UNSAT)


def bench_cdcl_pigeonhole(benchmark):
    def run():
        solver = CdclSolver()
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
    solver = CdclSolver()
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


def bench_kernel_vs_reference_speedup(benchmark):
    """Perf guard: the kernel engine must aggregate >= 5x over the
    reference across the CDCL micro workloads above.

    Records per-workload wall seconds and speedups via
    :func:`_emit.record` so the ``--json`` artifact carries the full
    table CI tracks run-over-run.
    """
    import time as _time

    from repro.sat.kernel import KernelSolver

    engines = {"reference": CdclSolver, "kernel": KernelSolver}

    workloads = {
        "random_3sat": _random_3sat(120, 3.5, seed=11).clauses,
        "phase_transition": _random_3sat(60, 4.26, seed=7).clauses,
        "pigeonhole_6": _pigeonhole_clauses(6),
    }

    def one_shot(engine, clauses):
        solver = engines[engine]()
        solver.add_clauses(clauses)
        status = solver.solve()
        assert status is not SolveResult.UNKNOWN
        return status

    def incremental(engine):
        cnf = _random_3sat(80, 3.0, seed=3)
        solver = engines[engine]()
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
            for engine in ("reference", "kernel"):
                verdicts = {one_shot(engine, clauses)}   # warm-up
                start = _time.perf_counter()
                verdicts.add(one_shot(engine, clauses))
                times[engine] = _time.perf_counter() - start
                assert len(verdicts) == 1
            table[name] = times
        times = {}
        for engine in ("reference", "kernel"):
            start = _time.perf_counter()
            incremental(engine)
            times[engine] = _time.perf_counter() - start
        table["incremental_assumptions"] = times
        return table

    table = benchmark(measure)
    ref_total = sum(t["reference"] for t in table.values())
    kernel_total = sum(t["kernel"] for t in table.values())
    aggregate = ref_total / max(kernel_total, 1e-9)
    _emit_payload = {
        f"{name}_{engine}_s": round(seconds, 6)
        for name, times in table.items()
        for engine, seconds in times.items()
    }
    _emit_payload.update({
        f"{name}_speedup": round(
            times["reference"] / max(times["kernel"], 1e-9), 2)
        for name, times in table.items()
    })
    try:
        import _emit
        _emit.record(aggregate_speedup=round(aggregate, 2),
                     guard_min_speedup=5.0, **_emit_payload)
    except ImportError:      # pytest run without benchmarks/ on path
        pass
    assert aggregate >= 5.0, (
        f"kernel engine only {aggregate:.2f}x over reference "
        f"(guard: >=5x aggregate)")


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
