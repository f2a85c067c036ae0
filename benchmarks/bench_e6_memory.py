"""E6 — peak resident formula: the title's space-efficiency claim.

Measures the solver clause database (total literal occurrences, the
quantity the paper's 1 GB memory limit bounds) while solving the same
query with the unrolled formula (1) and with jSAT.  The paper's claim:
jSAT's footprint is one TR copy plus per-frame state bookkeeping,
whereas unrolling pays k TR copies plus the learnt clauses over them.
"""

from repro.harness.experiments import run_e6


def bench_e6_memory(benchmark):
    rows, report = benchmark.pedantic(
        lambda: run_e6(width=8, bounds=(4, 8, 16, 32)),
        rounds=1, iterations=1)
    print()
    print(report)
    for row in rows:
        assert row["jsat_peak"] < row["unroll_peak"], row
        # jSAT's peak stays within a small factor of its TR-only base.
        assert row["jsat_peak"] < 8 * row["jsat_base"]
    # Unrolling's peak grows steeply with k; jSAT's barely moves.
    unroll_growth = rows[-1]["unroll_peak"] / rows[0]["unroll_peak"]
    jsat_growth = rows[-1]["jsat_peak"] / max(1, rows[0]["jsat_peak"])
    assert unroll_growth > 4 * jsat_growth


def bench_e6_memory_budget_cliff(benchmark):
    """Under a hard clause-database cap, unrolling dies first.

    The analogue of the paper's 1 GB limit: give both methods the same
    literal cap; the unrolled encoding cannot even be *loaded* at deep
    bounds while jSAT stays comfortably inside.
    """
    from repro.bmc import BmcSession
    from repro.logic import expr as ex
    from repro.models import mixer
    from repro.sat.types import Budget, SolveResult

    # Primary inputs keep the unrolled formula from collapsing under
    # level-0 constant propagation (a fully deterministic design would
    # let the SAT preprocessor sidestep the memory wall).
    circuit = mixer.make_circuit(10, 4, input_bits=3)
    system = circuit.to_transition_system()
    target = ex.var("x9")
    cap = Budget(max_literals=60_000, max_seconds=20.0)

    def run():
        out = {}
        k = 48
        with BmcSession(system, properties={"target": target}) as session:
            out["unroll"] = session.check(k, method="sat-unroll",
                                          budget=cap)
            out["jsat"] = session.check(k, method="jsat", budget=cap)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"unroll: {out['unroll'].status.name}   "
          f"jsat: {out['jsat'].status.name} "
          f"(peak {out['jsat'].stats['peak_db_literals']} lits)")
    # The unrolled formula alone exceeds the cap -> UNKNOWN (memory-out);
    # jSAT decides the query inside the same cap.
    assert out["unroll"].status is SolveResult.UNKNOWN
    assert out["jsat"].status is not SolveResult.UNKNOWN
    assert out["jsat"].stats["peak_db_literals"] < 60_000

if __name__ == "__main__":
    import _emit
    raise SystemExit(_emit.run(globals()))
