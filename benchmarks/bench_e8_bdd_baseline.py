"""E8 — the classical baselines' memory behaviour (paper §1).

The introduction motivates BMC by the memory explosion of symbolic
model checking: "BDD-based techniques, SAT-based methods for image
computation ... and SAT-based reachability analysis based on
'all-solutions' SAT solvers ... all suffer from the memory explosion
problem on modern test cases."

This bench shows both baselines working on a friendly design and
blowing through a node/blocking budget on a dense one — while jSAT
answers the same deep query within a constant-size clause database.
"""

from repro.bdd import BddReachability
from repro.bmc import AllSatReachability, BmcSession
from repro.logic import expr as ex
from repro.models import counter, mixer
from repro.sat.types import SolveResult


def bench_e8_bdd_friendly_vs_dense(benchmark):
    def run():
        out = {}
        friendly, _, _ = counter.make(8, 1)
        reach = BddReachability(friendly, max_nodes=500_000)
        out["friendly_states"] = reach.count_reachable()
        out["friendly_nodes"] = reach.manager.size()

        dense, _, _ = mixer.make(12, 4)
        blown = BddReachability(dense, max_nodes=30_000)
        try:
            blown.reachable_fixpoint()
            out["dense_blowup"] = False
        except MemoryError:
            out["dense_blowup"] = True
        out["dense_nodes"] = blown.manager.size()

        target = ex.var("x11")
        with BmcSession(dense, properties={"target": target}) as session:
            jsat = session.check(24, method="jsat")
        out["jsat_status"] = jsat.status
        out["jsat_peak"] = jsat.stats["peak_db_literals"]
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"counter(8): {out['friendly_states']} reachable states in "
          f"{out['friendly_nodes']} BDD nodes")
    print(f"mixer(12,4): BDD node budget exceeded = "
          f"{out['dense_blowup']} ({out['dense_nodes']} nodes)")
    print(f"jsat on the same dense design, k=24: "
          f"{out['jsat_status'].name} with peak {out['jsat_peak']} "
          f"clause-literals")
    assert out["friendly_states"] == 256
    assert out["dense_blowup"]
    assert out["jsat_status"] is not SolveResult.UNKNOWN
    assert out["jsat_peak"] < 30_000


def bench_e8_allsat_blocking_growth(benchmark):
    """All-solutions enumeration pays per enumerated state."""
    def run():
        system, _, _ = counter.make(6, 1)
        asr = AllSatReachability(system)
        reached, iterations = asr.reachable_fixpoint()
        return len(reached), iterations, asr.total_blocking_literals

    states, iterations, peak = benchmark.pedantic(run, rounds=1,
                                                  iterations=1)
    print()
    print(f"counter(6): {states} states in {iterations} iterations, "
          f"total blocking literals {peak}")
    assert states == 64
    # Blocking clauses scale with the enumerated set — the §1 blow-up.
    assert peak >= states

if __name__ == "__main__":
    import _emit
    raise SystemExit(_emit.run(globals()))
