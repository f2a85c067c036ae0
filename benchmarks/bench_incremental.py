"""Incremental bound-sweep benchmarks: one solver vs a fresh solver per bound.

Two measurements back the incremental driver's claim:

* **suite sweep speedup** — the deepest instance of every suite family
  swept to max_k = 8 with per-bound ``sat-unroll`` (re-encode, fresh
  solver, all learnt clauses discarded) vs ``sat-incremental`` (one
  solver, one new transition frame per bound, final constraints retired
  through assumption groups).  Statuses must agree bound-for-bound and
  every witness must replay; the incremental sweep must be >= 2x faster
  in aggregate.
* **formula-growth sweep** — the E2 mixer designs, whose transition
  relation dwarfs the state vector, with an off-orbit (unreachable)
  target so every sweep runs the full 9 bounds.  This is the regime
  where re-encoding k frames per bound is most wasteful: the naive
  sweep encodes O(K^2) frames in total, the incremental one O(K).
"""

import time

from repro.bmc import BmcSession
from repro.models import build_suite, mixer
from repro.models._common import value_equals
from repro.sat.types import SolveResult

MAX_K = 8


def _deepest_per_family():
    best = {}
    for instance in build_suite():
        incumbent = best.get(instance.family)
        if incumbent is None or instance.k > incumbent.k:
            best[instance.family] = instance
    return [(i.name, i.system, i.final) for i in best.values()]


def _timed_sweep(system, final, method):
    start = time.perf_counter()
    with BmcSession(system, properties={"target": final}) as session:
        result = session.sweep(MAX_K, method=method)
    return result, time.perf_counter() - start


def _compare(designs):
    """Run both sweeps over the designs; return rows + totals."""
    rows = []
    total_naive = total_incremental = 0.0
    for name, system, final in designs:
        naive, naive_s = _timed_sweep(system, final, "sat-unroll")
        incremental, incremental_s = _timed_sweep(system, final,
                                                  "sat-incremental")
        # Identical verdicts at every bound, and real witnesses.
        assert [b.status for b in naive.per_bound] \
            == [b.status for b in incremental.per_bound], name
        assert naive.shortest_k == incremental.shortest_k, name
        for swept in (naive, incremental):
            if swept.trace is not None:
                swept.trace.validate(system, final)
                assert swept.trace.length == swept.shortest_k
        total_naive += naive_s
        total_incremental += incremental_s
        rows.append((name, len(incremental.per_bound),
                     incremental.status.name, naive_s, incremental_s))
    return rows, total_naive, total_incremental


def _print_rows(rows, total_naive, total_incremental):
    print()
    print(f"{'design':26s} {'bounds':>6s} {'verdict':>8s} "
          f"{'per-bound ms':>12s} {'incremental ms':>14s} {'speedup':>8s}")
    for name, bounds, verdict, naive_s, incremental_s in rows:
        ratio = naive_s / incremental_s if incremental_s > 0 else 0.0
        print(f"{name:26s} {bounds:>6d} {verdict:>8s} "
              f"{naive_s * 1e3:>12.1f} {incremental_s * 1e3:>14.1f} "
              f"{ratio:>7.2f}x")
    speedup = total_naive / total_incremental if total_incremental else 0.0
    print(f"{'TOTAL':26s} {'':6s} {'':8s} {total_naive * 1e3:>12.1f} "
          f"{total_incremental * 1e3:>14.1f} {speedup:>7.2f}x")
    return speedup


def bench_incremental_suite_sweep(benchmark):
    """Suite sweep at max_k=8: incremental must be >= 2x faster overall."""
    designs = _deepest_per_family()

    rows, total_naive, total_incremental = benchmark.pedantic(
        lambda: _compare(designs), rounds=1, iterations=1)
    speedup = _print_rows(rows, total_naive, total_incremental)
    assert speedup >= 2.0


def _off_orbit_target(width, rounds, horizon=64):
    """A state value the deterministic mixer never visits early on."""
    visited = {mixer.simulate_rounds(width, rounds, j)
               for j in range(horizon)}
    value = next(v for v in range(1 << width) if v not in visited)
    return value_equals([f"x{i}" for i in range(width)], value)


def bench_incremental_formula_growth(benchmark):
    """E2 regime: big TR, full-length UNSAT sweeps (all 9 bounds)."""
    designs = []
    for width, rounds in ((8, 3), (10, 4), (12, 4)):
        system, _, _ = mixer.make(width, rounds)
        designs.append((f"mixer{width}x{rounds}-offorbit", system,
                        _off_orbit_target(width, rounds)))

    rows, total_naive, total_incremental = benchmark.pedantic(
        lambda: _compare(designs), rounds=1, iterations=1)
    speedup = _print_rows(rows, total_naive, total_incremental)
    # Every sweep must have refuted all 9 bounds.
    assert all(bounds == MAX_K + 1 and verdict == SolveResult.UNSAT.name
               for _, bounds, verdict, _, _ in rows)
    assert speedup >= 2.0

if __name__ == "__main__":
    import _emit
    raise SystemExit(_emit.run(globals()))
