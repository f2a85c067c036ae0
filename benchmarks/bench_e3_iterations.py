"""E3 — iteration counts: linear deepening vs iterative squaring.

Paper §2: squaring "allows reducing the number of iterations to be as
the number of the state encoding variables", i.e. logarithmic in the
bound, at the price of deeper quantifier alternation; the self-loop
transformation recovers non-power-of-two bounds.
"""

import math

from repro.harness.experiments import run_e3
from repro.models import shift_register
from repro.bmc import BmcSession


def bench_e3_iterations(benchmark):
    data, report = benchmark.pedantic(
        lambda: run_e3(ring_length=14), rounds=1, iterations=1)
    print()
    print(report)
    depth = data["depth"]
    assert data["linear_found"] and data["squaring_found"]
    # Linear: depth+1 iterations (k = 0..depth).
    assert data["linear_iterations"] == depth + 1
    # Squaring: about log2(depth) iterations.
    assert data["squaring_iterations"] <= math.ceil(math.log2(depth)) + 2
    assert data["squaring_iterations"] < data["linear_iterations"]


def bench_e3_schedule_scaling(benchmark):
    """Iteration counts across increasing depths: log vs linear."""

    def sweep():
        rows = []
        for length in (6, 10, 14, 18):
            system, final, depth = shift_register.make(length)
            with BmcSession(system,
                            properties={"target": final}) as session:
                _, linear = session.find_reachable(depth,
                                                   strategy="linear")
                _, squaring = session.find_reachable(depth,
                                                     strategy="squaring")
            rows.append((depth, len(linear), len(squaring)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("depth  linear_iters  squaring_iters")
    for depth, lin, sq in rows:
        print(f"{depth:5d}  {lin:12d}  {sq:14d}")
    # Linear grows proportionally to depth; squaring stays near log.
    depths = [r[0] for r in rows]
    linears = [r[1] for r in rows]
    squarings = [r[2] for r in rows]
    assert linears == [d + 1 for d in depths]
    assert all(sq <= math.ceil(math.log2(d)) + 2
               for d, sq in zip(depths, squarings))

if __name__ == "__main__":
    import _emit
    raise SystemExit(_emit.run(globals()))
