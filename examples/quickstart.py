#!/usr/bin/env python3
"""Quickstart: properties and backends through one `BmcSession`.

Builds a 4-bit counter and checks it two ways:

* **named properties over one shared unrolling** — an `Invariant`, a
  `Reachable` target and a bounded-LTL formula, all answered by a
  single incremental solver with per-property activation groups;
* **the paper's decision methods** — the same reachability query
  through every registered backend (formula (1) unrolling, the QBF
  encodings, jSAT), with solver state persisting across calls.

Run:  python examples/quickstart.py
"""

from repro.bmc import BmcSession
from repro.models import counter
from repro.sat.types import Budget
from repro.spec import Invariant, Reachable, parse_spec


def main() -> None:
    system, final, depth = counter.make(width=4, target=9)
    print(f"design: {system.name}  (state bits: {system.num_state_bits}, "
          f"|TR| = {system.trans_size()} DAG nodes)")

    # ------------------------------------------------------------------
    # 1. The specification layer: named properties, one shared unrolling.
    # ------------------------------------------------------------------
    properties = {
        "count9": Reachable(final),              # EF (count == 9)
        "no-count9": Invariant(~final),          # AG !(count == 9) - fails
        "c0-toggles": parse_spec("G (c0 -> X !c0)"),   # spec grammar
    }
    print("\nproperties over one shared unrolling (k = 12):")
    with BmcSession(system, properties=properties) as session:
        for name, result in session.check_properties(12).items():
            evidence = "certificate" if result.conclusive \
                else f"bounded, k={result.k}"
            print(f"  {name:12s} -> {result.verdict.value.upper():9s} "
                  f"({evidence}, {result.seconds * 1e3:5.1f} ms)")

    # ------------------------------------------------------------------
    # 2. The paper's comparison: one reachability query, every method.
    # ------------------------------------------------------------------
    print(f"\nquery: is count==9 reachable in exactly {depth} steps?\n")
    with BmcSession(system, properties={"target": final}) as session:
        for method in ("sat-unroll", "jsat", "qbf"):
            # The general-purpose QBF solver needs a leash (that is the
            # paper's point); the others answer instantly.
            budget = Budget(max_seconds=2.0) if method == "qbf" else None
            result = session.check(depth, method=method, budget=budget)
            print(f"{method:12s} -> {result.status.name:8s} "
                  f"({result.seconds * 1e3:7.1f} ms)")
            if result.trace is not None:
                print(result.trace.format(["c0", "c1", "c2", "c3"]))
            print()

        # Iterative squaring checks power-of-two bounds; with
        # self-loops it answers "within k" for any k (here: within
        # 16 >= 9 -> reachable).
        result = session.check(16, method="qbf-squaring",
                               semantics="within",
                               budget=Budget(max_seconds=10.0))
        print(f"qbf-squaring (within 16) -> {result.status.name} "
              f"({result.seconds * 1e3:.1f} ms, "
              f"{result.stats['alternations']} quantifier alternations)")

        # Bound sweep: the session's incremental solver walks k = 0..12
        # and finds the shortest counterexample without re-encoding a
        # single frame twice; on_bound streams per-bound progress.
        swept = session.sweep(12, method="sat-incremental",
                              on_bound=lambda b: print(
                                  f"  bound {b.k}: {b.status.name}"))
        print(f"\nsweep 0..12 (sat-incremental) -> shortest cex at "
              f"k={swept.shortest_k} after {swept.time_to_hit * 1e3:.1f} ms "
              f"({len(swept.per_bound)} bounds checked)")


if __name__ == "__main__":
    main()
