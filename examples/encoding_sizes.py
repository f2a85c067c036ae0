#!/usr/bin/env python3
"""The paper's space story, measured live.

Sweeps the bound k on a design whose transition relation dwarfs its
state vector (the regime the paper targets) and prints the resident
formula size of each method, plus the peak solver memory of
unrolling vs jSAT on an actual solve — the content of experiments E2
and E6.

Run:  python examples/encoding_sizes.py
"""

from repro.bmc import BmcSession, growth_table
from repro.harness import format_growth
from repro.logic import expr as ex
from repro.models import mixer


def main() -> None:
    system, final, _ = mixer.make(10, 4)
    n = system.num_state_bits
    print(f"design: {system.name}; |TR| = {system.trans_size()} DAG nodes "
          f"vs only n = {n} state bits\n")

    bounds = [1, 2, 4, 8, 16, 32, 64]
    table = growth_table(system, final, bounds)
    print("resident formula size (literal occurrences) per bound k:")
    print(format_growth(table, metric="literals"))
    print()
    print("reading guide (paper §2):")
    print(" * sat-unroll grows ~|TR| per step (k copies of TR);")
    print(" * qbf (formula 2) grows ~n per step — TR appears once;")
    print(" * qbf-squaring (formula 3) grows ~n per *doubling*;")
    print(" * jsat holds a constant clause database.\n")

    # Peak solver memory while actually deciding a query (E6).
    circuit = mixer.make_circuit(10, 4, input_bits=3)
    nd_system = circuit.to_transition_system()
    target = ex.var("x9")
    print("peak clause-database literals while solving (k = 32):")
    with BmcSession(nd_system, properties={"target": target}) as session:
        unroll = session.check(32, method="sat-unroll")
        jsat = session.check(32, method="jsat")
    print(f"  sat-unroll: {unroll.stats['solver_peak_db_literals']:>8d} "
          f"({unroll.status.name})")
    print(f"  jsat:       {jsat.stats['peak_db_literals']:>8d} "
          f"({jsat.status.name})")
    ratio = (unroll.stats['solver_peak_db_literals']
             / max(1, jsat.stats['peak_db_literals']))
    print(f"  -> jSAT uses {ratio:.0f}x less resident formula")


if __name__ == "__main__":
    main()
