#!/usr/bin/env python3
"""Debugging a cache-coherence protocol with traces and netlist I/O.

A protocol-verification session on the two-agent MSI model:

1. reach interesting protocol states (cache 0 modified; both shared)
   and display the witness waveforms, including the bus inputs;
2. prove the coherence invariant (no M+M, no M+S) by induction;
3. round-trip the design through AIGER ASCII — the exchange format of
   the hardware model-checking community — and re-verify on the
   re-imported netlist, plus a peek at the ISCAS-89 ``.bench`` reader.

Run:  python examples/coherence_debugging.py
"""

from repro.bmc import BmcSession, prove_by_induction
from repro.models import cache_msi
from repro.sat.types import SolveResult
from repro.system import parse_aiger, parse_bench, write_aiger


def main() -> None:
    # -- 1. reach protocol states and show how the bus got us there.
    for target, label in (("m0", "cache 0 in M"),
                          ("both-s", "both caches in S")):
        system, final, depth = cache_msi.make(target)
        with BmcSession(system, properties={"target": final}) as session:
            result = session.check(depth, method="jsat")
        assert result.status is SolveResult.SAT
        print(f"[{label}] reachable at k={depth}; witness states:")
        print("  " + result.trace.format(["m0", "s0", "m1", "s1"])
              .replace("\n", "\n  "))
        inputs = result.trace.inputs
        for step, step_inputs in enumerate(inputs):
            fired = [k for k, v in sorted(step_inputs.items()) if v]
            print(f"  step {step}: bus inputs high: {fired or ['-']}")
        print()

    # -- 2. the coherence invariant holds at all depths.
    system, incoherent, _ = cache_msi.make_coherence_check()
    proof = prove_by_induction(system, incoherent, max_k=8)
    print(f"[invariant] M/M and M/S exclusion: {proof.status} "
          f"(induction depth k={proof.k})\n")
    assert proof.status == "proved"

    # -- 3. netlist I/O round trip.
    circuit = cache_msi.make_circuit()
    aiger_text = write_aiger(circuit)
    print(f"[aiger] exported {circuit.name}: "
          f"{aiger_text.splitlines()[0]!r} "
          f"({len(aiger_text.splitlines())} lines)")
    reimported = parse_aiger(aiger_text)
    system2 = reimported.to_transition_system()
    _, final, depth = cache_msi.make("m0")
    with BmcSession(system2, properties={"target": final}) as session:
        result = session.check(depth, method="sat-unroll")
    print(f"[aiger] re-imported netlist verifies the same: "
          f"{result.status.name} at k={depth}\n")

    bench_text = """
    # tiny .bench netlist (ISCAS-89 style)
    INPUT(req)
    OUTPUT(busy)
    state = DFF(nxt)
    nxt   = OR(req, state)
    busy  = BUFF(state)
    """
    bench_circuit = parse_bench(bench_text, "latch-demo")
    states = bench_circuit.simulate([{"req": True}, {"req": False}])
    print(f"[bench] parsed {bench_circuit.name}: latch sticks once "
          f"requested -> {[s['state'] for s in states]}")


if __name__ == "__main__":
    main()
