"""Ground-truth tables the benchmark checks answers against.

Building the explicit-state oracle for the largest suite family takes
close to a minute, far too long to repeat on every run, so the verdicts
are derived once from :class:`repro.system.oracle.ExplicitOracle` and
committed as ``truth.json``:

* ``reach`` — for the first system of every suite family (the system
  the serve daemon answers for a family name), whether the family's
  target is reachable in exactly k steps, for k = 0..``SERVE_MAX_K``;
* ``check`` — for every instance of the ``check`` workload, each
  property's verdict at the instance's bound, from
  :func:`repro.spec.check_explicit`.

Regenerate after a change to the model suite or the corpus::

    python3 perfbench/truth.py
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Mapping

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRUTH_FILE = os.path.join(HERE, "truth.json")
CORPUS_DIR = os.path.join(ROOT, "examples", "corpus")

#: Largest bound the serve workload submits.
SERVE_MAX_K = 30


def load() -> Dict[str, dict]:
    """The committed tables."""
    with open(TRUTH_FILE) as fh:
        return json.load(fh)


def reach_verdict(reach: Mapping[str, List[bool]], family: str, k: int,
                  semantics: str) -> bool:
    """Is the family's target reachable at bound k ("exact" or
    "within" semantics)?"""
    exact = reach[family]
    return any(exact[:k + 1]) if semantics == "within" else exact[k]


def check_mismatches(table: Mapping[str, Mapping[str, str]],
                     instance: str,
                     verdicts: Mapping[str, str]) -> List[str]:
    """Every property of ``instance`` whose verdict differs from the
    table, as readable lines (empty when all agree)."""
    expected = table.get(instance)
    if expected is None:
        return [f"{instance}: no verdicts on record"]
    out = []
    for name in sorted(set(expected) | set(verdicts)):
        want, got = expected.get(name), verdicts.get(name)
        if want != got:
            out.append(f"{instance}/{name}: expected {want}, got {got}")
    return out


def first_systems():
    """The first suite instance of every family, in suite order."""
    from repro.models import build_suite
    first = {}
    for inst in build_suite():
        first.setdefault(inst.family, inst)
    return first


def check_instances():
    """The ``check`` workload's instances: one multi-property instance
    per family, then every corpus target."""
    from repro.models import build_property_suite
    from repro.workloads import ingest
    return build_property_suite() + ingest(CORPUS_DIR).instances


def derive_reach(inst, max_k: int = SERVE_MAX_K) -> List[bool]:
    """Exact-k reachability of ``inst.final`` for k = 0..max_k."""
    from repro.system.oracle import ExplicitOracle
    oracle = ExplicitOracle(inst.system)
    targets = oracle.states_satisfying(inst.final)
    return [bool(layer & targets) for layer in oracle.layers(max_k)]


def derive_check(inst) -> Dict[str, str]:
    """Each property's explicit-state verdict at ``inst.k``."""
    from repro.spec import check_explicit
    from repro.system.oracle import ExplicitOracle
    oracle = ExplicitOracle(inst.system)
    return {name: check_explicit(prop, oracle, inst.k).name
            for name, prop in inst.properties.items()}


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tables = {
        "reach": {family: derive_reach(inst)
                  for family, inst in first_systems().items()},
        "check": {inst.name: derive_check(inst)
                  for inst in check_instances()},
    }
    with open(TRUTH_FILE, "w") as fh:
        json.dump(tables, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {TRUTH_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
