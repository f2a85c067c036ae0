"""Run the benchmark on several seeds and report each side's spread.

Usage (from any directory)::

    python3 perfbench/compare.py --workload sweep --seeds 1-10 PARENT [CHANGE]

``PARENT`` and ``CHANGE`` are checkouts of the repository.  Each seed
runs once in every checkout, alternating which checkout goes first.
For every end-to-end metric the report gives each side's median and
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, flagged when it is wider than a
third of the metric's bound in ``BENCHMARK.json``.  With two checkouts
it adds how many seeds the change won, ties counting for neither, and
the change of the median as a share of the parent's.

Every run also reports its machine probe: the median time of a fixed
pure-Python loop taken between queries (``run.machine_probe``).  On a
shared VM the whole machine runs about a third faster for stretches of
seconds to minutes; a run that falls in one is marked ``fast`` (its
probe more than ``PROBE_OFF`` below the side's median probe), ``slow``
the other way.  For every time metric the report adds the spread of
the values scaled by the run's probe (``normalised``): when the raw
spread is wide and the normalised one is narrow, the machine moved,
not the program.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from typing import Dict, List

from stats import spread

#: A run's probe this far off its side's median marks it fast or slow.
PROBE_OFF = 0.10

#: Units of the metrics that scale with the machine's speed.
TIME_UNITS = {"ms": 1, "s": 1, "1/s": -1}


def seed_list(text: str) -> List[int]:
    """``"1-10"`` or ``"1,4,9"`` as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: str, command: List[str], workload: str, seed: int,
             seconds: int) -> Dict[str, float]:
    """One benchmark run; its end-to-end metric values and, under
    ``probe_ms``, its machine probe."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout} seed {seed}: {result['failed']} of "
                           f"{result['attempted']} queries failed")
    out = {name: m["value"] for name, m in result["metrics"].items()}
    probe = re.search(r"^machine: probe_ms=(\S+)", proc.stdout, re.M)
    if probe is None:
        raise RuntimeError(f"{checkout} seed {seed}: no machine probe line")
    out["probe_ms"] = float(probe.group(1))
    return out


def normalised(values: List[float], probes: List[float], power: int
               ) -> List[float]:
    """``values`` as if every run's probe had been the median probe:
    times scale with the probe (``power`` 1), rates against it (-1)."""
    middle = statistics.median(probes)
    return [v * (middle / p) ** power for v, p in zip(values, probes)]


def machine_state(probe: float, probes: List[float]) -> str:
    """``fast``, ``slow`` or ``""``: a run's probe against its side's."""
    middle = statistics.median(probes)
    if probe < middle * (1 - PROBE_OFF):
        return "fast"
    if probe > middle * (1 + PROBE_OFF):
        return "slow"
    return ""


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    with open(os.path.join(checkouts[0], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values: List[Dict[str, List[float]]] = [{} for _ in checkouts]
    for i, seed in enumerate(seed_list(args.seeds)):
        order = list(range(len(checkouts)))
        if i % 2:
            order.reverse()
        for side in order:
            got = run_once(checkouts[side], bench["command"], args.workload,
                           seed, seconds)
            for name, value in got.items():
                values[side].setdefault(name, []).append(value)
            print(f"seed {seed} side {side}: " + ", ".join(
                f"{n}={v:.4g}" for n, v in got.items()), flush=True)

    print(f"\n{args.workload}: {len(seed_list(args.seeds))} seeds, "
          f"{seconds} s runs")
    for side, per_metric in enumerate(values):
        probes = per_metric["probe_ms"]
        states = [machine_state(p, probes) for p in probes]
        s = spread(probes)
        print(f"{'probe_ms':18s} side {side}  median {s['median']:12.5g}  "
              f"spread {s['iqr_share']:7.2%}  fast runs "
              f"{states.count('fast')}, slow runs {states.count('slow')}")
    for name, meta in metrics.items():
        for side, per_metric in enumerate(values):
            s = spread(per_metric[name])
            flag = "  WIDE" if s["iqr_share"] > meta["bound"] / 3 else ""
            line = (f"{name:18s} side {side}  median {s['median']:12.5g}  "
                    f"q1 {s['q1']:12.5g}  q3 {s['q3']:12.5g}  "
                    f"spread {s['iqr_share']:7.2%} "
                    f"(bound {meta['bound']:.0%}){flag}")
            if meta["unit"] in TIME_UNITS:
                scaled = normalised(per_metric[name], per_metric["probe_ms"],
                                    TIME_UNITS[meta["unit"]])
                line += f"  normalised {spread(scaled)['iqr_share']:7.2%}"
            print(line)
        if len(values) == 2:
            higher = meta["better"] == "higher"
            pairs = list(zip(values[0][name], values[1][name]))
            wins = sum((b > a) if higher else (b < a) for a, b in pairs)
            parent = spread(values[0][name])["median"]
            change = spread(values[1][name])["median"]
            shift = (change - parent) / parent if parent else 0.0
            print(f"{'':18s} change won {wins} of {len(pairs)} seeds; "
                  f"median moved {shift:+.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
