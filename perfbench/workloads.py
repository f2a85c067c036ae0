"""The benchmark's four workloads.

Each workload is one closed loop with one client: the next query is
sent only after the previous answer arrived, as every caller of
``repro sweep`` / ``check`` / ``bmc`` / ``submit`` blocks on its reply.
A workload builds its inputs from the seed alone, hands the program
only those inputs, and checks every answer after the timed region.
Of each answer it keeps only a small digest (what the check needs), so
the benchmark's own memory does not grow with the length of a run.

Each one is chosen so that one layer does most of its work:

* ``sweep`` — encoding (``logic``) and clause load: ``BmcSession.sweep``
  over the deepest suite instance of each family and four mixer designs
  with a seed-chosen unreachable target, under three methods.
* ``check`` — the spec, reduce and sim layers: cold
  ``check_properties`` over the multi-property suite and the corpus.
* ``race`` — the fork-per-race process manager of
  ``repro.portfolio.race``, over the suite in a seeded order.
* ``serve`` — the asyncio daemon, its fair queue, worker pool and IPC,
  with every submission distinct, so none is answered from the cache.

Nothing here imports ``repro`` at module level: a workload's set-up
time starts before that import.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time
from typing import (Any, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import truth

#: Bound of every ``sweep`` query (the suite-sweep baseline's k).
SWEEP_K = 8
#: (width, rounds) of the E2 mixer designs.
MIXERS = ((8, 3), (10, 4), (12, 4), (16, 6))
#: Steps the mixer orbit is simulated for when choosing a target it
#: never visits; any bound up to this many steps is then unreachable.
MIXER_HORIZON = 64
SWEEP_METHODS = ("sat-incremental", "sat-unroll", "jsat")

#: The race lanes.  One lane: with two, the answering solver is
#: whichever finishes first, and with it the answer's peak clause-DB
#: size (1,138 literals when jsat wins counter6-fill-k56, 25,851 when
#: sat-incremental does), so peak_db_literals would not repeat.
RACE_METHODS = ("jsat",)

SERVE_METHODS = SWEEP_METHODS
SERVE_SEMANTICS = ("exact", "within")


def peak_literals(stats: Dict[str, Any]) -> int:
    """The answering solver's peak clause-database size, in literals,
    from a result's stats (``sat-unroll`` names it differently)."""
    return max(stats.get("peak_db_literals", 0),
               stats.get("solver_peak_db_literals", 0))


class SweepAnswer(NamedTuple):
    status: str
    shortest_k: Optional[int]
    trace: Any


class CheckAnswer(NamedTuple):
    verdicts: Dict[str, str]
    sim_hits: int


class RaceAnswer(NamedTuple):
    status: str
    winner: Optional[str]
    peak: int
    lane_seconds: Optional[float]


class ServeAnswer(NamedTuple):
    state: Optional[str]
    cached: bool
    status: Optional[str]
    peak: int
    worker_seconds: Optional[float]


class Workload:
    """One workload: set-up, passes of queries, and answer checks.

    Attributes set by subclasses:

    ``min_queries``
        Queries a run always completes; fixes the tail percentile.
    ``in_process``
        True when the solvers run in this process, so the
        ``sat.peak_db_literals`` gauge sees them; otherwise the peak is
        read from each answer's stats.
    ``repeats``
        True when every pass sends the same queries, so per-query
        counts must repeat exactly across passes.
    """

    name = ""
    min_queries = 0
    in_process = True
    repeats = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.passes = 0

    def setup(self) -> None:
        """Build the inputs, then start what the queries are sent to."""
        self.prepare()
        self.start()

    def prepare(self) -> None:
        """Build the inputs from the seed (starts nothing)."""
        raise NotImplementedError

    def start(self) -> None:
        """Start the long-lived parts of the program under test."""

    def warm(self) -> None:
        """Finish lazy set-up (imports, the compiled core, the first
        solver) before timing: by default, one pass."""
        for query in self.next_pass():
            self.run(query)

    def next_pass(self) -> List[tuple]:
        """The next pass of queries."""
        raise NotImplementedError

    def run(self, query: tuple) -> Any:
        """Send one query; return the program's answer."""
        raise NotImplementedError

    def digest(self, answer: Any) -> Any:
        """What :meth:`verify` and the reports need of an answer."""
        raise NotImplementedError

    def verify(self, query: tuple, answer: Any) -> Optional[str]:
        """None when the digested ``answer`` is right, else what is
        wrong with it."""
        raise NotImplementedError

    def verify_all(self, records: Sequence[Tuple[tuple, Any]]
                   ) -> List[Optional[str]]:
        """Check every (query, digest) pair; one verdict per pair."""
        return [self.verify(q, a) for q, a in records]

    def key(self, query: tuple) -> Any:
        """What identifies a query across passes."""
        return query[1:]

    def peak(self, answer: Any) -> int:
        """Peak clause-DB literals of a digest (out-of-process)."""
        return 0

    def sim_hits(self, answer: Any) -> int:
        """How many of the digest's verdicts random simulation gave."""
        return 0

    def inputs(self, passes: int = 2) -> List[Any]:
        """The generated inputs of the first ``passes`` passes, as
        plain data (for the seed tests)."""
        return [list(self.next_pass()) for _ in range(passes)]

    def rewind(self) -> None:
        """Make the next passes comparable with the first ones (the
        traced loop follows the untraced one)."""

    def remote_span(self, answer: Any) -> Optional[Tuple[str, str, float]]:
        """For work another process did on a query: the layer whose span
        waited for it, a name for that work, and the seconds the other
        process reported; None when there is none."""
        return None

    def layer_metrics(self, answered: Sequence[Tuple[tuple, Any, float]]
                      ) -> Dict[str, float]:
        """Per-layer metrics read from the traced loop's (query,
        digest, latency seconds) triples, while the program still
        runs."""
        return {}

    def close(self) -> None:
        """Release what set-up started."""

    def _shuffled_pass(self, count: int) -> List[tuple]:
        order = list(range(count))
        self.rng.shuffle(order)
        self.passes += 1
        return [(self.passes, i) for i in order]


# ----------------------------------------------------------------------
class Sweep(Workload):
    """Suite sweep and mixer formula growth under three methods."""

    name = "sweep"
    # 17 designs x 3 methods = 51 queries a pass; four passes.
    min_queries = 204

    def prepare(self) -> None:
        from repro.bmc.session import BmcSession
        from repro.models import build_suite, mixer
        from repro.models._common import value_equals
        self._session = BmcSession
        deepest: Dict[str, Any] = {}
        for inst in build_suite():
            best = deepest.get(inst.family)
            if best is None or inst.k > best.k:
                deepest[inst.family] = inst
        self.designs = [(inst.name, inst.system, inst.final, None)
                        for inst in deepest.values()]
        for width, rounds in MIXERS:
            system, _, _ = mixer.make(width, rounds)
            visited = {mixer.simulate_rounds(width, rounds, j)
                       for j in range(MIXER_HORIZON)}
            value = self.rng.choice([v for v in range(1 << width)
                                     if v not in visited])
            final = value_equals([f"x{i}" for i in range(width)], value)
            self.designs.append((f"mixer{width}x{rounds}", system, final,
                                 value))
        self.queries = [(d, m) for d in range(len(self.designs))
                        for m in SWEEP_METHODS]

    def next_pass(self) -> List[tuple]:
        return [(p,) + self.queries[i]
                for p, i in self._shuffled_pass(len(self.queries))]

    def run(self, query: tuple) -> Any:
        _, design, method = query
        _, system, final, _ = self.designs[design]
        with self._session(system, properties={"target": final}) as s:
            return s.sweep(SWEEP_K, method=method)

    def digest(self, answer: Any) -> SweepAnswer:
        return SweepAnswer(answer.status.name, answer.shortest_k,
                           answer.trace)

    def verify(self, query: tuple, answer: SweepAnswer) -> Optional[str]:
        from repro.system.trace import TraceError
        _, design, method = query
        name, system, final, offorbit = self.designs[design]
        if answer.status not in ("SAT", "UNSAT"):
            return f"{name}/{method}: {answer.status}"
        if offorbit is not None and answer.status != "UNSAT":
            return f"{name}/{method}: reached an unreachable target"
        trace = answer.trace
        if (trace is None) != (answer.status == "UNSAT"):
            return f"{name}/{method}: {answer.status} with trace {trace}"
        if trace is not None:
            if trace.length != answer.shortest_k:
                return (f"{name}/{method}: witness length {trace.length} "
                        f"!= shortest k {answer.shortest_k}")
            try:
                trace.validate(system, final)
            except TraceError as err:
                return f"{name}/{method}: witness does not replay: {err}"
        return None

    def verify_all(self, records):
        out = super().verify_all(records)
        # The three methods must agree on the shortest counterexample.
        groups: Dict[tuple, List[int]] = {}
        for i, (query, _) in enumerate(records):
            groups.setdefault(query[:2], []).append(i)
        for members in groups.values():
            ks = {records[i][1].shortest_k for i in members}
            if len(ks) > 1:
                name = self.designs[records[members[0]][0][1]][0]
                for i in members:
                    out[i] = out[i] or (f"{name}: methods disagree on the "
                                        f"shortest k: {sorted(ks, key=str)}")
        return out

    def inputs(self, passes: int = 2) -> List[Any]:
        return [[d[3] for d in self.designs]] + super().inputs(passes)


# ----------------------------------------------------------------------
class Check(Workload):
    """Cold multi-property checks with reduction and the sim tier."""

    name = "check"
    # 13 suite + 7 corpus instances = 20 queries a pass; 20 passes.
    min_queries = 400

    def prepare(self) -> None:
        from repro.bmc.session import BmcSession
        from repro.models import build_property_suite
        from repro.workloads import ingest
        self._session = BmcSession
        start = time.perf_counter()
        corpus = ingest(truth.CORPUS_DIR)
        self.ingest_seconds = time.perf_counter() - start
        self.instances = build_property_suite() + corpus.instances
        self.table = truth.load()["check"]

    def next_pass(self) -> List[tuple]:
        return self._shuffled_pass(len(self.instances))

    def run(self, query: tuple) -> Any:
        inst = self.instances[query[1]]
        with self._session(inst.system, properties=inst.properties,
                           reduce="auto") as s:
            return s.check_properties(inst.k)

    def digest(self, answer: Any) -> CheckAnswer:
        return CheckAnswer(
            {name: r.verdict.name for name, r in answer.items()},
            sum(1 for r in answer.values() if r.stats.get("sim_presolved")))

    def verify(self, query: tuple, answer: CheckAnswer) -> Optional[str]:
        inst = self.instances[query[1]]
        wrong = truth.check_mismatches(self.table, inst.name,
                                       answer.verdicts)
        return "; ".join(wrong) or None

    def sim_hits(self, answer: CheckAnswer) -> int:
        return answer.sim_hits

    def layer_metrics(self, answered):
        return {"workloads.ingest_ms": self.ingest_seconds * 1e3}


# ----------------------------------------------------------------------
class Race(Workload):
    """Fork-per-race portfolio over the suite, in a seeded order.

    Every pass races the whole suite, so every run sends the same
    queries and the seed sets only their order: with a seeded third
    of the suite, throughput differed by 28% between seeds.
    """

    name = "race"
    # 234 suite instances a pass; two passes.
    min_queries = 468
    in_process = False

    def prepare(self) -> None:
        import repro.portfolio as portfolio
        from repro.models import build_suite
        self._portfolio = portfolio
        self.instances = build_suite()

    def next_pass(self) -> List[tuple]:
        return self._shuffled_pass(len(self.instances))

    def run(self, query: tuple) -> Any:
        inst = self.instances[query[1]]
        # Looked up on the package at call time, so the layer tracer's
        # wrapper is the one called when it is installed.
        return self._portfolio.race(inst.system, inst.final, inst.k,
                                    methods=RACE_METHODS)

    def digest(self, answer: Any) -> RaceAnswer:
        stats = answer.result.stats
        return RaceAnswer(answer.result.status.name, answer.winner,
                          peak_literals(stats),
                          stats.get("lane_wall_seconds"))

    def verify(self, query: tuple, answer: RaceAnswer) -> Optional[str]:
        inst = self.instances[query[1]]
        if answer.status not in ("SAT", "UNSAT"):
            return f"{inst.name}: {answer.status}"
        if (answer.status == "SAT") != inst.expected:
            return (f"{inst.name}: {answer.status}, "
                    f"expected reachable={inst.expected}")
        return None

    def peak(self, answer: RaceAnswer) -> int:
        return answer.peak

    def sim_hits(self, answer: RaceAnswer) -> int:
        return int(answer.winner == "simulation")

    def remote_span(self, answer: RaceAnswer):
        if answer.winner == "simulation" or answer.lane_seconds is None:
            return None
        return "portfolio", "portfolio.lane", answer.lane_seconds

    def layer_metrics(self, answered):
        """The race's own cost (its wall time minus the lane's) and the
        share of races the simulation tier settled."""
        overheads = [seconds - answer.lane_seconds
                     for _, answer, seconds in answered
                     if self.remote_span(answer) is not None]
        out = {"portfolio.sim_settled_ratio":
               sum(self.sim_hits(a) for _, a, _ in answered)
               / len(answered)}
        if overheads:
            out["portfolio.race_overhead_ms"] = \
                statistics.median(overheads) * 1e3
        return out


# ----------------------------------------------------------------------
class Serve(Workload):
    """Distinct submissions to a warm daemon over a unix socket."""

    name = "serve"
    # Every run sends all 13 x 3 x 2 x 30 distinct submissions, so the
    # seed sets only their order.
    min_queries = 2340
    in_process = False
    repeats = False

    def __init__(self, seed: int, socket_dir: str = ".") -> None:
        super().__init__(seed)
        self.socket_path = os.path.join(socket_dir,
                                        f"serve-{os.getpid()}.sock")
        self.daemon = self.client = self._thread = None
        self._block = 0

    def prepare(self) -> None:
        """Order the submissions in blocks that each send every
        (family, method, semantics) once.  The bounds rotate through a
        seed-shuffled list, so each block holds every bound two or
        three times and no submission repeats across blocks."""
        from repro.models import FAMILIES
        self.families = list(FAMILIES)
        combos = [(f, m, sem) for f in self.families
                  for m in SERVE_METHODS for sem in SERVE_SEMANTICS]
        ks = list(range(1, truth.SERVE_MAX_K + 1))
        self.rng.shuffle(ks)
        self.blocks = []
        for b in range(len(ks)):
            block = [(f, ks[(b + c) % len(ks)], m, sem)
                     for c, (f, m, sem) in enumerate(combos)]
            self.rng.shuffle(block)
            self.blocks.append(block)
        self.reach = truth.load()["reach"]

    def start(self) -> None:
        from repro.serve import ServeClient, ServeDaemon
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self.daemon = ServeDaemon(socket_path=self.socket_path, jobs=1)
        self._thread = threading.Thread(target=self.daemon.run,
                                        name="perfbench-daemon",
                                        daemon=True)
        self._thread.start()
        # The socket file appears at bind(), a moment before listen().
        deadline = time.monotonic() + 30.0
        while self.client is None:
            try:
                self.client = ServeClient(socket_path=self.socket_path,
                                          timeout=120.0)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline \
                        or not self._thread.is_alive():
                    raise RuntimeError("serve daemon never started "
                                       "listening") from None
                time.sleep(0.005)
        self.client.ping()

    def warm(self) -> None:
        """Load every family and method into the daemon and its worker
        with k=0 submissions, which the timed queries never repeat."""
        for family in self.families:
            for method in SERVE_METHODS:
                self.client.run(family, 0, method=method)

    def rewind(self) -> None:
        """Restart the daemon with an empty cache and send the blocks
        again from the first."""
        self.close()
        self.start()
        self.warm()
        self._block = 0

    def next_pass(self) -> List[tuple]:
        """The next block; after the last one the daemon restarts
        (between passes, so outside every timed pass)."""
        if self._block == len(self.blocks):
            self.rewind()
        self._block += 1
        self.passes += 1
        return [(self.passes,) + q for q in self.blocks[self._block - 1]]

    def run(self, query: tuple) -> Any:
        _, family, k, method, semantics = query
        return self.client.run(family, k, method=method,
                               semantics=semantics)

    def digest(self, answer: Any) -> ServeAnswer:
        result = answer.get("result") or {}
        return ServeAnswer(answer.get("state"), bool(answer.get("cached")),
                           result.get("status"),
                           peak_literals(result.get("stats", {})),
                           result.get("wall_seconds"))

    def verify(self, query: tuple, answer: ServeAnswer) -> Optional[str]:
        _, family, k, method, semantics = query
        label = f"{family} k={k} {method} {semantics}"
        if answer.cached:
            return f"{label}: answered from the cache"
        if answer.state != "done" or answer.status not in ("SAT", "UNSAT"):
            return f"{label}: {answer.state} {answer.status}"
        want = truth.reach_verdict(self.reach, family, k, semantics)
        if (answer.status == "SAT") != want:
            return f"{label}: {answer.status}, expected reachable={want}"
        return None

    def peak(self, answer: ServeAnswer) -> int:
        return answer.peak

    def remote_span(self, answer: ServeAnswer):
        if answer.cached or answer.worker_seconds is None:
            return None
        return "serve", "serve.worker", answer.worker_seconds

    def layer_metrics(self, answered, probes: int = 40):
        """The daemon's own cost (client latency minus the worker's
        seconds), then the last ``probes`` submissions sent again: their
        latency, and the share that came back from the cache with the
        same verdict.  The last ones all went to the running daemon."""
        out = {"serve.overhead_ms": statistics.median(
            seconds - (answer.worker_seconds or 0.0)
            for _, answer, seconds in answered) * 1e3}
        latencies, hits = [], 0
        for query, first, _ in answered[-probes:]:
            start = time.perf_counter()
            again = self.digest(self.run(query))
            latencies.append(time.perf_counter() - start)
            hits += again.cached and again.status == first.status
        out["serve.cache_hit_ms"] = statistics.median(latencies) * 1e3
        out["serve.cache_hit_ratio"] = hits / len(latencies)
        return out

    def close(self) -> None:
        if self.client is not None:
            try:
                self.client.shutdown()
            finally:
                self.client.close()
                self.client = None
        if self._thread is not None:
            self._thread.join(timeout=60.0)
            self._thread = None
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)


WORKLOADS = {cls.name: cls for cls in (Sweep, Check, Race, Serve)}
