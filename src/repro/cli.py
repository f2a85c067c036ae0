"""Command-line interface: ``repro`` / ``repro-bmc`` / ``python -m repro``.

Subcommands
-----------
``solve-cnf FILE``
    Decide a DIMACS CNF with the CDCL solver.
``solve-qbf FILE``
    Decide a QDIMACS QBF (``--backend qdpll|expansion``).
``bmc FAMILY``
    Run a bounded reachability query on a built-in design family
    (``--method``, ``-k``, ``--semantics``); prints the trace on SAT.
    ``--method portfolio`` races sat-unroll and jsat in parallel
    worker processes and reports the winner.
``sweep FAMILY``
    Sweep bounds k = 0..max-k on a built-in design (``--max-k``,
    ``--methods``): per-bound statuses, solver-reuse statistics, and
    the shortest counterexample with its time-to-cex.  The default
    method is ``sat-incremental`` — one solver across all bounds.
``check [FAMILY]``
    Check *named properties* — invariants and bounded-LTL formulas —
    over one shared unrolling.  ``--spec "G !(req0 & req1)"`` (repeat
    for several; optional ``name := formula`` labels) supplies
    properties in the spec grammar; without ``--spec`` the family's
    standard multi-property bundle (or every ``SPEC``/``INVARSPEC`` of
    an ``--smv`` module) is checked.  ``--sweep`` resolves each
    property at its earliest bound and streams progress.
``batch``
    Run a (suite × methods) matrix across a worker pool
    (``--jobs N``), optionally memoized on disk (``--cache DIR``);
    prints the solved-counts table plus per-worker attribution.
``serve`` / ``submit`` / ``status`` / ``cancel``
    BMC as a service.  ``serve --socket PATH`` (or ``--port N``) runs
    the long-lived daemon: a warm worker pool plus result cache behind
    a newline-delimited-JSON protocol with priority queueing,
    per-client fairness, cooperative cancellation and streamed sweep
    progress (see docs/SERVICE.md).  ``submit FAMILY -k N [--wait
    | --follow]`` sends one job, ``status [JOB]`` inspects a job or
    the daemon's stats, ``cancel JOB`` frees the job's worker without
    killing it.
``backends``
    List the backend registry: every registered decision method with
    its capabilities and typed options.  Custom backends registered
    via :func:`repro.bmc.register_backend` appear here — and are
    accepted by ``bmc``/``sweep``/``batch`` — without any CLI edit.
``reduce FAMILY``
    Report the model-reduction pipeline's effect on a family's
    multi-property instance: latches / inputs / TR size before→after
    per property, plus how many distinct cones the properties share.
    ``bmc`` / ``sweep`` / ``check`` / ``batch`` all accept
    ``--reduce`` (default) / ``--no-reduce`` to toggle the pipeline
    on their queries.
``experiment {e1,...,e8}``
    Regenerate one evaluation artifact (scaled budgets by default).
``suite``
    Print the built-in suite composition (the count is derived from
    the live suite, never hardcoded), or — with ``--corpus DIR`` — the
    composition of an ingested model corpus.
``import DIR``
    Ingest a directory of third-party models (ASCII/binary AIGER,
    ``.bench``, ``.smv``) into suite-compatible instances and write a
    fingerprinted manifest (``--manifest FILE``).  ``bmc`` / ``sweep``
    / ``check`` / ``batch`` / ``suite`` accept ``--corpus DIR`` to run
    on ingested models, and ``bmc`` / ``check`` / ``serve`` accept
    ``--no-sim-tier`` to disable the bit-parallel random-simulation
    pre-solve tier (``batch`` enables it with ``--sim-tier``).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from typing import List, Optional

from .bmc.backend import ALL_METHODS, METHODS, registered_backends
from .bmc.session import BmcSession
from .harness import experiments
from .logic.dimacs import parse_dimacs, parse_qdimacs
from .models import FAMILIES, build_suite, suite_summary
from .qbf.expansion import ExpansionSolver
from .qbf.pcnf import PCNF
from .qbf.qdpll import QdpllSolver
from .sat.kernel import make_solver
from .sat.types import Budget, SolveResult
from .telemetry import (MetricsRegistry, Tracer, set_metrics, set_tracer,
                        write_chrome_trace)

__all__ = ["main"]

logger = logging.getLogger(__name__)


class _StderrHandler(logging.Handler):
    """Log handler that resolves ``sys.stderr`` at emit time.

    A plain StreamHandler captures the stream once at construction,
    which breaks under test harnesses (pytest capsys) that swap
    ``sys.stderr`` per test; looking it up per record keeps in-process
    ``main()`` calls observable.
    """

    def emit(self, record: logging.LogRecord) -> None:
        print(self.format(record), file=sys.stderr)


def _setup_logging(verbosity: int) -> None:
    """Configure the ``repro`` logger tree for one CLI invocation.

    WARNING by default, INFO at ``-v``, DEBUG at ``-vv``; messages go
    to stderr so report tables on stdout stay machine-readable.
    """
    package_logger = logging.getLogger("repro")
    if not any(isinstance(h, _StderrHandler)
               for h in package_logger.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        package_logger.addHandler(handler)
        package_logger.propagate = False
    level = (logging.WARNING if verbosity <= 0
             else logging.INFO if verbosity == 1 else logging.DEBUG)
    package_logger.setLevel(level)


def _budget_from_args(args: argparse.Namespace) -> Optional[Budget]:
    if args.timeout is None and args.conflicts is None:
        return None
    return Budget(max_seconds=args.timeout, max_conflicts=args.conflicts)


def _reduce_from_args(args: argparse.Namespace) -> str:
    """Map the --reduce/--no-reduce flag onto the session knob."""
    return "auto" if getattr(args, "reduce", False) else "off"


def _cmd_solve_cnf(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        cnf = parse_dimacs(handle)
    solver = make_solver()
    solver.ensure_vars(cnf.num_vars)
    solver.add_clauses(cnf.clauses)
    start = time.perf_counter()
    result = solver.solve(budget=_budget_from_args(args))
    elapsed = time.perf_counter() - start
    print(f"s {result.name}  ({elapsed:.3f} s, "
          f"{solver.stats.conflicts} conflicts)")
    if result is SolveResult.SAT and args.model:
        lits = [v if val else -v for v, val in sorted(solver.model().items())]
        print("v " + " ".join(map(str, lits)) + " 0")
    return 0 if result is not SolveResult.UNKNOWN else 2


def _cmd_solve_qbf(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        prefix, matrix = parse_qdimacs(handle)
    pcnf = PCNF(prefix, matrix)
    start = time.perf_counter()
    if args.backend == "qdpll":
        result = QdpllSolver(pcnf).solve(budget=_budget_from_args(args))
    else:
        result = ExpansionSolver(pcnf).solve(budget=_budget_from_args(args))
    elapsed = time.perf_counter() - start
    print(f"s {result.name}  ({elapsed:.3f} s, backend={args.backend})")
    return 0 if result is not SolveResult.UNKNOWN else 2


def _cmd_bmc(args: argparse.Namespace) -> int:
    instance = _lookup_instance(args, "bmc")
    if instance is None:
        return 1
    k = args.k if args.k is not None else instance.k
    if args.sim_tier:
        # Pre-solve tier: easy SAT instances die here, before any
        # solver spins up (--no-sim-tier, a miss or a rejected witness
        # go on to --method).
        from .sim import presolve
        sim_out = presolve(instance.system, instance.final, k,
                           semantics=args.semantics)
        if sim_out is not None and sim_out.hit:
            print(f"{instance.name} (k={k}, simulation pre-solve, "
                  f"{args.semantics}): SAT in {sim_out.seconds:.3f} s")
            for key, value in sorted(sim_out.stats.items()):
                print(f"  {key} = {value}")
            print(sim_out.trace.format(
                sorted(instance.system.state_vars)))
            return 0
    options = {}
    if args.method == "portfolio" and args.jobs:
        # --jobs caps the number of raced methods (one process each).
        from .portfolio.race import DEFAULT_RACE_METHODS
        options["portfolio_methods"] = DEFAULT_RACE_METHODS[:args.jobs]
    with BmcSession(instance.system,
                    properties={"target": instance.final},
                    reduce=_reduce_from_args(args),
                    sim_tier=args.sim_tier) as session:
        result = session.check(k, method=args.method,
                               semantics=args.semantics,
                               budget=_budget_from_args(args), **options)
    print(f"{instance.name} (k={k}, {args.method}, {args.semantics}): "
          f"{result.status.name} in {result.seconds:.3f} s")
    for key, value in sorted(result.stats.items()):
        print(f"  {key} = {value}")
    if result.trace is not None:
        print(result.trace.format(sorted(instance.system.state_vars)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .harness.report import format_sweep

    instance = _lookup_instance(args, "sweep")
    if instance is None:
        return 1
    max_k = args.max_k if args.max_k is not None else instance.k
    status = 0
    with BmcSession(instance.system,
                    properties={"target": instance.final},
                    reduce=_reduce_from_args(args)) as session:
        for method in args.methods:
            result = session.sweep(max_k, method=method,
                                   budget=_budget_from_args(args))
            print(f"== {instance.name}: sweep k=0..{max_k}, {method} ==")
            print(format_sweep(result))
            if result.trace is not None:
                print(result.trace.format(
                    sorted(instance.system.state_vars)))
            if result.status is SolveResult.UNKNOWN:
                status = 2
            print()
    return status


def _parse_cli_specs(spec_args: List[str]):
    """Parse repeated ``--spec`` values (optionally ``name := formula``)."""
    from .spec import parse_spec

    properties = {}
    for i, text in enumerate(spec_args):
        name = None
        if ":=" in text:
            name, text = (part.strip() for part in text.split(":=", 1))
        name = name or f"spec{i}"
        if name in properties:
            raise ValueError(f"duplicate spec label {name!r}")
        properties[name] = parse_spec(text)
    return properties


def _cmd_check(args: argparse.Namespace) -> int:
    from .models.suite import build_property_suite
    from .spec import SpecError, Verdict

    if args.corpus is not None and args.smv is not None:
        print("check: --corpus and --smv are mutually exclusive",
              file=sys.stderr)
        return 1
    if args.corpus is not None:
        if args.family is None:
            print("check: --corpus needs a model name (the file stem)",
                  file=sys.stderr)
            return 1
        from .workloads import CorpusError, load_circuit, scan_directory
        try:
            paths = [p for p in scan_directory(args.corpus)
                     if p.stem == args.family]
            if not paths:
                print(f"check: no corpus model {args.family!r} under "
                      f"{args.corpus}", file=sys.stderr)
                return 1
            circuit = load_circuit(paths[0])
        except CorpusError as err:
            print(f"check: {err}", file=sys.stderr)
            return 1
        system = circuit.to_transition_system()
        properties = dict(circuit.properties)
        subject, default_k = circuit.name, 10
    elif (args.family is None) == (args.smv is None):
        print("check: give exactly one of FAMILY or --smv FILE",
              file=sys.stderr)
        return 1
    elif args.smv is not None:
        from .system.smv import parse_smv
        with open(args.smv) as handle:
            circuit = parse_smv(handle.read())
        system = circuit.to_transition_system()
        properties = dict(circuit.properties)
        subject, default_k = circuit.name, 10
    else:
        instances = [i for i in build_property_suite()
                     if i.family == args.family]
        if not instances:
            print(f"unknown family {args.family!r}; "
                  f"available: {', '.join(FAMILIES)}", file=sys.stderr)
            return 1
        instance = instances[0]
        system = instance.system
        properties = dict(instance.properties)
        subject, default_k = instance.name, instance.k
    try:
        if args.spec:
            properties = _parse_cli_specs(args.spec)
        if not properties:
            print("check: no properties (the module declares no specs "
                  "and no --spec was given)", file=sys.stderr)
            return 1
        k = args.k if args.k is not None else default_k
        budget = _budget_from_args(args)
        with BmcSession(system, properties=properties,
                        reduce=_reduce_from_args(args),
                        prover=args.prover,
                        prover_max_k=args.prover_max_k,
                        sim_tier=args.sim_tier) as session:
            if args.sweep:
                # Per-bound progress streams on the logger (stderr,
                # enabled with -v) so stdout stays report-only.
                results = session.sweep_properties(
                    k, budget=budget,
                    on_bound=lambda name, b: logger.info(
                        "[%s] bound %d: %s", name, b.k, b.status.name))
            else:
                results = session.check_properties(k, budget=budget)
    except (SpecError, ValueError) as err:
        print(f"check: {err}", file=sys.stderr)
        return 1
    print(f"== {subject}: {len(results)} properties, bound {k} ==")
    verdicts = set()
    inconclusive = 0
    for name, result in results.items():
        if result.proved:
            evidence = "proved"
        elif result.conclusive:
            evidence = "certificate"
        elif result.verdict is Verdict.HOLDS:
            # A bounded HOLDS is only "no counterexample up to k" —
            # say so instead of printing an unqualified verdict.
            evidence = f"holds up to {result.k} (bounded)"
        else:
            evidence = f"bounded, k={result.k}"
        print(f"{name:24s} {result.verdict.value.upper():9s} "
              f"({evidence}, {result.seconds * 1e3:.1f} ms)  "
              f"{result.prop}")
        if result.trace is not None:
            print(result.trace.format(sorted(system.state_vars)))
        verdicts.add(result.verdict)
        if not result.conclusive:
            inconclusive += 1
    # A definite violation outranks an inconclusive property: CI
    # gating on exit 1 must never miss a real counterexample.
    if Verdict.VIOLATED in verdicts:
        return 1
    if Verdict.UNKNOWN in verdicts:
        return 2
    if args.require_proof and inconclusive:
        print(f"{inconclusive} verdict(s) are bounded only and "
              f"--require-proof is set", file=sys.stderr)
        return 2
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .harness.runner import default_budget, run_matrix, solved_counts
    from .harness.report import (format_solved_counts,
                                 format_worker_attribution)

    if args.corpus is not None:
        from .workloads import CorpusError, ingest
        try:
            instances = ingest(args.corpus).instances
        except CorpusError as err:
            print(f"batch: {err}", file=sys.stderr)
            return 1
        if not instances:
            print(f"batch: no ingestable models under {args.corpus}",
                  file=sys.stderr)
            return 1
    else:
        instances = build_suite()
    if args.family:
        instances = [i for i in instances if i.family in args.family]
        if not instances:
            print(f"no instances in families {args.family}; "
                  f"available: {', '.join(FAMILIES)}", file=sys.stderr)
            return 1
    if args.limit:
        instances = instances[:args.limit]
    budget = _budget_from_args(args)
    if budget is None:
        # Deterministic default (no wall-clock term): solver paths are
        # identical whether cells run serially or on an oversubscribed
        # pool, so batch output matches the serial run cell-for-cell.
        base = default_budget(args.scale)
        budget = Budget(max_conflicts=base.max_conflicts,
                        max_literals=base.max_literals)
    cache = None
    if args.cache:
        from .portfolio.cache import ResultCache
        cache = ResultCache(args.cache)
    start = time.perf_counter()
    results = run_matrix(instances, args.methods, budget=budget,
                         jobs=args.jobs, cache=cache,
                         reduce=_reduce_from_args(args),
                         prover=args.prover,
                         sim_tier=args.sim_tier)
    wall = time.perf_counter() - start
    cpu = sum(c.cpu_seconds for c in results)
    lanes = len(args.methods)
    if args.prover and args.prover not in args.methods:
        lanes += 1
    print(f"== batch: {len(instances)} instances x "
          f"{lanes} methods"
          + (f" (prover lane: {args.prover})" if args.prover else "")
          + f", jobs={args.jobs or 1} ==")
    print(format_solved_counts(solved_counts(results)))
    print()
    print(format_worker_attribution(results))
    print(f"\nwall {wall:.2f} s, worker cpu {cpu:.2f} s "
          f"(speedup proxy {cpu / wall if wall > 0 else 0.0:.2f}x)")
    if cache is not None:
        # hits + misses is the number of lookups this run; len(results)
        # would misread whenever a cell is computed then re-served.
        lookups = cache.hits + cache.misses
        rate = 100.0 * cache.hits / lookups if lookups else 0.0
        print(f"cache: {len(cache)} entries on disk; this run: "
              f"{cache.hits} hits, {cache.misses} misses "
              f"({rate:.0f}% hit rate)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    runners = {
        "e1": lambda: experiments.run_e1(budget_scale=args.scale),
        "e2": lambda: experiments.run_e2(),
        "e3": lambda: experiments.run_e3(),
        "e4": lambda: experiments.run_e4(budget_scale=args.scale),
        "e5": lambda: experiments.run_e5(),
        "e6": lambda: experiments.run_e6(),
        "e7": lambda: experiments.run_e7(budget_scale=args.scale),
        "e8": lambda: experiments.run_e8(),
    }
    _, report = runners[args.which]()
    print(f"== experiment {args.which.upper()} ==")
    print(report)
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    import dataclasses

    def default_repr(field: "dataclasses.Field") -> str:
        if field.default is not dataclasses.MISSING:
            return repr(field.default)
        if field.default_factory is not dataclasses.MISSING:
            return repr(field.default_factory())
        return "<required>"

    print(f"{'name':16s} {'kind':10s} {'incremental':11s} "
          f"{'semantics':14s} {'proves':7s} options")
    for name, cls in registered_backends().items():
        kind = "composite" if cls.composite else "primitive"
        incremental = "native" if cls.native_incremental else "-"
        semantics = ",".join(cls.supported_semantics)
        proves = "yes" if cls.proves_unbounded else "-"
        opts = ", ".join(
            f"{f.name}={default_repr(f)}"
            for f in dataclasses.fields(cls.options_class)) or "-"
        print(f"{name:16s} {kind:10s} {incremental:11s} "
              f"{semantics:14s} {proves:7s} {opts}")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .harness.report import format_reduction
    from .models.suite import build_property_suite
    from .reduce import default_pipeline

    instances = [i for i in build_property_suite()
                 if i.family == args.family]
    if not instances:
        print(f"unknown family {args.family!r}; "
              f"available: {', '.join(FAMILIES)}", file=sys.stderr)
        return 1
    instance = instances[0]
    pipeline = default_pipeline()
    rows = []
    cones = set()
    for name, prop in instance.properties.items():
        reduction = pipeline.reduce(instance.system, prop)
        cones.add(reduction.cone_key())
        summary = reduction.summary()
        summary["property"] = name
        rows.append(summary)
    print(f"== {instance.name}: model reduction, "
          f"{len(instance.properties)} properties ==")
    print(format_reduction(rows))
    print(f"\n{len(cones)} distinct cone(s) across "
          f"{len(instance.properties)} properties (each cone pays for "
          f"its shared unrolling once)")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.corpus is not None:
        from .workloads import CorpusError, ingest
        try:
            report = ingest(args.corpus)
        except CorpusError as err:
            print(f"suite: {err}", file=sys.stderr)
            return 1
        print(f"{len(report.instances)} instances from "
              f"{len(report.entries)} models under {report.root}")
        for entry in report.entries:
            stats = entry.circuit.stats()
            targets = ", ".join(i.name.split(":", 1)[1]
                                for i in entry.instances)
            print(f"  {entry.circuit.name:12s} [{entry.format:12s}] "
                  f"inputs={stats['inputs']:3d} "
                  f"latches={stats['latches']:3d}  targets: {targets}")
        for path, err in report.errors.items():
            print(f"  ! {path}: {err}", file=sys.stderr)
        return 0
    suite = build_suite()
    print(f"{len(suite)} instances across {len(FAMILIES)} families")
    for family, row in suite_summary(suite).items():
        print(f"  {family:10s} instances={row['instances']:3d} "
              f"sat={row['sat']:3d} unsat={row['unsat']:3d}")
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    from .workloads import CorpusError, ingest, write_manifest
    try:
        report = ingest(args.dir, k=args.k,
                        reduce="auto" if args.reduce else "off",
                        strict=args.strict)
    except CorpusError as err:
        print(f"import: {err}", file=sys.stderr)
        return 1
    for entry in report.entries:
        stats = entry.circuit.stats()
        print(f"{entry.path} [{entry.format}] "
              f"inputs={stats['inputs']} latches={stats['latches']} "
              f"sha256={entry.sha256[:12]}")
        for inst in entry.instances:
            red = entry.reductions.get(inst.name, {})
            note = ""
            if red.get("reduced_latches") != red.get("original_latches"):
                note = (f"  ({red['original_latches']} -> "
                        f"{red['reduced_latches']} latches)")
            print(f"  {inst.name}  k={inst.k}{note}")
    for path, err in report.errors.items():
        print(f"! {path}: {err}", file=sys.stderr)
    print(f"{len(report.instances)} instances from "
          f"{len(report.entries)} models"
          + (f", {len(report.errors)} errors" if report.errors else ""))
    if args.manifest:
        write_manifest(report, args.manifest)
        print(f"manifest written to {args.manifest}")
    return 0 if report.instances else 1


# ----------------------------------------------------------------------
# serve / submit / status / cancel — the daemon and its clients
# ----------------------------------------------------------------------
def _endpoint_error(args: argparse.Namespace) -> bool:
    if (args.socket is None) == (args.port is None):
        print("pick exactly one endpoint: --socket PATH or --port N",
              file=sys.stderr)
        return True
    return False


def _connect_from_args(args: argparse.Namespace):
    from .serve import ServeClient
    try:
        return ServeClient(socket_path=args.socket, host=args.host,
                           port=args.port)
    except (ConnectionError, FileNotFoundError, OSError) as err:
        endpoint = args.socket or f"{args.host}:{args.port}"
        print(f"cannot reach daemon at {endpoint}: {err}",
              file=sys.stderr)
        return None


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeDaemon
    if _endpoint_error(args):
        return 1
    daemon = ServeDaemon(socket_path=args.socket, host=args.host,
                         port=args.port, jobs=getattr(args, "jobs", None),
                         cache_dir=args.cache,
                         wall_timeout=args.wall_timeout,
                         max_queued=args.max_queued,
                         sim_tier=args.sim_tier)
    endpoint = args.socket or f"{args.host}:{args.port}"
    print(f"repro serve: listening on {endpoint} "
          f"(Ctrl-C or the shutdown op to stop)", file=sys.stderr)
    daemon.run()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeError
    if _endpoint_error(args):
        return 1
    client = _connect_from_args(args)
    if client is None:
        return 1
    budget = None
    if args.timeout is not None or args.conflicts is not None:
        budget = {}
        if args.timeout is not None:
            budget["max_seconds"] = args.timeout
        if args.conflicts is not None:
            budget["max_conflicts"] = args.conflicts
    follow = args.follow
    wait = args.wait or follow
    kind = "sweep" if args.sweep else "check"
    with client:
        try:
            ack = client.submit(
                args.family, k=args.k, kind=kind, method=args.method,
                semantics=args.semantics, budget=budget,
                reduce=_reduce_from_args(args), priority=args.priority,
                deadline=args.deadline, subscribe=follow)
        except ServeError as err:
            print(f"rejected: {err}", file=sys.stderr)
            return 1
        state = ack.get("state", "?")
        extra = " (cached)" if ack.get("cached") \
            else " (coalesced)" if ack.get("coalesced") else ""
        print(f"job {ack['job']}: {state}{extra}")
        if not wait and "result" not in ack:
            return 0

        def on_bound(event) -> None:
            print(f"  k={event['k']:<3d} {event['status']:8s} "
                  f"{event['seconds'] * 1e3:8.1f} ms", flush=True)
        done = client.wait(ack, on_bound=on_bound if follow else None)
    state = done["state"]
    result = done.get("result") or {}
    if state != "done":
        print(f"job {done['job']}: {state}"
              + (f" ({result.get('error')})" if result.get("error")
                 else ""))
        return 3
    method = result.get("method") or args.method or "daemon default"
    print(f"{args.family} (k={result.get('k')}, {method}): "
          f"{result.get('status')} in {result.get('seconds', 0.0):.3f} s")
    for key, value in sorted((result.get("stats") or {}).items()):
        print(f"  {key} = {value}")
    trace = result.get("trace")
    if trace is not None:
        from .system.trace import Trace
        states = sorted(trace["states"][0]) if trace["states"] else []
        print(Trace(trace["states"], trace["inputs"]).format(states))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .harness.report import format_serve_stats
    from .serve import ServeError
    if _endpoint_error(args):
        return 1
    client = _connect_from_args(args)
    if client is None:
        return 1
    with client:
        try:
            if args.job is None:
                print(format_serve_stats(client.stats()))
                return 0
            view = client.status(args.job)
        except ServeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    print(f"job {view['job']}: {view['state']}  "
          f"({view['family']} {view['kind']} k={view['k']} "
          f"{view['method']}, waiters={view['waiters']})")
    result = view.get("result")
    if result:
        print(f"  {result.get('status')} in "
              f"{result.get('seconds', 0.0):.3f} s")
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from .serve import ServeError
    if _endpoint_error(args):
        return 1
    client = _connect_from_args(args)
    if client is None:
        return 1
    with client:
        try:
            view = client.cancel(args.job)
        except ServeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    print(f"job {view['job']}: {view['state']}")
    return 0


def _add_endpoint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", metavar="PATH", default=None,
                        help="unix-socket endpoint of the daemon")
    parser.add_argument("--port", type=int, default=None,
                        help="TCP endpoint of the daemon")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP host (with --port)")


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    # Mirror of the global --jobs so it is accepted both before and
    # after the subcommand; SUPPRESS keeps a pre-subcommand value.
    parser.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker processes")


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    # Mirrors of the global telemetry flags (same SUPPRESS idiom as
    # --jobs) so they work both before and after the subcommand.
    parser.add_argument("--trace", metavar="FILE.json",
                        default=argparse.SUPPRESS,
                        help="write a Chrome trace-event timeline "
                             "(open at https://ui.perfetto.dev)")
    parser.add_argument("--metrics", action="store_true",
                        default=argparse.SUPPRESS,
                        help="print the aggregated metrics table "
                             "after the command")
    parser.add_argument("-v", "--verbose", action="count",
                        default=argparse.SUPPRESS,
                        help="log progress to stderr "
                             "(-v INFO, -vv DEBUG)")


def _add_reduce_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--reduce", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="run the model-reduction pipeline "
                             "(cone of influence, constant/duplicate "
                             "latch sweeping) before solving")


def _prover_choices() -> tuple:
    return tuple(name for name, cls in registered_backends().items()
                 if cls.proves_unbounded)


def _add_prover_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prover", choices=_prover_choices(),
                        default=None,
                        help="pair the run with an unbounded prover; "
                             "a closed proof turns a bounded "
                             "'holds up to k' into a conclusive HOLDS")


def _add_corpus_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", metavar="DIR", default=None,
                        help="resolve the positional name against models "
                             "ingested from DIR (.aag/.aig/.bench/.smv) "
                             "instead of the built-in suite")


def _add_sim_tier_flag(parser: argparse.ArgumentParser,
                       default: bool = True) -> None:
    parser.add_argument("--sim-tier",
                        action=argparse.BooleanOptionalAction,
                        default=default,
                        help="run the bit-parallel random-simulation "
                             "pre-solve tier before any solver spins up")


def _lookup_instance(args: argparse.Namespace, verb: str):
    """The family's first suite instance or, with ``--corpus``, the
    corpus model matching ``args.family`` as ``model:target`` or bare
    stem (first target wins); None after printing why there is none."""
    if args.corpus is None:
        instances = [i for i in build_suite() if i.family == args.family]
        if instances:
            return instances[0]
        print(f"unknown family {args.family!r}; "
              f"available: {', '.join(FAMILIES)}", file=sys.stderr)
        return None
    from .workloads import CorpusError, ingest
    try:
        report = ingest(args.corpus)
    except CorpusError as err:
        print(f"{verb}: {err}", file=sys.stderr)
        return None
    matches = [i for i in report.instances if args.family
               in (i.name, i.name.split(":", 1)[0])]
    if not matches:
        known = sorted(i.name for i in report.instances)
        print(f"{verb}: no corpus model {args.family!r} under "
              f"{args.corpus}; instances: {', '.join(known) or '(none)'}",
              file=sys.stderr)
        return None
    return matches[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bmc",
        description="Space-efficient bounded model checking "
                    "(DATE 2005 reproduction)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock budget in seconds")
    parser.add_argument("--conflicts", type=int, default=None,
                        help="solver conflict budget")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for parallel commands "
                             "(batch sharding, portfolio racing)")
    parser.add_argument("--trace", metavar="FILE.json", default=None,
                        help="write a Chrome trace-event timeline of "
                             "the run (open at https://ui.perfetto.dev)")
    parser.add_argument("--metrics", action="store_true", default=False,
                        help="print the aggregated metrics table "
                             "after the command")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr "
                             "(-v INFO, -vv DEBUG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-cnf", help="decide a DIMACS CNF")
    p.add_argument("file")
    p.add_argument("--model", action="store_true",
                   help="print the satisfying assignment")
    p.set_defaults(fn=_cmd_solve_cnf)

    p = sub.add_parser("solve-qbf", help="decide a QDIMACS QBF")
    p.add_argument("file")
    p.add_argument("--backend", choices=("qdpll", "expansion"),
                   default="qdpll")
    p.set_defaults(fn=_cmd_solve_qbf)

    p = sub.add_parser("bmc",
                       help="run BMC on a built-in or imported design")
    p.add_argument("family", help=f"one of: {', '.join(FAMILIES)} "
                                  f"(or a corpus model with --corpus)")
    p.add_argument("-k", type=int, default=None, help="bound")
    p.add_argument("--method", choices=ALL_METHODS, default="jsat")
    p.add_argument("--semantics", choices=("exact", "within"),
                   default="exact")
    _add_corpus_flag(p)
    _add_sim_tier_flag(p)
    _add_jobs_flag(p)
    _add_reduce_flag(p)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_bmc)

    p = sub.add_parser("sweep",
                       help="sweep bounds 0..max-k on a built-in design "
                            "(incremental by default)")
    p.add_argument("family", help=f"one of: {', '.join(FAMILIES)}")
    p.add_argument("--max-k", type=int, default=None,
                   help="largest bound (default: the family's suite bound)")
    p.add_argument("--methods", nargs="+", choices=ALL_METHODS,
                   default=["sat-incremental"],
                   help="methods to sweep (each gets its own pass)")
    _add_corpus_flag(p)
    _add_reduce_flag(p)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("check",
                       help="check named properties / LTL specs over "
                            "one shared unrolling")
    p.add_argument("family", nargs="?", default=None,
                   help=f"one of: {', '.join(FAMILIES)}")
    p.add_argument("--smv", metavar="FILE", default=None,
                   help="check an SMV module's SPEC/INVARSPEC entries")
    p.add_argument("--spec", action="append", default=None,
                   metavar="[NAME :=] FORMULA",
                   help="a property in the spec grammar (repeatable); "
                        "replaces the default property set")
    p.add_argument("-k", type=int, default=None,
                   help="bound (default: the family's suite bound, or "
                        "10 for --smv)")
    p.add_argument("--sweep", action="store_true",
                   help="resolve each property at its earliest bound "
                        "0..k, streaming per-bound progress")
    _add_prover_flag(p)
    p.add_argument("--prover-max-k", type=int, default=64,
                   help="deepest bound the paired prover may explore")
    p.add_argument("--require-proof", action="store_true",
                   help="exit 2 unless every verdict is conclusive "
                        "(an unbounded proof or a concrete "
                        "certificate); bounded HOLDS no longer passes")
    _add_corpus_flag(p)
    _add_sim_tier_flag(p)
    _add_reduce_flag(p)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("batch",
                       help="run a (suite x methods) matrix on a "
                            "worker pool")
    p.add_argument("--methods", nargs="+", choices=METHODS,
                   default=["sat-unroll", "jsat"],
                   help="methods to run over the suite")
    p.add_argument("--family", nargs="+", default=None,
                   help=f"restrict to families (default: all); "
                        f"one or more of: {', '.join(FAMILIES)}")
    p.add_argument("--limit", type=int, default=None,
                   help="run only the first N instances")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="on-disk result cache directory")
    p.add_argument("--scale", type=float, default=0.2,
                   help="budget scale when no explicit budget is given")
    _add_corpus_flag(p)
    # Off by default: batch matrices measure solver methods; the tier
    # answering cells first would skew every per-method column.
    _add_sim_tier_flag(p, default=False)
    _add_prover_flag(p)
    _add_jobs_flag(p)
    _add_reduce_flag(p)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser("serve",
                       help="run the long-lived verification daemon")
    _add_endpoint_flags(p)
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="on-disk result cache directory (default: "
                        "in-memory, lost at daemon exit)")
    p.add_argument("--wall-timeout", type=float, default=None,
                   help="hard per-job wall-clock limit enforced by "
                        "the pool (kill + respawn)")
    p.add_argument("--max-queued", type=int, default=16,
                   help="per-client active-job budget")
    _add_sim_tier_flag(p)
    _add_jobs_flag(p)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("submit",
                       help="submit a job to a running daemon")
    p.add_argument("family", help=f"one of: {', '.join(FAMILIES)}")
    p.add_argument("-k", type=int, required=True,
                   help="bound (max bound with --sweep)")
    p.add_argument("--method", default=None, choices=ALL_METHODS,
                   help="decision method (default: daemon default; "
                        "naming one pins it, bypassing the daemon's "
                        "simulation pre-solve tier)")
    p.add_argument("--semantics", choices=("exact", "within"),
                   default="exact")
    p.add_argument("--sweep", action="store_true",
                   help="sweep bounds 0..k instead of one check")
    p.add_argument("--priority", type=int, default=0,
                   help="queue priority (higher runs first)")
    p.add_argument("--deadline", type=float, default=None,
                   help="evict the job if still queued after this "
                        "many seconds")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes and print "
                        "its result")
    p.add_argument("--follow", action="store_true",
                   help="stream per-bound progress (implies --wait)")
    _add_endpoint_flags(p)
    _add_reduce_flag(p)
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("status",
                       help="query a job, or daemon stats without "
                            "a job id")
    p.add_argument("job", nargs="?", default=None)
    _add_endpoint_flags(p)
    p.set_defaults(fn=_cmd_status)

    p = sub.add_parser("cancel", help="cancel a submitted job")
    p.add_argument("job")
    _add_endpoint_flags(p)
    p.set_defaults(fn=_cmd_cancel)

    p = sub.add_parser("experiment", help="regenerate an evaluation table")
    p.add_argument("which", choices=[f"e{i}" for i in range(1, 9)])
    p.add_argument("--scale", type=float, default=0.2,
                   help="budget scale (1.0 = full budgets)")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("backends",
                       help="list the decision-method registry")
    p.set_defaults(fn=_cmd_backends)

    p = sub.add_parser("reduce",
                       help="report the model-reduction pipeline's "
                            "effect on a family's properties")
    p.add_argument("family", help=f"one of: {', '.join(FAMILIES)}")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser(
        "suite",
        help=f"describe the built-in {len(build_suite())}-instance "
             f"suite (or an ingested corpus)")
    _add_corpus_flag(p)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("import",
                       help="ingest a model corpus directory "
                            "(.aag/.aig/.bench/.smv) into suite "
                            "instances and write a manifest")
    p.add_argument("dir", help="directory to scan recursively")
    p.add_argument("--k", type=int, default=10,
                   help="bound recorded for every corpus instance")
    p.add_argument("--manifest", metavar="FILE", default=None,
                   help="write the fingerprinted manifest JSON here")
    p.add_argument("--strict", action="store_true",
                   help="fail on the first unparseable file instead "
                        "of skipping it")
    _add_reduce_flag(p)
    _add_telemetry_flags(p)
    p.set_defaults(fn=_cmd_import)
    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    _setup_logging(getattr(args, "verbose", 0))

    trace_path = getattr(args, "trace", None)
    want_metrics = bool(getattr(args, "metrics", False))
    tracer = prev_tracer = None
    registry = prev_metrics = None
    if trace_path is not None:
        tracer = Tracer()
        prev_tracer = set_tracer(tracer)
    if want_metrics:
        registry = MetricsRegistry()
        prev_metrics = set_metrics(registry)
    try:
        status = args.fn(args)
    except BrokenPipeError:
        # Downstream consumer closed (e.g. `repro submit --follow |
        # head`).  Reopen stdout on devnull so the interpreter's exit
        # flush does not raise again, and exit like a killed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if tracer is not None:
            set_tracer(prev_tracer)
        if registry is not None:
            set_metrics(prev_metrics)
    if registry is not None:
        from .harness.report import format_metrics
        print("\n== metrics ==")
        print(format_metrics(registry.snapshot()))
    if tracer is not None:
        count = write_chrome_trace(trace_path, tracer.events())
        if tracer.dropped:
            logger.warning("trace ring buffer dropped %d events",
                           tracer.dropped)
        print(f"trace: {count} events written to {trace_path}",
              file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
