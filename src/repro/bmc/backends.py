"""The six built-in backends, ported onto the :class:`Backend` protocol.

Each decision method of the paper's comparison is one registered class:

* ``sat-unroll`` — formula (1) + the CDCL solver (the classical
  baseline; stateless, re-encodes per query);
* ``sat-incremental`` — formula (1) on one long-lived solver
  (:class:`repro.bmc.incremental.IncrementalBmc`; state persists
  across ``check``/``sweep`` calls on the same backend instance);
* ``qbf`` — formula (2) + a general-purpose QBF solver;
* ``qbf-squaring`` — formula (3); its native sweep follows the
  iterative-squaring schedule 0, 1, 2, 4, ...;
* ``jsat`` — the special-purpose jSAT procedure on formula (2)'s
  semantics (one solver per semantics, retargeted per bound; the
  no-good cache persists for the backend's lifetime);
* ``portfolio`` — a *composite* backend racing the others in parallel
  worker processes (:func:`repro.portfolio.race.race`).

Importing this module registers all of them; the registry triggers the
import lazily, so user code never needs to import it explicitly.
"""

from __future__ import annotations

import dataclasses
import difflib
from typing import Dict, List, Mapping, Optional, Sequence

from ..qbf.expansion import ExpansionSolver
from ..qbf.qdpll import QdpllSolver
from ..sat.kernel import make_solver
from ..sat.types import Budget, SolveResult
from ..system.trace import Trace
from ..telemetry.trace import current_tracer
from .backend import (Backend, BackendOptions, BmcResult, OnBound,
                      SweepResult, drive_sweep, register_backend)
from .incremental import IncrementalBmc
from .jsat import JsatSolver
from .qbf_encoding import encode_qbf
from .squaring import encode_squaring
from .unroll import SOLVER_COUNTERS, encode_unrolled

__all__ = ["SatUnrollBackend", "SatIncrementalBackend", "QbfBackend",
           "QbfSquaringBackend", "JsatBackend", "PortfolioBackend",
           "UnrollOptions", "IncrementalOptions", "QbfOptions",
           "SquaringOptions", "JsatOptions", "PortfolioOptions",
           "squaring_ladder", "next_power_of_two"]


def next_power_of_two(k: int) -> int:
    return 1 if k <= 1 else 1 << (k - 1).bit_length()


def squaring_ladder(max_k: int) -> List[int]:
    """The iterative-squaring bound schedule: 0, 1, 2, 4, ..., max_k."""
    bounds = [0]
    b = 1
    while max_k > 0:
        bounds.append(min(b, max_k))
        if b >= max_k:
            break
        b *= 2
    return bounds


def _check_unroll_once(system, final, k: int, semantics: str,
                       budget: Budget | None,
                       polarity_reduction: bool = False) -> BmcResult:
    """One formula-(1) query (also the k = 0 fallback for the QBF
    encodings, which need at least one step)."""
    if budget is not None:
        budget = budget.start()
    encoding = encode_unrolled(system, final, k, semantics,
                               polarity_reduction=polarity_reduction,
                               budget=budget)
    if not encoding.complete:        # a stop or the budget cut encoding
        return BmcResult(SolveResult.UNKNOWN, None, k, "sat-unroll", 0.0,
                         encoding.stats())
    solver = make_solver()
    solver.ensure_vars(encoding.cnf.num_vars)
    with current_tracer().span("sat.load",
                               clauses=len(encoding.cnf.clauses)):
        ok = solver.add_clauses(encoding.cnf.clauses)
    status = solver.solve(budget=budget) if ok else SolveResult.UNSAT
    trace = None
    if status is SolveResult.SAT:
        trace = encoding.extract_trace(solver.model_value)
    stats = encoding.stats()
    stats.update({f"solver_{key}": value
                  for key, value in solver.stats.as_dict().items()})
    return BmcResult(status, trace, k, "sat-unroll", 0.0, stats)


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class UnrollOptions(BackendOptions):
    polarity_reduction: bool = False


@register_backend("sat-unroll")
class SatUnrollBackend(Backend):
    """Formula (1): re-encode the unrolling, fresh solver per query."""

    options_class = UnrollOptions

    def check(self, k: int, semantics: str = "exact",
              budget: Budget | None = None) -> BmcResult:
        result = _check_unroll_once(
            self.system, self.final, k, semantics, budget,
            polarity_reduction=self.options.polarity_reduction)
        result.method = self.name
        return result


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class IncrementalOptions(BackendOptions):
    polarity_reduction: bool = False
    purge_interval: int = 4


@register_backend("sat-incremental")
class SatIncrementalBackend(Backend):
    """Formula (1) on one long-lived solver shared across bounds.

    The :class:`IncrementalBmc` driver is created on first use and kept
    for the backend's lifetime, so repeated ``check``/``sweep`` calls
    through one :class:`~repro.bmc.session.BmcSession` keep every
    transition frame and surviving learnt clause.
    """

    native_incremental = True
    options_class = IncrementalOptions

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._inc: Optional[IncrementalBmc] = None

    @property
    def driver(self) -> IncrementalBmc:
        if self._inc is None:
            self._inc = IncrementalBmc(
                self.system, self.final,
                polarity_reduction=self.options.polarity_reduction,
                purge_interval=self.options.purge_interval)
        return self._inc

    def check(self, k: int, semantics: str = "exact",
              budget: Budget | None = None) -> BmcResult:
        if semantics == "exact":
            status, trace, stats = self.driver.check_bound(k, budget=budget)
            return self.result(status, trace, k, stats)
        # within(k) ⇔ ∃ j <= k: exact(j) — sweep upward and stop at the
        # first (hence shortest) hit; its trace needs no shortening
        # because every smaller bound was already refuted.
        swept = self.driver.sweep(k, budget=budget)
        last = swept.per_bound[-1] if swept.per_bound else None
        stats = dict(last.stats) if last is not None else {}
        stats["bounds_checked"] = len(swept.per_bound)
        if swept.shortest_k is not None:
            stats["shortest_k"] = swept.shortest_k
        return self.result(swept.status, swept.trace, k, stats)

    def sweep(self, max_k: int, budget: Budget | None = None,
              on_bound: OnBound | None = None) -> SweepResult:
        return self.driver.sweep(max_k, budget=budget, on_bound=on_bound)

    def close(self) -> None:
        self._inc = None


# ----------------------------------------------------------------------
def _qbf_solve(pcnf, backend: str, budget: Budget | None):
    if backend == "qdpll":
        solver = QdpllSolver(pcnf)
        status = solver.solve(budget=budget)
        return status, solver.assignment(), solver.stats.as_dict()
    if backend == "expansion":
        solver = ExpansionSolver(pcnf)
        status = solver.solve(budget=budget)
        return status, {}, {"expanded_vars": solver.expanded_vars,
                            "peak_literals": solver.peak_literals}
    raise ValueError(f"unknown qbf backend {backend!r}")


@dataclasses.dataclass(frozen=True)
class QbfOptions(BackendOptions):
    qbf_backend: str = "qdpll"


@register_backend("qbf")
class QbfBackend(Backend):
    """Formula (2) + a general-purpose QBF solver (QDPLL / expansion)."""

    options_class = QbfOptions

    def check(self, k: int, semantics: str = "exact",
              budget: Budget | None = None) -> BmcResult:
        system = self.system
        query_system = system
        if semantics == "within":
            query_system = system.with_self_loops()
        if k == 0:
            # Formula (2) needs at least one step; fall back to SAT.
            result = _check_unroll_once(system, self.final, 0, "exact",
                                        budget)
            result.method = self.name
            return result
        encoding = encode_qbf(query_system, self.final, k)
        status, assignment, solver_stats = _qbf_solve(
            encoding.pcnf, self.options.qbf_backend, budget)
        trace = None
        if status is SolveResult.SAT and assignment:
            states = encoding.extract_states(assignment)
            if semantics == "within":
                # Drop stutter steps introduced by the self-loop
                # transform: any remaining consecutive distinct pair is
                # a real TR step.
                deduped = [states[0]]
                for state in states[1:]:
                    if state != deduped[-1]:
                        deduped.append(state)
                states = deduped
            candidate = Trace(states, [{} for _ in range(len(states) - 1)])
            if not system.input_vars and candidate.is_valid(system,
                                                            self.final):
                trace = candidate
        stats = encoding.stats()
        stats.update({f"solver_{key}": value
                      for key, value in solver_stats.items()})
        return self.result(status, trace, k, stats)


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SquaringOptions(BackendOptions):
    qbf_backend: str = "qdpll"


@register_backend("qbf-squaring")
class QbfSquaringBackend(Backend):
    """Formula (3): iterative squaring, power-of-two bounds."""

    options_class = SquaringOptions

    def check(self, k: int, semantics: str = "exact",
              budget: Budget | None = None) -> BmcResult:
        if semantics == "within":
            query_system = self.system.with_self_loops()
            bound = next_power_of_two(k) if k >= 1 else 1
        else:
            query_system = self.system
            bound = k
        if k == 0:
            result = _check_unroll_once(self.system, self.final, 0,
                                        "exact", budget)
            result.method = self.name
            return result
        encoding = encode_squaring(query_system, self.final, bound)
        status, _, solver_stats = _qbf_solve(
            encoding.pcnf, self.options.qbf_backend, budget)
        stats = encoding.stats()
        stats.update({f"solver_{key}": value
                      for key, value in solver_stats.items()})
        return self.result(status, None, k, stats)

    def sweep(self, max_k: int, budget: Budget | None = None,
              on_bound: OnBound | None = None) -> SweepResult:
        """The paper's iterative-squaring schedule: 0, 1, 2, 4, ...

        Formula (3) only speaks power-of-two bounds exactly, so each
        rung asks "within k" on the self-looped system (the encoder
        rounds non-power bounds up).  A SAT rung therefore brackets the
        shortest counterexample rather than pinning it — the trade the
        squaring schedule makes for its O(log K) iteration count.
        """
        def check(k: int, remaining: Budget | None):
            result = self.check(k, semantics="within", budget=remaining)
            return result.status, result.trace, result.stats
        return drive_sweep(self.name, max_k, squaring_ladder(max_k),
                           check, budget=budget, on_bound=on_bound)


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class JsatOptions(BackendOptions):
    use_cache: bool = True
    f_pruning: bool = True
    purge_interval: int = 8


@register_backend("jsat")
class JsatBackend(Backend):
    """The paper's special-purpose jSAT procedure (formula (4)).

    One :class:`JsatSolver` per semantics is created lazily and
    retargeted per bound, so the clause database (a single TR copy plus
    guarded I and F) and the bound-independent no-good cache persist
    across every ``check`` and ``sweep`` of the backend's lifetime.
    """

    native_incremental = True
    options_class = JsatOptions

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._solvers: Dict[str, JsatSolver] = {}

    def solver(self, semantics: str) -> JsatSolver:
        solver = self._solvers.get(semantics)
        if solver is None:
            solver = JsatSolver(
                self.system, self.final, 0, semantics,
                use_cache=self.options.use_cache,
                f_pruning=self.options.f_pruning,
                purge_interval=self.options.purge_interval)
            self._solvers[semantics] = solver
        return solver

    def _bound_stats(self, solver: JsatSolver,
                     solver_before: Dict[str, int],
                     jsat_before: Dict[str, int]) -> Dict[str, int]:
        """Per-query deltas of the cumulative jSAT counters (peaks and
        sizes stay absolute — they are not additive across queries)."""
        solver_after = solver.solver.stats.as_dict()
        jsat_after = solver.stats.as_dict()
        stats: Dict[str, int] = {
            key: jsat_after[key] - jsat_before[key]
            for key in jsat_after if key != "peak_db_literals"}
        stats["peak_db_literals"] = jsat_after["peak_db_literals"]
        for key in ("conflicts", "decisions", "propagations"):
            stats[f"solver_{key}"] = (solver_after[key]
                                      - solver_before[key])
        stats["resident_literals"] = solver.resident_literals()
        stats["base_literals"] = solver.base_db_literals
        stats["cache_entries"] = solver.cache_size()
        return stats

    def check(self, k: int, semantics: str = "exact",
              budget: Budget | None = None) -> BmcResult:
        solver = self.solver(semantics)
        solver.retarget(k)
        solver_before = solver.solver.stats.as_dict()
        jsat_before = solver.stats.as_dict()
        status = solver.solve(budget=budget)
        trace = solver.trace() if status is SolveResult.SAT else None
        stats = self._bound_stats(solver, solver_before, jsat_before)
        return self.result(status, trace, k, stats)

    # The inherited Backend.sweep IS the native jSAT sweep: check()
    # retargets the one persistent solver per bound, the clause
    # database is bound-independent, and the no-good cache persists —
    # states proven hopeless at some remaining distance stay hopeless.

    def close(self) -> None:
        self._solvers.clear()


# ----------------------------------------------------------------------
# The unbounded provers register here so they precede the composite
# portfolio in registry order (importing for the registration effect;
# provers.py only depends on the protocol module, never back on this
# one).
from . import provers  # noqa: E402, F401  (registration effect)

# The bit-parallel random-simulation tier registers next (the
# ``simulation`` method) — sim/ depends only on the protocol module
# and the reduce/ structural view, never back on this one.
from ..sim import backend as _sim_backend  # noqa: E402, F401


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class PortfolioOptions(BackendOptions):
    portfolio_methods: Optional[Sequence[str]] = None
    wall_timeout: Optional[float] = None
    validate: bool = True
    # Per-method option overrides, e.g. {"jsat": {"use_cache": False}};
    # each entry is validated by that method's own options class inside
    # the worker.
    method_options: Optional[Mapping[str, Mapping]] = None
    # Broadcast options, applied to every raced method that declares
    # them (the old function API's behaviour, e.g. use_cache=False
    # tuning jsat while sat-unroll ignores it).  A key no raced method
    # declares raises at check time.
    shared_options: Optional[Mapping[str, object]] = None
    # Pair the falsifier lanes with one unbounded prover
    # ("k-induction" / "interpolation" / "diameter"): a proved UNSAT
    # wins the race conclusively (see race()'s prover parameter).
    prover: Optional[str] = None
    prover_max_k: Optional[int] = None

    @classmethod
    def accepts_option(cls, name: str) -> bool:
        # The composite takes a broadcast key that some primitive
        # backend declares (folded into shared_options and forwarded to
        # the raced methods), so a multi-method fan-out that includes
        # portfolio keeps tuning its contenders — but a key NO
        # primitive declares is rejected up front like everywhere
        # else, not deferred to a worker-side race() error.
        if name in cls.option_names():
            return True
        from .backend import registered_backends
        return any(backend.options_class.accepts_option(name)
                   for backend in registered_backends().values()
                   if not backend.composite)

    @classmethod
    def from_kwargs(cls, **kwargs):
        # Undeclared kwargs fold into shared_options instead of being
        # rejected here: a composite backend cannot know the raced
        # methods' option vocabularies until the race is assembled, so
        # full validation happens in PortfolioBackend.check.
        declared = set(cls.option_names())
        rest = {key: value for key, value in kwargs.items()
                if key not in declared}
        if rest:
            # A near-miss of one of portfolio's own options is almost
            # certainly a typo — reject it here with the same
            # did-you-mean hint every other backend gives, instead of
            # deferring to a confusing "not accepted by any raced
            # method" error at check time.
            for key in sorted(rest):
                close = difflib.get_close_matches(
                    key, cls.option_names(), n=1)
                if close:
                    raise TypeError(
                        f"unknown option {key!r} for {cls.__name__} "
                        f"(did you mean {close[0]!r}?); to broadcast "
                        f"it to the raced methods instead, pass "
                        f"shared_options={{{key!r}: ...}}")
            kept = {key: value for key, value in kwargs.items()
                    if key in declared}
            shared = dict(kept.pop("shared_options", None) or {})
            shared.update(rest)
            return cls(shared_options=shared, **kept)
        return super().from_kwargs(**kwargs)


@register_backend("portfolio")
class PortfolioBackend(Backend):
    """Composite backend: race several methods in worker processes.

    Not a decision procedure itself — it wraps
    :func:`repro.portfolio.race.race` over the primitive backends and
    returns the first validated conclusive answer — so it is excluded
    from the ``METHODS`` view while remaining a first-class method
    everywhere method names are accepted.
    """

    composite = True
    options_class = PortfolioOptions

    def check(self, k: int, semantics: str = "exact",
              budget: Budget | None = None) -> BmcResult:
        # Imported lazily: repro.portfolio imports the bmc layer.
        from ..portfolio.race import DEFAULT_RACE_METHODS, race

        methods = self.options.portfolio_methods or DEFAULT_RACE_METHODS
        # race() fans shared_options out per method (each raced method
        # takes the keys its options class declares; keys nobody
        # declares raise) and merges method_options on top.
        outcome = race(self.system, self.final, k, methods=methods,
                       semantics=semantics, budget=budget,
                       wall_timeout=self.options.wall_timeout,
                       validate=self.options.validate,
                       method_options=self.options.method_options,
                       prover=self.options.prover,
                       prover_max_k=self.options.prover_max_k,
                       **dict(self.options.shared_options or {}))
        result = outcome.result
        if budget is not None:
            # The one remote charge: lanes solve in other processes, so
            # the winner's counters are spent here.
            budget.spend(*(result.stats.get(key, 0)
                           for key in SOLVER_COUNTERS))
        result.stats["portfolio_cancel_latency_ms"] = int(
            outcome.cancel_latency * 1e3)
        return result
