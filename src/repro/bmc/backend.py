"""The pluggable backend layer: one object protocol over every method.

The paper's contribution is a *comparison of decision methods* on one
query shape — reachability of ``final`` in exactly (or at most) ``k``
steps.  This module turns that comparison into a first-class extension
point instead of a string-dispatch ladder:

* :class:`Backend` is the protocol every decision method implements:
  ``check(k)`` for a single bounded query, ``sweep(max_k)`` for the
  bound ladder k = 0..K, plus capability flags (``native_incremental``,
  ``supported_semantics``, ``composite``).
* :class:`BackendOptions` is the base of the per-backend typed options
  dataclasses.  Unknown keyword options **raise** instead of vanishing
  — a typo'd ``polarity_reducton`` is an error, not a silent no-op.
* :func:`register_backend` adds a backend class to the global registry;
  ``METHODS`` and ``ALL_METHODS`` are live ordered *views* over that
  registry, so a backend registered by user code immediately shows up
  in the engine shims, the session API, ``run_matrix`` and the CLI.

A minimal external backend::

    from repro.bmc import Backend, BmcResult, register_backend

    @register_backend("my-oracle")
    class OracleBackend(Backend):
        def check(self, k, semantics="exact", budget=None):
            status = ...                       # decide however you like
            return self.result(status, None, k)

Long-lived backend state (an incremental solver, a no-good cache) lives
on the backend *instance*; :class:`repro.bmc.session.BmcSession` keeps
one instance per (method, options) alive across calls.
"""

from __future__ import annotations

import dataclasses
import difflib
import time
from abc import ABC, abstractmethod
from typing import (Any, Callable, ClassVar, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Type)

from ..logic.expr import Expr
from ..sat.types import Budget, SolveResult
from ..telemetry.metrics import current_metrics
from ..telemetry.trace import current_tracer
from ..system.model import TransitionSystem
from ..system.trace import Trace

__all__ = ["BmcResult", "Backend", "BackendOptions", "register_backend",
           "unregister_backend", "backend_class", "create_backend",
           "fan_out_options", "registered_backends", "validate_method",
           "require_prover",
           "MethodsView", "METHODS", "ALL_METHODS", "SEMANTICS",
           "BoundResult", "SweepResult", "emit_bound",
           "drive_sweep"]

SEMANTICS = ("exact", "within")


class BmcResult:
    """Outcome of one bounded reachability query.

    Attributes
    ----------
    status:
        SAT (target reachable at the queried bound), UNSAT, or UNKNOWN
        (budget exhausted).
    trace:
        Validated witness path for SAT answers, when the back end could
        produce one (always for sat-unroll and jsat).
    k:
        The bound queried.
    method:
        The decision method used.
    seconds:
        Wall-clock time of the query.
    stats:
        Method-specific counters (formula sizes, solver statistics).
    proved:
        True when an UNSAT answer is an *unbounded* proof — the target
        is unreachable at every depth, not merely within ``k``.  Only
        backends with ``proves_unbounded`` set ever produce this.
    invariant:
        The inductive invariant certifying a proof, when the method
        constructs one (interpolation); ``None`` for proofs by
        exhaustion (k-induction, diameter) and for all bounded answers.
    """

    def __init__(self, status: SolveResult, trace: Optional[Trace],
                 k: int, method: str, seconds: float,
                 stats: Dict[str, int], proved: bool = False,
                 invariant: Optional[Expr] = None) -> None:
        self.status = status
        self.trace = trace
        self.k = k
        self.method = method
        self.seconds = seconds
        self.stats = stats
        self.proved = proved
        self.invariant = invariant

    def __repr__(self) -> str:  # pragma: no cover
        tag = ", proved" if self.proved else ""
        return (f"BmcResult({self.status.name}, k={self.k}, "
                f"method={self.method!r}, {self.seconds * 1e3:.1f} ms"
                f"{tag})")


# ----------------------------------------------------------------------
# Bound sweeps: the record types and the one shared ladder loop
# ----------------------------------------------------------------------
class BoundResult:
    """Outcome and statistics of one bound inside a sweep.

    Attributes
    ----------
    k:
        The bound this entry answers (exact-k semantics).
    status:
        SAT / UNSAT / UNKNOWN for exactly-k reachability.
    trace:
        Witness path on SAT (length exactly k).
    seconds:
        Wall time of this bound alone.
    cumulative_seconds:
        Wall time from the start of the sweep to this bound's answer —
        the "time to shortest counterexample" when this is the hit.
    stats:
        Method counters; for the incremental driver these include
        ``clauses_reused`` (problem clauses carried over from earlier
        bounds) and ``learnts_retained`` (learnt clauses alive at query
        start).
    proved:
        True when this bound's UNSAT answer closed an unbounded proof
        (the prover's induction/fixpoint/diameter side-check fired), so
        the sweep may stop early with a conclusive verdict.
    """

    def __init__(self, k: int, status: SolveResult, trace: Optional[Trace],
                 seconds: float, cumulative_seconds: float,
                 stats: Dict[str, int], proved: bool = False) -> None:
        self.k = k
        self.status = status
        self.trace = trace
        self.seconds = seconds
        self.cumulative_seconds = cumulative_seconds
        self.stats = stats
        self.proved = proved

    def __repr__(self) -> str:  # pragma: no cover
        tag = ", proved" if self.proved else ""
        return (f"BoundResult(k={self.k}, {self.status.name}, "
                f"{self.seconds * 1e3:.1f} ms{tag})")


# Observer signature for per-bound progress streaming.
OnBound = Callable[[BoundResult], None]


class SweepResult:
    """Outcome of a bound sweep k = 0..max_k (exact-k per bound).

    ``per_bound`` records every bound actually queried; the sweep stops
    at the first SAT (the shortest counterexample) or the first UNKNOWN
    (budget exhausted), so the list may be shorter than ``max_k + 1``.
    """

    def __init__(self, method: str, max_k: int,
                 per_bound: List[BoundResult], seconds: float) -> None:
        self.method = method
        self.max_k = max_k
        self.per_bound = per_bound
        self.seconds = seconds

    @property
    def hit(self) -> Optional[BoundResult]:
        """The shortest-counterexample entry, or None."""
        if self.per_bound and self.per_bound[-1].status is SolveResult.SAT:
            return self.per_bound[-1]
        return None

    @property
    def status(self) -> SolveResult:
        """SAT (cex found), UNSAT (all bounds refuted, or an unbounded
        proof closed early), or UNKNOWN."""
        if not self.per_bound:
            return SolveResult.UNKNOWN
        last = self.per_bound[-1]
        if last.status is SolveResult.SAT:
            return SolveResult.SAT
        if last.status is SolveResult.UNSAT and (last.proved
                                                 or last.k == self.max_k):
            return SolveResult.UNSAT
        return SolveResult.UNKNOWN

    @property
    def proved(self) -> bool:
        """True when the sweep ended with an unbounded proof."""
        return bool(self.per_bound) and self.per_bound[-1].proved

    @property
    def shortest_k(self) -> Optional[int]:
        """Length of the shortest counterexample, or None."""
        hit = self.hit
        return hit.k if hit is not None else None

    @property
    def trace(self) -> Optional[Trace]:
        hit = self.hit
        return hit.trace if hit is not None else None

    @property
    def time_to_hit(self) -> Optional[float]:
        """Wall seconds from sweep start to the shortest cex, or None."""
        hit = self.hit
        return hit.cumulative_seconds if hit is not None else None

    def __repr__(self) -> str:  # pragma: no cover
        return (f"SweepResult({self.method!r}, {self.status.name}, "
                f"bounds={len(self.per_bound)}/{self.max_k + 1}, "
                f"{self.seconds * 1e3:.1f} ms)")


def emit_bound(per_bound: List[BoundResult], on_bound, k: int,
               status: SolveResult, trace: Optional[Trace],
               seconds: float, sweep_start: float,
               stats: Dict[str, int], proved: bool = False) -> BoundResult:
    """Record one sweep bound and notify the observer.

    The single bookkeeping point every sweep implementation shares:
    builds the :class:`BoundResult` (cumulative time measured against
    ``sweep_start``), appends it, and streams it to ``on_bound`` when
    one is installed.
    """
    record = BoundResult(k, status, trace, seconds,
                         time.perf_counter() - sweep_start, stats,
                         proved=proved)
    per_bound.append(record)
    if on_bound is not None:
        on_bound(record)
    return record


def drive_sweep(method: str, max_k: int, bounds,
                check: Callable[[int, Budget | None],
                                Tuple[SolveResult, Optional[Trace],
                                      Dict[str, int]]],
                budget: Budget | None = None,
                on_bound=None,
                after_unsat: Callable[[int], None] | None = None
                ) -> SweepResult:
    """Run one bound ladder under one started budget — the loop every
    sweep implementation shares.

    ``check(k, budget)`` answers one bound and returns
    ``(status, trace, stats)`` — or ``(status, trace, stats, proved)``
    from a prover backend whose bound-k refutation may close an
    unbounded proof; ``bounds`` is the ladder (ascending integers for
    the linear sweep, the squaring schedule for formula (3));
    ``after_unsat(k)`` runs after each refuted bound (the incremental
    driver retires the bound's final-constraint group there).  The
    budget is started once and every bound draws from it (its solvers
    spend what they use), so the whole ladder shares one deadline and
    one set of pools.  The ladder stops at the first non-UNSAT answer
    or the first proved bound; an exhausted budget records an UNKNOWN
    for the bound it would have run next.
    """
    tracer = current_tracer()
    registry = current_metrics()
    if budget is not None:
        budget = budget.start()
    per_bound: List[BoundResult] = []
    sweep_start = time.perf_counter()
    for k in bounds:
        if budget is not None and budget.exhausted():
            emit_bound(per_bound, on_bound, k, SolveResult.UNKNOWN,
                       None, 0.0, sweep_start, {})
            break
        bound_start = time.perf_counter()
        with tracer.span("bmc.bound", method=method, k=k) as sp:
            answer = check(k, budget)
            status, trace, stats = answer[:3]
            proved = bool(answer[3]) if len(answer) > 3 else False
            sp.set(status=status.name)
            if proved:
                sp.set(proved=True)
        registry.inc("bmc.bounds_checked")
        emit_bound(per_bound, on_bound, k, status, trace,
                   time.perf_counter() - bound_start, sweep_start, stats,
                   proved=proved)
        if status is not SolveResult.UNSAT or proved:
            break
        if after_unsat is not None:
            after_unsat(k)
    return SweepResult(method, max_k, per_bound,
                       time.perf_counter() - sweep_start)


# ----------------------------------------------------------------------
# Typed options
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class BackendOptions:
    """Base of every backend's typed options dataclass.

    Construction goes through :meth:`from_kwargs`, which rejects
    unknown keys with the list of valid ones (and a did-you-mean hint),
    so a misspelled option can never be silently dropped.
    """

    @classmethod
    def option_names(cls) -> Tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "BackendOptions":
        valid = cls.option_names()
        unknown = sorted(set(kwargs) - set(valid))
        if unknown:
            hints = []
            for name in unknown:
                close = difflib.get_close_matches(name, valid, n=1)
                if close:
                    hints.append(f"{name!r} (did you mean {close[0]!r}?)")
                else:
                    hints.append(repr(name))
            raise TypeError(
                f"unknown option(s) {', '.join(hints)} for {cls.__name__}; "
                f"valid options: {list(valid) or 'none'}")
        return cls(**kwargs)

    @classmethod
    def accepts_option(cls, name: str) -> bool:
        """Whether a broadcast option named ``name`` is meaningful to
        this backend — the multi-method fan-out asks this to decide
        which methods receive a shared key (see
        :func:`fan_out_options`).  Composite backends may accept keys
        they forward to their delegates."""
        return name in cls.option_names()

    def cache_key(self) -> str:
        """Stable fingerprint used to key backend instances and caches."""
        items = sorted(dataclasses.asdict(self).items())
        return repr(items)

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------
class Backend(ABC):
    """One decision method bound to one reachability query family.

    A backend instance owns ``system`` and ``final`` plus whatever
    long-lived solver state the method keeps between calls (the
    incremental clause database, the jSAT no-good cache).  Class-level
    capabilities:

    ``name``
        Registry name (set by :func:`register_backend`).
    ``composite``
        True for meta-backends that delegate to other backends (the
        portfolio racer); these are excluded from the ``METHODS`` view
        of primitive decision procedures.
    ``native_incremental``
        True when :meth:`sweep` reuses one long-lived solver across
        bounds instead of re-encoding per bound.
    ``supported_semantics``
        Which of "exact" / "within" the backend answers.
    ``proves_unbounded``
        True for backends whose UNSAT answers can close an *unbounded*
        proof (k-induction, interpolation, recurrence diameter): a
        result with ``proved`` set means the target is unreachable at
        every depth, not merely within the queried bound.
    ``options_class``
        The typed options dataclass validated at construction.
    """

    name: ClassVar[str] = "?"
    composite: ClassVar[bool] = False
    native_incremental: ClassVar[bool] = False
    supported_semantics: ClassVar[Tuple[str, ...]] = SEMANTICS
    proves_unbounded: ClassVar[bool] = False
    options_class: ClassVar[Type[BackendOptions]] = BackendOptions

    def __init__(self, system: TransitionSystem, final: Expr,
                 options: BackendOptions | None = None, **kwargs: Any
                 ) -> None:
        if options is not None and kwargs:
            raise TypeError("pass either an options instance or kwargs, "
                            "not both")
        if options is None:
            options = self.options_class.from_kwargs(**kwargs)
        elif not isinstance(options, self.options_class):
            raise TypeError(
                f"{type(self).__name__} expects {self.options_class.__name__}"
                f" options, got {type(options).__name__}")
        self.system = system
        self.final = final
        self.options = options

    # ------------------------------------------------------------------
    @abstractmethod
    def check(self, k: int, semantics: str = "exact",
              budget: Budget | None = None) -> BmcResult:
        """Decide whether ``final`` is reachable at bound ``k``."""

    def sweep(self, max_k: int, budget: Budget | None = None,
              on_bound: OnBound | None = None) -> SweepResult:
        """Sweep bounds k = 0..max_k; stop at the first SAT or UNKNOWN.

        The default implementation asks an exact-k :meth:`check` per
        bound through the shared :func:`drive_sweep` loop — for a
        stateless backend that is the re-encode-per-bound baseline
        every native incremental sweep is benchmarked against; for a
        backend whose ``check`` reuses a long-lived solver (jsat) the
        same loop is natively incremental.  Backends on a different
        ladder (the squaring schedule) override this.
        """
        def check(k: int, remaining: Budget | None):
            result = self.check(k, semantics="exact", budget=remaining)
            return result.status, result.trace, result.stats
        return drive_sweep(self.name, max_k, range(max_k + 1), check,
                           budget=budget, on_bound=on_bound)

    def close(self) -> None:
        """Release long-lived solver state (default: nothing to do)."""

    # ------------------------------------------------------------------
    def result(self, status: SolveResult, trace: Optional[Trace], k: int,
               stats: Dict[str, int] | None = None, *,
               proved: bool = False,
               invariant: Optional[Expr] = None) -> BmcResult:
        """Convenience constructor stamping this backend's name."""
        return BmcResult(status, trace, k, self.name, 0.0, stats or {},
                         proved=proved, invariant=invariant)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"{type(self).__name__}({self.system.name!r}, "
                f"{self.options!r})")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Backend]] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Import the built-in backends exactly once (registration side
    effect).  Deferred so backend.py itself has no heavy imports."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        # Set before the import (register_backend re-enters here while
        # backends.py executes), but reset on failure — otherwise one
        # failed import would leave every later caller a silently empty
        # registry that masks the real error.
        _BUILTINS_LOADED = True
        try:
            from . import backends  # noqa: F401  (registration effect)
        except BaseException:
            _BUILTINS_LOADED = False
            raise


def register_backend(name: str, *, replace: bool = False
                     ) -> Callable[[Type[Backend]], Type[Backend]]:
    """Class decorator adding a :class:`Backend` to the registry.

    ``name`` becomes the method string accepted everywhere a built-in
    method name is (sessions, ``run_matrix``, the CLI, races).  Pass
    ``replace=True`` to shadow an existing registration.
    """
    def decorator(cls: Type[Backend]) -> Type[Backend]:
        if not (isinstance(cls, type) and issubclass(cls, Backend)):
            raise TypeError(f"{cls!r} is not a Backend subclass")
        _ensure_builtins()
        if name in _REGISTRY and not replace:
            raise ValueError(f"backend {name!r} is already registered "
                             f"(pass replace=True to shadow it)")
        registered = cls
        prior = getattr(cls, "name", "?")
        if prior != name and _REGISTRY.get(prior) is cls:
            # Same class registered under a second name: alias through
            # a trivial subclass so the first registration keeps its
            # own name on results, sweep labels and cache keys.
            registered = type(cls.__name__, (cls,), {})
        registered.name = name
        _REGISTRY[name] = registered
        return cls
    return decorator


def unregister_backend(name: str) -> None:
    """Remove a registration (primarily for tests)."""
    _ensure_builtins()
    _REGISTRY.pop(name, None)


def registered_backends() -> Dict[str, Type[Backend]]:
    """Snapshot of the registry in registration order."""
    _ensure_builtins()
    return dict(_REGISTRY)


def backend_class(name: str) -> Type[Backend]:
    """Look up a backend class; unknown names raise a helpful error."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; pick from {tuple(_REGISTRY)}"
        ) from None


def require_prover(name: str) -> Type[Backend]:
    """The class of the backend ``name``, which must be an unbounded
    prover; a bounded falsifier raises ``ValueError``."""
    cls = backend_class(name)
    if not cls.proves_unbounded:
        raise ValueError(
            f"{name!r} is a bounded falsifier, not a prover; pick a "
            f"backend with proves_unbounded=True (k-induction / "
            f"interpolation / diameter), or race it as a method")
    return cls


def validate_method(name: str) -> Type[Backend]:
    """Alias of :func:`backend_class` reading as an up-front check."""
    return backend_class(name)


def create_backend(name: str, system: TransitionSystem, final: Expr,
                   **options: Any) -> Backend:
    """Instantiate a registered backend with validated options."""
    cls = backend_class(name)
    return cls(system, final, **options)


def fan_out_options(methods: Sequence[str],
                    options: Dict[str, Any],
                    method_options: Dict[str, Dict[str, Any]] | None = None
                    ) -> Dict[str, Dict[str, Any]]:
    """Distribute broadcast options over several methods.

    Each method receives the broadcast keys its typed options class
    accepts (the strict-validation analogue of the old "each method
    reads what it knows" behaviour, used by the portfolio race and by
    ``run_matrix``); a key *no* listed method accepts raises instead of
    being silently dropped.  ``method_options`` maps a method name to
    options for that method alone, merged on top of the broadcast keys
    and validated here, up front — a typo'd override must raise before
    any solving or forking starts.
    """
    method_options = method_options or {}
    stray = sorted(set(method_options) - set(methods))
    if stray:
        raise ValueError(f"method_options given for method(s) {stray} "
                         f"not among the methods being run "
                         f"({tuple(methods)})")
    classes = {method: backend_class(method) for method in methods}
    for key in options:
        if not any(cls.options_class.accepts_option(key)
                   for cls in classes.values()):
            raise TypeError(f"option {key!r} is not accepted by any of "
                            f"the methods {tuple(methods)}")
    out: Dict[str, Dict[str, Any]] = {}
    for method, cls in classes.items():
        opts = {key: value for key, value in options.items()
                if cls.options_class.accepts_option(key)}
        opts.update(method_options.get(method, {}))
        cls.options_class.from_kwargs(**opts)
        out[method] = opts
    return out


# ----------------------------------------------------------------------
# Live method views
# ----------------------------------------------------------------------
class MethodsView(Sequence):
    """An ordered, tuple-like live view of registered backend names.

    Supports everything the old ``METHODS`` tuple was used for —
    iteration, ``in``, indexing, ``len``, concatenation, comparison —
    but reflects the registry at access time, so custom backends show
    up without anyone editing core modules.
    """

    __slots__ = ("_include_composite",)

    def __init__(self, include_composite: bool) -> None:
        self._include_composite = include_composite

    def _names(self) -> Tuple[str, ...]:
        _ensure_builtins()
        return tuple(name for name, cls in _REGISTRY.items()
                     if self._include_composite or not cls.composite)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())

    def __len__(self) -> int:
        return len(self._names())

    def __getitem__(self, index):
        return self._names()[index]

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __add__(self, other: Sequence[str]) -> Tuple[str, ...]:
        return self._names() + tuple(other)

    def __radd__(self, other: Sequence[str]) -> Tuple[str, ...]:
        return tuple(other) + self._names()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MethodsView):
            return self._names() == other._names()
        if isinstance(other, (tuple, list)):
            return self._names() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._names())

    def __repr__(self) -> str:
        return repr(self._names())


#: Primitive decision procedures (excludes composite backends).
METHODS = MethodsView(include_composite=False)

#: Every registered backend, composites included.
ALL_METHODS = MethodsView(include_composite=True)
