"""The stateful front end: one :class:`BmcSession` per system under check.

A session binds one transition system plus any number of *named
properties* (:mod:`repro.spec`) and hands out two kinds of engines,
both keeping long-lived solver state alive across calls:

* **reachability backends** from the registry
  (:class:`~repro.bmc.backend.Backend`) for the paper's exact-k /
  within-k queries — ``check`` / ``sweep`` / ``find_reachable``
  operate on the session's *reachability target*, derived from its
  single property (``Reachable(p)`` targets ``p``, ``Invariant(p)``
  targets ``¬p``);
* the **multi-property checker**
  (:class:`~repro.spec.checker.PropertyChecker`) for
  ``check_properties`` / ``sweep_properties`` — every registered
  property answered over **one shared unrolling** inside one
  incremental solver, with per-property activation groups.

Typed per-backend options are validated up front (unknown kwargs raise
instead of vanishing), ``on_bound`` observers stream per-bound
progress, and ``check`` witnesses are replayed against the original
system and target before they are returned.

Example
-------
>>> from repro.bmc import BmcSession
>>> from repro.spec import Invariant, Reachable
>>> from repro.models import counter
>>> system, final, depth = counter.make(3, 5)
>>> with BmcSession(system, properties={
...         "hit": Reachable(final),
...         "safe": Invariant(~final)}) as session:
...     results = session.check_properties(depth)
>>> results["hit"].verdict.name, results["safe"].verdict.name
('HOLDS', 'VIOLATED')
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..logic.expr import Expr
from ..sat.types import Budget, SolveResult
from ..spec.checker import (OnPropertyBound, PropertyChecker,
                            PropertyResult, normalize_properties)
from ..spec.property import Property, reachability_target
from ..system.model import TransitionSystem
from ..telemetry.trace import current_tracer
from .backend import (SEMANTICS, Backend, BmcResult, OnBound, create_backend,
                      validate_method)
from .backends import squaring_ladder
from .incremental import BoundResult, SweepResult

__all__ = ["BmcSession"]


class BmcSession:
    """Bounded model checking of one system, any backend, any property.

    Parameters
    ----------
    system:
        The transition system under check.
    properties:
        The session's named properties: a mapping
        ``{name: Property | Expr}`` (raw expressions are wrapped as
        ``Reachable`` targets), a single Property, or None.
    method:
        Default backend name for reachability calls that do not name
        one.
    reduce:
        Model-reduction knob: ``"off"`` (default) solves the full
        system, ``"auto"`` runs every query through the default
        :mod:`repro.reduce` pipeline (per-property cone of influence,
        constant/duplicate-latch sweeping, input pruning), and a
        :class:`repro.reduce.Pipeline` instance supplies a custom pass
        order.  Witness traces are lifted back to full-width paths
        over the original system before validation or shortening, so
        callers never observe the reduction.
    on_bound:
        Session-wide per-bound observer (``on_bound(BoundResult)``)
        invoked during sweeps and iterative deepening; a per-call
        ``on_bound`` argument overrides it.

    The session is a context manager; :meth:`close` releases every
    backend's and the property checker's solver state.  Backend
    instances are cached per ``(method, options, target)``, so two
    calls with identical options share state while differing options —
    or a replaced single property — get independent instances.
    """

    def __init__(self, system: TransitionSystem, *,
                 properties: Union[Mapping[str, Union[Property, Expr]],
                                   Property, Expr, None] = None,
                 method: str = "sat-unroll",
                 reduce: object = "off",
                 prover: Optional[str] = None,
                 prover_max_k: int = 64,
                 sim_tier: bool = True,
                 on_bound: OnBound | None = None) -> None:
        from ..reduce import resolve_reduce
        validate_method(method)
        if prover is not None:
            # Fail here, at construction, with the checker's own
            # message — not on the first check_properties() call.
            from .backend import require_prover
            require_prover(prover)
        self.system = system
        self.properties: Dict[str, Property] = \
            normalize_properties(properties)
        self.method = method
        self.reduce = reduce
        self.prover = prover
        self.prover_max_k = prover_max_k
        self.sim_tier = sim_tier
        self._pipeline = resolve_reduce(reduce)
        self.on_bound = on_bound
        self._backends: Dict[Tuple[str, str, int], Backend] = {}
        self._checker: Optional[PropertyChecker] = None
        self._target_reduction: Optional[Tuple[Expr, object]] = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def final(self) -> Optional[Expr]:
        """The session's reachability target, when it has exactly one
        property that reduces to plain reachability (``Reachable(p)``
        → ``p``, ``Invariant(p)`` / ``G p`` → ``¬p``); None otherwise.
        """
        if len(self.properties) != 1:
            return None
        (prop,) = self.properties.values()
        return reachability_target(prop)

    def _require_final(self, what: str) -> Expr:
        final = self.final
        if final is not None:
            return final
        if len(self.properties) != 1:
            raise ValueError(
                f"{what} answers the session's single reachability "
                f"target, but this session has "
                f"{len(self.properties)} properties "
                f"({sorted(self.properties)}); use check_properties() "
                f"/ sweep_properties(), or open a session per target")
        (name,) = self.properties
        raise ValueError(
            f"{what} answers plain reachability, but property {name!r} "
            f"({self.properties[name]}) is a general bounded-LTL "
            f"property; use check_properties() / sweep_properties()")

    def add_property(self, name: str,
                     prop: Union[Property, Expr]) -> None:
        """Register another named property on the live session."""
        self._require_open()
        prop = normalize_properties({name: prop})[name]
        self.properties[name] = prop
        if self._checker is not None:
            self._checker.add_property(name, prop)

    # ------------------------------------------------------------------
    def __enter__(self) -> "BmcSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release every cached backend's and the property checker's
        long-lived solver state."""
        for backend in self._backends.values():
            backend.close()
        self._backends.clear()
        if self._checker is not None:
            self._checker.close()
            self._checker = None
        self._closed = True

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("BmcSession is closed")

    # ------------------------------------------------------------------
    def _reduction(self):
        """The :class:`~repro.reduce.ReducedSystem` for the session's
        reachability target (identity when reduction is off); cached
        per target expression."""
        from ..reduce import identity_reduction, reduce_for_target
        final = self._require_final("reduction")
        cached = self._target_reduction
        if cached is not None and cached[0] is final:
            return cached[1]
        if self._pipeline is None:
            reduction = identity_reduction(self.system)
        else:
            reduction = reduce_for_target(self.system, final,
                                          self._pipeline)
        self._target_reduction = (final, reduction)
        return reduction

    def backend(self, method: str | None = None, **options: Any) -> Backend:
        """The session's backend instance for ``method`` + ``options``.

        Validates the method name against the registry and the options
        against the backend's typed options class; the instance (and
        its solver state) is cached for the session's lifetime.  With
        reduction enabled the backend is constructed over the reduced
        system and the mapped target — its results speak the reduced
        vocabulary until :meth:`check` / :meth:`sweep` lift them.
        """
        self._require_open()
        final = self._require_final("backend()")
        name = method or self.method
        cls = validate_method(name)
        opts = cls.options_class.from_kwargs(**options)
        # The target participates in the key: replacing the session's
        # single property via add_property must not hand back a cached
        # backend still solving (a reduction of) the old target.
        key = (name, opts.cache_key(), final.uid)
        backend = self._backends.get(key)
        if backend is None:
            reduction = self._reduction()
            backend = create_backend(name, reduction.system,
                                     reduction.map_expr(final),
                                     options=opts)
            self._backends[key] = backend
        return backend

    # ------------------------------------------------------------------
    def check(self, k: int, method: str | None = None,
              semantics: str = "exact",
              budget: Budget | None = None, **options: Any) -> BmcResult:
        """Decide whether the reachability target is reachable at bound k.

        ``semantics`` is "exact" (in exactly k steps — the paper's
        query) or "within" (in at most k steps).  Every witness is
        lifted to the original system, within-mode ones cut at their
        first final state whatever back end produced them, and must
        replay there and reach the target (else :class:`TraceError`).
        """
        if k < 0:
            raise ValueError("bound k must be non-negative")
        if semantics not in SEMANTICS:
            raise ValueError(f"unknown semantics {semantics!r}")
        final = self._require_final("check()")
        backend = self.backend(method, **options)
        if semantics not in backend.supported_semantics:
            raise ValueError(
                f"backend {backend.name!r} does not support "
                f"{semantics!r} semantics (supports "
                f"{backend.supported_semantics})")
        start = time.perf_counter()
        with current_tracer().span("session.check", method=backend.name,
                                   k=k, semantics=semantics) as sp:
            result = backend.check(k, semantics=semantics, budget=budget)
            sp.set(status=result.status.name)
            if result.proved:
                sp.set(proved=True)
        if result.trace is not None:
            trace = self._reduction().lift_witness(
                result.trace, final, shorten=semantics == "within")
            if trace is None or (semantics == "exact" and trace.length != k):
                from ..system.trace import TraceError
                raise TraceError(
                    f"backend {backend.name!r} returned a witness that does "
                    f"not reach the target of this {semantics}-{k} query "
                    f"on the original system")
            result.trace = trace
        result.seconds = time.perf_counter() - start
        return result

    # ------------------------------------------------------------------
    def sweep(self, max_k: int, method: str | None = None,
              budget: Budget | None = None,
              on_bound: OnBound | None = None,
              **options: Any) -> SweepResult:
        """Sweep bounds k = 0..max_k; return the shortest counterexample.

        Every backend implements the same contract — bounds in
        increasing order, stopping at the first SAT or the first
        UNKNOWN — natively with one long-lived solver when
        ``native_incremental`` is set, by fresh exact-k queries
        otherwise (``qbf-squaring`` follows its log schedule, so its
        hit bound brackets the shortest depth rather than pinning it).
        The budget is global across the whole sweep.
        """
        if max_k < 0:
            raise ValueError("max_k must be non-negative")
        backend = self.backend(method, **options)
        observer = on_bound or self.on_bound
        reduction = self._reduction()
        if reduction.is_identity:
            return backend.sweep(max_k, budget=budget, on_bound=observer)

        def lifting_observer(bound: BoundResult) -> None:
            # Records are lifted in place before streaming, so both
            # the observer and the returned per_bound list see
            # full-width traces over the original system.
            if bound.trace is not None:
                bound.trace = reduction.lift(bound.trace)
            if observer is not None:
                observer(bound)
        return backend.sweep(max_k, budget=budget,
                             on_bound=lifting_observer)

    # ------------------------------------------------------------------
    def find_reachable(self, max_bound: int, method: str | None = None,
                       strategy: str = "linear",
                       budget: Budget | None = None,
                       on_bound: OnBound | None = None, **options: Any
                       ) -> Tuple[Optional[BmcResult], List[BmcResult]]:
        """Iterative-deepening reachability up to ``max_bound``.

        ``strategy`` is "linear" (k = 0, 1, 2, ...; exact semantics per
        iteration, so the union covers every depth) or "squaring"
        (k = 1, 2, 4, ...; each iteration checks "within k" on the
        self-looped system, the paper's iterative-squaring schedule).

        Both the method and the strategy are validated up front, before
        any solving starts.  Returns ``(hit, history)`` where ``hit``
        is the first SAT result (or None) and ``history`` records every
        iteration — experiment E3 reads the iteration counts from it.
        The hit's witness trace is debug-validated by :meth:`check`.
        The budget is global across every iteration.
        """
        backend = self.backend(method, **options)   # validates up front
        if strategy == "linear":
            bounds: List[int] = list(range(0, max_bound + 1))
            semantics = "exact"
        elif strategy == "squaring":
            bounds = squaring_ladder(max_bound)
            semantics = "within"
        else:
            raise ValueError(f"unknown strategy {strategy!r}; "
                             f"pick 'linear' or 'squaring'")
        observer = on_bound or self.on_bound
        if budget is not None:
            budget = budget.start()
        history: List[BmcResult] = []
        start = time.perf_counter()
        for bound in bounds:
            result = self.check(bound, method=backend.name,
                                semantics=semantics, budget=budget,
                                **options)
            history.append(result)
            if observer is not None:
                observer(BoundResult(bound, result.status, result.trace,
                                     result.seconds,
                                     time.perf_counter() - start,
                                     result.stats))
            if result.status is SolveResult.SAT:
                return result, history
            if result.status is SolveResult.UNKNOWN:
                return None, history
        return None, history

    # ------------------------------------------------------------------
    # The multi-property engine: one shared unrolling for all
    # ------------------------------------------------------------------
    def checker(self) -> PropertyChecker:
        """The session's shared-unrolling property checker (created on
        first use; frames and learnt clauses persist across calls).
        Inherits the session's ``reduce`` knob, so with ``"auto"`` the
        checker groups properties by reduced cone and answers each
        group over its own (smaller) shared unrolling — and the
        session's ``prover`` pairing, so bounded UNSAT verdicts can be
        escalated to conclusive proofs per property cone."""
        self._require_open()
        if not self.properties:
            raise ValueError("this session has no properties; construct "
                             "it with properties={...} or add_property()")
        if self._checker is None:
            self._checker = PropertyChecker(self.system, self.properties,
                                            reduce=self.reduce,
                                            prover=self.prover,
                                            prover_max_k=self.prover_max_k,
                                            sim_tier=self.sim_tier)
        return self._checker

    def check_properties(self, k: int, names: List[str] | None = None,
                         budget: Budget | None = None,
                         on_result=None) -> Dict[str, PropertyResult]:
        """Check every (selected) property at bound k — one unrolling,
        one incremental solver, per-property activation groups.

        The search is bounded ("within k"): a universal property is
        VIOLATED when a counterexample path of length ≤ k exists, a
        ``Reachable`` HOLDS when a witness does.  ``budget`` is a
        shared pool across the batch; ``on_result(PropertyResult)``
        streams each property's answer as it lands.
        """
        return self.checker().check_all(k, names=names, budget=budget,
                                        on_result=on_result)

    def sweep_properties(self, max_k: int,
                         names: List[str] | None = None,
                         budget: Budget | None = None,
                         on_bound: OnPropertyBound | None = None
                         ) -> Dict[str, PropertyResult]:
        """Resolve each property at its earliest bound in 0..max_k over
        the shared unrolling.

        ``on_bound(name, BoundResult)`` streams every (property, bound)
        record; when omitted, the session-wide ``on_bound`` observer
        (if any) receives the per-bound records without the name.
        """
        observer = on_bound
        if observer is None and self.on_bound is not None:
            session_observer = self.on_bound

            def observer(_name: str, bound: BoundResult) -> None:
                session_observer(bound)
        return self.checker().sweep(max_k, names=names, budget=budget,
                                    on_bound=observer)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover
        return (f"BmcSession({self.system.name!r}, "
                f"properties={sorted(self.properties)}, "
                f"method={self.method!r}, "
                f"backends={sorted(k[0] for k in self._backends)})")
