"""Multi-property checking over one shared unrolling.

The expensive object in BMC is the unrolled transition formula
I(s_0) ∧ TR(s_0,s_1) ∧ ... ∧ TR(s_{k-1},s_k) — the paper's whole
argument.  One :class:`repro.bmc.unroll.Unrolling` per cone encodes it
exactly once into one long-lived incremental CDCL solver (one Tseitin
frame per step, the same class :class:`repro.bmc.incremental.IncrementalBmc`
grows), and every *property* rides on top as a retractable constraint:

* the property's per-bound witness formula (:mod:`repro.spec.ltl`)
  is Tseitin-encoded and attached through an assumption *group
  literal* ``g`` via the guard clause ``(-g, witness)``;
* solving under the single assumption ``g`` answers that property
  alone — the unrolling, every other property's encoding, and all
  surviving learnt clauses stay shared;
* once answered, the group is retired with the unit ``-g`` and
  physically reclaimed on the next purge — the jSAT blocking-clause
  idiom the PR 2/3 machinery established.

:class:`PropertyChecker` drives N named properties through one such
unrolling (``check_all``) or up a bound ladder (``sweep``), which is
where the multi-property speedup comes from: k transition frames are
encoded once instead of N times.

With ``reduce="auto"`` the checker additionally runs each property
through the model-reduction pipeline (:mod:`repro.reduce`) and groups
properties by their reduced cone: every cone gets its *own* shared
unrolling over its (smaller) reduced system, so the k transition
frames are not just encoded once per bound — they are encoded once
per bound *per cone*, and each cone only pays for the latches the
property can actually observe.  Witness traces are lifted back to
full-width paths over the original system before validation,
shortening, or anything downstream sees them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Mapping, Optional, Sequence

from ..logic.expr import Expr
from ..sat.types import Budget, SolveResult
from ..system.model import TransitionSystem
from ..system.trace import Trace, TraceError, lane_vector
from ..telemetry.trace import current_tracer
from .eval import holds_on_path
from .ltl import (compile_search, loop_conditions_for, loop_input_name,
                  needs_loop_closure)
from .property import (Property, Verdict, as_property, reachability_target,
                       search_plan, support)

__all__ = ["PropertyResult", "PropertyChecker",
           "normalize_properties", "OnPropertyBound"]

#: Observer for per-(property, bound) progress during sweeps:
#: ``on_bound(name, bound_result)`` with a
#: :class:`repro.bmc.backend.BoundResult` record.
OnPropertyBound = Callable[[str, object], None]


def normalize_properties(properties) -> Dict[str, Property]:
    """Coerce the accepted property shapes into an ordered dict.

    Accepts a mapping ``{name: Property | Expr}`` (raw expressions are
    wrapped as :class:`~repro.spec.property.Reachable` targets), a
    single Property, or a single Expr (both named ``"target"``).
    """
    from .property import Reachable
    if properties is None:
        return {}
    if isinstance(properties, (Property, Expr)):
        properties = {"target": properties}
    out: Dict[str, Property] = {}
    for name, prop in dict(properties).items():
        if not isinstance(name, str) or not name:
            raise TypeError(f"property names must be non-empty strings, "
                            f"got {name!r}")
        if isinstance(prop, Expr):
            prop = Reachable(prop)
        out[name] = as_property(prop)
    return out


class PropertyResult:
    """Outcome of checking one named property at one bound.

    Attributes
    ----------
    name, prop:
        The property as registered.
    verdict:
        HOLDS / VIOLATED / UNKNOWN — read against the property's own
        claim (a violated Invariant has a counterexample, a holding
        Reachable has a witness).
    conclusive:
        True when the verdict is certificate-backed (a concrete path);
        False for the bounded complement ("no counterexample up to k"
        / "not reachable within k") and for UNKNOWN.
    status:
        Raw SAT / UNSAT / UNKNOWN of the underlying witness search.
    k:
        The bound answered.  In a sweep this is the bound at which the
        property resolved (the shortest witness/counterexample depth
        for total transition relations).
    trace:
        The certificate path (shortened to its first target state for
        plain reachability-style properties; the full k-path for
        general bounded-LTL witnesses).
    seconds, stats:
        Wall time and solver/encoding counters of the search.
    proved:
        True when a paired unbounded prover closed a proof: the
        verdict then holds for *all* depths, not just up to k, and
        ``conclusive`` is True without a certificate path.
    invariant:
        The inductive invariant backing a proof when the prover
        produced one (interpolation does; k-induction and diameter
        prove without an explicit invariant).  Expressed over the
        reduced cone's vocabulary when reduction was active.
    """

    def __init__(self, name: str, prop: Property, verdict: Verdict,
                 conclusive: bool, status: SolveResult, k: int,
                 trace: Optional[Trace], seconds: float,
                 stats: Dict[str, int], proved: bool = False,
                 invariant: Optional[Expr] = None) -> None:
        self.name = name
        self.prop = prop
        self.verdict = verdict
        self.conclusive = conclusive
        self.status = status
        self.k = k
        self.trace = trace
        self.seconds = seconds
        self.stats = stats
        self.proved = proved
        self.invariant = invariant

    def __repr__(self) -> str:  # pragma: no cover
        if self.proved:
            kind = "proved"
        elif self.conclusive:
            kind = "certified"
        else:
            kind = f"bounded k={self.k}"
        return (f"PropertyResult({self.name!r}, {self.verdict.name}, "
                f"{kind}, {self.seconds * 1e3:.1f} ms)")


# ----------------------------------------------------------------------
class _Cone:
    """One reduced cone and its unrollings, shared by every property
    whose reduction produced the same cone key.

    Owns the :class:`~repro.reduce.ReducedSystem` (identity when
    reduction is off or inert) plus the cone's main and auxiliary
    low-bound :class:`~repro.bmc.unroll.Unrolling` — the two-driver
    policy of :func:`~repro.bmc.unroll.low_driver`, kept per cone.
    """

    def __init__(self, reduction, purge_interval: int) -> None:
        self.reduction = reduction
        self.system: TransitionSystem = reduction.system
        self.purge_interval = purge_interval
        self._shared: Optional[Unrolling] = None
        self._low: Optional[Unrolling] = None

    def _unrolling(self) -> Unrolling:
        return Unrolling(self.system, purge_interval=self.purge_interval)

    def unrolling_for(self, k: int) -> Unrolling:
        """The cone's shared unrolling, or the auxiliary low one when
        ``k`` is below the shared unrolling's frames."""
        if self._shared is None:
            self._shared = self._unrolling()
        if k < self._shared.k:
            self._low = low_driver(self._low, k, self._unrolling)
            return self._low
        return self._shared

    def close(self) -> None:
        self._shared = None
        self._low = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"_Cone({self.system.name!r}, frames=" \
               f"{self._shared.k if self._shared else 0})"


class PropertyChecker:
    """Check many named properties of one system, one unrolling per cone.

    The checker owns one :class:`_Cone` (reduced system + shared
    unrolling) per distinct reduced cone of its properties — a single
    identity cone when reduction is off — and the unrollings persist
    across calls (frames only grow), so repeated ``check_all`` /
    ``sweep`` invocations — and every property inside one — reuse the
    same transition-frame encodings and solver state.

    ``reduce`` accepts ``"off"`` (default: solve the full system),
    ``"auto"`` (the default :func:`repro.reduce.default_pipeline`) or
    a :class:`repro.reduce.Pipeline` instance.

    ``prover`` pairs every reachability-style property with one
    unbounded prover backend (``"k-induction"`` / ``"interpolation"``
    / ``"diameter"``): when a bounded search comes back UNSAT — "no
    counterexample up to k" — the prover is asked to close the gap up
    to ``prover_max_k`` on the property's own cone, and a successful
    proof upgrades the bounded verdict to a *conclusive* one
    (``proved=True``, with the invariant validated against the cone).
    Prover state persists per property, so sweeps and repeated calls
    reuse the prover's base-case ladder and step solver.  Properties
    with no single-target reachability form (general bounded-LTL) are
    never escalated.

    ``sim_tier`` (default on) tries the bit-parallel random-simulation
    falsifier (:func:`repro.sim.presolve`) on each reachability-style
    query before touching the shared unrolling: a checked simulation
    witness answers the property without a single solver call.  The
    tier is SAT-only and strictly wall-bounded — turning it off
    changes timing, never verdicts.  General bounded-LTL properties
    (no single-target reachability form) always go straight to the
    solver.

    Witness traces are validated in debug mode (``__debug__``): the
    search formula must hold on the witness under the bounded path
    semantics (:func:`repro.spec.eval.holds_on_path`) over the cone it
    was found in — including the lasso back-edge when the witness
    closes a loop.  A witness lifted from a reduced cone must always
    replay against the *original* transition system and reach the
    original target (else :class:`TraceError`).
    """

    def __init__(self, system: TransitionSystem,
                 properties: Optional[Mapping[str, Property]] = None,
                 purge_interval: int = 4,
                 validate: Optional[bool] = None,
                 reduce: object = "off",
                 prover: Optional[str] = None,
                 prover_max_k: int = 64,
                 sim_tier: bool = True) -> None:
        from ..reduce import resolve_reduce
        if prover is not None:
            from ..bmc.backend import require_prover  # bmc imports spec
            require_prover(prover)
        self.system = system
        self.properties = normalize_properties(properties)
        self.purge_interval = purge_interval
        self.validate = __debug__ if validate is None else validate
        self.pipeline = resolve_reduce(reduce)
        self.prover = prover
        self.prover_max_k = prover_max_k
        self.sim_tier = sim_tier
        self._cones: Dict[tuple, _Cone] = {}
        self._assignments: Dict[str, _Cone] = {}
        self._mapped: Dict[str, Property] = {}
        self._reductions_by_support: Dict[frozenset, object] = {}
        self._provers: Dict[str, object] = {}
        for name, prop in self.properties.items():
            self._check_support(name, prop)

    # ------------------------------------------------------------------
    def _check_support(self, name: str, prop: Property) -> None:
        stray = set(support(prop)) - set(self.system.state_vars)
        if stray:
            raise ValueError(
                f"property {name!r} mentions non-state variables "
                f"{sorted(stray)}; state variables of "
                f"{self.system.name!r} are {self.system.state_vars}")

    def add_property(self, name: str, prop) -> None:
        """Register (or replace) a named property on the live checker."""
        prop = normalize_properties({name: prop})[name]
        self._check_support(name, prop)
        self.properties[name] = prop
        self._assignments.pop(name, None)
        self._mapped.pop(name, None)
        self._provers.pop(name, None)

    def close(self) -> None:
        """Drop every cone's solver state."""
        for cone in self._cones.values():
            cone.close()
        for backend in self._provers.values():
            backend.close()
        self._cones.clear()
        self._assignments.clear()
        self._mapped.clear()
        self._provers.clear()

    # ------------------------------------------------------------------
    def _cone_for(self, name: str) -> _Cone:
        """The cone answering property ``name`` (computed on first use;
        properties with equal cone keys share one instance).

        Pipeline runs are memoized per property *support* set when the
        pipeline declares itself ``support_determined`` (every built-in
        transform is: the property matters only through which
        variables it observes, never its temporal structure), so
        same-support properties share one reduction computation.
        Custom pipelines containing transforms that inspect the
        property AST are re-run per property.
        """
        cone = self._assignments.get(name)
        if cone is None:
            from ..reduce import identity_reduction
            prop = self.properties[name]
            if self.pipeline is None:
                reduction = identity_reduction(self.system)
            elif self.pipeline.support_determined:
                support_key = frozenset(support(prop))
                reduction = self._reductions_by_support.get(support_key)
                if reduction is None:
                    reduction = self.pipeline.reduce(self.system, prop)
                    self._reductions_by_support[support_key] = reduction
            else:
                reduction = self.pipeline.reduce(self.system, prop)
            key = reduction.cone_key()
            cone = self._cones.get(key)
            if cone is None:
                cone = _Cone(reduction, self.purge_interval)
                self._cones[key] = cone
            self._assignments[name] = cone
            self._mapped[name] = cone.reduction.map_property(prop)
        return cone

    def cone_count(self) -> int:
        """Distinct cones currently materialized (diagnostics)."""
        return len(self._cones)

    def _select(self, names: Optional[Sequence[str]]
                ) -> Dict[str, Property]:
        if names is None:
            if not self.properties:
                raise ValueError("no properties registered")
            return dict(self.properties)
        out = {}
        for name in names:
            if name not in self.properties:
                raise KeyError(
                    f"unknown property {name!r}; registered: "
                    f"{sorted(self.properties)}")
            out[name] = self.properties[name]
        return out

    # ------------------------------------------------------------------
    def check(self, name: str, k: int,
              budget: Budget | None = None) -> PropertyResult:
        """Check one registered property at bound k (within-k search)."""
        prop = self._select([name])[name]
        if budget is not None:
            budget = budget.start()
        return self._query(name, prop, k, budget, escalate=True)

    def check_all(self, k: int, names: Optional[Sequence[str]] = None,
                  budget: Budget | None = None,
                  on_result: Callable[[PropertyResult], None] | None = None
                  ) -> Dict[str, PropertyResult]:
        """Check every (selected) property at bound k over one unrolling
        per cone.

        ``budget`` is started once and shared by the whole batch (one
        deadline, one set of pools), mirroring the sweep contract.
        """
        if k < 0:
            raise ValueError("bound k must be non-negative")
        selected = self._select(names)
        if budget is not None:
            budget = budget.start()
        out: Dict[str, PropertyResult] = {}
        for name, prop in selected.items():
            if budget is not None and budget.exhausted():
                result = PropertyResult(name, prop, Verdict.UNKNOWN,
                                        False, SolveResult.UNKNOWN, k,
                                        None, 0.0, {})
            else:
                result = self._query(name, prop, k, budget, escalate=True)
            out[name] = result
            if on_result is not None:
                on_result(result)
        return out

    def sweep(self, max_k: int, names: Optional[Sequence[str]] = None,
              budget: Budget | None = None,
              on_bound: OnPropertyBound | None = None
              ) -> Dict[str, PropertyResult]:
        """Resolve each property at its earliest bound in 0..max_k.

        Walks bounds upward over the one shared unrolling; a property
        leaves the ladder at its first witness (earliest
        counterexample for universal claims, earliest witness for
        Reachable).  Properties never witnessed get their bounded
        verdict at ``max_k``.  ``on_bound(name, BoundResult)`` streams
        every (property, bound) record as it lands.  ``budget`` is
        started once and shared by every query of the sweep.
        """
        from ..bmc.backend import BoundResult  # deferred: bmc imports spec
        if max_k < 0:
            raise ValueError("max_k must be non-negative")
        selected = self._select(names)
        if budget is not None:
            budget = budget.start()
        sweep_start = time.perf_counter()
        out: Dict[str, PropertyResult] = {}
        pending = dict(selected)
        for k in range(max_k + 1):
            if not pending:
                break
            for name in list(pending):
                prop = pending[name]
                if budget is not None and budget.exhausted():
                    out[name] = PropertyResult(
                        name, prop, Verdict.UNKNOWN, False,
                        SolveResult.UNKNOWN, k, None, 0.0, {})
                    del pending[name]
                    continue
                result = self._query(name, prop, k, budget)
                if on_bound is not None:
                    on_bound(name, BoundResult(
                        k, result.status, result.trace, result.seconds,
                        time.perf_counter() - sweep_start, result.stats))
                if result.status is not SolveResult.UNSAT:
                    out[name] = result
                    del pending[name]
        for name, prop in pending.items():
            # Swept every bound without a witness: the bounded verdict,
            # upgraded to a conclusive proof when the paired prover
            # closes one within the remaining budget.
            out[name] = self._bounded_verdict(
                name, prop, max_k, budget,
                escalate=budget is None or not budget.exhausted())
        return {name: out[name] for name in selected}

    # ------------------------------------------------------------------
    def _prover_for(self, name: str):
        """The paired prover backend for property ``name`` (cached:
        its base-case ladder and step solver persist across calls)."""
        backend = self._provers.get(name)
        if backend is None:
            from ..bmc.backend import create_backend  # deferred: bmc imports spec
            cone = self._cone_for(name)
            target = reachability_target(self._mapped[name])
            backend = create_backend(self.prover, cone.system, target)
            self._provers[name] = backend
        return backend

    def _escalate(self, name: str, k: int, budget: Budget | None):
        """After a bounded UNSAT at ``k``: ask the paired prover to
        close an unbounded proof on the property's cone.

        Returns the prover's :class:`~repro.bmc.backend.BmcResult`
        when it proved the target unreachable (invariant validated
        against the cone when one is shipped), else None — the caller
        keeps its bounded verdict.  A prover SAT is a witness *deeper*
        than the queried bound; it never overrides the bounded answer
        here (the bounded search already settled depths <= k).
        """
        if self.prover is None:
            return None
        target = reachability_target(self._mapped[name])
        if target is None:
            return None       # general bounded LTL: no prover form
        cone = self._cone_for(name)
        result = self._prover_for(name).check(
            max(k, self.prover_max_k), semantics="within", budget=budget)
        if not (result.status is SolveResult.UNSAT and result.proved):
            return None
        if self.validate and result.invariant is not None:
            from ..bmc.provers import validate_invariant  # deferred
            if not validate_invariant(cone.system, target,
                                      result.invariant):
                return None
        return result

    def _bounded_verdict(self, name: str, prop: Property, k: int,
                         budget: Budget | None = None,
                         escalate: bool = True) -> PropertyResult:
        _, universal = search_plan(prop)
        verdict = Verdict.HOLDS if universal else Verdict.VIOLATED
        if escalate:
            proof = self._escalate(name, k, budget)
            if proof is not None:
                stats = dict(proof.stats)
                stats["prover"] = self.prover
                return PropertyResult(name, prop, verdict, True,
                                      SolveResult.UNSAT, k, None,
                                      proof.seconds, stats, proved=True,
                                      invariant=proof.invariant)
        return PropertyResult(name, prop, verdict, False,
                              SolveResult.UNSAT, k, None, 0.0, {})

    def _query(self, name: str, prop: Property, k: int,
               budget: Budget | None,
               escalate: bool = False) -> PropertyResult:
        with current_tracer().span("spec.property", property=name,
                                   k=k) as sp:
            result = self._query_body(name, prop, k, budget, escalate)
            sp.set(status=result.status.name,
                   verdict=result.verdict.name)
            if result.proved:
                sp.set(proved=True)
        return result

    def _query_body(self, name: str, prop: Property, k: int,
                    budget: Budget | None,
                    escalate: bool = False) -> PropertyResult:
        """Uninstrumented body of :meth:`_query`."""
        start = time.perf_counter()
        cone = self._cone_for(name)
        reduction = cone.reduction
        system = cone.system
        mapped = self._mapped[name]
        if self.sim_tier:
            result = self._sim_prepass(name, prop, mapped, cone, k, start)
            if result is not None:
                return result
        formula, universal = search_plan(mapped)
        unrolling = cone.unrolling_for(k)
        if not unrolling.ensure_frames(k, budget):
            return PropertyResult(name, prop, Verdict.UNKNOWN, False,
                                  SolveResult.UNKNOWN, k, None,
                                  time.perf_counter() - start, {})
        frames = unrolling.frames[:k + 1]
        loops = None
        if needs_loop_closure(formula):
            loops = loop_conditions_for(system, frames)
        witness_expr = compile_search(formula, system, frames, loops)
        group = unrolling.activate(witness_expr)
        status, counters = unrolling.solve([group], budget=budget)
        trace = None
        if status is SolveResult.SAT:
            trace = unrolling.extract_trace(k)
            loop_inputs = None
            if loops is not None:
                loop_inputs = {v: unrolling.model_bit(loop_input_name(v))
                               for v in system.input_vars}
            if self.validate:
                # The bounded path semantics (lasso back-edge included)
                # hold over the cone the witness was found in ...
                self._validate_witness(name, formula, trace, loop_inputs,
                                       system)
            target = reachability_target(prop)
            if not reduction.is_identity:
                # ... and the lifted full-width path must replay
                # against the original transition system and still
                # reach the original target.
                trace = reduction.lift_witness(trace, target,
                                               shorten=target is not None)
                if trace is None:
                    raise TraceError(
                        f"lifted witness for property {name!r} does not "
                        f"replay on the original system to its target")
            elif target is not None:
                trace = trace.shorten_to(target)
        unrolling.retire(group)
        solver = unrolling.solver
        stats = {
            "trans_frames": unrolling.k,
            "witness_size": witness_expr.size(),
            "loop_closure": int(loops is not None),
            "vars": solver.num_vars,
            "clauses": solver.num_clauses(),
            "db_literals": solver.stats.db_literals,
            **counters,
        }
        if not reduction.is_identity:
            stats["latches_before"] = len(self.system.state_vars)
            stats["latches_after"] = len(system.state_vars)
        proved = False
        invariant = None
        if status is SolveResult.UNKNOWN:
            verdict, conclusive = Verdict.UNKNOWN, False
        elif status is SolveResult.SAT:
            verdict = Verdict.VIOLATED if universal else Verdict.HOLDS
            conclusive = True
        else:
            verdict = Verdict.HOLDS if universal else Verdict.VIOLATED
            conclusive = False
            if escalate:
                proof = self._escalate(name, k, budget)
                if proof is not None:
                    conclusive = True
                    proved = True
                    invariant = proof.invariant
                    stats["prover"] = self.prover
                    stats["prover_seconds"] = proof.seconds
                    # Fold the prover's solver work into the reported
                    # counters (its solvers already spent the budget).
                    for counter in ("solver_conflicts", "solver_decisions",
                                    "solver_propagations"):
                        stats[counter] = (stats.get(counter, 0)
                                          + proof.stats.get(counter, 0))
        seconds = time.perf_counter() - start
        return PropertyResult(name, prop, verdict, conclusive, status, k,
                              trace, seconds, stats, proved=proved,
                              invariant=invariant)

    def _sim_prepass(self, name: str, prop: Property, mapped: Property,
                     cone, k: int, start: float
                     ) -> Optional[PropertyResult]:
        """The random-simulation tier for one reachability-form query.

        Runs on the property's own reduced cone under ``within``
        semantics (the bounded search formula accepts a witness at any
        depth ≤ k, so a shallower simulation hit answers the same
        query).  Returns a conclusive SAT :class:`PropertyResult`, or
        None when the solver must run (a miss or a rejected witness).
        """
        target = reachability_target(prop)
        if target is None:
            return None
        from ..sim import presolve
        sim_out = presolve(self.system, target, k, semantics="within",
                           reduction=cone.reduction)
        if sim_out is None or not sim_out.hit:
            return None
        _, universal = search_plan(mapped)
        verdict = Verdict.VIOLATED if universal else Verdict.HOLDS
        stats = dict(sim_out.stats, sim_presolved=True)
        seconds = time.perf_counter() - start
        return PropertyResult(name, prop, verdict, True, SolveResult.SAT,
                              k, sim_out.trace, seconds, stats)

    def _validate_witness(self, name: str, formula: Property,
                          trace: Trace,
                          loop_inputs: Optional[Dict[str, bool]],
                          system: Optional[TransitionSystem] = None
                          ) -> None:
        """Debug-mode certificate check: replay + bounded semantics.

        ``loop_inputs`` is the model's back-edge input valuation when
        loop closure was compiled, else None (the witness must then
        hold under the loop-free semantics alone).  ``system`` is the
        system the witness was found on — the reduced cone for a
        reduced query, the checker's own system otherwise.
        """
        if system is None:
            system = self.system
        trace.validate(system)
        if holds_on_path(formula, trace.states):
            return
        if loop_inputs is not None:
            # Every candidate back-edge k -> l in one TR run: lane l
            # carries the step from the last state to state l.
            k = trace.length
            mask = (1 << (k + 1)) - 1
            last = trace.states[k]
            closing = system.trans_lanes(
                [mask if last[v] else 0 for v in system.state_vars],
                [mask if loop_inputs[n] else 0 for n in system.input_vars],
                [lane_vector(trace.states, v) for v in system.state_vars],
                mask)
            for loopback in range(k + 1):
                if closing >> loopback & 1 and holds_on_path(
                        formula, trace.states, loopback=loopback):
                    return
        raise TraceError(
            f"witness for property {name!r} does not satisfy its "
            f"bounded search formula — checker bug")

    def __repr__(self) -> str:  # pragma: no cover
        return (f"PropertyChecker({self.system.name!r}, "
                f"properties={sorted(self.properties)})")


# Imported last: repro.bmc imports this module (through its session
# layer), so the bmc package can load only once the names above exist.
from ..bmc.unroll import Unrolling, low_driver  # noqa: E402

#: The pre-Unrolling name of the shared unrolling, kept importable.
SharedUnrolling = Unrolling
