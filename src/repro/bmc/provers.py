"""The unbounded provers as first-class backends.

The bounded methods of the paper's comparison can only ever answer
"no counterexample *within k*" — every true property leaves the race
UNKNOWN-at-bound-k.  The completeness story the paper sketches (deepen
to the recurrence diameter), temporal induction, and McMillan-style
interpolation all close that gap; this module ports the three
procedures of :mod:`repro.bmc.induction`, :mod:`repro.bmc.interpolation`
and :mod:`repro.bmc.completeness` onto the :class:`Backend` protocol:

* ``k-induction`` — base(k) on a persistent :class:`IncrementalBmc`
  ladder plus an incremental step-case engine (frames, loop-free
  distinctness and good-state constraints grow monotonically; the
  bad-successor obligation is a retractable assumption group);
* ``interpolation`` — per-rung McMillan fixpoint iteration; the first
  (R = init) query's UNSAT is the bounded within-k answer, a fixpoint
  yields a proof **with an inductive invariant** attached to the
  result;
* ``diameter`` — the falsifier ladder plus the recurrence-diameter
  side-check: once no loop-free path of length k exists, the refuted
  sweep to k is an unbounded proof.

All three answer only ``within`` semantics (a prover asks "any
counterexample at all?", never "exactly k"), set ``proves_unbounded``,
and may return a :class:`BmcResult` with ``proved=True`` — the target
is unreachable at *every* depth.  Their ``sweep`` feeds
:func:`drive_sweep` a 4-tuple so the shared ladder stops at the first
proved bound.

:func:`validate_invariant` re-checks an invariant certificate with
three independent SAT calls — the race parent runs it on a prover's
winning proof exactly as it replays a falsifier's witness trace.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..logic import expr as ex
from ..logic.expr import Expr
from ..sat.types import Budget, SolveResult
from ..system.model import TransitionSystem
from ..system.trace import Trace
from .backend import (Backend, BackendOptions, BmcResult, OnBound,
                      SweepResult, drive_sweep, register_backend)
from .incremental import IncrementalBmc
from .interpolation import _bounded_query, _implies
from .unroll import (SOLVER_COUNTERS, Unrolling, solve_expr, state_frame,
                     transition)

__all__ = ["KInductionBackend", "InterpolationBackend", "DiameterBackend",
           "KInductionOptions", "InterpolationOptions", "DiameterOptions",
           "validate_invariant"]


def validate_invariant(system: TransitionSystem, bad: Expr,
                       invariant: Expr) -> bool:
    """Independently check an inductive-invariant certificate.

    Three SAT calls, each of which must come back UNSAT:

    * ``init ∧ ¬inv``      — the invariant contains every initial state;
    * ``inv ∧ bad``        — the invariant excludes the bad states;
    * ``inv ∧ TR ∧ ¬inv'`` — the invariant is closed under TR.

    Together these imply ``bad`` is unreachable, independently of the
    prover that produced the invariant — the proof-side analogue of
    replaying a counterexample trace.
    """
    f0, f1 = state_frame(system, 0), state_frame(system, 1)
    queries = (
        ex.mk_and(system.init, ex.mk_not(invariant)),
        ex.mk_and(invariant, bad),
        ex.mk_and(
            ex.mk_and(system.rename_state_expr(invariant, f0),
                      transition(system, 0)),
            system.rename_state_expr(ex.mk_not(invariant), f1)),
    )
    # Unbudgeted: a certificate check must be definite.
    return all(solve_expr(query)[0] is SolveResult.UNSAT
               for query in queries)


def _accumulate(totals: Dict[str, int], stats: Dict[str, int]) -> None:
    for key in SOLVER_COUNTERS:
        totals[key] = totals.get(key, 0) + stats.get(key, 0)


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class KInductionOptions(BackendOptions):
    purge_interval: int = 4


class _ProverBackend(Backend):
    """Shared shape of the three provers: within-only semantics, a
    cached conclusive answer, and the proved-aware sweep ladder."""

    supported_semantics = ("within",)
    proves_unbounded = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        stray = self.final.support() - set(self.system.state_vars)
        if stray:
            raise ValueError(
                f"final predicate uses non-state vars: {stray}")
        self._proved = False
        self._invariant: Optional[Expr] = None
        self._cex: Optional[Trace] = None

    def _require_within(self, semantics: str) -> None:
        if semantics != "within":
            raise ValueError(
                f"{self.name} proves unbounded safety; it only answers "
                f"'within' semantics, not {semantics!r}")

    def _cached(self, k: int) -> Optional[BmcResult]:
        """A conclusive answer already on the instance, if applicable."""
        if self._proved:
            return self.result(SolveResult.UNSAT, None, k, {},
                               proved=True, invariant=self._invariant)
        if self._cex is not None and len(self._cex.states) - 1 <= k:
            return self.result(SolveResult.SAT, self._cex, k, {})
        return None

    def sweep(self, max_k: int, budget: Budget | None = None,
              on_bound: OnBound | None = None) -> SweepResult:
        """The prover ladder: within-k rungs, stop at the first proved
        bound (the 4-tuple protocol of :func:`drive_sweep`)."""
        def check(k: int, remaining: Budget | None):
            result = self.check(k, semantics="within", budget=remaining)
            return result.status, result.trace, result.stats, result.proved
        return drive_sweep(self.name, max_k, range(max_k + 1), check,
                           budget=budget, on_bound=on_bound)


class _LadderProver(_ProverBackend):
    """A prover whose rung k refutes exact-k on a persistent
    :class:`IncrementalBmc` ladder, earlier bounds having been refuted
    and retired on earlier rungs, then tries to close an unbounded
    proof (:meth:`_closes`).  ``rungs_stat`` names its rung counter."""

    native_incremental = True
    rungs_stat = ""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._base: Optional[IncrementalBmc] = None
        self._refuted = -1            # every exact-i <= this is UNSAT

    @property
    def base(self) -> IncrementalBmc:
        if self._base is None:
            self._base = IncrementalBmc(
                self.system, self.final,
                purge_interval=self.options.purge_interval)
        return self._base

    def _closes(self, k: int, budget: Budget | None,
                totals: Dict[str, int]) -> bool:
        """Whether the ladder refuted up to k proves the target
        unreachable; solver work goes into ``totals``."""
        raise NotImplementedError

    def check(self, k: int, semantics: str = "within",
              budget: Budget | None = None) -> BmcResult:
        self._require_within(semantics)
        if budget is not None:
            budget = budget.start()   # one pool across all rungs
        cached = self._cached(k)
        if cached is not None:
            return cached
        totals: Dict[str, int] = {}
        rungs = 0
        for i in range(self._refuted + 1, k + 1):
            rungs += 1
            status, trace, stats = self.base.check_bound(i, budget=budget)
            _accumulate(totals, stats)
            if status is SolveResult.SAT:
                self._cex = trace
                return self.result(SolveResult.SAT, trace, k,
                                   self._stats(totals, rungs))
            if status is SolveResult.UNKNOWN:
                return self.result(SolveResult.UNKNOWN, None, k,
                                   self._stats(totals, rungs))
            self.base.retire_bound(i)
            self._refuted = i
            if self._closes(i, budget, totals):
                self._proved = True
                return self.result(SolveResult.UNSAT, None, k,
                                   self._stats(totals, rungs), proved=True)
        if k <= self._refuted:
            return self.result(SolveResult.UNSAT, None, k,
                               self._stats(totals, rungs))
        return self.result(SolveResult.UNKNOWN, None, k,
                           self._stats(totals, rungs))

    def _stats(self, totals: Dict[str, int], rungs: int) -> Dict[str, int]:
        totals = dict(totals)
        totals[self.rungs_stat] = rungs
        if self._base is not None:
            totals["trans_frames"] = self._base.k
        return totals

    def close(self) -> None:
        self._base = None


@register_backend("k-induction")
class KInductionBackend(_LadderProver):
    """Temporal induction (Sheeran–Singh–Stålmarck) as a backend.

    Rung k runs base(k) — one exact-k query on the persistent
    :class:`IncrementalBmc` ladder, earlier bounds having been refuted
    and retired on earlier rungs — then step(k) on one incremental
    step-case :class:`~repro.bmc.unroll.Unrolling` without init.  Its
    frames, loop-free distinctness and good-state constraints grow
    monotonically with the rung; the one obligation that must *flip* —
    bad at the last frame, good once the next rung subsumes it — is a
    retractable assumption group.  An UNSAT step closes an unbounded
    proof; the distinctness constraints make the pair complete for
    finite systems.
    """

    options_class = KInductionOptions
    rungs_stat = "induction_rungs"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._step: Optional[Unrolling] = None
        self._good_upto = -1          # highest step frame asserted good

    def _closes(self, k: int, budget: Budget | None,
                totals: Dict[str, int]) -> bool:
        """step(k): UNSAT iff k+1 loop-free good states never reach a
        bad successor — together with base(k) that is a proof.  Rungs
        must ascend (the ladder always does)."""
        if self._step is None:
            self._step = Unrolling(
                self.system, init=False,
                purge_interval=self.options.purge_interval)
        step = self._step
        if not step.ensure_frames(k + 1, budget):
            return False
        step.assert_loop_free()
        good = ex.mk_not(self.final)
        for i in range(self._good_upto + 1, k + 1):
            step.encoder.assert_expr(step.at(good, i))
        self._good_upto = k
        group = step.activate(step.at(self.final, k + 1))
        status, stats = step.solve([group], budget=budget)
        # Retire the bad obligation: the next rung asserts good here.
        step.retire(group)
        _accumulate(totals, stats)
        # Step SAT (induction too weak yet) or UNKNOWN: deepen.
        return status is SolveResult.UNSAT

    def close(self) -> None:
        super().close()
        self._step = None
        self._good_upto = -1


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class InterpolationOptions(BackendOptions):
    max_iterations: int = 256


@register_backend("interpolation")
class InterpolationBackend(_ProverBackend):
    """McMillan's interpolation-based checking as a backend.

    Rung k runs the fixpoint iteration at that unrolling depth: the
    first (R = init) query's UNSAT *is* the bounded within-k answer;
    an interpolant fixpoint closes the proof and attaches the
    inductive invariant to the result; a spurious SAT on a widened R
    simply ends the rung — the sweep ladder supplies the deeper k the
    textbook algorithm would restart with.
    """

    options_class = InterpolationOptions

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._init_safe = False       # depth-0 probe already refuted

    def _probe_init(self, budget: Budget | None) -> Optional[BmcResult]:
        """Depth-0: an initial state may already be bad."""
        if self._init_safe:
            return None
        status, bit = solve_expr(ex.mk_and(self.system.init, self.final),
                                 budget)
        if status is SolveResult.UNKNOWN:
            return self.result(SolveResult.UNKNOWN, None, 0, {})
        if status is SolveResult.SAT:
            self._cex = Trace([{v: bit(v) for v in self.system.state_vars}])
            return self.result(SolveResult.SAT, self._cex, 0, {})
        self._init_safe = True
        return None

    def check(self, k: int, semantics: str = "within",
              budget: Budget | None = None) -> BmcResult:
        self._require_within(semantics)
        if budget is not None:
            budget = budget.start()   # one pool across all iterations
        cached = self._cached(k)
        if cached is not None:
            return cached
        probe = self._probe_init(budget)
        if probe is not None:
            probe.k = k
            return probe
        if k == 0:
            return self.result(SolveResult.UNSAT, None, 0, {})
        reach = self.system.init
        is_initial = True
        iterations = 0
        bounded_unsat = False
        while iterations < self.options.max_iterations:
            iterations += 1
            status, itp, trace = _bounded_query(self.system, reach,
                                                self.final, k, budget)
            stats = {"itp_iterations": iterations}
            if status is SolveResult.UNKNOWN:
                # The bounded answer stands once the R = init query was
                # refuted; only the proof attempt ran out of budget.
                final = (SolveResult.UNSAT if bounded_unsat
                         else SolveResult.UNKNOWN)
                return self.result(final, None, k, stats)
            if status is SolveResult.SAT:
                if is_initial:
                    assert trace is not None
                    trace.validate(self.system, self.final)
                    self._cex = trace
                    return self.result(SolveResult.SAT, trace, k, stats)
                break                 # spurious — deepen via the ladder
            if is_initial:
                bounded_unsat = True
            assert itp is not None
            if _implies(itp, reach, budget):
                self._proved = True
                self._invariant = reach
                return self.result(SolveResult.UNSAT, None, k, stats,
                                   proved=True, invariant=reach)
            reach = ex.mk_or(reach, itp)
            is_initial = False
        return self.result(SolveResult.UNSAT, None, k,
                           {"itp_iterations": iterations})


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class DiameterOptions(BackendOptions):
    purge_interval: int = 4


@register_backend("diameter")
class DiameterBackend(_LadderProver):
    """The paper's completeness procedure as a backend.

    Rung k refutes exact-k on the persistent :class:`IncrementalBmc`
    ladder, then asks :func:`longest_simple_path_reached` whether any
    loop-free path of length k still exists — once none does, every
    reachable state was already covered and the refuted sweep is an
    unbounded proof ("the bound should be increased iteratively up to
    the length of the longest simple path", §intro).
    """

    options_class = DiameterOptions
    rungs_stat = "diameter_rungs"

    def _closes(self, k: int, budget: Budget | None,
                totals: Dict[str, int]) -> bool:
        # Imported lazily: completeness.py pulls in the session layer.
        from .completeness import longest_simple_path_reached
        # None on budget exhaustion: the bounded ladder may still
        # finish, so keep deepening.
        return bool(longest_simple_path_reached(self.system, k, budget))
