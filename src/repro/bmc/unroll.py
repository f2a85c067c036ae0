"""The unrolling I(Z0) ∧ TR(Z0,Z1) ∧ … ∧ TR(Zk-1,Zk), built in one place.

Formula (1), classical BMC, asks it together with the final states:

    R_k(Z0, Zk) = ∃ Z1..Zk-1 : I(Z0) ∧ F(Zk) ∧ ⋀_{i<k} TR(Zi, Zi+1)

The existentials are plain propositional variables, so the formula is
decided by a SAT solver.  The price is **k copies of TR** — the memory
growth the paper sets out to avoid; :func:`repro.bmc.metrics` measures
exactly this.

:class:`Unrolling` is the only code that builds BMC frames.  Every
engine that unrolls TR is a thin client of it: :class:`UnrolledEncoding`
(formula (1) as a plain CNF), :class:`~repro.bmc.incremental.IncrementalBmc`
(one live solver across a bound sweep), the multi-property checker
(:mod:`repro.spec.checker`), the k-induction step case
(:mod:`repro.bmc.provers`) and the recurrence-diameter query
(:mod:`repro.bmc.completeness`).  Interpolation keeps its own
A/B-partitioned encoder but shares the frame naming, registration and
trace extraction below.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..logic import expr as ex
from ..logic.cnf import CNF, VarPool
from ..logic.expr import Expr
from ..logic.tseitin import TseitinEncoder, expr_to_cnf
from ..sat.kernel import make_solver
from ..sat.types import Budget, SolveResult, stop_requested
from ..system.model import TransitionSystem
from ..system.trace import Trace
from ..telemetry.trace import current_tracer

__all__ = ["Unrolling", "UnrolledEncoding", "encode_unrolled",
           "frame_name", "state_frame", "transition", "register_frame",
           "read_trace", "solve_expr", "low_driver", "SOLVER_COUNTERS"]

#: The per-call solver work every client reports in its stats.
SOLVER_COUNTERS = ("solver_conflicts", "solver_decisions",
                   "solver_propagations")


def frame_name(var: str, step: int) -> str:
    """The CNF name of ``var`` at ``step`` (inputs: driving step -> step+1)."""
    return f"{var}@{step}"


def state_frame(system: TransitionSystem, step: int) -> List[str]:
    """The frame-named state bits of ``step``, in state-variable order."""
    return [frame_name(v, step) for v in system.state_vars]


def transition(system: TransitionSystem, step: int) -> Expr:
    """TR(Z_step, Z_step+1) over frame-named variables."""
    return system.trans_between(state_frame(system, step),
                                state_frame(system, step + 1),
                                input_suffix=frame_name("", step))


def register_frame(pool: VarPool, system: TransitionSystem,
                   step: int) -> None:
    """Register frame ``step``'s state bits and the inputs driving it.

    Registering every frame variable *before* solving guarantees the
    model covers them all with TR-consistent values: the CDCL solver
    only reports SAT once every variable it knows about is assigned.
    A variable the encoder simplified away (e.g. an input no frame
    constrains) would otherwise be unknown to the solver and read back
    as an arbitrary False.
    """
    for v in system.state_vars:
        pool.named(frame_name(v, step))
    if step:
        for v in system.input_vars:
            pool.named(frame_name(v, step - 1))


ModelValue = Callable[[int], Optional[bool]]


def _model_bit(pool: VarPool, model_value: ModelValue, name: str) -> bool:
    """One named bit of a model.  Never allocates: a name the pool does
    not hold (impossible after :func:`register_frame`) reads as False,
    as does an unassigned variable."""
    var = pool.lookup(name)
    return var is not None and bool(model_value(var))


def read_trace(system: TransitionSystem, pool: VarPool,
               model_value: ModelValue, k: int) -> Trace:
    """The length-k path of a model, read back by frame name."""
    def bit(name: str) -> bool:
        return _model_bit(pool, model_value, name)

    states = [{v: bit(frame_name(v, i)) for v in system.state_vars}
              for i in range(k + 1)]
    inputs = [{v: bit(frame_name(v, i)) for v in system.input_vars}
              for i in range(k)]
    return Trace(states, inputs)


def solve_expr(query: Expr, budget: Budget | None = None
               ) -> Tuple[SolveResult, Callable[[str], bool]]:
    """Decide one expression on a fresh solver (the one-shot query).

    Returns the verdict and a reader of the SAT model by variable name
    (False for a name the query does not mention).  A query whose
    clauses already conflict on loading is UNSAT without a solver call.
    """
    cnf, pool = expr_to_cnf(query)
    solver = make_solver()
    solver.ensure_vars(cnf.num_vars)
    status = (solver.solve(budget=budget) if solver.add_clauses(cnf.clauses)
              else SolveResult.UNSAT)
    return status, lambda name: _model_bit(pool, solver.model_value, name)


Driver = TypeVar("Driver")


def low_driver(low: Optional[Driver], k: int,
               make: Callable[[], Driver]) -> Driver:
    """The auxiliary driver answering bound ``k`` below the main one.

    Frames beyond the queried bound are asserted unconditionally, so
    for a transition relation that is not total they would exclude
    witnesses whose final state has no successor (spurious UNSAT).  A
    query *below* the frames the main driver already holds therefore
    goes to a second driver that itself only grows: ``low`` is reused
    while its frames do not pass ``k``, else replaced by ``make()``.
    Replace rather than chain: a long-lived client stays bounded at two
    drivers, monotone patterns (a sweep after a deep check) reuse the
    one low driver ascending, and a strictly descending probe pays one
    re-encode per step — the cost of a fresh per-call driver, never
    more.
    """
    if low is None or k < low.k:
        low = make()
    return low


class Unrolling:
    """One growing unrolling, optionally feeding one live solver.

    Frames are only ever appended (:meth:`ensure_frames`).  Per-query
    constraints attach through assumption groups (:meth:`activate` /
    :meth:`retire`), so the solver keeps every frame and every
    surviving learnt clause across all queries.  Retired groups are
    physically reclaimed every ``purge_interval`` retirements.

    The solver is created on first use and new clauses are streamed
    into it right before it is used (:meth:`_flush`), so an unrolling
    that is never solved stays a plain CNF (:class:`UnrolledEncoding`).

    ``init=False`` leaves Z0 unconstrained (the k-induction step case).
    """

    def __init__(self, system: TransitionSystem, init: bool = True,
                 polarity_reduction: bool = False,
                 purge_interval: int = 4) -> None:
        self.system = system
        self.polarity_reduction = polarity_reduction
        self.purge_interval = max(1, purge_interval)
        self.pool = VarPool()
        self.cnf = CNF()
        self.encoder = TseitinEncoder(self.cnf, self.pool,
                                      polarity_reduction)
        self._solver = None
        self._cursor = 0                 # clauses already in the solver
        self._retired_since_purge = 0
        self._distinct = 1               # leading frames pairwise distinct
        self.k = 0                       # transition frames encoded
        self.frames: List[List[str]] = [state_frame(system, 0)]
        if init:
            self.encoder.assert_expr(
                system.rename_state_expr(system.init, self.frames[0]))
        register_frame(self.pool, system, 0)

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def ensure_frames(self, k: int, budget: Budget | None = None) -> bool:
        """Grow the unrolling to k transition frames (append-only).

        Before each new frame, polls the process stop check and the
        (started) budget; returns False, without encoding further
        frames, as soon as either says stop.
        """
        tracer = current_tracer()
        while self.k < k:
            if stop_requested() or (budget is not None
                                    and budget.exhausted()):
                return False
            i = self.k
            with tracer.span("encode.frame", frame=i + 1) as sp:
                before = len(self.cnf.clauses)
                self.encoder.assert_expr(transition(self.system, i))
                self.frames.append(state_frame(self.system, i + 1))
                register_frame(self.pool, self.system, i + 1)
                self.k += 1
                sp.set(clauses=len(self.cnf.clauses) - before)
        return True

    def at(self, expr: Expr, step: int) -> Expr:
        """A state predicate renamed onto frame ``step``."""
        return self.system.rename_state_expr(expr, self.frames[step])

    def assert_loop_free(self) -> None:
        """Assert every encoded frame pairwise distinct (simple paths).

        Incremental: pairs asserted by an earlier call are not repeated.
        """
        for j in range(self._distinct, self.k + 1):
            later = [ex.var(n) for n in self.frames[j]]
            for i in range(j):
                same = ex.equal_vectors(
                    [ex.var(n) for n in self.frames[i]], later)
                self.encoder.assert_expr(ex.mk_not(same))
        self._distinct = self.k + 1

    # ------------------------------------------------------------------
    # The live solver
    # ------------------------------------------------------------------
    @property
    def solver(self):
        """The live solver (created on first use)."""
        if self._solver is None:
            self._solver = make_solver()
        return self._solver

    def _flush(self) -> None:
        """Stream newly encoded variables and clauses into the solver."""
        solver = self.solver
        solver.ensure_vars(max(self.cnf.num_vars, self.pool.num_vars))
        if self._cursor < len(self.cnf.clauses):
            new = self.cnf.clauses[self._cursor:]
            self._cursor = len(self.cnf.clauses)
            with current_tracer().span("sat.load", clauses=len(new)):
                solver.add_clauses(new)

    def activate(self, constraint: Expr) -> int:
        """Attach a retractable constraint; returns its group literal.

        The Tseitin definitions are asserted unconditionally (they never
        constrain the original variables); only the top literal is
        guarded by ``(-g, top)``, so the constraint bites exactly while
        ``g`` is assumed.  Group variables come from the shared pool, so
        they never collide with variables of later frames.
        """
        lit = self.encoder.encode(constraint)
        self._flush()
        group = self.pool.fresh("group")
        self.solver.ensure_vars(self.pool.num_vars)
        self.solver.add_clause([-group, lit])
        return group

    def retire(self, group: int) -> None:
        """Permanently disable a group (jSAT-style retirement).

        The unit ``-g`` satisfies the guard and every learnt clause
        derived from it at level 0; they are physically reclaimed on
        the next purge.
        """
        self._flush()
        self.solver.add_clause([-group])
        self._retired_since_purge += 1
        if self._retired_since_purge >= self.purge_interval:
            self.solver.purge_satisfied()
            self._retired_since_purge = 0

    def solve(self, assumptions: Sequence[int],
              budget: Budget | None = None
              ) -> Tuple[SolveResult, Dict[str, int]]:
        """Solve under the assumption literals.

        Returns the status and this call's solver work as
        ``solver_conflicts`` / ``solver_decisions`` /
        ``solver_propagations``.
        """
        self._flush()
        stats = self.solver.stats
        before = (stats.conflicts, stats.decisions, stats.propagations)
        status = self.solver.solve(list(assumptions), budget=budget)
        after = (stats.conflicts, stats.decisions, stats.propagations)
        return status, {key: now - then for key, now, then
                        in zip(SOLVER_COUNTERS, after, before)}

    def model_bit(self, name: str) -> bool:
        """One named bit of the last SAT model (never allocates)."""
        return _model_bit(self.pool, self.solver.model_value, name)

    def extract_trace(self, k: int) -> Trace:
        """The length-k path of the last SAT model."""
        return read_trace(self.system, self.pool, self.solver.model_value,
                          k)

    def resident_literals(self) -> int:
        """Clause-database literals currently resident in the solver."""
        return self.solver.stats.db_literals

    def __repr__(self) -> str:  # pragma: no cover
        return (f"{type(self).__name__}({self.system.name!r}, "
                f"frames={self.k}, clauses={len(self.cnf.clauses)})")


class UnrolledEncoding:
    """The CNF of formula (1) plus the bookkeeping to read traces back.

    Built on :class:`Unrolling` but never solved by it: callers load
    ``cnf`` into a solver of their own (or just measure it).

    Attributes
    ----------
    cnf:
        The propositional formula.
    pool:
        Variable pool; frame variables are named ``<var>@<step>``.
    k:
        The bound.
    complete:
        False when a stop request or the (started) ``budget`` cut
        encoding short; ``cnf`` is then a prefix of the formula and
        must not be solved.
    """

    def __init__(self, system: TransitionSystem, final: Expr, k: int,
                 semantics: str = "exact",
                 polarity_reduction: bool = False,
                 budget: Budget | None = None) -> None:
        if k < 0:
            raise ValueError("bound k must be non-negative")
        if semantics not in ("exact", "within"):
            raise ValueError(f"unknown semantics {semantics!r}")
        stray = final.support() - set(system.state_vars)
        if stray:
            raise ValueError(f"final predicate uses non-state vars: {stray}")
        self.system = system
        self.final = final
        self.k = k
        self.semantics = semantics
        unrolling = Unrolling(system, polarity_reduction=polarity_reduction)
        self.pool = unrolling.pool
        self.cnf = unrolling.cnf
        with current_tracer().span("encode.unroll", k=k,
                                   semantics=semantics) as sp:
            self.complete = unrolling.ensure_frames(k, budget)
            if self.complete:
                if semantics == "exact":
                    target = unrolling.at(final, k)
                else:
                    target = ex.disjoin(unrolling.at(final, i)
                                        for i in range(k + 1))
                unrolling.encoder.assert_expr(target)
            self.cnf.num_vars = max(self.cnf.num_vars, self.pool.num_vars)
            sp.set(clauses=len(self.cnf.clauses), vars=self.cnf.num_vars)

    # ------------------------------------------------------------------
    def state_var(self, name: str, step: int) -> int:
        """CNF variable of state bit ``name`` at the given step."""
        return self.pool.named(frame_name(name, step))

    def input_var(self, name: str, step: int) -> int:
        """CNF variable of input ``name`` driving step -> step+1."""
        return self.pool.named(frame_name(name, step))

    def extract_trace(self, model_value) -> Trace:
        """Rebuild the witness path from a satisfying assignment.

        ``model_value`` is a callable mapping a CNF variable to
        bool/None (e.g. ``KernelSolver.model_value``); unassigned
        variables default to False.
        """
        return read_trace(self.system, self.pool, model_value, self.k)

    def stats(self) -> Dict[str, int]:
        out = self.cnf.stats()
        out["trans_copies"] = self.k
        return out


def encode_unrolled(system: TransitionSystem, final: Expr, k: int,
                    semantics: str = "exact",
                    polarity_reduction: bool = False,
                    budget: Budget | None = None) -> UnrolledEncoding:
    """Build the formula (1) encoding for the given query."""
    return UnrolledEncoding(system, final, k, semantics, polarity_reduction,
                            budget)
