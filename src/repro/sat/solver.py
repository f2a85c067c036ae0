"""A CDCL SAT solver (MiniSat lineage), in pure Python.

Features: two-watched-literal propagation, first-UIP conflict analysis
with basic clause minimization, VSIDS decision heuristic with phase
saving, Luby restarts, LBD-aware learnt-clause deletion, incremental
solving under assumptions (with failed-assumption cores), resource
budgets, and optional resolution-proof logging (used for UNSAT cores and
Craig interpolation).

Retractable constraints (needed by jSAT to take back blocking clauses)
are expressed with *activation groups*: a clause ``(-g, c1, .., cn)`` is
active while the group literal ``g`` is assumed and permanently disabled
by ``add_clause([-g])``; :meth:`CdclSolver.purge_satisfied` then
physically reclaims every clause (including learnt clauses derived from
the group, which all contain ``-g``) — this is what keeps the jSAT
memory footprint bounded by a single transition-relation copy.

The public interface speaks DIMACS literals (signed ints); internally
the solver uses the MiniSat literal encoding from :mod:`repro.sat.types`.

This is the readable reference the array kernel
(:mod:`repro.sat.kernel`) is tested against; production queries,
including jSAT and the unrolled formula (1), run on the kernel.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence

from ..telemetry.metrics import current_metrics
from ..telemetry.trace import current_tracer
from .proof import ResolutionProof
from .types import (
    UNDEF,
    Budget,
    BudgetExceeded,
    Clause,
    SolveResult,
    from_internal,
    luby,
    stop_requested,
    to_internal,
)

__all__ = ["CdclSolver", "SolverStats"]


class SolverStats:
    """Counters exposed for the experiments (see bench_e6_memory)."""

    __slots__ = ("conflicts", "decisions", "propagations", "restarts",
                 "learned", "deleted", "purged", "db_literals",
                 "peak_db_literals", "solve_calls", "minimized_literals")

    def __init__(self) -> None:
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned = 0
        self.deleted = 0
        self.purged = 0
        self.db_literals = 0
        self.peak_db_literals = 0
        self.solve_calls = 0
        self.minimized_literals = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        return f"SolverStats({self.as_dict()})"


class CdclSolver:
    """Conflict-driven clause-learning SAT solver.

    Example
    -------
    >>> s = CdclSolver()
    >>> s.add_clause([1, 2])
    True
    >>> s.add_clause([-1, 2])
    True
    >>> s.solve() is SolveResult.SAT
    True
    >>> s.model_value(2)
    True
    """

    engine = "reference"

    def __init__(self, proof: ResolutionProof | None = None) -> None:
        self.proof = proof
        self.ok = True
        self._num_vars = 0
        # Indexed by internal variable (1-based; slot 0 unused).
        self._assign: List[int] = [UNDEF]
        self._level: List[int] = [0]
        self._reason: List[Optional[Clause]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._unit_proof: List[int] = [-1]      # proof id of level-0 units
        self._seen: List[bool] = [False]        # scratch for analyze
        # Indexed by internal literal.
        self._watches: List[List[Clause]] = [[], []]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._clauses: List[Clause] = []        # problem clauses
        self._learnts: List[Clause] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._heap: List[tuple[float, int]] = []
        self._model: List[int] = []
        self._core: List[int] = []
        self.stats = SolverStats()
        self._budget = Budget.unlimited()
        self._deadline: float | None = None
        self._run_conflicts = 0
        self._run_decisions = 0
        self._empty_clause_proof = -1

    # ==================================================================
    # Variables
    # ==================================================================
    def new_var(self) -> int:
        """Allocate a fresh variable; returns its DIMACS index."""
        self._num_vars += 1
        self._assign.append(UNDEF)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._unit_proof.append(-1)
        self._seen.append(False)
        self._watches.append([])
        self._watches.append([])
        heappush(self._heap, (0.0, self._num_vars))
        return self._num_vars

    def ensure_vars(self, up_to: int) -> None:
        """Make sure variables ``1..up_to`` exist."""
        while self._num_vars < up_to:
            self.new_var()

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def _value(self, lit: int) -> int:
        """Value of internal literal: 1 true, 0 false, UNDEF unassigned."""
        a = self._assign[lit >> 1]
        if a == UNDEF:
            return UNDEF
        return a ^ (lit & 1)

    def fixed_value(self, dimacs_lit: int) -> Optional[bool]:
        """Value of a literal fixed at decision level 0, else None."""
        v = abs(dimacs_lit)
        if v > self._num_vars:
            return None
        a = self._assign[v]
        if a == UNDEF or self._level[v] != 0:
            return None
        val = bool(a)
        return val if dimacs_lit > 0 else not val

    def set_default_phase(self, dimacs_var: int, phase: bool) -> None:
        """Seed the saved phase of a variable (decision polarity hint)."""
        self.ensure_vars(abs(dimacs_var))
        self._phase[abs(dimacs_var)] = phase

    # ==================================================================
    # Clauses
    # ==================================================================
    def add_clause(self, dimacs_lits: Iterable[int]) -> bool:
        """Add a clause; False means the formula is refuted, True
        promises nothing (a conflict may show only at the next solve,
        depending on the units earlier searches learnt).

        The solver backtracks to decision level 0 before adding.
        """
        self._cancel_until(0)
        if not self.ok:
            return False
        lits = sorted({to_internal(l) for l in dimacs_lits})
        for l in lits:
            self.ensure_vars(l >> 1)
        proof_id = -1
        if self.proof is not None:
            proof_id = self.proof.add_input([from_internal(l) for l in lits])

        out: List[int] = []
        strip_chain: List[tuple[int, int]] = []
        prev = 0
        for l in lits:
            if prev != 0 and (l ^ 1) == prev:
                return True                     # tautology: drop
            prev = l
            val = self._value(l)
            if val == 1:
                return True                     # satisfied at level 0
            if val == 0:
                strip_chain.append((self._unit_proof[l >> 1], l >> 1))
                continue                        # false at level 0: strip
            out.append(l)
        if self.proof is not None and strip_chain:
            proof_id = self.proof.add_derived(
                proof_id, strip_chain, [from_internal(l) for l in out])

        if not out:
            self.ok = False
            self._empty_clause_proof = proof_id
            return False
        if len(out) == 1:
            self._enqueue(out[0], None, unit_proof=proof_id)
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                self._log_final_conflict(conflict)
                return False
            return True
        clause = Clause(out, learnt=False, proof_id=proof_id)
        self._clauses.append(clause)
        self._attach(clause)
        return True

    def add_clauses(self, clause_list: Iterable[Iterable[int]]) -> bool:
        """Add many clauses; returns False if the formula became UNSAT."""
        result = True
        for lits in clause_list:
            if not self.add_clause(lits):
                result = False
        return result

    def purge_satisfied(self) -> int:
        """Physically delete clauses satisfied at level 0.

        Together with activation-group literals this implements clause
        retraction: after ``add_clause([-g])`` every clause carrying
        ``-g`` (the group's originals *and* all learnt clauses derived
        from them) is satisfied and reclaimed here.  Returns the number
        of clauses purged.
        """
        self._cancel_until(0)
        purged = 0
        for store in (self._clauses, self._learnts):
            kept: List[Clause] = []
            for clause in store:
                if clause.deleted:
                    continue
                if any(self._value(l) == 1 and self._level[l >> 1] == 0
                       for l in clause.lits):
                    self._detach(clause)
                    clause.deleted = True
                    purged += 1
                else:
                    kept.append(clause)
            store[:] = kept
        self.stats.purged += purged
        return purged

    def _attach(self, clause: Clause) -> None:
        lits = clause.lits
        self._watches[lits[0]].append(clause)
        self._watches[lits[1]].append(clause)
        self.stats.db_literals += len(lits)
        if self.stats.db_literals > self.stats.peak_db_literals:
            self.stats.peak_db_literals = self.stats.db_literals

    def _detach(self, clause: Clause) -> None:
        for w in (clause.lits[0], clause.lits[1]):
            try:
                self._watches[w].remove(clause)
            except ValueError:  # pragma: no cover - defensive
                pass
        self.stats.db_literals -= len(clause.lits)

    # ==================================================================
    # Trail
    # ==================================================================
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: Optional[Clause],
                 unit_proof: int = -1) -> None:
        v = lit >> 1
        self._assign[v] = 1 - (lit & 1)
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)
        if self.proof is not None and not self._trail_lim:
            self._record_unit_proof(lit, reason, unit_proof)

    def _record_unit_proof(self, lit: int, reason: Optional[Clause],
                           unit_proof: int) -> None:
        v = lit >> 1
        if unit_proof >= 0:
            self._unit_proof[v] = unit_proof
            return
        if reason is None:
            return
        assert self.proof is not None
        chain = [(self._unit_proof[q >> 1], q >> 1)
                 for q in reason.lits if q != lit]
        if chain:
            self._unit_proof[v] = self.proof.add_derived(
                reason.proof_id, chain, [from_internal(lit)])
        else:
            self._unit_proof[v] = reason.proof_id

    def _cancel_until(self, target_level: int) -> None:
        if self._decision_level() <= target_level:
            return
        boundary = self._trail_lim[target_level]
        heap = self._heap
        for i in range(len(self._trail) - 1, boundary - 1, -1):
            lit = self._trail[i]
            v = lit >> 1
            self._phase[v] = not (lit & 1)
            self._assign[v] = UNDEF
            self._reason[v] = None
            heappush(heap, (-self._activity[v], v))
        del self._trail[boundary:]
        del self._trail_lim[target_level:]
        self._qhead = min(self._qhead, boundary)

    # ==================================================================
    # Propagation
    # ==================================================================
    def _propagate(self) -> Optional[Clause]:
        """Unit propagation; returns the conflicting clause or None."""
        watches = self._watches
        assign = self._assign
        trail = self._trail
        while self._qhead < len(trail):
            p = trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            false_lit = p ^ 1
            watchers = watches[false_lit]
            if not watchers:
                continue
            kept: List[Clause] = []
            i = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                if clause.deleted:
                    continue
                lits = clause.lits
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                a = assign[first >> 1]
                if a != UNDEF and (a ^ (first & 1)) == 1:
                    kept.append(clause)          # already satisfied
                    continue
                found = False
                for j in range(2, len(lits)):
                    q = lits[j]
                    aq = assign[q >> 1]
                    if aq == UNDEF or (aq ^ (q & 1)) == 1:
                        lits[1], lits[j] = lits[j], lits[1]
                        watches[q].append(clause)
                        found = True
                        break
                if found:
                    continue
                kept.append(clause)
                if a == UNDEF:
                    self._enqueue(first, clause)
                else:
                    kept.extend(watchers[i:])
                    watches[false_lit] = kept
                    return clause
            watches[false_lit] = kept
        return None

    # ==================================================================
    # Conflict analysis
    # ==================================================================
    def _bump_var(self, v: int) -> None:
        act = self._activity[v] + self._var_inc
        self._activity[v] = act
        if act > 1e100:
            inv = 1e-100
            for i in range(1, self._num_vars + 1):
                self._activity[i] *= inv
            self._var_inc *= inv
            self._heap = [(-self._activity[v2], v2)
                          for v2 in range(1, self._num_vars + 1)
                          if self._assign[v2] == UNDEF]
            self._heap.sort()
            return
        if self._assign[v] == UNDEF:
            heappush(self._heap, (-act, v))

    def _bump_clause(self, clause: Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learnts:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: Clause) -> tuple[List[int], int, int]:
        """First-UIP analysis.

        Returns ``(learnt_lits, backtrack_level, proof_id)`` where
        ``learnt_lits[0]`` is the asserting literal.
        """
        learnt: List[int] = [0]                # slot 0: asserting literal
        seen = self._seen
        touched: List[int] = []
        path_count = 0
        p = -1
        index = len(self._trail) - 1
        current_level = self._decision_level()
        chain: List[tuple[int, int]] = []
        start_id = conflict.proof_id
        clause: Optional[Clause] = conflict
        proof_on = self.proof is not None

        while True:
            assert clause is not None
            if clause.learnt:
                self._bump_clause(clause)
            for q in clause.lits:
                if q == p:
                    continue
                v = q >> 1
                if seen[v]:
                    continue
                lv = self._level[v]
                if lv == 0:
                    if proof_on:
                        chain.append((self._unit_proof[v], v))
                    continue
                seen[v] = True
                touched.append(v)
                self._bump_var(v)
                if lv >= current_level:
                    path_count += 1
                else:
                    learnt.append(q)
            while not seen[self._trail[index] >> 1]:
                index -= 1
            p = self._trail[index]
            index -= 1
            v = p >> 1
            seen[v] = False
            path_count -= 1
            if path_count == 0:
                break
            clause = self._reason[v]
            if proof_on:
                assert clause is not None
                chain.append((clause.proof_id, v))
        learnt[0] = p ^ 1

        learnt, chain = self._minimize(learnt, chain)

        for v in touched:
            seen[v] = False

        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if self._level[learnt[i] >> 1] > self._level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = self._level[learnt[1] >> 1]

        proof_id = -1
        if proof_on:
            assert self.proof is not None
            proof_id = self.proof.add_derived(
                start_id, chain, [from_internal(l) for l in learnt])
        return learnt, bt_level, proof_id

    def _minimize(self, learnt: List[int], chain: List[tuple[int, int]]):
        """Basic (non-recursive) clause minimization.

        A literal is redundant if its reason's other literals are all in
        the learnt clause or fixed at level 0.  ``self._seen`` is True
        exactly for the variables of ``learnt[1:]`` on entry (analyze
        cleared only the resolved-away ones).
        """
        seen = self._seen
        for l in learnt[1:]:
            seen[l >> 1] = True
        kept = [learnt[0]]
        removed_chain: List[tuple[int, int]] = []
        proof_on = self.proof is not None
        for l in learnt[1:]:
            v = l >> 1
            reason = self._reason[v]
            if reason is None:
                kept.append(l)
                continue
            redundant = True
            for q in reason.lits:
                qv = q >> 1
                if qv == v:
                    continue
                if not seen[qv] and self._level[qv] > 0:
                    redundant = False
                    break
            if redundant:
                self.stats.minimized_literals += 1
                if proof_on:
                    removed_chain.append((reason.proof_id, v))
                    for q in reason.lits:
                        qv = q >> 1
                        if qv != v and self._level[qv] == 0:
                            removed_chain.append((self._unit_proof[qv], qv))
                seen[v] = False
            else:
                kept.append(l)
        return kept, chain + removed_chain

    def _log_final_conflict(self, conflict: Clause) -> None:
        """Derive the empty clause when a conflict occurs at level 0."""
        if self.proof is None:
            return
        chain = [(self._unit_proof[q >> 1], q >> 1) for q in conflict.lits]
        self._empty_clause_proof = self.proof.add_derived(
            conflict.proof_id, chain, [])

    @property
    def empty_clause_proof(self) -> int:
        """Proof id of the derived empty clause (UNSAT runs only)."""
        return self._empty_clause_proof

    # ==================================================================
    # Learnt clause management
    # ==================================================================
    def _learn(self, lits: List[int], proof_id: int) -> None:
        self.stats.learned += 1
        if len(lits) == 1:
            self._enqueue(lits[0], None, unit_proof=proof_id)
            return
        clause = Clause(list(lits), learnt=True, proof_id=proof_id)
        clause.lbd = len({self._level[l >> 1] for l in lits})
        self._learnts.append(clause)
        self._attach(clause)
        self._bump_clause(clause)
        self._enqueue(lits[0], clause)

    def _reduce_db(self) -> None:
        """Delete roughly half of the learnt clauses (high LBD first)."""
        learnts = [c for c in self._learnts if not c.deleted]
        learnts.sort(key=lambda c: (-c.lbd, c.activity))
        locked = {id(self._reason[l >> 1])
                  for l in self._trail if self._reason[l >> 1] is not None}
        target = len(learnts) // 2
        kept: List[Clause] = []
        for idx, clause in enumerate(learnts):
            drop = (idx < target and len(clause.lits) > 2 and clause.lbd > 2
                    and id(clause) not in locked)
            if drop:
                self._detach(clause)
                clause.deleted = True
                self.stats.deleted += 1
            else:
                kept.append(clause)
        self._learnts = kept

    # ==================================================================
    # Decisions
    # ==================================================================
    def _pick_branch_var(self) -> int:
        heap = self._heap
        activity = self._activity
        assign = self._assign
        while heap:
            neg_act, v = heappop(heap)
            if assign[v] == UNDEF and -neg_act == activity[v]:
                return v
        # Heap ran dry (stale entries only): rebuild from scratch.
        fresh = [(-activity[v], v) for v in range(1, self._num_vars + 1)
                 if assign[v] == UNDEF]
        if not fresh:
            return 0
        fresh.sort()
        self._heap = fresh
        neg_act, v = heappop(self._heap)
        return v

    # ==================================================================
    # Budgets
    # ==================================================================
    def _check_budget(self) -> None:
        b = self._budget
        if b.max_conflicts is not None and self._run_conflicts >= b.max_conflicts:
            raise BudgetExceeded("conflicts")
        if b.max_decisions is not None and self._run_decisions >= b.max_decisions:
            raise BudgetExceeded("decisions")
        if (b.max_propagations is not None
                and self.stats.propagations >= b.max_propagations):
            raise BudgetExceeded("propagations")
        if (b.max_literals is not None
                and self.stats.db_literals >= b.max_literals):
            raise BudgetExceeded("memory")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded("time")
        if stop_requested():
            raise BudgetExceeded("cancelled")

    # ==================================================================
    # Main solve loop
    # ==================================================================
    def solve(self, assumptions: Sequence[int] = (),
              budget: Budget | None = None) -> SolveResult:
        """Decide satisfiability under the given assumptions.

        Returns SAT / UNSAT / UNKNOWN (budget exhausted).  After SAT,
        :meth:`model_value` reads the model; after UNSAT under
        assumptions, :meth:`core` gives the failed-assumption subset.

        When the process tracer / metrics registry is enabled (see
        :mod:`repro.telemetry`) each call emits a ``sat.solve`` span
        and per-call counter deltas; with both disabled the fast path
        below adds two attribute checks.
        """
        tracer = current_tracer()
        registry = current_metrics()
        if not tracer.enabled and not registry.enabled:
            return self._solve(assumptions, budget)

        stats = self.stats
        before = (stats.conflicts, stats.decisions, stats.propagations,
                  stats.restarts, stats.learned)
        start = time.monotonic()
        with tracer.span("sat.solve", assumptions=len(assumptions),
                         engine=self.engine, core="reference") as sp:
            result = self._solve(assumptions, budget)
            sp.set(result=result.name,
                   conflicts=stats.conflicts - before[0],
                   decisions=stats.decisions - before[1],
                   propagations=stats.propagations - before[2],
                   db_literals=stats.db_literals)
        registry.inc("sat.solve_calls")
        registry.inc("sat.conflicts", stats.conflicts - before[0])
        registry.inc("sat.decisions", stats.decisions - before[1])
        registry.inc("sat.propagations", stats.propagations - before[2])
        registry.inc("sat.restarts", stats.restarts - before[3])
        registry.inc("sat.learned", stats.learned - before[4])
        registry.gauge("sat.db_literals", stats.db_literals)
        registry.gauge_max("sat.peak_db_literals", stats.peak_db_literals)
        registry.observe("sat.solve_seconds", time.monotonic() - start)
        return result

    def _solve(self, assumptions: Sequence[int] = (),
               budget: Budget | None = None) -> SolveResult:
        """Uninstrumented body of :meth:`solve`."""
        self.stats.solve_calls += 1
        self._budget = budget or Budget.unlimited()
        # An armed budget (Budget.arm) carries one shared deadline
        # across every call that consumes it — the deepening-loop
        # contract.  Unarmed budgets keep the per-call window.
        if self._budget.deadline is not None:
            self._deadline = self._budget.deadline
        else:
            self._deadline = (time.monotonic() + self._budget.max_seconds
                              if self._budget.max_seconds is not None
                              else None)
        self._run_conflicts = 0
        self._run_decisions = 0
        self._model = []
        self._core = []
        # An already-expired deadline (or a pending cancellation) must
        # stop the call *here*: easy queries can be decided purely by
        # level-0 propagation, which never reaches the in-search budget
        # checks.
        if (self._deadline is not None
                and time.monotonic() > self._deadline) or stop_requested():
            self._budget = Budget.unlimited()
            self._deadline = None
            return SolveResult.UNKNOWN
        self._cancel_until(0)
        if not self.ok:
            return SolveResult.UNSAT
        conflict = self._propagate()
        if conflict is not None:
            self.ok = False
            self._log_final_conflict(conflict)
            return SolveResult.UNSAT

        internal_assumptions = [to_internal(l) for l in assumptions]
        for l in internal_assumptions:
            self.ensure_vars(l >> 1)

        try:
            return self._search(internal_assumptions)
        except BudgetExceeded:
            self._cancel_until(0)
            return SolveResult.UNKNOWN
        finally:
            self._budget = Budget.unlimited()
            self._deadline = None

    def _search(self, assumptions: List[int]) -> SolveResult:
        restart_count = 0
        max_learnts = max(1000, len(self._clauses) // 3)
        while True:
            restart_count += 1
            conflict_limit = 100 * luby(restart_count)
            status = self._search_episode(assumptions, conflict_limit,
                                          max_learnts)
            if status is not None:
                return status
            self.stats.restarts += 1
            self._cancel_until(0)
            if len(self._learnts) > max_learnts:
                max_learnts = int(max_learnts * 1.3)

    def _search_episode(self, assumptions: List[int], conflict_limit: int,
                        max_learnts: int) -> Optional[SolveResult]:
        episode_conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                episode_conflicts += 1
                self._run_conflicts += 1
                self.stats.conflicts += 1
                if self._decision_level() == 0:
                    self.ok = False
                    self._log_final_conflict(conflict)
                    return SolveResult.UNSAT
                learnt, bt_level, proof_id = self._analyze(conflict)
                self._cancel_until(bt_level)
                self._learn(learnt, proof_id)
                self._var_inc /= self._var_decay
                self._cla_inc /= 0.999
                self._check_budget()
                continue

            if len(self._learnts) - len(self._trail) > max_learnts:
                self._reduce_db()
            if episode_conflicts >= conflict_limit:
                return None                      # restart

            # Place the next assumption (MiniSat style: one decision
            # level per assumption, dummy level if already true).
            next_lit = 0
            while self._decision_level() < len(assumptions):
                lit = assumptions[self._decision_level()]
                val = self._value(lit)
                if val == 1:
                    self._trail_lim.append(len(self._trail))
                elif val == 0:
                    self._core = self._analyze_assumption_conflict(lit)
                    return SolveResult.UNSAT
                else:
                    next_lit = lit
                    break
            if next_lit == 0:
                v = self._pick_branch_var()
                if v == 0:
                    self._save_model()
                    return SolveResult.SAT
                next_lit = 2 * v + (0 if self._phase[v] else 1)
            self.stats.decisions += 1
            self._run_decisions += 1
            self._check_budget()
            self._trail_lim.append(len(self._trail))
            self._enqueue(next_lit, None)

    def _save_model(self) -> None:
        self._model = list(self._assign)

    def _analyze_assumption_conflict(self, failed_lit: int) -> List[int]:
        """Failed-assumption core: which earlier assumptions force the
        negation of ``failed_lit`` (MiniSat ``analyzeFinal``)."""
        core = {from_internal(failed_lit)}
        seen = [False] * (self._num_vars + 1)
        seen[failed_lit >> 1] = True
        for i in range(len(self._trail) - 1, -1, -1):
            lit = self._trail[i]
            v = lit >> 1
            if not seen[v]:
                continue
            reason = self._reason[v]
            if reason is None:
                if self._level[v] > 0:
                    core.add(from_internal(lit))
            else:
                for q in reason.lits:
                    if (q >> 1) != v and self._level[q >> 1] > 0:
                        seen[q >> 1] = True
            seen[v] = False
        return sorted(core, key=abs)

    # ==================================================================
    # Result inspection
    # ==================================================================
    def model_value(self, dimacs_var: int) -> Optional[bool]:
        """Value of a variable in the last model (None if unassigned)."""
        v = abs(dimacs_var)
        if not self._model or v >= len(self._model):
            return None
        a = self._model[v]
        if a == UNDEF:
            return None
        return bool(a) if dimacs_var > 0 else not bool(a)

    def model(self) -> Dict[int, bool]:
        """The last satisfying assignment as var -> bool."""
        return {v: bool(self._model[v])
                for v in range(1, len(self._model))
                if self._model[v] != UNDEF}

    def core(self) -> List[int]:
        """Failed assumption literals of the last UNSAT-under-assumptions
        call (a subset of the assumptions, in DIMACS form)."""
        return list(self._core)

    def num_clauses(self) -> int:
        """Number of attached problem clauses (excludes learnt)."""
        return sum(1 for c in self._clauses if not c.deleted)

    def num_learnts(self) -> int:
        """Number of learnt clauses currently retained in the database."""
        return sum(1 for c in self._learnts if not c.deleted)
