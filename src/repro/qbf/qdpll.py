"""Search-based QDPLL — a general-purpose QBF decision procedure.

This implements the classical DPLL lifting for QBF (Cadoli et al. /
Quaffle lineage, the state of the art evaluated by the paper):

* decisions follow the quantifier prefix outside-in;
* unit propagation with *universal reduction*;
* pure-literal rule (existential pures satisfy, universal pures weaken);
* chronological backtracking: a falsified matrix flips the deepest
  untried **existential** decision, a satisfied matrix flips the deepest
  untried **universal** decision.

It is deliberately a faithful baseline rather than a modern solver: the
paper's observation — that general-purpose QBF solvers of this family
collapse on the BMC formulae (2) and (3) while plain SAT handles the
unrolled formula (1) — is exactly the behaviour this implementation
reproduces (experiment E5).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..sat.types import (Budget, BudgetExceeded, SolveResult,
                         stop_requested)
from .pcnf import PCNF

__all__ = ["QdpllSolver", "QbfStats"]


class QbfStats:
    """Counters for the QBF experiments."""

    __slots__ = ("decisions", "conflicts", "solutions", "propagations",
                 "backtracks")

    def __init__(self) -> None:
        self.decisions = 0
        self.conflicts = 0
        self.solutions = 0
        self.propagations = 0
        self.backtracks = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _TrailEntry:
    __slots__ = ("var", "value", "is_decision", "tried_both")

    def __init__(self, var: int, value: bool, is_decision: bool) -> None:
        self.var = var
        self.value = value
        self.is_decision = is_decision
        self.tried_both = False


class QdpllSolver:
    """Decide the truth of a PCNF formula.

    Free matrix variables are treated as outermost existentials, per
    QDIMACS convention.  ``solve`` returns SAT (true), UNSAT (false) or
    UNKNOWN (budget exhausted).
    """

    def __init__(self, pcnf: PCNF) -> None:
        self.pcnf = pcnf
        self.stats = QbfStats()
        self._info = pcnf.var_levels()          # var -> (quant, level)
        # Variables in decision order: outermost first; free vars first.
        self._order = sorted(self._info, key=lambda v: (self._info[v][1], v))
        self._assign: Dict[int, bool] = {}
        self._trail: List[_TrailEntry] = []
        self._clauses: List[Tuple[int, ...]] = [tuple(c)
                                                for c in pcnf.matrix.clauses]
        self._budget = Budget().start()
        self._at_start = (0, 0, 0)

    # ------------------------------------------------------------------
    def solve(self, budget: Budget | None = None) -> SolveResult:
        """Run the QDPLL search to completion or budget exhaustion.

        Draws from ``budget`` like a SAT kernel call: stops at its
        deadline, uses at most what its pools hold (a found solution
        counts as a conflict) and spends what it used on return.
        """
        self._budget = (budget or Budget()).start()
        self._at_start = self._counters()
        self._assign.clear()
        self._trail.clear()
        if any(len(c) == 0 for c in self._clauses):
            return SolveResult.UNSAT
        try:
            return self._search()
        except BudgetExceeded:
            return SolveResult.UNKNOWN
        finally:
            self._budget.spend(*self._spent())

    def assignment(self) -> Dict[int, bool]:
        """The assignment at termination (meaningful prefix: see caller)."""
        return dict(self._assign)

    # ------------------------------------------------------------------
    def _counters(self) -> Tuple[int, int, int]:
        s = self.stats
        return s.conflicts + s.solutions, s.decisions, s.propagations

    def _spent(self) -> Tuple[int, int, int]:
        """(conflicts, decisions, propagations) used by this call."""
        return tuple(now - then for now, then
                     in zip(self._counters(), self._at_start))

    def _check_budget(self) -> None:
        b = self._budget
        for used, left in zip(self._spent(),
                              (b.conflicts_left, b.decisions_left,
                               b.propagations_left)):
            if left is not None and used >= left:
                raise BudgetExceeded("count")
        if b.deadline is not None and time.monotonic() > b.deadline:
            raise BudgetExceeded("time")
        if stop_requested():
            raise BudgetExceeded("cancelled")

    # ------------------------------------------------------------------
    def _search(self) -> SolveResult:
        while True:
            status = self._propagate()
            if status == "open":
                var = self._pick_variable()
                if var == 0:
                    # Everything relevant assigned but matrix not decided:
                    # all clauses must be satisfied (no unassigned literal
                    # left in any open clause) — treat as solution.
                    status = "sat"
                else:
                    self.stats.decisions += 1
                    self._check_budget()
                    self._push(var, False, is_decision=True)
                    continue
            if status == "conflict":
                self.stats.conflicts += 1
                self._check_budget()
                if not self._backtrack("e"):
                    return SolveResult.UNSAT
            else:                                 # "sat"
                self.stats.solutions += 1
                self._check_budget()
                if not self._backtrack("a"):
                    return SolveResult.SAT

    def _push(self, var: int, value: bool, is_decision: bool) -> None:
        self._assign[var] = value
        self._trail.append(_TrailEntry(var, value, is_decision))

    def _backtrack(self, quantifier: str) -> bool:
        """Flip the deepest untried decision of the given quantifier kind.

        Returns False when no such decision exists (search exhausted).
        """
        self.stats.backtracks += 1
        trail = self._trail
        for i in range(len(trail) - 1, -1, -1):
            entry = trail[i]
            if (entry.is_decision and not entry.tried_both
                    and self._info[entry.var][0] == quantifier):
                for later in trail[i + 1:]:
                    del self._assign[later.var]
                del trail[i + 1:]
                entry.value = not entry.value
                entry.tried_both = True
                self._assign[entry.var] = entry.value
                return True
        return False

    # ------------------------------------------------------------------
    def _propagate(self) -> str:
        """Evaluate all clauses; apply unit and pure rules to fixpoint.

        Returns 'conflict', 'sat', or 'open'.
        """
        info = self._info
        assign = self._assign
        while True:
            self.stats.propagations += 1
            implied: List[Tuple[int, bool]] = []
            all_satisfied = True
            phase_seen: Dict[int, int] = {}
            for clause in self._clauses:
                satisfied = False
                remaining: List[int] = []
                for lit in clause:
                    val = assign.get(abs(lit))
                    if val is None:
                        remaining.append(lit)
                    elif val == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                all_satisfied = False
                # Universal reduction on the remaining literals.
                max_e_level = -2
                for lit in remaining:
                    quant, level = info[abs(lit)]
                    if quant == "e" and level > max_e_level:
                        max_e_level = level
                reduced = [lit for lit in remaining
                           if info[abs(lit)][0] == "e"
                           or info[abs(lit)][1] < max_e_level]
                if not reduced:
                    return "conflict"
                existentials = [l for l in reduced if info[abs(l)][0] == "e"]
                if len(reduced) == 1 and existentials:
                    implied.append((abs(reduced[0]), reduced[0] > 0))
                # Track phases for the pure-literal rule.
                for lit in remaining:
                    v = abs(lit)
                    s = 1 if lit > 0 else -1
                    prev = phase_seen.get(v)
                    if prev is None:
                        phase_seen[v] = s
                    elif prev != s:
                        phase_seen[v] = 0
            if all_satisfied:
                return "sat"
            if implied:
                for var, value in implied:
                    prev = assign.get(var)
                    if prev is None:
                        self._push(var, value, is_decision=False)
                    elif prev != value:
                        return "conflict"
                continue
            # Pure-literal rule (only when no units fired).
            pures: List[Tuple[int, bool]] = []
            for var, s in phase_seen.items():
                if s == 0 or var in assign:
                    continue
                quant, _ = info[var]
                if quant == "e":
                    pures.append((var, s > 0))   # satisfy the clauses
                else:
                    pures.append((var, s < 0))   # weaken them (adversary)
            if pures:
                for var, value in pures:
                    if var not in assign:
                        self._push(var, value, is_decision=False)
                continue
            return "open"

    def _pick_variable(self) -> int:
        """Next unassigned variable in prefix order, 0 if none left.

        Variables that no longer occur in any open clause are skipped
        (their value cannot matter), which also guarantees progress.
        """
        open_vars: set[int] = set()
        for clause in self._clauses:
            satisfied = False
            unassigned: List[int] = []
            for lit in clause:
                val = self._assign.get(abs(lit))
                if val is None:
                    unassigned.append(abs(lit))
                elif val == (lit > 0):
                    satisfied = True
                    break
            if not satisfied:
                open_vars.update(unassigned)
        for var in self._order:
            if var not in self._assign and var in open_vars:
                return var
        return 0
