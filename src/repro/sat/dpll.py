"""A plain DPLL solver (no learning) and a brute-force enumerator.

These are ground-truth implementations: slow but simple enough to serve
as test oracles for the CDCL kernel, and as the pedagogical baseline for
the jSAT narrative (the paper describes jSAT as a DPLL-style procedure).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..logic.cnf import CNF
from .types import SolveResult

__all__ = ["DpllSolver", "brute_force_models", "brute_force_sat"]


class DpllSolver:
    """Recursive DPLL with unit propagation and pure-literal elimination.

    Intended for small formulae (tests, oracles); use
    :func:`repro.sat.kernel.make_solver` for anything serious.
    """

    def __init__(self, cnf: CNF) -> None:
        self.cnf = cnf
        self.model: Dict[int, bool] = {}
        self.decisions = 0

    def solve(self) -> SolveResult:
        clauses = [frozenset(c) for c in self.cnf.clauses]
        assignment: Dict[int, bool] = {}
        if self._dpll(clauses, assignment):
            # Complete the model for unconstrained variables.
            for v in range(1, self.cnf.num_vars + 1):
                assignment.setdefault(v, False)
            self.model = assignment
            return SolveResult.SAT
        return SolveResult.UNSAT

    def _dpll(self, clauses: List[frozenset[int]],
              assignment: Dict[int, bool]) -> bool:
        clauses = self._propagate(clauses, assignment)
        if clauses is None:
            return False
        if not clauses:
            return True
        # Pure literal elimination.
        pures = self._pure_literals(clauses)
        if pures:
            for lit in pures:
                assignment[abs(lit)] = lit > 0
            return self._dpll(clauses, assignment)
        # Branch on the first literal of the first shortest clause.
        branch_lit = min(clauses, key=len).__iter__().__next__()
        self.decisions += 1
        for value in (branch_lit, -branch_lit):
            trail_copy = dict(assignment)
            trail_copy[abs(value)] = value > 0
            if self._dpll(clauses, trail_copy):
                assignment.clear()
                assignment.update(trail_copy)
                return True
        return False

    @staticmethod
    def _propagate(clauses: List[frozenset[int]],
                   assignment: Dict[int, bool]
                   ) -> Optional[List[frozenset[int]]]:
        changed = True
        while changed:
            changed = False
            next_clauses: List[frozenset[int]] = []
            for clause in clauses:
                lits = []
                satisfied = False
                for lit in clause:
                    val = assignment.get(abs(lit))
                    if val is None:
                        lits.append(lit)
                    elif val == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not lits:
                    return None
                if len(lits) == 1:
                    assignment[abs(lits[0])] = lits[0] > 0
                    changed = True
                else:
                    next_clauses.append(frozenset(lits))
            clauses = next_clauses
        return clauses

    @staticmethod
    def _pure_literals(clauses: List[frozenset[int]]) -> List[int]:
        phase: Dict[int, int] = {}
        for clause in clauses:
            for lit in clause:
                v = abs(lit)
                s = 1 if lit > 0 else -1
                if phase.get(v, s) != s:
                    phase[v] = 0
                else:
                    phase[v] = s
        return [v if s > 0 else -v for v, s in phase.items() if s != 0]


def brute_force_models(cnf: CNF,
                       variables: Sequence[int] | None = None
                       ) -> Iterable[Dict[int, bool]]:
    """Yield every satisfying total assignment (small formulae only)."""
    if variables is None:
        variables = list(range(1, cnf.num_vars + 1))
    n = len(variables)
    if n > 24:
        raise ValueError(f"{n} variables is too many for brute force")
    for bits in range(1 << n):
        assignment = {v: bool((bits >> i) & 1)
                      for i, v in enumerate(variables)}
        if cnf.evaluate(assignment):
            yield assignment


def brute_force_sat(cnf: CNF) -> Tuple[SolveResult, Optional[Dict[int, bool]]]:
    """Decide a small CNF by enumeration; returns (result, model|None)."""
    for model in brute_force_models(cnf):
        return SolveResult.SAT, model
    return SolveResult.UNSAT, None
