"""Expansion-based QBF solving and a semantic evaluation oracle.

:class:`ExpansionSolver` eliminates universal quantifiers by Shannon
expansion (Quantor lineage): the innermost universal variable ``u`` is
removed by conjoining the ``u=0`` cofactor with a copy of the ``u=1``
cofactor in which all deeper existential variables are duplicated.  The
matrix roughly doubles per expanded variable — the memory-explosion
behaviour of general-purpose QBF solving that the paper's jSAT is
designed to avoid.  A literal cap turns the blow-up into an UNKNOWN
result instead of an actual blow-up.

:func:`evaluate_qbf` is a tiny recursive game-semantics evaluator used
as the ground-truth oracle in the test-suite (exponential; <= 22 vars).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..logic.cnf import CNF
from ..sat.kernel import make_solver
from ..sat.types import Budget, SolveResult
from .pcnf import PCNF

__all__ = ["ExpansionSolver", "evaluate_qbf"]


class ExpansionSolver:
    """Decide a PCNF by universal expansion down to a SAT problem."""

    def __init__(self, pcnf: PCNF, max_literals: int = 2_000_000) -> None:
        self.pcnf = pcnf
        self.max_literals = max_literals
        self.expanded_vars = 0
        self.peak_literals = 0

    def solve(self, budget: Budget | None = None) -> SolveResult:
        """Expand all universals, then decide the remaining matrix with CDCL.

        The budget is started once: expansion stops when it is
        exhausted, and the final SAT call draws from the same pool.
        """
        if budget is not None:
            budget = budget.start()
        prefix: List[Tuple[str, List[int]]] = [
            (q, list(vs)) for q, vs in self.pcnf.prefix if vs]
        clauses = [tuple(c) for c in self.pcnf.matrix.clauses]
        next_var = self.pcnf.matrix.num_vars + 1

        while True:
            # Drop empty blocks from the tail.
            while prefix and not prefix[-1][1]:
                prefix.pop()
            universal_index = max(
                (i for i, (q, vs) in enumerate(prefix) if q == "a" and vs),
                default=-1)
            if universal_index < 0:
                break
            deeper_existentials: List[int] = []
            for _, variables in prefix[universal_index + 1:]:
                deeper_existentials.extend(variables)
            block = prefix[universal_index][1]
            u = block.pop()
            if not deeper_existentials:
                clauses = _reduce_universal(clauses, u)
                if clauses is None:
                    return SolveResult.UNSAT
            else:
                clauses, next_var = _expand(clauses, u, deeper_existentials,
                                            next_var)
                # The duplicated existentials join the innermost block.
                fresh = list(range(next_var - len(deeper_existentials),
                                   next_var))
                prefix[-1][1].extend(fresh)
                self.expanded_vars += 1
            total = sum(len(c) for c in clauses)
            if total > self.peak_literals:
                self.peak_literals = total
            if total > self.max_literals or (budget is not None
                                              and budget.exhausted()):
                return SolveResult.UNKNOWN

        matrix = CNF(next_var - 1)
        for c in clauses:
            matrix.add_clause(c)
        solver = make_solver()
        if not solver.add_clauses(matrix.clauses):
            return SolveResult.UNSAT
        solver.ensure_vars(matrix.num_vars)
        return solver.solve(budget=budget)


def _reduce_universal(clauses: List[Tuple[int, ...]],
                      u: int) -> Optional[List[Tuple[int, ...]]]:
    """Delete ``u`` literals (no deeper existentials exist)."""
    out: List[Tuple[int, ...]] = []
    for clause in clauses:
        reduced = tuple(l for l in clause if abs(l) != u)
        if not reduced:
            return None            # clause had only u-literals (or was empty)
        out.append(reduced)
    return out


def _expand(clauses: List[Tuple[int, ...]], u: int,
            deeper: List[int], next_var: int
            ) -> Tuple[List[Tuple[int, ...]], int]:
    """Shannon-expand universal ``u``, duplicating ``deeper`` variables."""
    rename: Dict[int, int] = {}
    for v in deeper:
        rename[v] = next_var
        next_var += 1

    out: set[Tuple[int, ...]] = set()
    for clause in clauses:
        # u=0 cofactor: clauses containing -u are satisfied.
        if -u not in clause:
            out.add(tuple(sorted(l for l in clause if l != u)))
        # u=1 cofactor with deeper existentials renamed.
        if u not in clause:
            renamed = []
            for l in clause:
                if l == -u:
                    continue
                v = abs(l)
                nv = rename.get(v, v)
                renamed.append(nv if l > 0 else -nv)
            out.add(tuple(sorted(renamed)))
    return list(out), next_var


def evaluate_qbf(pcnf: PCNF, max_vars: int = 22) -> bool:
    """Ground-truth QBF evaluation by exhaustive game search.

    Free variables are treated as outermost existentials.  Only for
    small formulae (tests): complexity is ``2^#vars``.
    """
    closed = PCNF(list(pcnf.prefix), pcnf.matrix)
    closed.close()
    order: List[Tuple[int, str]] = []
    for quantifier, variables in closed.prefix:
        for v in variables:
            order.append((v, quantifier))
    if len(order) > max_vars:
        raise ValueError(f"{len(order)} variables is too many for the oracle")
    clauses = [tuple(c) for c in closed.matrix.clauses]
    env: Dict[int, bool] = {}

    def matrix_value() -> bool:
        for clause in clauses:
            if not any(env[abs(l)] == (l > 0) for l in clause):
                return False
        return True

    def recurse(i: int) -> bool:
        if i == len(order):
            return matrix_value()
        v, quantifier = order[i]
        results = []
        for value in (False, True):
            env[v] = value
            results.append(recurse(i + 1))
            del env[v]
            # Short-circuit.
            if quantifier == "e" and results[-1]:
                return True
            if quantifier == "a" and not results[-1]:
                return False
        return results[0] or results[1] if quantifier == "e" else \
            results[0] and results[1]

    return recurse(0)
