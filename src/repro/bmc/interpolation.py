"""Interpolation-based unbounded model checking (McMillan 2003).

The paper's introduction lists Craig interpolation as an
over-approximate image technique whose interpolants "are obtained as a
by-product of the SAT solver used to check BMC problems" — and notes it
still suffers the memory blow-up of unrolled formulae.  This module
implements the procedure on top of the proof-logging CDCL solver and
the interpolation engine of :mod:`repro.sat.interpolation`:

    R := I
    repeat:  A := R(Z0) ∧ TR(Z0, Z1)
             B := TR(Z1, .., Zk) ∧ ⋁_{1<=i<=k} bad(Zi)
             if A ∧ B is SAT:  real counterexample if R = I, else
                               restart with a larger k
             else:             P := ITP(A, B) over Z1, renamed to Z0;
                               if P ⟹ R: safety proved (fixpoint)
                               else R := R ∨ P

Every interpolant over-approximates the image of R while excluding all
states that reach ``bad`` within k-1 steps, which gives both soundness
of the fixpoint and progress of the outer loop.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..logic import expr as ex
from ..logic.cnf import CNF, VarPool
from ..logic.expr import Expr
from ..logic.tseitin import TseitinEncoder
from ..sat.interpolation import compute_interpolant
from ..sat.kernel import make_solver
from ..sat.proof import ResolutionProof
from ..sat.types import Budget, SolveResult
from ..system.model import TransitionSystem
from ..system.trace import Trace
from .unroll import (frame_name, read_trace, register_frame, solve_expr,
                     state_frame, transition)

__all__ = ["InterpolationResult", "prove_by_interpolation"]


class InterpolationResult:
    """Outcome: "proved", "cex" (with trace), or "unknown"."""

    def __init__(self, status: str, k: int, iterations: int,
                 trace: Optional[Trace] = None,
                 invariant: Optional[Expr] = None) -> None:
        self.status = status
        self.k = k
        self.iterations = iterations
        self.trace = trace
        self.invariant = invariant        # inductive over-approximation

    def __repr__(self) -> str:  # pragma: no cover
        return (f"InterpolationResult({self.status!r}, k={self.k}, "
                f"iterations={self.iterations})")


def _implies(antecedent: Expr, consequent: Expr,
             budget: Budget | None = None) -> bool:
    """Validity of antecedent -> consequent via one SAT call.  UNKNOWN
    (budget exhausted) reads as "not implied", which is sound."""
    query = ex.mk_and(antecedent, ex.mk_not(consequent))
    return solve_expr(query, budget)[0] is SolveResult.UNSAT


def _bounded_query(system: TransitionSystem, reach: Expr, bad: Expr,
                   k: int, budget: Budget | None
                   ) -> Tuple[SolveResult, Optional[Expr], Optional[Trace]]:
    """One A/B query; returns (status, interpolant-as-state-predicate,
    counterexample candidate trace)."""
    proof = ResolutionProof()
    solver = make_solver(proof=proof)
    pool = VarPool()
    # Register every frame bit up front so a SAT model covers them all
    # (see unroll.register_frame).
    for i in range(k + 1):
        register_frame(pool, system, i)

    # --- A: R(Z0) ∧ TR(Z0, Z1), with its own Tseitin namespace.
    a_cnf = CNF()
    enc_a = TseitinEncoder(a_cnf, pool)
    enc_a.assert_expr(system.rename_state_expr(reach, state_frame(system, 0)))
    enc_a.assert_expr(transition(system, 0))
    solver.ensure_vars(max(a_cnf.num_vars, pool.num_vars))
    a_ids_start = len(proof)
    solver.add_clauses(a_cnf.clauses)
    a_ids = set(range(a_ids_start, len(proof)))

    # --- B: the rest of the path and the bad disjunction (fresh encoder
    # so no Tseitin auxiliaries are shared with A; the only shared
    # variables are the Z1 state bits).
    b_cnf = CNF(pool.num_vars)
    enc_b = TseitinEncoder(b_cnf, pool)
    for i in range(1, k):
        enc_b.assert_expr(transition(system, i))
    enc_b.assert_expr(ex.disjoin(
        system.rename_state_expr(bad, state_frame(system, i))
        for i in range(1, k + 1)))
    solver.ensure_vars(max(b_cnf.num_vars, pool.num_vars))
    b_ids_start = len(proof)
    ok = solver.add_clauses(b_cnf.clauses)
    b_ids = set(range(b_ids_start, len(proof)))

    status = solver.solve(budget=budget) if ok and solver.ok else \
        SolveResult.UNSAT
    if status is SolveResult.SAT:
        trace = read_trace(system, pool, solver.model_value, k)
        return status, None, trace.shorten_to(bad)
    if status is SolveResult.UNKNOWN:
        return status, None, None

    itp = compute_interpolant(
        proof, solver.empty_clause_proof, a_ids, b_ids,
        var_name=lambda v: pool.name_of(v) or f"?{v}")
    # The interpolant ranges over the shared variables = Z1 bits;
    # rename them back to plain state variables.
    rename = {frame_name(v, 1): v for v in system.state_vars}
    stray = itp.support() - set(rename)
    if stray:
        raise AssertionError(
            f"interpolant escaped the shared variables: {stray}")
    itp_state = ex.rename_vars(itp, rename)
    return status, itp_state, None


def prove_by_interpolation(system: TransitionSystem, bad: Expr,
                           max_k: int = 16,
                           max_iterations: int = 256,
                           budget: Budget | None = None
                           ) -> InterpolationResult:
    """Prove ``bad`` unreachable or find a counterexample.

    The one-shot form of the ``interpolation`` backend
    (:class:`repro.bmc.provers.InterpolationBackend`): its rungs k = 0,
    1, ..., ``max_k`` each run the fixpoint iteration at depth k, at
    most ``max_iterations`` refinements per rung.  Complete for finite
    systems given enough ``max_k``/``max_iterations`` (each refinement
    strictly enlarges the over-approximation R, and a too-small k is
    detected via the spurious-SAT restart).
    """
    # Deferred: provers.py imports this module's A/B query.
    from .provers import InterpolationBackend
    backend = InterpolationBackend(system, bad,
                                   max_iterations=max_iterations)
    if budget is not None:
        budget = budget.start()     # one pool shared by all rungs
    iterations = 0
    try:
        for k in range(max_k + 1):
            if budget is not None and budget.exhausted():
                return InterpolationResult("unknown", k, iterations)
            result = backend.check(k, semantics="within", budget=budget)
            iterations += result.stats.get("itp_iterations", 0)
            if result.status is SolveResult.SAT:
                result.trace.validate(system, bad)
                return InterpolationResult("cex", k, iterations,
                                           result.trace)
            if result.proved:
                return InterpolationResult("proved", k, iterations,
                                           invariant=result.invariant)
            if result.status is SolveResult.UNKNOWN:
                return InterpolationResult("unknown", k, iterations)
    finally:
        backend.close()
    return InterpolationResult("unknown", max_k, iterations)
