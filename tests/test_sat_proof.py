"""Resolution proof logging, replay, and core extraction tests."""

import random

import pytest

from repro.logic.cnf import CNF
from repro.sat import (KernelSolver, ProofError, ResolutionProof, SolveResult,
                       brute_force_sat)


class TestProofPrimitives:
    def test_resolution(self):
        proof = ResolutionProof()
        a = proof.add_input([1, 2])
        b = proof.add_input([-1, 2])
        c = proof.add_derived(a, [(b, 1)], [2])
        assert proof.replay(c) == frozenset({2})

    def test_bad_pivot_rejected(self):
        proof = ResolutionProof()
        a = proof.add_input([1, 2])
        b = proof.add_input([1, 3])
        c = proof.add_derived(a, [(b, 1)], [2, 3])
        with pytest.raises(ProofError):
            proof.replay(c)

    def test_strict_replay_checks_result(self):
        proof = ResolutionProof()
        a = proof.add_input([1, 2])
        b = proof.add_input([-1, 3])
        wrong = proof.add_derived(a, [(b, 1)], [2])     # should be {2,3}
        with pytest.raises(ProofError):
            proof.replay(wrong)
        assert proof.replay(wrong, strict=False) == frozenset({2, 3})

    def test_empty_chain_is_identity(self):
        proof = ResolutionProof()
        a = proof.add_input([1])
        assert proof.add_derived(a, [], [1]) == a


class TestSolverRefutations:
    def _random_unsat_runs(self, seed, trials):
        rng = random.Random(seed)
        count = 0
        for _ in range(trials):
            n = rng.randint(1, 9)
            cnf = CNF(n)
            for _ in range(rng.randint(4, 45)):
                cnf.add_clause([rng.choice([1, -1]) * rng.randint(1, n)
                                for _ in range(rng.randint(1, 3))])
            expected, _ = brute_force_sat(cnf)
            if expected is not SolveResult.UNSAT:
                continue
            proof = ResolutionProof()
            solver = KernelSolver(proof=proof)
            solver.add_clauses(cnf.clauses)
            assert solver.solve() is SolveResult.UNSAT
            yield cnf, proof, solver
            count += 1
        assert count > 10       # the generator must exercise real cases

    def test_refutations_replay(self):
        for cnf, proof, solver in self._random_unsat_runs(31, 150):
            assert solver.empty_clause_proof >= 0
            assert proof.check_refutation(solver.empty_clause_proof)

    def test_unsat_core_clauses_are_unsat(self):
        for cnf, proof, solver in self._random_unsat_runs(77, 150):
            core = proof.core_clauses(solver.empty_clause_proof)
            core_cnf = CNF(cnf.num_vars)
            for clause in core:
                core_cnf.add_clause(clause)
            status, _ = brute_force_sat(core_cnf)
            assert status is SolveResult.UNSAT
            # The core is a subset of the inputs.
            inputs = {tuple(sorted(c)) for c in cnf.clauses}
            for clause in core:
                assert tuple(sorted(clause)) in inputs

    def test_pigeonhole_proof(self):
        proof = ResolutionProof()
        s = KernelSolver(proof=proof)
        def v(i, j):
            return i * 3 + j + 1
        for i in range(4):
            s.add_clause([v(i, j) for j in range(3)])
        for j in range(3):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    s.add_clause([-v(i1, j), -v(i2, j)])
        assert s.solve() is SolveResult.UNSAT
        assert proof.check_refutation(s.empty_clause_proof)
