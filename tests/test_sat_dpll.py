"""Reference DPLL solver and brute-force enumerator tests."""

import random

import pytest

from repro.logic.cnf import CNF
from repro.sat import DpllSolver, KernelSolver, SolveResult
from repro.sat.dpll import brute_force_models, brute_force_sat


def test_empty_formula():
    assert DpllSolver(CNF()).solve() is SolveResult.SAT


def test_unsat_pair():
    cnf = CNF()
    cnf.add_clause([1])
    cnf.add_clause([-1])
    assert DpllSolver(cnf).solve() is SolveResult.UNSAT


def test_model_is_total_and_satisfying():
    cnf = CNF(4)
    cnf.add_clause([1, 2])
    cnf.add_clause([-2, 3])
    solver = DpllSolver(cnf)
    assert solver.solve() is SolveResult.SAT
    assert set(solver.model) == {1, 2, 3, 4}
    assert cnf.evaluate(solver.model)


def test_agrees_with_cdcl_on_random():
    rng = random.Random(8)
    for _ in range(120):
        n = rng.randint(1, 9)
        cnf = CNF(n)
        for _ in range(rng.randint(1, 30)):
            cnf.add_clause([rng.choice([1, -1]) * rng.randint(1, n)
                            for _ in range(rng.randint(1, 3))])
        cdcl = KernelSolver()
        cdcl.add_clauses(cnf.clauses)
        assert DpllSolver(cnf).solve() is cdcl.solve()


def test_brute_force_model_count():
    cnf = CNF(3)
    cnf.add_clause([1, 2, 3])
    models = list(brute_force_models(cnf))
    assert len(models) == 7

    status, model = brute_force_sat(cnf)
    assert status is SolveResult.SAT and cnf.evaluate(model)


def test_brute_force_refuses_large():
    cnf = CNF(30)
    cnf.add_clause([1])
    with pytest.raises(ValueError):
        list(brute_force_models(cnf))
