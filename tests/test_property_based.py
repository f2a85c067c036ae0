"""Property-based tests (hypothesis) on the core invariants.

These encode the load-bearing contracts of the library:

* both CDCL kernel builds agree with brute force and produce real
  models;
* Tseitin preserves satisfiability and model projections;
* QDPLL and expansion agree with the semantic QBF oracle;
* all BMC methods agree with the explicit-state oracle and with each
  other, and SAT answers come with replayable traces.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bmc import BmcSession
from repro.logic import expr as ex
from repro.logic.cnf import CNF
from repro.logic.tseitin import expr_to_cnf
from repro.qbf import PCNF, ExpansionSolver, QdpllSolver, evaluate_qbf
from repro.sat import DratProof, KernelSolver, SolveResult, brute_force_sat
from repro.system import ExplicitOracle, random_predicate, random_system
from repro.system.random_model import random_expr

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])


@st.composite
def cnf_formulas(draw, max_vars=9, max_clauses=35):
    n = draw(st.integers(1, max_vars))
    m = draw(st.integers(1, max_clauses))
    cnf = CNF(n)
    for _ in range(m):
        width = draw(st.integers(1, 4))
        clause = [draw(st.integers(1, n)) * draw(st.sampled_from((1, -1)))
                  for _ in range(width)]
        cnf.add_clause(clause)
    return cnf


class TestSatSolverProperties:
    @given(cnf_formulas())
    @settings(max_examples=60, **COMMON)
    def test_cdcl_matches_brute_force(self, cnf):
        """Both kernel builds (the default and the proof-logging
        interpreted one) agree with brute force; every model satisfies
        the formula and every refutation checks."""
        expected, _ = brute_force_sat(cnf)
        for proof in (None, DratProof()):
            solver = KernelSolver(proof=proof)
            solver.add_clauses(cnf.clauses)
            got = solver.solve()
            assert got is expected
            if got is SolveResult.SAT:
                model = {v: bool(solver.model_value(v))
                         for v in range(1, cnf.num_vars + 1)}
                assert cnf.evaluate(model)
            elif proof is not None:
                assert proof.check_refutation(solver.empty_clause_proof)

    @given(cnf_formulas(max_vars=7), st.data())
    @settings(max_examples=40, **COMMON)
    def test_assumptions_equal_units(self, cnf, data):
        n = cnf.num_vars
        count = data.draw(st.integers(0, min(3, n)))
        variables = data.draw(st.permutations(range(1, n + 1)))
        assumptions = [v * data.draw(st.sampled_from((1, -1)))
                       for v in variables[:count]]
        stronger = cnf.copy()
        for lit in assumptions:
            stronger.add_clause([lit])
        expected, _ = brute_force_sat(stronger)
        for proof in (None, DratProof()):
            s1 = KernelSolver(proof=proof)
            s1.add_clauses(cnf.clauses)
            assert s1.solve(assumptions) is expected


class TestTseitinProperties:
    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, **COMMON)
    def test_equisatisfiability(self, seed, polarity_reduction):
        rng = random.Random(seed)
        leaves = [ex.var(n) for n in ("a", "b", "c", "d")]
        expression = random_expr(rng, leaves, depth=3)
        if expression.is_const:
            return
        cnf, pool = expr_to_cnf(expression, polarity_reduction)
        solver = KernelSolver()
        solver.ensure_vars(cnf.num_vars)
        solver.add_clauses(cnf.clauses)
        got = solver.solve()
        # Compare with direct enumeration of the expression.
        names = sorted(expression.support())
        expr_sat = any(
            expression.evaluate(dict(zip(names, bits)))
            for bits in _bool_tuples(len(names)))
        want = SolveResult.SAT if expr_sat else SolveResult.UNSAT
        assert got is want


def _bool_tuples(n):
    import itertools
    return itertools.product([False, True], repeat=n)


@st.composite
def pcnf_formulas(draw):
    n = draw(st.integers(2, 7))
    cnf = CNF(n)
    for _ in range(draw(st.integers(1, 18))):
        width = draw(st.integers(1, 3))
        cnf.add_clause([draw(st.integers(1, n))
                        * draw(st.sampled_from((1, -1)))
                        for _ in range(width)])
    variables = draw(st.permutations(range(1, n + 1)))
    pcnf = PCNF(matrix=cnf)
    i = 0
    while i < len(variables):
        size = draw(st.integers(1, len(variables) - i))
        pcnf.add_block(draw(st.sampled_from("ae")),
                       variables[i:i + size])
        i += size
    return pcnf


class TestQbfProperties:
    @given(pcnf_formulas())
    @settings(max_examples=50, **COMMON)
    def test_solvers_match_oracle(self, pcnf):
        expected = evaluate_qbf(pcnf)
        want = SolveResult.SAT if expected else SolveResult.UNSAT
        assert QdpllSolver(pcnf).solve() is want
        assert ExpansionSolver(pcnf).solve() is want


def _check(system, final, k, method, semantics="exact"):
    """Session-API reachability query."""
    with BmcSession(system, properties={"target": final}) as session:
        return session.check(k, method=method, semantics=semantics)


class TestBmcProperties:
    @given(st.integers(0, 10_000), st.integers(0, 5))
    @settings(max_examples=25, **COMMON)
    def test_methods_agree_with_oracle(self, seed, k):
        rng = random.Random(seed)
        system = random_system(rng, num_latches=rng.randint(2, 3),
                               num_inputs=rng.randint(0, 1), depth=2)
        final = random_predicate(rng, system)
        oracle = ExplicitOracle(system)
        expected = oracle.reachable_in_exactly(final, k)
        want = SolveResult.SAT if expected else SolveResult.UNSAT
        for method in ("sat-unroll", "jsat"):
            result = _check(system, final, k, method)
            assert result.status is want
            if result.status is SolveResult.SAT:
                result.trace.validate(system, final)

    @given(st.integers(0, 10_000), st.integers(0, 4))
    @settings(max_examples=15, **COMMON)
    def test_within_semantics_agree(self, seed, k):
        rng = random.Random(seed)
        system = random_system(rng, num_latches=rng.randint(2, 3),
                               num_inputs=rng.randint(0, 1), depth=2)
        final = random_predicate(rng, system)
        oracle = ExplicitOracle(system)
        expected = oracle.reachable_within(final, k)
        want = SolveResult.SAT if expected else SolveResult.UNSAT
        for method in ("sat-unroll", "jsat"):
            result = _check(system, final, k, method,
                            semantics="within")
            assert result.status is want

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, **COMMON)
    def test_self_loop_transform_equivalence(self, seed):
        """within-k on M == exact-k on M+self-loops (paper §2)."""
        rng = random.Random(seed)
        system = random_system(rng, num_latches=2, num_inputs=1, depth=2)
        final = random_predicate(rng, system)
        looped = system.with_self_loops()
        for k in (1, 3):
            a = _check(system, final, k, "jsat", semantics="within")
            b = _check(looped, final, k, "jsat", semantics="exact")
            assert a.status is b.status
