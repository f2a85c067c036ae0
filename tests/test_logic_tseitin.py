"""Tseitin / Plaisted-Greenbaum transformation tests.

The key contracts: (1) the encoded CNF is equisatisfiable with the
expression, (2) with full Tseitin every model of the CNF projects to a
model of the expression and vice versa, (3) shared sub-DAGs are encoded
once.
"""

import itertools
import random

import pytest

from repro.logic import expr as ex
from repro.logic.cnf import CNF, VarPool
from repro.logic.tseitin import TseitinEncoder, expr_to_cnf
from repro.sat.dpll import brute_force_models
from repro.system.random_model import random_expr


def models_of_expr(expression):
    names = sorted(expression.support())
    out = set()
    for bits in itertools.product([False, True], repeat=len(names)):
        env = dict(zip(names, bits))
        if expression.evaluate(env):
            out.add(tuple(bits))
    return names, out


@pytest.mark.parametrize("polarity_reduction", [False, True])
def test_equisatisfiable_on_random_exprs(polarity_reduction):
    rng = random.Random(42)
    for _ in range(120):
        leaves = [ex.var(n) for n in ("a", "b", "c", "d")]
        expression = random_expr(rng, leaves, depth=3)
        if expression.is_const:
            continue
        names, expr_models = models_of_expr(expression)
        cnf, pool = expr_to_cnf(expression, polarity_reduction)
        name_vars = [pool.named(n) for n in names]
        cnf_projections = set()
        if cnf.has_empty_clause:
            sat_models = []
        else:
            sat_models = list(brute_force_models(cnf))
        for model in sat_models:
            cnf_projections.add(tuple(model[v] for v in name_vars))
        assert cnf_projections == expr_models, \
            f"{expression} (pg={polarity_reduction})"


def test_shared_subdag_encoded_once():
    a, b, c = ex.var("a"), ex.var("b"), ex.var("c")
    shared = a & b
    f = ex.mk_xor(shared, c) | shared
    cnf, pool = expr_to_cnf(f)
    # One aux var for `shared`, one for the xor, one for the or.
    n_named = 3
    assert cnf.num_vars == n_named + 3


def test_encoder_reuses_cache_across_calls():
    pool = VarPool()
    cnf = CNF()
    enc = TseitinEncoder(cnf, pool)
    f = ex.var("a") & ex.var("b")
    lit1 = enc.encode(f)
    size_before = len(cnf.clauses)
    lit2 = enc.encode(f)
    assert lit1 == lit2
    assert len(cnf.clauses) == size_before


def test_assert_true_adds_nothing():
    cnf, _ = expr_to_cnf(ex.TRUE)
    assert len(cnf.clauses) == 0 and not cnf.has_empty_clause


def test_assert_false_is_unsat():
    cnf, _ = expr_to_cnf(ex.FALSE)
    assert cnf.has_empty_clause


def test_encode_constant_returns_constrained_literal():
    pool = VarPool()
    cnf = CNF()
    enc = TseitinEncoder(cnf, pool)
    lit = enc.encode(ex.TRUE)
    assert (lit,) in cnf.clauses


def test_polarity_reduction_smaller_or_equal():
    rng = random.Random(7)
    for _ in range(40):
        leaves = [ex.var(n) for n in ("a", "b", "c", "d", "e")]
        expression = random_expr(rng, leaves, depth=4)
        if expression.is_const:
            continue
        full, _ = expr_to_cnf(expression, polarity_reduction=False)
        pg, _ = expr_to_cnf(expression, polarity_reduction=True)
        assert len(pg.clauses) <= len(full.clauses)


def test_full_tseitin_aux_vars_functionally_determined():
    """With full Tseitin, fixing the named vars forces every aux var —
    the property the QBF encodings rely on to place aux innermost."""
    rng = random.Random(3)
    for _ in range(30):
        leaves = [ex.var(n) for n in ("a", "b", "c")]
        expression = random_expr(rng, leaves, depth=3)
        if expression.is_const:
            continue
        pool = VarPool()
        cnf = CNF()
        enc = TseitinEncoder(cnf, pool)
        enc.encode(expression)
        names = sorted(expression.support())
        name_vars = [pool.named(n) for n in names]
        seen = {}
        conflict = False
        for model in brute_force_models(cnf):
            key = tuple(model[v] for v in name_vars)
            aux = tuple(model[v] for v in range(1, cnf.num_vars + 1)
                        if v not in name_vars)
            if key in seen and seen[key] != aux:
                conflict = True
            seen[key] = aux
        assert not conflict


def test_encode_false_returns_false_literal():
    """Regression: encode(FALSE) must hand back a literal that *is*
    false, not the (true) asserted unit — the jSAT F-guard relies on it."""
    from repro.sat import SolveResult, make_solver

    pool = VarPool()
    cnf = CNF()
    enc = TseitinEncoder(cnf, pool)
    lit_true = enc.encode(ex.TRUE)
    lit_false = enc.encode(ex.FALSE)
    solver = make_solver()
    solver.ensure_vars(cnf.num_vars)
    solver.add_clauses(cnf.clauses)
    assert solver.solve() is SolveResult.SAT
    def value(lit):
        v = solver.model_value(abs(lit))
        return v if lit > 0 else not v
    assert value(lit_true) is True
    assert value(lit_false) is False
