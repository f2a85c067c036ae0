"""Tests for the three formula encodings: (1) unroll, (2) QBF, (3) squaring.

Semantics checks go through the solvers; structural checks verify the
paper's growth and prefix-shape claims directly on the encodings.
"""

import pytest

from repro.bmc import encode_qbf, encode_squaring, encode_unrolled
from repro.logic import expr as ex
from repro.models import counter, mixer, shift_register
from repro.qbf import QdpllSolver, evaluate_qbf
from repro.sat import SolveResult, make_solver


@pytest.fixture(scope="module")
def small_counter():
    return counter.make(3, 5)


class TestUnrolled:
    def test_sat_at_exact_depth(self, small_counter):
        system, final, depth = small_counter
        enc = encode_unrolled(system, final, depth)
        s = make_solver()
        s.ensure_vars(enc.cnf.num_vars)
        s.add_clauses(enc.cnf.clauses)
        assert s.solve() is SolveResult.SAT
        trace = enc.extract_trace(s.model_value)
        trace.validate(system, final)

    def test_unsat_below_depth(self, small_counter):
        system, final, depth = small_counter
        enc = encode_unrolled(system, final, depth - 1)
        s = make_solver()
        s.ensure_vars(enc.cnf.num_vars)
        s.add_clauses(enc.cnf.clauses)
        assert s.solve() is SolveResult.UNSAT

    def test_within_semantics_disjunction(self, small_counter):
        system, final, depth = small_counter
        enc = encode_unrolled(system, final, depth + 2, semantics="within")
        s = make_solver()
        s.ensure_vars(enc.cnf.num_vars)
        s.add_clauses(enc.cnf.clauses)
        assert s.solve() is SolveResult.SAT

    def test_k0(self, small_counter):
        system, final, _ = small_counter
        zero = counter.make(3, 0)
        enc = encode_unrolled(zero[0], zero[1], 0)
        s = make_solver()
        s.ensure_vars(enc.cnf.num_vars)
        s.add_clauses(enc.cnf.clauses)
        assert s.solve() is SolveResult.SAT      # counter starts at 0

    def test_growth_is_linear_in_k(self):
        system, final, _ = mixer.make(8, 3)
        sizes = [encode_unrolled(system, final, k).stats()["literals"]
                 for k in (1, 2, 4, 8)]
        slope1 = sizes[1] - sizes[0]
        slope2 = (sizes[3] - sizes[2]) / 4
        assert slope1 > 0
        assert abs(slope2 - slope1) / slope1 < 0.05   # constant slope

    def test_negative_k_rejected(self, small_counter):
        system, final, _ = small_counter
        with pytest.raises(ValueError):
            encode_unrolled(system, final, -1)

    def test_non_state_final_rejected(self, small_counter):
        system, _, _ = small_counter
        with pytest.raises(ValueError):
            encode_unrolled(system, ex.var("nope"), 1)


class TestQbfEncoding:
    def test_prefix_shape(self, small_counter):
        system, final, depth = small_counter
        enc = encode_qbf(system, final, depth)
        quants = [q for q, _ in enc.pcnf.prefix]
        assert quants == ["e", "a", "e"]
        n = system.num_state_bits
        assert len(enc.pcnf.prefix[1][1]) == 2 * n     # U and V only

    def test_universal_count_constant_in_k(self, small_counter):
        system, final, _ = small_counter
        u2 = encode_qbf(system, final, 2).pcnf.num_universals()
        u9 = encode_qbf(system, final, 9).pcnf.num_universals()
        assert u2 == u9 == 2 * system.num_state_bits

    def test_semantics_small(self):
        system, final, depth = shift_register.make(4)
        for k, expected in ((depth, True), (depth - 1, False)):
            if k < 1:
                continue
            enc = encode_qbf(system, final, k)
            assert evaluate_qbf(enc.pcnf, max_vars=40) is expected \
                if enc.pcnf.matrix.num_vars <= 40 else True

    def test_qdpll_decides_tiny_instance(self):
        system, final, depth = shift_register.make(3)
        enc = encode_qbf(system, final, depth)
        assert QdpllSolver(enc.pcnf).solve() is SolveResult.SAT
        enc = encode_qbf(system, final, depth - 1)
        assert QdpllSolver(enc.pcnf).solve() is SolveResult.UNSAT

    def test_k0_rejected(self, small_counter):
        system, final, _ = small_counter
        with pytest.raises(ValueError):
            encode_qbf(system, final, 0)

    def test_growth_slope_independent_of_tr(self):
        """Formula (2)'s per-step growth must not scale with |TR|."""
        small_sys, small_final, _ = mixer.make(8, 1)
        big_sys, big_final, _ = mixer.make(8, 5)
        def slope(system, final):
            a = encode_qbf(system, final, 2).stats()["literals"]
            b = encode_qbf(system, final, 6).stats()["literals"]
            return (b - a) / 4
        assert big_sys.trans_size() > 2 * small_sys.trans_size()
        s_small = slope(small_sys, small_final)
        s_big = slope(big_sys, big_final)
        assert abs(s_big - s_small) / s_small < 0.05


class TestSquaringEncoding:
    def test_power_of_two_required(self, small_counter):
        system, final, _ = small_counter
        with pytest.raises(ValueError):
            encode_squaring(system, final, 3)
        with pytest.raises(ValueError):
            encode_squaring(system, final, 0)

    def test_alternations_grow_logarithmically(self, small_counter):
        system, final, _ = small_counter
        for k, levels in ((1, 0), (2, 1), (4, 2), (16, 4)):
            enc = encode_squaring(system, final, k)
            assert enc.levels == levels
            assert enc.pcnf.num_universals() == \
                2 * system.num_state_bits * levels

    def test_matrix_growth_logarithmic(self):
        system, final, _ = mixer.make(8, 3)
        s4 = encode_squaring(system, final, 4).stats()["literals"]
        s64 = encode_squaring(system, final, 64).stats()["literals"]
        # 16x bound increase, but only log-factor size increase.
        assert s64 < s4 * 3

    def test_semantics_k1_and_k2(self):
        system, final, depth = shift_register.make(4)
        # k=1: R_1 = TR: target at position 3 not reachable in 1 step.
        enc = encode_squaring(system, final, 1)
        assert evaluate_qbf(enc.pcnf, max_vars=30) is False
        # position 1 reachable in exactly 1 step.
        system2, final2, _ = shift_register.make(4, position=1)
        enc = encode_squaring(system2, final2, 1)
        assert evaluate_qbf(enc.pcnf, max_vars=30) is True

    def test_semantics_k2_exact(self):
        system, final, _ = shift_register.make(4, position=2)
        enc = encode_squaring(system, final, 2)
        assert QdpllSolver(enc.pcnf).solve() is SolveResult.SAT
        system1, final1, _ = shift_register.make(4, position=1)
        enc = encode_squaring(system1, final1, 2)
        assert QdpllSolver(enc.pcnf).solve() is SolveResult.UNSAT

    def test_self_loops_give_within_semantics(self):
        system, final, _ = shift_register.make(4, position=1)
        looped = system.with_self_loops()
        enc = encode_squaring(looped, final, 2)
        assert QdpllSolver(enc.pcnf).solve() is SolveResult.SAT
