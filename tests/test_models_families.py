"""Model family tests: structural sanity + depth ground truth.

Small parameterizations of every family are checked against the
explicit-state oracle (or SAT-BMC for the larger state spaces).
"""

import pytest

from repro.bmc import BmcSession
from repro.models import (arbiter, barrel, cache_msi, counter, elevator,
                          fifo, gray, lfsr, mixer, mutex, pipeline,
                          shift_register, traffic, vending)
from repro.sat.types import SolveResult
from repro.system import ExplicitOracle


def _check(system, final, k, method, **options):
    with BmcSession(system, properties={"target": final}) as session:
        return session.check(k, method=method, **options)


def assert_depth_by_oracle(system, final, depth):
    oracle = ExplicitOracle(system)
    assert oracle.shortest_distance(final) == depth


def assert_depth_by_bmc(system, final, depth, check_below=True):
    if check_below and depth > 0:
        r = _check(system, final, depth - 1, "sat-unroll",
                   semantics="within")
        assert r.status is SolveResult.UNSAT
    r = _check(system, final, depth, "sat-unroll")
    assert r.status is SolveResult.SAT
    r.trace.validate(system, final)


def assert_unreachable_by_bmc(system, final, up_to):
    r = _check(system, final, up_to, "sat-unroll",
               semantics="within")
    assert r.status is SolveResult.UNSAT


class TestReachableTargets:
    @pytest.mark.parametrize("width,target", [(3, 5), (4, 11), (5, 0)])
    def test_counter(self, width, target):
        system, final, depth = counter.make(width, target)
        assert depth == target
        assert_depth_by_oracle(system, final, depth)

    @pytest.mark.parametrize("width", [3, 4])
    def test_gray(self, width):
        system, final, depth = gray.make(width)
        assert_depth_by_oracle(system, final, depth)

    @pytest.mark.parametrize("length,pos", [(4, 2), (5, 4)])
    def test_ring(self, length, pos):
        system, final, depth = shift_register.make(length, pos)
        assert depth == pos
        assert_depth_by_oracle(system, final, depth)

    @pytest.mark.parametrize("width,d", [(4, 6), (5, 13)])
    def test_lfsr(self, width, d):
        system, final, depth = lfsr.make(width, d)
        assert depth == d
        assert_depth_by_oracle(system, final, depth)

    @pytest.mark.parametrize("n", [3, 4])
    def test_arbiter(self, n):
        system, final, depth = arbiter.make(n)
        assert depth == n
        assert_depth_by_bmc(system, final, depth)

    @pytest.mark.parametrize("cycles", [1, 2, 3])
    def test_traffic(self, cycles):
        system, final, depth = traffic.make(cycles)
        assert_depth_by_oracle(system, final, depth)

    @pytest.mark.parametrize("capacity", [3, 5])
    def test_fifo(self, capacity):
        system, final, depth = fifo.make(capacity)
        assert depth == capacity
        assert_depth_by_oracle(system, final, depth)

    @pytest.mark.parametrize("width", [2, 3])
    def test_elevator(self, width):
        system, final, depth = elevator.make(width)
        assert depth == (1 << width) - 1
        assert_depth_by_bmc(system, final, depth)

    def test_mutex(self):
        system, final, depth = mutex.make(0)
        assert depth == 2
        assert_depth_by_bmc(system, final, depth)

    def test_cache(self):
        for target, want in (("m0", 1), ("both-s", 2)):
            system, final, depth = cache_msi.make(target)
            assert depth == want
            assert_depth_by_bmc(system, final, depth)

    @pytest.mark.parametrize("stages", [3, 4])
    def test_pipeline(self, stages):
        system, final, depth = pipeline.make(stages)
        assert depth == stages
        assert_depth_by_bmc(system, final, depth)

    @pytest.mark.parametrize("width", [3, 4])
    def test_barrel(self, width):
        system, final, depth = barrel.make(width)
        assert depth is not None
        assert_depth_by_oracle(system, final, depth)

    @pytest.mark.parametrize("price", [4, 6])
    def test_vending(self, price):
        system, final, depth = vending.make(price)
        assert_depth_by_oracle(system, final, depth)

    def test_mixer(self):
        system, final, depth = mixer.make(8, 2, depth=3)
        assert_depth_by_bmc(system, final, depth)


class TestUnreachableTargets:
    def test_ring_invariants(self):
        for kind in ("two-tokens", "no-token"):
            system, final, depth = \
                shift_register.make_invariant_violation(4, kind)
            assert depth is None
            assert_unreachable_by_bmc(system, final, 8)

    def test_arbiter_mutex(self):
        system, final, _ = arbiter.make_mutex_check(3)
        assert_unreachable_by_bmc(system, final, 7)

    def test_traffic_safety(self):
        system, final, _ = traffic.make_safety_check(2)
        assert_unreachable_by_bmc(system, final, 10)

    def test_fifo_overflow(self):
        system, final, _ = fifo.make_overflow_check(3)
        assert_unreachable_by_bmc(system, final, 8)

    def test_elevator_interlock(self):
        system, final, _ = elevator.make_interlock_check(2)
        assert_unreachable_by_bmc(system, final, 8)

    def test_peterson_exclusion(self):
        system, final, _ = mutex.make_exclusion_check()
        assert_unreachable_by_bmc(system, final, 10)

    def test_cache_coherence(self):
        system, final, _ = cache_msi.make_coherence_check()
        assert_unreachable_by_bmc(system, final, 8)

    def test_pipeline_flush(self):
        system, final, _ = pipeline.make_flush_check(3)
        assert_unreachable_by_bmc(system, final, 8)

    def test_vending_overpay(self):
        system, final, _ = vending.make_overpay_check(4)
        assert_unreachable_by_bmc(system, final, 8)


class TestParameterValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            counter.make(3, 100)
        with pytest.raises(ValueError):
            shift_register.make(1)
        with pytest.raises(ValueError):
            lfsr.make(13)          # no tap table
        with pytest.raises(ValueError):
            arbiter.make(1)
        with pytest.raises(ValueError):
            fifo.make_circuit(0)
        with pytest.raises(ValueError):
            mixer.make(4)
