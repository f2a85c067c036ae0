"""Engine-level integration tests: all methods through one front end."""

import pytest

from repro.bmc import BmcSession
from repro.logic import expr as ex
from repro.models import counter, shift_register
from repro.sat.types import Budget, SolveResult


def _check(system, final, k, method, **options):
    with BmcSession(system, properties={"target": final}) as session:
        return session.check(k, method=method, **options)


def _find(system, final, max_bound, **options):
    with BmcSession(system, properties={"target": final}) as session:
        return session.find_reachable(max_bound, **options)


class TestCheckReachability:
    def test_unknown_method_rejected(self):
        system, final, _ = counter.make(3, 5)
        with pytest.raises(ValueError):
            _check(system, final, 1, "magic")

    def test_all_methods_agree_on_ring(self):
        system, final, depth = shift_register.make(4)
        statuses = {}
        for method in ("sat-unroll", "jsat", "qbf"):
            r = _check(system, final, depth, method)
            statuses[method] = r.status
        assert set(statuses.values()) == {SolveResult.SAT}

    def test_traces_are_returned_and_valid(self):
        system, final, depth = counter.make(4, 6)
        for method in ("sat-unroll", "jsat"):
            r = _check(system, final, depth, method)
            assert r.trace is not None
            r.trace.validate(system, final)

    def test_qbf_trace_on_inputless_system(self):
        system, final, depth = shift_register.make(3)
        r = _check(system, final, depth, "qbf")
        assert r.status is SolveResult.SAT
        assert r.trace is not None
        r.trace.validate(system, final)

    def test_squaring_k0_falls_back(self):
        system, final, _ = counter.make(3, 0)
        r = _check(system, final, 0, "qbf-squaring")
        assert r.status is SolveResult.SAT

    def test_squaring_within_rounds_up(self):
        system, final, depth = shift_register.make(3, position=1)
        r = _check(system, final, 3, "qbf-squaring",
                   semantics="within")
        assert r.status is SolveResult.SAT

    def test_within_traces_shortened(self):
        system, final, depth = counter.make(4, 3)
        r = _check(system, final, depth + 4, "sat-unroll",
                   semantics="within")
        assert r.status is SolveResult.SAT
        # The trace is cut at its first final state (not necessarily the
        # globally shortest witness — BMC-within does not minimize).
        assert r.trace.length <= depth + 4
        assert final.evaluate(r.trace.states[-1])
        assert not any(final.evaluate(s) for s in r.trace.states[:-1])
        r.trace.validate(system, final)

    def test_stats_carry_formula_sizes(self):
        system, final, depth = counter.make(3, 5)
        r = _check(system, final, depth, "sat-unroll")
        assert r.stats["trans_copies"] == depth
        assert r.stats["literals"] > 0
        r = _check(system, final, depth, "qbf",
                   budget=Budget(max_seconds=1.0))
        assert r.stats["trans_copies"] == 1

    def test_seconds_recorded(self):
        system, final, depth = counter.make(3, 5)
        r = _check(system, final, depth, "jsat")
        assert r.seconds >= 0


class TestFindReachable:
    def test_linear_strategy_counts_iterations(self):
        system, final, depth = shift_register.make(6)
        hit, history = _find(system, final, depth + 2,
                             method="sat-unroll",
                             strategy="linear")
        assert hit is not None and hit.k == depth
        assert len(history) == depth + 1       # k = 0 .. depth

    def test_squaring_strategy_logarithmic(self):
        system, final, depth = shift_register.make(9)
        hit, history = _find(system, final, 16,
                             method="sat-unroll",
                             strategy="squaring")
        assert hit is not None
        assert hit.status is SolveResult.SAT
        # 0, 1, 2, 4, 8, 16 — six iterations for bound 16.
        assert len(history) <= 6

    def test_unreachable_exhausts(self):
        system, final, _ = shift_register.make_invariant_violation(3)
        hit, history = _find(system, final, 4,
                             method="jsat", strategy="linear")
        assert hit is None
        assert len(history) == 5

    def test_unknown_strategy_rejected(self):
        system, final, _ = counter.make(3, 5)
        with pytest.raises(ValueError):
            _find(system, final, 3, strategy="zigzag")

    def test_jsat_linear_matches_depth(self):
        system, final, depth = counter.make(4, 7)
        hit, _ = _find(system, final, depth + 1, method="jsat",
                       strategy="linear")
        assert hit is not None and hit.k == depth
