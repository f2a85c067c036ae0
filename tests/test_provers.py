"""Differential tests for the unbounded prover backends.

The three provers (k-induction, interpolation, recurrence diameter)
are checked against the BDD fixpoint oracle on every suite family and
on random systems: verdicts must agree, SAT answers must carry
replayable traces, and every emitted inductive invariant must pass
``validate_invariant`` (contains init, excludes bad, closed under TR).

Also covers the latent bugs fixed when the provers were promoted to
backends: silent-``False`` model extraction on frame-unconstrained
inputs, the ``k == 0`` init-satisfiability probe of the recurrence
diameter, and per-call budget re-arming in the deepening loops.
"""

import random
import time

import pytest

from repro.bdd.reachability import BddReachability
from repro.bmc.backend import ALL_METHODS, METHODS, backend_class, \
    create_backend
from repro.bmc.completeness import longest_simple_path_reached, \
    verify_unbounded
from repro.bmc.induction import prove_by_induction
from repro.bmc.interpolation import prove_by_interpolation
from repro.bmc.provers import validate_invariant
from repro.logic import expr as ex
from repro.models import build_suite
from repro.portfolio import race
from repro.sat import Budget, SolveResult
from repro.spec import Invariant, PropertyChecker, Verdict
from repro.system import ExplicitOracle, TransitionSystem, primed, \
    random_predicate, random_system

PROVERS = ("k-induction", "interpolation", "diameter")


def _ts(state_vars, init, next_exprs, input_vars=()):
    trans = ex.mk_and(*[ex.var(primed(n)).iff(e)
                        for n, e in next_exprs.items()])
    return TransitionSystem(state_vars=state_vars, init=init,
                            trans=trans, input_vars=input_vars)


def _smallest_per_family():
    by_family = {}
    for inst in build_suite():
        best = by_family.get(inst.family)
        if best is None or len(inst.system.state_vars) < \
                len(best.system.state_vars):
            by_family[inst.family] = inst
    return sorted(by_family.values(), key=lambda i: i.family)


SMALLEST = _smallest_per_family()


def _input_driven_system():
    """One latch copying one input: v' = i, init v=0, bad = v.

    The k=1 base-case model never assigns positions the frame does not
    constrain, so trace extraction must consult the pool and complete
    the gap consistently with TR (the silent-``False`` regression).
    """
    v, i = ex.var("v"), ex.var("i")
    return _ts(("v",), ex.mk_not(v), {"v": i},
               input_vars=("i",)), v


class TestRegistry:
    def test_provers_registered(self):
        for name in PROVERS:
            assert name in METHODS
            assert name in ALL_METHODS

    def test_capability_flags(self):
        for name in PROVERS:
            cls = backend_class(name)
            assert cls.proves_unbounded
            assert tuple(cls.supported_semantics) == ("within",)
        for name in ("sat-unroll", "sat-incremental", "qbf",
                     "qbf-squaring", "jsat", "portfolio"):
            assert not backend_class(name).proves_unbounded


class TestModelExtraction:
    """Satellite: silent-False extraction on unconstrained positions."""

    def test_induction_base_case_trace_replays(self):
        system, bad = _input_driven_system()
        result = prove_by_induction(system, bad, max_k=4)
        assert result.status == "cex"
        assert result.trace is not None
        # validate() raises if the extracted input values do not drive
        # the states along TR — the old code silently filled False.
        result.trace.validate(system, bad)
        assert result.trace.length == 1

    def test_interpolation_bounded_query_trace_replays(self):
        system, bad = _input_driven_system()
        result = prove_by_interpolation(system, bad, max_k=4)
        assert result.status == "cex"
        assert result.trace is not None
        result.trace.validate(system, bad)

    def test_backend_traces_replay(self):
        system, bad = _input_driven_system()
        for name in PROVERS:
            backend = create_backend(name, system, bad)
            try:
                result = backend.check(4, semantics="within")
                assert result.status is SolveResult.SAT, name
                result.trace.validate(system, bad)
            finally:
                backend.close()


class TestDiameterAtZero:
    """Satellite: k=0 is an init-satisfiability probe, not False."""

    def test_unsat_init_reaches_diameter_at_zero(self):
        v = ex.var("v")
        system = _ts(("v",), ex.mk_and(v, ex.mk_not(v)), {"v": v})
        assert longest_simple_path_reached(system, 0) is True
        result = verify_unbounded(system, v, max_bound=4)
        assert result.status == "safe"
        assert result.bound == 0

    def test_sat_init_does_not_reach_diameter_at_zero(self):
        v = ex.var("v")
        system = _ts(("v",), ex.mk_not(v), {"v": v})
        assert longest_simple_path_reached(system, 0) is False


class TestBudgetDeadline:
    """One shared wall-clock deadline, started once per loop."""

    @staticmethod
    def _big_safe_system(bits=12):
        # A wide counter plus a constant-zero sticky bit.  The bad
        # state (sticky AND all-ones) is unreachable but not closable
        # by a shallow step case, so every deepening loop has
        # thousands of rungs to burn time on.
        vs = [ex.var(f"c{i}") for i in range(bits)]
        z = ex.var("z")
        carry = ex.TRUE
        nxt = {}
        for i, v in enumerate(vs):
            nxt[f"c{i}"] = ex.mk_xor(v, carry)
            carry = ex.mk_and(carry, v)
        nxt["z"] = z
        init = ex.mk_and(ex.mk_not(z), *[ex.mk_not(v) for v in vs])
        bad = ex.mk_and(z, *vs)
        names = tuple(f"c{i}" for i in range(bits)) + ("z",)
        return _ts(names, init, nxt), bad

    @pytest.mark.parametrize("prove", [
        lambda s, b, budget: prove_by_induction(
            s, b, max_k=4096, budget=budget),
        lambda s, b, budget: prove_by_interpolation(
            s, b, max_k=4096, budget=budget),
        lambda s, b, budget: verify_unbounded(
            s, b, max_bound=4096, budget=budget),
    ], ids=["induction", "interpolation", "diameter"])
    def test_tiny_budget_bounds_total_wall_time(self, prove):
        system, bad = self._big_safe_system()
        budget = Budget(max_seconds=0.15)
        start = time.perf_counter()
        prove(system, bad, budget)
        elapsed = time.perf_counter() - start
        # A per-rung restarted budget would grant 0.15 s to each of up
        # to 4096 rungs; the shared deadline caps the whole loop.
        assert elapsed < 3.0


class TestDifferentialSuite:
    """Every family's smallest instance vs the BDD fixpoint oracle."""

    @pytest.mark.parametrize(
        "inst", SMALLEST, ids=[i.name for i in SMALLEST])
    @pytest.mark.parametrize("prover", PROVERS)
    def test_agrees_with_bdd_oracle(self, inst, prover):
        distance = BddReachability(inst.system).shortest_distance(
            inst.final)
        bound = max(24, 2 * inst.k + 16)
        backend = create_backend(prover, inst.system, inst.final)
        try:
            result = backend.check(bound, semantics="within",
                                   budget=Budget(max_seconds=20.0))
        finally:
            backend.close()
        if result.status is SolveResult.SAT:
            assert distance is not None, \
                f"{prover} found a witness for an unreachable target"
            assert result.trace is not None
            result.trace.validate(inst.system, inst.final)
            assert result.trace.length >= distance
        elif result.proved:
            assert distance is None, \
                f"{prover} proved a reachable target safe " \
                f"(distance {distance})"
            if result.invariant is not None:
                assert validate_invariant(inst.system, inst.final,
                                          result.invariant)
        elif result.status is SolveResult.UNSAT:
            # Bounded UNSAT without a proof: sound up to the bound.
            assert distance is None or distance > bound

    def test_provers_close_reachable_families(self):
        # Sanity against vacuity: on these small instances a deep
        # ladder must actually find the (reachable) targets.
        reachable = [i for i in SMALLEST
                     if BddReachability(i.system).shortest_distance(
                         i.final) is not None]
        assert len(reachable) >= 10
        hits = 0
        for inst in reachable:
            backend = create_backend("k-induction", inst.system,
                                     inst.final)
            try:
                result = backend.check(max(24, 2 * inst.k + 16),
                                       semantics="within")
            finally:
                backend.close()
            hits += result.status is SolveResult.SAT
        assert hits == len(reachable)


class TestDifferentialRandom:
    def test_random_systems_agree_with_explicit_oracle(self):
        rng = random.Random(20050307)
        for _ in range(12):
            system = random_system(rng, num_latches=3,
                                   num_inputs=rng.randint(0, 1),
                                   depth=2)
            bad = random_predicate(rng, system)
            distance = ExplicitOracle(system).shortest_distance(bad)
            for prover in PROVERS:
                backend = create_backend(prover, system, bad)
                try:
                    result = backend.check(16, semantics="within")
                finally:
                    backend.close()
                if distance is None:
                    # 16 > the 3-latch recurrence diameter, so the
                    # diameter prover must be conclusive; the others
                    # must at least never claim SAT.
                    assert result.status is not SolveResult.SAT
                    if prover == "diameter":
                        assert result.proved, \
                            f"diameter inconclusive at 16 on " \
                            f"3-latch system"
                else:
                    assert result.status is SolveResult.SAT, \
                        f"{prover} missed a witness at distance " \
                        f"{distance}"
                    result.trace.validate(system, bad)
                if result.proved and result.invariant is not None:
                    assert validate_invariant(system, bad,
                                              result.invariant)


class TestRaceProverPairing:
    def test_prover_only_race_proves(self):
        # Every suite instance's target is eventually reachable, so
        # build a safe system: a counter with a stuck-at-zero bit.
        vs = [ex.var(f"c{i}") for i in range(4)]
        z = ex.var("z")
        carry = ex.TRUE
        nxt = {}
        for i, v in enumerate(vs):
            nxt[f"c{i}"] = ex.mk_xor(v, carry)
            carry = ex.mk_and(carry, v)
        nxt["z"] = z
        system = _ts(("c0", "c1", "c2", "c3", "z"),
                     ex.mk_and(ex.mk_not(z),
                               *[ex.mk_not(v) for v in vs]), nxt)
        outcome = race(system, z, 3, methods=[],
                       prover="interpolation", semantics="within",
                       wall_timeout=60.0)
        assert outcome.result.status is SolveResult.UNSAT
        assert outcome.result.proved
        assert outcome.winner == "interpolation"

    def test_deep_witness_does_not_win(self):
        # fifo3's target needs more than 1 step: the prover ladder
        # finds it beyond the query bound, which answers a different
        # question than the k=1 race.
        inst = next(i for i in build_suite() if i.name == "fifo3-k2")
        distance = BddReachability(inst.system).shortest_distance(
            inst.final)
        assert distance is not None and distance > 1
        outcome = race(inst.system, inst.final, 1, methods=[],
                       prover="diameter", semantics="within",
                       wall_timeout=60.0)
        assert outcome.result.status is SolveResult.UNKNOWN
        assert outcome.method_outcomes["diameter"] == "deep-witness"

    def test_race_with_falsifier_agrees_with_oracle(self):
        for name in ("fifo3-k2", "counter3-t5-k3"):
            inst = next(i for i in build_suite() if i.name == name)
            distance = BddReachability(inst.system).shortest_distance(
                inst.final)
            want = SolveResult.SAT if distance is not None \
                and distance <= inst.k else SolveResult.UNSAT
            outcome = race(inst.system, inst.final, inst.k,
                           methods=["sat-incremental"],
                           prover="k-induction", semantics="within",
                           reduce="auto", wall_timeout=60.0)
            assert outcome.result.status is want


class TestCheckerEscalation:
    def test_safe_property_escalates_to_proof(self):
        vs = [ex.var(f"c{i}") for i in range(3)]
        carry = ex.TRUE
        nxt = {}
        for i, v in enumerate(vs):
            nxt[f"c{i}"] = ex.mk_xor(v, carry)
            carry = ex.mk_and(carry, v)
        system = _ts(("c0", "c1", "c2"),
                     ex.mk_and(*[ex.mk_not(v) for v in vs]), nxt)
        safe = Invariant(ex.mk_or(vs[0], ex.mk_not(vs[0])))
        checker = PropertyChecker(system, properties={"safe": safe},
                                  prover="interpolation")
        try:
            result = checker.check("safe", 4)
        finally:
            checker.close()
        assert result.verdict is Verdict.HOLDS
        assert result.conclusive
        assert result.proved

    def test_prover_must_prove_unbounded(self):
        system, bad = _input_driven_system()
        with pytest.raises(ValueError, match="proves_unbounded"):
            PropertyChecker(system, prover="sat-unroll")
