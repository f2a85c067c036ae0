"""Differential tests: every decision method against every other.

The bound-sweep engine makes it cheap to ask the same query many ways;
this suite turns that into a correctness harness:

* for one representative design per suite family and every bound
  k = 0..6, the ``sat-incremental``, ``sat-unroll`` and ``jsat``
  methods and the BDD reachability baseline must all return the same
  verdict, every SAT witness must replay against the transition
  system, and (when the state space is small enough) the verdict must
  match the explicit-state oracle;
* property-based (hypothesis) cross-checks on random transition
  systems: the incremental sweep agrees with per-bound ``sat-unroll``
  bound-for-bound, and the two query semantics satisfy
  ``within(k) ⇔ ∃ j <= k: exact(j)``;
* the same sweeps on each kernel build, the interpreted one logging a
  DRAT proof of every solve through the ``proof_leg`` fixture.
"""

import contextlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bdd.reachability import BddReachability
from repro.bmc import BmcSession
from repro.models import build_suite
from repro.sat.types import SolveResult
from repro.system import ExplicitOracle, random_predicate, random_system

MAX_K = 6
SAT_METHODS = ("sat-incremental", "sat-unroll", "jsat")

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])


def _family_representatives():
    """The first (smallest) instance of every suite family."""
    seen = {}
    for instance in build_suite():
        seen.setdefault(instance.family, instance)
    return sorted(seen.values(), key=lambda i: i.family)


REPRESENTATIVES = _family_representatives()


def _check(system, final, k, method, **options):
    with BmcSession(system, properties={"target": final}) as session:
        return session.check(k, method=method, **options)


def _sweep(system, final, max_k, method):
    with BmcSession(system, properties={"target": final}) as session:
        return session.sweep(max_k, method=method)


@pytest.mark.parametrize("instance", REPRESENTATIVES,
                         ids=[i.family for i in REPRESENTATIVES])
def test_methods_agree_on_family(instance):
    system, final = instance.system, instance.final
    bdd = BddReachability(system)
    oracle = None
    if system.num_state_bits * 2 + len(system.input_vars) <= 22:
        oracle = ExplicitOracle(system)
    for k in range(MAX_K + 1):
        verdicts = {}
        for method in SAT_METHODS:
            result = _check(system, final, k, method)
            assert result.status is not SolveResult.UNKNOWN, \
                (instance.name, k, method)
            verdicts[method] = result.status
            if result.status is SolveResult.SAT:
                assert result.trace is not None, (instance.name, k, method)
                result.trace.validate(system, final)
                assert result.trace.length == k
        assert len(set(verdicts.values())) == 1, (instance.name, k, verdicts)
        status = verdicts["sat-incremental"]
        want = bdd.reachable_in_exactly(final, k)
        assert (status is SolveResult.SAT) == want, \
            (instance.name, k, status, "bdd")
        if oracle is not None:
            assert oracle.reachable_in_exactly(final, k) == want, \
                (instance.name, k, "oracle vs bdd")


@pytest.mark.parametrize("instance", REPRESENTATIVES[::3],
                         ids=[i.family for i in REPRESENTATIVES[::3]])
def test_within_semantics_agree_on_family(instance):
    system, final = instance.system, instance.final
    bdd = BddReachability(system)
    for k in (0, 2, MAX_K):
        verdicts = {}
        for method in SAT_METHODS:
            result = _check(system, final, k, method, semantics="within")
            verdicts[method] = result.status
            if result.trace is not None:
                result.trace.validate(system, final)
                assert result.trace.length <= k
                # Uniform within-mode shortening: the first final state
                # ends the trace, whatever back end produced it.
                assert not any(final.evaluate(s)
                               for s in result.trace.states[:-1])
        assert len(set(verdicts.values())) == 1, (instance.name, k, verdicts)
        want = bdd.reachable_within(final, k)
        assert (verdicts["jsat"] is SolveResult.SAT) == want, \
            (instance.name, k)


class TestRandomSystems:
    """Property-based differential checks on random transition systems."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, **COMMON)
    def test_incremental_sweep_matches_per_bound_unroll(self, seed):
        rng = random.Random(seed)
        system = random_system(rng, num_latches=3, num_inputs=1, depth=2)
        final = random_predicate(rng, system)
        max_k = 4
        unroll = [_check(system, final, k, "sat-unroll").status
                  for k in range(max_k + 1)]
        swept = _sweep(system, final, max_k, method="sat-incremental")
        for bound in swept.per_bound:
            assert bound.status is unroll[bound.k], (seed, bound.k)
        sat_bounds = [k for k, s in enumerate(unroll)
                      if s is SolveResult.SAT]
        expected_shortest = sat_bounds[0] if sat_bounds else None
        assert swept.shortest_k == expected_shortest, seed
        if swept.trace is not None:
            swept.trace.validate(system, final)
            assert swept.trace.length == expected_shortest

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, **COMMON)
    def test_within_is_prefix_or_of_exact(self, seed):
        rng = random.Random(seed)
        system = random_system(rng, num_latches=3, num_inputs=1, depth=2)
        final = random_predicate(rng, system)
        max_k = 4
        exact = [_check(system, final, k, "sat-unroll").status
                 for k in range(max_k + 1)]
        for k in range(max_k + 1):
            want = (SolveResult.SAT
                    if any(s is SolveResult.SAT for s in exact[:k + 1])
                    else SolveResult.UNSAT)
            for method in ("sat-unroll", "sat-incremental"):
                got = _check(system, final, k, method, semantics="within")
                assert got.status is want, (seed, k, method)
                if got.trace is not None:
                    got.trace.validate(system, final)
                    assert not any(final.evaluate(s)
                                   for s in got.trace.states[:-1])

class TestEngineLegs:
    """The same sweep on each kernel build, the interpreted one logging
    a DRAT proof of every solve through the ``proof_leg`` fixture (each
    proof must check): the build must be invisible in every verdict,
    shortest bound, and witness."""

    @pytest.mark.parametrize("instance", REPRESENTATIVES[::3],
                             ids=[i.family for i in REPRESENTATIVES[::3]])
    def test_suite_sweep_engine_invariant(self, instance, proof_leg):
        system, final = instance.system, instance.final
        legs = {}
        with proof_leg():
            legs["interpreted"] = _sweep(system, final, MAX_K,
                                         method="sat-incremental")
        legs["compiled"] = _sweep(system, final, MAX_K,
                                  method="sat-incremental")
        logged, default = legs["interpreted"], legs["compiled"]
        assert logged.status is default.status, instance.name
        assert logged.shortest_k == default.shortest_k, instance.name
        per_bound = {leg: {b.k: b.status for b in result.per_bound}
                     for leg, result in legs.items()}
        assert per_bound["interpreted"] == per_bound["compiled"], \
            instance.name
        for result in legs.values():
            if result.trace is not None:
                result.trace.validate(system, final)
                assert result.trace.length == result.shortest_k

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, **COMMON)
    def test_methods_engine_matrix_agrees(self, proof_leg, seed):
        rng = random.Random(seed)
        system = random_system(rng, num_latches=3, num_inputs=1, depth=2)
        final = random_predicate(rng, system)
        verdicts = {}
        for engine in ("interpreted", "compiled"):
            leg = (proof_leg() if engine == "interpreted"
                   else contextlib.nullcontext())
            with leg:
                for method in SAT_METHODS:
                    for k in (0, 2, 4):
                        result = _check(system, final, k, method)
                        verdicts.setdefault((method, k), set()).add(
                            result.status)
        for key, statuses in verdicts.items():
            assert len(statuses) == 1, (seed, key, statuses)


class TestRandomSweeps:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, **COMMON)
    def test_sweeps_agree_across_methods(self, seed):
        rng = random.Random(seed)
        system = random_system(rng, num_latches=3, num_inputs=0, depth=2)
        final = random_predicate(rng, system)
        results = {method: _sweep(system, final, 4, method=method)
                   for method in SAT_METHODS}
        shortest = {m: r.shortest_k for m, r in results.items()}
        assert len(set(shortest.values())) == 1, (seed, shortest)
        statuses = {m: r.status for m, r in results.items()}
        assert len(set(statuses.values())) == 1, (seed, statuses)
