"""Tests for the bit-parallel simulation tier.

Four layers, bottom up: the op-list engine (lane semantics against
direct expression evaluation), the random-walk falsifier (witness
validity, determinism, cancellation), the registered ``simulation``
backend (SAT-only contract), and the pre-solve wiring — race, batch
scheduler, property checker and serve daemon must all give the same
verdicts with the tier on or off, with every simulation witness
replaying on the original system.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.bmc.backend import backend_class
from repro.bmc.session import BmcSession
from repro.logic.expr import mk_and, mk_not, var
from repro.models import build_suite
from repro.models import counter as counter_model
from repro.models import shift_register
from repro.portfolio import race
from repro.portfolio.scheduler import BatchScheduler
from repro.reduce import reduce_for_target
from repro.reduce.structure import FunctionalView
from repro.sat.types import Budget, SolveResult
from repro.serve import ServeClient
from repro.sim import (CompiledNet, SimCompileError, SimulationBackend,
                       falsify, presolve)
from repro.sim.engine import lane_bit


def _ring(length=4):
    """Shift-register instance: (system, final, shortest_depth)."""
    return shift_register.make(length)


def _lane_env(net, state, frame_inputs, lane):
    env = {latch: lane_bit(state[i], lane)
           for i, latch in enumerate(net.latches)}
    env.update({name: lane_bit(frame_inputs[i], lane)
                for i, name in enumerate(net.inputs)})
    return env


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class TestEngine:
    def test_eval_frame_matches_expression_semantics(self):
        """Every lane of eval_frame agrees with direct Expr.evaluate."""
        system, final, _ = counter_model.make(3)
        view = FunctionalView.from_system(system)
        net = CompiledNet(system, {"p": final}, view)
        lanes = 16
        mask = (1 << lanes) - 1
        rng = random.Random(7)
        state = [rng.getrandbits(lanes) for _ in net.latches]
        frame_inputs = [rng.getrandbits(lanes) for _ in net.inputs]
        nxt, ok, probes = net.eval_frame(state, frame_inputs, mask)
        assert ok == mask          # counter has no TR constraints
        for lane in range(lanes):
            env = _lane_env(net, state, frame_inputs, lane)
            assert lane_bit(probes["p"], lane) == final.evaluate(env)
            for i, latch in enumerate(net.latches):
                expected = view.updates[latch].evaluate(env)
                assert lane_bit(nxt[i], lane) == expected, latch

    def test_reset_lanes(self):
        system, final, _ = _ring(3)
        net = CompiledNet(system, {"p": final})
        mask = (1 << 8) - 1
        fills = iter([0b10101010] * len(net.latches))
        state = net.reset_lanes(mask, lambda: next(fills))
        for i, latch in enumerate(net.latches):
            reset = net.resets.get(latch)
            if reset is None:
                assert state[i] == 0b10101010
            else:
                assert state[i] == (mask if reset else 0)

    def test_relational_system_rejected(self):
        system, _, _ = _ring(3)
        squared = system.with_self_loops()
        with pytest.raises(SimCompileError):
            CompiledNet(squared, {})

    def test_stray_probe_variable_rejected(self):
        system, _, _ = _ring(3)
        with pytest.raises(SimCompileError, match="unknown variables"):
            CompiledNet(system, {"p": var("no_such_wire")})

    def test_lane_bit(self):
        assert lane_bit(0b1010, 1) is True
        assert lane_bit(0b1010, 0) is False


# ----------------------------------------------------------------------
# Falsifier
# ----------------------------------------------------------------------
class TestFalsify:
    def test_exact_hit_is_a_valid_witness(self):
        system, final, depth = _ring(4)
        out = falsify(system, final, depth, semantics="exact")
        assert out.hit and out.hit_k == depth
        assert out.trace.length == depth
        out.trace.validate(system, final)       # raises on any flaw
        assert out.stats["sim_frames"] > 0
        assert out.stats["sim_lanes"] > 0

    def test_within_accepts_shallower_hits(self):
        system, final, depth = _ring(4)
        out = falsify(system, final, depth + 3, semantics="within")
        assert out.hit and out.hit_k <= depth + 3
        out.trace.validate(system, final)

    def test_miss_below_shortest_depth(self):
        # The token cannot reach the last stage in < depth steps, so
        # a within-(depth-1) walk can never hit — not just unlikely.
        system, final, depth = _ring(4)
        out = falsify(system, final, depth - 1, semantics="within")
        assert not out.hit
        assert out.trace is None and out.hit_k is None
        assert out.stats["sim_restarts"] >= 1

    def test_deterministic_per_seed(self):
        system, final, depth = _ring(4)
        a = falsify(system, final, depth, semantics="exact")
        b = falsify(system, final, depth, semantics="exact")
        assert a.hit_k == b.hit_k
        assert a.trace.states == b.trace.states
        assert a.trace.inputs == b.trace.inputs

    def test_stop_check_cancels(self):
        system, final, depth = _ring(6)
        out = falsify(system, final, depth, stop_check=lambda: True)
        assert out.stopped and not out.hit

    def test_expired_budget_stops(self):
        system, final, depth = _ring(6)
        budget = Budget(max_seconds=0.0)
        out = falsify(system, final, depth, budget=budget)
        assert out.stopped and not out.hit

    def test_bad_arguments(self):
        system, final, depth = _ring(3)
        with pytest.raises(ValueError, match="semantics"):
            falsify(system, final, depth, semantics="sideways")
        with pytest.raises(ValueError, match="k must be"):
            falsify(system, final, -1)


# ----------------------------------------------------------------------
# The registered backend
# ----------------------------------------------------------------------
class TestSimulationBackend:
    def test_registered_under_simulation(self):
        assert backend_class("simulation") is SimulationBackend

    def test_check_sat_with_witness(self):
        system, final, depth = _ring(4)
        backend = SimulationBackend(system, final)
        result = backend.check(depth)
        assert result.status is SolveResult.SAT
        assert result.k == depth
        result.trace.validate(system, final)
        assert result.stats["sim_solver_calls"] == 0

    def test_unknown_on_miss_never_unsat(self):
        system, final, depth = _ring(4)
        backend = SimulationBackend(system, final)
        result = backend.check(depth - 1, semantics="within")
        assert result.status is SolveResult.UNKNOWN
        assert result.trace is None
        assert result.stats["sim_solver_calls"] == 0

    def test_unsupported_target_degrades_to_unknown(self):
        # A target reading a primary input cannot be witnessed by a
        # states-only trace; the backend must answer UNKNOWN, not blow
        # up, so sessions can fall through to other engines.
        system, final, _ = counter_model.make(2)
        bad_target = mk_and(final, var(system.input_vars[0]))
        backend = SimulationBackend(system, bad_target)
        result = backend.check(3)
        assert result.status is SolveResult.UNKNOWN
        assert result.stats.get("sim_unsupported") == 1

    def test_session_check_by_method_name(self):
        system, final, depth = _ring(4)
        with BmcSession(system, properties={"target": final}) as session:
            result = session.check(depth, method="simulation")
        assert result.status is SolveResult.SAT

    def test_sweep_is_single_sat_bound(self):
        system, final, depth = _ring(4)
        backend = SimulationBackend(system, final)
        sweep = backend.sweep(depth + 2)
        assert len(sweep.per_bound) == 1
        bound = sweep.per_bound[0]
        assert bound.status is SolveResult.SAT
        assert bound.k <= depth + 2

    def test_sweep_miss_is_single_unknown(self):
        system, final, depth = _ring(4)
        backend = SimulationBackend(system, final)
        sweep = backend.sweep(depth - 1)
        assert len(sweep.per_bound) == 1
        assert sweep.per_bound[0].status is SolveResult.UNKNOWN


# ----------------------------------------------------------------------
# presolve()
# ----------------------------------------------------------------------
class TestPresolve:
    def test_hit_returns_validated_outcome(self):
        system, final, depth = _ring(4)
        out = presolve(system, final, depth)
        assert out is not None and out.hit_k == depth
        out.trace.validate(system, final)

    def test_miss_returns_none(self):
        system, final, depth = _ring(4)
        assert presolve(system, final, depth - 1,
                        semantics="within") is None

    def test_unsupported_returns_none(self):
        system, final, _ = counter_model.make(2)
        bad_target = mk_and(final, var(system.input_vars[0]))
        assert presolve(system, bad_target, 3) is None

    def test_stop_check_suppresses_answer(self):
        system, final, depth = _ring(4)
        assert presolve(system, final, depth,
                        stop_check=lambda: True) is None

    def test_reduction_hit_is_lifted_shortened_and_checked(self):
        """With ``reduction=``, the walk runs on the cone and the hit
        comes back as a certificate for the original query."""
        system, _, _ = counter_model.make(4)
        target = var("c1")
        reduction = reduce_for_target(system, target)
        assert reduction.kept_latches == ["c0", "c1"]
        out = presolve(system, target, 6, semantics="within",
                       reduction=reduction)
        assert out is not None and out.hit and not out.rejected
        trace = out.trace
        assert out.hit_k == trace.length
        assert all(set(s) == set(system.state_vars) for s in trace.states)
        assert trace.is_valid(system, target)
        assert not any(target.evaluate(s) for s in trace.states[:-1])

    @pytest.mark.parametrize("module", ["repro.reduce", "repro.sim",
                                        "repro.spec"])
    def test_importable_first(self, module):
        """presolve takes a reduction, and reduce -> spec -> bmc -> sim
        import each other: each must load first in a fresh process."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        child = subprocess.run([sys.executable, "-c", f"import {module}"],
                               env=env, capture_output=True, text=True,
                               timeout=120)
        assert child.returncode == 0, child.stderr

    def test_suite_witnesses_replay_on_original_systems(self):
        """Differential over the suite: every simulation witness must
        be a real counterexample of the original system at the exact
        ground-truth depth."""
        sat_instances = [i for i in build_suite() if i.expected is True]
        hits = 0
        for inst in sat_instances:
            out = presolve(inst.system, inst.final, inst.k)
            if out is None:
                continue            # SAT-only tier: misses are fine
            hits += 1
            assert out.hit_k == inst.k, inst.name
            out.trace.validate(inst.system, inst.final)
        # The tier must actually earn its keep on the paper's suite.
        assert hits >= 6, f"only {hits} sim falsifications"


# ----------------------------------------------------------------------
# Pre-solve wiring: race / scheduler / checker
# ----------------------------------------------------------------------
SOLVE_BUDGET = Budget(max_conflicts=200_000)


class TestRaceSimTier:
    def test_sim_wins_without_solver_lanes(self):
        system, final, depth = _ring(4)
        outcome = race(system, final, depth, methods=["jsat"],
                       budget=SOLVE_BUDGET, sim_tier=True)
        assert outcome.winner == "simulation"
        assert outcome.result.status is SolveResult.SAT
        assert outcome.method_outcomes["jsat"] == "skipped"
        assert outcome.loser_pids == []      # nothing ever spawned
        outcome.result.trace.validate(system, final)

    def test_verdicts_identical_with_tier_off(self):
        cases = []
        system, final, depth = _ring(4)
        cases.append((system, final, depth))          # SAT: sim hits
        c_sys, c_final, c_depth = counter_model.make(3)
        cases.append((c_sys, c_final, c_depth - 1))   # UNSAT: sim misses
        for system, final, k in cases:
            with_sim = race(system, final, k, methods=["jsat"],
                            budget=SOLVE_BUDGET, sim_tier=True)
            without = race(system, final, k, methods=["jsat"],
                           budget=SOLVE_BUDGET, sim_tier=False)
            assert with_sim.result.status is without.result.status


class TestSchedulerSimTier:
    def test_sim_fills_cells_and_statuses_agree(self):
        instances = [i for i in build_suite()
                     if i.family == "ring"][:4]      # mixed SAT/UNSAT
        assert any(i.expected for i in instances)
        assert any(i.expected is False for i in instances)
        with_sim = BatchScheduler(jobs=2).run(
            instances, ["jsat"], budget=SOLVE_BUDGET, sim_tier=True)
        sched = BatchScheduler(jobs=2)
        without = sched.run(instances, ["jsat"], budget=SOLVE_BUDGET,
                            sim_tier=False)
        for a, b in zip(with_sim, without):
            assert (a.instance.name, a.method) == (b.instance.name,
                                                   b.method)
            assert a.status is b.status
        sim_cells = [c for c in with_sim if c.worker == "sim"]
        assert sim_cells, "sim tier answered no cells"
        for cell in sim_cells:
            assert cell.status is SolveResult.SAT
            assert cell.stats.get("sim_presolved")

    def test_sim_hits_counted_in_stats(self):
        instances = [i for i in build_suite()
                     if i.family == "ring" and i.expected][:2]
        sched = BatchScheduler(jobs=2)
        sched.run(instances, ["jsat"], budget=SOLVE_BUDGET,
                  sim_tier=True)
        assert sched.stats["sim_hits"] >= 1


class TestCheckerSimTier:
    def test_verdicts_identical_with_tier_off(self):
        from repro.spec.checker import PropertyChecker
        system, final, depth = _ring(4)
        props = {"reach": final, "safe": mk_and(final, mk_not(final))}
        results = {}
        for tier in (True, False):
            checker = PropertyChecker(system, props, sim_tier=tier)
            try:
                results[tier] = checker.check_all(depth)
            finally:
                checker.close()
        for name in props:
            assert (results[True][name].status
                    is results[False][name].status), name


# ----------------------------------------------------------------------
# Serve daemon pre-solve tier
# ----------------------------------------------------------------------
@pytest.fixture
def served(serve_daemon):
    return serve_daemon(jobs=1)                 # sim tier default ON


class TestServeSimTier:
    # ring4-k2's target is reachable at k=3, which presolve finds
    # deterministically (seeded walk) well inside its wall budget.
    FAMILY, K = "ring", 3

    def test_unpinned_submit_is_presolved(self, served):
        with ServeClient(socket_path=served.socket) as client:
            ack = client.submit(self.FAMILY, self.K)
            assert ack.get("presolved") is True
            assert ack["state"] == "done"
            assert ack["result"]["status"] == "SAT"
            assert ack["result"]["method"] == "simulation"
            event = client.wait(ack)          # answered, no blocking
            assert event["result"]["status"] == "SAT"
            assert client.stats()["jobs"]["sim_answers"] >= 1

    def test_pinned_method_is_never_presolved(self, served):
        with ServeClient(socket_path=served.socket) as client:
            ack = client.submit(self.FAMILY, self.K, method="jsat")
            assert "presolved" not in ack
            assert ack["state"] == "queued"
            event = client.wait(ack)
            assert event["result"]["status"] == "SAT"
            assert event["result"]["method"] == "jsat"

    def test_sweep_submission_presolves_within(self, served):
        with ServeClient(socket_path=served.socket) as client:
            ack = client.submit(self.FAMILY, self.K + 2, kind="sweep")
            assert ack.get("presolved") is True
            result = ack["result"]
            assert result["kind"] == "sweep"
            assert len(result["per_bound"]) == 1
            assert result["per_bound"][0]["status"] == "SAT"
