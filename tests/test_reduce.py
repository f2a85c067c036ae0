"""Differential and unit tests for the model-reduction pipeline.

The contract under test: for every property and every bound, solving
the *reduced* system gives the same verdict as solving the original,
and every SAT witness lifts back to a full-width trace that replays
against the original system.  The suite checks that contract over all
13 design families, over random systems at k = 0..6, and through every
wired-in entry point (session, checker, race, run_matrix, CLI knob).
"""

import random

import pytest

from repro.bmc import BmcSession
from repro.harness.runner import run_matrix, run_property_matrix
from repro.logic import expr as ex
from repro.logic.program import Program
from repro.models import build_property_suite, build_suite, counter
from repro.models.suite import Instance
from repro.portfolio.race import race
from repro.reduce import (ConeOfInfluence, ConstantLatches, DuplicateLatches,
                          FunctionalView, InputPruning, Pipeline,
                          ReducedSystem,
                          default_pipeline, identity_reduction,
                          reduce_for_target, reduce_system, resolve_reduce)
from repro.sat.types import SolveResult
from repro.serve import ServeClient
from repro.sim import presolve
from repro.spec import Invariant, PropertyChecker, Reachable
from repro.spec.property import Atom, Finally, Globally, Until
from repro.system.circuit import Circuit
from repro.system.random_model import random_predicate, random_system
from repro.system.trace import Trace, TraceError


def _deepest_per_family(limit=None):
    deepest = {}
    for inst in build_suite():
        best = deepest.get(inst.family)
        if best is None or inst.k > best.k:
            deepest[inst.family] = inst
    out = list(deepest.values())
    return out[:limit] if limit else out


# ----------------------------------------------------------------------
# The structural layer
# ----------------------------------------------------------------------
class TestStructure:
    def test_functional_view_recovers_circuit_updates(self):
        circuit = counter.make_circuit(3)
        system = circuit.to_transition_system()
        view = FunctionalView.from_system(system)
        assert view is not None
        assert set(view.updates) == set(system.state_vars)
        assert view.resets == {"c0": False, "c1": False, "c2": False}
        assert view.constraints == []

    def test_constraints_survive_extraction(self):
        circuit = Circuit("constrained")
        a = circuit.add_input("a")
        q = circuit.add_latch("q", init=False)
        circuit.set_next("q", a)
        circuit.add_constraint(~(a & q))
        view = FunctionalView.from_system(circuit.to_transition_system())
        assert view is not None
        assert len(view.constraints) == 1

    def test_self_looped_system_has_no_view(self):
        system, _, _ = counter.make(3, 5)
        assert FunctionalView.from_system(system.with_self_loops()) is None

    def test_non_literal_init_has_no_view(self):
        system, _, _ = counter.make(2, 2)
        from repro.system.model import TransitionSystem
        odd = TransitionSystem(system.state_vars,
                               ex.var("c0") | ex.var("c1"),
                               system.trans, system.input_vars)
        assert FunctionalView.from_system(odd) is None

    def test_ternary_evaluate_kleene(self):
        a, b = ex.var("a"), ex.var("b")

        def ternary(root, env):
            return Program([root]).ternary(env)[0]

        assert ternary(a & b, {"a": False}) is False
        assert ternary(a | b, {"b": True}) is True
        assert ternary(a ^ b, {"a": True}) is None
        assert ternary(~a, {}) is None
        assert ternary(ex.mk_ite(a, b, b), {"b": False}) is False
        assert ternary(ex.TRUE, {}) is True


# ----------------------------------------------------------------------
# The transforms
# ----------------------------------------------------------------------
class TestTransforms:
    def test_constant_latch_folded(self):
        circuit = Circuit("const")
        stuck = circuit.add_latch("stuck", init=False)
        live = circuit.add_latch("live", init=False)
        circuit.set_next("stuck", stuck)          # stays at reset forever
        circuit.set_next("live", ~live | stuck)
        rs = reduce_system(circuit.to_transition_system(),
                           Reachable(live))
        assert rs.fixed == {"stuck": False}
        assert rs.kept_latches == ["live"]

    def test_duplicate_latches_merged(self):
        circuit = Circuit("dup")
        a = circuit.add_input("a")
        u = circuit.add_latch("u", init=False)
        v = circuit.add_latch("v", init=False)
        w = circuit.add_latch("w", init=True)     # differing reset: kept
        circuit.set_next("u", u ^ a)
        circuit.set_next("v", v ^ a)
        circuit.set_next("w", w ^ a)
        rs = reduce_system(circuit.to_transition_system(),
                           Reachable(u & v & w))
        assert rs.merged == {"v": "u"}
        assert rs.kept_latches == ["u", "w"]

    def test_cone_of_influence_frees_unobserved(self):
        system, _, _ = counter.make(4, 9)
        rs = reduce_for_target(system, ex.var("c1"))
        assert rs.kept_latches == ["c0", "c1"]
        assert sorted(rs.freed) == ["c2", "c3"]

    def test_constraint_pulls_its_cone_in(self):
        circuit = Circuit("guarded")
        a = circuit.add_input("a")
        seen = circuit.add_latch("seen", init=False)
        out = circuit.add_latch("out", init=False)
        circuit.set_next("seen", seen | a)
        circuit.set_next("out", a)
        # The constraint couples `seen` into every path, so reducing
        # for `out` must keep it (dropping it would readmit paths the
        # constraint forbids).
        circuit.add_constraint(~seen)
        rs = reduce_system(circuit.to_transition_system(),
                           Reachable(out))
        assert "seen" in rs.kept_latches

    def test_input_pruning(self):
        circuit = Circuit("pruner")
        used = circuit.add_input("used")
        circuit.add_input("unused")
        q = circuit.add_latch("q", init=False)
        circuit.set_next("q", q | used)
        rs = reduce_system(circuit.to_transition_system(), Reachable(q))
        assert rs.kept_inputs == ["used"]

    def test_full_cone_is_identity_no_op(self):
        # A property observing the whole model must reduce to the
        # *original system object* — no rebuilt TR, no overhead.
        system, final, _ = counter.make(4, 9)
        rs = reduce_for_target(system, final)
        assert rs.is_identity
        assert rs.system is system
        trace = Trace([{v: False for v in system.state_vars}])
        assert rs.lift(trace) is trace

    def test_resolve_reduce_knob(self):
        assert resolve_reduce("off") is None
        assert resolve_reduce(None) is None
        assert isinstance(resolve_reduce("auto"), Pipeline)
        custom = Pipeline([ConeOfInfluence()])
        assert resolve_reduce(custom) is custom
        with pytest.raises(ValueError, match="reduce"):
            resolve_reduce("sometimes")
        with pytest.raises(TypeError, match="Reduction"):
            Pipeline(["cone"])

    def test_map_expr_rejects_out_of_cone_predicates(self):
        system, _, _ = counter.make(4, 9)
        rs = reduce_for_target(system, ex.var("c0"))
        with pytest.raises(ValueError, match="outside the reduced cone"):
            rs.map_expr(ex.var("c3"))

    def test_pipeline_passes_compose(self):
        # Constant + duplicate + cone interact: the duplicate of a
        # latch feeding the target collapses, then the cone shrinks.
        circuit = Circuit("compose")
        a = circuit.add_input("a")
        stuck = circuit.add_latch("stuck", init=True)
        u = circuit.add_latch("u", init=False)
        v = circuit.add_latch("v", init=False)
        far = circuit.add_latch("far", init=False)
        circuit.set_next("stuck", stuck | a)      # stuck at True
        circuit.set_next("u", u ^ (a & stuck))
        circuit.set_next("v", v ^ (a & stuck))
        circuit.set_next("far", far ^ u)
        rs = reduce_system(circuit.to_transition_system(),
                           Reachable(u & v))
        assert rs.fixed == {"stuck": True}
        assert rs.merged == {"v": "u"}
        assert rs.kept_latches == ["u"]
        assert rs.freed == ["far"]


# ----------------------------------------------------------------------
# Differential: every suite family, reduced vs unreduced
# ----------------------------------------------------------------------
def _needs_loop(prop) -> bool:
    from repro.spec.ltl import needs_loop_closure
    from repro.spec.property import search_plan
    return needs_loop_closure(search_plan(prop)[0])


def _assert_strengthens(plain, reduced, context) -> None:
    """The reduction contract for one (property, bound) comparison.

    Loop-free searches agree exactly.  Lasso searches can only
    *strengthen*: every full-system witness projects onto the cone, so
    a reduced run is conclusive whenever the plain run is (with the
    same verdict) and may additionally turn a bounded inconclusive
    claim into a conclusive one — the freed latches no longer delay
    loop closure.
    """
    if plain.conclusive:
        assert reduced.conclusive, context
        assert reduced.verdict is plain.verdict, context
    elif reduced.conclusive:
        assert _needs_loop(plain.prop), context
    else:
        assert reduced.verdict is plain.verdict, context


class TestSuiteDifferential:
    def test_property_verdicts_agree_per_family(self):
        for inst in build_property_suite():
            with BmcSession(inst.system, properties=inst.properties,
                            reduce="off") as session:
                plain = session.check_properties(inst.k)
            with BmcSession(inst.system, properties=inst.properties,
                            reduce="auto") as session:
                reduced = session.check_properties(inst.k)
            for name in inst.properties:
                context = (inst.name, name)
                _assert_strengthens(plain[name], reduced[name], context)
                if not _needs_loop(inst.properties[name]):
                    assert reduced[name].verdict is plain[name].verdict, \
                        context
                if reduced[name].trace is not None:
                    # Lifted certificates are full-width and replay on
                    # the ORIGINAL system.
                    assert set(reduced[name].trace.states[0]) == \
                        set(inst.system.state_vars)
                    reduced[name].trace.validate(inst.system)

    def test_property_sweeps_resolve_no_later(self):
        for inst in build_property_suite():
            with BmcSession(inst.system, properties=inst.properties,
                            reduce="off") as session:
                plain = session.sweep_properties(inst.k)
            with BmcSession(inst.system, properties=inst.properties,
                            reduce="auto") as session:
                reduced = session.sweep_properties(inst.k)
            for name in inst.properties:
                context = (inst.name, name)
                _assert_strengthens(plain[name], reduced[name], context)
                if _needs_loop(inst.properties[name]):
                    # Lasso witnesses may close earlier on the cone,
                    # never later.
                    if plain[name].conclusive:
                        assert reduced[name].k <= plain[name].k, context
                else:
                    assert reduced[name].verdict is plain[name].verdict, \
                        context
                    assert reduced[name].k == plain[name].k, context

    def test_reachability_cells_agree_per_family(self):
        for inst in _deepest_per_family():
            for mode in ("off", "auto"):
                with BmcSession(inst.system,
                                properties={"t": inst.final},
                                reduce=mode) as session:
                    result = session.check(inst.k, method="jsat")
                assert result.status is not SolveResult.UNKNOWN
                if inst.expected is not None:
                    want = SolveResult.SAT if inst.expected \
                        else SolveResult.UNSAT
                    assert result.status is want, (inst.name, mode)
                if result.trace is not None:
                    result.trace.validate(inst.system, inst.final)
                    assert result.trace.length == inst.k

    def test_incremental_sweep_agrees_and_lifts(self):
        for inst in _deepest_per_family(limit=6):
            with BmcSession(inst.system, properties={"t": inst.final},
                            reduce="off") as session:
                plain = session.sweep(inst.k, method="sat-incremental")
            seen = []
            with BmcSession(inst.system, properties={"t": inst.final},
                            reduce="auto") as session:
                reduced = session.sweep(inst.k, method="sat-incremental",
                                        on_bound=seen.append)
            assert reduced.status is plain.status
            assert reduced.shortest_k == plain.shortest_k
            assert [b.k for b in seen] == [b.k for b in reduced.per_bound]
            if reduced.trace is not None:
                reduced.trace.validate(inst.system, inst.final)


# ----------------------------------------------------------------------
# Differential: random systems, k = 0..6
# ----------------------------------------------------------------------
class TestRandomDifferential:
    def test_random_reachability_all_bounds(self):
        rng = random.Random(20260730)
        for trial in range(12):
            system = random_system(rng, num_latches=4, num_inputs=2,
                                   depth=3)
            final = random_predicate(rng, system)
            for k in range(0, 7):
                with BmcSession(system, properties={"t": final},
                                reduce="off") as session:
                    plain = session.check(k, method="sat-unroll")
                with BmcSession(system, properties={"t": final},
                                reduce="auto") as session:
                    reduced = session.check(k, method="sat-unroll")
                assert reduced.status is plain.status, (trial, k)
                if reduced.trace is not None:
                    reduced.trace.validate(system, final)
                    assert reduced.trace.length == k

    def test_random_properties_all_bounds(self):
        rng = random.Random(4251)
        for trial in range(8):
            system = random_system(rng, num_latches=4, num_inputs=1,
                                   depth=3)
            p = random_predicate(rng, system)
            q = random_predicate(rng, system)
            properties = {
                "reach": Reachable(p),
                "safe": Invariant(p),
                "ev": Finally(Atom(p)),
                "hold": Globally(Atom(q)),
                "until": Until(Atom(q), Atom(p)),
            }
            plain = PropertyChecker(system, properties, reduce="off")
            reduced = PropertyChecker(system, properties, reduce="auto")
            for k in range(0, 7):
                a = plain.check_all(k)
                b = reduced.check_all(k)
                for name in properties:
                    _assert_strengthens(a[name], b[name],
                                        (trial, k, name))
                    if not _needs_loop(properties[name]):
                        assert a[name].verdict is b[name].verdict, \
                            (trial, k, name)
                        assert a[name].conclusive == \
                            b[name].conclusive, (trial, k, name)


# ----------------------------------------------------------------------
# Wiring: race, run_matrix, cones, circuit validation
# ----------------------------------------------------------------------
class TestWiring:
    def test_race_with_reduction_lifts_winner(self):
        inst = [i for i in _deepest_per_family()
                if i.family == "arbiter"][0]
        outcome = race(inst.system, inst.final, inst.k,
                       methods=("sat-unroll", "jsat"), reduce="auto")
        assert outcome.result.status is SolveResult.SAT
        assert outcome.result.stats["reduced_latches"] < \
            outcome.result.stats["original_latches"]
        outcome.result.trace.validate(inst.system, inst.final)

    def test_run_matrix_forwards_reduce(self):
        instances = [i for i in build_suite()
                     if i.family in ("arbiter", "cache")][:6]
        plain = run_matrix(instances, ["jsat"], reduce="off")
        reduced = run_matrix(instances, ["jsat"], reduce="auto")
        assert [c.status for c in plain] == [c.status for c in reduced]
        assert all(c.solved for c in reduced)

    def test_run_matrix_sweep_mode_forwards_reduce(self):
        instances = [i for i in build_suite()
                     if i.family == "traffic"][:3]
        plain = run_matrix(instances, ["sat-incremental"], mode="sweep",
                           reduce="off")
        reduced = run_matrix(instances, ["sat-incremental"], mode="sweep",
                             reduce="auto")
        assert [c.status for c in plain] == [c.status for c in reduced]

    def test_parallel_run_rejects_pipeline_objects(self):
        instances = build_suite()[:2]
        with pytest.raises(ValueError, match="reduce"):
            run_matrix(instances, ["jsat"], jobs=2,
                       reduce=default_pipeline())

    def test_property_matrix_reduce_agrees(self):
        instances = [i for i in build_property_suite()
                     if i.family in ("cache", "pipeline")]
        plain = run_property_matrix(instances, reduce="off")
        reduced = run_property_matrix(instances, reduce="auto")
        assert [(c.instance.name, c.property_name, c.verdict)
                for c in plain] == \
            [(c.instance.name, c.property_name, c.verdict)
             for c in reduced]

    def test_checker_groups_properties_by_cone(self):
        inst = [i for i in build_property_suite()
                if i.family == "cache"][0]
        checker = PropertyChecker(inst.system, inst.properties,
                                  reduce="auto")
        checker.check_all(2)
        # Target properties share one cone, probe properties another —
        # strictly fewer cones than properties, more than one.
        assert 1 < checker.cone_count() < len(inst.properties)

    def test_checker_off_uses_single_identity_cone(self):
        inst = [i for i in build_property_suite()
                if i.family == "cache"][0]
        checker = PropertyChecker(inst.system, inst.properties,
                                  reduce="off")
        checker.check_all(2)
        assert checker.cone_count() == 1
        cone = checker._cone_for("reach-target")
        assert cone.reduction.is_identity

    def test_circuit_add_property_rejects_non_property(self):
        circuit = Circuit("typed")
        q = circuit.add_latch("q", init=False)
        circuit.set_next("q", ~q)
        with pytest.raises(TypeError, match="Property"):
            circuit.add_property("bad", "G q")
        with pytest.raises(TypeError, match="Property"):
            circuit.add_property("bad", None)
        circuit.add_property("ok", q)          # Expr wraps as Reachable
        assert isinstance(circuit.properties["ok"], Reachable)

    def test_composed_context_strips_bystanders(self):
        from repro.models import gray, shift_register
        from repro.system.model import compose_systems
        inst = [i for i in build_property_suite()
                if i.family == "counter"][0]
        bystander_a, _, _ = gray.make(3)
        bystander_b, _, _ = shift_register.make(4)
        composed = compose_systems(inst.system, bystander_a, bystander_b,
                                   prefixes=("", "a.", "b."))
        rs = reduce_for_target(composed, inst.final)
        # The cone is exactly the family block: no bystander survives.
        assert set(rs.kept_latches) == set(inst.system.state_vars)
        with BmcSession(composed, properties={"t": inst.final},
                        reduce="auto") as session:
            result = session.check(inst.k, method="jsat")
        assert result.status is SolveResult.SAT
        result.trace.validate(composed, inst.final)

    def test_compose_systems_validation(self):
        from repro.system.model import compose_systems
        system, _, _ = counter.make(2, 2)
        with pytest.raises(ValueError, match="prefix"):
            compose_systems(system, system, prefixes=("x.",))
        with pytest.raises(ValueError, match="disjoint"):
            compose_systems(system, system, prefixes=("", ""))
        with pytest.raises(ValueError, match="at least one"):
            compose_systems()

    def test_constant_target_reduces_to_empty_cone(self):
        # A property whose entire support is constant-folded leaves a
        # zero-latch system; checking it must still work end to end
        # and lift full-width certificates.
        from repro.models import traffic
        system, _, _ = traffic.make(1)          # tm0 is stuck at reset
        rs = reduce_for_target(system, ex.var("tm0"))
        assert rs.kept_latches == []
        with BmcSession(system, properties={
                "stuck-off": Invariant(~ex.var("tm0")),
                "never-on": Finally(Atom(ex.var("tm0")))},
                reduce="auto") as session:
            results = session.sweep_properties(4)
        assert results["stuck-off"].verdict.name == "HOLDS"
        assert results["never-on"].verdict.name == "VIOLATED"
        trace = results["never-on"].trace
        assert trace is not None
        assert set(trace.states[0]) == set(system.state_vars)
        trace.validate(system)

    def test_suite_probe_latch_is_never_constant(self):
        from repro.models.suite import _narrowest_cone_latch
        from repro.reduce import ConstantLatches, ReductionState
        from repro.spec.property import Atom
        for inst in build_property_suite():
            probe = inst.properties.get("probe-reach")
            if probe is None:
                continue
            view = FunctionalView.from_system(inst.system)
            state = ReductionState(view, Atom(ex.TRUE))
            ConstantLatches().apply(state)
            assert not set(probe.expr.support()) & set(state.fixed), \
                inst.name

    def test_custom_pipeline_not_memoized_per_support(self):
        # A property-structure-dependent transform must be re-run per
        # property; declaring support_determined is opt-in.
        from repro.reduce import Reduction

        calls = []

        class Spy(Reduction):
            name = "spy"

            def apply(self, state):
                calls.append(str(state.prop))

        system, final, _ = counter.make(3, 5)
        pipeline = Pipeline([Spy()])
        assert not pipeline.support_determined
        assert default_pipeline().support_determined
        checker = PropertyChecker(
            system,
            {"r": Reachable(final), "i": Invariant(~final)},
            reduce=pipeline)
        checker.check_all(2)
        assert len(calls) == 2                   # same support, two runs

    def test_replacing_single_property_refreshes_backend(self):
        # Regression: the backend cache is keyed by target too, so
        # replacing the session's single property must not reuse a
        # backend solving (a reduction of) the old target.
        system, _, depth = counter.make(4, 9)
        for mode in ("off", "auto"):
            with BmcSession(system, properties={"t": ex.var("c0")},
                            reduce=mode) as session:
                first = session.check(1, method="sat-unroll")
                assert first.status is SolveResult.SAT
                session.add_property("t", ex.var("c3"))
                again = session.check(depth, method="sat-unroll")
                assert again.status is SolveResult.SAT
                again.trace.validate(system, ex.var("c3"))

    def test_custom_rewrite_pipeline_is_not_discarded(self):
        # Regression: a transform that rewrites the logic without
        # removing a variable must produce a reduced system, not be
        # silently folded into the identity reduction.
        from repro.reduce import Reduction

        class FreezeInput(Reduction):
            """Cofactor every update with input a=False."""

            def apply(self, state):
                state.substitute({"a": ex.FALSE})

        circuit = Circuit("freeze")
        a = circuit.add_input("a")
        q = circuit.add_latch("q", init=False)
        circuit.set_next("q", q | a)
        system = circuit.to_transition_system()
        rs = Pipeline([FreezeInput()]).reduce(system, Reachable(q))
        assert not rs.is_identity
        assert rs.system.trans is not system.trans

    def test_identity_reduction_properties(self):
        system, final, _ = counter.make(3, 5)
        rs = identity_reduction(system)
        assert rs.is_identity
        assert rs.map_expr(final) is final
        assert rs.summary()["latches_before"] == \
            rs.summary()["latches_after"]


# ----------------------------------------------------------------------
# Lifted witnesses must still reach the original target
# ----------------------------------------------------------------------
class TestLiftedWitnessTarget:
    """A lift that loses the target state must not pass silently.

    The patched lift drops the last state: the path still replays
    against TR, so only a check against the original target notices.
    """

    @pytest.fixture
    def lossy_lift(self, monkeypatch):
        lift = ReducedSystem.lift

        def drop_last_state(self, trace):
            lifted = lift(self, trace)
            if self.is_identity:
                return lifted
            return Trace(lifted.states[:-1], lifted.inputs[:-1])

        monkeypatch.setattr(ReducedSystem, "lift", drop_last_state)

    @pytest.mark.parametrize("sim_tier", [True, False])
    def test_checker_raises(self, lossy_lift, sim_tier):
        system, _, _ = counter.make(4)
        # c1 first holds at count 2, so every witness at k=2 ends on
        # the only target state of its path; the cone is {c0, c1}.
        checker = PropertyChecker(system, {"p": Reachable(ex.var("c1"))},
                                  reduce="auto", validate=True,
                                  sim_tier=sim_tier)
        with pytest.raises(TraceError, match="target"):
            checker.check_all(2)

    def test_checker_raises_without_validation(self, lossy_lift):
        """``validate=False`` skips the debug replays on the cone, not
        the check of the lifted witness against the original target."""
        system, _, _ = counter.make(4)
        checker = PropertyChecker(system, {"p": Reachable(ex.var("c1"))},
                                  reduce="auto", validate=False,
                                  sim_tier=False)
        with pytest.raises(TraceError, match="target"):
            checker.check_all(2)

    def test_race_rejects(self, lossy_lift):
        system, _, _ = counter.make(4)
        outcome = race(system, ex.var("c1"), 2, methods=("sat-unroll",),
                       semantics="within", reduce="auto")
        assert outcome.result.status is SolveResult.UNKNOWN
        assert outcome.method_outcomes["sat-unroll"] == "invalid-witness"
        assert outcome.method_outcomes["simulation"] == "invalid-witness"

    def test_presolve_rejects(self, lossy_lift):
        system, _, _ = counter.make(4)
        target = ex.var("c1")
        out = presolve(system, target, 2, semantics="within",
                       reduction=reduce_for_target(system, target))
        assert out is not None and out.rejected
        assert out.trace is None and not out.hit

    def test_batch_rejects(self, lossy_lift):
        system, _, _ = counter.make(4)
        instance = Instance("counter4-c1-k2", "counter", system,
                            ex.var("c1"), 2, True)
        cells = run_matrix([instance], ["sat-unroll"], sim_tier=True,
                           reduce="auto")
        assert [cell.status for cell in cells] == [SolveResult.UNKNOWN]
        assert cells[0].worker != "sim"

    # arbiter's target is reachable at k=3, and reduce="auto" drops
    # two of its six latches.
    FAMILY, K = "arbiter", 3

    def _served_result(self, serve_daemon, **submit):
        handle = serve_daemon(jobs=1)
        with ServeClient(socket_path=handle.socket) as client:
            ack = client.submit(self.FAMILY, self.K, **submit)
            assert "presolved" not in ack
            return client.wait(ack)["result"]

    def test_daemon_sim_rejects(self, lossy_lift, serve_daemon):
        result = self._served_result(serve_daemon)
        assert result["status"] == "UNKNOWN" and result["trace"] is None
        assert "target" in result["error"]

    def test_daemon_worker_result_rejects(self, lossy_lift, serve_daemon):
        result = self._served_result(serve_daemon, method="jsat")
        assert result["method"] == "jsat"
        assert result["status"] == "UNKNOWN" and result["trace"] is None
        assert "target" in result["error"]


# Keep ruff happy about the intentionally unused transform imports —
# they are exercised via default_pipeline's composition above.
_ALL_TRANSFORMS = (ConstantLatches, DuplicateLatches, InputPruning)
