"""The specification layer: Property AST, parser, SMV/Circuit
frontends, the multi-property session API and the harness property
axis."""

import pickle
import warnings

import pytest

from repro.bmc import BmcSession
from repro.harness.report import format_property_results
from repro.harness.runner import (run_matrix, run_property_matrix,
                                  verdict_counts)
from repro.logic import expr as ex
from repro.models import build_property_suite, counter
from repro.sat.types import Budget, SolveResult
from repro.spec import (And, Atom, Finally, Globally, Invariant, Next, Not,
                        Or, PropertyChecker, Reachable, Release, SpecError,
                        Until, Verdict, nnf, parse_spec, reachability_target,
                        search_plan)
from repro.system.circuit import Circuit
from repro.system.smv import SmvError, parse_smv


a, b, c = ex.var("a"), ex.var("b"), ex.var("c")


# ----------------------------------------------------------------------
class TestPropertyAst:
    def test_operator_sugar_and_coercion(self):
        prop = Globally(a) & b | ~Finally(c)
        assert isinstance(prop, Or)
        assert prop == Or(And(Globally(Atom(a)), Atom(b)),
                          Not(Finally(Atom(c))))

    def test_structural_equality_and_hash(self):
        assert Invariant(a & b) == Invariant(a & b)
        assert Invariant(a) != Reachable(a)
        assert hash(Until(a, b)) == hash(Until(a, b))
        assert len({Finally(a), Finally(a), Globally(a)}) == 2

    def test_immutability(self):
        prop = Finally(a)
        with pytest.raises(AttributeError):
            prop.arg = Atom(b)

    def test_pickling(self):
        for prop in (Invariant(a & ~b), Reachable(a),
                     Until(Atom(a), Next(Atom(b)))):
            assert pickle.loads(pickle.dumps(prop)) == prop

    def test_atom_requires_expr(self):
        with pytest.raises(TypeError):
            Atom("a")
        with pytest.raises(TypeError, match="state predicate"):
            Invariant(Finally(a))

    def test_nnf_dualities(self):
        # ¬G f = F ¬f, ¬(f U g) = ¬f R ¬g, ¬X f = X ¬f, ¬ into atoms.
        assert nnf(Not(Globally(a))) == Finally(Atom(ex.mk_not(a)))
        assert nnf(Not(Until(a, b))) == Release(Atom(ex.mk_not(a)),
                                                Atom(ex.mk_not(b)))
        assert nnf(Not(Next(a))) == Next(Atom(ex.mk_not(a)))
        assert nnf(Not(And(Atom(a), Atom(b)))) == \
            Or(Atom(ex.mk_not(a)), Atom(ex.mk_not(b)))
        assert nnf(Not(Not(Finally(a)))) == Finally(Atom(a))

    def test_nested_top_level_forms_rejected(self):
        with pytest.raises(ValueError, match="top-level"):
            nnf(Globally(Invariant(a)))

    def test_search_plan_polarity(self):
        formula, universal = search_plan(Invariant(a))
        assert universal and formula == Finally(Atom(ex.mk_not(a)))
        formula, universal = search_plan(Reachable(a))
        assert not universal and formula == Finally(Atom(a))
        # A bare LTL formula is a universal claim; its search is the
        # NNF negation.
        formula, universal = search_plan(Finally(Atom(a)))
        assert universal and formula == Globally(Atom(ex.mk_not(a)))

    def test_reachability_target(self):
        assert reachability_target(Reachable(a)) is a
        assert reachability_target(Invariant(a)) == ex.mk_not(a)
        # G over a plain predicate reduces too; F (universal) does not.
        assert reachability_target(Globally(Atom(a))) == ex.mk_not(a)
        assert reachability_target(Finally(Atom(a))) is None
        assert reachability_target(Until(Atom(a), Atom(b))) is None


# ----------------------------------------------------------------------
class TestSpecParser:
    @pytest.mark.parametrize("text", [
        "G !(req0 & req1)", "AG !bad", "EF (a & b)", "a U b",
        "F (a -> b)", "X X a", "(a U b) | G c", "a R b",
        "G (a -> X !a)", "TRUE", "!a xor b",
    ])
    def test_round_trip(self, text):
        prop = parse_spec(text)
        assert parse_spec(str(prop)) == prop

    def test_boolean_combinations_fold_into_atoms(self):
        prop = parse_spec("!(a & b) | c")
        assert isinstance(prop, Atom)
        assert prop.expr == ex.mk_or(ex.mk_not(ex.mk_and(a, b)), c)

    def test_precedence(self):
        # U binds tighter than &, & tighter than |, -> right-assoc.
        assert parse_spec("G a & F b") == And(Globally(Atom(a)),
                                              Finally(Atom(b)))
        assert parse_spec("a U b & G c") == And(Until(Atom(a), Atom(b)),
                                                Globally(Atom(c)))
        assert parse_spec("a -> b -> c") == \
            Atom(ex.mk_implies(a, ex.mk_implies(b, c)))

    def test_nested_ag_ef_rejected(self):
        with pytest.raises(SpecError, match="top-level"):
            parse_spec("G (AG a)")
        with pytest.raises(SpecError, match="plain state predicate"):
            parse_spec("AG (F a)")

    def test_errors(self):
        with pytest.raises(SpecError):
            parse_spec("")
        with pytest.raises(SpecError):
            parse_spec("a &")
        with pytest.raises(SpecError):
            parse_spec("(a | b")
        with pytest.raises(SpecError, match="variable name"):
            parse_spec("U")


# ----------------------------------------------------------------------
class TestFrontends:
    SMV = """
    MODULE main
    VAR
      x : boolean;
      y : boolean;
    ASSIGN
      init(x) := FALSE;
      next(x) := !x;
      init(y) := FALSE;
      next(y) := x & !y;
    DEFINE
      both := x & y;
    SPEC AG !both
    SPEC no_y := AG !y
    INVARSPEC safe := !both
    INVARSPEC !x
    """

    def test_smv_labels_and_invarspec(self):
        circuit = parse_smv(self.SMV)
        assert sorted(circuit.bad) == ["invar0", "no_y", "safe", "spec0"]
        assert circuit.properties["no_y"] == Invariant(ex.mk_not(ex.var("y")))
        assert circuit.properties["safe"] == \
            Invariant(ex.mk_not(ex.mk_and(ex.var("x"), ex.var("y"))))
        # Unlabelled entries keep the historical spec{i} numbering.
        assert circuit.properties["spec0"] == circuit.properties["safe"]

    def test_smv_duplicate_label_rejected(self):
        text = self.SMV + "\n    INVARSPEC safe := !y\n"
        with pytest.raises(SmvError, match="duplicate spec label"):
            parse_smv(text)

    def test_smv_specs_check_end_to_end(self):
        circuit = parse_smv(self.SMV)
        system = circuit.to_transition_system()
        with BmcSession(system, properties=circuit.properties) as session:
            results = session.check_properties(4)
        assert results["invar0"].verdict is Verdict.VIOLATED   # x toggles
        assert results["no_y"].verdict is Verdict.VIOLATED     # y pulses
        assert results["safe"].verdict is Verdict.HOLDS        # x&y never

    def test_circuit_add_bad_registers_reachable(self):
        circuit = Circuit("toy")
        q = circuit.add_latch("q", init=False)
        circuit.set_next("q", ~q)
        circuit.add_bad("stuck", q & ~q)
        assert circuit.properties["stuck"] == Reachable(q & ~q)
        circuit.add_property("hits-one", q)        # Expr -> Reachable
        assert circuit.properties["hits-one"] == Reachable(q)
        circuit.add_property("always-off", Invariant(~q))
        assert isinstance(circuit.properties["always-off"], Invariant)


# ----------------------------------------------------------------------
class TestSessionProperties:
    def setup_method(self):
        self.system, self.final, self.depth = counter.make(3, 5)

    def test_multi_property_check(self):
        with BmcSession(self.system, properties={
                "hit": Reachable(self.final),
                "safe": Invariant(ex.mk_not(self.final)),
                "ev": Finally(Atom(self.final))}) as session:
            results = session.check_properties(self.depth + 1)
        assert results["hit"].verdict is Verdict.HOLDS
        assert results["hit"].conclusive
        assert results["hit"].trace is not None
        assert results["safe"].verdict is Verdict.VIOLATED
        # F(final) as a universal claim fails: idle at zero forever.
        assert results["ev"].verdict is Verdict.VIOLATED

    def test_shared_matches_per_property_sessions(self):
        properties = {
            "hit": Reachable(self.final),
            "safe": Invariant(ex.mk_not(self.final)),
            "step": Next(Atom(ex.mk_not(self.final))),
        }
        with BmcSession(self.system, properties=properties) as session:
            shared = session.check_properties(self.depth + 1)
        for name, prop in properties.items():
            with BmcSession(self.system,
                            properties={name: prop}) as session:
                solo = session.check_properties(self.depth + 1)[name]
            assert solo.verdict is shared[name].verdict, name
            assert solo.conclusive == shared[name].conclusive, name

    def test_sweep_properties_earliest_bound(self):
        events = []
        with BmcSession(self.system, properties={
                "hit": Reachable(self.final),
                "safe": Invariant(ex.mk_not(self.final))}) as session:
            results = session.sweep_properties(
                self.depth + 3,
                on_bound=lambda name, bound: events.append((name, bound.k)))
        # Both resolve exactly at the counter's depth.
        assert results["hit"].k == self.depth
        assert results["safe"].k == self.depth
        assert ("hit", 0) in events and ("safe", self.depth) in events
        # No bound past the resolution point was queried.
        assert max(k for _, k in events) == self.depth

    def test_final_derived_from_single_property(self):
        with BmcSession(self.system, properties={
                "safe": Invariant(ex.mk_not(self.final))}) as session:
            assert session.final == self.final    # target = !(!final)
            result = session.check(self.depth)    # reach the violation
        assert result.status is SolveResult.SAT

    def test_check_rejects_multi_property_session(self):
        with BmcSession(self.system, properties={
                "a": Reachable(self.final),
                "b": Invariant(self.final)}) as session:
            with pytest.raises(ValueError, match="check_properties"):
                session.check(2)

    def test_check_rejects_non_reducible_property(self):
        with BmcSession(self.system, properties={
                "ev": Finally(Atom(self.final))}) as session:
            with pytest.raises(ValueError, match="bounded-LTL"):
                session.check(2)
            # ... but the property engine handles it.
            assert session.check_properties(2)["ev"].verdict \
                is Verdict.VIOLATED

    def test_add_property_on_live_session(self):
        with BmcSession(self.system, properties={
                "hit": Reachable(self.final)}) as session:
            session.check_properties(2)
            session.add_property("safe", Invariant(ex.mk_not(self.final)))
            results = session.check_properties(self.depth)
        assert set(results) == {"hit", "safe"}
        assert results["safe"].verdict is Verdict.VIOLATED

    def test_unknown_property_name(self):
        with BmcSession(self.system, properties={
                "hit": Reachable(self.final)}) as session:
            with pytest.raises(KeyError, match="unknown property"):
                session.check_properties(2, names=["typo"])

    def test_no_properties_errors(self):
        with BmcSession(self.system) as session:
            with pytest.raises(ValueError, match="no properties"):
                session.check_properties(2)
            with pytest.raises(ValueError, match="0 properties"):
                session.check(2)

    def test_property_over_unknown_variable_rejected(self):
        with BmcSession(self.system, properties={
                "bogus": Reachable(ex.var("nope"))}) as session:
            with pytest.raises(ValueError, match="non-state variables"):
                session.check_properties(2)

    def test_budget_exhaustion_yields_unknown(self):
        checker = PropertyChecker(self.system, {
            "hit": Reachable(self.final),
            "safe": Invariant(ex.mk_not(self.final))})
        results = checker.check_all(
            self.depth, budget=Budget(max_seconds=0.0))
        assert all(r.verdict is Verdict.UNKNOWN
                   for r in results.values())

    def test_unrolling_state_persists_across_calls(self):
        # sim_tier off: this test watches the shared unrolling itself.
        with BmcSession(self.system, sim_tier=False, properties={
                "hit": Reachable(self.final)}) as session:
            first = session.check_properties(self.depth)["hit"]
            again = session.check_properties(self.depth)["hit"]
        assert first.stats["trans_frames"] == self.depth
        # Second call re-used the encoded frames (no growth).
        assert again.stats["trans_frames"] == self.depth
        assert again.verdict is first.verdict


# ----------------------------------------------------------------------
class TestHarnessPropertyAxis:
    def test_property_matrix_and_reports(self):
        instances = [i for i in build_property_suite()
                     if i.family in ("counter", "ring")]
        cells = run_matrix(instances, (), mode="properties")
        assert len(cells) == sum(len(i.properties) for i in instances)
        counts = verdict_counts(cells)
        assert counts["reach-target"]["holds"] == len(instances)
        table = format_property_results(cells)
        assert "reach-target" in table and "verdict" in table

    def test_sequential_baseline_agrees(self):
        instances = [i for i in build_property_suite()
                     if i.family == "gray"]
        shared = run_property_matrix(instances, shared=True)
        solo = run_property_matrix(instances, shared=False)
        assert [(c.property_name, c.verdict) for c in shared] == \
            [(c.property_name, c.verdict) for c in solo]

    def test_property_mode_rejects_backend_knobs(self):
        instances = build_property_suite()[:1]
        with pytest.raises(ValueError, match="shared-unrolling"):
            run_matrix(instances, ("jsat",), mode="properties")
        with pytest.raises(ValueError, match="serially"):
            run_matrix(instances, (), mode="properties", jobs=4)

    def test_suite_instances_carry_default_target(self):
        from repro.models import build_suite
        instance = build_suite()[0]
        assert instance.properties == \
            {"target": Reachable(instance.final)}


# ----------------------------------------------------------------------
class TestReviewRegressions:
    """Regression pins for the findings of this PR's code review."""

    def test_cli_duplicate_spec_labels_rejected(self, capsys):
        from repro.cli import main
        assert main(["check", "counter", "--spec", "v := EF c0",
                     "--spec", "v := EF c1"]) == 1
        assert "duplicate spec label" in capsys.readouterr().err

    def test_cli_violated_outranks_unknown(self, capsys):
        from repro.cli import main
        # A definite counterexample must exit 1 even when another
        # property times out (exit 2 would hide the violation).
        code = main(["--timeout", "0.0", "check", "counter",
                     "--spec", "AG !c0", "--spec", "G (c0 -> X c1)",
                     "-k", "6"])
        out = capsys.readouterr().out
        if "VIOLATED" in out:
            assert code == 1
        else:                      # everything timed out: unknown
            assert code == 2

    def test_unspaced_implication_tokenizes(self):
        assert parse_spec("c0->c1") == parse_spec("c0 -> c1")
        assert parse_spec("a<->b") == parse_spec("a <-> b")
        # Interior dashes still form one identifier.
        atom = parse_spec("reach-target")
        assert isinstance(atom, Atom)
        assert atom.expr.name == "reach-target"

    def test_sweep_after_growth_keeps_two_encodings(self):
        system, final, depth = counter.make(3, 5)
        # sim_tier off: this test watches the two-driver encodings.
        checker = PropertyChecker(system, {"hit": Reachable(final)},
                                  sim_tier=False)
        cone = checker._cone_for("hit")
        shared = cone.unrolling_for(0)
        checker.check_all(depth + 2)               # shared grows deep
        # A sweep below the shared frames rides ONE auxiliary low
        # driver (not a throwaway per bound), and keeps it afterwards.
        first = checker.sweep(depth)["hit"]
        low = cone._low
        assert low is not None and low.k == depth
        assert cone.unrolling_for(depth + 2) is shared
        # Follow-up monotone queries below the shared frames reuse the
        # kept low encoding instead of rebuilding.
        again = checker.check_all(depth)["hit"]
        assert cone._low is low
        assert first.verdict is again.verdict is Verdict.HOLDS
        assert first.k == depth
