"""All-solutions-SAT reachability and the SMV front end."""

import random

import pytest

from repro.bmc import AllSatReachability, BmcSession
from repro.logic import expr as ex
from repro.models import counter, shift_register
from repro.sat.types import SolveResult
from repro.system import (ExplicitOracle, SmvError, parse_smv,
                          random_predicate, random_system)


class TestAllSat:
    def test_initial_states_enumerated(self):
        system, _, _ = shift_register.make(4)
        asr = AllSatReachability(system)
        assert asr.initial_states() == {(True, False, False, False)}

    def test_image_and_layers(self):
        system, _, _ = counter.make(3, 1)     # enable input: stay or +1
        asr = AllSatReachability(system)
        init = asr.initial_states()
        succ = asr.image(init)
        assert succ == {(False, False, False), (True, False, False)}
        layers = asr.layers(2)
        assert layers[0] == init and layers[1] == succ

    def test_fixpoint_matches_oracle(self):
        rng = random.Random(12)
        for _ in range(6):
            system = random_system(rng, num_latches=3, num_inputs=1,
                                   depth=2)
            oracle = ExplicitOracle(system)
            asr = AllSatReachability(system)
            reached, _ = asr.reachable_fixpoint()
            explicit = set(oracle.initial_states)
            frontier = set(explicit)
            while frontier:
                new = set()
                for s in frontier:
                    new |= oracle.successors(s)
                frontier = new - explicit
                explicit |= new
            assert reached == explicit

    def test_shortest_distance_matches_oracle(self):
        rng = random.Random(13)
        for _ in range(6):
            system = random_system(rng, num_latches=3, num_inputs=1,
                                   depth=2)
            predicate = random_predicate(rng, system)
            oracle = ExplicitOracle(system)
            asr = AllSatReachability(system)
            assert asr.shortest_distance(predicate) == \
                oracle.shortest_distance(predicate)

    def test_blocking_growth_is_tracked(self):
        system, _, _ = counter.make(4, 1)
        asr = AllSatReachability(system)
        asr.reachable_fixpoint()
        assert asr.peak_blocking_literals > 0


SMV_TEXT = """
MODULE main  -- toggler with interlock
VAR
  x : boolean;
  y : boolean;
IVAR
  press : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := x xor press;
  init(y) := TRUE;
  next(y) := (x & !y) | (!x & y);
DEFINE
  both := x & y;
SPEC AG !both
"""


class TestSmv:
    def test_structure(self):
        circuit = parse_smv(SMV_TEXT)
        system = circuit.to_transition_system()
        assert system.state_vars == ["x", "y"]
        assert system.input_vars == ["press"]
        assert "spec0" in circuit.bad
        assert "both" in circuit.outputs

    def test_semantics_against_bmc(self):
        circuit = parse_smv(SMV_TEXT)
        system = circuit.to_transition_system()
        bad = circuit.bad["spec0"]
        oracle = ExplicitOracle(system)
        depth = oracle.shortest_distance(bad)
        assert depth is not None
        with BmcSession(system, properties={"target": bad}) as session:
            result = session.check(depth, method="jsat")
        assert result.status is SolveResult.SAT
        result.trace.validate(system, bad)

    def test_unconstrained_init(self):
        text = ("MODULE main\nVAR\n  a : boolean;\nASSIGN\n"
                "  next(a) := !a;\n")
        circuit = parse_smv(text)
        assert circuit._init_values["a"] is None

    def test_operator_precedence(self):
        text = ("MODULE main\nVAR\n  a : boolean;\n  b : boolean;\n"
                "ASSIGN\n  next(a) := a | b & !a;\n"
                "  next(b) := a -> b -> a;\n")
        circuit = parse_smv(text)
        nxt_a = circuit._next_exprs["a"]
        # a | (b & !a) — & binds tighter than |.
        assert nxt_a.evaluate({"a": True, "b": False})
        assert nxt_a.evaluate({"a": False, "b": True})
        assert not nxt_a.evaluate({"a": False, "b": False})
        # a -> (b -> a) is a tautology (right associative).
        nxt_b = circuit._next_exprs["b"]
        assert nxt_b is ex.TRUE

    def test_errors(self):
        with pytest.raises(SmvError):
            parse_smv("MODULE main\nVAR\n  a : boolean;\n")   # no next(a)
        with pytest.raises(SmvError):
            parse_smv("MODULE main\nVAR\n  a : boolean;\nASSIGN\n"
                      "  init(a) := b;\n  next(a) := a;\n")   # non-const
        with pytest.raises(SmvError):
            parse_smv("VAR a : boolean;")                     # no MODULE

    def test_define_chain(self):
        text = ("MODULE main\nVAR\n  a : boolean;\nASSIGN\n"
                "  next(a) := step2;\nDEFINE\n  step1 := !a;\n"
                "  step2 := step1 xor a;\n")
        circuit = parse_smv(text)
        nxt = circuit._next_exprs["a"]
        assert nxt is ex.TRUE       # (!a) xor a == TRUE
