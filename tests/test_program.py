"""Differential tests for the compiled op-list evaluator.

:class:`repro.logic.program.Program` is the one concrete evaluator of
transition relations: trace replay, the LTL loop-back check, witness
lifting, constant-latch detection, circuit simulation and the random
falsifier all run on it.  The contract under test:

* on random DAGs over all six operators and 1..300 lanes, every lane
  of a run equals :meth:`Expr.evaluate` (the independent reference);
* the dual-rail lowering computes exact Kleene three-valued logic and
  is sound: a definite result holds on every completion of the X
  inputs;
* the TR clients keep their observable behaviour — ``Trace.validate``
  reports the first failing step on relational TRs too, and the
  compiled program never enters a pickled system.
"""

import itertools
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.logic import expr as ex
from repro.logic.expr import Expr
from repro.logic.program import Program, cached_program
from repro.models import counter
from repro.system.model import TransitionSystem, compose_systems, primed
from repro.system.random_model import random_system
from repro.system.trace import Trace, TraceError

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])

_ARITY = {"not": 1, "xor": 2, "iff": 2, "ite": 3}
_OPS = ("not", "and", "or", "xor", "iff", "ite")


@st.composite
def dags(draw):
    """Variable names plus roots of a random DAG.

    Nodes are built with the raw ``Expr`` constructor so every one of
    the six operators (``iff`` and unfolded ``ite`` included, which the
    simplifying constructors never emit) and constant operands occur.
    """
    names = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    pool = [ex.var(name) for name in names] + [ex.TRUE, ex.FALSE]
    for _ in range(draw(st.integers(1, 24))):
        op = draw(st.sampled_from(_OPS))
        arity = _ARITY.get(op) or draw(st.integers(1, 4))
        args = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
        pool.append(Expr(op, args))
    # The newest nodes have the deepest cones.
    return names, pool[-draw(st.integers(1, 4)):]


def kleene(root, env):
    """Reference three-valued evaluation, node by node (None is X)."""
    values = {}
    for node in root.iter_dag():
        kids = [values[c.uid] for c in node.args]
        if node.op == "const":
            out = node.value
        elif node.op == "var":
            out = env.get(node.name)
        elif node.op == "not":
            out = None if kids[0] is None else not kids[0]
        elif node.op == "and":
            out = False if False in kids else \
                True if all(k is True for k in kids) else None
        elif node.op == "or":
            out = True if True in kids else \
                False if all(k is False for k in kids) else None
        elif node.op in ("xor", "iff"):
            out = None if None in kids else \
                (kids[0] != kids[1]) == (node.op == "xor")
        else:
            cond, then_v, else_v = kids
            out = then_v if cond is True else else_v if cond is False \
                else then_v if then_v is not None and then_v == else_v \
                else None
        values[node.uid] = out
    return values[root.uid]


# ----------------------------------------------------------------------
# Two-valued runs against Expr.evaluate
# ----------------------------------------------------------------------
class TestRun:
    @given(dags(), st.integers(1, 300), st.randoms(use_true_random=False))
    @settings(max_examples=80, **COMMON)
    def test_every_lane_matches_evaluate(self, dag, lanes, rng):
        names, roots = dag
        mask = (1 << lanes) - 1
        env = {name: rng.getrandbits(lanes) for name in names}
        got = Program(roots).evaluate(env, mask)
        for lane in range(lanes):
            point = {name: bool(env[name] >> lane & 1) for name in names}
            for root, vector in zip(roots, got):
                assert bool(vector >> lane & 1) == root.evaluate(point)
            assert all(vector <= mask for vector in got)

    def test_all_six_ops_compile(self):
        a, b, c = ex.var("a"), ex.var("b"), ex.var("c")
        roots = [Expr("not", (a,)), Expr("and", (a, b)),
                 Expr("or", (a, b)), Expr("xor", (a, b)),
                 Expr("iff", (a, b)), Expr("ite", (a, b, c))]
        program = Program(roots)
        assert sorted(op[0] for op in program.ops) == list(range(6))
        env = {"a": 0b11110000, "b": 0b11001100, "c": 0b10101010}
        assert program.evaluate(env, 0xFF) == [
            0b00001111, 0b11000000, 0b11111100, 0b00111100,
            0b11000011, 0b11001010]

    def test_shared_nodes_compile_once(self):
        a, b = ex.var("a"), ex.var("b")
        shared = a & b
        program = Program([shared | ex.var("c"), shared ^ ex.var("c")])
        assert len(program.ops) == 3

    def test_missing_variable_raises(self):
        with pytest.raises(KeyError):
            Program([ex.var("a") & ex.var("b")]).evaluate({"a": 1})

    def test_constant_roots(self):
        assert Program([ex.TRUE, ex.FALSE]).evaluate({}, 0b111) == [7, 0]


# ----------------------------------------------------------------------
# Dual rail: exact Kleene semantics, and sound
# ----------------------------------------------------------------------
def ternary(root, env):
    return Program([root]).ternary(env)[0]


class TestDualRail:
    def test_raw_nodes(self):
        # Nodes the simplifying constructors fold away (the constructor
        # cases are tests/test_reduce.py::test_ternary_evaluate_kleene).
        a, b = ex.var("a"), ex.var("b")
        assert ternary(Expr("ite", (a, b, b)), {"b": True}) is True
        assert ternary(Expr("ite", (a, ex.TRUE, ex.FALSE)), {}) is None
        assert ternary(Expr("iff", (a, b)), {"a": True}) is None
        assert ternary(Expr("iff", (a, b)),
                       {"a": True, "b": True}) is True

    def test_negation_costs_no_op(self):
        a, b = ex.var("a"), ex.var("b")
        assert len(Program([~(a & b)]).dual_rail().ops) == 2

    @given(dags(), st.data())
    @settings(max_examples=120, **COMMON)
    def test_matches_kleene_and_is_sound(self, dag, data):
        names, roots = dag
        env = {name: data.draw(st.sampled_from((True, False, None)))
               for name in names}
        got = Program(roots).ternary(env)
        unknown = [name for name in names if env[name] is None]
        for root, value in zip(roots, got):
            assert value is kleene(root, env)
            if value is None:
                continue
            for bits in itertools.product((False, True),
                                          repeat=len(unknown)):
                point = dict(env, **dict(zip(unknown, bits)))
                assert root.evaluate(point) is value


# ----------------------------------------------------------------------
# The TR clients
# ----------------------------------------------------------------------
def _counter_trace(system, steps):
    """The enabled counter's own run: count 0, 1, ..., steps."""
    width = len(system.state_vars)
    states = [{f"c{i}": bool(n >> i & 1) for i in range(width)}
              for n in range(steps + 1)]
    return Trace(states, [{"en": True} for _ in range(steps)])


class TestTraceValidate:
    def test_reports_first_failing_step(self):
        system, _, _ = counter.make(3)
        trace = _counter_trace(system, 6)
        trace.validate(system)
        trace.states[4]["c0"] = not trace.states[4]["c0"]
        # Steps 3 -> 4 and 4 -> 5 both break; the first is reported.
        with pytest.raises(TraceError, match=r"^transition 3 -> 4 "):
            trace.validate(system)

    def test_missing_input_after_a_bad_step_reports_the_step(self):
        system, _, _ = counter.make(3)
        trace = _counter_trace(system, 4)
        del trace.inputs[3]["en"]
        with pytest.raises(TraceError, match="step 3 missing input 'en'"):
            trace.validate(system)
        trace.states[2]["c1"] = False
        with pytest.raises(TraceError, match=r"^transition 1 -> 2 "):
            trace.validate(system)

    def test_self_loops(self):
        system, _, _ = counter.make(3)
        looped = system.with_self_loops()
        plain = _counter_trace(system, 3)
        # Stutter at state 2: valid only on the self-looped relation.
        states = plain.states[:3] + plain.states[2:]
        trace = Trace(states, [{"en": True}] * 4)
        trace.validate(looped)
        with pytest.raises(TraceError, match=r"^transition 2 -> 3 "):
            trace.validate(system)
        # A jump by two is a step of neither relation.
        jump = Trace([states[0], states[0], states[2]], [{"en": True}] * 2)
        with pytest.raises(TraceError, match=r"^transition 1 -> 2 "):
            jump.validate(looped)

    def test_reversed(self):
        system, _, _ = counter.make(3)
        rev = system.reversed()
        # Counting down from the reset state, wrapping 0 -> 7.
        counts = [0, 7, 6, 5, 4]
        backward = Trace([{f"c{i}": bool(n >> i & 1) for i in range(3)}
                          for n in counts], [{"en": True}] * 4)
        backward.validate(rev)
        with pytest.raises(TraceError, match=r"^transition 0 -> 1 "):
            backward.validate(system)
        backward.states[3] = dict(backward.states[1])
        with pytest.raises(TraceError, match=r"^transition 2 -> 3 "):
            backward.validate(rev)

    def test_compose_systems(self):
        a, _, _ = counter.make(2)
        b, _, _ = counter.make(2)
        both = compose_systems(a, b)
        states = [{"c0": bool(n & 1), "c1": bool(n & 2),
                   "u1.c0": False, "u1.c1": False} for n in range(4)]
        trace = Trace(states, [{"en": True, "u1.en": False}] * 3)
        trace.validate(both)
        trace.inputs[1] = {"en": True, "u1.en": True}
        with pytest.raises(TraceError, match=r"^transition 1 -> 2 "):
            trace.validate(both)

    def test_holds_trans_matches_evaluate(self):
        rng = random.Random(7)
        for _ in range(10):
            system = random_system(rng, num_latches=3, num_inputs=1)
            width = len(system.state_vars)
            for cur, nxt, inp in itertools.product(
                    itertools.product((False, True), repeat=width),
                    itertools.product((False, True), repeat=width),
                    itertools.product((False, True),
                                      repeat=len(system.input_vars))):
                inputs = dict(zip(system.input_vars, inp))
                env = dict(zip(system.state_vars, cur), **inputs)
                env.update({primed(v): b
                            for v, b in zip(system.state_vars, nxt)})
                assert system.holds_trans(cur, inputs, nxt) == \
                    system.trans.evaluate(env)

    def test_program_is_not_pickled_with_the_system(self):
        system, _, _ = counter.make(4)
        before = len(pickle.dumps(system))
        _counter_trace(system, 5).validate(system)
        assert len(pickle.dumps(system)) == before

    def test_mutated_trans_recompiles(self):
        system = TransitionSystem(["x"], ~ex.var("x"),
                                  ex.var("x'").iff(~ex.var("x")))
        first = cached_program(system, "trans", (system.trans,))
        assert system.holds_trans([False], {}, [True])
        system.trans = ex.var("x'").iff(ex.var("x"))
        assert cached_program(system, "trans", (system.trans,)) \
            is not first
        assert not system.holds_trans([False], {}, [True])
