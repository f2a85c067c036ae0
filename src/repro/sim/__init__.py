"""Bit-parallel random simulation — the pre-solve falsification tier.

The paper's decision procedures are *complete* within a bound but pay
a solver's start-up cost on every query; many industrial properties
are violated by short, easy-to-stumble-on paths that plain random
simulation finds in microseconds.  This package provides that cheap
first tier:

* :mod:`repro.sim.engine` compiles a transition system's per-latch
  next-state functions (plus any probe predicates) into one
  :class:`~repro.logic.program.Program`, run over Python ints used as
  W-lane bit-vectors — one pass steps W random traces at once;
* :mod:`repro.sim.falsify` drives the compiled net on a random walk
  (reset-state starts, random input stuffing, restart schedule),
  checks the witness predicate every frame, and on a hit extracts the
  single hitting lane as a concrete :class:`~repro.system.trace.Trace`;
* :mod:`repro.sim.backend` wraps the falsifier as the ``simulation``
  BMC backend — SAT-only (it never answers UNSAT) — and provides the
  ``presolve`` helper the portfolio race, the batch scheduler, the
  property checker and the serve daemon use as their pre-solve tier.

The bounded witness semantics honoured here are the same Biere et al.
translation used by :mod:`repro.spec.ltl`: a simulation witness for a
reachability query at bound k is a loop-free path whose last state
satisfies the target — exactly the trace shape every solver backend
returns, validated by the same :meth:`Trace.validate` replay.
"""

from .backend import SimulationBackend, SimulationOptions, presolve
from .engine import CompiledNet, SimCompileError
from .falsify import SimOutcome, falsify

__all__ = ["CompiledNet", "SimCompileError", "SimOutcome", "falsify",
           "SimulationBackend", "SimulationOptions", "presolve"]
