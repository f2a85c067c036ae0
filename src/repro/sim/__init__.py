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
  BMC backend — SAT-only (it never answers UNSAT) — and provides
  ``presolve``, the one pre-solve tier every caller uses: it walks the
  caller's reduced query and hands back a witness lifted to, and
  replay-checked on, the original system and target.

A simulation witness for a reachability query at bound k is a
loop-free path whose last state satisfies the target — the trace
shape every solver backend returns (the Biere et al. bounded
semantics of :mod:`repro.spec.ltl`).
"""

from .backend import SimulationBackend, SimulationOptions, presolve
from .engine import CompiledNet, SimCompileError
from .falsify import SimOutcome, falsify

__all__ = ["CompiledNet", "SimCompileError", "SimOutcome", "falsify",
           "SimulationBackend", "SimulationOptions", "presolve"]
