"""Random-walk falsification over a compiled bit-parallel net.

:func:`falsify` answers one bounded reachability query — *is the
target predicate reachable within (or at exactly) k steps?* — by
brute randomness: start W lanes in reset states (unconstrained
latches randomised per lane), stuff fresh random inputs every frame,
step the whole pack with one pass over the compiled op list, and test
the target probe every frame.  On a hit the single hitting lane is
peeled out of the packed history as a concrete
:class:`~repro.system.trace.Trace` that replays against the original
transition relation by construction (each step *is* an evaluation of
the per-latch next-state functions, and lanes violating a TR
invariant constraint are masked out before their successors are
committed).

A restart schedule widens the pack geometrically (W, 2W, 4W, ...
capped at :data:`MAX_WIDTH`) so cheap shallow probes run first and
the expensive wide packs only spin up for properties that resist.
The walk is deterministic for a given seed — reproducibility beats
entropy in a test tier — and cooperatively cancellable: the global
:func:`~repro.sat.types.stop_requested` probe plus the started
budget are consulted every frame.

This tier is one-sided: it can only ever report SAT (a validated
witness).  A miss means nothing — the solvers still have to run.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..logic.expr import Expr
from ..sat.types import Budget, stop_requested
from ..system.model import TransitionSystem
from ..system.trace import Trace
from ..telemetry.metrics import current_metrics
from ..telemetry.trace import current_tracer
from .engine import CompiledNet, SimCompileError, lane_bit

__all__ = ["SimOutcome", "falsify", "MAX_WIDTH"]

#: Hard cap on the lane count a restart schedule may widen to.
MAX_WIDTH = 4096

_TARGET = "target"


@dataclass
class SimOutcome:
    """What one falsification run did and found.

    ``trace`` is None on a miss; ``hit_k`` is the witness length on a
    hit.  ``frames`` counts simulation frames executed (restarts
    included), ``lanes`` the total lanes launched across restarts —
    the effective number of random traces explored is bounded by
    ``lanes``.  ``rejected`` marks a hit whose lifted witness
    :func:`repro.sim.presolve` dropped.
    """
    trace: Optional[Trace] = None
    hit_k: Optional[int] = None
    frames: int = 0
    lanes: int = 0
    restarts: int = 0
    ops: int = 0
    seconds: float = 0.0
    stopped: bool = False
    rejected: bool = False
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def hit(self) -> bool:
        return self.trace is not None


def _default_seed(system: TransitionSystem, target: Expr, k: int) -> int:
    """Stable per-query seed: same query, same walk, every process."""
    text = f"{system.name}|{sorted(target.support())}|{k}"
    return zlib.crc32(text.encode("utf-8"))


def falsify(system: TransitionSystem, target: Expr, k: int, *,
            semantics: str = "exact",
            width: int = 256,
            restarts: int = 4,
            seed: Optional[int] = None,
            budget: Optional[Budget] = None,
            stop_check: Optional[Callable[[], bool]] = None,
            net: Optional[CompiledNet] = None) -> SimOutcome:
    """Random-walk search for a k-bounded witness of ``target``.

    ``semantics`` follows the backend convention: ``"within"`` accepts
    a witness at any depth ≤ k (and returns the first, hence
    shortest-for-this-walk, one), ``"exact"`` only at depth exactly k.
    Pass a prebuilt ``net`` (compiled with a ``"target"`` probe) to
    amortise compilation across queries; otherwise one is compiled
    here — :class:`SimCompileError` propagates for systems with no
    functional view.
    """
    if semantics not in ("exact", "within"):
        raise ValueError(f"unknown semantics {semantics!r}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if net is None:
        net = CompiledNet(system, {_TARGET: target})
    if seed is None:
        seed = _default_seed(system, target, k)
    if budget is not None:
        budget = budget.start()

    out = SimOutcome(ops=net.num_ops())
    start = time.monotonic()
    metrics = current_metrics()
    with current_tracer().span("sim.falsify", system=system.name, k=k,
                               semantics=semantics, width=width):
        try:
            _run(net, k, semantics, width, restarts, seed, budget,
                 stop_check, out)
        finally:
            out.seconds = time.monotonic() - start
            metrics.inc("sim.falsify.calls")
            metrics.inc("sim.frames", out.frames)
            metrics.inc("sim.lanes", out.lanes)
            if out.hit:
                metrics.inc("sim.hits")
            out.stats = {
                "sim_frames": out.frames,
                "sim_lanes": out.lanes,
                "sim_restarts": out.restarts,
                "sim_ops": out.ops,
            }
    return out


def _should_stop(stop_check: Optional[Callable[[], bool]],
                 budget: Optional[Budget]) -> bool:
    if stop_requested():
        return True
    if stop_check is not None and stop_check():
        return True
    return budget is not None and budget.exhausted()


def _run(net: CompiledNet, k: int, semantics: str, width: int,
         restarts: int, seed: int, budget: Optional[Budget],
         stop_check: Optional[Callable[[], bool]],
         out: SimOutcome) -> None:
    lanes = max(1, min(width, MAX_WIDTH))
    for attempt in range(max(1, restarts)):
        rng = random.Random((seed * 1000003 + attempt) & 0xFFFFFFFF)
        out.restarts = attempt + 1
        out.lanes += lanes
        if _walk(net, k, semantics, lanes, rng, budget, stop_check, out):
            return
        if out.stopped:
            return
        lanes = min(lanes * 2, MAX_WIDTH)


def _walk(net: CompiledNet, k: int, semantics: str, lanes: int,
          rng: random.Random, budget: Optional[Budget],
          stop_check: Optional[Callable[[], bool]],
          out: SimOutcome) -> bool:
    mask = (1 << lanes) - 1
    state = net.reset_lanes(mask, lambda: rng.getrandbits(lanes))
    alive = mask
    state_hist: List[List[int]] = [state]
    input_hist: List[List[int]] = []
    for frame in range(k + 1):
        if _should_stop(stop_check, budget):
            out.stopped = True
            return False
        frame_inputs = [rng.getrandbits(lanes) for _ in net.inputs]
        nxt, ok, probes = net.eval_frame(state, frame_inputs, mask)
        out.frames += 1
        hit = probes[_TARGET] & alive
        if hit and (semantics == "within" or frame == k):
            lane = (hit & -hit).bit_length() - 1
            out.trace = _extract(net, state_hist, input_hist, lane, frame)
            out.hit_k = frame
            return True
        if frame == k:
            break
        alive &= ok
        if not alive:
            break               # every lane wedged on a TR constraint
        state = nxt
        state_hist.append(nxt)
        input_hist.append(frame_inputs)
    return False


def _extract(net: CompiledNet, state_hist: List[List[int]],
             input_hist: List[List[int]], lane: int,
             length: int) -> Trace:
    """Peel one lane out of the packed history as a concrete trace."""
    states = [{latch: lane_bit(vec[i], lane)
               for i, latch in enumerate(net.latches)}
              for vec in state_hist[:length + 1]]
    inputs = [{name: lane_bit(vec[i], lane)
               for i, name in enumerate(net.inputs)}
              for vec in input_hist[:length]]
    return Trace(states, inputs)
