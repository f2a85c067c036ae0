"""Compile transition systems for bit-parallel random simulation.

A :class:`CompiledNet` feeds the per-latch next-state functions of a
:class:`~repro.system.model.TransitionSystem` (recovered through
:class:`~repro.reduce.structure.FunctionalView`), its invariant
constraints and any number of named *probe* predicates to one
:class:`~repro.logic.program.Program`, the library's W-lane op-list
evaluator: lane ``i`` of every register together forms one concrete
trace, so one pass over the op list advances W independent random
simulations at once.

Only systems whose TR decomposes into per-latch functions can be
compiled (circuit-derived systems always do; relational TRs such as
``with_self_loops`` products do not) — :class:`SimCompileError` marks
the rest, and callers degrade to the solver tiers.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..logic.expr import Expr
from ..logic.program import Program
from ..reduce.structure import FunctionalView
from ..system.model import TransitionSystem

__all__ = ["CompiledNet", "SimCompileError"]


class SimCompileError(ValueError):
    """The system cannot be compiled for bit-parallel simulation
    (relational TR, non-literal init, or a probe outside the state
    and input vocabulary)."""


class CompiledNet:
    """Next-state functions, constraints and probes as one program.

    Attributes
    ----------
    latches, inputs:
        Variable orders (original declaration order) — lane state is
        exchanged as lists aligned to these.
    resets:
        ``{latch: bool}``; latches absent power up unconstrained and
        the falsifier fills them with random lanes.
    num_slots:
        Register file size for :meth:`eval_frame` scratch buffers.
    """

    def __init__(self, system: TransitionSystem,
                 probes: Mapping[str, Expr],
                 view: Optional[FunctionalView] = None) -> None:
        if view is None:
            view = FunctionalView.from_system(system)
        if view is None:
            raise SimCompileError(
                f"system {system.name!r} has no functional view "
                f"(relational TR or non-literal init)")
        self.system = system
        self.latches: List[str] = list(system.state_vars)
        self.inputs: List[str] = list(system.input_vars)
        self.resets: Dict[str, bool] = dict(view.resets)

        roots: List[Expr] = [view.updates[v] for v in self.latches]
        roots.extend(view.constraints)
        roots.extend(probes.values())
        self.program = program = Program(roots)

        stray = set(program.variables) - set(self.latches) \
            - set(self.inputs)
        if stray:
            raise SimCompileError(
                f"compiled roots depend on unknown variables: "
                f"{sorted(stray)}")

        outputs = iter(program.outputs)
        self._update_slots = [next(outputs) for _ in self.latches]
        self._constraint_slots = [next(outputs) for _ in view.constraints]
        self._probe_slots: Dict[str, int] = dict(zip(probes, outputs))
        self._var_slots = program.slots_of(self.latches + self.inputs)
        self.num_slots = program.num_slots

    # ------------------------------------------------------------------
    def eval_frame(self, state: List[int], frame_inputs: List[int],
                   mask: int) -> Tuple[List[int], int, Dict[str, int]]:
        """One simulation frame over W lanes.

        ``state`` / ``frame_inputs`` are lane vectors aligned to
        :attr:`latches` / :attr:`inputs`; ``mask`` is ``(1 << W) - 1``.
        Returns ``(next_state, constraint_ok, probe_values)`` where
        ``constraint_ok`` has a 1-bit in every lane whose chosen input
        satisfies all TR invariant constraints this frame (the probe
        values describe the *current* state and remain meaningful for
        every lane regardless).
        """
        slots = self.program.run(self._var_slots, [*state, *frame_inputs],
                                 mask)
        nxt = [slots[s] for s in self._update_slots]
        ok = mask
        for s in self._constraint_slots:
            ok &= slots[s]
        probes = {name: slots[s] for name, s in self._probe_slots.items()}
        return nxt, ok, probes

    # ------------------------------------------------------------------
    def reset_lanes(self, mask: int,
                    fill_unconstrained) -> List[int]:
        """Initial lane state: reset-constrained latches broadcast their
        value across all lanes; unconstrained ones get lanes from
        ``fill_unconstrained()`` (one call per latch)."""
        state: List[int] = []
        for latch in self.latches:
            reset = self.resets.get(latch)
            if reset is None:
                state.append(fill_unconstrained() & mask)
            else:
                state.append(mask if reset else 0)
        return state

    def num_ops(self) -> int:
        """Program length — the per-frame work in gate evaluations."""
        return len(self.program.ops)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"CompiledNet({self.system.name!r}, "
                f"ops={self.num_ops()}, latches={len(self.latches)}, "
                f"probes={len(self._probe_slots)})")


def lane_bit(lanes: int, lane: int) -> bool:
    """Extract one lane's Boolean from a packed lane vector."""
    return bool((lanes >> lane) & 1)
