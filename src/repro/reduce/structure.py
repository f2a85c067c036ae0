"""Structural views of transition systems for the reduction pipeline.

Every reduction in :mod:`repro.reduce` needs to see the transition
relation *per latch*: a next-state function for each state variable
plus a residue of invariant constraints.  Circuits compile to exactly
that shape (``TR = ⋀ v' <-> f_v  ∧  ⋀ constraints``, see
:meth:`repro.system.circuit.Circuit.trans_expr`), so
:class:`FunctionalView` recovers the decomposition by pattern-matching
the hash-consed ``Expr`` DAG.  Systems whose TR is not in this form
(e.g. after :meth:`~repro.system.model.TransitionSystem.with_self_loops`)
simply have no view — the pipeline then degrades to the identity
reduction rather than guessing.

Constant-latch detection (:func:`constant_latch_values`) runs a
ternary fixpoint with all inputs at X, so a latch reported constant
really is stuck at its reset value on every execution.  It evaluates
the update functions with the dual-rail (Kleene) lowering of their
compiled :class:`~repro.logic.program.Program`: one run per round
re-evaluates every latch at once.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..logic import expr as ex
from ..logic.expr import Expr
from ..logic.program import Program
from ..system.model import TransitionSystem, is_primed, unprimed

__all__ = ["FunctionalView", "conjuncts", "constant_latch_values",
           "support_cone"]


def conjuncts(root: Expr) -> List[Expr]:
    """Top-level conjuncts of an expression (``TRUE`` has none)."""
    if root.op == "and":
        return list(root.args)
    if root.is_true:
        return []
    return [root]


def _match_update(conjunct: Expr) -> Optional[Tuple[str, Expr]]:
    """Recognize a latch-defining conjunct ``v' <-> f``.

    ``mk_iff`` builds equivalences as ``not(xor(a, b))`` and folds
    constants, so three shapes occur: ``var(v')`` (next value stuck
    true), ``not(var(v'))`` (stuck false) and ``not(xor(u, w))`` with
    exactly one side a primed variable.  Returns ``(latch, update)``
    or None when the conjunct is not a definition.
    """
    if conjunct.op == "var" and is_primed(conjunct.name):
        return unprimed(conjunct.name), ex.TRUE
    if conjunct.op != "not":
        return None
    inner = conjunct.args[0]
    if inner.op == "var" and is_primed(inner.name):
        return unprimed(inner.name), ex.FALSE
    if inner.op != "xor":
        return None
    a, b = inner.args
    a_primed = a.op == "var" and is_primed(a.name)
    b_primed = b.op == "var" and is_primed(b.name)
    if a_primed == b_primed:        # neither side, or (impossibly) both
        return None
    target, update = (a, b) if a_primed else (b, a)
    if any(is_primed(name) for name in update.support()):
        return None                 # a relational coupling, not a function
    return unprimed(target.name), update


def _match_resets(init: Expr,
                  state_vars: List[str]) -> Optional[Dict[str, bool]]:
    """Per-latch reset values from a conjunction-of-literals init.

    Latches absent from the result have an unconstrained initial
    value.  Returns None when ``init`` has any other shape (the
    reduction pipeline then stays inert).
    """
    resets: Dict[str, bool] = {}
    for literal in conjuncts(init):
        if literal.op == "var":
            resets[literal.name] = True
        elif literal.op == "not" and literal.args[0].op == "var":
            resets[literal.args[0].name] = False
        else:
            return None
    if set(resets) - set(state_vars):
        return None
    return resets


class FunctionalView:
    """Per-latch decomposition of a transition system.

    Attributes
    ----------
    system:
        The system the view was extracted from.
    updates:
        ``{latch: next-state Expr}`` over current-state variables and
        inputs — one total function per latch.
    resets:
        ``{latch: bool}`` reset values; latches absent here have an
        unconstrained initial value.
    constraints:
        The TR conjuncts that are not latch definitions (invariant
        constraints over current-state variables and inputs).
    """

    def __init__(self, system: TransitionSystem,
                 updates: Dict[str, Expr],
                 resets: Dict[str, bool],
                 constraints: List[Expr]) -> None:
        self.system = system
        self.updates = updates
        self.resets = resets
        self.constraints = constraints

    @classmethod
    def from_system(cls, system: TransitionSystem
                    ) -> Optional["FunctionalView"]:
        """Extract the per-latch view, or None when TR/init do not
        decompose (relational TR, disjunctive init, ...)."""
        updates: Dict[str, Expr] = {}
        constraints: List[Expr] = []
        state = set(system.state_vars)
        for conjunct in conjuncts(system.trans):
            match = _match_update(conjunct)
            if match is not None and match[0] in state \
                    and match[0] not in updates:
                updates[match[0]] = match[1]
            else:
                constraints.append(conjunct)
        if set(updates) != state:
            return None
        for constraint in constraints:
            if any(is_primed(name) for name in constraint.support()):
                return None
        resets = _match_resets(system.init, system.state_vars)
        if resets is None:
            return None
        return cls(system, updates, resets, constraints)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"FunctionalView({self.system.name!r}, "
                f"latches={len(self.updates)}, "
                f"constraints={len(self.constraints)})")


def constant_latch_values(updates: Mapping[str, Expr],
                          resets: Mapping[str, bool]
                          ) -> Dict[str, Optional[bool]]:
    """The ternary constant fixpoint over per-latch update functions.

    Starts every latch at its reset value (X when absent from
    ``resets``) with all inputs at X, and re-evaluates all updates
    three-valued, one dual-rail run per round, until stable.  A latch
    still definite at the fixpoint is stuck at that value on *every*
    execution (X over-approximates all concrete choices); None marks
    a genuinely varying latch.
    Shared by :class:`repro.reduce.transforms.ConstantLatches` and the
    suite's probe selection.
    """
    values: Dict[str, Optional[bool]] = {
        latch: resets.get(latch) for latch in updates}
    # A latch starting at X stays X: only definite ones are evaluated.
    latches = [latch for latch in updates if values[latch] is not None]
    program = Program([updates[latch] for latch in latches])
    changed = True
    while changed:
        changed = False
        nxt = program.ternary(values)
        for latch, value in zip(latches, nxt):
            current = values[latch]
            if current is not None and value is not current:
                values[latch] = None
                changed = True
    return values


def support_cone(updates: Mapping[str, Expr],
                 seeds) -> set:
    """Transitive support closure over latch update functions.

    ``seeds`` is an iterable of latch names; the result is every latch
    whose value can influence a seed through the update functions
    (the cone of influence, before constraint seeding).  Shared by
    :class:`repro.reduce.transforms.ConeOfInfluence` and the suite's
    probe selection.
    """
    cone: set = set()
    frontier = [latch for latch in seeds if latch in updates]
    while frontier:
        latch = frontier.pop()
        if latch in cone:
            continue
        cone.add(latch)
        for dep in updates[latch].support():
            if dep in updates and dep not in cone:
                frontier.append(dep)
    return cone
