"""Model reduction: shrink the *system* before any encoding shrinks
the *formula*.

The paper's decision methods all fight formula growth — jSAT, the QBF
squaring encodings, the incremental frames.  This package attacks the
other factor of the product: the transition relation itself.  A
:class:`Pipeline` of sound structural :class:`Reduction` transforms
(constant-latch propagation, duplicate-latch sweeping, per-property
cone of influence, input pruning) turns a
:class:`~repro.system.model.TransitionSystem` into a
:class:`ReducedSystem` that any backend can solve in place of the
original; SAT witnesses are lifted back to full-width traces before
anything downstream sees them.

Entry points
------------
* :func:`reduce_system` / :func:`reduce_for_target` — one-shot
  reduction for a :class:`~repro.spec.property.Property` or a plain
  reachability target;
* :func:`default_pipeline` — the standard pass order;
* :func:`resolve_reduce` — normalizes the ``reduce="auto"|"off"``
  knob accepted by :class:`~repro.bmc.session.BmcSession`,
  :class:`~repro.spec.checker.PropertyChecker`,
  :func:`~repro.portfolio.race.race` and
  :func:`~repro.harness.runner.run_matrix`;
* :class:`ReducedSystem` — the reduced system plus the variable map
  and the :meth:`~ReducedSystem.lift` that makes witnesses full-width
  again.

Semantics
---------
Reductions are *verdict-preserving* for every loop-free bounded search
(the witness sets at each bound are in bijection through projection /
lifting).  For lasso-witness searches (``G``, ``U``/``R``, nested
temporal operators) they can only *strengthen*: every full-system
lasso projects onto the cone, and a cone lasso extends to a genuine
infinite path of the full system (freed latches simulate forward
forever), so a reduced run may certify a verdict at an **earlier**
bound than the full encoding — freed latches no longer delay loop
closure — but conclusive verdicts never disagree.

>>> from repro.logic import expr as ex
>>> from repro.models import counter
>>> from repro.reduce import reduce_for_target
>>> system, final, depth = counter.make(4, 9)
>>> rs = reduce_for_target(system, ex.var("c1"))
>>> rs.kept_latches                # c1 only needs c0 and itself
['c0', 'c1']
"""

from .reduced import ReducedSystem, identity_reduction
from .structure import FunctionalView
from .transforms import (REDUCE_MODES, ConeOfInfluence, ConstantLatches,
                         DuplicateLatches, InputPruning, Pipeline, Reduction,
                         ReductionState, default_pipeline, reduce_for_target,
                         reduce_system, resolve_reduce)

__all__ = [
    "Reduction", "ReductionState", "Pipeline",
    "ConstantLatches", "DuplicateLatches", "ConeOfInfluence",
    "InputPruning",
    "ReducedSystem", "identity_reduction",
    "FunctionalView",
    "default_pipeline", "reduce_system", "reduce_for_target",
    "resolve_reduce", "REDUCE_MODES",
]
