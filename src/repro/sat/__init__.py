"""SAT solving: the CDCL engine, DPLL reference, proofs, interpolation.

Every query runs on one engine, :class:`KernelSolver`, built by
:func:`make_solver`: a compiled C core when a system compiler is
available (``REPRO_SAT_CC=off`` disables it), else the interpreted
array kernel, which also carries proof logging.  The tests pin the two
builds to each other and check the kernel's answers by certificate: a
DRAT check of every refutation and a model check of every SAT answer.
"""

from .dpll import DpllSolver, brute_force_models, brute_force_sat
from .kernel import KernelSolver, SolverStats, make_solver
from .proof import DratProof, ProofError, ResolutionProof
from .types import Budget, BudgetExceeded, SolveResult

__all__ = [
    "KernelSolver",
    "make_solver",
    "SolverStats",
    "DpllSolver",
    "brute_force_models",
    "brute_force_sat",
    "ResolutionProof",
    "DratProof",
    "ProofError",
    "Budget",
    "BudgetExceeded",
    "SolveResult",
]
