"""SAT solving: the CDCL engine, DPLL reference, proofs, interpolation.

Every production query runs on one engine, :class:`KernelSolver`,
built by :func:`make_solver`: a compiled C core when a system compiler
is available (``REPRO_SAT_CC=off`` disables it), else the interpreted
array kernel, which also carries proof logging.  The pure-Python
:class:`CdclSolver` is the readable reference the differential tests
pin the kernel against; no production path builds it.
"""

from .dpll import DpllSolver, brute_force_models, brute_force_sat
from .kernel import KernelSolver, make_solver
from .proof import DratProof, ProofError, ResolutionProof
from .solver import CdclSolver, SolverStats
from .types import Budget, BudgetExceeded, SolveResult

__all__ = [
    "CdclSolver",
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
