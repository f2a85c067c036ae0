"""Shared fixtures: the reference-solver leg of the differential tests.

Production code builds every CDCL solver through
:func:`repro.sat.kernel.make_solver`, which always returns the kernel.
The differential suites still run one leg on the pure-Python reference
:class:`repro.sat.solver.CdclSolver`; :func:`reference_solver` swaps it
in for every ``make_solver`` binding of the loaded ``repro`` modules.
"""

import contextlib
import sys

import pytest

from repro.sat.kernel import make_solver
from repro.sat.solver import CdclSolver


@contextlib.contextmanager
def reference_solver():
    """Route every ``make_solver`` call in ``repro.*`` to CdclSolver.

    Asserts on exit that the block built at least one CdclSolver, so a
    module that stops going through ``make_solver`` cannot silently
    drop out of the reference leg.
    """
    built = []

    def make_reference(proof=None):
        solver = CdclSolver(proof=proof)
        built.append(solver)
        return solver

    patched = [module for name, module in list(sys.modules.items())
               if (name == "repro" or name.startswith("repro."))
               and getattr(module, "make_solver", None) is make_solver]
    for module in patched:
        module.make_solver = make_reference
    try:
        yield built
    finally:
        for module in patched:
            module.make_solver = make_solver
    assert built, "the reference leg built no CdclSolver"


@pytest.fixture(scope="session")
def reference_leg():
    """The :func:`reference_solver` context manager (session-scoped, so
    hypothesis tests can use it)."""
    return reference_solver
