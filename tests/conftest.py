"""Shared fixtures: the reference-solver leg of the differential tests,
and a serve daemon running in a thread.

Production code builds every CDCL solver through
:func:`repro.sat.kernel.make_solver`, which always returns the kernel.
The differential suites still run one leg on the pure-Python reference
:class:`repro.sat.solver.CdclSolver`; :func:`reference_solver` swaps it
in for every ``make_solver`` binding of the loaded ``repro`` modules.
"""

import contextlib
import os
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.sat.kernel import make_solver
from repro.sat.solver import CdclSolver
from repro.serve import ServeClient, ServeDaemon


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


@pytest.fixture
def serve_daemon(tmp_path):
    """Factory: ``serve_daemon(**kwargs)`` starts a
    :class:`ServeDaemon` on a unix socket in a thread and returns a
    handle (``socket``, ``daemon``, ``thread``); every daemon it started
    is shut down at teardown."""
    handles = []

    def start(**kwargs):
        sock = str(tmp_path / f"repro{len(handles)}.sock")
        daemon = ServeDaemon(socket_path=sock, **kwargs)
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        deadline = time.time() + 10
        while not os.path.exists(sock):
            assert time.time() < deadline, "daemon never bound its socket"
            time.sleep(0.02)
        handles.append(SimpleNamespace(socket=sock, daemon=daemon,
                                       thread=thread))
        return handles[-1]

    yield start
    for handle in handles:
        if handle.thread.is_alive():
            try:
                with ServeClient(socket_path=handle.socket) as client:
                    client.shutdown()
            except Exception:
                pass
        handle.thread.join(timeout=20)
        assert not handle.thread.is_alive(), "daemon failed to shut down"
