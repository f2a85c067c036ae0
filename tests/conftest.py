"""Shared fixtures: the proof-checked leg of the differential tests,
and a serve daemon running in a thread.

Production code builds every CDCL solver through
:func:`repro.sat.kernel.make_solver`: the compiled core when it loads,
else the interpreted kernel.  :func:`proof_solver` routes every
``make_solver`` binding of the loaded ``repro`` modules to a
proof-logging (so always interpreted) kernel and checks every proof it
logged.
"""

import contextlib
import os
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.sat.kernel import KernelSolver, make_solver
from repro.sat.proof import DratProof
from repro.serve import ServeClient, ServeDaemon


@contextlib.contextmanager
def proof_solver():
    """Route every ``make_solver`` call in ``repro.*`` to an
    interpreted kernel logging a :class:`DratProof`.

    A caller's own proof sink is kept (interpolation needs its
    resolution chains).  On exit every DRAT log of the block's solvers
    must pass ``verify()``, and the block must have built at least one
    solver, so a module that stops going through ``make_solver`` cannot
    silently drop out of the proof leg.
    """
    built = []

    def make_logged(proof=None):
        solver = KernelSolver(proof=DratProof() if proof is None else proof)
        built.append(solver)
        return solver

    patched = [module for name, module in list(sys.modules.items())
               if (name == "repro" or name.startswith("repro."))
               and getattr(module, "make_solver", None) is make_solver]
    for module in patched:
        module.make_solver = make_logged
    try:
        yield built
    finally:
        for module in patched:
            module.make_solver = make_solver
    assert built, "the proof leg built no solver"
    for solver in built:
        if isinstance(solver.proof, DratProof):
            assert solver.proof.verify()


@pytest.fixture(scope="session")
def proof_leg():
    """The :func:`proof_solver` context manager (session-scoped, so
    hypothesis tests can use it)."""
    return proof_solver


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
