"""WorkerPool lifecycle under cancellation, signals, and parent death.

The pool's contract: cooperative cancellation frees a worker without
killing it, and *no code path leaks orphan solver processes* — not
Ctrl-C (KeyboardInterrupt), not SIGTERM, not even a SIGKILL'd parent
(workers notice the re-parenting through their stop check and exit on
their own).  The same contract holds for the lanes of a portfolio race,
which run on a warm pool.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.portfolio.pool import Task, WorkerPool

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _spin_execute(payload):
    """Busy-wait until cancelled (or a 60 s safety valve)."""
    from repro.sat.types import stop_requested
    start = time.monotonic()
    while not stop_requested() and time.monotonic() - start < 60:
        time.sleep(0.005)
    return {"status": "UNKNOWN", "k": payload.get("k", -1),
            "method": "spin", "seconds": time.monotonic() - start,
            "stats": {}, "trace": None, "error": None}


def _kernel_execute(payload):
    """A real kernel-engine solve that runs until the pool cancels it.

    Unlike :func:`_spin_execute` this exercises the production path:
    the kernel solver polls the worker's installed stop check from
    inside its search loop, so cancellation must land mid-solve.
    """
    from repro.sat.kernel import make_solver
    from repro.sat.types import SolveResult
    holes = payload.get("holes", 11)

    def var(i, j):
        return i * holes + j + 1

    solver = make_solver()
    solver.ensure_vars((holes + 1) * holes)
    for i in range(holes + 1):
        solver.add_clause([var(i, j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(holes + 1):
            for i2 in range(i1 + 1, holes + 1):
                solver.add_clause([-var(i1, j), -var(i2, j)])
    start = time.monotonic()
    status = solver.solve()
    return {"status": status.name, "k": payload.get("k", -1),
            "method": "kernel-pigeonhole",
            "seconds": time.monotonic() - start,
            "stats": solver.stats.as_dict(), "trace": None,
            "error": None,
            "interrupted": status is SolveResult.UNKNOWN}


def _alive(pid: int) -> bool:
    """True while ``pid`` is a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(")")[-1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError, OSError):
        return False


def _wait_dead(pids, timeout: float = 20.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(_alive(p) for p in pids):
            return True
        time.sleep(0.1)
    return False


# ----------------------------------------------------------------------
# Cooperative cancellation (in-process)
# ----------------------------------------------------------------------
class TestCooperativeCancel:
    def test_cancel_running_keeps_worker_warm(self):
        with WorkerPool(jobs=1, execute=_spin_execute) as pool:
            pool.submit(Task(1, {"k": 1}))
            assert pool.cancel(1) == "running"
            while 1 not in pool._results:
                pool.collect(timeout=5.0)
            outcome = pool.take_results()[1]
            assert outcome["cancelled"] is True
            first_pid = outcome["worker_pid"]
            # The same warm process serves the next task: cancelled,
            # not killed.
            pool.submit(Task(2, {"k": 2}))
            assert pool.cancel(2) == "running"
            while 2 not in pool._results:
                pool.collect(timeout=5.0)
            outcome2 = pool.take_results()[2]
            assert outcome2["worker_pid"] == first_pid
            assert pool.respawns == 0
            assert pool.cancelled == 2

    def test_cancel_kernel_solve_keeps_worker_warm(self):
        """Warm-cancel through the kernel engine's own stop-check
        polling: a hard pigeonhole solve is aborted mid-search, the
        worker survives, and the same process then completes an easy
        instance to completion."""
        with WorkerPool(jobs=1, execute=_kernel_execute) as pool:
            pool.submit(Task(1, {"holes": 11}))
            time.sleep(0.3)          # let the solve get going
            assert pool.cancel(1) == "running"
            while 1 not in pool._results:
                pool.collect(timeout=10.0)
            outcome = pool.take_results()[1]
            assert outcome["cancelled"] is True
            assert outcome["interrupted"] is True
            assert outcome["status"] == "UNKNOWN"
            first_pid = outcome["worker_pid"]
            # Same warm worker finishes a small instance normally.
            pool.submit(Task(2, {"holes": 4}))
            while 2 not in pool._results:
                pool.collect(timeout=10.0)
            outcome2 = pool.take_results()[2]
            assert outcome2["worker_pid"] == first_pid
            assert not outcome2.get("cancelled")
            assert outcome2["status"] == "UNSAT"
            assert pool.respawns == 0

    def test_cancel_queued_synthesizes_outcome(self):
        with WorkerPool(jobs=1, execute=_spin_execute) as pool:
            pool.submit(Task(1, {"k": 1}))      # occupies the worker
            pool.submit(Task(2, {"k": 2}))      # stays queued
            assert pool.cancel(2) == "queued"
            results = pool.take_results()
            assert results[2]["cancelled"] is True
            assert results[2]["status"] == "UNKNOWN"
            assert pool.cancel(1) == "running"

    def test_cancel_unknown_task(self):
        with WorkerPool(jobs=1, execute=_spin_execute) as pool:
            assert pool.cancel(99) is None

    def test_shutdown_reaps_busy_workers(self):
        pool = WorkerPool(jobs=2, execute=_spin_execute)
        pids = [w.process.pid for w in pool._workers]
        for i in range(4):
            pool.submit(Task(i, {"k": i}))
        time.sleep(0.2)
        pool.shutdown(grace=2.0)
        assert _wait_dead(pids, timeout=10.0)
        assert pool._workers == []


# ----------------------------------------------------------------------
# Signals (subprocess scripts: the signal must hit a real process
# group parent, not the pytest process)
# ----------------------------------------------------------------------
_SCRIPT = textwrap.dedent("""\
    import signal, sys, time
    sys.path.insert(0, {src!r})
    from repro.portfolio.pool import Task, WorkerPool

    def spin(payload):
        from repro.sat.types import stop_requested
        start = time.monotonic()
        while not stop_requested() and time.monotonic() - start < 60:
            time.sleep(0.005)
        return {{"status": "UNKNOWN", "k": -1, "method": "spin",
                 "seconds": 0.0, "stats": {{}}, "trace": None,
                 "error": None}}

    {sigterm_handler}
    pool = WorkerPool(jobs=2, execute=spin)
    print("PIDS", " ".join(str(w.process.pid)
                           for w in pool._workers), flush=True)
    try:
        pool.run([Task(i, {{}}) for i in range(4)])
    except KeyboardInterrupt:
        print("INTERRUPTED", flush=True)
        sys.exit(42)
    sys.exit(0)
""")

_SIGTERM_HANDLER = textwrap.dedent("""\
    def _term(signum, frame):
        raise KeyboardInterrupt
    signal.signal(signal.SIGTERM, _term)
""")


# A race script: one jsat lane with no budget refuting a state that a
# nondeterministic mixer cannot reach within K steps, which takes it
# far longer than any wait below (over 30 s at K=10 on a 2-core VM).
# The lanes start inside race(), so the script prints no PIDs and the
# test finds them as its children.
_RACE_SCRIPT = textwrap.dedent("""\
    import signal, sys
    sys.path.insert(0, {src!r})
    from repro.models import mixer
    from repro.models._common import value_equals
    from repro.portfolio import race

    W, ROUNDS, INPUTS, K = 16, 3, 2, 11

    def step(value, inp):
        bits = [bool((value >> i) & 1) for i in range(W)]
        for layer in range(ROUNDS):
            bits = mixer._mix_layer_concrete(bits, layer)
        return sum(1 << i for i, b in enumerate(bits)
                   if b != (i < INPUTS and bool((inp >> i) & 1)))

    front = seen = {{1}}
    for _ in range(K):
        front = {{step(v, i) for v in front
                  for i in range(1 << INPUTS)}} - seen
        seen = seen | front
    target = next(v for v in range(1 << W) if v not in seen)
    system = mixer.make_circuit(W, ROUNDS, INPUTS).to_transition_system()
    final = value_equals([f"x{{i}}" for i in range(W)], target)

    {sigterm_handler}
    print("PIDS", flush=True)
    try:
        race(system, final, K, methods=("jsat",), sim_tier=False)
    except KeyboardInterrupt:
        print("INTERRUPTED", flush=True)
        sys.exit(42)
    sys.exit(0)
""")


def _children(pid: int, timeout: float = 20.0) -> list:
    """PIDs of ``pid``'s child processes, once it has any."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().split(")")[-1].split()
            except OSError:
                continue
            if int(fields[1]) == pid:
                found.append(int(entry))
        if found:
            return found
        time.sleep(0.05)
    raise AssertionError(f"process {pid} started no children")


def _launch(sigterm_handler: str = "", script: str = _SCRIPT) -> "tuple":
    script = script.format(src=os.path.abspath(SRC),
                           sigterm_handler=sigterm_handler)
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    assert line.startswith("PIDS"), f"unexpected: {line!r}"
    pids = [int(p) for p in line.split()[1:]] or _children(proc.pid)
    time.sleep(0.3)             # let the workers start spinning
    return proc, pids


class TestSignals:
    """Signals hitting a parent that runs a batch on a WorkerPool."""

    SCRIPT = _SCRIPT

    def _launch(self, sigterm_handler: str = "") -> "tuple":
        return _launch(sigterm_handler, self.SCRIPT)

    def test_keyboard_interrupt_reaps_children(self):
        proc, pids = self._launch()
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 42
        assert "INTERRUPTED" in out
        assert _wait_dead(pids, timeout=5.0), \
            f"orphan workers survived Ctrl-C: {pids}"

    def test_sigterm_reaps_children(self):
        proc, pids = self._launch(sigterm_handler=_SIGTERM_HANDLER)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 42
        assert _wait_dead(pids, timeout=5.0), \
            f"orphan workers survived SIGTERM: {pids}"

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="relies on /proc and POSIX semantics")
    def test_sigkilled_parent_leaves_no_orphans(self):
        # SIGKILL gives the parent no chance to clean up; the workers
        # must notice the re-parenting via their stop check (busy) or
        # the dead pipe (idle) and exit on their own.
        proc, pids = self._launch()
        proc.kill()
        proc.wait(timeout=10)
        assert _wait_dead(pids, timeout=20.0), \
            f"orphan workers survived parent SIGKILL: {pids}"


@pytest.mark.skipif(sys.platform != "linux",
                    reason="finds the lanes through /proc")
class TestRaceSignals(TestSignals):
    """The same signals hitting a parent in the middle of a race."""

    SCRIPT = _RACE_SCRIPT
