"""A process pool specialised for racing and batching BMC queries.

``multiprocessing.Pool`` gives no handle on *which* worker runs what,
cannot hard-kill a task that overshot its wall budget, and funnels
every task through one queue.  :class:`WorkerPool` instead keeps one
pipe per worker, so the parent always knows which worker started which
task and when — that makes hard wall-clock enforcement (terminate and
respawn the worker, record UNKNOWN) and per-worker attribution exact.

Workers execute :func:`repro.portfolio.ipc.execute_cell`; resource
budgets (conflicts / literals / solver-side wall clock) are enforced
*inside* the worker by the existing :class:`~repro.sat.types.Budget`
machinery, while the pool's ``wall_timeout`` is the outer backstop for
hung or runaway cells.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..sat.types import install_stop_check
from .ipc import execute_cell, set_progress_sink

__all__ = ["Task", "WorkerPool", "default_jobs", "pool_context"]

_STOP = None          # sentinel telling a worker loop to exit
_PROGRESS = "progress"  # tag of a worker->parent streaming message


def default_jobs() -> int:
    """Default worker count: all cores, capped to keep laptops usable."""
    return max(1, min(8, os.cpu_count() or 1))


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used by the portfolio subsystem.

    Fork is preferred: workers inherit the hash-consing table and the
    built model suite, so task dispatch is cheap.  Everything sent over
    pipes is picklable anyway, so spawn-only platforms still work.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


class Task:
    """One unit of pool work: an opaque payload plus scheduling limits."""

    __slots__ = ("task_id", "payload", "wall_timeout")

    def __init__(self, task_id: int, payload: Dict[str, Any],
                 wall_timeout: Optional[float] = None) -> None:
        self.task_id = task_id
        self.payload = payload
        self.wall_timeout = wall_timeout

    def __repr__(self) -> str:  # pragma: no cover
        return f"Task({self.task_id}, timeout={self.wall_timeout})"


def _worker_main(conn, worker_name: str,
                 execute: Callable[[Dict[str, Any]], Dict[str, Any]],
                 stop_event) -> None:
    """Worker loop: receive (task_id, payload), execute, reply.

    ``stop_event`` is this worker's cooperative-cancellation flag: the
    parent sets it to abandon the *current* task mid-solve (the solver
    aborts at its next budget checkpoint and the worker stays alive for
    the next task).  The installed stop check also watches the parent
    pid, so a worker orphaned by a hard parent death (SIGKILL — no
    chance to run shutdown) exits instead of spinning forever.

    SIGINT is ignored: a terminal Ctrl-C reaches the whole process
    group, and shutdown must stay coordinated by the parent (which
    catches the KeyboardInterrupt and reaps every child).
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    parent_pid = os.getppid()
    install_stop_check(
        lambda: stop_event.is_set() or os.getppid() != parent_pid)
    while True:
        try:
            # Never block in recv() without watching the parent: with
            # the fork context each worker inherits its *own* parent
            # end of the pipe (it exists when Process.start() forks),
            # so parent death alone never EOFs this connection — an
            # orphaned idle worker would sleep in recv() forever.
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    conn.close()
                    return
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
            break
        if msg is _STOP:
            break
        task_id, payload = msg

        def _send_progress(data: Dict[str, Any], _tid=task_id) -> None:
            try:
                conn.send((_PROGRESS, _tid, data))
            except (BrokenPipeError, EOFError, OSError):
                pass
        set_progress_sink(_send_progress)
        try:
            outcome = execute(payload)
        finally:
            set_progress_sink(None)
        outcome["worker"] = worker_name
        outcome["worker_pid"] = os.getpid()
        if stop_event.is_set():
            outcome["cancelled"] = True
        try:
            conn.send((task_id, outcome))
        except (BrokenPipeError, EOFError):  # pragma: no cover
            break
    conn.close()


class _WorkerHandle:
    __slots__ = ("process", "conn", "name", "task", "started_at",
                 "stop_event")

    def __init__(self, process, conn, name: str, stop_event) -> None:
        self.process = process
        self.conn = conn
        self.name = name
        self.task: Optional[Task] = None
        self.started_at = 0.0
        self.stop_event = stop_event


class WorkerPool:
    """Fixed-size pool of single-task worker processes.

    Usage::

        with WorkerPool(jobs=4) as pool:
            outcomes = pool.run([Task(0, payload0), Task(1, payload1)])

    ``run`` returns ``{task_id: outcome}`` where each outcome is the
    plain dict produced by the worker, or a synthesized UNKNOWN outcome
    with ``timed_out=True`` when the pool had to kill the worker.
    """

    def __init__(self, jobs: Optional[int] = None,
                 execute: Callable[[Dict[str, Any]], Dict[str, Any]]
                 = execute_cell,
                 on_progress: Optional[Callable[[int, Dict[str, Any]],
                                                None]] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else default_jobs()
        self._execute = execute
        self._on_progress = on_progress
        self._ctx = pool_context()
        self._workers: List[_WorkerHandle] = []
        self._pending: List[Task] = []          # dispatched LIFO from end
        self._results: Dict[int, Dict[str, Any]] = {}
        self._respawns = 0
        self._cancelled = 0
        self._closed = False
        self._owner_pid = os.getpid()
        # Self-pipe: interrupt() (any thread) wakes a parent blocked in
        # collect()'s connection.wait, so new submissions and cancels
        # take effect immediately instead of after the poll timeout.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        for i in range(self.jobs):
            self._workers.append(self._spawn(f"w{i}"))

    # ------------------------------------------------------------------
    def _spawn(self, name: str) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        stop_event = self._ctx.Event()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, name, self._execute, stop_event),
            daemon=True, name=f"repro-portfolio-{name}")
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn, name, stop_event)

    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Queue a task.  Dispatch order is the submission order, so the
        scheduler controls priority by submitting hardest-first."""
        if self._closed:
            raise RuntimeError("pool is shut down")
        self._pending.insert(0, task)
        self._dispatch()

    def _dispatch(self) -> None:
        for worker in self._workers:
            if not self._pending:
                return
            if worker.task is None:
                task = self._pending.pop()
                worker.task = task
                worker.started_at = time.perf_counter()
                # Reset here, not in the worker: a cancel aimed at the
                # task while it is still in flight on the pipe must not
                # be wiped by a worker-side clear racing with it.
                worker.stop_event.clear()
                worker.conn.send((task.task_id, task.payload))

    # ------------------------------------------------------------------
    @property
    def busy(self) -> int:
        return sum(1 for w in self._workers if w.task is not None)

    @property
    def outstanding(self) -> int:
        return self.busy + len(self._pending)

    @property
    def respawns(self) -> int:
        """Number of workers killed for wall-timeout overruns."""
        return self._respawns

    @property
    def cancelled(self) -> int:
        """Number of tasks cancelled via :meth:`cancel`."""
        return self._cancelled

    # ------------------------------------------------------------------
    def interrupt(self) -> None:
        """Wake a :meth:`collect` blocked in its poll (thread-safe).

        The daemon's event loop calls this after enqueueing work for
        the thread that owns the pool, so dispatch latency is bounded
        by a pipe write instead of the poll timeout.
        """
        try:
            os.write(self._wake_w, b"x")
        except OSError:  # pragma: no cover - full pipe is still a wake
            pass

    def _drain_wake(self) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except (BlockingIOError, OSError):
            pass

    # ------------------------------------------------------------------
    def cancel(self, task_id: int) -> Optional[str]:
        """Cooperatively cancel a task; returns where it was found.

        * ``"queued"`` — removed from the pending queue; a synthesized
          cancelled outcome is recorded immediately.
        * ``"running"`` — the owning worker's stop event is set; the
          solver aborts at its next budget checkpoint and the worker
          reports a ``cancelled`` outcome *without* being killed, so
          its warm process is immediately reusable.
        * ``None`` — no such task is outstanding (already finished).
        """
        for i, task in enumerate(self._pending):
            if task.task_id == task_id:
                del self._pending[i]
                self._cancelled += 1
                self._results[task_id] = {
                    "status": "UNKNOWN",
                    "k": task.payload.get("k", -1),
                    "method": task.payload.get("method", "?"),
                    "seconds": 0.0, "wall_seconds": 0.0,
                    "cpu_seconds": 0.0, "stats": {}, "trace": None,
                    "error": None, "cancelled": True,
                }
                return "queued"
        for worker in self._workers:
            if worker.task is not None and \
                    worker.task.task_id == task_id:
                self._cancelled += 1
                worker.stop_event.set()
                return "running"
        return None

    # ------------------------------------------------------------------
    def _deadline_slack(self, now: float) -> Optional[float]:
        """Seconds until the earliest running-task deadline (None = no
        deadline armed)."""
        slack = None
        for worker in self._workers:
            if worker.task is None or worker.task.wall_timeout is None:
                continue
            remaining = (worker.started_at + worker.task.wall_timeout) - now
            if slack is None or remaining < slack:
                slack = remaining
        return slack

    def _reap_timeouts(self, now: float) -> int:
        reaped = 0
        for i, worker in enumerate(self._workers):
            task = worker.task
            if task is None or task.wall_timeout is None:
                continue
            if now - worker.started_at < task.wall_timeout:
                continue
            # Hard kill: the cell gets an UNKNOWN outcome and the slot
            # is refilled with a fresh process.
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.conn.close()
            self._results[task.task_id] = {
                "status": "UNKNOWN",
                "k": task.payload.get("k", -1),
                "method": task.payload.get("method", "?"),
                "seconds": now - worker.started_at,
                "wall_seconds": now - worker.started_at,
                "cpu_seconds": 0.0,
                "stats": {},
                "trace": None,
                "error": f"wall timeout after {task.wall_timeout:.3f} s",
                "timed_out": True,
                "worker": worker.name,
            }
            self._respawns += 1
            reaped += 1
            self._workers[i] = self._spawn(worker.name)
        return reaped

    def collect(self, timeout: Optional[float] = None) -> int:
        """Receive finished outcomes; returns how many arrived.

        Blocks up to ``timeout`` seconds (None = until at least one
        running task finishes or times out).  Streaming progress
        messages from workers are delivered to the ``on_progress``
        callback as they arrive; they do not count as finished
        outcomes.  An :meth:`interrupt` from another thread makes a
        blocked call return early (possibly with 0).
        """
        got = 0
        start = time.perf_counter()
        while True:
            now = time.perf_counter()
            got += self._reap_timeouts(now)
            self._dispatch()
            busy = [w for w in self._workers if w.task is not None]
            if got or not busy:
                self._drain_wake()
                return got
            slack = self._deadline_slack(now)
            wait_for = slack
            if timeout is not None:
                budgeted = timeout - (now - start)
                if budgeted <= 0:
                    return got
                wait_for = budgeted if wait_for is None \
                    else min(wait_for, budgeted)
            ready = multiprocessing.connection.wait(
                [w.conn for w in busy] + [self._wake_r],
                timeout=None if wait_for is None else max(0.0, wait_for))
            woken = self._wake_r in ready
            if woken:
                self._drain_wake()
            for conn in ready:
                if conn is self._wake_r:
                    continue
                worker = next(w for w in busy if w.conn is conn)
                try:
                    msg = conn.recv()
                except (EOFError, OSError):  # worker died mid-task
                    task = worker.task
                    assert task is not None
                    self._results[task.task_id] = {
                        "status": "UNKNOWN",
                        "k": task.payload.get("k", -1),
                        "method": task.payload.get("method", "?"),
                        "seconds": 0.0, "wall_seconds": 0.0,
                        "cpu_seconds": 0.0, "stats": {}, "trace": None,
                        "error": "worker died", "worker": worker.name,
                    }
                    idx = self._workers.index(worker)
                    worker.conn.close()
                    worker.process.join(timeout=5.0)
                    self._workers[idx] = self._spawn(worker.name)
                    worker.task = None
                    got += 1
                    continue
                if isinstance(msg, tuple) and len(msg) == 3 \
                        and msg[0] == _PROGRESS:
                    _, task_id, data = msg
                    if self._on_progress is not None:
                        self._on_progress(task_id, data)
                    continue
                task_id, outcome = msg
                self._results[task_id] = outcome
                worker.task = None
                got += 1
            if got:
                self._dispatch()
                return got
            if woken:
                return got

    # ------------------------------------------------------------------
    def take_results(self) -> Dict[int, Dict[str, Any]]:
        """Hand over (and clear) every outcome collected so far."""
        out, self._results = self._results, {}
        return out

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Task]) -> Dict[int, Dict[str, Any]]:
        """Run a batch to completion; returns ``{task_id: outcome}``.

        A KeyboardInterrupt mid-batch (the workers themselves ignore
        SIGINT) shuts the pool down — every child reaped, every pipe
        drained — before the interrupt propagates, so a Ctrl-C'd run
        never leaks orphan solver processes.
        """
        try:
            for task in tasks:
                self.submit(task)
            while self.outstanding:
                self.collect()
        except KeyboardInterrupt:
            self.shutdown(grace=0.5)
            raise
        return self.take_results()

    # ------------------------------------------------------------------
    def shutdown(self, grace: float = 2.0) -> None:
        """Stop all workers: cancel, drain, reap.

        Busy workers get their stop event set and up to ``grace``
        seconds to abort cooperatively (their in-flight outcomes are
        drained into :meth:`take_results`, and their pipes emptied, so
        nothing is left buffered in a kernel pipe); whatever is still
        running after the grace window is terminated.  Every child is
        joined — no orphans survive this call — and the wake pipe is
        closed.  In a process forked from the owner the call only marks
        this copy closed: the workers belong to the owner.
        """
        if self._closed:
            return
        self._closed = True
        if os.getpid() != self._owner_pid:
            self._workers = []
            return
        self._pending.clear()
        for worker in self._workers:
            try:
                if worker.task is None:
                    worker.conn.send(_STOP)
                else:
                    worker.stop_event.set()
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        deadline = time.monotonic() + max(0.0, grace)
        while True:
            busy = [w for w in self._workers if w.task is not None]
            remaining = deadline - time.monotonic()
            if not busy or remaining <= 0:
                break
            ready = multiprocessing.connection.wait(
                [w.conn for w in busy], timeout=remaining)
            for conn in ready:
                worker = next(w for w in busy if w.conn is conn)
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    worker.task = None
                    continue
                if isinstance(msg, tuple) and len(msg) == 3 \
                        and msg[0] == _PROGRESS:
                    continue            # drained and dropped
                task_id, outcome = msg
                self._results[task_id] = outcome
                worker.task = None
                try:
                    worker.conn.send(_STOP)
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
        for worker in self._workers:
            if worker.task is not None and worker.process.is_alive():
                worker.process.terminate()
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover
                worker.process.kill()
                worker.process.join(timeout=5.0)
            worker.conn.close()
        self._workers = []
        try:
            os.close(self._wake_r)
            os.close(self._wake_w)
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover
        try:
            self.shutdown(grace=0.0)
        except Exception:
            pass
