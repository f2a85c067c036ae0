"""The ``repro serve`` daemon: BMC as a long-lived service.

One process owns a warm :class:`~repro.portfolio.pool.WorkerPool`
(solver processes that survive across requests, fork-inheriting the
hash-consed expression table and built model suite) plus a result
cache, and serves verification queries over a unix socket or TCP port
speaking the NDJSON protocol of :mod:`repro.serve.protocol`.

Request lifecycle::

    submit ──▶ dedup (cache answer / coalesce onto in-flight job)
           ──▶ FairQueue (priority + per-client fairness + deadline)
           ──▶ PoolBridge ──▶ warm worker ──▶ done event (+ bound
               events streamed to subscribers while a sweep runs)

Design notes
------------
* **Reductions happen daemon-side.**  The daemon reduces each query
  (cone of influence etc.) before fingerprinting, so two submissions
  whose *reduced* queries coincide share one execution and one cache
  entry even when their full-width originals differ.  Each attached
  waiter lifts traces through its own reduction and checks them
  against its own target, so every client sees witnesses over the
  system it actually asked about — or an error, never an unchecked
  SAT.
* **Cancellation is cooperative and cheap.**  Cancelling a running
  job sets the worker's stop event; the solver aborts at its next
  budget checkpoint and the *same warm process* picks up the next job
  — no kill, no respawn, no cold solver.
* **A waiter is not a job.**  Cancelling or disconnecting detaches
  one client's waiters; the underlying execution is only cancelled
  when nobody is left waiting on it.
"""

from __future__ import annotations

import asyncio
import difflib
import logging
import signal
import time
from typing import Any, Dict, Optional

from ..bmc.backend import ALL_METHODS, BmcResult, BoundResult, SweepResult
from ..models import FAMILIES, build_suite
from ..portfolio.cache import (MemoryCache, ResultCache, cacheable,
                               cell_key)
from ..portfolio.ipc import (decode_trace, encode_outcome,
                             encode_sweep_outcome, encode_trace,
                             make_cell_payload, strip_run_keys)
from ..reduce import identity_reduction, reduce_for_target
from ..sat.types import Budget, SolveResult
from ..telemetry.metrics import current_metrics
from ..telemetry.trace import current_tracer
from .bridge import PoolBridge
from .jobs import FairQueue, Job, JobState, Waiter
from .protocol import (MAX_LINE_BYTES, PROTOCOL_VERSION, ProtocolError,
                       decode_line, encode_line, error_response,
                       ok_response, validate_request)

__all__ = ["ServeDaemon"]

logger = logging.getLogger(__name__)

_HOUSEKEEPING_TICK = 0.05       # deadline-eviction granularity


class _ClientState:
    """Per-connection bookkeeping."""

    __slots__ = ("client_id", "writer", "outbox", "active", "closed")

    def __init__(self, client_id: int, writer) -> None:
        self.client_id = client_id
        self.writer = writer
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.active = 0             # waiters attached to live jobs
        self.closed = False


class ServeDaemon:
    """Long-lived verification service over a warm worker pool."""

    def __init__(self, socket_path: Optional[str] = None,
                 host: str = "127.0.0.1", port: Optional[int] = None,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 wall_timeout: Optional[float] = None,
                 max_queued: int = 16,
                 sim_tier: bool = True) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("pick exactly one of socket_path / port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.jobs = jobs
        self.wall_timeout = wall_timeout
        self.max_queued = max_queued
        self.sim_tier = sim_tier
        self.cache = (ResultCache(cache_dir) if cache_dir
                      else MemoryCache())

        self._server: Optional[asyncio.AbstractServer] = None
        self._bridge: Optional[PoolBridge] = None
        self._clients: Dict[int, _ClientState] = {}
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, Job] = {}       # in-flight dedup index
        self._queue = FairQueue()
        self._running: Dict[int, Job] = {}      # task_id -> job
        self._next_client = 0
        self._next_job = 0
        self._started_at = 0.0
        self._housekeeper: Optional[asyncio.Task] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self.stats: Dict[str, int] = {
            "requests": 0, "submitted": 0, "completed": 0,
            "cancelled": 0, "evicted": 0, "failed": 0,
            "coalesced": 0, "cache_answers": 0, "sim_answers": 0,
            "errors": 0,
        }
        # Memoized per-family instance and per-(family, reduce)
        # reduction: computed once, reused by every request.
        self._instances: Dict[str, Any] = {}
        self._reductions: Dict[tuple, Any] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the endpoint and start the pool bridge."""
        loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._bridge = PoolBridge(loop, jobs=self.jobs,
                                  wall_timeout=self.wall_timeout,
                                  on_result=self._on_result,
                                  on_progress=self._on_progress)
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path,
                limit=MAX_LINE_BYTES + 2)
            self.endpoint = self.socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port,
                limit=MAX_LINE_BYTES + 2)
            self.port = self._server.sockets[0].getsockname()[1]
            self.endpoint = f"{self.host}:{self.port}"
        self._started_at = time.monotonic()
        self._housekeeper = asyncio.ensure_future(self._housekeeping())
        logger.info("serving on %s with %d workers", self.endpoint,
                    self._bridge.jobs)

    async def serve_forever(self) -> None:
        """Start (if needed) and run until :meth:`shutdown` or signal."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                break       # non-main thread / platform without signals
        try:
            await self._shutdown_event.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop()

    def request_shutdown(self) -> None:
        """Signal-safe: ask ``serve_forever`` to unwind and stop."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def stop(self) -> None:
        """Tear everything down: server, clients, pool (no orphans)."""
        if self._housekeeper is not None:
            self._housekeeper.cancel()
            self._housekeeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for client in list(self._clients.values()):
            self._drop_client(client)
        if self._bridge is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._bridge.stop)
            self._bridge = None

    def run(self) -> None:
        """Blocking entry point used by the CLI."""
        asyncio.run(self.serve_forever())

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._next_client += 1
        client = _ClientState(self._next_client, writer)
        self._clients[client.client_id] = client
        current_metrics().gauge("serve.clients", len(self._clients))
        sender = asyncio.ensure_future(self._writer_loop(client))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    self._send(client, error_response(
                        "request line too long"))
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(client, line)
        finally:
            self._drop_client(client)
            sender.cancel()
            try:
                writer.close()
            except Exception:       # pragma: no cover
                pass

    async def _writer_loop(self, client: _ClientState) -> None:
        writer = client.writer
        try:
            while True:
                obj = await client.outbox.get()
                if obj is None:
                    break
                writer.write(encode_line(obj))
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass

    def _send(self, client: _ClientState, obj: Dict[str, Any]) -> None:
        if not client.closed:
            client.outbox.put_nowait(obj)

    async def _handle_line(self, client: _ClientState,
                           line: bytes) -> None:
        self.stats["requests"] += 1
        current_metrics().inc("serve.requests")
        request_id = None
        try:
            obj = decode_line(line)
            if isinstance(obj, dict):
                request_id = obj.get("id")
            op, fields = validate_request(obj)
        except ProtocolError as err:
            self.stats["errors"] += 1
            self._send(client, error_response(str(err), request_id))
            return
        with current_tracer().span(f"serve.{op}",
                                   client=client.client_id):
            handler = getattr(self, f"_op_{op}")
            try:
                await handler(client, request_id, fields)
            except ProtocolError as err:
                self.stats["errors"] += 1
                self._send(client, error_response(str(err), request_id))

    def _drop_client(self, client: _ClientState) -> None:
        """Detach a disconnected client from every job it waited on.

        Jobs left with no waiters are cancelled outright — a client
        that walks away mid-sweep frees its worker instead of wedging
        it — and a subscriber's disappearance never blocks the event
        stream of the waiters that remain.
        """
        if client.closed:
            return
        client.closed = True
        self._clients.pop(client.client_id, None)
        client.outbox.put_nowait(None)
        for job in list(self._jobs.values()):
            if job.state.terminal:
                continue
            before = len(job.waiters)
            job.waiters = [w for w in job.waiters
                           if w.client_id != client.client_id]
            if len(job.waiters) < before and not job.waiters:
                self._cancel_job(job)
        current_metrics().gauge("serve.clients", len(self._clients))

    # ------------------------------------------------------------------
    # Query preparation (memoized)
    # ------------------------------------------------------------------
    def _instance(self, family: str):
        if family not in self._instances:
            if family not in FAMILIES:
                close = difflib.get_close_matches(family, FAMILIES, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                raise ProtocolError(f"unknown family {family!r}{hint}")
            self._instances[family] = next(
                i for i in build_suite() if i.family == family)
        return self._instances[family]

    def _reduction(self, family: str, knob: str):
        key = (family, knob)
        if key not in self._reductions:
            instance = self._instance(family)
            if knob == "off":
                self._reductions[key] = identity_reduction(
                    instance.system)
            else:
                self._reductions[key] = reduce_for_target(
                    instance.system, instance.final)
        return self._reductions[key]

    def _prepare(self, spec: Dict[str, Any]):
        """spec -> (fingerprint key, cell payload, reduction)."""
        if spec["method"] not in ALL_METHODS:
            close = difflib.get_close_matches(spec["method"],
                                              ALL_METHODS, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ProtocolError(
                f"unknown method {spec['method']!r}{hint}")
        instance = self._instance(spec["family"])
        reduction = self._reduction(spec["family"], spec["reduce"])
        system = reduction.system
        final = (instance.final if reduction.is_identity
                 else reduction.map_expr(instance.final))
        budget = Budget.from_dict(spec["budget"])
        # The key fingerprints the *reduced* query, so equal cones
        # coalesce; reduce="off" in the key/payload because the worker
        # receives the already-reduced system.
        key = spec["kind"] + ":" + cell_key(
            system, final, spec["k"], spec["method"],
            spec["semantics"], budget, spec["options"], reduce="off")
        payload = make_cell_payload(
            system, final, spec["k"], spec["method"],
            semantics=spec["semantics"], budget=budget,
            options=spec["options"], reduce="off",
            kind=spec["kind"], stream=(spec["kind"] == "sweep"))
        return key, payload, reduction

    def _sim_presolve(self, spec: Dict[str, Any],
                      reduction) -> Optional[Dict[str, Any]]:
        """The daemon's pre-solve tier: answer a submission by random
        simulation before it ever reaches the queue.

        Runs on the submission's reduced query, strictly wall-bounded,
        SAT-only.  Returns a finished outcome dict in the same shape a
        worker would produce (sweep submissions get the sweep outcome
        shape), marked ``lifted`` (its trace is already over the
        original system), or None — the job then queues normally.
        """
        if not self.sim_tier or spec.get("method_pinned"):
            # A pinned submission keeps its engine's behaviour
            # (per-bound streaming, proof capability) end to end.
            return None
        from ..sim import presolve
        instance = self._instance(spec["family"])
        semantics = (spec["semantics"] if spec["kind"] == "check"
                     else "within")
        out = presolve(instance.system, instance.final, spec["k"],
                       semantics=semantics, reduction=reduction)
        if out is None or not out.hit:
            return None
        stats = dict(out.stats, sim_presolved=True, sim_solver_calls=0)
        if spec["kind"] == "sweep":
            hit = BoundResult(out.hit_k, SolveResult.SAT, out.trace,
                              out.seconds, out.seconds, stats)
            outcome = encode_sweep_outcome(SweepResult(
                "simulation", spec["k"], [hit], out.seconds))
            outcome["stats"].update(stats)
        else:
            outcome = encode_outcome(BmcResult(
                SolveResult.SAT, out.trace, out.hit_k, "simulation",
                out.seconds, stats))
        outcome["lifted"] = True
        return outcome

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    async def _op_ping(self, client, request_id, fields) -> None:
        self._send(client, ok_response(request_id, pong=True,
                                       version=PROTOCOL_VERSION))

    async def _op_submit(self, client, request_id, fields) -> None:
        ack = self._submit_one(client, request_id, fields)
        self._send(client, ack)
        self._dispatch()

    async def _op_batch(self, client, request_id, fields) -> None:
        acks = []
        for spec in fields["jobs"]:
            try:
                ack = self._submit_one(client, request_id, spec)
                ack.pop("id", None)
            except ProtocolError as err:
                ack = {"ok": False, "error": str(err)}
            acks.append(ack)
        self._send(client, ok_response(request_id, jobs=acks))
        self._dispatch()

    def _submit_one(self, client: _ClientState, request_id,
                    spec: Dict[str, Any]) -> Dict[str, Any]:
        if client.active >= self.max_queued:
            raise ProtocolError(
                f"budget exhausted: client already has "
                f"{client.active} active jobs (max {self.max_queued}); "
                f"wait or cancel before submitting more")
        key, payload, reduction = self._prepare(spec)
        self.stats["submitted"] += 1

        cached = self.cache.get(key)
        if cached is not None:
            return self._answered(request_id, key, spec, payload, cached,
                                  "cache_answers", cached=True)
        # A simulation answer is deliberately NOT cached: the key names
        # the spec's solver method, and a later submission pinning that
        # method must get the real engine, not a simulation result
        # wearing its key.  Re-presolving a repeat submission costs
        # ~1 ms and is deterministic.
        sim_outcome = self._sim_presolve(spec, reduction)
        if sim_outcome is not None:
            return self._answered(request_id, key, spec, payload,
                                  sim_outcome, "sim_answers",
                                  presolved=True)

        waiter = Waiter(client.client_id, request_id, spec,
                        spec["subscribe"])
        inflight = self._by_key.get(key)
        if inflight is not None and not inflight.state.terminal:
            inflight.waiters.append(waiter)
            inflight.coalesced += 1
            client.active += 1
            self.stats["coalesced"] += 1
            return ok_response(request_id, job=inflight.job_id,
                               state=inflight.state.value,
                               coalesced=True)

        job = self._new_job(key, spec, payload)
        job.waiters.append(waiter)
        job.priority = spec["priority"]
        if spec["deadline"] is not None:
            job.deadline = time.monotonic() + spec["deadline"]
        self._by_key[key] = job
        self._queue.push(job, client_rank=client.active)
        client.active += 1
        current_metrics().gauge("serve.queue_depth", len(self._queue))
        return ok_response(request_id, job=job.job_id, state="queued")

    def _answered(self, request_id, key: str, spec: Dict[str, Any],
                  payload: Dict[str, Any], outcome: Dict[str, Any],
                  counter: str, **flags: Any) -> Dict[str, Any]:
        """Close and acknowledge a submission answered without a worker."""
        job = self._new_job(key, spec, payload)
        job.state = JobState.DONE
        job.result = dict(outcome)
        job.finished_at = job.started_at = time.monotonic()
        self.stats[counter] += 1
        self.stats["completed"] += 1
        return ok_response(request_id, job=job.job_id, state="done",
                           result=self._result_view(outcome, spec), **flags)

    def _new_job(self, key: str, spec: Dict[str, Any],
                 payload: Dict[str, Any]) -> Job:
        self._next_job += 1
        job = Job(f"j{self._next_job}", self._next_job, key, spec,
                  payload)
        self._jobs[job.job_id] = job
        return job

    async def _op_status(self, client, request_id, fields) -> None:
        job_id = fields.get("job")
        if job_id is None:
            self._send(client, ok_response(request_id,
                                           stats=self._stats_view()))
            return
        job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError(f"unknown job {job_id!r}")
        view = job.describe()
        if job.state.terminal and job.result is not None:
            view["result"] = self._result_view(job.result, job.spec)
        self._send(client, ok_response(request_id, **view))

    async def _op_stats(self, client, request_id, fields) -> None:
        self._send(client, ok_response(request_id,
                                       stats=self._stats_view()))

    async def _op_cancel(self, client, request_id, fields) -> None:
        job = self._jobs.get(fields["job"])
        if job is None:
            raise ProtocolError(f"unknown job {fields['job']!r}")
        if job.state.terminal:
            self._send(client, ok_response(request_id, job=job.job_id,
                                           state=job.state.value,
                                           already_finished=True))
            return
        mine = [w for w in job.waiters
                if w.client_id == client.client_id]
        others = [w for w in job.waiters
                  if w.client_id != client.client_id]
        if mine and others:
            # Detach only this client; the job keeps running for the
            # other waiters.
            job.waiters = others
            client.active -= len(mine)
            self._send(client, ok_response(request_id, job=job.job_id,
                                           state=job.state.value,
                                           detached=True))
            return
        for waiter in job.waiters:
            self._release_waiter(waiter)
            # Every remaining waiter (possibly on other connections —
            # an administrative `repro cancel`) learns the job died,
            # so nobody blocks forever on a done event.
            self._send_to(waiter.client_id,
                          {"event": "done", "job": job.job_id,
                           "state": "cancelled", "result": None})
        job.waiters = []
        state = self._cancel_job(job)
        self._send(client, ok_response(request_id, job=job.job_id,
                                       state=state))
        self._dispatch()

    def _cancel_job(self, job: Job) -> str:
        """Cancel the underlying execution (no waiters remain)."""
        if job.job_id in self._queue:
            self._queue.remove(job.job_id)
            job.state = JobState.CANCELLED
            job.finished_at = time.monotonic()
            self._by_key.pop(job.key, None)
            self.stats["cancelled"] += 1
            current_metrics().gauge("serve.queue_depth",
                                    len(self._queue))
            return "cancelled"
        if job.task_id in self._running:
            job.state = JobState.CANCELLED
            self._bridge.cancel(job.task_id)
            # The worker aborts at its next budget checkpoint; the
            # outcome lands in _on_result, which sees the CANCELLED
            # state and closes the job out.
            return "cancelling"
        return job.state.value      # pragma: no cover - race leftover

    async def _op_subscribe(self, client, request_id, fields) -> None:
        job = self._jobs.get(fields["job"])
        if job is None:
            raise ProtocolError(f"unknown job {fields['job']!r}")
        if job.state.terminal:
            view = {"state": job.state.value}
            if job.result is not None:
                view["result"] = self._result_view(job.result, job.spec)
            self._send(client, ok_response(request_id, job=job.job_id,
                                           **view))
            return
        job.waiters.append(Waiter(client.client_id, request_id,
                                  job.spec, True))
        client.active += 1
        self._send(client, ok_response(request_id, job=job.job_id,
                                       state=job.state.value,
                                       subscribed=True))

    async def _op_shutdown(self, client, request_id, fields) -> None:
        self._send(client, ok_response(request_id, stopping=True))
        self.request_shutdown()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Feed queued jobs to free workers, best-first."""
        self._evict_expired()
        while len(self._running) < self._bridge.jobs:
            job = self._queue.pop()
            if job is None:
                break
            job.state = JobState.RUNNING
            job.started_at = time.monotonic()
            self._running[job.task_id] = job
            self._bridge.submit(job.task_id, job.payload)
        current_metrics().gauge("serve.queue_depth", len(self._queue))
        current_metrics().gauge("serve.inflight", len(self._running))

    def _evict_expired(self) -> None:
        for job in self._queue.evict_expired():
            job.state = JobState.EVICTED
            job.finished_at = time.monotonic()
            self._by_key.pop(job.key, None)
            self.stats["evicted"] += 1
            for waiter in job.waiters:
                self._release_waiter(waiter)
                self._send_to(waiter.client_id, {
                    "event": "done", "job": job.job_id,
                    "state": "evicted",
                    "error": "deadline expired before a worker "
                             "was free"})
            job.waiters = []

    async def _housekeeping(self) -> None:
        while True:
            await asyncio.sleep(_HOUSEKEEPING_TICK)
            if len(self._queue):
                self._evict_expired()
                self._dispatch()

    # ------------------------------------------------------------------
    # Results flowing back from the pool (loop thread, via bridge)
    # ------------------------------------------------------------------
    def _on_result(self, task_id: int, outcome: Dict[str, Any]) -> None:
        job = self._running.pop(task_id, None)
        if job is None:
            return                  # shutdown race: already closed out
        self._by_key.pop(job.key, None)
        job.finished_at = time.monotonic()
        cancelled = bool(outcome.get("cancelled")) \
            or job.state is JobState.CANCELLED
        failed = bool(outcome.get("error")) and not cancelled
        job.state = (JobState.CANCELLED if cancelled
                     else JobState.FAILED if failed
                     else JobState.DONE)
        sanitized = strip_run_keys(outcome)
        job.result = sanitized
        if cancelled:
            self.stats["cancelled"] += 1
        elif failed:
            self.stats["failed"] += 1
        else:
            self.stats["completed"] += 1
            budget = job.spec["budget"] or {}
            if cacheable(sanitized, budget.get("max_seconds")):
                self.cache.put(job.key, sanitized)
        current_metrics().inc(f"serve.jobs.{job.state.value}")
        for waiter in job.waiters:
            self._release_waiter(waiter)
            self._send_to(waiter.client_id, {
                "event": "done", "job": job.job_id,
                "state": job.state.value,
                "result": self._result_view(sanitized, waiter.spec)})
        job.waiters = []
        self._dispatch()

    def _on_progress(self, task_id: int, data: Dict[str, Any]) -> None:
        job = self._running.get(task_id)
        if job is None:
            return
        for waiter in job.waiters:
            if waiter.subscribe:
                self._send_to(waiter.client_id,
                              {"event": "bound", "job": job.job_id,
                               **data})

    def _release_waiter(self, waiter: Waiter) -> None:
        client = self._clients.get(waiter.client_id)
        if client is not None:
            client.active = max(0, client.active - 1)

    def _send_to(self, client_id: int, obj: Dict[str, Any]) -> None:
        client = self._clients.get(client_id)
        if client is not None:
            self._send(client, obj)

    # ------------------------------------------------------------------
    # Result shaping
    # ------------------------------------------------------------------
    def _result_view(self, outcome: Dict[str, Any],
                     spec: Dict[str, Any]) -> Dict[str, Any]:
        """One waiter's JSON view of an outcome.

        A worker's outcome lives in the *reduced* vocabulary: its trace
        is lifted through the waiter's own reduction and must replay on
        the system the client asked about and end in its target, else
        the view is an error, never a SAT witness.  A pre-solve answer
        (``lifted``) was lifted and checked by the tier already.
        """
        view = strip_run_keys(outcome)
        view.pop("worker", None)
        reduction = self._reduction(spec["family"], spec["reduce"])
        if view.pop("lifted", False) or view.get("trace") is None \
                or reduction.is_identity:
            return view
        trace = reduction.lift_witness(decode_trace(view["trace"]),
                                       self._instance(spec["family"]).final)
        if trace is None:
            view.update(status=SolveResult.UNKNOWN.name, trace=None,
                        error="the lifted witness does not replay on the "
                              "original system and reach its target")
        else:
            view["trace"] = encode_trace(trace)
        return view

    def _stats_view(self) -> Dict[str, Any]:
        return {
            "uptime_seconds": time.monotonic() - self._started_at,
            "workers": self._bridge.jobs if self._bridge else 0,
            "clients": len(self._clients),
            "queue_depth": len(self._queue),
            "inflight": len(self._running),
            "jobs": dict(self.stats),
            "cache": {"hits": self.cache.hits,
                      "misses": self.cache.misses,
                      "stores": self.cache.stores,
                      "entries": len(self.cache)},
            "pool": {"respawns": self._bridge.respawns
                     if self._bridge else 0,
                     "cancelled": self._bridge.cancelled
                     if self._bridge else 0},
            "version": PROTOCOL_VERSION,
        }
