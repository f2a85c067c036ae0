"""Job bookkeeping for the serve daemon: states, waiters, fair queue.

A *job* is one underlying solver execution.  Several client requests
may attach to the same job — the dedup layer coalesces submissions
whose reduced-query fingerprints match — so a job carries a list of
*waiters*, each remembering its client, its request id, its own
:class:`~repro.reduce.reduced.ReducedSystem` (traces are lifted
per-waiter: two originals can share one reduced query yet need
different lifts) and whether it wants streaming bound events.

The :class:`FairQueue` orders runnable jobs by ``(priority desc,
client rank asc, arrival)`` where a client's *rank* is how many jobs
it already had active at enqueue time — a client that floods the
daemon only competes with itself; a newcomer's first job jumps ahead
of the flood's tail.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["JobState", "Waiter", "Job", "FairQueue"]


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    EVICTED = "evicted"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self not in (JobState.QUEUED, JobState.RUNNING)


class Waiter:
    """One client request attached to a job (``spec`` is its own)."""

    __slots__ = ("client_id", "request_id", "spec", "subscribe")

    def __init__(self, client_id: int, request_id: Any,
                 spec: Dict[str, Any], subscribe: bool) -> None:
        self.client_id = client_id
        self.request_id = request_id
        self.spec = spec
        self.subscribe = subscribe


class Job:
    """One underlying execution plus everyone waiting on it."""

    __slots__ = ("job_id", "task_id", "key", "spec", "payload", "state",
                 "waiters", "submitted_at", "started_at", "finished_at",
                 "deadline", "priority", "result", "coalesced")

    def __init__(self, job_id: str, task_id: int, key: str,
                 spec: Dict[str, Any], payload: Dict[str, Any]) -> None:
        self.job_id = job_id
        self.task_id = task_id
        self.key = key
        self.spec = spec
        self.payload = payload
        self.state = JobState.QUEUED
        self.waiters: List[Waiter] = []
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        # Absolute monotonic instant after which a *queued* job is
        # evicted instead of dispatched (None = wait forever).
        self.deadline: Optional[float] = None
        self.priority = 0
        self.result: Optional[Dict[str, Any]] = None
        self.coalesced = 0          # extra submissions absorbed

    def describe(self) -> Dict[str, Any]:
        """The JSON-safe status view served by the ``status`` op."""
        out = {
            "job": self.job_id,
            "state": self.state.value,
            "family": self.spec["family"],
            "kind": self.spec["kind"],
            "k": self.spec["k"],
            "method": self.spec["method"],
            "waiters": len(self.waiters),
            "coalesced": self.coalesced,
        }
        if self.started_at is not None and self.finished_at is not None:
            out["seconds"] = self.finished_at - self.started_at
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Job({self.job_id}, {self.state.value}, "
                f"{self.spec['family']} k={self.spec['k']}, "
                f"waiters={len(self.waiters)})")


class FairQueue:
    """Priority queue with per-client fairness for queued jobs.

    Heap entries are ``(-priority, client_rank, seq)``: explicit
    priority dominates, then the submitting client's backlog at
    enqueue time, then arrival order.  Jobs are removed lazily
    (tombstones), so ``cancel`` is O(1) and ``pop`` amortizes the
    cleanup.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, Job]] = []
        self._seq = itertools.count()
        self._live: Dict[str, Job] = {}

    def push(self, job: Job, client_rank: int) -> None:
        self._live[job.job_id] = job
        heapq.heappush(self._heap,
                       (-job.priority, client_rank, next(self._seq), job))

    def remove(self, job_id: str) -> Optional[Job]:
        """Tombstone a queued job; returns it if it was queued here."""
        return self._live.pop(job_id, None)

    def pop(self) -> Optional[Job]:
        """The best runnable job, or None when the queue is empty."""
        while self._heap:
            _, _, _, job = heapq.heappop(self._heap)
            if self._live.pop(job.job_id, None) is not None:
                return job
        return None

    def evict_expired(self, now: Optional[float] = None) -> List[Job]:
        """Remove (and return) every queued job past its deadline."""
        if now is None:
            now = time.monotonic()
        expired = [job for job in self._live.values()
                   if job.deadline is not None and now > job.deadline]
        for job in expired:
            self._live.pop(job.job_id, None)
        return expired

    def next_deadline(self) -> Optional[float]:
        """The earliest queued deadline (drives the eviction timer)."""
        deadlines = [job.deadline for job in self._live.values()
                     if job.deadline is not None]
        return min(deadlines) if deadlines else None

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._live
