"""Synchronous client for the ``repro serve`` daemon.

A thin blocking wrapper over one NDJSON connection — the CLI verbs
(``repro submit`` / ``status`` / ``cancel``), the tests and the
benchmark all speak through it.  Asynchronous *events* (bound
progress, job completion) interleave with request responses on the
wire; the client routes them transparently: responses resolve the
pending request, events are buffered per job until :meth:`wait`
consumes them.
"""

from __future__ import annotations

import collections
import json
import socket
from typing import Any, Callable, Dict, List, Optional

from .protocol import PROTOCOL_VERSION, ProtocolError, decode_line

__all__ = ["ServeClient", "ServeError"]


class ServeError(Exception):
    """The daemon rejected a request (``ok: false``)."""


class ServeClient:
    """One blocking connection to a serve daemon.

    Usage::

        with ServeClient(socket_path="/tmp/repro.sock") as client:
            ack = client.submit("counter", k=9, method="jsat")
            result = client.wait(ack["job"])
    """

    def __init__(self, socket_path: Optional[str] = None,
                 host: str = "127.0.0.1", port: Optional[int] = None,
                 timeout: Optional[float] = 60.0) -> None:
        if (socket_path is None) == (port is None):
            raise ValueError("pick exactly one of socket_path / port")
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX,
                                       socket.SOCK_STREAM)
            try:
                self._sock.settimeout(timeout)
                self._sock.connect(socket_path)
            except OSError:
                self._sock.close()
                raise
        else:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout)
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        # Events that arrived while waiting for something else.
        self._events: Dict[str, List[Dict[str, Any]]] = \
            collections.defaultdict(list)

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _send(self, obj: Dict[str, Any]) -> None:
        self._sock.sendall((json.dumps(obj) + "\n").encode())

    def _recv(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return decode_line(line)

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request; block until its response arrives.

        Events received in the meantime are buffered for
        :meth:`wait` / :meth:`next_event`.
        """
        self._next_id += 1
        request_id = self._next_id
        msg = {"op": op, "id": request_id,
               "version": PROTOCOL_VERSION}
        msg.update({k: v for k, v in fields.items() if v is not None})
        self._send(msg)
        while True:
            obj = self._recv()
            if "event" in obj:
                self._events[obj.get("job", "")].append(obj)
                continue
            if obj.get("id") == request_id or "id" not in obj:
                if not obj.get("ok", False):
                    raise ServeError(obj.get("error", "request failed"))
                return obj

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def submit(self, family: str, k: int, *, kind: str = "check",
               method: Optional[str] = None,
               semantics: Optional[str] = None,
               budget: Optional[Dict[str, Any]] = None,
               options: Optional[Dict[str, Any]] = None,
               reduce: Optional[str] = None,
               priority: Optional[int] = None,
               deadline: Optional[float] = None,
               subscribe: bool = False) -> Dict[str, Any]:
        """Submit one job; returns the ack (``{"job": ..., "state":
        ...}``, plus ``result`` when answered from cache)."""
        return self.request("submit", family=family, k=k, kind=kind,
                            method=method, semantics=semantics,
                            budget=budget, options=options,
                            reduce=reduce, priority=priority,
                            deadline=deadline,
                            subscribe=subscribe or None)

    def batch(self, jobs: List[Dict[str, Any]]) -> Dict[str, Any]:
        return self.request("batch", jobs=jobs)

    def status(self, job: Optional[str] = None) -> Dict[str, Any]:
        return self.request("status", job=job)

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")["stats"]

    def cancel(self, job: str) -> Dict[str, Any]:
        return self.request("cancel", job=job)

    def subscribe(self, job: str) -> Dict[str, Any]:
        return self.request("subscribe", job=job)

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    # ------------------------------------------------------------------
    # Event consumption
    # ------------------------------------------------------------------
    def next_event(self, job: str) -> Dict[str, Any]:
        """The next buffered-or-received event for ``job`` (blocking)."""
        buffered = self._events.get(job)
        if buffered:
            return buffered.pop(0)
        while True:
            obj = self._recv()
            if "event" not in obj:
                raise ProtocolError(f"unexpected response while "
                                    f"waiting for events: {obj}")
            if obj.get("job") == job:
                return obj
            self._events[obj.get("job", "")].append(obj)

    def wait(self, ack_or_job, on_bound: Optional[
            Callable[[Dict[str, Any]], None]] = None) -> Dict[str, Any]:
        """Block until a submitted job finishes; returns the done event.

        Accepts either the ack dict returned by :meth:`submit` (so
        cache-answered submissions resolve immediately) or a bare job
        id.  ``on_bound`` receives each streamed bound event of a
        subscribed sweep as it arrives.
        """
        if isinstance(ack_or_job, dict):
            if "result" in ack_or_job:      # answered from cache
                return {"event": "done", "job": ack_or_job["job"],
                        "state": "done", "cached": True,
                        "result": ack_or_job["result"]}
            job = ack_or_job["job"]
        else:
            job = ack_or_job
        while True:
            event = self.next_event(job)
            if event.get("event") == "done":
                return event
            if on_bound is not None:
                on_bound(event)

    def run(self, family: str, k: int, **kwargs: Any) -> Dict[str, Any]:
        """Submit and wait in one call; returns the done event."""
        on_bound = kwargs.pop("on_bound", None)
        if on_bound is not None:
            kwargs.setdefault("subscribe", True)
        ack = self.submit(family, k, **kwargs)
        return self.wait(ack, on_bound=on_bound)
