"""On-disk result cache for (model, bound, method, budget) cells.

Repeated suite runs — sweeping budgets, re-running E1 after an
unrelated change, resuming an interrupted batch — mostly re-solve
cells whose answer cannot have changed.  The cache keys each cell by a
*semantic fingerprint* of the query: a canonical serialization of the
transition system and target formula (stable across processes and
sessions, unlike ``Expr.uid``), the bound, the method, the semantics,
the exact budget and the method options.  Any change to any of those
produces a different key, so stale hits are impossible by
construction.

Entries are one JSON file per key, written atomically (temp file +
rename), so concurrent batch runs may safely share a cache directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Iterable, Optional

from ..logic.expr import Expr
from ..logic.program import Program
from ..sat.types import Budget
from ..system.model import TransitionSystem
from ..telemetry.metrics import current_metrics

__all__ = ["fingerprint_expr", "fingerprint_system", "cell_key",
           "cacheable", "ResultCache", "MemoryCache"]


def fingerprint_expr(root: Expr) -> str:
    """Canonical content hash of an expression DAG.

    The hash of its compiled :class:`~repro.logic.program.Program`,
    whose slots are numbered in post-order (children before parents),
    so two structurally identical DAGs — even ones built in different
    processes with different ``uid`` values — hash identically.
    """
    program = Program([root])
    return hashlib.sha256(repr((program.ops, list(program.variables.items()),
                                program.outputs)).encode()).hexdigest()


def fingerprint_system(system: TransitionSystem) -> str:
    """Content hash of a transition system (name excluded: two systems
    with identical semantics share cached results)."""
    digest = hashlib.sha256()
    digest.update(json.dumps({
        "state_vars": system.state_vars,
        "input_vars": system.input_vars,
        "init": fingerprint_expr(system.init),
        "trans": fingerprint_expr(system.trans),
    }, sort_keys=True).encode())
    return digest.hexdigest()


def cell_key(system: TransitionSystem, final: Expr, k: int, method: str,
             semantics: str = "exact", budget: Budget | None = None,
             options: Dict[str, Any] | None = None,
             reduce: str = "off") -> str:
    """The cache key of one reachability cell.

    ``reduce`` participates in the key: a reduced run's stats and
    trace provenance differ from an unreduced run's, so the two must
    never serve each other's cached outcomes.
    """
    doc = {
        "system": fingerprint_system(system),
        "final": fingerprint_expr(final),
        "k": k,
        "method": method,
        "semantics": semantics,
        "budget": None if budget is None else budget.as_dict(),
        "options": sorted((options or {}).items()),
        "reduce": reduce,
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def cacheable(outcome: Dict[str, Any],
              max_seconds: Optional[float]) -> bool:
    """Should a finished outcome be stored?  The one policy of the
    batch scheduler and the serve daemon.

    Error and timed-out outcomes never.  UNKNOWN under a wall-clock
    budget term (``max_seconds`` set) is a property of that run's
    machine load, not of the query, so caching it would pin a
    transient answer; UNKNOWN under purely deterministic limits
    (conflicts / literals / decisions) is a pure function of the cache
    key and safe to store.
    """
    if outcome.get("error") or outcome.get("timed_out"):
        return False
    return outcome.get("status") != "UNKNOWN" or max_seconds is None


class ResultCache:
    """Directory-backed store of encoded cell outcomes.

    ``get`` / ``put`` speak the plain-dict outcome format of
    :mod:`repro.portfolio.ipc`; hit/miss/store counters let callers
    (and tests) observe that cache hits really skipped solving.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:32] + ".json")

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the cached outcome for ``key``, or None.

        Any unreadable entry — missing, truncated, not valid JSON, not
        valid UTF-8, the wrong shape, or unreadable at the OS level —
        counts as a miss.  Concurrent writers replace entries
        atomically, but a crashed writer or a corrupted disk can leave
        anything behind; the cache must degrade to re-solving, never
        take the caller down.
        """
        try:
            with open(self._path(key)) as handle:
                entry = json.load(handle)
        except (OSError, ValueError, UnicodeDecodeError):
            # ValueError covers json.JSONDecodeError; OSError covers
            # FileNotFoundError, permission errors and torn reads.
            self.misses += 1
            current_metrics().inc("cache.misses")
            return None
        if (not isinstance(entry, dict) or "outcome" not in entry
                or entry.get("key") != key):
            # Wrong shape, or a 128-bit-prefix collision.
            self.misses += 1
            current_metrics().inc("cache.misses")
            return None
        self.hits += 1
        current_metrics().inc("cache.hits")
        return entry["outcome"]

    def put(self, key: str, outcome: Dict[str, Any]) -> None:
        """Store an outcome atomically (last writer wins)."""
        entry = {"key": key, "outcome": outcome}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover
                pass
            raise
        self.stores += 1
        current_metrics().inc("cache.stores")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory)
                   if name.endswith(".json"))

    def clear(self) -> None:
        for name in os.listdir(self.directory):
            if name.endswith(".json"):
                os.unlink(os.path.join(self.directory, name))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ResultCache({self.directory!r}, {len(self)} entries, "
                f"{self.hits} hits / {self.misses} misses)")


class MemoryCache:
    """In-process dict with the :class:`ResultCache` interface.

    The serve daemon uses this when no ``--cache`` directory is given:
    warm-instance reuse within one daemon lifetime, nothing persisted.
    ``maxsize`` bounds residency with FIFO eviction (insertion order —
    good enough for a safety net; the entries are small).
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self._entries: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            current_metrics().inc("cache.misses")
            return None
        self.hits += 1
        current_metrics().inc("cache.hits")
        return entry

    def put(self, key: str, outcome: Dict[str, Any]) -> None:
        while len(self._entries) >= self.maxsize:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = outcome
        self.stores += 1
        current_metrics().inc("cache.stores")

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"MemoryCache({len(self)} entries, "
                f"{self.hits} hits / {self.misses} misses)")
