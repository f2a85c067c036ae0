"""Parallel portfolio subsystem: race, batch, and cache BMC queries.

Layers (bottom up):

* :mod:`repro.portfolio.ipc` — plain-data payloads crossing process
  boundaries (and feeding the on-disk cache);
* :mod:`repro.portfolio.pool` — :class:`WorkerPool`, one-task-per-
  worker processes with hard wall-clock enforcement and respawn;
* :mod:`repro.portfolio.race` — :func:`race`, first conclusive answer
  wins, witnesses validated, losers cancelled on a warm
  :class:`WorkerPool` (``method="portfolio"`` in
  :meth:`repro.bmc.session.BmcSession.check`);
* :mod:`repro.portfolio.cache` — :class:`ResultCache`, keyed by
  semantic fingerprints of (model, bound, method, budget);
* :mod:`repro.portfolio.scheduler` — :class:`BatchScheduler`, shards
  a (suite × methods) matrix across the pool hardest-first and
  reassembles results in deterministic serial order
  (``run_matrix(..., jobs=N)`` and the ``repro batch`` CLI).
"""

from .cache import (MemoryCache, ResultCache, cell_key, fingerprint_expr,
                    fingerprint_system)
from .ipc import (budget_from_dict, budget_to_dict, decode_outcome,
                  encode_outcome, encode_sweep_outcome, execute_cell,
                  make_cell_payload, outcome_to_result)
from .pool import Task, WorkerPool, default_jobs
from .race import DEFAULT_RACE_METHODS, RaceOutcome, race
from .scheduler import BatchScheduler, hardness_estimate

__all__ = [
    "WorkerPool", "Task", "default_jobs",
    "race", "RaceOutcome", "DEFAULT_RACE_METHODS",
    "BatchScheduler", "hardness_estimate",
    "ResultCache", "MemoryCache", "cell_key", "fingerprint_expr",
    "fingerprint_system",
    "make_cell_payload", "execute_cell", "encode_outcome",
    "encode_sweep_outcome", "decode_outcome", "outcome_to_result",
    "budget_to_dict", "budget_from_dict",
]
