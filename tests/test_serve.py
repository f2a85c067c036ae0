"""Tests for the ``repro serve`` daemon: protocol, queue, end-to-end.

The end-to-end tests run a real daemon (asyncio loop in a background
thread, warm worker pool, unix socket) and speak to it through
:class:`~repro.serve.client.ServeClient` — the same path the CLI verbs
take.  The "long job" used by cancellation/eviction tests is the
paper's own hard case: ``qbf-squaring`` on the mutex family runs
effectively forever on a QDPLL baseline, and aborts within one budget
checkpoint when the worker's stop event fires.
"""

from __future__ import annotations

import gc
import threading
import time
import warnings

import pytest

from repro import cli
from repro.serve import (FairQueue, Job, ProtocolError,
                         ServeClient, ServeError,
                         decode_line, encode_line, validate_request)

# A job that keeps a worker busy until cancelled: QDPLL on the
# squaring encoding (the paper's collapsing baseline), unlimited
# budget, reduction off so nothing shrinks it behind our back.
LONG_JOB = dict(family="mutex", k=8, kind="check",
                method="qbf-squaring", reduce="off")

QUICK = dict(family="counter", k=9, method="jsat")


# ----------------------------------------------------------------------
# Protocol units
# ----------------------------------------------------------------------
class TestProtocol:
    def test_defaults_filled(self):
        op, fields = validate_request({"op": "submit",
                                       "family": "counter", "k": 3})
        assert op == "submit"
        assert fields["method"] == "jsat"
        assert fields["kind"] == "check"
        assert fields["reduce"] == "auto"
        assert fields["subscribe"] is False

    def test_unknown_op_suggests(self):
        with pytest.raises(ProtocolError, match="did you mean 'submit'"):
            validate_request({"op": "sumbit"})

    def test_unknown_field_suggests(self):
        with pytest.raises(ProtocolError, match="did you mean 'budget'"):
            validate_request({"op": "submit", "family": "counter",
                             "k": 3, "buget": {}})

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError, match="requires field 'k'"):
            validate_request({"op": "submit", "family": "counter"})

    def test_bad_budget_limit(self):
        with pytest.raises(ProtocolError,
                           match="did you mean 'max_conflicts'"):
            validate_request({"op": "submit", "family": "counter",
                             "k": 3, "budget": {"max_conflits": 5}})

    def test_version_mismatch(self):
        with pytest.raises(ProtocolError, match="version"):
            validate_request({"op": "ping", "version": 99})

    def test_type_errors(self):
        for bad in [{"op": "submit", "family": "counter", "k": -1},
                    {"op": "submit", "family": "counter", "k": True},
                    {"op": "submit", "family": 7, "k": 3},
                    {"op": "submit", "family": "counter", "k": 3,
                     "kind": "race"},
                    {"op": "submit", "family": "counter", "k": 3,
                     "deadline": -2},
                    {"op": "cancel"}]:
            with pytest.raises(ProtocolError):
                validate_request(bad)

    def test_batch_validates_entries(self):
        with pytest.raises(ProtocolError, match="did you mean"):
            validate_request({"op": "batch", "jobs": [
                {"family": "counter", "k": 3, "methd": "jsat"}]})
        with pytest.raises(ProtocolError, match="non-empty"):
            validate_request({"op": "batch", "jobs": []})

    def test_line_roundtrip(self):
        obj = {"op": "ping", "id": 7}
        assert decode_line(encode_line(obj)) == obj

    def test_bad_json_line(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_line(b"{nope\n")


# ----------------------------------------------------------------------
# FairQueue units
# ----------------------------------------------------------------------
def _job(job_id: str, priority: int = 0, deadline=None) -> Job:
    job = Job(job_id, int(job_id[1:]), f"key-{job_id}",
              {"family": "counter", "kind": "check", "k": 3,
               "method": "jsat"}, {})
    job.priority = priority
    job.deadline = deadline
    return job


class TestFairQueue:
    def test_priority_order(self):
        q = FairQueue()
        q.push(_job("j1", priority=0), client_rank=0)
        q.push(_job("j2", priority=5), client_rank=0)
        q.push(_job("j3", priority=-1), client_rank=0)
        assert [q.pop().job_id for _ in range(3)] == ["j2", "j1", "j3"]

    def test_client_fairness(self):
        # A flood from client A (ranks 0..2) interleaves with a
        # newcomer B whose first job (rank 0) beats A's backlog tail.
        q = FairQueue()
        q.push(_job("j1"), client_rank=0)    # A
        q.push(_job("j2"), client_rank=1)    # A
        q.push(_job("j3"), client_rank=2)    # A
        q.push(_job("j4"), client_rank=0)    # B, fresh
        order = [q.pop().job_id for _ in range(4)]
        assert order.index("j4") < order.index("j2")
        assert order.index("j4") < order.index("j3")

    def test_remove_is_tombstone(self):
        q = FairQueue()
        q.push(_job("j1"), client_rank=0)
        q.push(_job("j2"), client_rank=0)
        assert q.remove("j1").job_id == "j1"
        assert "j1" not in q
        assert len(q) == 1
        assert q.pop().job_id == "j2"
        assert q.pop() is None

    def test_evict_expired(self):
        q = FairQueue()
        now = time.monotonic()
        q.push(_job("j1", deadline=now - 1), client_rank=0)
        q.push(_job("j2", deadline=now + 60), client_rank=0)
        q.push(_job("j3"), client_rank=0)
        expired = q.evict_expired(now)
        assert [j.job_id for j in expired] == ["j1"]
        assert len(q) == 2
        assert q.next_deadline() == pytest.approx(now + 60)


# ----------------------------------------------------------------------
# End-to-end daemon
# ----------------------------------------------------------------------
# sim_tier off: these tests exercise the queue / coalesce / cancel
# machinery, which the simulation pre-solve tier would answer before a
# job ever queues.  The sim tier itself is covered in tests/test_sim.py.
@pytest.fixture
def served(serve_daemon):
    return serve_daemon(sim_tier=False, jobs=2)


@pytest.fixture
def served_single(serve_daemon):
    """One-worker daemon: queueing behaviour is deterministic."""
    return serve_daemon(sim_tier=False, jobs=1, max_queued=3)


class TestDaemonBasics:
    def test_ping(self, served):
        with ServeClient(socket_path=served.socket) as c:
            pong = c.ping()
        assert pong["pong"] is True and pong["version"] == 1

    def test_submit_and_wait(self, served):
        with ServeClient(socket_path=served.socket) as c:
            done = c.run("counter", 9, method="jsat")
        assert done["state"] == "done"
        result = done["result"]
        assert result["status"] == "SAT" and result["k"] == 9
        # The trace is full-width over the original system even
        # though the daemon solved a reduced query.
        assert result["trace"] is not None
        assert set(result["trace"]["states"][0]) == {"c0", "c1", "c2"}

    def test_repeat_answered_from_cache(self, served):
        with ServeClient(socket_path=served.socket) as c:
            first = c.run("counter", 9, method="jsat")
            ack = c.submit("counter", k=9, method="jsat")
        assert first["state"] == "done"
        assert ack["cached"] is True and ack["state"] == "done"
        assert ack["result"]["status"] == "SAT"

    def test_errors_have_suggestions(self, served):
        with ServeClient(socket_path=served.socket) as c:
            with pytest.raises(ServeError, match="did you mean"):
                c.submit("counters", k=3)
            with pytest.raises(ServeError, match="did you mean"):
                c.submit("counter", k=3, method="jsatt")
            # Daemon survives bad requests.
            assert c.ping()["pong"] is True

    def test_status_and_stats(self, served):
        with ServeClient(socket_path=served.socket) as c:
            ack = c.submit("counter", k=9, method="jsat")
            c.wait(ack)
            view = c.status(ack["job"])
            stats = c.stats()
        assert view["state"] == "done"
        assert view["result"]["status"] == "SAT"
        assert stats["workers"] == 2
        assert stats["jobs"]["submitted"] >= 1
        assert stats["jobs"]["completed"] >= 1
        assert "uptime_seconds" in stats

    def test_batch(self, served):
        with ServeClient(socket_path=served.socket) as c:
            resp = c.batch([
                {"family": "counter", "k": 9, "method": "jsat"},
                {"family": "gray", "k": 6, "method": "jsat"},
                {"family": "nonsense", "k": 1},
            ])
            acks = resp["jobs"]
            assert acks[2]["ok"] is False
            results = [c.wait(a) for a in acks[:2]]
        assert all(r["state"] == "done" for r in results)

    def test_sweep_streams_bounds(self, served):
        bounds = []
        with ServeClient(socket_path=served.socket) as c:
            done = c.run("counter", 9, kind="sweep",
                         method="sat-incremental",
                         on_bound=lambda e: bounds.append(
                             (e["k"], e["status"])))
        assert done["state"] == "done"
        result = done["result"]
        assert result["kind"] == "sweep"
        assert result["status"] == "SAT"
        # Streamed bounds match the final per_bound ladder.
        assert bounds == [(b["k"], b["status"])
                          for b in result["per_bound"]]
        assert bounds[-1][1] == "SAT"
        assert [k for k, _ in bounds] == list(range(len(bounds)))


class TestCoalescing:
    def test_identical_submissions_share_one_execution(
            self, served_single):
        with ServeClient(socket_path=served_single.socket) as c1, \
                ServeClient(socket_path=served_single.socket) as c2:
            # Occupy the only worker so the next jobs stay queued.
            blocker = c1.submit(**LONG_JOB)
            a = c1.submit("counter", k=9, method="jsat")
            b = c2.submit("counter", k=9, method="jsat")
            assert b["job"] == a["job"]
            assert b["coalesced"] is True
            c1.cancel(blocker["job"])
            done_a = c1.wait(a)
            done_b = c2.wait(b)
            stats = c1.stats()
        assert done_a["state"] == done_b["state"] == "done"
        assert done_a["result"]["status"] == \
            done_b["result"]["status"] == "SAT"
        assert stats["jobs"]["coalesced"] == 1


class TestCancellation:
    def test_cancel_frees_worker_without_respawn(self, served_single):
        with ServeClient(socket_path=served_single.socket) as c:
            ack = c.submit(**LONG_JOB)
            time.sleep(0.3)         # let the worker sink into QDPLL
            view = c.cancel(ack["job"])
            assert view["state"] in ("cancelling", "cancelled")
            # The same warm worker must pick up the next job: no
            # kill, no respawn, prompt completion.
            start = time.perf_counter()
            done = c.run(**QUICK)
            elapsed = time.perf_counter() - start
            stats = c.stats()
        assert done["state"] == "done"
        assert elapsed < 10.0
        assert stats["pool"]["respawns"] == 0
        assert stats["pool"]["cancelled"] >= 1
        assert stats["jobs"]["cancelled"] >= 1

    def test_cancel_queued_job(self, served_single):
        with ServeClient(socket_path=served_single.socket) as c:
            blocker = c.submit(**LONG_JOB)
            queued = c.submit("gray", k=6, method="jsat")
            view = c.cancel(queued["job"])
            assert view["state"] == "cancelled"
            c.cancel(blocker["job"])
            # The queued cancel is immediate; the running one counts
            # once the worker's cooperative abort lands.
            deadline = time.time() + 30
            while time.time() < deadline:
                stats = c.stats()
                if stats["jobs"]["cancelled"] >= 2:
                    break
                time.sleep(0.1)
        assert stats["jobs"]["cancelled"] >= 2

    def test_deadline_evicts_queued_job(self, served_single):
        with ServeClient(socket_path=served_single.socket) as c:
            blocker = c.submit(**LONG_JOB)
            doomed = c.submit("gray", k=6, method="jsat",
                              deadline=0.2)
            event = c.wait(doomed)
            assert event["state"] == "evicted"
            c.cancel(blocker["job"])
            stats = c.stats()
        assert stats["jobs"]["evicted"] == 1

    def test_disconnect_cancels_abandoned_job(self, served_single):
        c1 = ServeClient(socket_path=served_single.socket)
        ack = c1.submit(**LONG_JOB)
        time.sleep(0.2)
        c1.close()                  # walk away mid-solve
        with ServeClient(socket_path=served_single.socket) as c2:
            deadline = time.time() + 30
            while time.time() < deadline:
                view = c2.status(ack["job"])
                if view["state"] == "cancelled":
                    break
                time.sleep(0.1)
            assert view["state"] == "cancelled"
            # The worker is warm and free again.
            assert c2.run(**QUICK)["state"] == "done"

    def test_disconnected_subscriber_does_not_wedge_stream(
            self, served):
        with ServeClient(socket_path=served.socket) as owner:
            ack = owner.submit("counter", k=9, kind="sweep",
                               method="sat-unroll", subscribe=True,
                               options={}, budget=None)
            # A second client subscribes, then vanishes mid-stream.
            lurker = ServeClient(socket_path=served.socket)
            try:
                lurker.subscribe(ack["job"])
            except ServeError:
                pass                # job may already be done: fine
            lurker.close()
            done = owner.wait(ack)
        assert done["state"] == "done"
        assert done["result"]["status"] == "SAT"


class TestBudgets:
    def test_per_client_budget_rejects_flood(self, served_single):
        with ServeClient(socket_path=served_single.socket) as c:
            acks = [c.submit(**LONG_JOB)]
            acks.append(c.submit("gray", k=6, method="jsat"))
            acks.append(c.submit("lfsr", k=5, method="jsat"))
            with pytest.raises(ServeError, match="budget exhausted"):
                c.submit("barrel", k=2, method="jsat")
            for ack in acks:
                c.cancel(ack["job"])

    def test_four_concurrent_clients(self, served):
        jobs = [("counter", 9), ("gray", 6), ("lfsr", 5),
                ("arbiter", 2)]
        results = {}
        errors = []

        def worker(family, k):
            try:
                with ServeClient(socket_path=served.socket) as c:
                    results[family] = c.run(family, k, method="jsat")
            except Exception as err:    # pragma: no cover
                errors.append((family, err))

        threads = [threading.Thread(target=worker, args=spec)
                   for spec in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(results) == 4
        assert all(r["state"] == "done" for r in results.values())
        with ServeClient(socket_path=served.socket) as c:
            stats = c.stats()
        assert stats["jobs"]["completed"] >= 4


class TestServeCli:
    def test_submit_wait_and_status(self, serve_daemon, capsys):
        handle = serve_daemon(sim_tier=False, jobs=1)
        rc = cli.main(["submit", "counter", "-k", "9",
                       "--method", "jsat", "--socket",
                       handle.socket, "--wait"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SAT" in out and "trace of length 9" in out

        rc = cli.main(["status", "--socket", handle.socket])
        out = capsys.readouterr().out
        assert rc == 0
        assert "workers: 1" in out and "completed" in out

    def test_follow_streams_bounds(self, serve_daemon, capsys):
        handle = serve_daemon(sim_tier=False, jobs=1)
        rc = cli.main(["submit", "counter", "-k", "9", "--sweep",
                       "--method", "sat-incremental",
                       "--socket", handle.socket, "--follow"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "k=0" in out and "SAT" in out

    def test_cancel_verb(self, serve_daemon, capsys):
        handle = serve_daemon(sim_tier=False, jobs=1)
        rc = cli.main(["submit", "mutex", "-k", "8",
                       "--method", "qbf-squaring", "--no-reduce",
                       "--socket", handle.socket])
        out = capsys.readouterr().out
        assert rc == 0
        job = out.split()[1].rstrip(":")
        rc = cli.main(["cancel", job, "--socket", handle.socket])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cancel" in out

    def test_connection_refused_is_friendly(self, tmp_path, capsys):
        rc = cli.main(["status", "--socket",
                       str(tmp_path / "absent.sock")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "cannot reach daemon" in err

    def test_failed_connect_closes_socket(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError):
                ServeClient(socket_path=str(tmp_path / "absent.sock"))
            gc.collect()
        leaks = [w for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_endpoint_required(self, capsys):
        rc = cli.main(["status"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "exactly one endpoint" in err
