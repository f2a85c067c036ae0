"""The one BMC unrolling: clause streams, stop checks and deadlines.

The golden digests pin, byte for byte, what each benchmarked client
feeds its SAT solver: every clause in load order, every purge, and
every solve call with its assumptions and the solver's variable count.
Any change to frame encoding, variable numbering, group allocation or
retirement timing moves a digest — and with it the resident clause
database the benchmark's ``peak_db_literals`` reads.

Hash-consed expressions make variable numbering depend on which
expressions the process built before, so the digests are computed in
a fresh interpreter: ``python tests/test_unrolling.py`` prints them.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bmc import BmcSession, IncrementalBmc, encode_unrolled
from repro.models import build_property_suite, build_suite, mixer
from repro.sat.kernel import make_solver
from repro.sat.types import Budget, SolveResult, install_stop_check
from repro.spec import PropertyChecker, Reachable, Verdict

FAMILIES = ("counter", "ring", "fifo", "mutex", "cache")
PROPERTY_DESIGNS = ("counter-multiprop", "mutex-multiprop")


def _designs():
    deepest = {}
    for inst in build_suite():
        best = deepest.get(inst.family)
        if inst.family in FAMILIES and (best is None or inst.k > best.k):
            deepest[inst.family] = inst
    out = {name: (inst.system, inst.final)
           for name, inst in deepest.items()}
    system, final, _ = mixer.make(16, 6)
    out["mixer16x6"] = (system, final)
    return out


DESIGNS = _designs()


class _StreamRecorder:
    """Log every solver's load/purge/solve calls, in solver order."""

    def __init__(self, monkeypatch) -> None:
        self.logs = []
        cls = type(make_solver())
        recorder = self

        def log_of(solver):
            log = solver.__dict__.get("_stream_log")
            if log is None:
                log = solver.__dict__["_stream_log"] = []
                recorder.logs.append(log)
            return log

        add_clause, add_clauses = cls.add_clause, cls.add_clauses
        purge, solve = cls.purge_satisfied, cls.solve

        def rec_add_clause(self, lits):
            lits = list(lits)
            if not self.__dict__.get("_stream_batch"):
                log_of(self).append(("c",) + tuple(lits))
            return add_clause(self, lits)

        def rec_add_clauses(self, clauses):
            clauses = [list(c) for c in clauses]
            log = log_of(self)
            log.extend(("c",) + tuple(c) for c in clauses)
            self.__dict__["_stream_batch"] = True
            try:
                return add_clauses(self, clauses)
            finally:
                self.__dict__["_stream_batch"] = False

        def rec_purge(self):
            log_of(self).append(("purge",))
            return purge(self)

        def rec_solve(self, assumptions=(), budget=None):
            log_of(self).append(("solve", self.num_vars,
                                 tuple(assumptions)))
            return solve(self, assumptions, budget=budget)

        monkeypatch.setattr(cls, "add_clause", rec_add_clause)
        monkeypatch.setattr(cls, "add_clauses", rec_add_clauses)
        monkeypatch.setattr(cls, "purge_satisfied", rec_purge)
        monkeypatch.setattr(cls, "solve", rec_solve)

    def digest(self) -> str:
        h = hashlib.sha256()
        for log in self.logs:
            h.update(b"solver\n")
            for event in log:
                h.update(repr(event).encode())
                h.update(b"\n")
        return h.hexdigest()[:16]


def _sweep_incremental(name):
    system, final = DESIGNS[name]
    with BmcSession(system, properties={"target": final}) as session:
        session.sweep(8, method="sat-incremental")


def _unroll(name, k, semantics):
    system, final = DESIGNS[name]
    with BmcSession(system, properties={"target": final}) as session:
        session.check(k, method="sat-unroll", semantics=semantics)


def _below_frames(name):
    """A deep check, then a sweep below it: the low-bound driver."""
    system, final = DESIGNS[name]
    with BmcSession(system, properties={"target": final}) as session:
        session.check(8, method="sat-incremental")
        session.sweep(6, method="sat-incremental")


def _check_all(name, descend=False):
    inst = next(i for i in build_property_suite() if i.name == name)
    checker = PropertyChecker(inst.system, inst.properties,
                              reduce="auto", sim_tier=False)
    checker.check_all(inst.k)
    if descend:
        checker.check_all(inst.k - 2)


CASES = (
    [(f"incremental-{d}", _sweep_incremental, (d,)) for d in DESIGNS]
    + [(f"unroll-{d}-{sem}-k{k}", _unroll, (d, k, sem))
       for d in DESIGNS for k in (8, 30) for sem in ("exact", "within")]
    + [(f"low-driver-{d}", _below_frames, (d,)) for d in ("mutex", "ring")]
    + [(f"check-all-{n}", _check_all, (n,)) for n in PROPERTY_DESIGNS]
    + [(f"check-all-descending-{n}", _check_all, (n, True))
       for n in PROPERTY_DESIGNS])

# Recorded on the code that predates the shared Unrolling class.
GOLDEN = {
    "incremental-counter": "56062ceeedab4b30",
    "incremental-ring": "9c6f86ddf8445b84",
    "incremental-fifo": "22c0cc30422fdb99",
    "incremental-mutex": "3ed6da40f2e3905d",
    "incremental-cache": "e7f4e167ddbbf9ac",
    "incremental-mixer16x6": "cda864192b1ed88b",
    "unroll-counter-exact-k8": "dfc4c73d35f8a3d1",
    "unroll-counter-within-k8": "c9593564336fc242",
    "unroll-counter-exact-k30": "4e2165ae2cd3e67c",
    "unroll-counter-within-k30": "140ea73cb5bd85bd",
    "unroll-ring-exact-k8": "71276f6559f31b7d",
    "unroll-ring-within-k8": "b92ee4f7b874e837",
    "unroll-ring-exact-k30": "75204ed73b3e977f",
    "unroll-ring-within-k30": "1bc63b5b36146e23",
    "unroll-fifo-exact-k8": "cc8c73523d215425",
    "unroll-fifo-within-k8": "6b24e5039a54098f",
    "unroll-fifo-exact-k30": "a6372beb0b633001",
    "unroll-fifo-within-k30": "dfea15f32f8e24b6",
    "unroll-mutex-exact-k8": "d431ef899d8a8983",
    "unroll-mutex-within-k8": "e83be2f8a52c5895",
    "unroll-mutex-exact-k30": "4fad39c735938b5e",
    "unroll-mutex-within-k30": "43bda8ebeb8e8cbb",
    "unroll-cache-exact-k8": "889008263477d498",
    "unroll-cache-within-k8": "242db617aed1c9a5",
    "unroll-cache-exact-k30": "6689b1a339d1d506",
    "unroll-cache-within-k30": "4956a188271a0b51",
    "unroll-mixer16x6-exact-k8": "5b767746f51649ae",
    "unroll-mixer16x6-within-k8": "641bc7853e580614",
    "unroll-mixer16x6-exact-k30": "9b2f13a2f49ac411",
    "unroll-mixer16x6-within-k30": "088c6c17f2450992",
    "low-driver-mutex": "3cd8e591810ace4d",
    "low-driver-ring": "05ddf707e34d8a44",
    "check-all-counter-multiprop": "021ec0239b877282",
    "check-all-mutex-multiprop": "efb9b360ddad02ec",
    "check-all-descending-counter-multiprop": "69fc7d2028c63a8f",
    "check-all-descending-mutex-multiprop": "3994a8bc487b8c00",
}


def stream_digests():
    """Each case's digest, computed in this process."""
    out = {}
    for case, run, args in CASES:
        with pytest.MonkeyPatch.context() as monkeypatch:
            recorder = _StreamRecorder(monkeypatch)
            run(*args)
        out[case] = recorder.digest() if recorder.logs else None
    return out


@pytest.fixture(scope="module")
def fresh_digests():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case", [c[0] for c in CASES])
def test_clause_stream_is_unchanged(fresh_digests, case):
    assert fresh_digests[case] == GOLDEN[case]


# ----------------------------------------------------------------------
# Cancels and deadlines during encoding
# ----------------------------------------------------------------------
@pytest.fixture
def stop_everything():
    previous = install_stop_check(lambda: True)
    yield
    install_stop_check(previous)


def _expired_budget():
    return Budget(max_seconds=0).start()


def _checker():
    system, final = DESIGNS["mixer16x6"]
    return PropertyChecker(system, {"hit": Reachable(final)},
                           sim_tier=False)


def _frames_of(checker):
    return checker._cone_for("hit").unrolling_for(40).k


class TestStopsDuringEncoding:
    def test_stop_check_stops_check_bound(self, stop_everything):
        inc = IncrementalBmc(*DESIGNS["mixer16x6"])
        status, trace, _ = inc.check_bound(40)
        assert status is SolveResult.UNKNOWN and trace is None
        assert inc.k == 0

    def test_deadline_stops_check_bound(self):
        inc = IncrementalBmc(*DESIGNS["mixer16x6"])
        status, trace, _ = inc.check_bound(40, budget=_expired_budget())
        assert status is SolveResult.UNKNOWN and trace is None
        assert inc.k == 0
        # Nothing was lost: the same driver answers once unhurried.
        assert inc.check_bound(2)[0] is not SolveResult.UNKNOWN
        assert inc.k == 2

    def test_stop_check_stops_unrolled_encoding(self):
        system, final = DESIGNS["mixer16x6"]
        one_frame = encode_unrolled(system, final, 1).stats()["clauses"]
        previous = install_stop_check(lambda: True)
        try:
            with BmcSession(system, properties={"target": final}) as s:
                result = s.check(40, method="sat-unroll")
        finally:
            install_stop_check(previous)
        assert result.status is SolveResult.UNKNOWN
        assert result.stats["clauses"] < one_frame

    def test_stop_check_stops_property_checker(self, stop_everything):
        checker = _checker()
        result = checker.check_all(40)["hit"]
        assert result.status is SolveResult.UNKNOWN
        assert result.verdict is Verdict.UNKNOWN
        assert _frames_of(checker) == 0

    def test_deadline_stops_property_checker(self):
        checker = _checker()
        result = checker.check("hit", 40, budget=_expired_budget())
        assert result.status is SolveResult.UNKNOWN
        assert result.verdict is Verdict.UNKNOWN
        assert _frames_of(checker) == 0


if __name__ == "__main__":
    json.dump(stream_digests(), sys.stdout, indent=1)
