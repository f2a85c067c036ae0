"""The pluggable backend registry and the stateful session API.

Pins the api_redesign contract:

* all six built-in methods run through the ``Backend`` registry, and
  ``METHODS`` / ``ALL_METHODS`` are live views over it;
* a custom backend registered in a test participates in ``check`` /
  ``sweep`` / ``run_matrix`` / the CLI without editing core modules;
* typed options reject unknown kwargs (the silent-drop bugfix) and
  ``find_reachable`` validates method *and* strategy up front;
* session-held backend state really persists across calls, and the
  ``on_bound`` observer streams per-bound progress.
"""

import pytest

from repro.bmc import (ALL_METHODS, METHODS, Backend, BackendOptions,
                       BmcSession, backend_class, register_backend,
                       registered_backends, unregister_backend)
from repro.bmc.backends import JsatBackend, PortfolioBackend
from repro.models import build_suite, counter, shift_register
from repro.sat.types import Budget, SolveResult
from repro.system.oracle import ExplicitOracle

BUILTINS = ("sat-unroll", "sat-incremental", "qbf", "qbf-squaring",
            "jsat", "k-induction", "interpolation", "diameter",
            "simulation", "portfolio")


# ----------------------------------------------------------------------
# A complete external backend in ~20 lines: explicit-state enumeration.
# ----------------------------------------------------------------------
import dataclasses


@dataclasses.dataclass(frozen=True)
class ToyOptions(BackendOptions):
    max_states: int = 4096


class ToyOracleBackend(Backend):
    """Decides reachability by explicit-state enumeration."""

    options_class = ToyOptions
    native_incremental = True      # the oracle persists across calls

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._oracle = None
        self.calls = 0

    @property
    def oracle(self):
        if self._oracle is None:
            self._oracle = ExplicitOracle(self.system)
        return self._oracle

    def check(self, k, semantics="exact", budget=None):
        self.calls += 1
        if semantics == "exact":
            sat = self.oracle.reachable_in_exactly(self.final, k)
        else:
            sat = self.oracle.reachable_within(self.final, k)
        status = SolveResult.SAT if sat else SolveResult.UNSAT
        return self.result(status, None, k, {"oracle_calls": self.calls})


@pytest.fixture
def toy_backend():
    register_backend("toy-oracle")(ToyOracleBackend)
    try:
        yield "toy-oracle"
    finally:
        unregister_backend("toy-oracle")


# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert tuple(ALL_METHODS) == BUILTINS
        assert tuple(METHODS) == BUILTINS[:-1]     # portfolio is composite

    def test_views_behave_like_tuples(self):
        assert "jsat" in METHODS
        assert METHODS[0] == "sat-unroll"
        assert len(ALL_METHODS) == len(METHODS) + 1
        assert METHODS + ("portfolio",) == tuple(ALL_METHODS)
        assert METHODS == tuple(METHODS)

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            backend_class("magic")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("jsat")(ToyOracleBackend)
        # ... unless replace is explicit.
        original = backend_class("jsat")
        try:
            register_backend("jsat", replace=True)(ToyOracleBackend)
            assert backend_class("jsat") is ToyOracleBackend
        finally:
            register_backend("jsat", replace=True)(original)
        assert backend_class("jsat") is original

    def test_non_backend_rejected(self):
        with pytest.raises(TypeError):
            register_backend("bogus")(object)

    def test_capability_flags(self):
        backends = registered_backends()
        assert backends["sat-incremental"].native_incremental
        assert backends["jsat"].native_incremental
        assert not backends["sat-unroll"].native_incremental
        assert backends["portfolio"].composite
        assert backend_class("jsat") is JsatBackend
        assert backend_class("portfolio") is PortfolioBackend

    def test_custom_backend_appears_in_views(self, toy_backend):
        assert toy_backend in METHODS
        assert toy_backend in ALL_METHODS
        unregister_backend(toy_backend)
        assert toy_backend not in METHODS

    def test_alias_registration_keeps_both_names(self, toy_backend):
        # Registering the same class under a second name must not
        # relabel the first registration's results.
        register_backend("toy-alias")(ToyOracleBackend)
        try:
            system, final, depth = counter.make(3, 5)
            with BmcSession(system, properties={"target": final}) as session:
                a = session.check(depth, method=toy_backend)
                b = session.check(depth, method="toy-alias")
            assert a.method == toy_backend
            assert b.method == "toy-alias"
            assert a.status is b.status is SolveResult.SAT
        finally:
            unregister_backend("toy-alias")


# ----------------------------------------------------------------------
class TestOptionsStrictness:
    def test_typo_raises_with_hint(self):
        system, final, _ = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            with pytest.raises(TypeError,
                               match="polarity_reducton.*did you mean"):
                session.check(2, method="sat-unroll",
                              polarity_reducton=True)

    def test_option_of_other_method_rejected(self):
        system, final, _ = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            with pytest.raises(TypeError, match="unknown option"):
                session.check(2, method="sat-unroll", use_cache=False)
            # The same key is fine where it belongs.
            result = session.check(2, method="jsat", use_cache=False)
            assert result.status is not None

    def test_shims_reject_unknown_options_too(self):
        # Regression: these used to be silently dropped.
        system, final, _ = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            with pytest.raises(TypeError):
                session.check(2, method="jsat", f_prunning=True)
            with pytest.raises(TypeError):
                session.sweep(2, method="sat-incremental",
                              purge_intervall=2)
            with pytest.raises(TypeError):
                session.find_reachable(2, method="sat-unroll",
                                       polarty_reduction=False)

    def test_legacy_qbf_backend_kwarg_still_works(self):
        system, final, _ = shift_register.make(3)
        with BmcSession(system, properties={"target": final}) as session:
            result = session.check(2, method="qbf",
                                   qbf_backend="expansion",
                                   budget=Budget(max_seconds=5.0))
        assert result.status in (SolveResult.SAT, SolveResult.UNKNOWN)

    def test_portfolio_broadcast_options_still_work(self):
        # Old API allowed flat kwargs shared across raced methods; each
        # method takes the keys its options class declares.  Keys no
        # raced method declares still raise.
        system, final, depth = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            result = session.check(depth, method="portfolio",
                                   portfolio_methods=("jsat",
                                                      "sat-unroll"),
                                   use_cache=False,
                                   budget=Budget(max_seconds=10.0))
            assert result.status is SolveResult.SAT
            with pytest.raises(TypeError, match="use_cach"):
                session.check(depth, method="portfolio",
                              portfolio_methods=("jsat",),
                              use_cach=False)

    def test_portfolio_own_option_typo_gets_hint(self):
        # Regression: a near-miss of one of portfolio's OWN options
        # used to fold into shared_options and surface as a confusing
        # "not accepted by any raced method" error at check time.
        system, final, depth = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            with pytest.raises(TypeError,
                               match="wall_timout.*did you mean "
                                     "'wall_timeout'"):
                session.check(depth, method="portfolio",
                              wall_timout=5.0)

    def test_portfolio_method_options_validated_up_front(self):
        # Regression: a typo'd per-method override used to fail inside
        # one worker process, silently reducing the race to the other
        # contenders; now it raises in the parent before any fork.
        from repro.portfolio.race import race
        system, final, depth = counter.make(3, 5)
        with pytest.raises(TypeError, match="use_cach.*did you mean"):
            race(system, final, depth,
                 methods=("jsat", "sat-unroll"),
                 method_options={"jsat": {"use_cach": False}})
        with pytest.raises(ValueError, match="not among the methods"):
            race(system, final, depth,
                 methods=("jsat", "sat-unroll"),
                 method_options={"qbf": {"qbf_backend": "qdpll"}})

    def test_run_matrix_broadcasts_options_per_method(self):
        # Regression: run_matrix(["sat-unroll", "jsat"], use_cache=...)
        # is 0.2-era usage (each method takes the keys its options
        # class accepts); strict per-method validation must not reject
        # the broadcast, only keys NO listed method accepts.
        from repro.harness.runner import run_matrix
        suite = [i for i in build_suite() if i.family == "counter"][:2]
        results = run_matrix(suite, ["sat-unroll", "jsat"],
                             use_cache=False)
        assert len(results) == 2 * len(suite)
        assert all(c.correct is not False for c in results)
        with pytest.raises(TypeError, match="use_cach"):
            run_matrix(suite, ["sat-unroll", "jsat"], use_cach=False)

    def test_fan_out_with_portfolio_still_rejects_unknown_keys(self):
        # Regression: portfolio accepting every broadcast key would
        # let a typo through the up-front matrix validation whenever
        # "portfolio" is among the methods, deferring the error to a
        # worker (where it silently degrades cells to UNKNOWN).
        from repro.bmc.backend import fan_out_options
        with pytest.raises(TypeError, match="use_cach"):
            fan_out_options(["jsat", "portfolio"], {"use_cach": False})
        out = fan_out_options(["jsat", "portfolio"],
                              {"use_cache": False})
        assert out["jsat"] == {"use_cache": False}
        # The composite forwards the key to its raced methods.
        assert out["portfolio"] == {"use_cache": False}

    def test_naive_sweep_records_per_bound_seconds(self):
        # Regression: the default (naive) Backend.sweep must time each
        # bound itself — backend.check does not stamp seconds.
        system, final, depth = counter.make(4, 9)
        with BmcSession(system, properties={"target": final}) as session:
            swept = session.sweep(depth, method="sat-unroll")
        assert len(swept.per_bound) > 1
        assert all(b.seconds > 0.0 for b in swept.per_bound)
        assert all(b.cumulative_seconds >= b.seconds
                   for b in swept.per_bound)

    def test_valid_options_still_flow_through(self):
        system, final, depth = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            a = session.check(depth, method="sat-unroll",
                              polarity_reduction=True)
            b = session.check(depth, method="jsat", f_pruning=False,
                              use_cache=False)
        assert a.status is SolveResult.SAT
        assert b.status is SolveResult.SAT


# ----------------------------------------------------------------------
class TestUpFrontValidation:
    def test_find_reachable_unknown_method(self):
        # Regression: a bad method used to fail deep inside the
        # per-bound dispatch ladder; now it raises before any solving.
        system, final, _ = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            with pytest.raises(ValueError, match="unknown method"):
                session.find_reachable(3, method="magic")

    def test_find_reachable_unknown_strategy(self):
        system, final, _ = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            with pytest.raises(ValueError, match="unknown strategy"):
                session.find_reachable(3, strategy="zigzag")

    def test_shim_validates_method_and_strategy(self):
        system, final, _ = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            with pytest.raises(ValueError, match="unknown method"):
                session.find_reachable(3, method="magic",
                                       strategy="zigzag")
            with pytest.raises(ValueError, match="unknown strategy"):
                session.find_reachable(3, strategy="zigzag")

    def test_negative_bounds_rejected(self):
        system, final, _ = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            with pytest.raises(ValueError):
                session.check(-1)
            with pytest.raises(ValueError):
                session.sweep(-1)

    def test_closed_session_refuses_work(self):
        system, final, _ = counter.make(3, 5)
        session = BmcSession(system, properties={"target": final})
        session.close()
        with pytest.raises(RuntimeError):
            session.check(1)


# ----------------------------------------------------------------------
class TestCustomBackendEndToEnd:
    def test_through_session_check_and_sweep(self, toy_backend):
        system, final, depth = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            result = session.check(depth, method=toy_backend)
            assert result.status is SolveResult.SAT
            assert result.method == toy_backend
            swept = session.sweep(depth + 2, method=toy_backend)
            assert swept.shortest_k == depth
            assert swept.method == toy_backend
            # One oracle instance served every bound of the sweep.
            assert session.backend(toy_backend).calls >= depth + 1

    def test_typed_options_apply_to_custom_backend(self, toy_backend):
        system, final, depth = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            backend = session.backend(toy_backend, max_states=99)
            assert backend.options.max_states == 99
            with pytest.raises(TypeError, match="max_stats"):
                session.check(1, method=toy_backend, max_stats=1)

    def test_through_run_matrix(self, toy_backend):
        from repro.harness.runner import run_matrix, solved_counts
        instances = [i for i in build_suite() if i.k <= 4][:3]
        results = run_matrix(instances, [toy_backend, "sat-unroll"])
        assert len(results) == 6
        counts = solved_counts(results)
        assert counts[toy_backend]["total"] == 3
        # The oracle and the SAT encoding agree cell for cell.
        by_method = {}
        for cell in results:
            by_method.setdefault(cell.method, []).append(cell.status)
        assert by_method[toy_backend] == by_method["sat-unroll"]

    def test_through_cli(self, toy_backend, capsys):
        from repro.cli import main
        assert main(["bmc", "counter", "-k", "3",
                     "--method", toy_backend]) == 0
        out = capsys.readouterr().out
        assert toy_backend in out
        assert "oracle_calls" in out

    def test_cli_backends_listing(self, toy_backend, capsys):
        from repro.cli import main
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in BUILTINS:
            assert name in out
        assert toy_backend in out
        assert "max_states" in out

    def test_cli_backends_listing_handles_factory_defaults(self, capsys):
        # Regression: a default_factory field used to render as the
        # dataclasses MISSING sentinel in the `repro backends` table.
        from repro.cli import main

        @dataclasses.dataclass(frozen=True)
        class FactoryOptions(BackendOptions):
            extras: tuple = dataclasses.field(default_factory=tuple)

        class FactoryBackend(ToyOracleBackend):
            options_class = FactoryOptions

        register_backend("toy-factory")(FactoryBackend)
        try:
            assert main(["backends"]) == 0
            out = capsys.readouterr().out
            assert "extras=()" in out
            assert "MISSING" not in out
        finally:
            unregister_backend("toy-factory")

    def test_custom_backends_rejected_for_spawn_workers(self, toy_backend):
        # Fork workers inherit the registry; spawned workers re-import
        # repro with only the built-ins, so a custom method must be
        # rejected in the parent instead of killing every worker.
        import multiprocessing
        from repro.portfolio.race import ensure_methods_spawnable
        spawn = multiprocessing.get_context("spawn")
        with pytest.raises(ValueError, match="custom backend"):
            ensure_methods_spawnable([toy_backend], spawn)
        ensure_methods_spawnable(["jsat", "sat-unroll"], spawn)
        fork = multiprocessing.get_context("fork")
        ensure_methods_spawnable([toy_backend], fork)

    def test_through_shims(self, toy_backend):
        system, final, depth = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            result = session.check(depth, method=toy_backend)
            assert result.status is SolveResult.SAT
            hit, history = session.find_reachable(depth + 1,
                                                  method=toy_backend)
            assert hit is not None and hit.k == depth


# ----------------------------------------------------------------------
class TestSessionState:
    def test_incremental_state_persists_across_checks(self):
        system, final, depth = counter.make(4, 9)
        with BmcSession(system, properties={"target": final}) as session:
            first = session.check(depth - 1, method="sat-incremental")
            second = session.check(depth, method="sat-incremental")
        # The second query reuses the first's clause database instead
        # of re-encoding from scratch.
        assert second.stats["clauses_reused"] \
            > first.stats["clauses_reused"]

    def test_incremental_lower_bound_recheck_is_sound(self):
        # Regression: frames beyond k are asserted unconditionally in
        # the persistent driver, so a session check at a bound LOWER
        # than an earlier one used to return spurious UNSAT when the
        # witness ends in a deadlock state (non-total TR).
        from repro.logic import expr as ex
        from repro.system.model import TransitionSystem
        a = ex.var("a")
        deadlock = TransitionSystem(
            state_vars=["a"], init=~a, trans=~a & ex.var("a'"),
            name="deadlock")
        with BmcSession(deadlock, properties={"target": a}) as session:
            assert session.check(3, method="sat-incremental").status \
                is SolveResult.UNSAT
            low = session.check(1, method="sat-incremental")
            assert low.status is SolveResult.SAT
            low.trace.validate(deadlock, a)
            swept = session.sweep(2, method="sat-incremental")
            assert swept.shortest_k == 1

    def test_jsat_nogood_cache_persists(self):
        system, final, _ = shift_register.make_invariant_violation(4)
        with BmcSession(system, properties={"target": final}) as session:
            session.check(3, method="jsat")
            backend = session.backend("jsat")
            cached = backend.solver("exact").cache_size()
            assert cached > 0
            second = session.check(3, method="jsat")
            # Same solver instance, cache intact.
            assert second.stats["cache_entries"] >= cached

    def test_distinct_options_get_distinct_instances(self):
        system, final, _ = counter.make(3, 5)
        with BmcSession(system, properties={"target": final}) as session:
            a = session.backend("jsat", use_cache=True)
            b = session.backend("jsat", use_cache=False)
            again = session.backend("jsat", use_cache=True)
        assert a is not b
        assert a is again

    def test_close_releases_backends(self):
        system, final, _ = counter.make(3, 5)
        session = BmcSession(system, properties={"target": final})
        session.check(2, method="sat-incremental")
        backend = session.backend("sat-incremental")
        assert backend._inc is not None
        session.close()
        assert backend._inc is None


# ----------------------------------------------------------------------
class TestObserver:
    def test_on_bound_streams_sweep_progress(self):
        system, final, depth = counter.make(4, 6)
        seen = []
        with BmcSession(system, properties={"target": final}) as session:
            swept = session.sweep(depth + 2, method="sat-incremental",
                                  on_bound=seen.append)
        assert [b.k for b in seen] == [b.k for b in swept.per_bound]
        assert seen[-1].status is SolveResult.SAT
        assert all(b.status is SolveResult.UNSAT for b in seen[:-1])

    def test_session_level_observer_and_override(self):
        system, final, depth = counter.make(3, 5)
        session_seen, call_seen = [], []
        with BmcSession(system, properties={"target": final},
                        on_bound=session_seen.append) as session:
            session.sweep(depth, method="jsat")
            assert len(session_seen) == depth + 1
            session.sweep(depth, method="jsat",
                          on_bound=call_seen.append)
        assert len(session_seen) == depth + 1    # override, not both
        assert len(call_seen) == depth + 1

    def test_find_reachable_streams_bounds(self):
        system, final, depth = shift_register.make(5)
        seen = []
        with BmcSession(system, properties={"target": final}) as session:
            hit, history = session.find_reachable(
                depth + 2, method="jsat", on_bound=seen.append)
        assert hit is not None
        assert [b.k for b in seen] == list(range(depth + 1))
        assert len(seen) == len(history)
