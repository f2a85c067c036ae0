"""Harness tests: budgeted runner, aggregation, reports, experiments."""

import pytest

from repro.harness import (default_budget, format_growth,
                           format_per_family, format_solved_counts,
                           format_table, run_cell, run_matrix,
                           solved_counts)
from repro.harness.experiments import run_e2, run_e3, run_e5, run_e6, run_e7
from repro.models import build_suite
from repro.models.suite import Instance
from repro.models import counter
from repro.sat.types import Budget, SolveResult


@pytest.fixture(scope="module")
def tiny_suite():
    suite = build_suite()
    picked = {}
    for inst in suite:
        if inst.family not in picked and inst.k <= 6:
            picked[inst.family] = inst
    return list(picked.values())


class TestRunner:
    def test_run_cell_correctness_flag(self, tiny_suite):
        cell = run_cell(tiny_suite[0], "sat-unroll", default_budget(0.5))
        assert cell.status is not SolveResult.UNKNOWN
        assert cell.correct is True
        assert cell.solved

    def test_unknown_not_solved(self, tiny_suite):
        # Zero-second budget forces UNKNOWN for any non-trivial query.
        hard = [i for i in tiny_suite if i.k >= 2][0]
        cell = run_cell(hard, "jsat", Budget(max_seconds=0.0))
        assert cell.status is SolveResult.UNKNOWN
        assert not cell.solved

    def test_run_matrix_and_counts(self, tiny_suite):
        results = run_matrix(tiny_suite[:4], ["sat-unroll", "jsat"],
                             budget=default_budget(0.5))
        assert len(results) == 8
        counts = solved_counts(results)
        assert counts["sat-unroll"]["total"] == 4
        assert counts["jsat"]["total"] == 4
        assert counts["sat-unroll"]["solved"] == 4

    def test_method_specific_budgets(self, tiny_suite):
        results = run_matrix(
            tiny_suite[:2], ["sat-unroll", "qbf"],
            budget=default_budget(0.5),
            method_budgets={"qbf": Budget(max_seconds=0.0)})
        qbf_cells = [c for c in results if c.method == "qbf"]
        assert all(c.status is SolveResult.UNKNOWN for c in qbf_cells)

    def test_run_matrix_sweep_mode(self, tiny_suite):
        results = run_matrix(tiny_suite[:4],
                             ["sat-incremental", "sat-unroll"],
                             mode="sweep")
        assert len(results) == 8
        for cell in results:
            assert cell.status is not SolveResult.UNKNOWN
            assert cell.stats["max_k"] == cell.instance.k
            assert 1 <= cell.stats["bounds_checked"] \
                <= cell.instance.k + 1
            if cell.status is SolveResult.SAT:
                # Witness replayed during the run; time-to-cex recorded.
                assert cell.correct is True
                assert cell.stats["shortest_k"] <= cell.instance.k
                assert cell.stats["time_to_cex_ms"] >= 0
        # Both methods agree on the sweep verdicts cell-for-cell.
        half = len(results) // 2
        for a, b in zip(results[:half], results[half:]):
            assert a.instance.name == b.instance.name
            assert a.status is b.status
            assert a.stats.get("shortest_k") == b.stats.get("shortest_k")

    def test_sweep_mode_is_serial_only(self, tiny_suite):
        with pytest.raises(ValueError):
            run_matrix(tiny_suite[:2], ["sat-incremental"], mode="sweep",
                       jobs=2)
        with pytest.raises(ValueError):
            run_matrix(tiny_suite[:2], ["sat-incremental"], mode="sweep",
                       cache="/tmp/never-created")
        with pytest.raises(ValueError):
            run_matrix(tiny_suite[:2], ["sat-incremental"], mode="bogus")


class TestReports:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_solved_counts_report_includes_paper_row(self, tiny_suite):
        results = run_matrix(tiny_suite[:3], ["jsat"],
                             budget=default_budget(0.5))
        text = format_solved_counts(solved_counts(results),
                                    {"jsat": 143, "total": 234})
        assert "jsat" in text and "143" in text

    def test_per_family_report(self, tiny_suite):
        results = run_matrix(tiny_suite[:5], ["jsat"],
                             budget=default_budget(0.5))
        text = format_per_family(results)
        assert "family" in text

    def test_growth_report(self):
        _, text = run_e2(bounds=(1, 2, 4), width=8, rounds=2)
        assert "sat-unroll" in text and "jsat" in text

    def test_sweep_report(self):
        from repro.bmc import BmcSession
        from repro.harness import format_sweep
        system, final, depth = counter.make(4, 9)
        with BmcSession(system, properties={"target": final}) as session:
            swept = session.sweep(depth + 2, method="sat-incremental")
        text = format_sweep(swept)
        assert "clauses reused" in text
        assert f"shortest counterexample: k={depth}" in text
        with BmcSession(system, properties={"target": final}) as session:
            unsat = session.sweep(depth - 1, method="sat-incremental")
        text = format_sweep(unsat)
        assert "no counterexample" in text and "UNSAT" in text


class TestExperiments:
    def test_e3_iteration_shapes(self):
        data, report = run_e3(ring_length=9)
        assert data["linear_found"] and data["squaring_found"]
        assert data["squaring_iterations"] < data["linear_iterations"]
        assert "linear" in report

    def test_e5_qbf_struggles_jsat_does_not(self):
        rows, report = run_e5(max_k=3, budget_seconds=0.5)
        assert all(r["jsat"] in ("SAT", "UNSAT") for r in rows)
        assert "qdpll" in report

    def test_e6_jsat_peak_below_unroll(self):
        rows, _ = run_e6(width=6, bounds=(8, 16))
        for row in rows:
            assert row["jsat_peak"] < row["unroll_peak"]
        # jSAT peak grows much slower than unrolling's.
        assert (rows[1]["unroll_peak"] - rows[0]["unroll_peak"]
                > 4 * (rows[1]["jsat_peak"] - rows[0]["jsat_peak"]))

    def test_e7_ablation_runs(self):
        suite = [i for i in build_suite() if i.k <= 4][:6]
        summary, report = run_e7(instances=suite, budget_scale=0.3)
        assert set(summary) == {"jsat (full)", "jsat -cache",
                                "jsat -Fprune", "jsat -both"}
        assert all(row["solved"] >= 0 for row in summary.values())
        assert "variant" in report
