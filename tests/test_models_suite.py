"""Suite builder tests: 234 instances, ground truth spot checks."""

import random

import pytest

from repro.bmc import BmcSession
from repro.models import FAMILIES, build_suite, suite_summary
from repro.sat.types import SolveResult


@pytest.fixture(scope="module")
def suite():
    return build_suite()


def test_exactly_234_instances(suite):
    assert len(suite) == 234


def test_thirteen_families_all_represented(suite):
    assert len(FAMILIES) == 13
    families = {inst.family for inst in suite}
    assert families == set(FAMILIES)


def test_mix_of_sat_and_unsat(suite):
    sat = sum(1 for i in suite if i.expected is True)
    unsat = sum(1 for i in suite if i.expected is False)
    assert sat >= 30 and unsat >= 30
    assert sat + unsat == len(suite)      # every instance has ground truth


def test_instance_names_unique(suite):
    names = [i.name for i in suite]
    assert len(names) == len(set(names))


def test_bounds_are_positive_sane(suite):
    assert all(0 <= i.k <= 128 for i in suite)


def test_summary_shape(suite):
    summary = suite_summary(suite)
    assert sum(row["instances"] for row in summary.values()) == 234


def test_ground_truth_spot_check(suite):
    """Verify a random sample of instances against SAT-BMC."""
    rng = random.Random(0)
    for inst in rng.sample(suite, 25):
        with BmcSession(inst.system,
                        properties={"target": inst.final}) as session:
            result = session.check(inst.k, method="sat-unroll")
        want = SolveResult.SAT if inst.expected else SolveResult.UNSAT
        assert result.status is want, inst.name


def test_deterministic_construction():
    a = build_suite()
    b = build_suite()
    assert [i.name for i in a] == [i.name for i in b]
    assert [i.k for i in a] == [i.k for i in b]
