"""Monotonicity checks — the hinge of the CALM property."""

import pytest

from repro.db import instance, schema
from repro.lang import (
    DatalogQuery,
    FOQuery,
    check_monotone_empirical,
    check_monotone_pair,
    find_monotonicity_counterexample,
    random_instance,
)
from repro.analysis.static import analyze_query
import random


@pytest.fixture
def s2():
    return schema(S=2)


def _certified_monotone(q):
    return analyze_query(q).certifies("monotone")


class TestSyntacticCertificates:
    def test_positive_fo_certified(self, s2):
        q = FOQuery.parse("S(x, y) | (exists z: S(x, z) & S(z, y))", "x, y", s2)
        assert _certified_monotone(q)

    def test_negative_fo_not_certified(self, s2):
        q = FOQuery.parse("S(x, y) & ~S(y, x)", "x, y", s2)
        assert not _certified_monotone(q)

    def test_datalog_certified(self, s2):
        q = DatalogQuery.parse(
            "T(x, y) :- S(x, y). T(x, y) :- S(x, z), T(z, y).", "T", s2
        )
        assert _certified_monotone(q)


class TestPairCheck:
    def test_monotone_pair_holds(self, s2):
        q = FOQuery.parse("S(x, y)", "x, y", s2)
        small = instance(s2, S=[(1, 2)])
        big = instance(s2, S=[(1, 2), (2, 3)])
        assert check_monotone_pair(q, small, big)

    def test_nonmonotone_pair_fails(self, s2):
        q = FOQuery.parse("S(x, y) & ~S(y, x)", "x, y", s2)
        small = instance(s2, S=[(1, 2)])
        big = instance(s2, S=[(1, 2), (2, 1)])
        assert not check_monotone_pair(q, small, big)

    def test_requires_containment(self, s2):
        q = FOQuery.parse("S(x, y)", "x, y", s2)
        a = instance(s2, S=[(1, 2)])
        b = instance(s2, S=[(2, 3)])
        with pytest.raises(ValueError):
            check_monotone_pair(q, a, b)


class TestRandomSearch:
    def test_finds_counterexample_for_emptiness(self, s2):
        q = FOQuery.parse("not (exists x, y: S(x, y))", "", s2)
        found = find_monotonicity_counterexample(q, (1, 2), trials=100)
        assert found is not None
        small, big = found
        assert small.issubset(big)
        assert not check_monotone_pair(q, small, big)

    def test_no_counterexample_for_tc(self, s2):
        q = DatalogQuery.parse(
            "T(x, y) :- S(x, y). T(x, y) :- S(x, z), T(z, y).", "T", s2
        )
        assert check_monotone_empirical(q, (1, 2, 3), trials=50)

    def test_finds_counterexample_for_difference(self):
        sch = schema(A=1, B=1)
        q = FOQuery.parse("A(x) & ~B(x)", "x", sch)
        assert find_monotonicity_counterexample(q, (1, 2), trials=200) is not None


class TestRandomInstances:
    def test_random_instance_within_schema_and_domain(self, s2):
        rng = random.Random(0)
        inst = random_instance(s2, (1, 2, 3), rng, density=0.5)
        for f in inst.facts():
            assert f.relation == "S"
            assert all(v in (1, 2, 3) for v in f.values)

    def test_density_extremes(self, s2):
        rng = random.Random(0)
        assert len(random_instance(s2, (1, 2), rng, density=0.0)) == 0
        assert len(random_instance(s2, (1, 2), rng, density=1.0)) == 4

    def test_reproducible_by_seed(self, s2):
        a = random_instance(s2, (1, 2, 3), random.Random(7))
        b = random_instance(s2, (1, 2, 3), random.Random(7))
        assert a == b
