"""End-to-end integration: the paper's main storyline, executed.

These tests cross module boundaries deliberately: languages feed
transducers, transducers run on networks, semantic checkers judge the
runs, and the CALM triangle closes.
"""

import pytest

from repro.analysis import calm_verdict
from repro.core import (
    collect_then_apply_transducer,
    continuous_apply_transducer,
    datalog_to_transducer,
    transducer_to_datalog,
    transitive_closure_transducer,
)
from repro.db import Instance, instance, schema
from repro.lang import DatalogProgram, DatalogQuery, FOQuery
from repro.lang.monotone import instance_pairs
from repro.net import (
    RunOptions,
    check_consistency,
    check_coordination_free_on,
    check_topology_independence,
    computed_output,
    line,
    ring,
    run_fair,
    sample_partitions,
    single,
    star,
)

#: A longer step budget for the coordination-heavy collect-then-apply runs.
LONG = RunOptions(max_steps=100_000)


class TestTheorem12Empirically:
    """Coordination-free ⇒ monotone, on the transducer zoo."""

    def test_tc_transducer(self):
        t = transitive_closure_transducer()
        net = line(2)
        I = instance(schema(S=2), S=[(1, 2)])
        expected = computed_output(net, t, I)
        assert check_coordination_free_on(net, t, I, expected).coordination_free
        # now monotonicity of the computed query over sampled pairs
        from repro.analysis import ComputedQuery

        q = ComputedQuery(t, net)
        for small, big in instance_pairs(schema(S=2), (1, 2, 3), 10, seed=1):
            assert q(small) <= q(big)


class TestCorollary13Triangle:
    """monotone query -> oblivious transducer -> coordination-free."""

    def test_monotone_to_oblivious_to_free(self):
        s2 = schema(S=2)
        tc = DatalogQuery.parse(
            "T(x,y) :- S(x,y). T(x,y) :- S(x,z), T(z,y).", "T", s2
        )
        t = continuous_apply_transducer(tc)  # Theorem 6(2): oblivious
        from repro.core import is_oblivious

        assert is_oblivious(t)
        I = instance(s2, S=[(1, 2), (2, 3)])
        net = line(2)
        expected = computed_output(net, t, I)
        assert expected == tc(I)
        # Prop 11: oblivious + NTI => coordination-free (full replication)
        report = check_coordination_free_on(net, t, I, expected,
                                            exhaustive_limit=0)
        assert report.coordination_free


class TestCorollary14Datalog:
    """The Datalog version: Datalog ≡ oblivious UCQ-transducers."""

    def test_round_trip_through_the_network(self):
        s2 = schema(S=2)
        program = DatalogProgram.parse(
            "T(x,y) :- S(x,y). T(x,y) :- S(x,z), T(z,y).", s2
        )
        t = datalog_to_transducer(program, "T")
        back = transducer_to_datalog(t)
        I = instance(s2, S=[(1, 2), (2, 3), (3, 1)])
        # the three semantics agree: direct datalog, network run, recovered
        direct = DatalogQuery(program, "T")(I)
        net = star(4)
        networked = computed_output(net, t, I)
        recovered = back(I)
        assert direct == networked == recovered


class TestTheorem61NonMonotoneNeedsCoordination:
    def test_emptiness_via_collect(self):
        s1 = schema(S=1)
        q = FOQuery.parse("not (exists x: S(x))", "", s1)
        t = collect_then_apply_transducer(q)
        net = line(2)
        empty = Instance.empty(s1)
        nonempty = instance(s1, S=[(1,)])
        assert computed_output(net, t, empty, options=LONG) == frozenset({()})
        assert computed_output(net, t, nonempty, options=LONG) == frozenset()
        # and it relies on coordination: no heartbeat-only partition works
        report = check_coordination_free_on(
            net, t, empty, frozenset({()})
        )
        assert not report.coordination_free

    def test_collect_then_apply_consistent(self):
        s1 = schema(S=1)
        q = FOQuery.parse("not (exists x: S(x))", "", s1)
        t = collect_then_apply_transducer(q)
        I = instance(s1, S=[(1,)])
        report = check_consistency(
            line(2), t, I, partition_count=3, seeds=(0, 1), options=LONG,
        )
        assert report.consistent


class TestFullCalmSweep:
    """calm_verdict is CALM-consistent on the whole example zoo."""

    @pytest.mark.parametrize("factory_name", [
        "example3", "example10", "example15", "section5_ab",
    ])
    def test_zoo(self, factory_name):
        from repro.core import ALL_EXAMPLES

        t = ALL_EXAMPLES[factory_name]()
        input_schema = t.schema.inputs
        # a small nonempty test instance over whatever the inputs are
        facts = {}
        for name in input_schema.relation_names():
            arity = input_schema[name]
            facts[name] = [tuple(range(1, arity + 1))] if arity else []
        I = instance(input_schema, **facts)
        verdict = calm_verdict(t, I, monotonicity_trials=8)
        assert verdict.consistent_with_calm(), verdict


class TestCrossTopologyAgreement:
    def test_tc_output_identical_on_five_topologies(self):
        t = transitive_closure_transducer()
        I = instance(schema(S=2), S=[(1, 2), (2, 3), (3, 4)])
        report = check_topology_independence(
            t,
            I,
            networks=[single(), line(2), line(3), ring(3), star(4)],
            partition_count=2,
            seeds=(0,),
        )
        assert report.independent
        assert len(set(report.per_network.values())) == 1

    def test_partition_sampling_does_not_change_output(self):
        t = transitive_closure_transducer()
        I = instance(schema(S=2), S=[(1, 2), (2, 3)])
        net = ring(3)
        outputs = set()
        for p in sample_partitions(I, net, 6):
            outputs.add(run_fair(net, t, p, seed=0).output)
        assert len(outputs) == 1
