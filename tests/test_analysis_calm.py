"""The CALM harness: diagnostics line up with Corollary 13/17."""


from repro.analysis import CalmVerdict, ComputedQuery, calm_verdict
from repro.core import (
    emptiness_transducer,
    ping_identity_transducer,
    transitive_closure_transducer,
)
from repro.db import Instance, instance, schema
from repro.net import RunCache, RunOptions


class TestComputedQuery:
    def test_tc_computed_query(self):
        q = ComputedQuery(transitive_closure_transducer())
        I = instance(schema(S=2), S=[(1, 2), (2, 3)])
        assert q(I) == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_emptiness_computed_query(self):
        q = ComputedQuery(emptiness_transducer())
        assert q(Instance.empty(schema(S=1))) == frozenset({()})
        assert q(instance(schema(S=1), S=[(1,)])) == frozenset()

    def test_arity_comes_from_transducer(self):
        q = ComputedQuery(transitive_closure_transducer())
        assert q.arity == 2


class TestCalmVerdicts:
    def test_tc_verdict(self):
        I = instance(schema(S=2), S=[(1, 2)])
        verdict = calm_verdict(
            transitive_closure_transducer(), I, monotonicity_trials=10
        )
        assert verdict.oblivious
        assert verdict.inflationary
        assert verdict.coordination_free
        assert verdict.computed_query_monotone
        assert verdict.consistent_with_calm()

    def test_emptiness_verdict(self):
        I = Instance.empty(schema(S=1))
        verdict = calm_verdict(
            emptiness_transducer(), I, monotonicity_trials=15
        )
        assert not verdict.oblivious
        assert verdict.uses_id and verdict.uses_all
        assert not verdict.coordination_free
        assert not verdict.computed_query_monotone
        assert verdict.consistent_with_calm()

    def test_ping_verdict_matches_theorem16(self):
        """No Id ⇒ monotone, even though not coordination-free (Ex. 15)."""
        I = instance(schema(S=1), S=[(1,)])
        verdict = calm_verdict(
            ping_identity_transducer(), I, monotonicity_trials=15
        )
        assert not verdict.uses_id
        assert verdict.uses_all
        assert not verdict.coordination_free
        assert verdict.computed_query_monotone  # Theorem 16
        assert verdict.consistent_with_calm()

    def test_options_reach_every_fair_run(self):
        # The NTI probe runs under the same options as the reference
        # evaluations: no cell of a batched diagnostic runs unbatched.
        I = instance(schema(S=2), S=[(1, 2), (2, 3)])
        cache = RunCache()
        verdict = calm_verdict(
            transitive_closure_transducer(), I, monotonicity_trials=10,
            options=RunOptions(batch_delivery=True), run_cache=cache,
        )
        assert verdict.coordination_free and verdict.topology_independent
        cells = [
            dict(key[5]) for key in cache.entries if key[0] == "fair-random"
        ]
        assert cells
        assert all(kw["batch_delivery"] is True for kw in cells)

    def test_consistency_logic(self):
        bad = CalmVerdict(
            name="impossible",
            oblivious=True,
            inflationary=True,
            monotone_queries=True,
            uses_id=False,
            uses_all=False,
            coordination_free=False,
            computed_query_monotone=True,
        )
        assert not bad.consistent_with_calm()
        bad2 = CalmVerdict(
            name="impossible2",
            oblivious=False,
            inflationary=False,
            monotone_queries=False,
            uses_id=False,
            uses_all=True,
            coordination_free=None,
            computed_query_monotone=False,
        )
        assert not bad2.consistent_with_calm()  # Theorem 16 violated
