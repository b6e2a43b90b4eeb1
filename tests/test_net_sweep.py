"""The parallel sweep executor, cross-run memo, and witness guidance.

Three property suites pin the PR 3 guarantees:

* **determinism** — the parallel sweep returns an observation list
  identical, observation for observation, to the serial sweep for
  workers ∈ {1, 2, 4} (same seeds, same runs, just concurrent);
* **memo transparency** — a tracker pre-seeded with a warm
  :class:`~repro.net.convergence.ConvergenceMemo` produces verdicts
  equal to a fresh tracker's at every checkpoint of a random schedule
  prefix (certificates are pure functions of the transducer);
* **witness guidance soundness** — witness-guided runs reach the same
  fixpoint output as fair runs on batchable transducers (it is just
  another fair schedule).
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import calm_verdict
from repro.core import (
    relay_identity_transducer,
    transitive_closure_transducer,
)
from repro.db import Fact, Instance, schema
from repro.net import (
    ConvergenceMemo,
    ConvergenceTracker,
    SweepEngine,
    check_consistency,
    check_coordination_free_on,
    computed_output,
    deliver,
    heartbeat,
    initial_configuration,
    line,
    random_partition,
    ring,
    run_fair,
    run_witness_guided,
    sample_partitions,
    star,
    sweep_runs,
)
from repro.net.convergence import resolve_memo

S2 = schema(S=2)
S1 = schema(S=1)
GRAPH = Instance(S2, [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))])
ELEMENTS = Instance(S1, [Fact("S", (1,)), Fact("S", (2,)), Fact("S", (3,))])
TC = transitive_closure_transducer()
RELAY = relay_identity_transducer()

_NETWORKS = [line(2), line(3), ring(3), star(4)]


# ---------------------------------------------------------------------------
# Executor mechanics
# ---------------------------------------------------------------------------


def _double(context, item):
    return (context, item * 2)


class TestSweepEngine:
    def test_lifetime_resolution(self):
        assert SweepEngine(workers=1).lifetime == "serial"
        assert SweepEngine(workers=4, lifetime="serial").lifetime == "serial"
        # the *default* path quietly resolves workers=1 to serial ...
        assert SweepEngine(workers=1, lifetime=None).lifetime == "serial"
        assert not SweepEngine(workers=1).parallel

    def test_explicit_lifetime_with_one_worker_rejected(self):
        # ... but an explicitly requested parallel lifetime that
        # cannot parallelize is a misconfiguration, not a preference.
        for lifetime in ("fork", "persistent"):
            with pytest.raises(ValueError, match="workers=1"):
                SweepEngine(workers=1, lifetime=lifetime)

    def test_explicit_lifetime_without_fork_rejected(self, monkeypatch):
        from repro.net import executor as executor_module

        monkeypatch.setattr(executor_module, "_fork_context", lambda: None)
        for lifetime in ("fork", "persistent"):
            with pytest.raises(ValueError, match="fork"):
                SweepEngine(workers=2, lifetime=lifetime)
        # the default path still degrades quietly
        assert SweepEngine(workers=2, lifetime=None).lifetime == "serial"

    def test_unknown_lifetime_rejected(self):
        with pytest.raises(ValueError):
            SweepEngine(workers=2, lifetime="threads")

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_map_preserves_item_order(self, workers):
        engine = SweepEngine(workers=workers)
        items = list(range(17))
        assert engine.map(_double, "ctx", items) == [
            ("ctx", i * 2) for i in items
        ]

    @pytest.mark.parametrize("lifetime", ["serial", "fork", "persistent"])
    def test_every_lifetime_maps_in_order(self, lifetime):
        with SweepEngine(workers=2, lifetime=lifetime) as engine:
            items = list(range(9))
            assert engine.map(_double, "ctx", items) == [
                ("ctx", i * 2) for i in items
            ]


class TestResolveMemo:
    def test_resolve_memo(self):
        td = relay_identity_transducer()
        assert resolve_memo(None, td) is None
        assert resolve_memo(False, td) is None
        memo = ConvergenceMemo()
        assert resolve_memo(memo, td) is memo
        created = resolve_memo(True, td)
        assert isinstance(created, ConvergenceMemo)
        assert td.convergence_memo is created
        assert resolve_memo(True, td) is created  # stable across calls
        with pytest.raises(TypeError):
            resolve_memo(42, td)


class TestConvergenceMemo:
    def test_merge_and_counters(self):
        a = ConvergenceMemo()
        a.record("k1", "v1")
        b = ConvergenceMemo()
        b.record("k1", "v1")
        b.record("k2", "v2")
        assert a.merge(b) == 1
        assert len(a) == 2
        assert a.get("k2") == "v2"
        assert a.get("missing") is None
        assert (a.memo_hits, a.memo_misses) == (1, 1)
        a.add_counts(5, 7)
        assert (a.memo_hits, a.memo_misses) == (6, 8)
        assert a.stats()["entries"] == 2

    def test_journal(self):
        memo = ConvergenceMemo()
        memo.record("before", 1)
        memo.start_journal()
        memo.record("after", 2)
        assert memo.drain_new() == {"after": 2}
        assert memo.drain_new() == {}
        assert len(memo) == 2  # entries keep everything

    def test_single_task_mp_sweep_keeps_parent_memo_clean(self):
        # Regression: a one-task sweep through a fork-lifetime engine
        # must take the in-process path with the *serial* bookkeeping —
        # the worker-side journal/counter shipping would double-count
        # on the shared memo and leave its journal enabled forever.
        partition = sample_partitions(GRAPH, line(2), 1)[0]
        baseline = ConvergenceMemo()
        sweep_runs(line(2), TC, [partition], (0,), memo=baseline)
        memo = ConvergenceMemo()
        sweep_runs(
            line(2), TC, [partition], (0,),
            engine=SweepEngine(workers=2, lifetime="fork"), memo=memo,
        )
        assert memo._new is None  # journal never enabled in-parent
        assert (memo.memo_hits, memo.memo_misses) == (
            baseline.memo_hits, baseline.memo_misses
        )
        assert len(memo) == len(baseline)


# ---------------------------------------------------------------------------
# Determinism: parallel sweep == serial sweep
# ---------------------------------------------------------------------------

values = st.integers(min_value=0, max_value=3)


@st.composite
def sweep_cases(draw):
    pairs = draw(st.lists(st.tuples(values, values), min_size=1, max_size=5))
    network = draw(st.sampled_from([line(2), line(3), ring(3)]))
    seed = draw(st.integers(0, 50))
    return Instance(S2, [Fact("S", p) for p in pairs]), network, seed


class TestParallelSweepDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(sweep_cases(), st.sampled_from([1, 2, 4]))
    def test_parallel_equals_serial(self, case, workers):
        inst, network, seed = case
        partitions = sample_partitions(inst, network, 3)
        serial = sweep_runs(network, TC, partitions, (seed, seed + 1))
        parallel = sweep_runs(
            network, TC, partitions, (seed, seed + 1),
            engine=SweepEngine(
                workers=workers, lifetime="fork" if workers > 1 else None
            ),
        )
        assert serial == parallel  # observation-for-observation

    @settings(max_examples=4, deadline=None)
    @given(sweep_cases(), st.sampled_from([2, 4]))
    def test_parallel_with_memo_equals_serial(self, case, workers):
        inst, network, seed = case
        partitions = sample_partitions(inst, network, 3)
        serial = sweep_runs(network, TC, partitions, (seed,))
        memo = ConvergenceMemo()
        parallel = sweep_runs(
            network, TC, partitions, (seed,),
            engine=SweepEngine(workers=workers, lifetime="fork"), memo=memo,
        )
        assert serial == parallel

    def test_check_consistency_workers_agree(self):
        serial = check_consistency(line(3), TC, GRAPH, partition_count=3,
                                   seeds=(0, 1))
        parallel = check_consistency(
            line(3), TC, GRAPH, partition_count=3, seeds=(0, 1),
            engine=SweepEngine(workers=2, lifetime="fork"), memo=True,
        )
        assert serial.consistent == parallel.consistent
        assert serial.outputs == parallel.outputs
        assert serial.observations == parallel.observations

    def test_coordination_report_identical_under_workers(self):
        expected = computed_output(line(2), RELAY, ELEMENTS)
        serial = check_coordination_free_on(
            line(2), RELAY, ELEMENTS, expected
        )
        parallel = check_coordination_free_on(
            line(2), RELAY, ELEMENTS, expected,
            engine=SweepEngine(workers=2, lifetime="fork"),
        )
        assert serial.coordination_free == parallel.coordination_free
        assert serial.partitions_tried == parallel.partitions_tried
        assert serial.witness == parallel.witness
        assert serial.exhaustive == parallel.exhaustive


# ---------------------------------------------------------------------------
# Memo transparency: warmed verdicts == fresh verdicts
# ---------------------------------------------------------------------------


def _fair_walk(network, transducer, partition, seed, steps):
    rng = random.Random(seed)
    nodes = network.sorted_nodes()
    config = initial_configuration(network, transducer, partition)
    produced: set = set()
    yield config, frozenset(produced)
    for _ in range(steps):
        node = rng.choice(nodes)
        buffer = config.buffer(node)
        if buffer and rng.random() < 0.75:
            choices = buffer.distinct()
            transition = deliver(
                network, transducer, config, node,
                choices[rng.randrange(len(choices))],
            )
        else:
            transition = heartbeat(network, transducer, config, node)
        config = transition.after
        produced |= transition.output
        yield config, frozenset(produced)


@st.composite
def walk_cases(draw):
    name = draw(st.sampled_from(["relay", "tc"]))
    network = draw(st.sampled_from(_NETWORKS))
    part_seed = draw(st.integers(0, 10))
    seed = draw(st.integers(0, 500))
    steps = draw(st.integers(0, 18))
    transducer, inst = {
        "relay": (RELAY, ELEMENTS),
        "tc": (TC, GRAPH),
    }[name]
    partition = random_partition(inst, network, part_seed)
    return transducer, network, partition, seed, steps


class TestMemoWarmedVerdicts:
    @settings(max_examples=20, deadline=None)
    @given(walk_cases())
    def test_warm_tracker_equals_fresh_tracker(self, case):
        transducer, network, partition, seed, steps = case
        # Warm a memo with one full run plus the walk itself.
        memo = ConvergenceMemo()
        run_fair(network, transducer, partition, seed=seed, memo=memo)
        warmup = ConvergenceTracker(network, transducer, memo=memo)
        for config, produced in _fair_walk(
            network, transducer, partition, seed, steps
        ):
            warmup.check(config, produced)
        # Fresh tracker vs memo-warmed tracker, same checkpoints.
        fresh = ConvergenceTracker(network, transducer)
        warmed = ConvergenceTracker(network, transducer, memo=memo)
        for config, produced in _fair_walk(
            network, transducer, partition, seed, steps
        ):
            assert warmed.check(config, produced) == fresh.check(
                config, produced
            )

    def test_memo_counts_hits_on_second_sweep(self):
        td = transitive_closure_transducer()
        first = check_consistency(line(3), td, GRAPH, partition_count=3,
                                  seeds=(0, 1), memo=True)
        second = check_consistency(line(3), td, GRAPH, partition_count=3,
                                   seeds=(0, 1), memo=True)
        assert first.memo_misses > 0
        assert second.memo_misses == 0
        assert second.memo_hits > 0
        assert first.outputs == second.outputs

    def test_memo_shared_across_calm_probes(self):
        td = relay_identity_transducer()
        with_memo = calm_verdict(td, ELEMENTS, memo=True)
        assert isinstance(td.convergence_memo, ConvergenceMemo)
        assert td.convergence_memo.memo_hits > 0
        plain = calm_verdict(relay_identity_transducer(), ELEMENTS)
        assert with_memo == plain


# ---------------------------------------------------------------------------
# Witness guidance: same fixpoint as fair runs on batchable transducers
# ---------------------------------------------------------------------------


class TestWitnessGuidedFixpoint:
    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(["relay", "tc"]),
        st.sampled_from(_NETWORKS),
        st.integers(0, 10),
        st.integers(0, 200),
        st.booleans(),
    )
    def test_same_output_as_fair(self, name, network, part_seed, seed, batch):
        transducer, inst = {
            "relay": (RELAY, ELEMENTS),
            "tc": (TC, GRAPH),
        }[name]
        partition = random_partition(inst, network, part_seed)
        fair = run_fair(network, transducer, partition, seed=seed)
        guided = run_witness_guided(
            network, transducer, partition, batch_delivery=batch
        )
        assert fair.converged and guided.converged
        assert guided.output == fair.output
        assert guided.scheduler == "witness-guided"

    def test_works_for_non_batchable_when_unbatched(self):
        # Unbatched witness-guided runs are legal for any transducer;
        # for non-batchable ones different fair schedules may reach
        # different outputs (that is what inconsistency means), so only
        # convergence — not output equality — is asserted here.
        from repro.core import first_element_transducer

        td = first_element_transducer()
        partition = random_partition(ELEMENTS, line(2), 0)
        guided = run_witness_guided(line(2), td, partition)
        assert guided.converged
        assert len(guided.output) == 1
