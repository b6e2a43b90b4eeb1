"""Differential conformance of the unified sweep engine.

The engine's contract mirrors how the Canonical Amoebot Model
justifies concurrent executions by reduction to a sequential
reference: every backend must be *bit-identical* to the serial
baseline, and that is enforced here with tests rather than prose.
The same randomized sweep grids are pushed through every

    (lifetime × workers × warm/cold cache × tier configuration)

configuration and compared observation for observation — and, for
:func:`~repro.net.check_consistency`, report field for report field —
against the serial unbounded reference, including mid-sweep eviction
churn (a bounded cache small enough that recording evicts earlier
cells of the *same* grid).  Tier configurations cover the whole
storage hierarchy: unbounded, byte-bounded, byte-bounded with a
sqlite disk tier below (eviction demotes, memory misses promote), and
a disk tier below a budget smaller than any one result (every record
demotes at once, every warm cell is served from disk unpromoted);
parallel lifetimes additionally exercise the shared worker tier
(read-mostly views + merged deltas).

Also pinned here, per the executor-fusion acceptance criteria:

* the three hand-rolled cached/pending splice loops are gone — every
  sweep routes through the one shared
  :class:`~repro.net.executor.CacheSplice` helper;
* ``engine=`` is the one executor argument of every sweep entry
  point, and ``options=`` (a ``RunOptions``) the one carrier of the
  run knobs of every fair-run entry point;
* early-exiting a partially consumed probe search (witness found with
  candidates still unprobed) still drains and joins the worker pool —
  the leak-detection tests count live children before and after.
"""

import inspect
import multiprocessing
import os
import tempfile

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
    LIFETIMES,
    FaultPlan,
    RunCache,
    RunOptions,
    SweepEngine,
    check_consistency,
    check_coordination_free_on,
    computed_output,
    line,
    ring,
    sample_partitions,
    sweep_runs,
)

S2 = schema(S=2)
S1 = schema(S=1)
GRAPH = Instance(S2, [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))])
ELEMENTS = Instance(S1, [Fact("S", (1,)), Fact("S", (2,)), Fact("S", (3,))])
TC = transitive_closure_transducer()
RELAY = relay_identity_transducer()

# The execution matrix: every lifetime, workers ∈ {1, 2}.  Explicit
# parallel lifetimes require workers > 1 by design (the strictness is
# pinned below), so their workers=1 points are covered by the auto
# lifetime, which resolves workers=1 to serial.
ENGINE_CONFIGS = [
    ("auto-w1", lambda: {"engine": SweepEngine(workers=1)}),
    ("auto-w2", lambda: {"engine": SweepEngine(workers=2)}),
    ("serial-w2", lambda: {"engine": SweepEngine(workers=2, lifetime="serial")}),
    ("fork-w2", lambda: {"engine": SweepEngine(workers=2, lifetime="fork")}),
    (
        "persistent-w2",
        lambda: {"engine": SweepEngine(workers=2, lifetime="persistent")},
    ),
]

# Cache modes: no cache, then cold/warm × every tier configuration.
# The byte budget (~2 RunResults) is deliberately smaller than the
# 6-cell grid, so recording a sweep evicts earlier cells of the same
# sweep — the mid-churn case; the disk modes put a sqlite tier below
# the same budget, so those evictions demote instead of discarding.
# The oversized modes put the tier below a one-byte budget that no
# result fits: memory never holds an entry, and a warm sweep is served
# from disk alone, without a promotion.
CACHE_MODES = (
    "none",
    "cold",
    "warm",
    "cold-bytes",
    "warm-bytes",
    "cold-disk",
    "warm-disk",
    "cold-oversized-disk",
    "warm-oversized-disk",
)
BOUND_BYTES = 4096


def _make_cache(mode, network, partitions, seeds, disk_dir=None):
    """A cache in the requested state (warm = pre-recorded serially)."""
    if mode == "none":
        return None
    kwargs = {}
    if mode.endswith(("bytes", "disk")):
        kwargs["max_bytes"] = 1 if "oversized" in mode else BOUND_BYTES
    if mode.endswith("disk"):
        kwargs["disk_path"] = os.path.join(disk_dir, f"tier-{mode}.sqlite")
    cache = RunCache(**kwargs)
    if mode.startswith("warm"):
        sweep_runs(network, TC, partitions, seeds, run_cache=cache)
    return cache


def _run_config(make_engine_kwargs, **sweep_kwargs):
    """Run a sweep under one engine configuration, closing owned engines."""
    kwargs = make_engine_kwargs()
    engine = kwargs.get("engine")
    try:
        return sweep_runs(**sweep_kwargs, **kwargs)
    finally:
        if engine is not None:
            engine.close()


class TestFullMatrix:
    """Every configuration against the serial unbounded reference."""

    @pytest.fixture(scope="class")
    def grid(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        seeds = (0, 1)
        reference = sweep_runs(line(3), TC, partitions, seeds)
        return partitions, seeds, reference

    @pytest.mark.parametrize("label,make_engine", ENGINE_CONFIGS)
    @pytest.mark.parametrize("cache_mode", CACHE_MODES)
    def test_sweep_matches_serial_reference(
        self, grid, label, make_engine, cache_mode, tmp_path
    ):
        partitions, seeds, reference = grid
        cache = _make_cache(
            cache_mode, line(3), partitions, seeds, disk_dir=str(tmp_path)
        )
        misses_after_warm = cache.cache_misses if cache is not None else 0
        evictions_after_warm = cache.evictions if cache is not None else 0
        try:
            got = _run_config(
                make_engine,
                network=line(3),
                transducer=TC,
                partitions=partitions,
                seeds=seeds,
                run_cache=cache,
            )
            assert got == reference  # observation for observation
            if cache is not None:
                # every task resolved through the cache exactly once
                # (duplicate cells resolve as dedup, not hits/misses)
                assert (
                    cache.cache_hits + cache.cache_misses + cache.cache_dedup
                    >= len(reference)
                )
                if cache.max_bytes is not None:
                    assert cache.bytes <= cache.max_bytes
                    if cache_mode == "warm-oversized-disk":
                        # served from disk, never inserted: no churn
                        assert cache.evictions == evictions_after_warm
                    else:
                        # the budget really churned, mid-sweep
                        assert cache.evictions > evictions_after_warm
                if cache_mode.endswith("disk"):
                    stats = cache.stats()
                    assert stats["demotions"] > 0  # evictions spilled down
                    assert stats["disk_entries"] > 0
                    if cache_mode.startswith("warm"):
                        # nothing was ever discarded: every warm cell is
                        # in memory or on disk, so the sweep never misses
                        assert cache.cache_misses == misses_after_warm
                    if cache_mode == "warm-disk":
                        assert stats["promotions"] > 0
                    elif "oversized" in cache_mode:
                        # no result fits the budget: none is promoted
                        assert stats["promotions"] == 0
                        assert len(cache) == 0
        finally:
            if cache is not None:
                cache.close()

    @pytest.mark.parametrize("label,make_engine", ENGINE_CONFIGS)
    @pytest.mark.parametrize("cache_mode", CACHE_MODES)
    def test_report_fields_match_serial_reference(
        self, label, make_engine, cache_mode, tmp_path
    ):
        partitions = sample_partitions(GRAPH, line(3), 3)
        seeds = (0, 1)
        reference = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=seeds
        )
        cache = _make_cache(
            cache_mode, line(3), partitions, seeds, disk_dir=str(tmp_path)
        )
        kwargs = make_engine()
        engine = kwargs.get("engine")
        try:
            got = check_consistency(
                line(3), TC, GRAPH, partitions=partitions, seeds=seeds,
                run_cache=cache, **kwargs,
            )
        finally:
            if engine is not None:
                engine.close()
            if cache is not None:
                cache.close()
        # Report field for report field: the semantic evidence is
        # identical; only the cache effectiveness counters may vary by
        # configuration, and they must account for every grid cell.
        assert got.consistent == reference.consistent
        assert got.outputs == reference.outputs
        assert got.observations == reference.observations
        assert got.unconverged == reference.unconverged
        assert got.memo_hits == reference.memo_hits == 0
        assert got.memo_misses == reference.memo_misses == 0
        cells = len(reference.observations)
        if cache is None:
            assert (got.cache_hits, got.cache_misses) == (0, 0)
            assert got.cache_dedup == 0
        else:
            # hits + misses + dedup covers the grid exactly: dedup
            # cells resolve in-grid without consulting the store.
            assert got.cache_hits + got.cache_misses + got.cache_dedup == cells
            if cache_mode in ("warm", "warm-disk", "warm-oversized-disk"):
                # unbounded warm and warm-with-disk-tier never discard,
                # so the sweep re-executes nothing
                assert got.cache_misses == 0
                assert got.cache_hits + got.cache_dedup == cells
            elif cache_mode == "cold":
                assert got.cache_hits == 0
                assert got.cache_misses + got.cache_dedup == cells

    def test_evicted_cells_recompute_identically(self):
        # Mid-sweep eviction churn, iterated: sweeping the same grid
        # repeatedly through a bounded cache keeps evicting and
        # recomputing cells, and every pass must equal the unbounded
        # reference bit for bit.
        partitions = sample_partitions(GRAPH, ring(3), 3)
        seeds = (0, 1)
        reference = sweep_runs(ring(3), TC, partitions, seeds)
        cache = RunCache(max_bytes=BOUND_BYTES // 2)
        for _ in range(3):
            got = sweep_runs(
                ring(3), TC, partitions, seeds, run_cache=cache,
                engine=SweepEngine(workers=2),
            )
            assert got == reference
            assert cache.bytes <= cache.max_bytes
        assert cache.evictions > 0


class TestFaultColumn:
    """The fault column of the matrix: a seeded
    :class:`~repro.net.FaultPlan` threaded through ``sweep_runs`` must
    be bit-identical across every engine configuration — injected
    faults are part of the schedule, not of the executor — and faulty
    cells must never alias clean ones in a shared cache.
    """

    PLAN = FaultPlan(seed=7, loss=0.1, duplication=0.15, delay=0.2)
    OPTIONS = RunOptions(faults=PLAN)

    @pytest.fixture(scope="class")
    def faulty_grid(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        seeds = (0, 1)
        reference = sweep_runs(
            line(3), TC, partitions, seeds, options=self.OPTIONS
        )
        return partitions, seeds, reference

    @pytest.mark.parametrize("label,make_engine", ENGINE_CONFIGS)
    @pytest.mark.parametrize(
        "cache_mode", ("none", "cold", "warm-disk", "warm-oversized-disk")
    )
    def test_faulty_sweep_matches_serial_reference(
        self, faulty_grid, label, make_engine, cache_mode, tmp_path
    ):
        partitions, seeds, reference = faulty_grid
        cache = None
        if cache_mode != "none":
            kwargs = {}
            if cache_mode.endswith("disk"):
                kwargs["max_bytes"] = (
                    1 if "oversized" in cache_mode else BOUND_BYTES
                )
                kwargs["disk_path"] = os.path.join(str(tmp_path), "tier.sqlite")
            cache = RunCache(**kwargs)
            if cache_mode.startswith("warm"):
                sweep_runs(line(3), TC, partitions, seeds,
                           run_cache=cache, options=self.OPTIONS)
        misses_after_warm = cache.cache_misses if cache is not None else 0
        try:
            got = _run_config(
                make_engine,
                network=line(3),
                transducer=TC,
                partitions=partitions,
                seeds=seeds,
                run_cache=cache,
                options=self.OPTIONS,
            )
            assert got == reference  # observation for observation
            if cache_mode.startswith("warm"):
                # faulty cells come back from the tier, never recomputed
                assert cache.cache_misses == misses_after_warm
            # the plan really disturbed the schedules
            assert any(
                obs.result.stats.messages_dropped
                + obs.result.stats.messages_duplicated
                + obs.result.stats.messages_delayed
                > 0
                for obs in got
            )
        finally:
            if cache is not None:
                cache.close()

    def test_faulty_and_clean_sweeps_share_a_cache_without_aliasing(self):
        partitions = sample_partitions(GRAPH, line(3), 2)
        seeds = (0,)
        cells = len(partitions) * len(seeds)
        cache = RunCache()
        clean = sweep_runs(line(3), TC, partitions, seeds, run_cache=cache)
        faulty = sweep_runs(
            line(3), TC, partitions, seeds, run_cache=cache, options=self.OPTIONS
        )
        # every faulty cell missed: no clean cell was ever served for it
        assert cache.cache_misses == 2 * cells
        assert clean != faulty
        # reruns of either flavor now hit their own cells
        assert sweep_runs(
            line(3), TC, partitions, seeds, run_cache=cache
        ) == clean
        assert sweep_runs(
            line(3), TC, partitions, seeds, run_cache=cache, options=self.OPTIONS
        ) == faulty
        assert cache.cache_misses == 2 * cells

    def test_faulty_report_matches_serial_reference(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        reference = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=(0, 1),
            options=self.OPTIONS,
        )
        got = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=(0, 1),
            options=self.OPTIONS, engine=SweepEngine(workers=2),
        )
        assert got.consistent == reference.consistent
        assert got.outputs == reference.outputs
        assert got.observations == reference.observations
        assert got.fault_counts() == reference.fault_counts()
        assert sum(reference.fault_counts().values()) > 0


values = st.integers(min_value=0, max_value=3)


@st.composite
def sweep_cases(draw):
    pairs = draw(st.lists(st.tuples(values, values), min_size=1, max_size=5))
    network = draw(st.sampled_from([line(2), line(3), ring(3)]))
    seed = draw(st.integers(0, 50))
    return Instance(S2, [Fact("S", p) for p in pairs]), network, seed


class TestRandomizedGrids:
    @settings(max_examples=6, deadline=None)
    @given(
        sweep_cases(),
        st.sampled_from(ENGINE_CONFIGS),
        st.sampled_from(CACHE_MODES),
    )
    def test_random_grid_matches_serial_reference(self, case, config, cache_mode):
        inst, network, seed = case
        _, make_engine = config
        partitions = sample_partitions(inst, network, 3)
        seeds = (seed, seed + 1)
        reference = sweep_runs(network, TC, partitions, seeds)
        # tempfile (not tmp_path) for the disk modes: Hypothesis reuses
        # the function-scoped fixture across examples, a fresh tier per
        # example is what the matrix promises.
        with tempfile.TemporaryDirectory() as disk_dir:
            cache = _make_cache(
                cache_mode, network, partitions, seeds, disk_dir=disk_dir
            )
            try:
                got = _run_config(
                    make_engine,
                    network=network,
                    transducer=TC,
                    partitions=partitions,
                    seeds=seeds,
                    run_cache=cache,
                )
            finally:
                if cache is not None:
                    cache.close()
        assert got == reference


class TestPersistentLifetime:
    def test_one_engine_serves_consecutive_sweeps_and_harnesses(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        serial_a = sweep_runs(line(3), TC, partitions, (0, 1))
        serial_b = sweep_runs(line(3), TC, partitions, (2, 3))
        plain_verdict = calm_verdict(transitive_closure_transducer(), GRAPH)
        with SweepEngine(workers=2, lifetime="persistent") as engine:
            pooled_a = sweep_runs(line(3), TC, partitions, (0, 1), engine=engine)
            pooled_b = sweep_runs(line(3), TC, partitions, (2, 3), engine=engine)
            verdict = calm_verdict(
                transitive_closure_transducer(), GRAPH,
                run_cache=RunCache(max_bytes=16 * BOUND_BYTES), engine=engine,
            )
            assert engine.maps_served >= 2  # one fork, many sweeps
        assert pooled_a == serial_a
        assert pooled_b == serial_b
        assert verdict == plain_verdict

    def test_smoke_persistent_bounded(self):
        # The CI conformance smoke configuration: 2-worker persistent
        # lifetime, a byte-bounded cache roomy enough for the whole
        # grid, checked against the serial unbounded reference.
        partitions = sample_partitions(GRAPH, line(3), 3)
        seeds = (0, 1)
        reference = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=seeds
        )
        cache = RunCache(max_bytes=16 * BOUND_BYTES)
        with SweepEngine(workers=2, lifetime="persistent") as engine:
            first = check_consistency(
                line(3), TC, GRAPH, partitions=partitions, seeds=seeds,
                run_cache=cache, engine=engine,
            )
            second = check_consistency(
                line(3), TC, GRAPH, partitions=partitions, seeds=seeds,
                run_cache=cache, engine=engine,
            )
        for got in (first, second):
            assert got.consistent == reference.consistent
            assert got.observations == reference.observations
        # warm pass: every cell resolves from the cache or as an
        # in-grid duplicate — nothing re-executes
        cells = len(reference.observations)
        assert second.cache_hits + second.cache_dedup == cells
        assert second.cache_misses == 0
        assert cache.bytes <= cache.max_bytes

    def test_smoke_persistent_shared_tier(self, tmp_path):
        # The second CI conformance smoke configuration: the full
        # hierarchy under a persistent 2-worker pool — byte-bounded
        # memory, sqlite disk tier below, shared worker views — checked
        # against the serial unbounded reference across two sweeps.
        partitions = sample_partitions(GRAPH, line(3), 3)
        seeds = (0, 1)
        reference = check_consistency(
            line(3), TC, GRAPH, partitions=partitions, seeds=seeds
        )
        cells = len(reference.observations)
        cache = RunCache(
            max_bytes=BOUND_BYTES, disk_path=tmp_path / "tier.sqlite"
        )
        try:
            with SweepEngine(workers=2, lifetime="persistent") as engine:
                first = check_consistency(
                    line(3), TC, GRAPH, partitions=partitions, seeds=seeds,
                    run_cache=cache, engine=engine,
                )
                second = check_consistency(
                    line(3), TC, GRAPH, partitions=partitions, seeds=seeds,
                    run_cache=cache, engine=engine,
                )
            for got in (first, second):
                assert got.consistent == reference.consistent
                assert got.observations == reference.observations
            # cold pass executes everything; warm pass resolves every
            # cell from memory, disk (promote), or in-grid dedup
            assert first.cache_hits == 0
            assert first.cache_misses + first.cache_dedup == cells
            assert second.cache_misses == 0
            assert second.cache_hits + second.cache_dedup == cells
            stats = cache.stats()
            assert cache.bytes <= BOUND_BYTES
            assert stats["demotions"] > 0 and stats["disk_entries"] > 0
            assert stats["promotions"] > 0  # warm pass pulled from disk
        finally:
            cache.close()


class TestDedalusConformance:
    @pytest.mark.parametrize("label,make_engine", ENGINE_CONFIGS)
    def test_sweep_distributed_matches_serial(self, label, make_engine):
        from repro.dedalus import DedalusProgram
        from repro.dedalus.distributed import sweep_distributed
        from repro.net import full_replication, round_robin

        program = DedalusProgram.parse(
            """
            T(x, y) :- S(x, y).
            T(x, y) :- T(x, z), S(z, y).
            """,
            S2,
        )
        net = line(2)
        chain = Instance(S2, [Fact("S", (1, 2)), Fact("S", (2, 3))])
        partitions = [round_robin(chain, net), full_replication(chain, net)]
        reference = sweep_distributed(
            program, net, partitions, seeds=(0, 1), max_steps=300
        )
        kwargs = make_engine()
        engine = kwargs.get("engine")
        try:
            got = sweep_distributed(
                program, net, partitions, seeds=(0, 1), max_steps=300,
                run_cache=RunCache(max_bytes=BOUND_BYTES), **kwargs,
            )
        finally:
            if engine is not None:
                engine.close()
        for a, b in zip(reference, got):
            assert a.stabilized_at == b.stabilized_at
            assert a.final() == b.final()


# ---------------------------------------------------------------------------
# Shutdown on early exit: no leaked worker processes
# ---------------------------------------------------------------------------


def _live_children() -> set:
    return {p.pid for p in multiprocessing.active_children()}


class TestNoWorkerLeaks:
    def test_early_exit_probe_search_reaps_workers(self):
        # 27 candidate partitions, witness found early: the splice
        # generator is abandoned mid-enumeration, and the session's
        # pool must still be close()d and join()ed deterministically.
        expected = computed_output(line(2), TC, GRAPH)
        before = _live_children()
        report = check_coordination_free_on(
            line(2), TC, GRAPH, expected,
            engine=SweepEngine(workers=2, lifetime="fork"),
        )
        assert report.coordination_free
        assert report.exhaustive and report.partitions_tried < 27  # early exit
        assert _live_children() <= before  # every forked worker reaped

    def test_early_exit_leaves_caller_owned_persistent_engine_alive(self):
        expected = computed_output(line(2), TC, GRAPH)
        serial = check_coordination_free_on(line(2), TC, GRAPH, expected)
        before = _live_children()
        with SweepEngine(workers=2, lifetime="persistent") as engine:
            first = check_coordination_free_on(
                line(2), TC, GRAPH, expected, engine=engine
            )
            # The session close at early exit must NOT have reaped the
            # engine-scoped pool: a second search reuses it.
            second = check_coordination_free_on(
                line(2), TC, GRAPH, expected, engine=engine
            )
            assert engine.maps_served >= 2
        assert _live_children() <= before  # engine exit reaps
        for report in (first, second):
            assert report.coordination_free == serial.coordination_free
            assert report.partitions_tried == serial.partitions_tried
            assert report.witness == serial.witness

    def test_parallel_sweeps_leave_no_children(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        before = _live_children()
        sweep_runs(
            line(3), TC, partitions, (0, 1), engine=SweepEngine(workers=2)
        )
        assert _live_children() <= before


# ---------------------------------------------------------------------------
# Structural criteria: one splice helper, one executor argument
# ---------------------------------------------------------------------------


class TestFusionStructure:
    def test_engine_is_the_only_executor_knob(self):
        from repro.dedalus import run_distributed, sweep_distributed
        from repro.net import check_topology_independence, observe_runs

        for fn in (
            sweep_runs, observe_runs, check_consistency,
            check_topology_independence, check_coordination_free_on,
            calm_verdict, run_distributed, sweep_distributed,
        ):
            params = inspect.signature(fn).parameters
            assert params["engine"].default is None, fn.__name__
            assert not {"workers", "backend", "pool"} & set(params), fn.__name__

    def test_options_is_the_only_run_knob(self):
        # The knobs that change a fair run's result travel as one
        # RunOptions value; no entry point can drop one of them.
        from repro.analysis import ComputedQuery
        from repro.net import (
            check_topology_independence,
            consistency,
            executor,
            observe_runs,
        )

        knobs = {"max_steps", "batch_delivery", "convergence", "faults"}
        for fn in (
            sweep_runs, observe_runs, check_consistency, computed_output,
            check_topology_independence, calm_verdict, ComputedQuery.__init__,
        ):
            params = inspect.signature(fn).parameters
            assert "options" in params, fn.__qualname__
            assert not knobs & set(params), fn.__qualname__
        for module in (executor, consistency):
            assert '"batch_delivery":' not in inspect.getsource(module)

    def test_single_shared_splice_helper(self):
        # The three hand-rolled cached/pending merge loops are gone:
        # every cached sweep routes through executor.CacheSplice.
        from repro.dedalus import distributed
        from repro.net import coordination, executor

        assert "CacheSplice(" in inspect.getsource(executor._sweep)
        for module in (coordination, distributed):
            source = inspect.getsource(module)
            assert "CacheSplice" in source
            assert "first_for_key" not in source  # the old inline dedup

    def test_all_lifetimes_exported(self):
        assert set(LIFETIMES) == {"serial", "fork", "persistent"}
