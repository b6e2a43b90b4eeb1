"""The run-level result cache and the persistent sweep pool.

Property suites pinning the PR 4 guarantees (and the byte-weighted LRU
bound, the sqlite file and canonical partition digests):

* **cache determinism** — a :class:`~repro.net.runcache.RunCache` hit
  reproduces the exact :class:`~repro.net.run.RunResult` a fresh run
  computes (the run is a pure function of its key), for workers ∈
  {1, 2};
* **pool reuse determinism** — two back-to-back sweeps through one
  ``persistent``-lifetime :class:`~repro.net.SweepEngine` are
  observation-for-observation identical to the serial sweeps;
* **fingerprint soundness** — structurally identical transducers share
  a canonical fingerprint (what makes persisted entries reusable
  across processes), different transducers never do, and transducers
  with non-canonical queries get session-local fingerprints that the
  sqlite file never carries;
* **shutdown discipline** — clean exits drain worker pools
  (``close``+``join``), only exceptional exits terminate them.
"""

import inspect
import pathlib
import pickle
import sqlite3
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import calm_verdict
from repro.core import (
    relay_identity_transducer,
    transitive_closure_transducer,
)
from repro.core.schema import TransducerSchema
from repro.core.transducer import Transducer
from repro.db import Fact, Instance, schema
from repro.lang.query import PythonQuery
from repro.net import (
    ConvergenceMemo,
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
    transducer_fingerprint,
)
from repro.net.runcache import (
    _weigh,
    instance_digest,
    partition_digest,
    resolve_run_cache,
    run_key,
    shared_run_cache,
)

S2 = schema(S=2)
S1 = schema(S=1)
GRAPH = Instance(S2, [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))])
ELEMENTS = Instance(S1, [Fact("S", (1,)), Fact("S", (2,)), Fact("S", (3,))])
TC = transitive_closure_transducer()


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def _identity(instance):
    return instance.relation("S")


class TestTransducerFingerprint:
    def test_structurally_identical_transducers_share_fingerprints(self):
        a = transducer_fingerprint(transitive_closure_transducer())
        b = transducer_fingerprint(transitive_closure_transducer())
        assert a == b
        assert a.startswith("sha256:")

    def test_different_transducers_differ(self):
        a = transducer_fingerprint(transitive_closure_transducer())
        b = transducer_fingerprint(relay_identity_transducer())
        assert a != b

    def test_fingerprint_cached_and_shipped_with_pickle(self):
        td = transitive_closure_transducer()
        token = transducer_fingerprint(td)
        assert transducer_fingerprint(td) is token
        clone = pickle.loads(pickle.dumps(td))
        assert transducer_fingerprint(clone) == token

    def test_module_level_python_query_is_canonical(self):
        tschema = TransducerSchema(S1, schema(), schema(), 1)
        td = Transducer(
            tschema,
            output=PythonQuery(_identity, 1, tschema.combined),
        )
        token = transducer_fingerprint(td)
        assert token.startswith("sha256:")
        again = Transducer(
            tschema,
            output=PythonQuery(_identity, 1, tschema.combined),
        )
        assert transducer_fingerprint(again) == token

    def test_closure_query_falls_back_to_session_token(self):
        tschema = TransducerSchema(S1, schema(), schema(), 1)

        def make():
            return Transducer(
                tschema,
                output=PythonQuery(
                    lambda inst: inst.relation("S"), 1, tschema.combined
                ),
            )

        a, b = make(), make()
        assert transducer_fingerprint(a).startswith("mem:")
        # session tokens are per-object: no accidental sharing
        assert transducer_fingerprint(a) != transducer_fingerprint(b)
        # but stable for one object
        assert transducer_fingerprint(a) == transducer_fingerprint(a)


# ---------------------------------------------------------------------------
# RunCache mechanics and persistence
# ---------------------------------------------------------------------------


class TestRunCache:
    def test_get_record_merge_counters(self):
        cache = RunCache()
        key = ("k",)
        assert cache.get(key) is None
        cache.record(key, "value")
        assert cache.get(key) == "value"
        assert (cache.cache_hits, cache.cache_misses) == (1, 1)
        assert cache.merge_worker_delta({("k2",): "v2"}) == 1
        assert len(cache) == 2
        assert cache.stats()["entries"] == 2

    def test_resolve_run_cache(self):
        td = relay_identity_transducer()
        assert resolve_run_cache(None, td) is None
        assert resolve_run_cache(False, td) is None
        cache = RunCache()
        assert resolve_run_cache(cache, td) is cache
        created = resolve_run_cache(True, td)
        assert isinstance(created, RunCache)
        assert td.run_cache is created
        assert resolve_run_cache(True, td) is created
        assert shared_run_cache(td) is created
        with pytest.raises(TypeError):
            resolve_run_cache(42, td)

    def test_transducer_pickle_drops_hung_cache(self):
        td = relay_identity_transducer()
        shared_run_cache(td).record(("k",), "v")
        clone = pickle.loads(pickle.dumps(td))
        assert getattr(clone, "run_cache", None) is None

    def test_file_roundtrip(self, tmp_path):
        td = transitive_closure_transducer()
        path = tmp_path / "cache.sqlite"
        cache = RunCache(disk_path=path)
        partition = sample_partitions(GRAPH, line(2), 1)[0]
        sweep_runs(line(2), td, [partition], (0,), run_cache=cache, memo=True)
        cache.store_memo(td, td.convergence_memo)
        entries = dict(cache.entries)
        cache.close()
        reopened = RunCache(disk_path=path)
        assert len(reopened) == 0  # memory starts cold...
        for key, value in entries.items():
            assert reopened.get(key) == value  # ...the file is warm
        assert reopened.cache_misses == 0
        fresh = transitive_closure_transducer()
        memo = reopened.memo_for(fresh)
        assert isinstance(memo, ConvergenceMemo)
        assert len(memo) == len(td.convergence_memo)
        # a different transducer gets nothing back
        assert reopened.memo_for(relay_identity_transducer()) is None
        reopened.close()

    def test_session_local_fingerprints_never_reach_the_file(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        cache = RunCache(disk_path=path)
        net = line(2)
        partition = sample_partitions(GRAPH, net, 1)[0]
        cache.record(
            run_key("fair-random", net, "mem:1:2", partition, 0, {}), "x"
        )
        cache.record(
            run_key("fair-random", net, "sha256:abc", partition, 0, {}), "y"
        )
        cache.memos["mem:1:2"] = {"k": "v"}
        cache.memos["sha256:abc"] = {"k": "v"}
        cache.close()
        conn = sqlite3.connect(path)
        try:
            entry_keys = [k for (k,) in conn.execute("SELECT k FROM entries")]
            memo_keys = [k for (k,) in conn.execute("SELECT k FROM memos")]
        finally:
            conn.close()
        assert len(entry_keys) == 1 and "mem:" not in entry_keys[0]
        assert memo_keys == ["sha256:abc"]

    def test_python_query_fingerprint_tracks_function_body(self):
        from repro.net.runcache import _code_digest

        def one(inst):
            return inst.relation("S")

        def two(inst):
            return frozenset()

        assert _code_digest(one.__code__) != _code_digest(two.__code__)
        assert _code_digest(one.__code__) == _code_digest(one.__code__)

    def test_memo_roundtrip_through_the_file(self, tmp_path):
        td = transitive_closure_transducer()
        partition = sample_partitions(GRAPH, line(2), 1)[0]
        sweep_runs(line(2), td, [partition], (0,), memo=True)
        memo = td.convergence_memo
        assert len(memo) > 0
        path = tmp_path / "cache.sqlite"
        cache = RunCache(disk_path=path)
        cache.store_memo(td, memo)
        cache.close()
        reopened = RunCache(disk_path=path)
        loaded = reopened.memo_for(transitive_closure_transducer())
        assert loaded.entries == memo.entries
        assert (loaded.memo_hits, loaded.memo_misses) == (0, 0)
        assert reopened.memo_for(relay_identity_transducer()) is None
        # A snapshot stored on top of the file's row extends it.
        reopened.store_memo(td, ConvergenceMemo({"extra": "v"}))
        assert len(reopened.memo_for(td)) == len(memo) + 1
        reopened.close()

    def test_one_constructor_one_bound_one_persistence(self):
        # The cache's whole public surface for bounds and persistence:
        # one byte budget, one sqlite file.  The pickle bundles, the
        # entry-count bound and trace compression are gone.
        from repro.net import runcache as runcache_module
        from repro.service import ServiceConfig

        params = list(inspect.signature(RunCache.__init__).parameters)
        assert params == ["self", "max_bytes", "disk_path"]
        for name in ("save", "load", "merge", "compress_traces", "max_entries"):
            assert not hasattr(RunCache, name), name
            assert not hasattr(RunCache(), name), name
        assert not hasattr(runcache_module, "_CompressedResult")
        assert not hasattr(ConvergenceMemo, "save")
        assert not hasattr(ConvergenceMemo, "load")
        assert "cache_max_entries" not in inspect.signature(
            ServiceConfig
        ).parameters
        assert "max_entries" not in RunCache().stats()
        # The runtime token is compared in exactly one place: the
        # sqlite tier's open.
        import repro

        root = pathlib.Path(repro.__file__).parent
        calls = [
            (path.name, line_no)
            for path in sorted(root.rglob("*.py"))
            for line_no, text in enumerate(path.read_text().splitlines())
            if "runtime_token()" in text and "def runtime_token" not in text
        ]
        assert len(calls) == 1, calls
        assert "runtime_token()" in inspect.getsource(
            runcache_module._DiskTier._open
        )


# ---------------------------------------------------------------------------
# Cache determinism: a hit reproduces the exact RunResult
# ---------------------------------------------------------------------------

values = st.integers(min_value=0, max_value=3)


@st.composite
def sweep_cases(draw):
    pairs = draw(st.lists(st.tuples(values, values), min_size=1, max_size=5))
    network = draw(st.sampled_from([line(2), line(3), ring(3)]))
    seed = draw(st.integers(0, 50))
    return Instance(S2, [Fact("S", p) for p in pairs]), network, seed


class TestRunCacheDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(sweep_cases(), st.sampled_from([1, 2]))
    def test_cached_sweep_equals_fresh_sweep(self, case, workers):
        inst, network, seed = case
        partitions = sample_partitions(inst, network, 3)
        fresh = sweep_runs(network, TC, partitions, (seed, seed + 1))
        cache = RunCache()
        first = sweep_runs(
            network, TC, partitions, (seed, seed + 1),
            engine=SweepEngine(workers=workers), run_cache=cache,
        )
        assert first == fresh
        hits0, dedup0 = cache.cache_hits, cache.cache_dedup
        second = sweep_runs(
            network, TC, partitions, (seed, seed + 1),
            engine=SweepEngine(workers=workers), run_cache=cache,
        )
        assert second == fresh  # bit-identical observations off the cache
        # Every cell is served without executing: distinct cells hit the
        # store, in-grid duplicates are resolved from their primary.
        assert (
            (cache.cache_hits - hits0) + (cache.cache_dedup - dedup0)
            == len(fresh)
        )
        # Misses (from the cold sweep) count only cells that actually
        # executed — the distinct keys, not the whole grid.
        distinct = len({
            (partition_digest(p), s)
            for p in partitions for s in (seed, seed + 1)
        })
        assert cache.cache_misses == distinct
        assert len(cache) == distinct
        for cached_obs, fresh_obs in zip(second, fresh):
            assert cached_obs.result == fresh_obs.result

    def test_cache_shared_between_sweep_and_computed_output(self):
        cache = RunCache()
        td = transitive_closure_transducer()
        out = computed_output(line(2), td, GRAPH, run_cache=cache)
        assert cache.cache_misses == 1
        again = computed_output(line(2), td, GRAPH, run_cache=cache)
        assert again == out
        assert cache.cache_hits == 1
        # a structurally identical transducer hits the same entries
        clone_out = computed_output(
            line(2), transitive_closure_transducer(), GRAPH, run_cache=cache
        )
        assert clone_out == out
        assert cache.cache_hits == 2

    def test_check_consistency_surfaces_cache_counters(self):
        cache = RunCache()
        td = transitive_closure_transducer()
        first = check_consistency(
            line(3), td, GRAPH, partition_count=3, seeds=(0, 1),
            run_cache=cache,
        )
        assert first.cache_misses == 6 and first.cache_hits == 0
        assert first.cache_dedup == 0  # the sampled grid has no duplicates
        second = check_consistency(
            line(3), td, GRAPH, partition_count=3, seeds=(0, 1),
            run_cache=cache,
        )
        assert second.cache_hits == 6 and second.cache_misses == 0
        assert second.cache_dedup == 0
        assert second.observations == first.observations
        assert second.consistent == first.consistent

    def test_coordination_probe_caching_keeps_report_identical(self):
        td = relay_identity_transducer()
        expected = computed_output(line(2), td, ELEMENTS)
        plain = check_coordination_free_on(line(2), td, ELEMENTS, expected)
        cache = RunCache()
        first = check_coordination_free_on(
            line(2), td, ELEMENTS, expected, run_cache=cache
        )
        misses = cache.cache_misses
        assert misses > 0
        second = check_coordination_free_on(
            line(2), td, ELEMENTS, expected, run_cache=cache
        )
        assert cache.cache_misses == misses  # all probes served from cache
        for report in (first, second):
            assert report.coordination_free == plain.coordination_free
            assert report.partitions_tried == plain.partitions_tried
            assert report.witness == plain.witness

    def test_calm_verdict_with_cache_and_pool_matches_plain(self):
        plain = calm_verdict(transitive_closure_transducer(), GRAPH)
        cache = RunCache()
        with _persistent(2) as pool:
            cached = calm_verdict(
                transitive_closure_transducer(), GRAPH,
                run_cache=cache, engine=pool,
            )
            assert cache.cache_misses > 0
            rerun = calm_verdict(
                transitive_closure_transducer(), GRAPH,
                run_cache=cache, engine=pool,
            )
        assert cached == plain
        assert rerun == plain


# ---------------------------------------------------------------------------
# Persistent pool: reuse across sweeps, determinism
# ---------------------------------------------------------------------------



def _persistent(workers):
    """A persistent-lifetime engine; one worker means serial."""
    return SweepEngine(
        workers=workers, lifetime="persistent" if workers > 1 else "serial"
    )


class TestPersistentEngine:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_back_to_back_sweeps_match_serial(self, workers):
        partitions = sample_partitions(GRAPH, line(3), 3)
        serial_a = sweep_runs(line(3), TC, partitions, (0, 1))
        serial_b = sweep_runs(line(3), TC, partitions, (2, 3))
        with _persistent(workers) as pool:
            pooled_a = sweep_runs(line(3), TC, partitions, (0, 1), engine=pool)
            pooled_b = sweep_runs(line(3), TC, partitions, (2, 3), engine=pool)
            if pool.parallel:
                assert pool.maps_served == 2  # one fork, two sweeps
        assert pooled_a == serial_a
        assert pooled_b == serial_b

    @settings(max_examples=4, deadline=None)
    @given(sweep_cases(), st.sampled_from([1, 2]))
    def test_pooled_sweeps_deterministic(self, case, workers):
        inst, network, seed = case
        partitions = sample_partitions(inst, network, 3)
        serial = sweep_runs(network, TC, partitions, (seed, seed + 1))
        with _persistent(workers) as pool:
            pooled = sweep_runs(
                network, TC, partitions, (seed, seed + 1), engine=pool
            )
        assert pooled == serial

    def test_pool_memo_merge_back(self):
        partitions = sample_partitions(GRAPH, line(3), 3)
        baseline = ConvergenceMemo()
        sweep_runs(line(3), TC, partitions, (0, 1), memo=baseline)
        memo = ConvergenceMemo()
        with _persistent(2) as pool:
            sweep_runs(line(3), TC, partitions, (0, 1), memo=memo, engine=pool)
        assert len(memo) == len(baseline)
        assert memo._new is None  # journal never enabled in-parent

    def test_map_preserves_order_and_reuses_pool(self):
        with _persistent(2) as pool:
            for _ in range(3):
                out = pool.map(_double, "ctx", list(range(7)))
                assert out == [("ctx", i * 2) for i in range(7)]
            if pool.parallel:
                assert pool.maps_served == 3

    def test_single_item_map_runs_in_process(self):
        with _persistent(2) as pool:
            assert pool.map(_double, "c", [3]) == [("c", 6)]
            assert pool.maps_served == 0  # no fan-out for one item

    def test_workers_one_is_serial(self):
        pool = _persistent(1)
        assert not pool.parallel
        assert pool.map(_double, "c", [1, 2]) == [("c", 2), ("c", 4)]
        pool.close()  # no-op, never forked

    def test_close_is_idempotent(self):
        pool = _persistent(2)
        pool.map(_double, "c", [1, 2, 3])
        pool.close()
        pool.close()
        pool.terminate()


def _double(context, item):
    return (context, item * 2)


# ---------------------------------------------------------------------------
# Shutdown discipline: close on the happy path, terminate on error
# ---------------------------------------------------------------------------


class _FakePool:
    def __init__(self):
        self.calls = []

    def close(self):
        self.calls.append("close")

    def terminate(self):
        self.calls.append("terminate")

    def join(self):
        self.calls.append("join")


class TestShutdownDiscipline:
    def test_session_clean_exit_closes_not_terminates(self):
        session = SweepEngine(workers=2).session(_double, "ctx")
        fake = _FakePool()
        session._pool = fake
        with session:
            pass
        assert fake.calls == ["close", "join"]

    def test_session_exceptional_exit_terminates(self):
        session = SweepEngine(workers=2).session(_double, "ctx")
        fake = _FakePool()
        session._pool = fake
        with pytest.raises(RuntimeError):
            with session:
                raise RuntimeError("boom")
        assert fake.calls == ["terminate", "join"]

    def test_pool_clean_exit_closes_not_terminates(self):
        pool = _persistent(2)
        fake = _FakePool()
        pool._pool = fake
        with pool:
            pass
        assert fake.calls == ["close", "join"]

    def test_pool_exceptional_exit_terminates(self):
        pool = _persistent(2)
        fake = _FakePool()
        pool._pool = fake
        with pytest.raises(RuntimeError):
            with pool:
                raise RuntimeError("boom")
        assert fake.calls == ["terminate", "join"]


# ---------------------------------------------------------------------------
# Distributed Dedalus caching
# ---------------------------------------------------------------------------


class TestDedalusRunCache:
    def test_sweep_distributed_cache_hits_reproduce_traces(self):
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
        plain = sweep_distributed(program, net, partitions, seeds=(0, 1),
                                  max_steps=300)
        cache = RunCache()
        first = sweep_distributed(
            program, net, partitions, seeds=(0, 1), max_steps=300,
            run_cache=cache,
        )
        assert cache.cache_misses == 4 and cache.cache_hits == 0
        second = sweep_distributed(
            program, net, partitions, seeds=(0, 1), max_steps=300,
            run_cache=cache,
        )
        assert cache.cache_hits == 4
        for a, b, c in zip(plain, first, second):
            assert a.stabilized_at == b.stabilized_at == c.stabilized_at
            assert a.final() == b.final() == c.final()


# ---------------------------------------------------------------------------
# Canonical instance / partition digests (monotonicity-probe key reuse)
# ---------------------------------------------------------------------------


class TestCanonicalDigests:
    def test_instance_digest_ignores_fact_order(self):
        facts = [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))]
        a = Instance(S2, facts)
        b = Instance(S2, list(reversed(facts)))
        assert instance_digest(a) == instance_digest(b)

    def test_instance_digest_separates_instances_and_schemas(self):
        a = Instance(S2, [Fact("S", (1, 2))])
        b = Instance(S2, [Fact("S", (2, 1))])
        assert instance_digest(a) != instance_digest(b)
        assert instance_digest(Instance.empty(S2)) != instance_digest(
            Instance.empty(S1)
        )

    def test_partition_digest_identifies_placement(self):
        from repro.net import all_at_one, full_replication

        net = line(2)
        full = full_replication(GRAPH, net)
        one = all_at_one(GRAPH, net)
        assert partition_digest(full) != partition_digest(one)
        # rebuilt-but-equal partitions digest identically
        again = full_replication(
            Instance(S2, list(reversed(sorted(GRAPH.facts())))), net
        )
        assert partition_digest(full) == partition_digest(again)

    def test_run_key_canonicalizes_partitions(self):
        partition = sample_partitions(GRAPH, line(2), 1)[0]
        key = run_key("fair-random", line(2), "sha256:x", partition, 0, {})
        assert isinstance(key[3], str) and key[3].startswith("hp:")
        # pre-digested strings pass through untouched
        assert run_key("fair-random", line(2), "sha256:x", key[3], 0, {}) == key

    def test_monotonicity_probe_hits_across_equal_instances(self):
        # The regression the ROADMAP's "cross-harness key reuse audit"
        # asked for: the CALM monotonicity probes regenerate their
        # instances per diagnostic, so differently-ordered but equal
        # instances must land on the same RunCache cell.
        from repro.analysis.calm import ComputedQuery

        cache = RunCache()
        query = ComputedQuery(
            transitive_closure_transducer(), line(2), run_cache=cache
        )
        facts = [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))]
        first = query(Instance(S2, facts))
        assert (cache.cache_hits, cache.cache_misses) == (0, 1)
        second = query(Instance(S2, list(reversed(facts))))
        assert second == first
        assert (cache.cache_hits, cache.cache_misses) == (1, 1)  # same cell


class _OpaqueValue:
    """A hashable dom value with a non-injective repr (all instances
    render alike) — the shape that must NOT be digest-canonicalized."""

    def __repr__(self):
        return "opaque"

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return self is other


class TestDigestFallback:
    def test_non_canonical_values_refuse_to_digest(self):
        from repro.net import full_replication

        inst = Instance(S1, [Fact("S", (_OpaqueValue(),))])
        with pytest.raises(ValueError, match="canonical"):
            instance_digest(inst)
        with pytest.raises(ValueError, match="canonical"):
            partition_digest(full_replication(inst, line(2)))

    def test_run_key_falls_back_to_true_equality(self):
        # Two *distinct* opaque values render identically; the key must
        # keep the partition object (set equality), so the second
        # instance can never be served the first one's result.
        from repro.net import full_replication

        a = Instance(S1, [Fact("S", (_OpaqueValue(),))])
        b = Instance(S1, [Fact("S", (_OpaqueValue(),))])
        key_a = run_key(
            "fair-random", line(2), "sha256:x",
            full_replication(a, line(2)), 0, {},
        )
        key_b = run_key(
            "fair-random", line(2), "sha256:x",
            full_replication(b, line(2)), 0, {},
        )
        assert not isinstance(key_a[3], str)  # object, not digest
        assert key_a != key_b  # distinct values, distinct cells
        # equal partitions still share the fallback cell
        key_a2 = run_key(
            "fair-random", line(2), "sha256:x",
            full_replication(a, line(2)), 0, {},
        )
        assert key_a2 == key_a

    def test_digest_cached_on_immutable_objects(self):
        partition = sample_partitions(GRAPH, line(2), 1)[0]
        token = partition_digest(partition)
        assert partition._digest == token
        assert partition_digest(partition) == token
        assert GRAPH._digest is None or isinstance(GRAPH._digest, str)
        d = instance_digest(GRAPH)
        assert GRAPH._digest == d


# ---------------------------------------------------------------------------
# Fingerprints cover default argument values (regression)
# ---------------------------------------------------------------------------


def _limited(inst, limit=1):
    return frozenset(t for t in inst.relation("S") if t[0] <= limit)


def _limited_kw(inst, *, limit=1):
    return frozenset(t for t in inst.relation("S") if t[0] <= limit)


def _opaque_default(inst, marker=object()):
    return inst.relation("S")


class TestFingerprintDefaults:
    """Regression: ``_python_query_token`` salted only ``__code__``.

    Editing a function's *default argument values* keeps its bytecode
    bit-identical, so the old fingerprint survived the edit and served
    the old behaviour's cached results.  Defaults are part of the salt
    now.
    """

    def _transducer(self, func):
        tschema = TransducerSchema(S1, schema(), schema(), 1)
        return Transducer(
            tschema, output=PythonQuery(func, 1, tschema.combined)
        )

    def test_editing_a_default_forces_a_cold_recompute(self):
        original = _limited.__defaults__
        try:
            td1 = self._transducer(_limited)
            fp1 = transducer_fingerprint(td1)
            cache = RunCache()
            out1 = computed_output(line(2), td1, ELEMENTS, run_cache=cache)
            assert out1 == frozenset({(1,)})
            assert cache.cache_misses == 1
            _limited.__defaults__ = (3,)  # "edit" the default in place
            td2 = self._transducer(_limited)
            fp2 = transducer_fingerprint(td2)
            assert fp2 != fp1  # the regression: these used to collide
            out2 = computed_output(line(2), td2, ELEMENTS, run_cache=cache)
            # Cold recompute under the new fingerprint — not td1's
            # stale cached result.
            assert cache.cache_misses == 2
            assert out2 == frozenset({(1,), (2,), (3,)})
        finally:
            _limited.__defaults__ = original

    def test_kwonly_defaults_salt_the_fingerprint(self):
        original = dict(_limited_kw.__kwdefaults__)
        try:
            fp1 = transducer_fingerprint(self._transducer(_limited_kw))
            _limited_kw.__kwdefaults__["limit"] = 2
            fp2 = transducer_fingerprint(self._transducer(_limited_kw))
            assert fp1 != fp2
            assert fp1.startswith("sha256:") and fp2.startswith("sha256:")
        finally:
            _limited_kw.__kwdefaults__.update(original)

    def test_tuple_and_frozenset_defaults_are_canonical(self):
        from repro.net.runcache import _default_token

        assert _default_token((1, "a")) == _default_token((1, "a"))
        assert _default_token((1, "a")) != _default_token((1, "b"))
        # frozensets render sorted, not in hash order
        assert _default_token(frozenset({1, 2, 3})) == _default_token(
            frozenset({3, 1, 2})
        )

    def test_non_canonical_default_falls_back_to_session_token(self):
        token = transducer_fingerprint(self._transducer(_opaque_default))
        assert token.startswith("mem:")


# ---------------------------------------------------------------------------
# Digest framing (regression)
# ---------------------------------------------------------------------------


class TestDigestFraming:
    def test_refactored_fact_boundaries_do_not_collide(self):
        # Regression: fact tokens were concatenated into the hash with
        # no length framing, so the token streams of these two distinct
        # instances were byte-identical —
        #   "R(str:'a')" + "S(str:'b')"  ==  "R(str:'a')S(str:'b')"
        # (relation names are arbitrary strings) — and they digested to
        # the same cache cell.  Length-prefixing each token makes the
        # encoding injective.
        from repro.db.schema import DatabaseSchema

        sch = DatabaseSchema({"R": 1, "S": 1, "R(str:'a')S": 1})
        a = Instance(sch, [Fact("R", ("a",)), Fact("S", ("b",))])
        b = Instance(sch, [Fact("R(str:'a')S", ("b",))])
        assert instance_digest(a) != instance_digest(b)

    def test_partition_digests_frame_fragments_apart(self):
        from repro.db.schema import DatabaseSchema
        from repro.net import full_replication

        sch = DatabaseSchema({"R": 1, "S": 1, "R(str:'a')S": 1})
        a = Instance(sch, [Fact("R", ("a",)), Fact("S", ("b",))])
        b = Instance(sch, [Fact("R(str:'a')S", ("b",))])
        pa = full_replication(a, line(2))
        pb = full_replication(b, line(2))
        assert partition_digest(pa) != partition_digest(pb)


# ---------------------------------------------------------------------------
# Splice accounting: duplicates are neither hits nor misses (regression)
# ---------------------------------------------------------------------------


class TestSpliceDedupAccounting:
    def test_in_grid_duplicates_count_dedup_not_misses(self):
        from repro.net import full_replication

        p = full_replication(GRAPH, line(2))
        cache = RunCache()
        obs = sweep_runs(line(2), TC, [p, p], (0,), run_cache=cache)
        assert obs[0] == obs[1]
        # Regression: the duplicate cell never executed, yet used to
        # count a cache_miss — one real miss, one dedup.
        assert cache.cache_misses == 1
        assert cache.cache_hits == 0
        assert cache.cache_dedup == 1
        again = sweep_runs(line(2), TC, [p, p], (0,), run_cache=cache)
        assert again == obs
        assert cache.cache_misses == 1  # warm pass adds no misses
        assert cache.cache_hits == 1  # one store hit...
        assert cache.cache_dedup == 2  # ...the duplicate resolved from it

    def test_consistency_report_surfaces_dedup(self):
        from repro.net import full_replication

        p = full_replication(GRAPH, line(2))
        cache = RunCache()
        report = check_consistency(
            line(2), TC, GRAPH, partitions=[p, p], seeds=(0,),
            run_cache=cache,
        )
        assert report.cache_misses == 1
        assert report.cache_dedup == 1
        assert report.cache_hits == 0
        assert (
            report.cache_hits + report.cache_misses + report.cache_dedup
            == len(report.observations)
        )


# ---------------------------------------------------------------------------
# The byte-weighted LRU bound
# ---------------------------------------------------------------------------


class TestRunCacheByteBound:
    def test_bound_validation(self):
        with pytest.raises(ValueError):
            RunCache(max_bytes=0)
        RunCache(max_bytes=1)  # smallest legal budget

    def test_bytes_ledger_is_exact(self):
        from repro.net.runcache import _weigh

        cache = RunCache()
        payloads = {("a",): "x" * 10, ("b",): "y" * 500, ("c",): 7}
        for key, value in payloads.items():
            cache.record(key, value)
        assert cache.bytes == sum(_weigh(v) for v in payloads.values())
        assert cache.stats()["bytes"] == cache.bytes
        cache.record(("a",), "x" * 400)  # re-record re-weighs
        expected = (
            _weigh("x" * 400) + _weigh("y" * 500) + _weigh(7)
        )
        assert cache.bytes == expected

    def test_byte_eviction_is_lru_by_last_hit(self):
        from repro.net.runcache import _weigh

        w = _weigh("x" * 50)
        cache = RunCache(max_bytes=3 * w)
        for name in ("a", "b", "c"):
            cache.record((name,), "x" * 50)
        assert list(cache.entries) == [("a",), ("b",), ("c",)]
        cache.get(("a",))  # promote: ("b",) becomes the stalest entry
        cache.record(("d",), "x" * 50)
        assert list(cache.entries) == [("c",), ("a",), ("d",)]
        assert cache.evictions == 1
        assert cache.bytes == 3 * w

    def test_entry_larger_than_budget_is_not_kept(self):
        cache = RunCache(max_bytes=8)
        cache.record(("big",), "x" * 1000)
        assert len(cache) == 0
        assert cache.bytes == 0
        assert cache.evictions == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 9)),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 5),
    )
    def test_lru_matches_reference_model(self, ops, bound):
        # The cache against an OrderedDict reference LRU: with equal
        # weights a budget of `bound` entries' worth never holds more
        # than `bound` entries, hits promote, and eviction order is
        # LRU-by-last-hit.
        from collections import OrderedDict

        w = _weigh(0)
        assert all(_weigh(k) == w for k in range(10))
        cache = RunCache(max_bytes=bound * w)
        model: OrderedDict = OrderedDict()
        for is_record, k in ops:
            key = ("k", k)
            if is_record:
                cache.record(key, k)
                model.pop(key, None)
                model[key] = k
                while len(model) > bound:
                    model.popitem(last=False)
            else:
                got = cache.get(key)
                if key in model:
                    assert got == model[key]
                    model.move_to_end(key)
                else:
                    assert got is None
            assert len(cache) <= bound
            assert list(cache.entries) == list(model)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(), st.integers(0, 9), st.integers(0, 200)
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(64, 512),
    )
    def test_byte_bound_invariants(self, ops, budget):
        # Whatever the op sequence: the budget is never exceeded, the
        # ledger equals the sum of the weights of the present entries,
        # weights track entries exactly, and the store matches a
        # weighted reference LRU entry for entry, in recency order.
        from collections import OrderedDict

        cache = RunCache(max_bytes=budget)
        model: OrderedDict = OrderedDict()  # key -> weight
        for is_record, k, size in ops:
            key = ("k", k)
            if is_record:
                cache.record(key, "x" * size)
                model.pop(key, None)
                model[key] = _weigh("x" * size)
                while sum(model.values()) > budget:
                    model.popitem(last=False)
            else:
                cache.get(key)
                if key in model:
                    model.move_to_end(key)
            assert list(cache.entries) == list(model)
            assert cache.bytes <= budget
            assert cache.bytes == sum(cache._weights.values())
            assert set(cache._weights) == set(cache.entries)

    @settings(max_examples=4, deadline=None)
    @given(sweep_cases(), st.sampled_from([1, 2]))
    def test_byte_evict_then_recompute_equals_unbounded(self, case, workers):
        # An evict-then-recompute cycle under a byte budget is
        # bit-identical to the unbounded cache, for serial and
        # parallel sweeps alike.
        inst, network, seed = case
        partitions = sample_partitions(inst, network, 3)
        seeds = (seed, seed + 1)
        unbounded = RunCache()
        reference = sweep_runs(
            network, TC, partitions, seeds,
            run_cache=unbounded, engine=SweepEngine(workers=workers),
        )
        budget = max(1, unbounded.bytes // 2)  # guarantees churn
        bounded = RunCache(max_bytes=budget)
        for _ in range(2):
            churned = sweep_runs(
                network, TC, partitions, seeds,
                run_cache=bounded, engine=SweepEngine(workers=workers),
            )
            assert churned == reference
            assert bounded.bytes <= budget
            assert bounded.bytes == sum(bounded._weights.values())

    def test_pickle_keeps_the_byte_bound(self):
        cache = RunCache(max_bytes=4096)
        cache.record(("k",), "v")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.max_bytes == 4096
        assert clone.get(("k",)) == "v"
        assert clone.bytes == cache.bytes
        assert clone._weights == cache._weights


# ---------------------------------------------------------------------------
# The disk tier: eviction demotes, a memory miss promotes
# ---------------------------------------------------------------------------


#: A budget that holds exactly one of the "one"/"two" test values.
_ONE = _weigh("one")


class TestDiskTier:
    def _key(self, i):
        return run_key("fair-random", line(2), "sha256:abc", f"hp:{i}", i, {})

    def test_eviction_demotes_and_get_promotes(self, tmp_path):
        cache = RunCache(max_bytes=_ONE, disk_path=tmp_path / "tier.sqlite")
        cache.record(self._key(1), "one")
        cache.record(self._key(2), "two")  # evicts and demotes key 1
        assert cache.demotions == 1
        assert cache.stats()["disk_entries"] == 1
        hits0 = cache.cache_hits
        assert cache.get(self._key(1)) == "one"  # promoted back
        assert cache.promotions == 1
        assert cache.cache_hits == hits0 + 1  # a disk hit is a hit
        assert cache.cache_misses == 0
        # the promotion demoted key 2 in turn (one entry's budget) — the
        # tiers cycle, they never discard
        assert cache.get(self._key(2)) == "two"
        assert cache.promotions == 2
        cache.close()

    def test_disk_tier_survives_reopen(self, tmp_path):
        path = tmp_path / "tier.sqlite"
        cache = RunCache(max_bytes=_ONE, disk_path=path)
        cache.record(self._key(1), "one")
        cache.record(self._key(2), "two")
        cache.close()
        reopened = RunCache(disk_path=path)
        assert len(reopened) == 0  # memory starts cold...
        assert reopened.get(self._key(1)) == "one"  # ...the tier is warm
        assert reopened.promotions == 1
        reopened.close()

    def test_runtime_token_mismatch_purges_tier(self, tmp_path, monkeypatch):
        from repro.net import runcache as runcache_module

        path = tmp_path / "tier.sqlite"
        cache = RunCache(max_bytes=_ONE, disk_path=path)
        cache.record(self._key(1), "one")
        cache.record(self._key(2), "two")
        assert cache.stats()["disk_entries"] == 1
        cache.close()
        # Same file, "next release": the library's source changed.
        monkeypatch.setattr(runcache_module, "_RUNTIME_TOKEN", "changed")
        with pytest.warns(RuntimeWarning, match="different runtime") as rec:
            stale = RunCache(disk_path=path)
        assert str(path) in str(rec[0].message)  # names the file
        assert stale.stats()["disk_entries"] == 0  # purged at open
        assert stale.get(self._key(1)) is None
        assert stale.cache_misses == 1
        stale.close()

    def test_stale_tier_purges_memo_rows_too(self, tmp_path, monkeypatch):
        from repro.net import runcache as runcache_module

        path = tmp_path / "tier.sqlite"
        cache = RunCache(disk_path=path)
        cache.store_memo(TC, ConvergenceMemo({"k": "v"}))
        cache.close()
        monkeypatch.setattr(runcache_module, "_RUNTIME_TOKEN", "changed")
        with pytest.warns(RuntimeWarning, match="different runtime"):
            stale = RunCache(disk_path=path)
        assert stale.memo_for(TC) is None
        stale.close()

    def test_old_format_tier_is_purged_with_a_warning(self, tmp_path):
        # A file stamped by the previous layout (v3: no memos table)
        # under this very runtime is still a format mismatch: purged
        # and warned about, never read.
        from repro.net.runcache import _CACHE_FORMAT, runtime_token

        path = tmp_path / "tier.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (k TEXT PRIMARY KEY, v TEXT)")
        conn.execute("CREATE TABLE entries (k TEXT PRIMARY KEY, v BLOB)")
        conn.execute(
            "INSERT INTO meta VALUES ('runtime', ?)",
            (f"{_CACHE_FORMAT}/3/{runtime_token()}",),
        )
        conn.execute(
            "INSERT INTO entries VALUES (?, ?)", ("k", pickle.dumps("old"))
        )
        conn.commit()
        conn.close()
        with pytest.warns(RuntimeWarning, match="different file format"):
            cache = RunCache(disk_path=path)
        assert cache.stats()["disk_entries"] == 0
        cache.close()

    def test_fresh_file_opens_without_a_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            RunCache(disk_path=tmp_path / "tier.sqlite").close()
            RunCache(disk_path=tmp_path / "tier.sqlite").close()

    def test_oversized_disk_hit_is_served_without_churn(self, tmp_path):
        # Regression: an entry heavier than the whole budget was
        # promoted on every disk hit, evicted at once and its row
        # rewritten and committed again — 6 evictions and 6 demotions
        # for one record and 5 hits.
        cache = RunCache(max_bytes=10, disk_path=tmp_path / "tier.sqlite")
        big = "x" * 1000
        cache.record(self._key(1), big)  # too big: demoted at once
        assert (cache.evictions, cache.demotions) == (1, 1)
        for _ in range(5):
            assert cache.get(self._key(1)) == big
        assert cache.cache_hits == 5 and cache.cache_misses == 0
        assert (cache.evictions, cache.demotions) == (1, 1)
        assert cache.promotions == 0
        assert len(cache) == 0 and cache.bytes == 0
        cache.close()

    def test_close_spills_in_one_commit(self, tmp_path):
        # Regression: the shutdown spill committed once per row.
        path = tmp_path / "tier.sqlite"
        cache = RunCache(disk_path=path)
        for i in range(50):
            cache.record(self._key(i), i)
        cache.store_memo(TC, ConvergenceMemo({"k": "v"}))
        statements = []
        cache._disk._conn.set_trace_callback(statements.append)
        cache.close()
        assert sum(s.startswith("COMMIT") for s in statements) == 1
        # And again on reopen, when every row is already on disk.
        reopened = RunCache(disk_path=path)
        for i in range(50):
            assert reopened.get(self._key(i)) == i
        statements.clear()
        reopened._disk._conn.set_trace_callback(statements.append)
        reopened.close()
        assert sum(s.startswith("COMMIT") for s in statements) == 1

    def test_session_local_and_object_keys_never_spill(self, tmp_path):
        from repro.net import full_replication
        from repro.net.runcache import _disk_key_text

        cache = RunCache(max_bytes=_ONE, disk_path=tmp_path / "tier.sqlite")
        mem_key = run_key("fair-random", line(2), "mem:1:2", "hp:x", 0, {})
        cache.record(mem_key, "local")
        cache.record(self._key(1), "one")  # evicts mem_key
        assert cache.demotions == 0
        assert cache.stats()["disk_entries"] == 0
        assert _disk_key_text(mem_key) is None
        opaque = Instance(S1, [Fact("S", (_OpaqueValue(),))])
        obj_key = run_key(
            "fair-random", line(2), "sha256:abc",
            full_replication(opaque, line(2)), 0, {},
        )
        assert _disk_key_text(obj_key) is None
        cache.close()

    def test_demote_promote_roundtrip_preserves_run_results(self, tmp_path):
        # Real RunResults through the whole cycle: record → evict →
        # sqlite → promote must be bit-identical to a fresh run.
        td = transitive_closure_transducer()
        partitions = sample_partitions(GRAPH, line(2), 2)
        unbounded = RunCache()
        reference = sweep_runs(
            line(2), td, partitions, (0, 1), run_cache=unbounded
        )
        cache = RunCache(
            max_bytes=max(unbounded._weights.values()),
            disk_path=tmp_path / "tier.sqlite",
        )  # room for one result: every other entry demotes to disk
        churned = sweep_runs(
            line(2), td, partitions, (0, 1), run_cache=cache
        )
        assert churned == reference
        assert cache.demotions >= 1
        warm = sweep_runs(line(2), td, partitions, (0, 1), run_cache=cache)
        assert warm == reference
        assert cache.promotions >= 1  # the warm pass was served by disk
        cache.close()

    def test_close_is_idempotent_and_cache_keeps_working(self, tmp_path):
        cache = RunCache(disk_path=tmp_path / "tier.sqlite")
        cache.record(self._key(1), "one")
        cache.close()
        cache.close()
        assert cache.get(self._key(1)) == "one"  # memory tier still live

    def test_reopen_can_rebind_the_byte_bound(self, tmp_path):
        # The bound belongs to the session, not to the file: a file
        # written unbounded reopens under a tight budget (every row
        # still served, memory held to the budget) and back unbounded.
        path = tmp_path / "tier.sqlite"
        cache = RunCache(disk_path=path)
        for i in range(3):
            cache.record(self._key(i), f"v{i}")
        cache.close()
        tight = RunCache(max_bytes=_weigh("v0"), disk_path=path)
        for i in range(3):
            assert tight.get(self._key(i)) == f"v{i}"
        assert tight.cache_misses == 0
        assert len(tight) == 1 and tight.bytes <= tight.max_bytes
        assert tight.stats()["disk_entries"] == 3
        tight.close()
        loose = RunCache(disk_path=path)
        for i in range(3):
            assert loose.get(self._key(i)) == f"v{i}"
        assert len(loose) == 3 and loose.promotions == 3
        loose.close()

    def test_memo_rows_accumulate_across_sessions(self, tmp_path):
        # store_memo seeds itself from the file's row, so a session that
        # only adds certificates never drops the earlier session's.
        path = tmp_path / "tier.sqlite"
        first = RunCache(disk_path=path)
        first.store_memo(TC, ConvergenceMemo({"a": 1}))
        first.close()
        second = RunCache(disk_path=path)
        second.store_memo(TC, ConvergenceMemo({"b": 2}))
        second.close()
        third = RunCache(disk_path=path)
        assert third.memo_for(transitive_closure_transducer()).entries == {
            "a": 1,
            "b": 2,
        }
        third.close()

    def test_one_file_keeps_transducers_apart(self, tmp_path):
        # One file serves many transducers: the fingerprint in every
        # key and memo row keeps their results and certificates apart.
        path = tmp_path / "tier.sqlite"
        relay = relay_identity_transducer()
        partitions = sample_partitions(GRAPH, line(2), 2)
        relay_partitions = sample_partitions(ELEMENTS, line(2), 2)
        cache = RunCache(disk_path=path)
        tc_ref = sweep_runs(
            line(2), TC, partitions, (0,), run_cache=cache
        )
        relay_ref = sweep_runs(
            line(2), relay, relay_partitions, (0,), run_cache=cache
        )
        cache.store_memo(TC, ConvergenceMemo({"tc": 1}))
        cache.store_memo(relay, ConvergenceMemo({"relay": 2}))
        cache.close()
        reopened = RunCache(disk_path=path)
        assert sweep_runs(
            line(2), transitive_closure_transducer(), partitions, (0,),
            run_cache=reopened,
        ) == tc_ref
        assert sweep_runs(
            line(2), relay_identity_transducer(), relay_partitions, (0,),
            run_cache=reopened,
        ) == relay_ref
        assert reopened.cache_misses == 0
        assert reopened.memo_for(TC).entries == {"tc": 1}
        assert reopened.memo_for(relay).entries == {"relay": 2}
        reopened.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reopened_file_serves_a_whole_sweep(self, tmp_path, workers):
        # The warm start end to end: a sweep recorded into the file
        # and closed is served, cell for cell, by the next session —
        # serial or parallel — without re-executing a single run.
        path = tmp_path / "tier.sqlite"
        partitions = sample_partitions(GRAPH, line(3), 3)
        cold = RunCache(max_bytes=4096, disk_path=path)
        reference = sweep_runs(
            line(3), TC, partitions, (0, 1), run_cache=cold
        )
        cold.close()
        warm = RunCache(max_bytes=4096, disk_path=path)
        got = sweep_runs(
            line(3), TC, partitions, (0, 1),
            run_cache=warm, engine=SweepEngine(workers=workers),
        )
        assert got == reference
        assert warm.cache_misses == 0
        assert warm.cache_hits + warm.cache_dedup == len(reference)
        warm.close()


# ---------------------------------------------------------------------------
# The shared worker tier: views, journals, merged deltas
# ---------------------------------------------------------------------------


class TestWorkerSharedTier:
    def test_worker_view_journal_and_merge(self):
        parent = RunCache()
        parent.record(("warm",), "w")
        view = parent.worker_view()
        hits0 = parent.cache_hits
        assert view.get(("warm",)) == "w"  # the snapshot serves it...
        assert parent.cache_hits == hits0  # ...without touching the parent
        view.record(("fresh",), "f")
        delta = view.drain_new()
        assert delta == {("fresh",): "f"}
        assert view.drain_new() == {}  # drained
        assert parent.merge_worker_delta(delta) == 1
        assert parent.entries[("fresh",)] == "f"
        # existing entries win on overlap
        assert parent.merge_worker_delta({("fresh",): "other"}) == 0
        assert parent.entries[("fresh",)] == "f"

    def test_merge_worker_delta_respects_bounds(self):
        parent = RunCache(max_bytes=2 * _weigh("a"))
        parent.record(("a",), "a")
        parent.merge_worker_delta({("b",): "b", ("c",): "c"})
        assert len(parent) == 2
        assert list(parent.entries) == [("b",), ("c",)]

    def test_view_pickles_memory_only(self, tmp_path):
        parent = RunCache(
            max_bytes=4096, disk_path=tmp_path / "tier.sqlite"
        )
        parent.record(("k",), "v")
        view = parent.worker_view()
        clone = pickle.loads(pickle.dumps(view))
        assert clone.disk_path is None and clone._disk is None
        assert clone.max_bytes is None
        assert clone.entries == {("k",): "v"}
        clone.start_journal()  # what _run_task_mp does per task
        clone.record(("k2",), "v2")
        assert clone.drain_new() == {("k2",): "v2"}
        parent.close()

    def test_run_task_mp_ships_cache_delta_and_shared_hits(self):
        from repro.net.executor import _run_task_mp

        network = line(2)
        partition = sample_partitions(GRAPH, network, 1)[0]
        run_kwargs = RunOptions().as_kwargs()
        fp = transducer_fingerprint(TC)
        cache = RunCache()
        view = cache.worker_view()
        context = (network, TC, None, run_kwargs, view, fp)
        obs, _, _, _, delta, shared = _run_task_mp(context, (partition, 0))
        assert shared is False
        assert len(delta) == 1  # the fresh cell travels back
        cache.merge_worker_delta(delta)
        # A later task whose view snapshot includes the cell serves it
        # without re-running — the shared hit.
        view2 = cache.worker_view()
        context2 = (network, TC, None, run_kwargs, view2, fp)
        obs2, _, _, _, delta2, shared2 = _run_task_mp(
            context2, (partition, 0)
        )
        assert shared2 is True
        assert delta2 == {}
        assert obs2 == obs

    @pytest.mark.parametrize("workers", [2])
    def test_parallel_sweep_merges_worker_deltas(self, workers):
        partitions = sample_partitions(GRAPH, line(3), 3)
        cache = RunCache()
        obs = sweep_runs(
            line(3), TC, partitions, (0, 1),
            run_cache=cache, engine=SweepEngine(workers=workers),
        )
        distinct = len({
            (partition_digest(p), s)
            for p in partitions for s in (0, 1)
        })
        # Every executed cell landed in the parent cache (splice fill +
        # merged worker deltas agree).
        assert len(cache) == distinct
        assert cache.cache_misses == distinct
        warm = sweep_runs(
            line(3), TC, partitions, (0, 1),
            run_cache=cache, engine=SweepEngine(workers=workers),
        )
        assert warm == obs
        assert cache.cache_misses == distinct  # no new misses warm


# ---------------------------------------------------------------------------
# Damage degradation: a damaged sqlite file never crashes a sweep
# ---------------------------------------------------------------------------


class TestCacheDamageDegradation:
    """A damaged sqlite file degrades, it does not crash.

    A corrupt file is purged and recreated at open, a file that fails
    mid-session disables the tier, a row that fails its checksum is a
    miss — and in every case the sweep on top runs to completion and
    equals the uncached reference: damage costs warmth, never a
    decoder error and never a wrong hit.
    """

    def _written_file(self, tmp_path):
        """A populated file (entries and a memo row) and the uncached
        reference sweep it was recorded from."""
        td = transitive_closure_transducer()
        partitions = sample_partitions(GRAPH, line(2), 2)
        path = tmp_path / "tier.sqlite"
        cache = RunCache(disk_path=path)
        reference = sweep_runs(
            line(2), td, partitions, (0, 1), run_cache=cache, memo=True
        )
        cache.store_memo(td, td.convergence_memo)
        memo_entries = dict(td.convergence_memo.entries)
        cache.close()
        return path, partitions, reference, memo_entries

    def _tamper(self, path, table, damage):
        """Replace the value of *table*'s first row with ``damage(v)``."""
        conn = sqlite3.connect(path)
        try:
            key, value = conn.execute(
                f"SELECT k, v FROM {table} ORDER BY rowid LIMIT 1"
            ).fetchone()
            conn.execute(
                f"UPDATE {table} SET v = ? WHERE k = ?", (damage(value), key)
            )
            conn.commit()
        finally:
            conn.close()

    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.9])
    def test_truncated_file_opens_cold_with_a_warning(self, tmp_path, keep):
        path, partitions, reference, _ = self._written_file(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * keep)])
        with pytest.warns(RuntimeWarning, match="corrupt|disabling the tier"):
            cache = RunCache(disk_path=path)
            got = sweep_runs(
                line(2), TC, partitions, (0, 1), run_cache=cache
            )
        assert got == reference
        cache.record(("k",), "v")  # cold but fully usable
        assert cache.get(("k",)) == "v"
        cache.close()

    def test_byte_flipped_file_never_propagates_decoder_errors(
        self, tmp_path
    ):
        # Flip one byte at a time across the file: every position opens,
        # sweeps and closes without an exception escaping, the sweep
        # equals the reference, and a memo that comes back is the one
        # that was stored — sqlite checksums no page, the row seals do.
        path, partitions, reference, memo_entries = self._written_file(
            tmp_path
        )
        blob = path.read_bytes()
        step = max(1, len(blob) // 60)
        for pos in range(0, len(blob), step):
            flipped = bytearray(blob)
            flipped[pos] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                cache = RunCache(disk_path=path)
                got = sweep_runs(
                    line(2), TC, partitions, (0, 1), run_cache=cache
                )
                memo = cache.memo_for(TC)
                cache.close()
            assert got == reference, pos
            assert memo is None or memo.entries == memo_entries, pos

    def test_damaged_row_is_a_miss_and_is_rewritten(self, tmp_path):
        path, partitions, reference, _ = self._written_file(tmp_path)
        # Flip the last byte of one row's pickle: the page is intact,
        # so only the row's seal can tell.
        self._tamper(
            path, "entries", lambda v: v[:-1] + bytes([v[-1] ^ 1])
        )
        damaged = RunCache(disk_path=path)
        with pytest.warns(RuntimeWarning, match="damaged entries row"):
            got = sweep_runs(
                line(2), TC, partitions, (0, 1), run_cache=damaged
            )
        assert got == reference
        assert damaged.cache_misses == 1  # the damaged cell re-ran
        damaged.close()  # ...and the spill overwrote its row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            healed = RunCache(disk_path=path)
            assert sweep_runs(
                line(2), TC, partitions, (0, 1), run_cache=healed
            ) == reference
        assert healed.cache_misses == 0
        healed.close()

    def test_row_under_the_wrong_key_is_never_served(self, tmp_path):
        # Two rows with their values swapped (what a damaged index can
        # do): each value is an intact pickle, but the seal covers the
        # key too, so both cells miss instead of serving the other's
        # result.
        path, partitions, reference, _ = self._written_file(tmp_path)
        conn = sqlite3.connect(path)
        try:
            (k1, v1), (k2, v2) = conn.execute(
                "SELECT k, v FROM entries ORDER BY rowid LIMIT 2"
            ).fetchall()
            conn.execute("UPDATE entries SET v = ? WHERE k = ?", (v2, k1))
            conn.execute("UPDATE entries SET v = ? WHERE k = ?", (v1, k2))
            conn.commit()
        finally:
            conn.close()
        cache = RunCache(disk_path=path)
        with pytest.warns(RuntimeWarning, match="damaged entries row"):
            got = sweep_runs(
                line(2), TC, partitions, (0, 1), run_cache=cache
            )
        assert got == reference
        assert cache.cache_misses == 2
        cache.close()

    def test_damaged_memo_row_is_ignored_with_a_warning(self, tmp_path):
        path, _, _, memo_entries = self._written_file(tmp_path)
        self._tamper(path, "memos", lambda v: bytes(len(v)))
        cache = RunCache(disk_path=path)
        with pytest.warns(RuntimeWarning, match="damaged memos row"):
            assert cache.memo_for(TC) is None
            cache.store_memo(TC, ConvergenceMemo(dict(memo_entries)))
        cache.close()
        healed = RunCache(disk_path=path)
        assert healed.memo_for(TC).entries == memo_entries
        healed.close()

    def test_unopenable_path_degrades_to_memory_only(self, tmp_path):
        path = tmp_path / "no-such-directory" / "tier.sqlite"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache = RunCache(max_bytes=_weigh("v0"), disk_path=path)
        messages = [str(w.message) for w in caught]
        assert all(w.category is RuntimeWarning for w in caught)
        assert "disabling the tier" in messages[-1]
        for i in range(3):
            cache.record(("k", i), f"v{i}")
        assert cache.get(("k", 2)) == "v2"
        assert cache.get(("k", 0)) is None  # evicted, nowhere to demote
        assert cache.stats()["disk_entries"] == 0
        cache.close()
        assert not path.exists()

    def test_corrupt_disk_tier_is_purged_at_open(self, tmp_path):
        disk = tmp_path / "tier.sqlite"
        disk.write_bytes(b"this is not a sqlite database, not even close")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = RunCache(max_bytes=_weigh("v0"), disk_path=str(disk))
        try:
            # the fresh tier really works: evictions demote, misses promote
            for i in range(3):
                cache.record(("k", i), f"v{i}")
            assert cache.stats()["demotions"] > 0
            assert cache.get(("k", 0)) == "v0"
            assert cache.stats()["promotions"] > 0
        finally:
            cache.close()

    def test_corrupted_cache_start_never_crashes_a_sweep(self, tmp_path):
        partitions = sample_partitions(GRAPH, line(3), 3)
        reference = sweep_runs(line(3), TC, partitions, (0, 1))
        disk = tmp_path / "tier.sqlite"
        disk.write_bytes(b"\x00" * 512)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = RunCache(max_bytes=4096, disk_path=str(disk))
        try:
            got = sweep_runs(
                line(3), TC, partitions, (0, 1),
                run_cache=cache, engine=SweepEngine(workers=2),
            )
            assert got == reference
        finally:
            cache.close()

    def test_mid_session_disk_failure_disables_the_tier(self, tmp_path):
        disk = tmp_path / "tier.sqlite"
        cache = RunCache(max_bytes=_weigh("v0"), disk_path=str(disk))
        try:
            for i in range(3):
                cache.record(("k", i), f"v{i}")
            assert cache.stats()["disk_entries"] > 0
            # Scribble over the database out from under the live
            # connection: the next disk read hits malformed pages.
            disk.write_bytes(b"\xde\xad\xbe\xef" * 4096)
            with pytest.warns(RuntimeWarning, match="disabling the tier"):
                assert cache.get(("k", 0)) is None  # demoted + lost
            # memory stays authoritative; the cache keeps working
            cache.record(("k", 9), "v9")
            assert cache.get(("k", 9)) == "v9"
            assert cache.stats()["disk_entries"] == 0
        finally:
            cache.close()
