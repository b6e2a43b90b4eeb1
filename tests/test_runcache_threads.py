"""Thread-safety regressions for the shared run cache (PR 10).

The verification service multiplexes every client onto ONE
``RunCache``; before the locks landed, ``get``/``record``/
``_evict_over_bound`` interleavings could lose counter increments,
corrupt the byte ledger, or double-evict, the sqlite disk tier raised
``ProgrammingError`` on first cross-thread use, and two threads could
race ``runtime_token()``'s lazy init.  Each test here hammers one of
those paths from many threads and asserts the exact sequential
invariants — under CPython's GIL the races are windows, not
certainties, so the hammers iterate enough to have caught the old
bugs reliably (verified by reverting the locks).
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.net.runcache as runcache_mod
from repro.core import transitive_closure_transducer
from repro.db import Fact, Instance, schema
from repro.net import ConvergenceMemo, check_consistency, line
from repro.net.runcache import RunCache, _weigh, runtime_token

#: Every ``{"cell": i}`` value below (i < 256) weighs the same, so a
#: budget of ``n * _CELL_WEIGHT`` holds exactly n of them.
_CELL_WEIGHT = _weigh({"cell": 0})


@pytest.fixture(autouse=True)
def tight_thread_switching():
    """Shrink the GIL switch interval so the hammers actually interleave.

    At the default 5 ms interval the whole get/record critical section
    usually runs between switches and the old races never fire; at
    1 µs the unlocked cache fails these invariants on every trial
    (KeyError double-evicts, 'dictionary changed size', short
    ledgers) — that is the regression signal the locks must suppress.
    """
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _run_threads(n: int, target, *args) -> list:
    """Start *n* threads at a barrier, join them, re-raise any error."""
    barrier = threading.Barrier(n)
    errors: list[BaseException] = []

    def _wrapped(idx: int):
        try:
            barrier.wait()
            target(idx, *args)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=_wrapped, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return errors


def _key(i: int) -> tuple:
    return ("fair-random", "netA", f"sha256:{i:04d}", "pd:hammer", i, ())


class TestCacheHammer:
    """Concurrent get/record/bump keep every ledger exact."""

    THREADS = 8
    OPS = 2000
    KEYS = 48

    def _hammer(self, cache: RunCache) -> tuple[int, int]:
        """Returns (total gets, total dedup bumps) across all threads."""
        per_thread_dedup = 25

        def work(idx: int):
            for op in range(self.OPS):
                key = _key((op * 7 + idx * 13) % self.KEYS)
                value = cache.get(key)
                if value is None:
                    cache.record(key, {"payload": "x" * 64, "cell": key[4]})
                else:
                    assert value["cell"] == key[4]
                if op % (self.OPS // per_thread_dedup) == 0:
                    cache.bump("cache_dedup")

        _run_threads(self.THREADS, work)
        dedups = self.THREADS * len(
            range(0, self.OPS, self.OPS // per_thread_dedup)
        )
        return self.THREADS * self.OPS, dedups

    def test_counters_cover_the_grid_unbounded(self):
        cache = RunCache()
        gets, dedups = self._hammer(cache)
        # Every get() is exactly one hit or one miss; every bump is
        # one dedup.  Lost increments (the old `+=` races) break this.
        assert cache.cache_hits + cache.cache_misses == gets
        assert cache.cache_dedup == dedups
        assert cache.cache_hits + cache.cache_misses + cache.cache_dedup == (
            gets + dedups
        )

    def test_ledger_is_sum_of_weights_under_eviction(self):
        # A byte bound small enough to evict constantly: record /
        # evict / re-record interleave across threads, and the ledger
        # must still be the exact sum of the retained weights.
        cache = RunCache(max_bytes=4096)
        gets, _dedups = self._hammer(cache)
        assert cache.cache_hits + cache.cache_misses == gets
        assert cache.bytes == sum(cache._weights.values())
        assert set(cache._weights) == set(cache.entries)
        assert cache.bytes <= cache.max_bytes
        assert cache.evictions > 0


class TestPerSweepCacheCounts:
    """A consistency report counts its own sweep's cache lookups.

    Deltas of the shared cache's counters would also count whatever
    overlapping sweeps looked up in the meantime, so two concurrent
    jobs on one cache each reported more lookups than cells.
    """

    def test_overlapping_sweeps_count_only_their_own_cells(self):
        graph = Instance(
            schema(S=2), [Fact("S", (1, 2)), Fact("S", (2, 3)), Fact("S", (3, 1))]
        )
        cache = RunCache()
        reports = []

        def work(idx: int):
            for round_no in range(3):
                reports.append(check_consistency(
                    line(2), transitive_closure_transducer(), graph,
                    partition_count=2, seeds=(round_no, round_no + 1),
                    run_cache=cache,
                ))

        _run_threads(2, work)
        assert len(reports) == 6
        for report in reports:
            assert report.cache_hits + report.cache_misses + report.cache_dedup == (
                len(report.observations)
            )
        # The per-report counts partition the cache's own ledger.
        assert sum(
            r.cache_hits + r.cache_misses + r.cache_dedup for r in reports
        ) == cache.cache_hits + cache.cache_misses + cache.cache_dedup


class TestDiskTierThreads:
    """The sqlite tier works from threads other than its opener."""

    def test_cross_thread_get_and_promote(self, tmp_path):
        cache = RunCache(
            max_bytes=4 * _CELL_WEIGHT,
            disk_path=str(tmp_path / "tier.sqlite"),
        )
        for i in range(32):
            cache.record(_key(i), {"cell": i})
        assert cache.demotions > 0
        hits = []

        def work(idx: int):
            # Every key is resolvable: either still in memory or on
            # disk.  Before check_same_thread=False this raised
            # sqlite3.ProgrammingError on the first disk read.
            for i in range(32):
                value = cache.get(_key((i + idx) % 32))
                assert value is not None and value["cell"] == (i + idx) % 32
                hits.append(1)

        _run_threads(6, work)
        assert len(hits) == 6 * 32
        assert cache.bytes == sum(cache._weights.values())

    def test_close_races_inflight_reads(self, tmp_path):
        cache = RunCache(
            max_bytes=2 * _CELL_WEIGHT,
            disk_path=str(tmp_path / "tier.sqlite"),
        )
        for i in range(24):
            cache.record(_key(i), {"cell": i})
        stop = threading.Event()

        def reader(idx: int):
            i = 0
            while not stop.is_set():
                # After close() the tier must degrade to misses, never
                # raise from a half-torn-down connection.
                cache.get(_key(i % 24))
                i += 1

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        try:
            cache.close()
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_demote_while_reading(self, tmp_path):
        """Writers spilling to disk and readers promoting interleave."""
        cache = RunCache(
            max_bytes=6 * _CELL_WEIGHT,
            disk_path=str(tmp_path / "tier.sqlite"),
        )

        def work(idx: int):
            for op in range(150):
                i = (op * 5 + idx * 11) % 40
                if cache.get(_key(i)) is None:
                    cache.record(_key(i), {"cell": i})

        _run_threads(6, work)
        assert cache.bytes == sum(cache._weights.values())
        assert cache.bytes <= cache.max_bytes

    def test_memo_snapshots_from_threads_reach_the_file(self, tmp_path):
        """Concurrent store_memo/memo_for on one fingerprint lose no
        certificate, in memory or in the file they spill to."""
        path = str(tmp_path / "tier.sqlite")
        td = transitive_closure_transducer()
        seeded = RunCache(disk_path=path)
        seeded.store_memo(td, ConvergenceMemo({("seed",): True}))
        seeded.close()
        cache = RunCache(disk_path=path)

        def work(idx: int):
            for i in range(40):
                cache.store_memo(td, ConvergenceMemo({(idx, i): True}))
                memo = cache.memo_for(td)
                assert (idx, i) in memo.entries
                assert ("seed",) in memo.entries

        _run_threads(6, work)
        cache.close()
        reopened = RunCache(disk_path=path)
        expected = {("seed",)} | {(idx, i) for idx in range(6) for i in range(40)}
        assert set(reopened.memo_for(td).entries) == expected
        reopened.close()


class TestRuntimeTokenRace:
    def test_first_call_is_race_free(self, monkeypatch):
        # Clear the module-level memo so every thread races the lazy
        # first-call initialization; all must agree on one token.
        monkeypatch.setattr(runcache_mod, "_RUNTIME_TOKEN", None)
        tokens: list[str] = []
        lock = threading.Lock()

        def work(idx: int):
            token = runtime_token()
            with lock:
                tokens.append(token)

        _run_threads(16, work)
        assert len(tokens) == 16
        assert len(set(tokens)) == 1
        assert tokens[0] and tokens[0] == runtime_token()

    def test_token_matches_uncleared_value(self):
        # The double-checked path must compute the same digest as the
        # already-initialized fast path.
        before = runtime_token()
        runcache_mod._RUNTIME_TOKEN = None
        try:
            assert runtime_token() == before
        finally:
            runcache_mod._RUNTIME_TOKEN = before


class TestSharedCacheIsProcessWide:
    """One cache serving several 'clients' (threads) stays coherent."""

    def test_worker_view_merge_from_threads(self):
        parent = RunCache()
        for i in range(8):
            parent.record(_key(i), {"cell": i})

        def work(idx: int):
            view = parent.worker_view()
            for i in range(8, 12):
                key = ("fair-random", "netA", f"sha256:w{idx}", "pd:x", i, ())
                view.record(key, {"cell": i, "worker": idx})
            parent.merge_worker_delta(view.drain_new())

        _run_threads(5, work)
        # 8 shared + 4 per worker (disjoint fingerprints).
        assert len(parent.entries) == 8 + 4 * 5
        assert parent.bytes == sum(parent._weights.values())

    def test_pickle_snapshot_under_mutation(self):
        import pickle

        cache = RunCache()
        stop = threading.Event()

        def writer(idx: int):
            i = 0
            while not stop.is_set():
                cache.record(_key(i % 64), {"cell": i})
                i += 1

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        try:
            for _ in range(20):
                copy = pickle.loads(pickle.dumps(cache))
                assert copy.bytes == sum(copy._weights.values())
        finally:
            stop.set()
            for t in threads:
                t.join()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-x", "-q"]))
