"""E25 — the run-level result cache (engineering, not a paper claim).

The semantic harnesses re-execute identical run cells constantly: the
CALM diagnostic's coordination, NTI and monotonicity probes, and any
consistency re-check, all replay ``(network, transducer, partition,
seed, kwargs)`` tuples a previous harness already executed.  PR 4's
:class:`~repro.net.runcache.RunCache` memoizes whole
:class:`~repro.net.run.RunResult`s under those keys (guarded by a
canonical transducer fingerprint), keeps the cross-run
:class:`~repro.net.convergence.ConvergenceMemo` per fingerprint, and
persists both to one sqlite file so CI jobs start warm.

The measurement, a *cross-harness* pass on the E17 chain workload (the
transitive-closure flooder): one consistency sweep plus the full CALM
diagnostic (coordination witness search, NTI probes, 30 monotonicity
trials — every corner of the harness stack):

1. **cold** — a fresh transducer, no cache, no memo;
2. **recording** — a fresh transducer writing into a file-backed
   RunCache + memo (the pass any earlier CI job or session would have
   run);
3. **close / reopen** — ``close()`` spills the cache into the sqlite
   file and a new ``RunCache(disk_path=…)`` opens it, exactly as the
   CI artifact is used;
4. **warm** — a *third*, freshly built transducer served from the
   reopened file: fingerprint-keyed entries must hit across
   transducer objects, which is what makes cross-process persistence
   sound.

The bar: the warm pass must be ≥ 2× faster than the cold pass, with
equal evidence — the consistency observations must be equal
observation for observation (a cache hit reproduces the exact
RunResult) and the CALM verdicts must match.  ``$REPRO_RUNCACHE``
names the sqlite file (default ``CACHE_runcache.sqlite``, the CI
warm-start artifact); ``$REPRO_RUNCACHE_BYTES`` reopens it under a
byte budget, which CI pins generously so the warm pass stays all-hits
while exercising the weighted promotion path.

A **byte-budget column** repeats the warm pass through the
byte-weighted LRU (``max_bytes`` = half the working set, so churn is
guaranteed): eviction churn turns hits back into recomputation, so
the bench asserts the *evidence* is still identical to the cold pass
(eviction can cost time, never correctness) and reports the
hit/miss/eviction counts.  A **disk-tier column** reopens the file
with memory squeezed to an eighth of the working set: the warm pass
promotes from disk and demotes the overflow back, so *nothing
recomputes* — the bench asserts zero misses with demotions and
promotions both > 0, which is the hierarchy's whole pitch (eviction
demotes, never discards).  The speedup bar applies to the unbounded
warm pass only.
"""

import os
import pathlib
import time

from conftest import once, write_snapshot

from repro.analysis import calm_verdict
from repro.core import transitive_closure_transducer
from repro.db import instance, schema
from repro.net import RunCache, check_consistency, line

S2 = schema(S=2)
CHAIN_FACTS = 16
N_NODES = 3
PARTITIONS = 3
SEEDS = (0, 1)
REQUIRED_SPEEDUP = 2.0
SNAPSHOT = pathlib.Path(__file__).with_name("BENCH_runcache.json")
CACHE_PATH = pathlib.Path(
    os.environ.get(
        "REPRO_RUNCACHE",
        pathlib.Path(__file__).with_name("CACHE_runcache.sqlite"),
    )
)
# The byte budget the file is reopened under (CI pins a generous
# 16 MiB); unset reopens it unbounded.
CACHE_BYTES = (
    int(os.environ["REPRO_RUNCACHE_BYTES"])
    if os.environ.get("REPRO_RUNCACHE_BYTES")
    else None
)


def _workload(transducer, run_cache=None, memo=None):
    """One cross-harness pass: consistency sweep + full CALM diagnostic."""
    chain = instance(S2, S=[(i, i + 1) for i in range(CHAIN_FACTS)])
    consistency = check_consistency(
        line(N_NODES), transducer, chain,
        partition_count=PARTITIONS, seeds=SEEDS,
        run_cache=run_cache, memo=memo,
    )
    verdict = calm_verdict(
        transducer, chain, run_cache=run_cache, memo=memo,
    )
    return consistency, verdict


def test_e25_run_cache_warm_pass(benchmark, report):
    rows = []
    snapshot = []
    ok = True
    speedup = 0.0

    def run_all():
        nonlocal ok, speedup

        t0 = time.perf_counter()
        cold_consistency, cold_verdict = _workload(
            transitive_closure_transducer()
        )
        t_cold = time.perf_counter() - t0
        ok &= cold_consistency.consistent and cold_verdict.consistent_with_calm()
        rows.append(["cold", f"{t_cold:.2f}s", "-", "-", "-"])
        snapshot.append({"pass": "cold", "seconds": round(t_cold, 3)})

        # Recording straight into the file-backed cache: a file left
        # by an earlier run under this runtime pre-warms it, a stale
        # one is purged at open (cold start, never a failed bench).
        cache = RunCache(disk_path=CACHE_PATH)
        recorder = transitive_closure_transducer()
        t0 = time.perf_counter()
        rec_consistency, rec_verdict = _workload(
            recorder, run_cache=cache, memo=True
        )
        t_rec = time.perf_counter() - t0
        cache.store_memo(recorder, recorder.convergence_memo)
        ok &= rec_consistency.observations == cold_consistency.observations
        ok &= rec_verdict == cold_verdict
        rows.append([
            "recording", f"{t_rec:.2f}s", "-",
            cache.cache_misses, len(cache),
        ])
        snapshot.append({
            "pass": "recording", "seconds": round(t_rec, 3),
            "cache_entries": len(cache),
        })

        # Close / reopen: the spill writes every entry and the memo
        # snapshot into the sqlite file; the reopened cache starts
        # with cold memory and a warm file, exactly like the next CI
        # job.
        cache.close()
        loaded = RunCache(max_bytes=CACHE_BYTES, disk_path=CACHE_PATH)
        ok &= loaded.max_bytes == CACHE_BYTES

        warm_td = transitive_closure_transducer()
        warm_memo = loaded.memo_for(warm_td)
        ok &= warm_memo is not None and len(warm_memo) > 0
        t0 = time.perf_counter()
        warm_consistency, warm_verdict = _workload(
            warm_td, run_cache=loaded, memo=warm_memo
        )
        t_warm = time.perf_counter() - t0
        speedup = t_cold / max(t_warm, 1e-9)

        # A cache hit reproduces the exact RunResult: equal evidence,
        # observation for observation, across transducer *objects*.
        identical = (
            warm_consistency.observations == cold_consistency.observations
        )
        ok &= identical
        ok &= warm_verdict == cold_verdict
        # The warm consistency sweep must run without executing a
        # single cell: every cell is a cache hit or an in-grid
        # duplicate of one (dedup cells never consult the store).
        cells = PARTITIONS * len(SEEDS)
        ok &= warm_consistency.cache_hits + warm_consistency.cache_dedup == cells
        ok &= warm_consistency.cache_misses == 0
        ok &= speedup >= REQUIRED_SPEEDUP
        rows.append([
            "warm (loaded)", f"{t_warm:.2f}s", f"{speedup:.1f}x",
            loaded.cache_misses, "yes" if identical else "NO",
        ])
        snapshot.append({
            "pass": "warm-loaded", "seconds": round(t_warm, 3),
            "speedup_vs_cold": round(speedup, 2),
            "cache_hits": loaded.cache_hits,
            "cache_misses": loaded.cache_misses,
            "observations_identical": identical,
        })

        # Everything the warm pass touched is back in memory; spill it
        # and release the file for the disk-tier column below.
        loaded.close()

        # Byte-budget column: the same warm pass through the
        # byte-weighted LRU at half the loaded working set — eviction
        # churn is guaranteed, the evidence must not change.
        byte_budget = max(loaded.bytes // 2, 1)
        weighted = RunCache(max_bytes=byte_budget)
        weighted.merge_worker_delta(loaded.entries)
        weighted_td = transitive_closure_transducer()
        t0 = time.perf_counter()
        w_consistency, w_verdict = _workload(
            weighted_td, run_cache=weighted,
            memo=loaded.memo_for(weighted_td),
        )
        t_weighted = time.perf_counter() - t0
        w_identical = (
            w_consistency.observations == cold_consistency.observations
        )
        ok &= w_identical
        ok &= w_verdict == cold_verdict
        ok &= weighted.bytes <= byte_budget
        ok &= weighted.evictions > 0
        rows.append([
            f"warm (bytes={byte_budget})", f"{t_weighted:.2f}s",
            f"{t_cold / max(t_weighted, 1e-9):.1f}x",
            weighted.cache_misses, "yes" if w_identical else "NO",
        ])
        snapshot.append({
            "pass": "warm-bytes",
            "seconds": round(t_weighted, 3),
            "speedup_vs_cold": round(t_cold / max(t_weighted, 1e-9), 2),
            "max_bytes": byte_budget,
            "bytes": weighted.bytes,
            "cache_hits": weighted.cache_hits,
            "cache_misses": weighted.cache_misses,
            "evictions": weighted.evictions,
            "observations_identical": w_identical,
        })

        # Disk-tier column: the file reopened with memory squeezed to
        # an eighth of the working set.  The warm pass promotes from
        # disk and demotes the overflow back — nothing recomputes, so
        # zero misses despite the tight budget.
        tight_budget = max(loaded.bytes // 8, 1)
        tiered = RunCache(max_bytes=tight_budget, disk_path=CACHE_PATH)
        tiered_td = transitive_closure_transducer()
        t0 = time.perf_counter()
        d_consistency, d_verdict = _workload(
            tiered_td, run_cache=tiered,
            memo=loaded.memo_for(tiered_td),
        )
        t_tiered = time.perf_counter() - t0
        d_identical = (
            d_consistency.observations == cold_consistency.observations
        )
        tiered_stats = tiered.stats()
        ok &= d_identical
        ok &= d_verdict == cold_verdict
        ok &= tiered.bytes <= tight_budget
        ok &= tiered.cache_misses == 0  # demote, never discard
        ok &= tiered_stats["demotions"] > 0
        ok &= tiered_stats["promotions"] > 0
        tiered.close()
        rows.append([
            f"warm (disk, bytes={tight_budget})", f"{t_tiered:.2f}s",
            f"{t_cold / max(t_tiered, 1e-9):.1f}x",
            tiered_stats["cache_misses"], "yes" if d_identical else "NO",
        ])
        snapshot.append({
            "pass": "warm-disk",
            "seconds": round(t_tiered, 3),
            "speedup_vs_cold": round(t_cold / max(t_tiered, 1e-9), 2),
            "max_bytes": tight_budget,
            "cache_hits": tiered_stats["cache_hits"],
            "cache_misses": tiered_stats["cache_misses"],
            "demotions": tiered_stats["demotions"],
            "promotions": tiered_stats["promotions"],
            "disk_entries": tiered_stats["disk_entries"],
            "observations_identical": d_identical,
        })

        write_snapshot(SNAPSHOT, {
            "experiment": "E25",
            "claim": "warm run-cache cross-harness pass (consistency + "
                     "CALM) >= 2x over cold on the E17 chain workload "
                     f"(TC flooding, chain n={CHAIN_FACTS}, line({N_NODES}))",
            "required_speedup": REQUIRED_SPEEDUP,
            "measured_speedup": round(speedup, 2),
            "results": snapshot,
        })

    once(benchmark, run_all)
    report(
        "E25",
        "Run-level result cache: warm cross-harness pass vs cold "
        f"(consistency + CALM on chain n={CHAIN_FACTS}, line({N_NODES}))",
        ["pass", "time", "speedup", "cache misses", "identical"],
        rows,
        ok,
        f"(warm speedup {speedup:.1f}x, bar {REQUIRED_SPEEDUP}x; cached "
        "observations == fresh observations, CALM verdicts equal)",
    )
