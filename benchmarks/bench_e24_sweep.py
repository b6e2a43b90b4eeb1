"""E24 — the parallel sweep executor (engineering, not a paper claim).

Consistency checking executes a partitions × seeds grid of fair runs;
PR 3 made the grid a parallel sweep — now the ``fork`` lifetime of the
unified :class:`~repro.net.executor.SweepEngine` — with two cross-run
stores: the transducer's transition cache (shared by fork inheritance)
and the :class:`~repro.net.convergence.ConvergenceMemo` of quiescence
certificates, pre-seeded into every run's tracker and merged back
afterwards.

The measurement, on the E17 chain workload (the transitive-closure
flooder on a chain graph — the shape where every transition pays real
query evaluation):

1. **serial cold** — a fresh transducer, no memo: every run pays
   first-time query evaluations and summary proofs;
2. **warming** — the same sweep once more, serially, recording into the
   memo (this is what any earlier sweep in a session does);
3. **warm-memo sweeps at 2 and 4 workers** — the multiprocessing
   backend with the memo pre-seeded; workers fork-inherit the warm
   caches and ship memo deltas back.

The bar: the 4-worker warm-memo sweep must be ≥ 2.5× faster than the
serial cold sweep, with an *identical* observation list (the executor's
determinism contract — same seeds, same runs, same evidence).  Memo
effectiveness (hits/misses, entries) is reported per sweep and
snapshotted in ``BENCH_sweep.json``.
"""

import os
import pathlib
import time

from conftest import once, write_snapshot

from repro.core import transitive_closure_transducer
from repro.db import instance, schema
from repro.net import RunCache, SweepEngine, check_consistency, line

S2 = schema(S=2)
CHAIN_FACTS = 20
N_NODES = 3
PARTITIONS = 3
SEEDS = (0, 1)
# Overridable for constrained CI runners (e.g. "2" for the 2-worker
# smoke step); the speedup bar applies to the largest count measured.
WORKER_COUNTS = tuple(
    int(w) for w in os.environ.get("REPRO_E24_WORKERS", "2,4").split(",")
)
REQUIRED_SPEEDUP = 2.5
SNAPSHOT = pathlib.Path(__file__).with_name("BENCH_sweep.json")
# A persisted RunCache bundle (the CI warm-start artifact, see E25):
# when present, its convergence-memo snapshot pre-seeds the warming
# sweep so CI jobs start warm across runs.  The cold measurement is
# untouched — the bar stays honest.
WARMSTART = os.environ.get("REPRO_RUNCACHE")


def _preseed_memo(transducer) -> None:
    if not WARMSTART or not os.path.exists(WARMSTART):
        return
    try:
        saved = RunCache.load(WARMSTART)
    except Exception:
        # Warm-starting is pure opportunism: a truncated, cross-version
        # or otherwise unreadable bundle means a cold start, never a
        # failed bench (pickle alone can raise UnpicklingError,
        # EOFError, AttributeError, ImportError ...).
        return
    memo = saved.memo_for(transducer)
    if memo is not None:
        transducer.convergence_memo = memo


def _signature(observations):
    return [
        (obs.seed, obs.result.output, obs.result.converged, obs.result.stats.steps)
        for obs in observations
    ]


def test_e24_parallel_warm_sweep(benchmark, report):
    chain = instance(S2, S=[(i, i + 1) for i in range(CHAIN_FACTS)])
    net = line(N_NODES)
    rows = []
    snapshot = []
    ok = True
    bar_speedup = 0.0

    def run_all():
        nonlocal ok, bar_speedup
        transducer = transitive_closure_transducer()
        kwargs = dict(partition_count=PARTITIONS, seeds=SEEDS)

        t0 = time.perf_counter()
        cold = check_consistency(net, transducer, chain, **kwargs)
        t_cold = time.perf_counter() - t0
        ok &= cold.consistent and cold.unconverged == 0
        rows.append(["serial cold", 1, f"{t_cold:.2f}s", "-", "-", "-", "-"])
        snapshot.append({"sweep": "serial-cold", "workers": 1,
                         "seconds": round(t_cold, 3)})

        _preseed_memo(transducer)
        t0 = time.perf_counter()
        warming = check_consistency(net, transducer, chain, memo=True, **kwargs)
        t_warming = time.perf_counter() - t0
        memo = transducer.convergence_memo
        ok &= warming.consistent
        ok &= _signature(warming.observations) == _signature(cold.observations)
        rows.append([
            "serial warming", 1, f"{t_warming:.2f}s",
            f"{t_cold / max(t_warming, 1e-9):.1f}x",
            warming.memo_hits, warming.memo_misses, len(memo),
        ])
        snapshot.append({
            "sweep": "serial-warming", "workers": 1,
            "seconds": round(t_warming, 3),
            "memo_hits": warming.memo_hits,
            "memo_misses": warming.memo_misses,
            "memo_entries": len(memo),
        })

        for workers in WORKER_COUNTS:
            t0 = time.perf_counter()
            warm = check_consistency(
                net, transducer, chain, memo=True,
                engine=SweepEngine(
                    workers=workers, lifetime="fork" if workers > 1 else None
                ),
                **kwargs,
            )
            t_warm = time.perf_counter() - t0
            speedup = t_cold / max(t_warm, 1e-9)
            # Determinism contract: same seeds, same runs, same evidence
            # — observation for observation, at any worker count.
            identical = warm.observations == cold.observations
            ok &= identical and warm.consistent
            # The warm sweep must be running on certificates, not proofs.
            ok &= warm.memo_hits > 0 and warm.memo_misses == 0
            if workers == WORKER_COUNTS[-1]:
                bar_speedup = speedup
            rows.append([
                "warm memo", workers, f"{t_warm:.2f}s", f"{speedup:.1f}x",
                warm.memo_hits, warm.memo_misses,
                "yes" if identical else "NO",
            ])
            snapshot.append({
                "sweep": "warm-memo", "workers": workers,
                "seconds": round(t_warm, 3),
                "speedup_vs_cold": round(speedup, 2),
                "memo_hits": warm.memo_hits,
                "memo_misses": warm.memo_misses,
                "observations_identical": identical,
            })

        ok &= bar_speedup >= REQUIRED_SPEEDUP
        write_snapshot(SNAPSHOT, {
            "experiment": "E24",
            "claim": f"{WORKER_COUNTS[-1]}-worker warm-memo consistency "
                     "sweep >= 2.5x over the serial cold sweep on the E17 "
                     f"chain workload "
                     f"(TC flooding, chain n={CHAIN_FACTS}, line({N_NODES}))",
            "required_speedup": REQUIRED_SPEEDUP,
            "measured_speedup": round(bar_speedup, 2),
            "runs_per_sweep": PARTITIONS * len(SEEDS),
            "results": snapshot,
        })

    once(benchmark, run_all)
    report(
        "E24",
        "Parallel sweep executor with cross-run convergence memoization "
        f"(TC flooding on chain n={CHAIN_FACTS}, line({N_NODES}), "
        f"{PARTITIONS * len(SEEDS)} runs per sweep)",
        ["sweep", "workers", "time", "speedup", "memo hits", "memo misses",
         "identical"],
        rows,
        ok,
        f"({WORKER_COUNTS[-1]}-worker warm-memo speedup {bar_speedup:.1f}x, "
        f"bar {REQUIRED_SPEEDUP}x; parallel observations == serial "
        "observations)",
    )
