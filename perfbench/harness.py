"""The two harness workloads: ``sweep-cold`` and ``calm-catalog``.

Both call the library in-process, with tracing off for the end-to-end
numbers.  A traced run (``--trace 1``) repeats every operation on the
same inputs with the layer wrappers of :mod:`spans` installed, so the
per-layer split and ``trace.overhead`` come from matched pairs.

sweep-cold
    ``check_consistency(line(3), TC, chain of 14 edges,
    partition_count=3, 2 scheduler seeds)`` on a fresh
    ``transitive_closure_transducer()`` per sweep (its transition
    cache, memo and run cache hang on the transducer object), in three
    variants: default engine serial (``sweep_s``), columnar engine
    serial (``sweep_columnar_s``), default engine with
    ``engine=SweepEngine(workers=2)`` (``sweep_parallel_s``).

    Why: this is the cold path.  Node state is large (up to 105 TC
    facts per node); ``lang`` and ``core`` do almost all the work and
    ``runcache`` and ``service`` none.  The chain is 14 edges, not the
    20 first planned: a 20-edge round of the three variants takes
    ~13 s, so a run held only two or three sweeps per variant and
    their median swung by a quarter from run to run.  At 14 edges a
    round takes ~4 s.

    Layer -> end-to-end map: ``lang.*`` and ``core.*`` -> ``sweep_s``
    and ``sweep_columnar_s`` (``lang.eval_s.columnar`` ->
    ``sweep_columnar_s``); ``net.*`` -> ``sweep_s``;
    ``executor.*`` -> ``sweep_parallel_s`` only (spans inside forked
    workers are not collected); ``runcache.*`` predicted unchanged.

calm-catalog
    ``calm_verdict`` on the six transducers of ``core/examples.py``,
    each on a small instance, once empirically (``catalog_s``) and
    once with ``static_first=True`` (``catalog_static_s``), on a fresh
    transducer per call.

    Why: the opposite shape — a pass makes hundreds of short runs on
    tiny states, so per-run set-up, convergence summaries and the
    analysis probes dominate.  The verdicts cover CALM-positive,
    refuted and not-topology-independent transducers, so every probe
    runs.  ``executor``, ``runcache`` and ``service`` stay idle.

    Layer -> end-to-end map: ``lang.*`` -> ``catalog_s`` (about half);
    ``core.*`` and ``net.*`` (``net.run_s``, ``net.convergence_*``)
    -> ``catalog_s``; ``analysis.*`` -> ``catalog_static_s`` and
    ``catalog_s``.

The workload seed picks the scheduler seed pairs (sweep-cold) and
``calm_verdict``'s trial seed (calm-catalog); the program only sees
the generated inputs.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time
import traceback

from run import (
    OUT,
    Outcome,
    median,
    self_peak_rss_mb,
    time_setup_probes,
)
from spans import Recorder, import_program, layer_metrics

CHAIN = 14
SMOKE_CHAIN = 4
SWEEP_PARTITIONS = 3
VARIANTS = ("default", "columnar", "parallel")
VARIANT_METRIC = {
    "default": "sweep_s",
    "columnar": "sweep_columnar_s",
    "parallel": "sweep_parallel_s",
}
TC_PROGRAM = "T(x, y) :- S(x, y).\nT(x, y) :- T(x, z), T(z, y)."

#: The catalog: example name, its small instance, and the verdict every
#: pass must return (the ``CalmVerdict`` fields that take part in ``==``).
_FLAGS = ("oblivious", "inflationary", "monotone_queries", "uses_id", "uses_all")
_PROBES = ("coordination_free", "computed_query_monotone", "topology_independent")


def _verdict(flags: tuple, probes: tuple) -> dict:
    return dict(zip(_FLAGS, flags)) | dict(zip(_PROBES, probes))


CATALOG = (
    ("example3", {"S": [(1, 2), (2, 3), (3, 4)]},
     _verdict((True, True, True, False, False), (True, True, True))),
    ("example10", {"S": [(1,)]},
     _verdict((False, True, False, True, True), (False, False, True))),
    ("example4", {"S": [(1,), (2,)]},
     _verdict((True, True, True, False, False), (False, True, False))),
    ("section5_ab", {"A": [(1,)], "B": [(2,)]},
     _verdict((False, True, False, True, True), (True, True, True))),
    ("example2", {"S": [(1,), (2,)]},
     _verdict((True, True, False, False, False), (False, False, False))),
    ("example15", {"S": [(1,), (2,)]},
     _verdict((False, True, False, False, True), (False, True, True))),
)
#: Refutations found by sampling: ``calm_verdict`` tests monotonicity on
#: ``monotonicity_trials`` random instance pairs, so a non-monotone
#: computed query reads ``True`` ("not refuted") when no sampled pair
#: is a counterexample.  Such a miss is within the probe's contract and
#: is counted; a run fails when the refutation is missed in half of its
#: passes or more.
SAMPLED_REFUTATIONS = {("example10", "computed_query_monotone"),
                       ("example2", "computed_query_monotone")}


def chain(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n)]


def tc_reference(edges) -> frozenset:
    """Transitive closure of *edges*, by ``seminaive_fixpoint``."""
    from repro.db import Instance
    from repro.db.schema import schema
    from repro.lang.datalog import DatalogProgram, seminaive_fixpoint

    edb = schema(S=2)
    program = DatalogProgram.parse(TC_PROGRAM, edb)
    return seminaive_fixpoint(program, Instance.from_dict(edb, {"S": edges})).relation("T")


def _fresh_example(name: str, payload: dict):
    from repro.core.examples import ALL_EXAMPLES
    from repro.db import Instance

    transducer = ALL_EXAMPLES[name]()
    return transducer, Instance.from_dict(transducer.schema.inputs, payload)


def setup(args) -> dict:
    """Imports, inputs and the warm-up that fills the process-wide plan
    caches (``joinplan``/``vecjoin``) — never the per-transducer caches,
    which every fresh check pays for."""
    import_program()
    from repro.lang.engine import engine_override
    from repro.net import check_consistency, line, run_fair, sample_partitions

    if args.workload == "sweep-cold":
        n = SMOKE_CHAIN if args.smoke else CHAIN
        for engine in ("indexed", "columnar"):
            t, inst = _fresh_example("example3", {"S": chain(3)})
            with engine_override(engine):
                check_consistency(line(3), t, inst, partition_count=1, seeds=(0,))
        return {"chain": n, "reference": tc_reference(chain(n))}
    for name, payload, _ in CATALOG:
        t, inst = _fresh_example(name, payload)
        network = line(2)
        run_fair(network, t, sample_partitions(inst, network, 1)[0], seed=0)
    return {}


def run(args) -> Outcome:
    out = Outcome()
    out.setup_samples = time_setup_probes(args.workload, args.seed, args.smoke)
    context = setup(args)
    recorder = Recorder() if args.trace else None
    if args.workload == "sweep-cold":
        ops, traced = _run_sweeps(args, out, context, recorder)
    else:
        ops, traced = _run_catalog(args, out, recorder)
    out.peak_rss_mb = self_peak_rss_mb()
    if recorder is not None:
        _trace_layers(args, out, recorder, ops, traced)
    return out


def _traced(recorder: Recorder, group: str, fn):
    """Run *fn* once with the layer wrappers installed."""
    recorder.install()
    recorder.set_group(group)
    try:
        return fn()
    finally:
        recorder.set_group(None)
        recorder.uninstall()


# -- sweep-cold ------------------------------------------------------------


def _sweep(variant: str, n: int, seeds: tuple):
    """One cold sweep of *variant*; returns ``(seconds, report, health)``."""
    from repro.lang.engine import engine_override
    from repro.net import SweepEngine, check_consistency, line

    t, inst = _fresh_example("example3", {"S": chain(n)})
    network = line(3)
    kwargs = dict(partition_count=SWEEP_PARTITIONS, seeds=seeds)
    # The previous sweep's garbage is collected here, not inside the
    # timed call.
    gc.collect()
    start = time.perf_counter()
    health = None
    if variant == "columnar":
        with engine_override("columnar"):
            report = check_consistency(network, t, inst, **kwargs)
    elif variant == "parallel":
        with SweepEngine(workers=2) as engine:
            report = check_consistency(network, t, inst, engine=engine, **kwargs)
        health = engine.health
    else:
        report = check_consistency(network, t, inst, **kwargs)
    return time.perf_counter() - start, report, health


def _check_sweep(out: Outcome, label: str, report, reference) -> None:
    out.check(report.consistent, f"{label}: inconsistent")
    out.check(report.unconverged == 0, f"{label}: {report.unconverged} runs unconverged")
    out.check(all(o == reference for o in report.outputs),
              f"{label}: output differs from seminaive_fixpoint TC")
    out.check(report.memo_hits == 0 and report.cache_hits == 0,
              f"{label}: not cold (memo_hits={report.memo_hits}, "
              f"cache_hits={report.cache_hits})")


def _run_sweeps(args, out: Outcome, context: dict, recorder):
    n, reference = context["chain"], context["reference"]
    rng = random.Random(args.seed)
    times = {v: [] for v in VARIANTS}
    round_times = []
    traced = {"wall": 0.0, "plain": 0.0, "retries": 0}
    counts = {"sweeps": 0, "net.runs": 0, "net.steps": 0, "cache_hits": 0,
              "cache_misses": 0, "cache_dedup": 0, "memo_hits": 0,
              "engine_retries_respawns": 0}
    start = time.perf_counter()
    rounds = 0
    while True:
        seeds = tuple(rng.sample(range(1_000_000), 2))
        observations = {}
        for variant in VARIANTS:
            label = f"round {rounds} {variant} seeds={seeds}"
            out.attempted += 1
            try:
                seconds, report, health = _sweep(variant, n, seeds)
            except Exception:  # noqa: BLE001 — an operation failure is data
                out.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            times[variant].append(seconds)
            _check_sweep(out, label, report, reference)
            observations[variant] = report.observations
            counts["sweeps"] += 1
            counts["net.runs"] += len(report.observations)
            counts["net.steps"] += sum(o.result.stats.steps for o in report.observations)
            counts["cache_hits"] += report.cache_hits
            counts["cache_misses"] += report.cache_misses
            counts["cache_dedup"] += report.cache_dedup
            counts["memo_hits"] += report.memo_hits
            if health is not None:
                counts["engine_retries_respawns"] += health.retries + health.respawns
            if recorder is not None:
                t_seconds, t_report, t_health = _traced(
                    recorder, f"round{rounds}/{variant}",
                    lambda: _sweep(variant, n, seeds))
                out.check(t_report.observations == report.observations,
                          f"{label}: traced observations differ")
                traced["wall"] += t_seconds
                traced["plain"] += seconds
                if t_health is not None:
                    traced["retries"] += t_health.retries + t_health.respawns
        if len(observations) == len(VARIANTS):
            round_times.append(sum(times[v][-1] for v in VARIANTS))
            base = observations["default"]
            for variant in ("columnar", "parallel"):
                out.check(observations[variant] == base,
                          f"round {rounds}: {variant} observations differ from default")
        rounds += 1
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    if not round_times:
        raise SystemExit("perfbench: no round completed all sweep variants")
    for variant, metric in VARIANT_METRIC.items():
        out.e2e[metric] = (median(times[variant]), "s", len(times[variant]))
    # Throughput from the median round, so one stalled sweep does not
    # move it.
    out.e2e["sweeps_per_s"] = (len(VARIANTS) / median(round_times), "1/s",
                               len(round_times))
    out.counts = counts
    traced["efficiency"] = (
        median(times["default"]) / (2 * median(times["parallel"])),
        f"sweep_s={median(times['default']):.4f} s / "
        f"(2 x sweep_parallel_s={median(times['parallel']):.4f} s)",
    )
    return rounds, traced


# -- calm-catalog ----------------------------------------------------------


def _catalog_pass(static_first: bool, trial_seed: int) -> tuple[float, list]:
    from repro.analysis import calm_verdict

    verdicts = []
    seconds = 0.0
    gc.collect()
    for name, payload, _ in CATALOG:
        t, inst = _fresh_example(name, payload)
        start = time.perf_counter()
        verdicts.append(calm_verdict(t, inst, seed=trial_seed, static_first=static_first))
        seconds += time.perf_counter() - start
    return seconds, verdicts


def _check_catalog(out: Outcome, label: str, empirical, static, missed: dict) -> None:
    for (name, _, expected), v_emp, v_sta in zip(CATALOG, empirical, static):
        out.check(v_emp == v_sta, f"{label} {name}: static-first verdict != empirical")
        got = {key: getattr(v_emp, key) for key in expected}
        for key in expected:
            if (name, key) in SAMPLED_REFUTATIONS and got[key] and not expected[key]:
                missed[name] = missed.get(name, 0) + 1
                got[key] = expected[key]
        out.check(got == expected, f"{label} {name}: verdict {got} != recorded {expected}")


def _run_catalog(args, out: Outcome, recorder):
    rng = random.Random(args.seed)
    times = {False: [], True: []}
    pair_times = []
    traced = {"wall": 0.0, "plain": 0.0, "retries": 0}
    missed: dict = {}
    start = time.perf_counter()
    passes = 0
    while True:
        trial_seed = rng.randrange(1_000_000)
        results = {}
        for static_first in (False, True):
            out.attempted += 1
            try:
                seconds, verdicts = _catalog_pass(static_first, trial_seed)
            except Exception:  # noqa: BLE001 — an operation failure is data
                out.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            times[static_first].append(seconds)
            results[static_first] = verdicts
            if recorder is not None:
                kind = "static" if static_first else "empirical"
                t_seconds, t_verdicts = _traced(
                    recorder, f"pass{passes}/{kind}",
                    lambda: _catalog_pass(static_first, trial_seed))
                out.check(t_verdicts == verdicts, f"pass {passes}: traced verdicts differ")
                traced["wall"] += t_seconds
                traced["plain"] += seconds
        if len(results) == 2:
            pair_times.append(times[False][-1] + times[True][-1])
            _check_catalog(out, f"pass {passes} trial_seed={trial_seed}",
                           results[False], results[True], missed)
        passes += 1
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    if not pair_times:
        raise SystemExit("perfbench: no empirical and static-first pass pair completed")
    out.e2e["catalog_s"] = (median(times[False]), "s", len(times[False]))
    out.e2e["catalog_static_s"] = (median(times[True]), "s", len(times[True]))
    # Throughput from the median pair of passes, as for sweeps_per_s.
    out.e2e["passes_per_s"] = (2 / median(pair_times), "1/s", len(pair_times))
    for name, count in missed.items():
        out.check(2 * count < passes,
                  f"{name}: non-monotone query not refuted in {count} of {passes} passes")
    out.counts = {"passes": passes, "calm_verdict_calls": 2 * passes * len(CATALOG),
                  "refutations_missed_by_sampling": json.dumps(missed, sort_keys=True),
                  "cache_hits": 0, "cache_misses": 0, "cache_dedup": 0}
    traced["efficiency"] = (0.0, "no parallel engine on this workload")
    return passes, traced


# -- per-layer -------------------------------------------------------------


def _trace_layers(args, out: Outcome, recorder: Recorder, ops: int, traced: dict) -> None:
    totals = recorder.totals()
    layers = layer_metrics(totals, recorder.installed, ops)
    none = "harness runs uncached"
    layers["runcache.hit_ratio"] = (0.0, "ratio", f"0 hits / 0 lookups ({none})")
    layers["runcache.lookups"] = (0.0, "count", none)
    layers["runcache.bytes"] = (0.0, "bytes", none)
    eff, eff_base = traced["efficiency"]
    layers["executor.efficiency"] = (eff, "ratio", eff_base)
    layers["executor.retries"] = (traced["retries"] / ops, "count", None)
    for name in ("service.queue_wait_p50_s", "service.execute_p50_s",
                 "service.execute_p90_s", "service.http_p50_s"):
        layers[name] = (0.0, "s", "no service on this workload")
    root = sum(s for group, s in totals["root_s"].items() if group is not None)
    layers["trace.coverage"] = (
        root / traced["wall"], "ratio",
        f"{root:.3f} s in root spans / {traced['wall']:.3f} s traced wall")
    layers["trace.overhead"] = (
        traced["wall"] / traced["plain"], "ratio",
        f"{traced['wall']:.3f} s traced / {traced['plain']:.3f} s untraced, same inputs")
    out.layers = dict(sorted(layers.items()))
    out.counts["spans_recorded"] = recorder.span_count()
    if recorder.missing:
        out.counts["wrappers_missing"] = ", ".join(recorder.missing)
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
