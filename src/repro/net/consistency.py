"""Consistency and network-topology independence (Section 4).

"A transducer network (N, Π) is *consistent* if for every instance I of
Sin, all fair runs on all possible horizontal partitions of I have the
same output."  A consistent network *computes* Q if that common output
is always Q(I).  A transducer is *network-topology independent* when
(N, Π) is consistent for every network N and computes the same query
regardless of N.

Both properties quantify over all instances, partitions and fair runs —
undecidable in general — so the checkers here enumerate/sample per the
substitution rules in DESIGN.md §2 and return evidence-carrying
reports: a counterexample found is a genuine refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..db.instance import Instance
from ..core.transducer import Transducer
from .network import Network, single, standard_topologies
from .partition import HorizontalPartition, sample_partitions
from .run import RunOptions, RunResult, run_fair


@dataclass
class RunObservation:
    """One observed run: where it came from and what it output."""

    network: Network
    partition: HorizontalPartition
    seed: int
    result: RunResult


@dataclass
class ConsistencyReport:
    """Evidence gathered by :func:`check_consistency`.

    ``memo_hits``/``memo_misses`` report cross-run convergence-memo
    effectiveness when the sweep ran with one (both stay 0 otherwise);
    ``cache_hits``/``cache_misses``/``cache_dedup`` do the same for the
    run-level :class:`~repro.net.runcache.RunCache`: hits served from
    the cache, misses actually executed, and in-grid duplicate cells
    resolved without consulting the store (they never execute, so they
    are neither hits nor misses — ``hits + misses + dedup`` covers the
    grid).

    The fault counters (``messages_dropped`` … ``partitions``) sum the
    per-run :meth:`~repro.net.run.RunStats.fault_counts` over every
    observation; all stay 0 for clean sweeps.
    """

    consistent: bool
    outputs: list[frozenset] = field(default_factory=list)
    observations: list[RunObservation] = field(default_factory=list)
    unconverged: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_dedup: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    crashes: int = 0
    restarts: int = 0
    partitions: int = 0

    def fault_counts(self) -> dict[str, int]:
        """The aggregated fault counters as a dict (mirrors
        :meth:`~repro.net.run.RunStats.fault_counts`)."""
        return {
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_delayed": self.messages_delayed,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "partitions": self.partitions,
        }

    def _groups(self) -> dict[frozenset, list[RunObservation]]:
        """Observations grouped by output, one O(n) pass, insertion-ordered."""
        groups: dict[frozenset, list[RunObservation]] = {}
        for obs in self.observations:
            groups.setdefault(obs.result.output, []).append(obs)
        return groups

    @property
    def distinct_outputs(self) -> list[frozenset]:
        # One dict pass instead of the old O(n²) list-membership scan;
        # dict.fromkeys keeps first-seen order, matching the old result.
        return list(dict.fromkeys(self.outputs))

    def witness_pair(self) -> tuple[RunObservation, RunObservation] | None:
        """Two observations with different outputs, if any.

        Matches the old O(n²) pairwise scan's answer — the
        lexicographically first differing pair always involves the
        first observation (any two observations that both equal it
        cannot differ from each other), so grouping by output in one
        pass suffices.
        """
        groups = self._groups()
        if len(groups) <= 1:
            return None
        first, second = list(groups)[:2]
        return (groups[first][0], groups[second][0])


def observe_runs(
    network: Network,
    transducer: Transducer,
    instance: Instance,
    partitions: list[HorizontalPartition] | None = None,
    partition_count: int = 5,
    seeds: tuple[int, ...] = (0, 1, 2),
    options: RunOptions = RunOptions(),
    memo=None,
    run_cache=None,
    engine=None,
) -> list[RunObservation]:
    """Run (N, Π) on several partitions × schedules and record outputs.

    *options* (a :class:`~repro.net.run.RunOptions`) is forwarded to
    every :func:`~repro.net.run.run_fair` — consistency quantifies over
    fair runs, and batched runs of batchable (oblivious, monotone,
    inflationary) transducers are fair runs too, so sampling them
    strengthens the evidence.  A fault plan in *options* subjects every
    run to the same seeded faults — a faulty run is still a
    deterministic function of ``(plan, seed, scheduler)``, so the
    returned observations stay reproducible bit-for-bit.

    *engine* (a :class:`~repro.net.executor.SweepEngine`; ``None``
    runs serially in-process) executes the sweep: runs are
    independent, so they execute concurrently without changing a
    single observation — the returned list is identical to the serial
    one for every worker count.
    *memo* opts into cross-run convergence memoization (``True`` for
    the memo hung off the transducer, or an explicit
    :class:`~repro.net.convergence.ConvergenceMemo`); it accelerates
    checks without affecting verdicts.  *run_cache* short-circuits
    whole runs already known to the
    :class:`~repro.net.runcache.RunCache`, and a ``persistent``-lifetime
    *engine* reuses one live fork pool across consecutive sweeps; both
    also leave every observation unchanged.
    """
    from .executor import sweep_runs

    if partitions is None:
        partitions = sample_partitions(instance, network, partition_count)
    return sweep_runs(
        network,
        transducer,
        partitions,
        seeds,
        options,
        memo=memo,
        run_cache=run_cache,
        engine=engine,
    )


def check_consistency(
    network: Network,
    transducer: Transducer,
    instance: Instance,
    partitions: list[HorizontalPartition] | None = None,
    partition_count: int = 5,
    seeds: tuple[int, ...] = (0, 1, 2),
    options: RunOptions = RunOptions(),
    memo=None,
    run_cache=None,
    engine=None,
) -> ConsistencyReport:
    """Empirical consistency check of (N, Π) on one instance.

    Consistency fails definitively if two fair runs produced different
    outputs; it is supported (not proved) when all sampled runs agree.
    *engine*/*memo*/*run_cache* parallelize, memoize and cache the
    underlying sweep (see :func:`observe_runs`) without changing the
    report's evidence; memo and run-cache effectiveness are surfaced on
    the report.  The cache counts are this sweep's own lookups, even
    when other sweeps share the cache.  A fault plan in *options*
    injects seeded faults into every run; the aggregate fault counters
    are surfaced on the report.
    """
    from .convergence import resolve_memo
    from .executor import _sweep

    memo = resolve_memo(memo, transducer)
    hits0 = misses0 = 0
    if memo is not None:
        hits0, misses0 = memo.memo_hits, memo.memo_misses
    if partitions is None:
        partitions = sample_partitions(instance, network, partition_count)
    splice = _sweep(
        network, transducer, partitions, seeds, options, memo, run_cache, engine,
    )
    observations = splice.results
    outputs = [obs.result.output for obs in observations]
    unconverged = sum(1 for obs in observations if not obs.result.converged)
    consistent = len(set(outputs)) <= 1
    fault_totals = {
        "messages_dropped": 0,
        "messages_duplicated": 0,
        "messages_delayed": 0,
        "crashes": 0,
        "restarts": 0,
        "partitions": 0,
    }
    for obs in observations:
        for name, count in obs.result.stats.fault_counts().items():
            fault_totals[name] += count
    return ConsistencyReport(
        consistent=consistent,
        outputs=outputs,
        observations=observations,
        unconverged=unconverged,
        memo_hits=memo.memo_hits - hits0 if memo is not None else 0,
        memo_misses=memo.memo_misses - misses0 if memo is not None else 0,
        cache_hits=splice.hits,
        cache_misses=splice.misses,
        cache_dedup=splice.dedup,
        **fault_totals,
    )


def computed_output(
    network: Network,
    transducer: Transducer,
    instance: Instance,
    seed: int = 0,
    options: RunOptions = RunOptions(),
    memo=None,
    run_cache=None,
) -> frozenset:
    """The output of one canonical fair run (full replication, given seed).

    For a consistent network this *is* the computed query's answer.
    *options* are the run's :class:`~repro.net.run.RunOptions`.
    *memo* shares convergence certificates with other runs of the same
    transducer (the CALM monotonicity probes call this in a loop);
    *run_cache* skips the run entirely when this exact cell was
    executed before — it shares keys with :func:`sweep_runs` (same
    ``options``, same key), so a consistency sweep can warm the CALM
    reference evaluation and vice versa.
    """
    from .convergence import resolve_memo
    from .runcache import resolve_run_cache, run_key, transducer_fingerprint

    cache = resolve_run_cache(run_cache, transducer)
    partitions = sample_partitions(instance, network, 1)
    run_kwargs = options.as_kwargs()
    key = None
    if cache is not None:
        key = run_key(
            "fair-random",
            network,
            transducer_fingerprint(transducer),
            partitions[0],
            seed,
            run_kwargs,
        )
        cached = cache.get(key)
        if cached is not None:
            return cached.output
    result = run_fair(
        network,
        transducer,
        partitions[0],
        seed=seed,
        memo=resolve_memo(memo, transducer),
        **run_kwargs,
    )
    if cache is not None:
        cache.record(key, result)
    return result.output


@dataclass
class TopologyIndependenceReport:
    """Evidence gathered by :func:`check_topology_independence`."""

    independent: bool
    per_network: dict[str, frozenset] = field(default_factory=dict)
    inconsistent_networks: list[str] = field(default_factory=list)

    def distinct_outputs(self) -> list[frozenset]:
        seen: list[frozenset] = []
        for out in self.per_network.values():
            if out not in seen:
                seen.append(out)
        return seen


def check_topology_independence(
    transducer: Transducer,
    instance: Instance,
    networks: list[Network] | None = None,
    partition_count: int = 3,
    seeds: tuple[int, ...] = (0, 1),
    options: RunOptions = RunOptions(),
    memo=None,
    run_cache=None,
    engine=None,
) -> TopologyIndependenceReport:
    """Empirically check network-topology independence on one instance.

    Every sampled network must be internally consistent, and all
    networks must agree on the output.  The single-node network is
    always included — Example 4 fails exactly there.

    A single *memo* is sound across all the networks probed here: the
    memoized certificates depend only on the transducer, not on the
    topology (see :class:`~repro.net.convergence.ConvergenceMemo`).
    The same holds for *run_cache* (the network is part of the cache
    key) and a persistent *engine* — one live pool serves every
    per-network sweep, which is the fork-amortization this probe grid
    exists for.  *options* applies to every per-network sweep alike.
    """
    from .convergence import resolve_memo
    from .runcache import resolve_run_cache

    if networks is None:
        networks = standard_topologies(4)
    if not any(len(net) == 1 for net in networks):
        networks = [single()] + list(networks)
    memo = resolve_memo(memo, transducer)
    run_cache = resolve_run_cache(run_cache, transducer)
    per_network: dict[str, frozenset] = {}
    inconsistent: list[str] = []
    for network in networks:
        report = check_consistency(
            network,
            transducer,
            instance,
            partition_count=partition_count,
            seeds=seeds,
            options=options,
            memo=memo,
            run_cache=run_cache,
            engine=engine,
        )
        if not report.consistent:
            inconsistent.append(network.name)
            continue
        per_network[network.name] = report.outputs[0]
    outputs = set(per_network.values())
    independent = not inconsistent and len(outputs) <= 1
    return TopologyIndependenceReport(
        independent=independent,
        per_network=per_network,
        inconsistent_networks=inconsistent,
    )
