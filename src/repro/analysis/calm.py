"""The CALM-property harness (Section 6, Corollaries 13/14/17).

Ties the whole library together: given a transducer, this module
extracts the query it distributedly computes (as a plain
:class:`~repro.lang.query.Query` via :class:`ComputedQuery`), checks
the syntactic property flags, probes coordination-freeness, and tests
monotonicity of the computed query — the three corners of the CALM
triangle::

        coordination-free  ⇔  oblivious(-expressible)  ⇔  monotone

All semantic checks are empirical per DESIGN.md §2: counterexamples are
definitive, confirmations are evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.properties import property_report
from ..core.transducer import Transducer
from ..db.instance import Instance
from ..db.schema import DatabaseSchema
from ..lang.monotone import check_monotone_pair, instance_pairs
from ..lang.query import Query
from ..net.consistency import computed_output
from ..net.coordination import check_coordination_free_on
from ..net.network import Network, line
from ..net.run import RunOptions

if TYPE_CHECKING:
    from .static.diagnostics import StaticReport


class ComputedQuery(Query):
    """The query a (consistent, NTI) transducer distributedly computes.

    Evaluation runs the transducer on a reference network with a
    canonical partition and fair schedule; by consistency and
    network-topology independence the choice does not matter (both
    properties are themselves checked by separate benches).
    """

    def __init__(
        self,
        transducer: Transducer,
        network: Network | None = None,
        seed: int = 0,
        options: RunOptions = RunOptions(),
        memo=None,
        run_cache=None,
    ):
        self.transducer = transducer
        self.network = network if network is not None else line(2)
        self.seed = seed
        # The reference run's options; a fault plan here makes the
        # reference run tolerate the injected faults, which is exactly
        # the claim the fault-plane property suite exercises on
        # CALM-positive transducers.
        self.options = options
        # Cross-run convergence memo: the monotonicity probes evaluate
        # this query on dozens of instances of the same transducer, so
        # certificates proven in one evaluation warm the next.
        self.memo = memo
        # Run-level cache: repeated evaluations on the *same* instance
        # (CALM re-derives Q(I) per probe, CI re-derives it per job)
        # skip the reference run entirely.
        self.run_cache = run_cache
        self.arity = transducer.schema.output_arity
        self.input_schema = transducer.schema.inputs

    def __call__(self, instance: Instance) -> frozenset[tuple]:
        instance = instance.restrict(
            [n for n in self.input_schema if n in instance.schema]
        ).expand_schema(self.input_schema)
        return computed_output(
            self.network,
            self.transducer,
            instance,
            seed=self.seed,
            options=self.options,
            memo=self.memo,
            run_cache=self.run_cache,
        )

    def __repr__(self) -> str:
        return f"ComputedQuery({self.transducer.name} on {self.network.name})"


@dataclass
class CalmVerdict:
    """One transducer's CALM diagnostics."""

    name: str
    oblivious: bool
    inflationary: bool
    monotone_queries: bool
    uses_id: bool
    uses_all: bool
    coordination_free: bool | None
    computed_query_monotone: bool | None
    topology_independent: bool | None = None
    #: "static" when at least one semantic probe was discharged by a
    #: static certificate, else "empirical".  Excluded from equality:
    #: static-first and full-empirical verdicts of the same transducer
    #: compare equal (the soundness contract).
    verdict_source: str = field(default="empirical", compare=False)
    #: Per-probe provenance: probe name → "static" | "empirical".
    sources: dict[str, str] = field(default_factory=dict, compare=False, repr=False)
    #: The transducer's static report when static analysis ran.
    static_report: StaticReport | None = field(
        default=None, compare=False, repr=False
    )

    def explain(self) -> str:
        """Human-readable rendering: probe sources plus, when static
        analysis ran, the full provenance-carrying report."""
        from .reporting import format_table, render_report

        rows = [("verdict_source", self.verdict_source)]
        rows.extend(sorted(self.sources.items()))
        text = format_table(("probe", "source"), rows)
        if self.static_report is not None:
            text += "\n\n" + render_report(self.static_report)
        return text

    def consistent_with_calm(self) -> bool:
        """Does the verdict satisfy the implications of Corollary 13?

        All of the paper's implications presuppose network-topology
        independence (queries are only *defined* for NTI transducers), so
        they are vacuous when ``topology_independent`` is False:

        * NTI ∧ oblivious ⇒ coordination-free (Prop. 11);
        * NTI ∧ coordination-free ⇒ monotone computed query (Thm. 12);
        * NTI ∧ no-Id ⇒ monotone computed query (Thm. 16).

        ``None`` entries (checks skipped) are treated as unconstrained;
        an unknown NTI status is treated as NTI (the strict reading).
        """
        if self.topology_independent is False:
            return True
        if self.oblivious and self.coordination_free is False:
            return False
        if self.coordination_free and self.computed_query_monotone is False:
            return False
        if not self.uses_id and self.computed_query_monotone is False:
            return False
        return True


def calm_verdict(
    transducer: Transducer,
    test_instance: Instance,
    network: Network | None = None,
    monotonicity_domain: tuple = (1, 2, 3),
    monotonicity_trials: int = 30,
    check_coordination: bool = True,
    seed: int = 0,
    options: RunOptions = RunOptions(),
    memo=None,
    run_cache=None,
    engine=None,
    static_first: bool = False,
) -> CalmVerdict:
    """Assemble the full CALM diagnostic for one transducer.

    Coordination-freeness quantifies over *every* instance, so the probe
    runs on the provided test instance *and* the empty instance (the
    empty instance is the hard case for queries like emptiness, whose
    answer on nonempty inputs is trivially reachable without messages).

    *options* (a :class:`~repro.net.run.RunOptions`) applies to every
    fair run the diagnostic performs: the reference evaluations and the
    NTI probes alike.  Batched delivery is only legal (and only
    meaningful) for oblivious, monotone, inflationary transducers,
    where CALM guarantees the same computed query.

    *engine* (a :class:`~repro.net.executor.SweepEngine`; ``None`` runs
    serially in-process) executes the run sweeps underneath
    (coordination witness search, NTI consistency probes); *memo*
    shares one cross-run convergence memo across every fair run the
    diagnostic performs — one transducer, hence one sound scope.
    *run_cache* skips whole runs the cache has seen (the diagnostic
    re-executes many identical cells across its probes — and across
    *diagnostics*, since the cache is fingerprint-keyed); a
    ``persistent``-lifetime *engine* runs every sweep underneath
    through one live fork pool.  All verdicts
    are identical with or without any of these knobs.

    A fault plan in *options* subjects the reference evaluations and
    the NTI probes to the plan's injected faults.  The coordination
    probes stay *clean* deliberately: they drive heartbeat-only
    schedules whose verdict semantics (cycle detection over
    message-free runs) a fault plan would distort.

    *static_first* consults the static analyzer before sweeping.  The
    NTI probe always runs empirically (there is no sound static NTI
    certificate — ``relay_identity`` is oblivious yet not NTI); when it
    passes and no fault plan is injected, a certified-oblivious
    transducer skips the coordination probes (Prop. 11) and a
    certified-Id-free one skips the monotonicity sweep (Thm. 16).  The
    resulting verdict is **equal** to the full empirical one — the
    certificates are sound, pinned by the differential suite — with
    ``verdict_source`` / per-probe ``sources`` recording which probes
    were discharged statically and ``static_report`` carrying the
    diagnostics.
    """
    from ..net.consistency import check_topology_independence
    from ..net.convergence import resolve_memo
    from ..net.network import single
    from ..net.runcache import resolve_run_cache

    network = network if network is not None else line(2)
    flags = property_report(transducer)
    memo = resolve_memo(memo, transducer)
    run_cache = resolve_run_cache(run_cache, transducer)
    query = ComputedQuery(
        transducer, network, seed=seed, options=options,
        memo=memo, run_cache=run_cache,
    )

    static_report: StaticReport | None = None
    if static_first:
        from .static import analyze_transducer

        static_report = analyze_transducer(transducer)

    # The NTI probe runs first: it is the premise of every static
    # shortcut (Prop. 11 and Thm. 16 both presuppose NTI).  Each probe
    # below is independently seeded, so the order of execution cannot
    # change any individual verdict.
    sources: dict[str, str] = {"topology_independent": "empirical"}
    nti_report = check_topology_independence(
        transducer,
        test_instance,
        networks=[single(), network],
        partition_count=2,
        seeds=(seed,),
        options=options,
        memo=memo,
        run_cache=run_cache,
        engine=engine,
    )
    # Static certificates only discharge probes when their NTI premise
    # holds and the run is clean (a fault plan changes what the
    # empirical probes would measure, so nothing is skipped under one).
    static_ok = (
        static_report is not None
        and nti_report.independent
        and options.faults is None
    )

    coordination_free: bool | None = None
    if check_coordination:
        if (
            static_ok
            and static_report is not None
            and static_report.certifies("coordination_free_given_nti")
        ):
            coordination_free = True
            sources["coordination_free"] = "static"
        else:
            probes = [test_instance, Instance.empty(transducer.schema.inputs)]
            verdicts = []
            for probe in probes:
                expected = query(probe)
                report = check_coordination_free_on(
                    network, transducer, probe, expected,
                    run_cache=run_cache, engine=engine,
                )
                verdicts.append(report.coordination_free)
            coordination_free = all(verdicts)
            sources["coordination_free"] = "empirical"

    monotone: bool | None = None
    if (
        static_ok
        and static_report is not None
        and static_report.certifies("computed_monotone_given_nti")
    ):
        monotone = True
        sources["computed_query_monotone"] = "static"
    else:
        pairs = instance_pairs(
            transducer.schema.inputs,
            monotonicity_domain,
            monotonicity_trials,
            seed=seed,
        )
        monotone = all(
            check_monotone_pair(query, small, big) for small, big in pairs
        )
        sources["computed_query_monotone"] = "empirical"

    return CalmVerdict(
        name=transducer.name,
        oblivious=flags["oblivious"],
        inflationary=flags["inflationary"],
        monotone_queries=flags["monotone"],
        uses_id=flags["uses_id"],
        uses_all=flags["uses_all"],
        coordination_free=coordination_free,
        computed_query_monotone=monotone,
        topology_independent=nti_report.independent,
        verdict_source=(
            "static" if "static" in sources.values() else "empirical"
        ),
        sources=sources,
        static_report=static_report,
    )


def empty_instance(schema: DatabaseSchema) -> Instance:
    """Convenience: the empty instance of a schema."""
    return Instance.empty(schema)
