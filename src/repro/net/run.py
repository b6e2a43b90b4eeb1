"""Runs of transducer networks: the schedule driver, replay, wrappers.

The paper's runs are *infinite* fair sequences of heartbeat and
delivery transitions; the output of a run is the union of the outputs
of its transitions, and Proposition 1 guarantees a quiescence point.
A simulator must truncate: we run until the system is *converged* — no
reachable future transition can change any node state or produce new
output — which implies the output quiescence point has passed.  The
convergence test is exact (see :mod:`repro.net.convergence`; the
default engine is the incremental :class:`ConvergenceTracker`, whose
verdicts provably — and property-testedly — equal the from-scratch
test), so truncation never cuts off output for converging systems;
systems that churn forever hit the step budget and are reported
unconverged.

The runtime is split in two layers:

* :func:`run_schedule` — the generic driver: executes the actions of a
  :class:`~repro.net.scheduler.Scheduler`, accumulates output and
  stats, runs convergence checks where the scheduler asks for them,
  and enforces the batched-delivery legality gate;
* the classic entry points — :func:`run_fair`,
  :func:`run_heartbeat_only`, :func:`run_fifo_rounds`, and the new
  :func:`run_round_robin_batch` — are thin wrappers choosing a
  scheduler.  Their seeded schedules replay bit-for-bit what they
  produced before the scheduler refactor (the golden-replay suite in
  ``tests/test_runtime_replay.py`` pins the exact step counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.transducer import Transducer
from .config import Configuration, initial_configuration
from .convergence import ConvergenceMemo, ConvergenceTracker, is_converged
from .faults import (
    FAULT_ACTION_KINDS,
    FaultPlan,
    FaultyScheduler,
    execute_fault_action,
)
from .network import Network, Node
from .partition import HorizontalPartition
from .scheduler import (
    FairRandomScheduler,
    FifoRoundsScheduler,
    HeartbeatOnlyScheduler,
    RoundRobinBatchScheduler,
    Scheduler,
    WitnessGuidedScheduler,
    require_batchable,
)
from .transition import GlobalTransition, deliver, deliver_batch, heartbeat

__all__ = [
    "RunContext",
    "RunOptions",
    "RunResult",
    "RunStats",
    "is_converged",
    "run_fair",
    "run_fifo_rounds",
    "run_heartbeat_only",
    "run_round_robin_batch",
    "run_schedule",
    "run_witness_guided",
]


@dataclass
class RunStats:
    """Counts accumulated over a run.

    The fault counters stay zero on clean runs; under a
    :class:`~repro.net.faults.FaultPlan` they record what the fault
    plane actually did (occurrences removed / injected / held, node
    crashes and restarts, link partitions opened).
    """

    steps: int = 0
    heartbeats: int = 0
    deliveries: int = 0
    facts_sent: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    crashes: int = 0
    restarts: int = 0
    partitions: int = 0

    def record(self, transition: GlobalTransition) -> None:
        self.steps += 1
        if transition.kind == "heartbeat":
            self.heartbeats += 1
        else:
            self.deliveries += 1
        self.facts_sent += len(transition.sent_facts)

    def fault_counts(self) -> dict[str, int]:
        """The fault counters as a dict (reporting convenience)."""
        return {
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_delayed": self.messages_delayed,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "partitions": self.partitions,
        }


@dataclass
class RunResult:
    """The outcome of a (truncated) run."""

    config: Configuration
    output: frozenset
    outputs_by_node: dict[Node, frozenset]
    converged: bool
    stats: RunStats
    quiescence_step: int = 0
    trace: list[GlobalTransition] = field(default_factory=list)
    scheduler: str = "fair-random"

    def __repr__(self) -> str:
        return (
            f"RunResult(|out|={len(self.output)}, converged={self.converged}, "
            f"steps={self.stats.steps})"
        )


class _OutputTracker:
    """Accumulates out(ρ) = ∪ out(τ) and the quiescence step."""

    def __init__(self) -> None:
        self.output: set = set()
        self.by_node: dict[Node, set] = {}
        self.quiescence_step = 0
        self._frozen: frozenset = frozenset()

    def record(self, node: Node, produced: frozenset, step: int) -> None:
        new = produced - self.output
        if new:
            self.output |= new
            self.quiescence_step = step
            self._frozen = frozenset(self.output)
        self.by_node.setdefault(node, set()).update(produced)

    def frozen(self) -> frozenset:
        """The accumulated output as a cached frozenset.

        Rebuilt only when the output actually grows, so the convergence
        fast paths (witness hits, verdict replays) stay O(1) instead of
        paying an O(|output|) copy per check.
        """
        return self._frozen

    def result_fields(self) -> tuple[frozenset, dict[Node, frozenset]]:
        return (
            frozenset(self.output),
            {v: frozenset(s) for v, s in self.by_node.items()},
        )


class RunContext:
    """The live view of a run a scheduler generates against.

    ``config`` is updated by the driver after every committed
    transition; ``produced`` is the accumulated output so far (used by
    schedulers with their own stability tests, e.g. fifo-rounds with
    skipped nodes); ``stats`` are the running counters.
    """

    __slots__ = ("network", "transducer", "config", "stats", "_outputs", "tracker")

    def __init__(
        self,
        network: Network,
        transducer: Transducer,
        config: Configuration,
        stats: RunStats,
        outputs: _OutputTracker,
    ):
        self.network = network
        self.transducer = transducer
        self.config = config
        self.stats = stats
        self._outputs = outputs
        #: The run's ConvergenceTracker when the incremental engine is
        #: active, else None.  Witness-aware schedulers read its cached
        #: failure witnesses; treat it as read-only.
        self.tracker = None

    @property
    def produced(self) -> frozenset:
        return self._outputs.frozen()


def run_schedule(
    network: Network,
    transducer: Transducer,
    partition: HorizontalPartition,
    scheduler: Scheduler,
    max_steps: int | None = 20_000,
    keep_trace: bool = False,
    convergence: str = "incremental",
    memo: "ConvergenceMemo | None" = None,
    faults: FaultPlan | None = None,
) -> RunResult:
    """Execute *scheduler*'s schedule, truncated at convergence.

    *convergence* selects the check engine: ``"incremental"`` (the
    default — a per-run :class:`ConvergenceTracker`) or ``"exact"``
    (the from-scratch reference test).  Both produce the same verdicts;
    the Hypothesis suite pins the equality.

    *memo* plugs a cross-run :class:`ConvergenceMemo` into the
    incremental tracker, so quiescence certificates proven by earlier
    runs of the same transducer are reused (and new ones recorded).
    Verdicts — and hence the run — are unaffected; only check speed is.

    *max_steps* bounds the number of committed transitions (``None``
    for no bound — round-based schedulers carry their own round
    budgets).  If the schedule ends without a verdict of its own, a
    final convergence check decides (``scheduler.final_check``).

    *faults* injects a seeded :class:`~repro.net.faults.FaultPlan` by
    wrapping *scheduler* in a
    :class:`~repro.net.faults.FaultyScheduler`; ``None`` (the
    default) leaves the schedule untouched — bit-for-bit, so clean
    golden replays are unaffected.  Fault actions the wrapper emits
    are executed here (they own no step budget: only committed
    transitions count against *max_steps*).
    """
    if faults is not None and not isinstance(scheduler, FaultyScheduler):
        scheduler = FaultyScheduler(scheduler, faults)
    if scheduler.uses_batching:
        require_batchable(transducer)
    if convergence not in ("incremental", "exact"):
        raise ValueError(f"unknown convergence engine {convergence!r}")

    config = initial_configuration(network, transducer, partition)
    outputs = _OutputTracker()
    stats = RunStats()
    trace: list[GlobalTransition] = []
    ctx = RunContext(network, transducer, config, stats, outputs)

    tracker = (
        ConvergenceTracker(network, transducer, memo=memo)
        if convergence == "incremental"
        else None
    )
    ctx.tracker = tracker

    def check() -> bool:
        produced = outputs.frozen()
        if tracker is not None:
            return tracker.check(ctx.config, produced)
        return is_converged(network, transducer, ctx.config, produced)

    converged = False
    verdict: bool | None = None
    generator = scheduler.schedule(ctx)
    send_value: object = None
    while True:
        try:
            action = generator.send(send_value)
        except StopIteration as stop:
            verdict = stop.value
            break
        if action.kind == "check":
            if check():
                converged = True
                break
            send_value = False
            continue
        if action.kind in FAULT_ACTION_KINDS:
            event = execute_fault_action(ctx, partition, action)
            if tracker is not None:
                tracker.note_transition(event)
            if keep_trace:
                trace.append(event)
            send_value = event
            continue
        if max_steps is not None and stats.steps >= max_steps:
            break
        if action.kind == "heartbeat":
            transition = heartbeat(network, transducer, ctx.config, action.node)
        elif action.kind == "deliver":
            transition = deliver(
                network, transducer, ctx.config, action.node, action.fact
            )
        elif action.kind == "deliver_batch":
            transition = deliver_batch(network, transducer, ctx.config, action.node)
        else:
            raise ValueError(f"unknown action kind {action.kind!r}")
        ctx.config = transition.after
        stats.record(transition)
        outputs.record(action.node, transition.output, stats.steps)
        if tracker is not None:
            tracker.note_transition(transition)
        if keep_trace:
            trace.append(transition)
        send_value = transition

    if not converged:
        if verdict is not None:
            converged = verdict
        elif scheduler.final_check:
            converged = check()
    output, by_node = outputs.result_fields()
    return RunResult(
        config=ctx.config,
        output=output,
        outputs_by_node=by_node,
        converged=converged,
        stats=stats,
        quiescence_step=outputs.quiescence_step,
        trace=trace,
        scheduler=scheduler.name,
    )


@dataclass(frozen=True)
class RunOptions:
    """The knobs that change a seeded fair run's result.

    A seeded run is a pure function of ``(network, transducer,
    partition, seed, options)``, and the run cache keys on exactly that
    tuple, so every sweep harness takes one ``options`` value instead
    of copying these fields across its signature.  Knobs that change
    speed but never results (``memo``, ``run_cache``, ``engine``) stay
    separate arguments and out of the key.
    """

    max_steps: int = 20_000
    batch_delivery: bool = False
    faults: FaultPlan | None = None

    def as_kwargs(self) -> dict:
        """The :func:`run_fair` keywords, which double as the
        ``run_key`` kwargs.  ``faults`` is present only when a plan is
        set, so a faulty cell never aliases a clean one and clean keys
        carry no plan at all."""
        kwargs = {
            "max_steps": self.max_steps,
            "batch_delivery": self.batch_delivery,
        }
        if self.faults is not None:
            kwargs["faults"] = self.faults
        return kwargs


def run_fair(
    network: Network,
    transducer: Transducer,
    partition: HorizontalPartition,
    seed: int = 0,
    max_steps: int = 20_000,
    deliver_bias: float = 0.75,
    keep_trace: bool = False,
    check_every: int | None = None,
    batch_delivery: bool = False,
    convergence: str = "incremental",
    scheduler: Scheduler | None = None,
    memo: ConvergenceMemo | None = None,
    faults: FaultPlan | None = None,
) -> RunResult:
    """A seeded random fair run, truncated at convergence.

    Fairness of the infinite completion is modelled by (i) uniform node
    choice, so every node heartbeats infinitely often, and (ii) a
    delivery bias, so buffered facts are eventually delivered.  The
    truncation point is the exact convergence test, so for converging
    transducers the returned output equals out(ρ) of any fair completion
    of the prefix.

    *batch_delivery* opts into draining a node's whole buffer per
    delivery transition — sound (and enforced) only for oblivious,
    monotone transducers.  *scheduler* swaps the entire schedule; the
    other schedule knobs are then ignored.
    """
    if scheduler is None:
        scheduler = FairRandomScheduler(
            seed=seed,
            deliver_bias=deliver_bias,
            check_every=check_every,
            batch_delivery=batch_delivery,
        )
    return run_schedule(
        network,
        transducer,
        partition,
        scheduler,
        max_steps=max_steps,
        keep_trace=keep_trace,
        convergence=convergence,
        memo=memo,
        faults=faults,
    )


def run_heartbeat_only(
    network: Network,
    transducer: Transducer,
    partition: HorizontalPartition,
    max_rounds: int = 1_000,
    faults: FaultPlan | None = None,
) -> RunResult:
    """Round-robin heartbeat transitions only (no deliveries ever).

    Used by the coordination-freeness definition: the run stops when the
    global state vector repeats (further heartbeats cannot produce new
    output, since transitions are deterministic functions of state).
    Messages are still sent into buffers, faithfully — they are simply
    never read within this prefix.
    """
    return run_schedule(
        network,
        transducer,
        partition,
        HeartbeatOnlyScheduler(max_rounds=max_rounds),
        max_steps=None,
        faults=faults,
    )


def run_fifo_rounds(
    network: Network,
    transducer: Transducer,
    partition: HorizontalPartition,
    max_rounds: int = 2_000,
    skip_nodes: frozenset | None = None,
    keep_trace: bool = False,
    batch_delivery: bool = False,
    convergence: str = "incremental",
    memo: ConvergenceMemo | None = None,
    faults: FaultPlan | None = None,
) -> RunResult:
    """The deterministic fifo round schedule of Theorem 16's proof.

    Each round: every (non-skipped) node heartbeats, in sorted order;
    then, if some buffer is nonempty, every node with a nonempty fifo
    delivers its *oldest* buffered fact; otherwise every node heartbeats
    a second time.  *skip_nodes* realizes the proof's run ρ' where node
    3 is "ignored completely".  Stops at convergence (skipped nodes
    excluded from the test's scope by simply never acting).
    """
    return run_schedule(
        network,
        transducer,
        partition,
        FifoRoundsScheduler(
            max_rounds=max_rounds,
            skip_nodes=skip_nodes,
            batch_delivery=batch_delivery,
        ),
        max_steps=None,
        keep_trace=keep_trace,
        convergence=convergence,
        memo=memo,
        faults=faults,
    )


def run_round_robin_batch(
    network: Network,
    transducer: Transducer,
    partition: HorizontalPartition,
    max_rounds: int = 2_000,
    keep_trace: bool = False,
    batch_delivery: bool = True,
    convergence: str = "incremental",
    memo: ConvergenceMemo | None = None,
    faults: FaultPlan | None = None,
) -> RunResult:
    """The round-robin batched-delivery schedule (new in the scheduler
    refactor): per round each node drains its whole buffer in one
    transition, or heartbeats when it has nothing to read.

    Only legal for oblivious, monotone, inflationary transducers (the CALM
    schedule-invariance guarantee); pass ``batch_delivery=False`` for
    the same round shape with one-at-a-time deliveries.
    """
    return run_schedule(
        network,
        transducer,
        partition,
        RoundRobinBatchScheduler(
            max_rounds=max_rounds, batch_delivery=batch_delivery
        ),
        max_steps=None,
        keep_trace=keep_trace,
        convergence=convergence,
        memo=memo,
        faults=faults,
    )


def run_witness_guided(
    network: Network,
    transducer: Transducer,
    partition: HorizontalPartition,
    max_rounds: int = 2_000,
    keep_trace: bool = False,
    batch_delivery: bool = False,
    memo: ConvergenceMemo | None = None,
    faults: FaultPlan | None = None,
) -> RunResult:
    """A round-based run that delivers the convergence tracker's cached
    failure-witness facts first.

    The tracker's witnesses name the exact still-enabled transitions
    refuting convergence; delivering those facts first retires the
    refutations as directly as possible, shortening the convergence
    tail (the ROADMAP's witness-guided-scheduling item).  Every node
    still heartbeats each round and every buffer keeps draining, so the
    schedule is fair.  The convergence engine is pinned to
    ``"incremental"`` — witnesses only exist there.
    """
    return run_schedule(
        network,
        transducer,
        partition,
        WitnessGuidedScheduler(
            max_rounds=max_rounds, batch_delivery=batch_delivery
        ),
        max_steps=None,
        keep_trace=keep_trace,
        convergence="incremental",
        memo=memo,
        faults=faults,
    )
