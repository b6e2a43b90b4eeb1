"""The unified sweep engine: one executor, pluggable worker lifetimes.

The paper's semantic properties (consistency, coordination-freeness,
CALM) quantify over *many* fair runs — every partition × seed ×
scheduler combination — and each of those runs is completely
independent of the others: a seeded schedule is a pure function of
``(network, transducer, partition, seed)``.  That independence is
exactly what makes parallelism safe (the same observation the
Canonical Amoebot Model makes for its concurrency layer: concurrent
executions are justified by reduction to a sequential reference):
executing the runs of a sweep concurrently cannot change any
observation, so the engine guarantees **determinism** — the result
list it returns is identical, result for result, to the serial
sweep's, whatever the worker count.  Results are ordered by task
index, never by completion.  ``tests/test_executor_conformance.py``
enforces the contract differentially: every (lifetime × workers ×
cache configuration) combination is run against the serial unbounded
reference and must match it bit for bit.

Every sweep entry point takes exactly one executor argument,
``engine=``: a :class:`SweepEngine`, or ``None`` for an in-process
serial one.  The engine has three worker *lifetimes*:

* ``serial`` — the reference loop, in-process, no pool ever;
* ``fork`` — a fresh fork pool per :class:`EngineSession`, with the
  ``(fn, context)`` payload shipped to workers by **fork inheritance**
  (never pickled) — optimal for one big sweep, and the only lifetime
  that can carry unpicklable contexts (``PythonQuery`` closures, warm
  transition caches);
* ``persistent`` — one fork pool kept alive across *consecutive*
  sweeps (the CALM/NTI probe grids issue many small sweeps back to
  back); each map call pickles its payload once into a blob that every
  task carries and each worker unpickles at most once per map.

On top of the engine, :class:`CacheSplice` is the one shared
implementation of the cached/pending bookkeeping every sweep needs
with a :class:`~repro.net.runcache.RunCache`: split the task grid into
cache hits, in-grid duplicates and pending work, fan only the pending
tasks out, and splice the fresh results back in task order.  It used
to be hand-rolled three times (``sweep_runs``,
``check_coordination_free_on``, ``sweep_distributed``); the three
copies are gone.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import time
from dataclasses import asdict, dataclass

from .consistency import RunObservation
from .convergence import ConvergenceMemo, resolve_memo
from .network import Network
from .partition import HorizontalPartition
from .run import RunOptions, run_fair

__all__ = [
    "CacheSplice",
    "EngineHealth",
    "EngineSession",
    "LIFETIMES",
    "SweepEngine",
    "sweep_runs",
]

LIFETIMES = ("serial", "fork", "persistent")


def _fork_context():
    """The fork multiprocessing context, or None where unsupported."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return None


# ---------------------------------------------------------------------------
# Worker-side plumbing
# ---------------------------------------------------------------------------

# The (fn, context) pair installed in each fork-lifetime pool worker by
# the initializer.  With the fork start method this is inherited
# memory, not a pickle — which is what lets the context carry
# transducers with arbitrary (unpicklable) PythonQuery closures and
# warm caches.
_WORKER_PAYLOAD = None


def _init_worker(payload) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _call_worker(item):
    fn, context = _WORKER_PAYLOAD
    return fn(context, item)


# Persistent-lifetime payload cache: token -> (fn, context).  Each
# forked worker process owns its copy (the parent never populates it),
# so a payload is unpickled once per worker per map call, not once per
# task.
_POOL_PAYLOADS: dict = {}
_POOL_PAYLOAD_LIMIT = 8


def _pool_call(task):
    token, blob, item = task
    payload = _POOL_PAYLOADS.get(token)
    if payload is None:
        payload = pickle.loads(blob)
        if len(_POOL_PAYLOADS) >= _POOL_PAYLOAD_LIMIT:
            _POOL_PAYLOADS.pop(next(iter(_POOL_PAYLOADS)))
        _POOL_PAYLOADS[token] = payload
    fn, context = payload
    return fn(context, item)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass
class EngineHealth:
    """Self-healing counters, accumulated over an engine's lifetime.

    ``worker_deaths`` — pool workers observed dead mid-map (killed,
    ``os._exit``, OOM…); ``respawns`` — pools torn down and rebuilt in
    response (deaths and timeouts both force one — the replacement
    pool a dead worker leaves behind has lost the in-flight task, and
    a hung worker must be killed); ``retries`` — task re-executions
    after a worker-raised exception or a worker death; ``timeouts`` —
    tasks that exceeded the per-run ``timeout=``; ``quarantined`` —
    tasks pulled out of the pool entirely (timed out, or still failing
    at the retry cap from worker deaths) and ``serial_reruns`` — their
    one in-parent re-execution.
    """

    worker_deaths: int = 0
    respawns: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    serial_reruns: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


#: Poll interval of the supervised map's wait loop (seconds).  Waits
#: return the moment a result is ready; the interval only paces the
#: worker-death / timeout checks in between.
_POLL_INTERVAL = 0.02

#: Cap on the exponential retry backoff (seconds).
_BACKOFF_CAP = 1.0


def _supervised_map(engine, get_pool, reset_pool, call, items, local_call):
    """A pool map that survives worker death, task failure and hangs.

    ``pool.map`` has none of that: a worker that dies mid-task leaves
    its ``AsyncResult`` unfulfilled forever (the pool replaces the
    *process* but not the lost task), a raising task poisons the whole
    map, and a hung task hangs the sweep.  This loop submits each item
    with ``apply_async`` and waits on the results in item order,
    polling for worker death (pool pid-set changes or non-``None``
    exit codes) and for the engine's per-task ``timeout``:

    * a worker-raised exception retries the task (capped exponential
      backoff, ``engine.max_retries`` attempts) — ``KeyboardInterrupt``
      and ``SystemExit`` always propagate;
    * a worker death tears the pool down, respawns it and resubmits
      every unfinished task; tasks still failing at the retry cap are
      quarantined ("repeatedly worker-killing");
    * a timed-out task is quarantined immediately and the pool
      respawned (the hung worker must die).

    Quarantined tasks are re-run serially in the parent, once, after
    the pool rounds finish — their results land in the ordinary result
    list, so the sweep completes with bit-identical observations
    instead of hanging (a task that *always* kills its host or hangs
    will still fail loudly here, in the parent, which is the right
    failure mode).  Every path out — including ``KeyboardInterrupt``
    in the parent — routes through ``reset_pool`` (the ``terminate()``
    discipline), so no children are leaked.
    """
    n = len(items)
    results: list = [None] * n
    done = [False] * n
    failures = [0] * n
    quarantine: set[int] = set()
    health = engine.health
    round_no = 0
    try:
        while True:
            pending = [i for i in range(n) if not done[i] and i not in quarantine]
            if not pending:
                break
            if round_no:
                time.sleep(
                    min(
                        engine.retry_backoff * (2 ** (round_no - 1)),
                        _BACKOFF_CAP,
                    )
                )
            round_no += 1
            pool = get_pool()
            pids = {p.pid for p in pool._pool}
            asyncs = {i: pool.apply_async(call, (items[i],)) for i in pending}
            broken = False
            death = False
            for i in pending:
                result = asyncs[i]
                started = time.monotonic()
                timed_out = False
                while not result.ready():
                    result.wait(_POLL_INTERVAL)
                    if {p.pid for p in pool._pool} != pids or any(
                        p.exitcode is not None for p in pool._pool
                    ):
                        broken = death = True
                        break
                    if (
                        engine.timeout is not None
                        and time.monotonic() - started > engine.timeout
                    ):
                        timed_out = True
                        break
                if broken:
                    break
                if timed_out:
                    health.timeouts += 1
                    health.quarantined += 1
                    quarantine.add(i)
                    broken = True  # the hung worker must be killed
                    break
                try:
                    results[i] = result.get()
                    done[i] = True
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException:
                    failures[i] += 1
                    if failures[i] > engine.max_retries:
                        raise
                    health.retries += 1
            if not broken:
                continue
            # Harvest what already finished, then heal the pool.
            for j, result in asyncs.items():
                if done[j] or j in quarantine or not result.ready():
                    continue
                try:
                    results[j] = result.get()
                    done[j] = True
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException:
                    failures[j] += 1
                    if failures[j] > engine.max_retries:
                        raise
                    health.retries += 1
            if death:
                health.worker_deaths += 1
                # The in-flight tasks are lost and unattributable; they
                # all retry, and a task still failing at the cap is
                # quarantined rather than allowed to keep killing pools.
                for j in pending:
                    if done[j] or j in quarantine:
                        continue
                    failures[j] += 1
                    if failures[j] > engine.max_retries:
                        health.quarantined += 1
                        quarantine.add(j)
                    else:
                        health.retries += 1
            reset_pool()
            health.respawns += 1
    except BaseException:
        reset_pool()
        raise
    for i in sorted(quarantine):
        health.serial_reruns += 1
        results[i] = local_call(items[i])
    return results


class SweepEngine:
    """A deterministic ordered map over sweep tasks, with a pluggable
    worker lifetime.

    ``lifetime`` is one of :data:`LIFETIMES` (default: ``fork`` exactly
    when ``workers > 1`` and the platform has the fork start method,
    else ``serial``).  The lifetime is resolved once at construction —
    a quietly degraded engine *is* serial from then on, so callers can
    branch on ``engine.parallel`` to decide merge-back bookkeeping.
    An *explicitly* requested parallel lifetime that cannot actually
    parallelize (``workers == 1``, or no fork) is a misconfiguration
    and raises ``ValueError`` — honoring it silently used to hide wrong
    worker counts and fork-less platforms.

    :meth:`map` applies a module-level function ``fn(context, item)``
    to every item and returns the results in item order regardless of
    completion order — the determinism contract every sweep in the
    library relies on.  :meth:`session` opens a reusable mapping
    session for chunked searches.  A ``persistent`` engine owns one
    live pool across all its sessions and maps; use it as a context
    manager (or call :meth:`close`) to reap the workers.
    """

    def __init__(
        self,
        workers: int = 1,
        lifetime: str | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        timeout: float | None = None,
    ):
        workers = max(1, int(workers))
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        mp_context = _fork_context()
        if lifetime is None:
            lifetime = "fork" if workers > 1 and mp_context is not None else "serial"
        elif lifetime not in LIFETIMES:
            raise ValueError(
                f"unknown engine lifetime {lifetime!r}; expected one of {LIFETIMES}"
            )
        elif lifetime != "serial":
            if workers == 1:
                raise ValueError(
                    f"lifetime={lifetime!r} was requested explicitly but "
                    f"workers=1 cannot parallelize; pass lifetime=None to "
                    f"allow the serial fallback"
                )
            if mp_context is None:
                raise ValueError(
                    f"lifetime={lifetime!r} was requested explicitly but the "
                    f"fork start method is unavailable on this platform; "
                    f"pass lifetime=None to allow the serial fallback"
                )
        self.workers = workers
        self.lifetime = lifetime
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.timeout = timeout
        self._mp_context = mp_context
        # The persistent lifetime's one live pool (forked lazily).
        self._pool = None
        self._tokens = itertools.count()
        #: Pool maps actually fanned out (amortization observability).
        self.maps_served = 0
        #: Self-healing counters (worker deaths, respawns, retries,
        #: timeouts, quarantines), accumulated across maps and shared
        #: by this engine's sessions.
        self.health = EngineHealth()

    @property
    def parallel(self) -> bool:
        """True when maps actually fan out to forked workers."""
        return self.lifetime != "serial"

    def session(self, fn, context) -> "EngineSession":
        """A reusable mapping session (one worker pool for its lifetime).

        Chunked searches (the coordination-freeness witness probe) call
        :meth:`EngineSession.map` repeatedly; a ``fork``-lifetime
        session opens its pool once, amortizing the fork setup across
        every chunk instead of paying it per chunk.  Sessions of a
        ``persistent`` engine share the engine's one pool and their
        ``close`` leaves it running.
        """
        return EngineSession(self, fn, context)

    def map(self, fn, context, items) -> list:
        """Apply ``fn(context, item)`` to every item, in item order."""
        if self.lifetime == "persistent":
            return self._persistent_map(fn, context, list(items))
        with self.session(fn, context) as session:
            return session.map(items)

    def _persistent_map(self, fn, context, items: list) -> list:
        """One map through the engine's long-lived pool.

        The ``(fn, context)`` payload is pickled exactly once into a
        blob that every task carries (re-pickling a ``bytes`` object is
        a memcpy, not an object-graph walk) and each worker unpickles
        at most once.  Single-item maps run in-process; callers whose
        task function carries worker-side bookkeeping (journalling memo
        deltas, say) must branch on :attr:`parallel` and item count
        themselves, exactly like :func:`sweep_runs` does.
        """
        if not self.parallel or len(items) <= 1:
            return [fn(context, item) for item in items]
        token = next(self._tokens)
        blob = pickle.dumps((fn, context), protocol=pickle.HIGHEST_PROTOCOL)
        self.maps_served += 1

        def get_pool():
            if self._pool is None:
                self._pool = self._mp_context.Pool(self.workers)
            return self._pool

        def reset_pool():
            self.terminate()

        return _supervised_map(
            self,
            get_pool,
            reset_pool,
            _pool_call,
            [(token, blob, item) for item in items],
            # Quarantined tasks re-run in the parent against the
            # original payload — no blob round-trip.
            lambda task: fn(context, task[2]),
        )

    def close(self) -> None:
        """Clean shutdown of the persistent pool: drain workers, reap."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Hard shutdown for error paths: kill workers immediately."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    def __repr__(self) -> str:
        state = "live" if self._pool is not None else "idle"
        return (
            f"{type(self).__name__}(workers={self.workers}, "
            f"lifetime={self.lifetime!r}, {state})"
        )


class EngineSession:
    """A live mapping session of a :class:`SweepEngine`.

    Serial sessions apply the function inline; ``fork`` sessions hold
    one fork pool, created lazily on the first non-trivial :meth:`map`
    (the payload crosses by fork inheritance) and reused until
    :meth:`close` (or the ``with`` block) tears it down; ``persistent``
    sessions delegate to the engine's shared pool, which outlives them.
    Results always come back in item order.
    """

    def __init__(self, engine: SweepEngine, fn, context):
        self._engine = engine
        self._fn = fn
        self._context = context
        self._pool = None

    def map(self, items) -> list:
        items = list(items)
        engine = self._engine
        if engine.lifetime == "persistent":
            return engine._persistent_map(self._fn, self._context, items)
        if engine.lifetime == "serial" or not items:
            return [self._fn(self._context, item) for item in items]

        def get_pool():
            if self._pool is None:
                self._pool = engine._mp_context.Pool(
                    engine.workers,
                    initializer=_init_worker,
                    initargs=((self._fn, self._context),),
                )
            return self._pool

        def reset_pool():
            self.terminate()

        return _supervised_map(
            engine,
            get_pool,
            reset_pool,
            _call_worker,
            items,
            # The parent has no _WORKER_PAYLOAD; call directly.
            lambda item: self._fn(self._context, item),
        )

    def close(self) -> None:
        """Clean shutdown: let workers finish queued work, then reap.

        Only touches the session-owned pool (``fork`` lifetime); a
        ``persistent`` engine's pool is engine-scoped and stays live.
        ``terminate()`` on the happy path used to kill workers
        mid-cleanup, leaking semaphore-tracker warnings; the hard kill
        is reserved for :meth:`terminate` (the exceptional ``__exit__``
        path).
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Hard shutdown for error paths: kill workers immediately."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()


# ---------------------------------------------------------------------------
# The shared cache-splice bookkeeping
# ---------------------------------------------------------------------------


class CacheSplice:
    """The one shared cached/pending bookkeeping of every cached sweep.

    Given a task grid, a :class:`~repro.net.runcache.RunCache` (or
    None) and a key function, the splice partitions the grid into

    * **hits** — tasks whose value the cache already holds (resolved
      immediately, in grid order);
    * **duplicates** — tasks whose key equals an earlier task's (equal
      cells inside one grid — e.g. full replication == all-at-one on a
      single-node network — are the same pure function: run once or
      fetch once, reuse the result);
    * **pending** — tasks that must actually execute.

    Duplicates never consult the store, so they count neither a hit
    nor a miss — the cache's ``cache_dedup`` counter tallies them
    separately.  Counting them as misses (the old behaviour) inflated
    the miss rate with cells that never executed, which matters once
    the counters feed a metrics endpoint: for every grid,
    ``hits + misses + dedup == cells`` and ``misses == cells actually
    executed``.

    Fan :attr:`pending_tasks` out however you like (engine map, chunked
    session, inline loop) and hand the fresh results to :meth:`fill`,
    which records them into the cache, resolves the duplicates and
    returns the full result list in task order.  With ``cache=None``
    every task is pending and the splice is a transparent pass-through.

    *hit* adapts a raw cached value to the caller's result shape (e.g.
    wrapping a cached ``RunResult`` into a ``RunObservation`` for the
    task's own partition and seed); *store* (on :meth:`fill`) extracts
    the cacheable raw value back out of a fresh result.  Both default
    to the identity.

    :attr:`hits`, :attr:`misses` and :attr:`dedup` count this grid's
    cells alone.  The cache's own counters are shared by every sweep
    that uses it, so a delta of them also counts concurrent sweeps.
    """

    def __init__(self, tasks, cache, key_fn, hit=None):
        self.tasks = list(tasks)
        self.cache = cache
        self._hit = hit if hit is not None else (lambda task, value: value)
        self.results: list = [None] * len(self.tasks)
        self.keys: list | None = None
        self.pending: list[int] = list(range(len(self.tasks)))
        self.duplicates: list[tuple[int, int]] = []
        self.hits = self.misses = self.dedup = 0
        if cache is not None:
            self.keys = [key_fn(task) for task in self.tasks]
            self.pending = []
            hit_for_key: dict = {}
            first_for_key: dict = {}
            for i, key in enumerate(self.keys):
                # Dedup before the store: a repeated key is resolved
                # from its first occurrence (hit value or pending
                # primary) without touching the cache, so duplicate
                # cells — which never execute — inflate neither the
                # miss nor the hit count.
                if key in hit_for_key:
                    cache.bump("cache_dedup")
                    self.dedup += 1
                    self.results[i] = self._hit(self.tasks[i], hit_for_key[key])
                elif key in first_for_key:
                    cache.bump("cache_dedup")
                    self.dedup += 1
                    self.duplicates.append((i, first_for_key[key]))
                else:
                    value = cache.get(key)
                    if value is not None:
                        self.hits += 1
                        hit_for_key[key] = value
                        self.results[i] = self._hit(self.tasks[i], value)
                    else:
                        self.misses += 1
                        first_for_key[key] = i
                        self.pending.append(i)

    @property
    def pending_tasks(self) -> list:
        """The tasks that must actually execute, in grid order."""
        return [self.tasks[i] for i in self.pending]

    def fill(self, fresh, store=None) -> list:
        """Splice *fresh* results (one per pending task, in pending
        order) back into the grid; returns the full result list."""
        store = store if store is not None else (lambda row: row)
        raw: dict[int, object] = {}
        for i, row in zip(self.pending, fresh):
            self.results[i] = row
            if self.cache is not None:
                value = store(row)
                self.cache.record(self.keys[i], value)
                raw[i] = value
        for i, primary in self.duplicates:
            self.results[i] = self._hit(self.tasks[i], raw[primary])
        return self.results


# ---------------------------------------------------------------------------
# The fair-run sweep
# ---------------------------------------------------------------------------


def _run_task(context, task):
    """One unit of work: a full seeded fair run (in-process path)."""
    network, transducer, memo, run_kwargs = context
    partition, seed = task
    result = run_fair(
        network, transducer, partition, seed=seed, memo=memo, **run_kwargs
    )
    return RunObservation(network, partition, seed, result)


def _run_task_mp(context, task):
    """One unit of work in a forked worker: run, then ship the deltas.

    The worker's memo is the fork-inherited copy of the parent's — warm
    with everything known at pool creation, plus whatever this worker
    has proven since (per-worker warmth accumulates across its tasks).
    The freshly proven entries and the hit/miss counter deltas travel
    back with the observation for the parent to merge.

    The worker's *cache view* gets the same treatment: before running,
    the task checks the shared read-mostly snapshot (a sibling in this
    worker may already have computed the cell — ``shared_hit``), and a
    fresh run is journalled so its entry travels back with the memo
    delta for the parent cache to merge.
    """
    network, transducer, memo, run_kwargs, cache_view, fingerprint = context
    partition, seed = task
    if memo is not None:
        memo.start_journal()
        hits0, misses0 = memo.memo_hits, memo.memo_misses
    result = None
    shared_hit = False
    key = None
    if cache_view is not None:
        from .runcache import run_key

        cache_view.start_journal()
        key = run_key(
            "fair-random", network, fingerprint, partition, seed, run_kwargs
        )
        cached = cache_view.get(key)
        if cached is not None:
            result = cached
            shared_hit = True
    if result is None:
        result = run_fair(
            network, transducer, partition, seed=seed, memo=memo, **run_kwargs
        )
        if cache_view is not None:
            cache_view.record(key, result)
    observation = RunObservation(network, partition, seed, result)
    cache_delta = cache_view.drain_new() if cache_view is not None else None
    if memo is None:
        return observation, None, 0, 0, cache_delta, shared_hit
    return (
        observation,
        memo.drain_new(),
        memo.memo_hits - hits0,
        memo.memo_misses - misses0,
        cache_delta,
        shared_hit,
    )


def sweep_runs(
    network: Network,
    transducer,
    partitions: list[HorizontalPartition],
    seeds: tuple[int, ...],
    options: RunOptions = RunOptions(),
    memo: "ConvergenceMemo | bool | None" = None,
    run_cache=None,
    engine: "SweepEngine | None" = None,
) -> list[RunObservation]:
    """Run the partitions × seeds grid of fair runs, possibly in parallel.

    Returns the observations in grid order (partitions outer, seeds
    inner) — identical to the serial loop for every worker count and
    lifetime: same seeds, same runs, just executed concurrently.  With
    *memo*, every run's :class:`~repro.net.convergence.ConvergenceTracker`
    is pre-seeded with the accumulated cross-run certificates and its
    new ones are folded back, warming later runs; verdicts (and hence
    observations) are unaffected.

    *engine* (a :class:`SweepEngine`) is the executor; ``None`` runs
    the grid in-process, serially.  *run_cache* (a
    :class:`~repro.net.runcache.RunCache`, or ``True`` for the one
    hung off the transducer) short-circuits grid cells whose
    :class:`~repro.net.run.RunResult` is already known — each cell is
    a pure function of ``(network, transducer, partition, seed,
    options)``, so a cached result is bit-identical to a fresh one, and
    only the uncached cells are executed (the :class:`CacheSplice`
    bookkeeping).

    *options* (a :class:`~repro.net.run.RunOptions`) applies to every
    run of the grid and enters every cache key, so sweeps that differ
    in any option — a fault plan, batching, the step budget — never
    share cells.
    """
    return _sweep(
        network, transducer, partitions, seeds, options, memo, run_cache, engine,
    ).results


def _sweep(
    network, transducer, partitions, seeds, options, memo, run_cache, engine,
) -> CacheSplice:
    """:func:`sweep_runs`, returning the filled splice: its ``results``
    are the observations, its counters this sweep's own cache lookups."""
    from .runcache import resolve_run_cache, run_key, transducer_fingerprint

    memo = resolve_memo(memo, transducer)
    cache = resolve_run_cache(run_cache, transducer)
    run_kwargs = options.as_kwargs()
    tasks = [(partition, seed) for partition in partitions for seed in seeds]

    if cache is not None:
        fingerprint = transducer_fingerprint(transducer)

        def key_fn(task):
            return run_key(
                "fair-random", network, fingerprint, task[0], task[1], run_kwargs
            )
    else:
        fingerprint = None
        key_fn = None

    splice = CacheSplice(
        tasks,
        cache,
        key_fn,
        hit=lambda task, result: RunObservation(
            network, task[0], task[1], result
        ),
    )
    pending_tasks = splice.pending_tasks

    cache_deltas: list[dict] = []
    if engine is None or not (engine.parallel and len(pending_tasks) > 1):
        # In-process execution (including the nothing-to-fan-out case):
        # the tracker records straight into the parent memo — runs warm
        # each other directly, nothing to merge.  _run_task_mp must not
        # run in-parent: its journal/counter bookkeeping assumes
        # worker-side memo and cache copies and would double-count on
        # the shared ones.
        context = (network, transducer, memo, run_kwargs)
        fresh = [_run_task(context, task) for task in pending_tasks]
    else:
        # Workers get a read-mostly snapshot of the cache; their fresh
        # recordings journal back as deltas, so a cell one worker
        # computes stops re-missing in its siblings' later tasks.
        view = cache.worker_view() if cache is not None else None
        context = (network, transducer, memo, run_kwargs, view, fingerprint)
        outcomes = engine.map(_run_task_mp, context, pending_tasks)
        fresh = []
        for observation, delta, hits, misses, cache_delta, shared_hit in outcomes:
            fresh.append(observation)
            if memo is not None and delta is not None:
                memo.merge(delta)
                memo.add_counts(hits, misses)
            if cache is not None:
                if shared_hit:
                    cache.bump("shared_hits")
                if cache_delta:
                    cache_deltas.append(cache_delta)
    splice.fill(fresh, store=lambda obs: obs.result)
    # After fill (which records every pending result anyway) the worker
    # deltas are mostly overlap; merging them keeps the LRU recency and
    # the bound exact without double-recording (existing entries win).
    for cache_delta in cache_deltas:
        cache.merge_worker_delta(cache_delta)
    return splice
