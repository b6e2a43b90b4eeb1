"""The async job orchestrator: many clients, one engine, one cache.

Every job the service accepts is multiplexed onto **one** persistent
:class:`~repro.net.executor.SweepEngine` and **one** bounded
:class:`~repro.net.runcache.RunCache` — that sharing is the whole
point (a cold sweep run for client A is a warm hit for client B), and
it is exactly what the PR-10 thread-safety fixes in ``net/runcache.py``
make sound.  Isolation needs no further machinery: the cache keys are
canonical ``run_key`` fingerprints, so two grids that differ in any
run-visible knob (fault plan, seeds, batching…) can never alias.

Jobs execute on a thread pool.  With a serial engine (the default on
small boxes) jobs run fully concurrently — the thread-safe cache is
the only shared state.  A multi-process engine is serialized with a
mutex: ``SweepEngine`` owns one worker pool and interleaved map calls
from two threads would corrupt its task accounting.

Terminal jobs persist to a sqlite job store so ``GET /jobs/{id}``
survives a restart; the run cache's own disk tier (configured
separately) is what makes the *results* warm again.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..net import SweepEngine
from ..net.runcache import RunCache
from .metrics import MetricsRegistry
from .schemas import (
    JobRequest,
    parse_job,
    result_to_json,
    static_report_json,
)

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
_TERMINAL = (DONE, FAILED)


@dataclass
class Job:
    """One verification job's full lifecycle record."""

    id: str
    fingerprint: str
    kind: str
    request: dict
    status: str = QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    result: dict | None = None
    error: str | None = None
    static_report: dict | None = None
    events: list = field(default_factory=list)
    #: Guards events/status; watchers wait on it for streaming.
    _cond: threading.Condition = field(
        default_factory=threading.Condition, repr=False, compare=False
    )

    def add_event(self, message: str) -> None:
        with self._cond:
            self.events.append({"t": time.time(), "message": message})
            self._cond.notify_all()

    def wait_events(self, after: int, timeout: float) -> list:
        """Events past index *after* (blocks up to *timeout* for new ones)."""
        with self._cond:
            if len(self.events) <= after:
                self._cond.wait(timeout)
            return list(self.events[after:])

    @property
    def duration(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_json(self, include_events: bool = False) -> dict:
        with self._cond:
            payload = {
                "id": self.id,
                "fingerprint": self.fingerprint,
                "kind": self.kind,
                "status": self.status,
                "request": self.request,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "duration": self.duration,
                "result": self.result,
                "error": self.error,
                "static_report": self.static_report,
                "event_count": len(self.events),
            }
            if include_events:
                payload["events"] = list(self.events)
            return payload


class JobStore:
    """Sqlite persistence for terminal jobs (restart rebuild).

    Same cross-thread discipline as the cache's ``_DiskTier``: the
    connection is opened ``check_same_thread=False`` and every touch
    holds the store lock, so executor threads can record completions
    while a handler thread lists jobs.
    """

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS jobs ("
            " id TEXT PRIMARY KEY, fingerprint TEXT, payload TEXT)"
        )
        self._conn.commit()

    def put(self, job: Job) -> None:
        blob = json.dumps(job.to_json(include_events=True), sort_keys=True)
        with self._lock:
            if self._conn is None:
                return
            self._conn.execute(
                "INSERT OR REPLACE INTO jobs (id, fingerprint, payload) "
                "VALUES (?, ?, ?)",
                (job.id, job.fingerprint, blob),
            )
            self._conn.commit()

    def load_all(self) -> list[Job]:
        with self._lock:
            if self._conn is None:
                return []
            rows = self._conn.execute("SELECT payload FROM jobs").fetchall()
        jobs = []
        for (blob,) in rows:
            data = json.loads(blob)
            job = Job(
                id=data["id"],
                fingerprint=data["fingerprint"],
                kind=data["kind"],
                request=data["request"],
                status=data["status"],
                submitted_at=data["submitted_at"],
                started_at=data["started_at"],
                finished_at=data["finished_at"],
                result=data["result"],
                error=data["error"],
                static_report=data["static_report"],
                events=data.get("events", []),
            )
            jobs.append(job)
        return jobs

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


class JobOrchestrator:
    """Job lifecycle over the shared engine + cache.

    Parameters
    ----------
    run_cache:
        The single shared :class:`RunCache`.  Give it ``max_bytes`` and
        ``disk_path`` in production — the disk tier is what makes a
        restarted service warm.
    engine:
        The single shared :class:`SweepEngine` (``lifetime="serial"``
        by default: sweeps run in the handler thread pool and the
        cache provides the speed).
    max_workers:
        Concurrent job executions (thread pool size).
    store_path:
        Sqlite path for the terminal-job store; ``None`` keeps job
        state in memory only.
    """

    def __init__(
        self,
        run_cache: RunCache | None = None,
        engine: SweepEngine | None = None,
        max_workers: int = 4,
        store_path=None,
        metrics: MetricsRegistry | None = None,
    ):
        self.cache = run_cache if run_cache is not None else RunCache()
        self.engine = engine if engine is not None else SweepEngine(workers=1)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.started_at = time.time()
        self._lock = threading.RLock()
        self._engine_lock = threading.Lock()
        self.jobs: dict[str, Job] = {}
        #: fingerprint -> job id for queued/running jobs (in-flight dedup).
        self._active: dict[str, str] = {}
        self._store = JobStore(store_path) if store_path is not None else None
        if self._store is not None:
            for job in self._store.load_all():
                self.jobs[job.id] = job
                self.metrics.count("jobs_restored")
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(max_workers)),
            thread_name_prefix="repro-job",
        )
        self._closed = False

    # -- submission --------------------------------------------------------

    def submit(self, payload: dict) -> tuple[Job, bool]:
        """Parse, dedup, and queue one job.

        Returns ``(job, created)``.  A payload whose canonical job
        fingerprint matches a queued/running job attaches to that job
        instead of queueing a duplicate — the grid would dedup down to
        the same cache cells anyway, so running it twice buys nothing.
        Identical *terminal* jobs re-run (and complete fast off the
        warm cache): results may legitimately be evicted, and re-runs
        are how the cache's own hit counters stay honest.
        """
        if self._closed:
            raise RuntimeError("orchestrator is closed")
        request = parse_job(payload)
        with self._lock:
            active_id = self._active.get(request.fingerprint)
            if active_id is not None:
                self.metrics.count("jobs_deduped")
                return self.jobs[active_id], False
            job = Job(
                id=f"job-{uuid.uuid4().hex[:12]}",
                fingerprint=request.fingerprint,
                kind=request.kind,
                request=request.describe(),
                submitted_at=time.time(),
            )
            self.jobs[job.id] = job
            self._active[request.fingerprint] = job.id
        job.add_event(f"queued as {job.id} ({request.kind})")
        self.metrics.count("jobs_submitted")
        self._pool.submit(self._run, job, request)
        return job, True

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self.jobs.get(job_id)

    def list_jobs(self) -> list[Job]:
        with self._lock:
            jobs = list(self.jobs.values())
        return sorted(jobs, key=lambda j: j.submitted_at)

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until *job_id* is terminal (test/bench convenience)."""
        deadline = time.monotonic() + timeout
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        with job._cond:
            while job.status not in _TERMINAL:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"{job_id} still {job.status}")
                job._cond.wait(min(remaining, 0.5))
        return job

    # -- execution ---------------------------------------------------------

    def _set_status(self, job: Job, status: str) -> None:
        with job._cond:
            job.status = status
            job._cond.notify_all()

    def _run(self, job: Job, request: JobRequest) -> None:
        job.started_at = time.time()
        self._set_status(job, RUNNING)
        job.add_event("started")
        try:
            try:
                job.static_report = static_report_json(request.lint_subject)
                job.add_event("static analysis complete")
            except TypeError:
                # Lintable shapes only; a job is not failed for being
                # outside the analyzer's dialects.
                job.add_event("static analysis skipped (unsupported shape)")
            result = self._execute(request, job)
            job.result = result_to_json(request.kind, result)
        except Exception as exc:  # noqa: BLE001 — job failure is data
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            job.finished_at = time.time()
            # Leave the in-flight map before the terminal status is
            # published: a client that sees the job finished and
            # re-submits it must get a fresh run, not this job.
            with self._lock:
                if self._active.get(job.fingerprint) == job.id:
                    del self._active[job.fingerprint]
        if job.error is None:
            self._set_status(job, DONE)
            job.add_event("finished")
            self.metrics.observe(request.kind, job.duration)
            self.metrics.count("jobs_completed")
        else:
            self._set_status(job, FAILED)
            job.add_event(f"failed: {job.error}")
            self.metrics.count("jobs_failed")
        if self._store is not None:
            self._store.put(job)

    def _execute(self, request: JobRequest, job: Job):
        """Dispatch one request to its harness on the shared runtime."""
        from ..analysis import calm_verdict
        from ..net import (
            check_consistency,
            check_coordination_free_on,
            check_topology_independence,
            computed_output,
        )

        # A non-serial engine owns one worker pool; interleaved map
        # calls from two job threads would corrupt its bookkeeping.
        # Serial engines run in the calling thread — no exclusion
        # needed, the thread-safe cache carries the sharing.
        guard = (
            self._engine_lock
            if self.engine.lifetime != "serial"
            else _NULL_GUARD
        )
        kwargs = dict(run_cache=self.cache, engine=self.engine)
        with guard:
            if request.kind == "consistency":
                return check_consistency(
                    request.network,
                    request.transducer,
                    request.instance,
                    partition_count=request.partition_count,
                    seeds=request.seeds,
                    options=request.options,
                    **kwargs,
                )
            if request.kind == "topology-independence":
                return check_topology_independence(
                    request.transducer,
                    request.instance,
                    partition_count=request.partition_count,
                    seeds=request.seeds,
                    options=request.options,
                    **kwargs,
                )
            if request.kind == "coordination-free":
                expected = computed_output(
                    request.network,
                    request.transducer,
                    request.instance,
                    seed=request.seeds[0],
                    options=request.options,
                    run_cache=self.cache,
                )
                job.add_event("reference output computed")
                return check_coordination_free_on(
                    request.network,
                    request.transducer,
                    request.instance,
                    expected,
                    **kwargs,
                )
            if request.kind == "calm-verdict":
                return calm_verdict(
                    request.transducer,
                    request.instance,
                    network=request.network,
                    seed=request.seeds[0],
                    options=request.options,
                    static_first=request.static_first,
                    **kwargs,
                )
            raise ValueError(f"unknown kind {request.kind!r}")  # pragma: no cover

    # -- metrics / shutdown ------------------------------------------------

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot(
            cache=self.cache,
            engine=self.engine,
            jobs=self.list_jobs(),
            started_at=self.started_at,
        )

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)
        self.engine.close()
        self.cache.close()
        if self._store is not None:
            self._store.close()


class _NullGuard:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_GUARD = _NullGuard()
