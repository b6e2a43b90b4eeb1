"""The ``service-mix`` workload: the verification service under a
closed loop of cold and warm consistency jobs.

A ``python -m repro.service --port 0`` subprocess runs with its default
configuration.  Two client threads drive it in a closed loop: each
sends its next job when the previous verdict arrives, read through
``GET /jobs/{id}/events`` and then ``GET /jobs/{id}``.  Each client
follows its own seeded sequence, in which cold and warm jobs alternate
in shuffled pairs:

* cold jobs: TC on a chain of 5-6 edges on ``line(3)``, 2-3 partitions
  x 2 scheduler seeds, constants relabelled per job so every
  fingerprint is new; half carry ``faults={"loss": 0.1,
  "duplication": 0.2, "seed": ...}``.  The shapes come from shuffled
  decks, so every run submits the same mix;
* warm jobs: a re-submission of a job the same client has already seen
  complete.

The clients and the server run pinned to one CPU.  The mixed loop
runs in four segments.  After each, both clients send
warm re-submissions only (``job_warm_alone_*``).  Beside a cold job a
warm job waits for the server's interpreter lock, and its latency
jumps between ~3 ms and ~100 ms with how its requests interleave with
the cold job's; the re-submissions with no cold job beside them time
the warm path itself, and they give the gated ``fast_s``.

Why: this is the second end-to-end path (``POST /jobs`` to verdict).
Cold jobs write to the shared RunCache while warm jobs read it, and
the job threads share one interpreter lock, so warm latency shows
contention with cold jobs.  The loop is closed because callers wait
for each verdict.

Layer -> end-to-end map: ``runcache.*`` -> ``job_warm_*``;
``lang``/``core``/``net`` -> ``job_cold_*`` (predicted no change on
``job_warm_*``, which almost bypass ``lang``); ``net.faults_s`` and
``net.scheduler_s`` -> ``job_cold_*``; ``analysis.static_s`` runs on
every job; ``service.*`` -> every ``job_*`` metric and ``jobs_per_s``.

The traced run (``--trace 1``) drives a plain server for
``--seconds / 2``, then replays the same jobs, segment by segment,
against a server started by ``serve_traced.py``, whose spans give the
per-layer split; ``trace.overhead`` is the second server's wall time
over the first's.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

from harness import tc_reference
from run import (
    HERE,
    OUT,
    ROOT,
    SETUP_REPEATS,
    SRC,
    Outcome,
    children_peak_rss_mb,
    median,
    p90,
)
from spans import layer_metrics

SPEC = "repro.core.examples:transitive_closure_transducer"
CLIENTS = 2
SMOKE_JOBS_PER_CLIENT = 4
#: The mixed loop runs in this many segments; after each, every client
#: sends ALONE_JOBS_PER_CLIENT warm re-submissions with no cold job
#: beside them (``job_warm_alone_*``, the ``fast_s`` metric).
SEGMENTS = 4
ALONE_JOBS_PER_CLIENT = 40
HTTP_TIMEOUT = 120.0
BOOT_TIMEOUT = 60.0
#: Fills the server's plan caches; its constants are negative, so no
#: measured job can share a cache cell with it.
WARMUP_JOB = {
    "kind": "consistency",
    "spec": SPEC,
    "network": {"topology": "line", "size": 3},
    "instance": {"S": [[-1, -2], [-2, -3]]},
    "partition_count": 1,
    "seeds": [0],
}


class Server:
    """One service subprocess on a free port."""

    def __init__(self, trace_out=None):
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.service", "--port", "0"]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   "--trace-out", str(trace_out), "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"service did not announce its port: {line!r}")
        return int(match.group(1))

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            try:
                status, _ = request(self.port, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("service never answered /healthz")
            time.sleep(0.01)

    def metrics(self) -> dict:
        status, body = request(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def request(port: int, method: str, path: str, payload=None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def run_job(port: int, payload: dict) -> tuple[float, dict]:
    """POST one job, follow its events to the end, fetch its verdict."""
    start = time.perf_counter()
    status, body = request(port, "POST", "/jobs", payload)
    if status not in (200, 202):
        raise RuntimeError(f"POST /jobs answered {status}: {body[:200]!r}")
    job_id = json.loads(body)["job_id"]
    status, _ = request(port, "GET", f"/jobs/{job_id}/events")
    if status != 200:
        raise RuntimeError(f"GET /jobs/{job_id}/events answered {status}")
    status, body = request(port, "GET", f"/jobs/{job_id}")
    if status != 200:
        raise RuntimeError(f"GET /jobs/{job_id} answered {status}")
    return time.perf_counter() - start, json.loads(body)


def boot(trace_out=None) -> tuple[float, Server]:
    """Start a server and run the warm-up job; returns the set-up time."""
    start = time.perf_counter()
    server = Server(trace_out)
    try:
        _, job = run_job(server.port, WARMUP_JOB)
        if job["status"] != "done":
            raise RuntimeError(f"warm-up job ended {job['status']}: {job['error']}")
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - start, server


# -- the client sequence ---------------------------------------------------


@dataclass
class Sample:
    kind: str  # "cold", "warm" or "warm-alone"
    latency: float
    job: dict
    cells: int


#: Cold-job shapes: chain edges x partitions x fault plan.  Each client
#: draws them from shuffled decks, so every run submits the same mix.
SHAPES = [(n, parts, faulty) for n in (5, 6) for parts in (2, 3) for faulty in (False, True)]


@dataclass
class ClientLog:
    """One client's seeded sequence and everything it observed."""

    rng: random.Random
    samples: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: (payload, reference) of every cold job this client saw complete.
    completed: list = field(default_factory=list)
    _order: list = field(default_factory=list)
    _shapes: list = field(default_factory=list)

    def next_kind(self) -> str:
        """Cold and warm alternate in shuffled pairs (cold first of all)."""
        if not self.completed:
            return "cold"
        if not self._order:
            self._order = ["cold", "warm"]
            self.rng.shuffle(self._order)
        return self._order.pop()

    def cold_job(self) -> tuple[dict, frozenset]:
        """A fresh TC job and its reference output."""
        if not self._shapes:
            self._shapes = list(SHAPES)
            self.rng.shuffle(self._shapes)
        n, parts, faulty = self._shapes.pop()
        labels = self.rng.sample(range(1, 1_000_000), n + 1)
        edges = [(labels[i], labels[i + 1]) for i in range(n)]
        payload = {
            "kind": "consistency",
            "spec": SPEC,
            "network": {"topology": "line", "size": 3},
            "instance": {"S": [list(e) for e in edges]},
            "partition_count": parts,
            "seeds": self.rng.sample(range(1_000_000), 2),
        }
        if faulty:
            payload["faults"] = {"loss": 0.1, "duplication": 0.2,
                                 "seed": self.rng.randrange(1_000_000)}
        return payload, tc_reference(edges)


def check_job(log: ClientLog, kind: str, job: dict, reference) -> None:
    """The verdict checks: consistent, one output, the reference TC."""
    label = f"{kind} job {job.get('id')}"
    result = job.get("result") or {}
    outputs = result.get("distinct_outputs", [])
    if not result.get("consistent"):
        log.errors.append(f"{label}: not consistent")
    if len(outputs) != 1:
        log.errors.append(f"{label}: {len(outputs)} distinct outputs")
    elif {tuple(row) for row in outputs[0]} != reference:
        log.errors.append(f"{label}: output differs from the reference TC")


def own_cache_counts(sample: Sample) -> bool:
    """Do the job's own cache counters describe only its own grid?

    ``check_consistency`` reports them as deltas of the shared
    RunCache's counters, so a job that overlaps another also counts
    the other's lookups.  The run's accounting is therefore checked
    on the exact ``/metrics`` totals, and jobs failing this test are
    counted, not failed.
    """
    cache = sample.job["result"]["cache"]
    if cache["hits"] + cache["misses"] + cache["dedup"] != sample.cells:
        return False
    return sample.kind == "cold" or cache["misses"] == 0


def client(port: int, log: ClientLog, deadline: float | None, jobs: int | None,
           alone: bool, done: list, index: int) -> None:
    """Closed loop until *deadline* (or for *jobs* more jobs); *alone*
    re-submits completed jobs only.  Stores the jobs attempted in
    ``done[index]``."""
    attempted = 0
    while True:
        if jobs is not None and attempted >= jobs:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        kind = "warm-alone" if alone else log.next_kind()
        if kind == "cold":
            payload, reference = log.cold_job()
        else:
            payload, reference = log.completed[log.rng.randrange(len(log.completed))]
        cells = payload["partition_count"] * len(payload["seeds"])
        attempted += 1
        log.attempted += 1
        try:
            latency, job = run_job(port, payload)
        except Exception:  # noqa: BLE001 — an operation failure is data
            log.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        if job.get("status") != "done":
            log.failed += 1
            print(f"job {job.get('id')} ended {job.get('status')}: {job.get('error')}",
                  file=sys.stderr)
            continue
        check_job(log, kind, job, reference)
        log.samples.append(Sample(kind, latency, job, cells))
        if kind == "cold":
            log.completed.append((payload, reference))
    done[index] = attempted


def _clients(server: Server, logs, deadline, jobs, alone: bool) -> tuple[float, list]:
    """Run every client once; returns the wall time and jobs attempted."""
    done = [0] * CLIENTS
    threads = [
        threading.Thread(target=client, args=(
            server.port, logs[i], deadline, jobs[i] if jobs else None, alone, done, i))
        for i in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, done


@dataclass
class Phases:
    """What one server saw: mixed segments, each followed by warm
    re-submissions with no cold job beside them."""

    logs: list
    mixed_wall: float
    alone_wall: float
    #: Jobs attempted per segment and client (replayed by the traced run).
    mixed_counts: list
    before: dict
    after: dict

    def samples(self) -> list:
        return [s for log in self.logs for s in log.samples]


def drive(server: Server, seed: int, seconds: float | None, segments: int,
          mixed_counts: list | None, alone_jobs: int) -> Phases:
    """*segments* times: the mixed closed loop for ``seconds / segments``
    (or the jobs in *mixed_counts*), then *alone_jobs* warm
    re-submissions per client.  Interleaving spreads the warm-alone
    samples over the whole run."""
    before = server.metrics()
    logs = [ClientLog(random.Random(seed * 1_000 + i)) for i in range(CLIENTS)]
    mixed_wall = alone_wall = 0.0
    counts = []
    for segment in range(segments):
        deadline = None
        if mixed_counts is None:
            deadline = time.perf_counter() + seconds / segments
        wall, done = _clients(server, logs, deadline,
                              mixed_counts[segment] if mixed_counts else None, False)
        mixed_wall += wall
        counts.append(done)
        wall, _ = _clients(server, logs, None, [alone_jobs] * CLIENTS, True)
        alone_wall += wall
    return Phases(logs, mixed_wall, alone_wall, counts, before, server.metrics())


# -- the workload ----------------------------------------------------------


def run(args) -> Outcome:
    # The clients and every server share one CPU: the server's Python
    # work is serialized by its interpreter lock anyway, and hand-offs
    # between threads on two vCPUs of a shared host made latencies
    # swing by 2x from run to run.  Server subprocesses inherit this.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    out = Outcome()
    server = None
    try:
        for i in range(SETUP_REPEATS):
            seconds, server = boot()
            out.setup_samples.append(seconds)
            if i < SETUP_REPEATS - 1:
                server.stop()
        if args.smoke:
            phases = drive(server, args.seed, None, 1,
                           [[SMOKE_JOBS_PER_CLIENT] * CLIENTS], SMOKE_JOBS_PER_CLIENT)
        else:
            budget = args.seconds / 2 if args.trace else args.seconds
            phases = drive(server, args.seed, budget, SEGMENTS, None, ALONE_JOBS_PER_CLIENT)
    finally:
        if server is not None:
            server.stop()
    _summarize(out, phases)

    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_out = OUT / f"spans-{args.workload}-seed{args.seed}"
        _, traced_server = boot(trace_out)
        alone_jobs = SMOKE_JOBS_PER_CLIENT if args.smoke else ALONE_JOBS_PER_CLIENT
        try:
            traced = drive(traced_server, args.seed, None, len(phases.mixed_counts),
                           phases.mixed_counts, alone_jobs)
        finally:
            traced_server.stop()
        for log in traced.logs:
            out.attempted += log.attempted
            out.failed += log.failed
            out.errors.extend(log.errors)
        with open(f"{trace_out}.json") as fh:
            server_totals = json.load(fh)
        overhead = ((traced.mixed_wall + traced.alone_wall)
                    / (phases.mixed_wall + phases.alone_wall))
        _trace_layers(out, server_totals, traced, overhead)
    out.peak_rss_mb = children_peak_rss_mb()
    return out


def _summarize(out: Outcome, phases: Phases) -> None:
    samples = phases.samples()
    for log in phases.logs:
        out.attempted += log.attempted
        out.failed += log.failed
        out.errors.extend(log.errors)
    lat = {kind: [s.latency for s in samples if s.kind == kind]
           for kind in ("cold", "warm", "warm-alone")}
    if not all(lat.values()):
        raise SystemExit("perfbench: the run completed no job of some class")
    mixed = [s for s in samples if s.kind != "warm-alone"]
    out.e2e["job_cold_p50_s"] = (median(lat["cold"]), "s", len(lat["cold"]))
    out.e2e["job_cold_p90_s"] = (p90(lat["cold"]), "s", len(lat["cold"]))
    out.e2e["job_warm_p50_s"] = (median(lat["warm"]), "s", len(lat["warm"]))
    out.e2e["job_warm_p90_s"] = (p90(lat["warm"]), "s", len(lat["warm"]))
    out.e2e["jobs_per_s"] = (len(mixed) / phases.mixed_wall, "1/s", len(mixed))
    out.e2e["job_warm_alone_p50_s"] = (median(lat["warm-alone"]), "s", len(lat["warm-alone"]))
    out.e2e["job_warm_alone_p90_s"] = (p90(lat["warm-alone"]), "s",
                                       len(lat["warm-alone"]))
    cache = {k: sum(s.job["result"]["cache"][k] for s in samples)
             for k in ("hits", "misses", "dedup")}
    cold_cells = sum(s.cells for s in samples if s.kind == "cold")
    warm_cells = sum(s.cells for s in samples if s.kind != "cold")
    rc0, rc1 = phases.before["run_cache"], phases.after["run_cache"]
    delta = {k: rc1[k] - rc0[k] for k in ("cache_hits", "cache_misses", "cache_dedup")}
    # Every cold cell is new and every warm cell was recorded by the
    # job it repeats, so the server's exact counters must split the
    # grid cells submitted into misses (cold) and hits (warm).  A warm
    # re-submission answered with the id of the job it repeats was
    # attached to that finished job instead of re-running (the
    # orchestrator publishes ``done`` before it forgets the job's
    # fingerprint), so its cells were never looked up.
    attached = len(samples) - len({s.job["id"] for s in samples})
    out.check(delta == {"cache_hits": warm_cells, "cache_misses": cold_cells,
                        "cache_dedup": 0},
              f"/metrics run_cache delta {delta} != hits for {warm_cells} warm "
              f"and misses for {cold_cells} cold grid cells; {attached} warm "
              f"re-submissions were attached to their finished job")
    out.counts = {
        "cpu": min(os.sched_getaffinity(0)),
        "jobs_cold": len(lat["cold"]),
        "jobs_warm": len(lat["warm"]),
        "jobs_warm_alone": len(lat["warm-alone"]),
        "jobs_with_faults": sum(1 for s in samples if s.job["request"]["faults"]),
        "grid_cells": cold_cells + warm_cells,
        "observations": sum(s.job["result"]["observations"] for s in samples),
        "job_cache_hits": cache["hits"],
        "job_cache_misses": cache["misses"],
        "job_cache_dedup": cache["dedup"],
        "jobs_counting_others_lookups": sum(1 for s in samples if not own_cache_counts(s)),
        "jobs_attached_to_finished_job": attached,
        "metrics.run_cache": json.dumps(
            {k: rc1[k] for k in ("entries", "bytes", "cache_hits", "cache_misses",
                                 "cache_dedup", "shared_hits", "evictions")},
            sort_keys=True),
    }


def _trace_layers(out: Outcome, totals: dict, phases: Phases, overhead: float) -> None:
    samples = phases.samples()
    jobs = len(samples)
    before, after = phases.before, phases.after
    installed = set(totals["installed"])
    layers = layer_metrics(totals, installed, jobs)
    rc0, rc1 = before["run_cache"], after["run_cache"]
    hits = rc1["cache_hits"] - rc0["cache_hits"]
    lookups = hits + rc1["cache_misses"] - rc0["cache_misses"]
    layers["runcache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio",
                                    f"{hits} hits / {lookups} lookups (/metrics)")
    layers["runcache.lookups"] = (lookups / jobs, "count", None)
    layers["runcache.bytes"] = (float(rc1["bytes"]), "bytes", "cache size at the end")
    e0, e1 = before["engine"], after["engine"]
    retries = (e1["retries"] + e1["respawns"]) - (e0["retries"] + e0["respawns"])
    layers["executor.efficiency"] = (0.0, "ratio", "serial engine on this workload")
    layers["executor.retries"] = (retries / jobs, "count", None)
    queue = [s.job["started_at"] - s.job["submitted_at"] for s in samples]
    execute = [s.job["finished_at"] - s.job["started_at"] for s in samples]
    http = [s.latency - (s.job["finished_at"] - s.job["submitted_at"]) for s in samples]
    layers["service.queue_wait_p50_s"] = (median(queue), "s", f"{jobs} jobs")
    layers["service.execute_p50_s"] = (median(execute), "s", f"{jobs} jobs")
    layers["service.execute_p90_s"] = (p90(execute), "s", f"{jobs} jobs")
    layers["service.http_p50_s"] = (median(http), "s", f"{jobs} jobs")
    job_ids = {s.job["id"] for s in samples}
    root = sum(v for k, v in totals["root_s"].items() if k in job_ids)
    busy = sum(execute)
    layers["trace.coverage"] = (root / busy, "ratio",
                                f"{root:.3f} s in root spans / {busy:.3f} s job execution")
    layers["trace.overhead"] = (overhead, "ratio",
                                "traced phase wall / untraced phase wall, same jobs")
    out.layers = dict(sorted(layers.items()))
    out.counts["spans_recorded"] = totals["span_count"]
    if totals["missing"]:
        out.counts["wrappers_missing"] = ", ".join(totals["missing"])
