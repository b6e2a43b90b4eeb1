"""Framework-agnostic request handlers.

Each handler takes the orchestrator plus parsed inputs and returns
``(status_code, body_dict)``; the asyncio app in :mod:`.app` is a thin
shell over these.  Event streaming is the one exception: the app
drives :meth:`Job.wait_events` itself.
"""

from __future__ import annotations

from .orchestrator import JobOrchestrator
from .schemas import KINDS, SpecError


def submit_job(orch: JobOrchestrator, payload) -> tuple[int, dict]:
    """``POST /jobs`` — 202 on queue, 200 on in-flight dedup, 400 on
    a payload the validators reject."""
    try:
        job, created = orch.submit(payload)
    except SpecError as exc:
        return 400, {"error": str(exc), "code": exc.code, "kinds": list(KINDS)}
    except RuntimeError as exc:
        return 503, {"error": str(exc)}
    body = {
        "job_id": job.id,
        "status": job.status,
        "fingerprint": job.fingerprint,
        "deduplicated": not created,
    }
    return (202 if created else 200), body


def get_job(orch: JobOrchestrator, job_id: str) -> tuple[int, dict]:
    """``GET /jobs/{id}`` — full job state, result included when done."""
    job = orch.get(job_id)
    if job is None:
        return 404, {"error": f"no such job: {job_id}"}
    return 200, job.to_json()


def list_jobs(orch: JobOrchestrator) -> tuple[int, dict]:
    """``GET /jobs`` — submission-ordered summaries."""
    jobs = orch.list_jobs()
    return 200, {
        "count": len(jobs),
        "jobs": [
            {
                "id": j.id,
                "kind": j.kind,
                "status": j.status,
                "submitted_at": j.submitted_at,
                "duration": j.duration,
            }
            for j in jobs
        ],
    }


def get_metrics(orch: JobOrchestrator) -> tuple[int, dict]:
    """``GET /metrics`` — cache, engine-health, and latency counters."""
    return 200, orch.metrics_snapshot()


def healthz(orch: JobOrchestrator) -> tuple[int, dict]:
    """``GET /healthz`` — liveness plus the shared runtime's shape."""
    return 200, {
        "ok": True,
        "engine": {
            "lifetime": orch.engine.lifetime,
            "workers": orch.engine.workers,
        },
        "cache_entries": len(orch.cache),
        "jobs": len(orch.jobs),
    }
