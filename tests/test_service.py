"""End-to-end tests for the verification service (PR 10 tentpole).

Boots the real stdlib asyncio HTTP server in-process and drives it
over actual sockets: job submission in every kind, in-flight dedup,
cache-cell sharing between identical jobs, fault-plan/clean isolation,
worker death mid-job healed by the shared ``SweepEngine``, and a
restart coming back warm from the run cache's disk tier.

The worker-kill injection reuses the ``test_executor_healing``
pattern: a module-level transducer factory (fork pools and
``load_spec`` both resolve by reference) whose output query
``os._exit``\\ s the first forked worker that evaluates it.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.core import build_transducer
from repro.db import schema
from repro.lang import PythonQuery
from repro.service import JobOrchestrator
from repro.service.app import ServiceConfig, ServiceThread
from repro.service.metrics import Histogram

#: The pytest process; the saboteur only fires in forked workers.
_PARENT_PID = os.getpid()

#: One-shot kill flag directory, set by the kill test before submitting.
_KILL_DIR = None


def _trip(path):
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _killer_output(instance):
    if _KILL_DIR is not None and os.getpid() != _PARENT_PID:
        if _trip(os.path.join(_KILL_DIR, "service-kill")):
            os._exit(1)
    return instance.relation("R")


def killer_relay_factory():
    """A relay transducer whose output query kills one forked worker."""
    return build_transducer(
        inputs={"S": 1},
        messages={"M": 1},
        memory={"R": 1},
        output_arity=1,
        rules="""
            send M(x)   :- S(x).
            send M(x)   :- M(x).
            insert R(x) :- M(x).
        """,
        output=PythonQuery(
            _killer_output, 1, schema(R=1), reads=("R",),
            name="service_killer_output",
        ),
        name="service_killer_relay",
    )


TC_SPEC = "repro.core.examples:transitive_closure_transducer"


def _payload(**overrides) -> dict:
    base = {
        "kind": "consistency",
        "spec": TC_SPEC,
        "network": {"topology": "line", "size": 3},
        "instance": {"S": [[1, 2], [2, 3], [3, 4]]},
        "seeds": [0, 1],
        "partition_count": 3,
    }
    base.update(overrides)
    return base


def _verdict(result: dict) -> dict:
    """A job result minus its per-run cache counters (which
    legitimately differ between cold and warm executions)."""
    return {k: v for k, v in result.items() if k != "cache"}


def _request(base_url: str, path: str, payload=None):
    if payload is None:
        req = urllib.request.Request(base_url + path)
    else:
        req = urllib.request.Request(
            base_url + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="class")
def service():
    st = ServiceThread(ServiceConfig(port=0, job_workers=2)).start()
    try:
        yield st
    finally:
        st.stop()


class TestHttpSurface:
    def test_healthz(self, service):
        status, body = _request(service.base_url, "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["engine"]["lifetime"] == "serial"

    def test_unknown_route_404s(self, service):
        status, body = _request(service.base_url, "/nope")
        assert status == 404

    def test_unknown_job_404s(self, service):
        status, body = _request(service.base_url, "/jobs/job-missing")
        assert status == 404
        assert "job-missing" in body["error"]

    def test_bad_json_400s(self, service):
        req = urllib.request.Request(
            service.base_url + "/jobs", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=30)
        assert info.value.code == 400

    def test_bad_spec_400s_with_code(self, service):
        status, body = _request(
            service.base_url, "/jobs",
            {"kind": "consistency", "program": "p(X) :- q(X), not p(X)."},
        )
        assert status == 400
        assert body["code"] == "CALM009"

    def test_submit_poll_result_roundtrip(self, service):
        status, body = _request(service.base_url, "/jobs", _payload())
        assert status == 202
        job = service.service.orchestrator.wait(body["job_id"], timeout=120)
        status, seen = _request(service.base_url, f"/jobs/{body['job_id']}")
        assert status == 200
        assert seen["status"] == "done"
        assert seen["result"]["consistent"] is True
        assert seen["result"]["distinct_outputs"] == [
            [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
        ]
        # The static analyzer's report rides along on every job.
        assert seen["static_report"]["kind"] == "transducer"
        assert job.duration is not None and job.duration >= 0

    def test_event_stream_replays_to_terminal(self, service):
        status, body = _request(service.base_url, "/jobs", _payload(seeds=[5]))
        service.service.orchestrator.wait(body["job_id"], timeout=120)
        with urllib.request.urlopen(
            service.base_url + f"/jobs/{body['job_id']}/events", timeout=30
        ) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            raw = resp.read().decode()
        events = [
            json.loads(line[len("data: "):])
            for line in raw.splitlines()
            if line.startswith("data: ")
        ]
        messages = [e["message"] for e in events if "message" in e]
        assert any("queued" in m for m in messages)
        assert "finished" in messages
        assert events[-1] == {"status": "done"}

    def test_metrics_json_and_text(self, service):
        status, snap = _request(service.base_url, "/metrics")
        assert status == 200
        assert "run_cache" in snap and "engine" in snap
        with urllib.request.urlopen(
            service.base_url + "/metrics?format=text", timeout=30
        ) as resp:
            text = resp.read().decode()
        assert "repro_run_cache_cache_hits" in text
        assert "repro_engine_lifetime" in text

    def test_job_listing(self, service):
        status, listing = _request(service.base_url, "/jobs")
        assert status == 200
        assert listing["count"] >= 1
        assert all("id" in j and "status" in j for j in listing["jobs"])


class TestSharedCacheAcrossJobs:
    def test_identical_resubmission_serves_from_cache(self, service):
        payload = _payload(seeds=[11, 12], partition_count=4)
        _, first = _request(service.base_url, "/jobs", payload)
        job1 = service.service.orchestrator.wait(first["job_id"], timeout=240)
        assert job1.status == "done"
        cold_cache = job1.result["cache"]
        assert cold_cache["hits"] == 0 and cold_cache["misses"] > 0

        _, second = _request(service.base_url, "/jobs", payload)
        assert second["job_id"] != first["job_id"]
        job2 = service.service.orchestrator.wait(second["job_id"], timeout=240)
        # Same grid → same cells: the whole sweep is served from the
        # shared cache, zero recomputation.
        warm_cache = job2.result["cache"]
        assert warm_cache["misses"] == 0
        assert warm_cache["hits"] + warm_cache["dedup"] == (
            cold_cache["misses"] + cold_cache["dedup"]
        )
        assert _verdict(job2.result) == _verdict(job1.result)
        _, snap = _request(service.base_url, "/metrics")
        assert snap["run_cache"]["cache_hits"] >= warm_cache["hits"]

    def test_inflight_duplicate_attaches_to_running_job(self, service):
        # A cold, non-trivial grid: the duplicate lands while the
        # original is still queued/running on the 2-thread pool.
        payload = _payload(
            instance={"S": [[i, i + 1] for i in range(1, 7)]},
            seeds=[21, 22, 23],
            partition_count=4,
            network={"topology": "ring", "size": 4},
        )
        _, first = _request(service.base_url, "/jobs", payload)
        _, dup = _request(service.base_url, "/jobs", payload)
        assert dup["deduplicated"] is True
        assert dup["job_id"] == first["job_id"]
        assert first["fingerprint"] == dup["fingerprint"]
        job = service.service.orchestrator.wait(first["job_id"], timeout=240)
        assert job.status == "done"
        _, snap = _request(service.base_url, "/metrics")
        assert snap["jobs"]["jobs_deduped"] >= 1

    def test_fault_job_never_aliases_clean_job(self, service):
        clean = _payload(seeds=[31], partition_count=2)
        faulty = _payload(
            seeds=[31], partition_count=2,
            faults={"seed": 9, "loss": 0.25, "duplication": 0.1},
        )
        _, a = _request(service.base_url, "/jobs", clean)
        job_a = service.service.orchestrator.wait(a["job_id"], timeout=240)
        _, b = _request(service.base_url, "/jobs", faulty)
        job_b = service.service.orchestrator.wait(b["job_id"], timeout=240)
        assert a["fingerprint"] != b["fingerprint"]
        # The faulted grid shares no run cells with the clean one: its
        # sweep is all misses even though the clean sweep just ran.
        assert job_b.result["cache"]["hits"] == 0
        assert job_b.result["cache"]["misses"] > 0
        # Both verdicts stand on their own runs.
        assert job_a.result["consistent"] is True
        assert job_b.result["consistent"] is True


class TestAllKindsOverHttp:
    @pytest.mark.parametrize(
        "kind,extra,checks",
        [
            ("consistency", {}, lambda r: r["consistent"] is True),
            (
                "topology-independence",
                {"seeds": [0], "partition_count": 2,
                 "instance": {"S": [[1, 2]]}},
                lambda r: r["independent"] is True,
            ),
            (
                "coordination-free",
                {"network": {"topology": "line", "size": 2},
                 "instance": {"S": [[1, 2]]}},
                lambda r: r["coordination_free"] is True,
            ),
            (
                "calm-verdict",
                {"static_first": True},
                lambda r: r["verdict_source"] == "static"
                and r["coordination_free"] is True,
            ),
        ],
    )
    def test_kind(self, service, kind, extra, checks):
        status, body = _request(
            service.base_url, "/jobs", _payload(kind=kind, **extra)
        )
        assert status in (200, 202)
        job = service.service.orchestrator.wait(body["job_id"], timeout=300)
        assert job.status == "done", job.error
        assert checks(job.result)

    def test_program_text_job(self, service):
        status, body = _request(service.base_url, "/jobs", {
            "kind": "consistency",
            "program": (
                "path(X, Y) :- edge(X, Y).\n"
                "path(X, Z) :- edge(X, Y), path(Y, Z)."
            ),
            "instance": {"edge": [[1, 2], [2, 3]]},
            "seeds": [0],
            "partition_count": 2,
        })
        assert status == 202
        job = service.service.orchestrator.wait(body["job_id"], timeout=240)
        assert job.status == "done", job.error
        assert job.result["consistent"] is True
        assert [[1, 2], [1, 3], [2, 3]] in job.result["distinct_outputs"]
        # Program jobs are linted as programs, not transducers.
        assert job.static_report["kind"] == "stratified-program"


class TestResubmitAfterFinish:
    def test_resubmission_right_after_done_reruns(self, monkeypatch):
        # The fingerprint leaves the in-flight map before `done` is
        # published; slowing the post-`done` bookkeeping widens the
        # window in which an attached re-submission used to land.
        orch = JobOrchestrator(max_workers=1)
        observe = orch.metrics.observe

        def slow_observe(kind, seconds):
            time.sleep(0.05)
            observe(kind, seconds)

        monkeypatch.setattr(orch.metrics, "observe", slow_observe)
        try:
            payload = _payload(seeds=[0], partition_count=1)
            first, created = orch.submit(payload)
            assert created
            assert orch.wait(first.id, timeout=240).status == "done"
            second, created = orch.submit(payload)
            assert created is True
            assert second.id != first.id
            assert orch.wait(second.id, timeout=240).status == "done"
        finally:
            orch.close()


class TestLatencyHistogram:
    def test_quantiles_interpolate_within_observed_range(self):
        hist = Histogram()
        for _ in range(20):
            hist.observe(0.35)
        # The 0.35 s observations sit in the (0.1, 0.5] bucket; the
        # estimate must not report the bucket's upper bound.
        assert hist.quantile(0.5) == 0.35
        assert hist.quantile(0.95) == 0.35

    def test_quantiles_are_monotone_and_bounded(self):
        hist = Histogram()
        for seconds in (0.002, 0.003, 0.2, 0.4, 70.0):
            hist.observe(seconds)
        qs = [hist.quantile(q) for q in (0.0, 0.2, 0.5, 0.9, 1.0)]
        assert qs == sorted(qs)
        assert qs[0] == 0.002 and qs[-1] == 70.0
        assert Histogram().quantile(0.5) is None


class TestWorkerDeathMidJob:
    def test_job_completes_via_engine_self_healing(self, tmp_path):
        global _KILL_DIR
        st = ServiceThread(ServiceConfig(
            port=0, job_workers=1, engine_workers=2, engine_lifetime="fork",
        )).start()
        _KILL_DIR = str(tmp_path)
        try:
            payload = {
                "kind": "consistency",
                "spec": "test_service:killer_relay_factory",
                "network": {"topology": "line", "size": 3},
                "instance": {"S": [[1], [2], [3]]},
                "seeds": [0, 1],
                "partition_count": 3,
            }
            status, body = _request(st.base_url, "/jobs", payload)
            assert status == 202
            job = st.service.orchestrator.wait(body["job_id"], timeout=300)
            assert job.status == "done", job.error
            assert job.result["consistent"] is True
            assert job.result["distinct_outputs"] == [[[1], [2], [3]]]
            # The kill really happened and the engine healed it.
            assert os.path.exists(os.path.join(str(tmp_path), "service-kill"))
            _, snap = _request(st.base_url, "/metrics")
            assert snap["engine"]["worker_deaths"] >= 1
            assert snap["engine"]["respawns"] >= 1
        finally:
            _KILL_DIR = None
            st.stop()


class TestRestartWarmFromDiskTier:
    def test_restarted_service_serves_warm_hits(self, tmp_path):
        disk = str(tmp_path / "service-cache.sqlite")
        store = str(tmp_path / "jobs.sqlite")
        payload = _payload(seeds=[41, 42], partition_count=3)

        # First life: a tiny memory bound forces every finished cell
        # to demote to the disk tier as fresher ones land.
        st = ServiceThread(ServiceConfig(
            port=0, job_workers=2, cache_max_entries=2, cache_max_bytes=None,
            cache_disk_path=disk, job_store_path=store,
        )).start()
        try:
            _, first = _request(st.base_url, "/jobs", payload)
            job1 = st.service.orchestrator.wait(first["job_id"], timeout=240)
            assert job1.status == "done"
            _, snap = _request(st.base_url, "/metrics")
            assert snap["run_cache"]["demotions"] > 0
            first_result = job1.result
        finally:
            st.stop()

        # Second life: same disk tier + job store.  The old job is
        # still addressable, and the re-run sweep is served warm from
        # disk — hits with zero recomputed cells.
        st2 = ServiceThread(ServiceConfig(
            port=0, job_workers=2, cache_max_entries=2, cache_max_bytes=None,
            cache_disk_path=disk, job_store_path=store,
        )).start()
        try:
            status, old = _request(st2.base_url, f"/jobs/{first['job_id']}")
            assert status == 200
            assert old["status"] == "done"
            assert _verdict(old["result"]) == _verdict(first_result)

            _, second = _request(st2.base_url, "/jobs", payload)
            job2 = st2.service.orchestrator.wait(second["job_id"], timeout=240)
            assert job2.status == "done"
            assert job2.result["cache"]["misses"] == 0
            assert job2.result["cache"]["hits"] > 0
            assert _verdict(job2.result) == _verdict(first_result)
            _, snap = _request(st2.base_url, "/metrics")
            assert snap["run_cache"]["cache_hits"] >= job2.result["cache"]["hits"]
            assert snap["run_cache"]["promotions"] > 0
            assert snap["jobs"]["jobs_restored"] >= 1
        finally:
            st2.stop()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-x", "-q"]))


def _fair_random_kwargs(cache) -> list[dict]:
    """The run kwargs of every ``fair-random`` cell in *cache*."""
    return [dict(key[5]) for key in cache.entries if key[0] == "fair-random"]


class TestRunOptionsReachEveryKind:
    """Every kind runs with the knobs its request echoes back."""

    def _run(self, payload: dict):
        orch = JobOrchestrator(max_workers=1)
        try:
            job, _ = orch.submit(payload)
            return orch.wait(job.id, timeout=240), orch.cache
        finally:
            orch.close()

    def test_calm_verdict_keys_its_cells_at_the_requested_max_steps(self):
        job, cache = self._run(_payload(
            kind="calm-verdict", seeds=[0], instance={"S": [[1, 2], [2, 3]]},
            max_steps=7,
        ))
        assert job.status == "done", job.error
        assert job.request["max_steps"] == 7
        cells = _fair_random_kwargs(cache)
        assert cells
        assert all(kw["max_steps"] == 7 for kw in cells)

    @pytest.mark.parametrize("kind", ["consistency", "topology-independence"])
    def test_batched_scheduler_is_gated_on_every_kind(self, kind):
        job, _ = self._run(_payload(
            kind=kind,
            spec="repro.core.examples:emptiness_transducer",
            instance={"S": [[1]]},
            seeds=[0],
            partition_count=2,
            scheduler="round-robin-batch",
        ))
        assert job.request["batch_delivery"] is True
        assert job.status == "failed"
        assert job.error.startswith("BatchingError")


class TestWireFormatPinned:
    """The request echo and the dedup fingerprint of two payloads, as
    recorded before the run knobs moved into ``RunOptions``: the HTTP
    contract and the in-flight dedup identity are unchanged."""

    FAULTY = {"seed": 9, "loss": 0.25, "duplication": 0.1}
    PINS = [
        (
            {"scheduler": "round-robin-batch", "max_steps": 5000},
            {
                "kind": "consistency",
                "transducer": "example3_transitive_closure",
                "network": "line3",
                "seeds": [0],
                "partition_count": 1,
                "max_steps": 5000,
                "batch_delivery": True,
                "faults": None,
                "static_first": False,
            },
            "e5ca833fa0a065167555ff7ccda4780d25ec7dd5f498907a0e86c0af624ad017",
        ),
        (
            {"max_steps": 7000, "faults": FAULTY},
            {
                "kind": "consistency",
                "transducer": "example3_transitive_closure",
                "network": "line3",
                "seeds": [0],
                "partition_count": 1,
                "max_steps": 7000,
                "batch_delivery": False,
                "faults": (
                    "fault-plan(seed=9,loss=0.25,link_loss=(),duplication=0.1,"
                    "delay=0.0,max_delay=4,crash=0.0,restart_after=8,"
                    "retain_state=True,max_crashes=2,partition_rate=0.0,"
                    "heal_after=6,max_partitions=2)"
                ),
                "static_first": False,
            },
            "b9829433227d006ba21992d6dc83f9867fa5bfa78da1daadd2ce3566c82cf4b4",
        ),
    ]

    @pytest.mark.parametrize("extra,request_json,fingerprint", PINS,
                             ids=["clean", "faults"])
    def test_request_and_fingerprint(self, extra, request_json, fingerprint):
        orch = JobOrchestrator(max_workers=1)
        try:
            job, _ = orch.submit(_payload(seeds=[0], partition_count=1, **extra))
            job = orch.wait(job.id, timeout=240)
        finally:
            orch.close()
        assert job.status == "done", job.error
        assert job.to_json()["request"] == request_json
        assert list(job.to_json()["request"]) == list(request_json)
        assert job.fingerprint == fingerprint
