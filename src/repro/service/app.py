"""The HTTP shell: a stdlib asyncio server.

The service must boot on a bare CPython install, so it is a
deliberately small HTTP/1.1 implementation (request line + headers +
Content-Length body, one request per connection).  The handlers live
in :mod:`~repro.service.routes`, free of any HTTP framework.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass

from ..net import SweepEngine
from ..net.runcache import RunCache
from .orchestrator import _TERMINAL, JobOrchestrator
from .metrics import render_text
from . import routes

_MAX_BODY = 8 * 1024 * 1024


@dataclass
class ServiceConfig:
    """Deployment knobs (see docs/service.md for guidance)."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Concurrent job executions.
    job_workers: int = 4
    #: Shared RunCache byte budget; ``cache_disk_path`` enables the
    #: sqlite disk tier — the thing that makes a restarted service warm.
    cache_max_bytes: int | None = 64 * 1024 * 1024
    cache_disk_path: str | None = None
    #: Terminal-job store (GET /jobs/{id} across restarts).
    job_store_path: str | None = None
    #: Shared SweepEngine shape.  Serial + several job workers is the
    #: right default on small boxes: jobs parallelize across threads
    #: and the cache provides the speed.
    engine_workers: int = 1
    engine_lifetime: str | None = None


class VerificationService:
    """The asyncio HTTP server bound to one :class:`JobOrchestrator`."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config if config is not None else ServiceConfig()
        cache = RunCache(
            max_bytes=self.config.cache_max_bytes,
            disk_path=self.config.cache_disk_path,
        )
        engine = SweepEngine(
            workers=self.config.engine_workers,
            lifetime=self.config.engine_lifetime,
        )
        self.orchestrator = JobOrchestrator(
            run_cache=cache,
            engine=engine,
            max_workers=self.config.job_workers,
            store_path=self.config.job_store_path,
        )
        self._server: asyncio.AbstractServer | None = None

    # -- HTTP plumbing -----------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length < 0 or length > _MAX_BODY:
            return method, target, headers, None
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _response(
        status: int, body: bytes, content_type: str = "application/json"
    ) -> bytes:
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  503: "Service Unavailable"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        return head.encode("latin-1") + body

    @staticmethod
    def _json(status: int, payload: dict) -> bytes:
        body = json.dumps(payload, sort_keys=True).encode()
        return VerificationService._response(status, body)

    async def _handle(self, reader, writer):
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, target, _headers, body = request
            path, _, query = target.partition("?")
            parts = [p for p in path.split("/") if p]

            if path == "/jobs" and method == "POST":
                if body is None:
                    writer.write(self._json(400, {"error": "body too large"}))
                    return
                try:
                    payload = json.loads(body or b"{}")
                except json.JSONDecodeError as exc:
                    writer.write(self._json(400, {"error": f"bad JSON: {exc}"}))
                    return
                status, out = await asyncio.to_thread(
                    routes.submit_job, self.orchestrator, payload
                )
                writer.write(self._json(status, out))
            elif path == "/jobs" and method == "GET":
                writer.write(self._json(*routes.list_jobs(self.orchestrator)))
            elif len(parts) == 2 and parts[0] == "jobs" and method == "GET":
                writer.write(
                    self._json(*routes.get_job(self.orchestrator, parts[1]))
                )
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "events"
                and method == "GET"
            ):
                await self._stream_events(writer, parts[1])
            elif path == "/metrics" and method == "GET":
                status, snap = routes.get_metrics(self.orchestrator)
                if "format=text" in query:
                    writer.write(
                        self._response(
                            status,
                            render_text(snap).encode(),
                            content_type="text/plain; charset=utf-8",
                        )
                    )
                else:
                    writer.write(self._json(status, snap))
            elif path == "/healthz" and method == "GET":
                writer.write(self._json(*routes.healthz(self.orchestrator)))
            else:
                writer.write(self._json(404, {"error": f"no route: {path}"}))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _stream_events(self, writer, job_id: str) -> None:
        """``GET /jobs/{id}/events`` — server-sent events until terminal."""
        job = self.orchestrator.get(job_id)
        if job is None:
            writer.write(self._json(404, {"error": f"no such job: {job_id}"}))
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        sent = 0
        while True:
            events = await asyncio.to_thread(job.wait_events, sent, 0.25)
            for event in events:
                data = json.dumps(event, sort_keys=True)
                writer.write(f"data: {data}\n\n".encode())
            sent += len(events)
            await writer.drain()
            if job.status in _TERMINAL and len(job.events) <= sent:
                writer.write(
                    f'data: {{"status": "{job.status}"}}\n\n'.encode()
                )
                await writer.drain()
                return

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        # Rebind the actual port (port=0 asks the OS to pick one).
        self.config.port = sock.getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def close(self) -> None:
        self.orchestrator.close()


class ServiceThread:
    """Run a :class:`VerificationService` on a daemon thread.

    The in-process harness for tests and benches: ``start()`` returns
    once the port is bound; ``stop()`` tears down the loop and the
    orchestrator.  Production deployments call ``serve_forever`` on
    the main thread instead (``python -m repro.service``).
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.service = VerificationService(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()

    @property
    def base_url(self) -> str:
        cfg = self.service.config
        return f"http://{cfg.host}:{cfg.port}"

    def start(self) -> "ServiceThread":
        def _main():
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.service.start())
            self._ready.set()
            try:
                loop.run_until_complete(self.service.serve_forever())
            except asyncio.CancelledError:
                pass
            finally:
                loop.run_until_complete(self.service.stop())
                loop.close()

        self._thread = threading.Thread(
            target=_main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("service failed to bind within 10s")
        return self

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None:
            # One hop into the loop thread cancels every task there: a
            # cancel per task from this thread raced the loop closing
            # once the first cancel ended ``serve_forever``.
            def _cancel_all():
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            if not loop.is_closed():
                loop.call_soon_threadsafe(_cancel_all)
            thread.join(10.0)
        self.service.close()


def create_app(config: ServiceConfig | None = None) -> VerificationService:
    """The verification service for *config*."""
    return VerificationService(config)
