"""HTTP surface of the analysis service (stdlib ``http.server`` only).

A deliberately thin translation layer: every policy decision lives in
:class:`repro.serve.daemon.AnalysisService`; this module maps requests
onto it and service verdicts onto status codes:

====================  ===========================================
``POST /v1/analyze``  submit one program.  ``{"wait": true}``
                      (default) blocks until the result is ready
                      (200); ``wait=false`` or a wait timeout
                      returns 202 + a job id to poll.  Cache hits
                      return 200 immediately with
                      ``"cache": "hit"``.  Shed load is 429 with a
                      ``Retry-After`` header; a draining daemon
                      answers 503.  Parse errors are 400.
``POST /v1/batch``    submit many programs; answered/cached items
                      inline, the rest as one batch job.
``GET /v1/jobs/<id>`` poll a job (200 done / 202 still running /
                      404 unknown).
``GET /healthz``      liveness: 200 as long as the process serves.
``GET /readyz``       readiness: 503 once draining (load
                      balancers stop routing before shutdown).
``GET /stats``        queue depth, cache and breaker state, obs
                      counters.
====================  ===========================================

The server is a ``ThreadingHTTPServer``: admission is cheap (parse +
hash + fsync) and executions happen on the service's own worker
threads/processes, so request threads only ever block on an Event wait.

``run_server`` wires SIGTERM to a graceful drain: stop admitting,
finish accepted work, then exit.  A ``daemon.json`` discovery file
(pid, host, port) is maintained in the state directory for tooling —
the load generator, the smoke tests, and operators.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from typing import Optional, Tuple

from repro.core.checkpoint import atomic_write_text
from repro.faults import plane as faults
from repro.obs import metrics
from repro.obs import recorder as obs
from repro.obs import slog
from repro.obs import trace
from repro.serve.daemon import AnalysisService, AnalyzeRequest, ServiceConfig

#: request bodies above this are rejected outright (413) — an admission
#: control of its own: a 100 MB "program" is a client bug or an attack
MAX_BODY_BYTES = 8 * 1024 * 1024

#: ceiling on the synchronous wait a request may ask for — an unbounded
#: ``wait_timeout_sec`` would let one client pin a handler thread forever
MAX_WAIT_SEC = 600.0

#: how much of an oversized body the server is willing to swallow so the
#: 413 actually reaches the client (responding without reading leaves
#: the client mid-upload against a dead socket: it sees EPIPE, not our
#: status).  Bodies beyond this get the 413 + an immediate close.
DRAIN_CEILING_BYTES = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    # the service instance is attached to the server object
    protocol_version = "HTTP/1.1"
    #: headers and body go out as two writes; with Nagle on, the body of a
    #: kept-alive response waits out the client's delayed ACK (~40 ms)
    disable_nagle_algorithm = True

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing --------------------------------------------------------------

    def log_message(self, fmt, *args):  # quiet by default; slog has it
        slog.debug("serve.http", request=fmt % args)

    def _send_json(self, code: int, document: dict, headers: Optional[dict] = None) -> None:
        body = json.dumps(document).encode("utf-8")
        self._send_body(code, body, "application/json", headers)

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        self._send_body(code, text.encode("utf-8"), content_type)

    def _send_body(
        self, code: int, body: bytes, content_type: str, headers: Optional[dict] = None
    ) -> None:
        self._status_code = code
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        try:
            if faults.check("http.client.disconnect") is not None:
                raise BrokenPipeError(
                    "injected fault http.client.disconnect: peer reset mid-response"
                )
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # client hung up; the job (if any) still completes.  Close the
            # socket so a half-sent response (headers promised a body we
            # never delivered) cannot poison a keep-alive connection.
            obs.incr("serve.http.client_disconnects")
            self.close_connection = True

    def _read_body(self) -> Optional[dict]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length"})
            return None
        if length > MAX_BODY_BYTES:
            obs.incr("serve.http.body_too_large")
            if length <= DRAIN_CEILING_BYTES:
                remaining = length
                while remaining > 0:
                    chunk = self.rfile.read(min(remaining, 64 * 1024))
                    if not chunk:
                        break
                    remaining -= len(chunk)
            else:
                self.close_connection = True
            self._send_json(
                413,
                {
                    "error": "request body too large",
                    "limit_bytes": MAX_BODY_BYTES,
                    "got_bytes": length,
                },
            )
            return None
        raw = self.rfile.read(length) if length else b""
        try:
            document = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "request body is not valid JSON"})
            return None
        if not isinstance(document, dict):
            self._send_json(400, {"error": "request body must be a JSON object"})
            return None
        return document

    # -- RED accounting --------------------------------------------------------

    _ENDPOINTS = {
        "/healthz": "healthz",
        "/readyz": "readyz",
        "/stats": "stats",
        "/metrics": "metrics",
        "/v1/analyze": "analyze",
        "/v1/batch": "batch",
    }

    def _endpoint_name(self) -> str:
        if self.path.startswith("/v1/jobs/"):
            return "jobs"
        return self._ENDPOINTS.get(self.path, "other")

    def _dispatch(self, route) -> None:
        """Route one request, recording the RED series every endpoint
        exposes on /metrics: a per-endpoint latency histogram and a
        per-endpoint/per-status request counter."""
        endpoint = self._endpoint_name()
        self._status_code = 0
        start = perf_counter()
        try:
            route()
        finally:
            obs.observe(
                f"serve.http.latency_ms.{endpoint}",
                (perf_counter() - start) * 1000.0,
            )
            obs.incr(f"serve.http.requests.{endpoint}.{self._status_code or 0}")

    # -- GET -------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_get)

    def _route_get(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/readyz":
            if self.service.draining:
                self._send_json(503, {"status": "draining"})
            else:
                self._send_json(200, {"status": "ready"})
        elif self.path == "/stats":
            self._send_json(200, self.service.stats())
        elif self.path == "/metrics":
            self._handle_metrics()
        elif self.path.startswith("/v1/jobs/"):
            job_id = self.path[len("/v1/jobs/"):]
            job = self.service.get_job(job_id)
            if job is None:
                self._send_json(404, {"error": f"unknown job {job_id!r}"})
            elif job.done.is_set():
                self._send_json(200, {"job": job.id, "state": "done", "result": job.result})
            else:
                self._send_json(202, {"job": job.id, "state": job.state})
        else:
            self._send_json(404, {"error": f"no route for {self.path!r}"})

    def _handle_metrics(self) -> None:
        """Serve the Prometheus exposition.  A monitoring endpoint must
        never be the thing that takes the daemon down: any render failure
        (including the injected ``metrics.render.fail`` fault) degrades
        to a minimal, still-parseable document instead of a 500."""
        try:
            text = metrics.render(self.service)
        except Exception as exc:
            obs.incr("serve.metrics.render_errors")
            slog.warning("serve.metrics_render_failed", error=str(exc))
            errors = 1
            recorder = obs.active_recorder()
            if isinstance(recorder, obs.Recorder):
                errors = recorder.counters.get("serve.metrics.render_errors", 1)
            text = metrics.fallback_exposition(errors)
        self._send_text(200, text, metrics.CONTENT_TYPE)

    # -- POST ------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_post)

    def _route_post(self) -> None:
        document = self._read_body()
        if document is None:
            return
        if self.path == "/v1/analyze":
            self._handle_analyze(document)
        elif self.path == "/v1/batch":
            self._handle_batch(document)
        else:
            self._send_json(404, {"error": f"no route for {self.path!r}"})

    def _shed_response(self, info: dict) -> None:
        if info.get("reason") == "draining":
            self._send_json(
                503, {"error": "draining", **info},
                headers={"Retry-After": info.get("retry_after_sec", 1)},
            )
        else:
            self._send_json(
                429, {"error": "overloaded", **info},
                headers={"Retry-After": info.get("retry_after_sec", 1)},
            )

    def _handle_analyze(self, document: dict) -> None:
        try:
            request = AnalyzeRequest.from_json(document)
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        # one trace per admitted request; a client-supplied X-Repro-Trace
        # id wins so callers can correlate with their own systems
        span_ctx = trace.mint(self.headers.get("X-Repro-Trace"))
        with trace.activate(span_ctx):
            if document.get("stream"):
                self._stream_analyze(document, request, span_ctx)
                return
            wait = bool(document.get("wait", True))
            with trace.span("http.analyze"):
                status, payload = self.service.submit(request)
            if status == "hit":
                self._send_json(
                    200, {"cache": "hit", "trace": span_ctx.trace_id, "result": payload}
                )
            elif status == "rejected":
                self._send_json(400, {"error": payload})
            elif status == "shed":
                self._shed_response(payload)
            else:  # accepted
                job = payload
                if wait and job.wait(self._wait_budget(document)):
                    self._send_json(
                        200,
                        {
                            "cache": "miss",
                            "job": job.id,
                            "trace": job.trace_id or span_ctx.trace_id,
                            "result": job.result,
                        },
                    )
                else:
                    self._send_json(
                        202,
                        {
                            "job": job.id,
                            "state": job.state,
                            "trace": job.trace_id or span_ctx.trace_id,
                        },
                    )

    # -- streaming diagnostics -------------------------------------------------

    def _begin_stream(self) -> None:
        self._status_code = 200
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()

    def _send_chunk(self, event: dict) -> bool:
        """One JSONL event as one HTTP/1.1 chunk; False once the client
        is gone (the job still completes server-side)."""
        data = (json.dumps(event) + "\n").encode("utf-8")
        frame = ("%X\r\n" % len(data)).encode("ascii") + data + b"\r\n"
        try:
            if faults.check("http.client.disconnect") is not None:
                raise BrokenPipeError(
                    "injected fault http.client.disconnect: peer reset mid-stream"
                )
            self.wfile.write(frame)
            self.wfile.flush()
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            obs.incr("serve.http.client_disconnects")
            self.close_connection = True
            return False

    def _end_stream(self) -> None:
        try:
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            obs.incr("serve.http.client_disconnects")
            self.close_connection = True

    def _stream_analyze(self, document: dict, request: AnalyzeRequest, span_ctx) -> None:
        """Incremental mode: the job's life as chunked JSONL events —
        ``admission`` then (cache miss) ``rung``/``progress``/
        ``diagnostic`` as execution emits them, terminated by ``result``
        (or ``timeout`` once the wait budget is spent; the job id in the
        timeout event still polls via ``/v1/jobs/<id>``)."""
        subscriber: "queue.Queue" = queue.Queue()
        with trace.span("http.analyze", stream=True):
            status, payload = self.service.submit(request, subscriber=subscriber)
        if status == "rejected":
            self._send_json(400, {"error": payload})
            return
        if status == "shed":
            self._shed_response(payload)
            return
        obs.incr("serve.http.streams")
        base = {"trace": span_ctx.trace_id}
        self._begin_stream()
        if status == "hit":
            if self._send_chunk({"event": "admission", "cache": "hit", **base}):
                self._send_chunk({"event": "result", "result": payload, **base})
            self._end_stream()
            return
        job = payload
        if not self._send_chunk(
            {"event": "admission", "cache": "miss", "job": job.id, **base}
        ):
            return
        deadline = time.monotonic() + self._wait_budget(document)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._send_chunk(
                    {"event": "timeout", "job": job.id, "state": job.state, **base}
                )
                break
            try:
                event = subscriber.get(timeout=min(remaining, 0.25))
            except queue.Empty:
                if job.done.is_set() and subscriber.empty():
                    # completed before our subscription saw the result event
                    event = {"event": "result", "job": job.id, "result": job.result}
                else:
                    continue
            if not self._send_chunk({**base, **event}):
                return
            if event.get("event") == "result":
                break
        self._end_stream()

    def _handle_batch(self, document: dict) -> None:
        raw_items = document.get("programs")
        if not isinstance(raw_items, list) or not raw_items:
            self._send_json(400, {"error": "'programs' must be a non-empty list"})
            return
        shared = {k: document.get(k) for k in ("tenant", "deadline_sec", "max_steps",
                                               "max_state_bytes") if k in document}
        try:
            requests = [
                AnalyzeRequest.from_json(
                    {**shared, **(item if isinstance(item, dict) else {"program": item})}
                )
                for item in raw_items
            ]
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        span_ctx = trace.mint(self.headers.get("X-Repro-Trace"))
        with trace.activate(span_ctx):
            with trace.span("http.batch", items=len(requests)):
                status, payload = self.service.submit_batch(requests)
            if status == "hit":
                self._send_json(200, payload)
            elif status == "shed":
                self._shed_response(payload)
            else:
                job = payload
                if bool(document.get("wait", True)) and job.wait(self._wait_budget(document)):
                    self._send_json(200, {"job": job.id, **job.result})
                else:
                    self._send_json(202, {"job": job.id, "state": job.state})

    def _wait_budget(self, document: dict) -> float:
        try:
            requested = float(document.get("wait_timeout_sec", 60.0))
        except (TypeError, ValueError):
            return 60.0
        return max(0.0, min(requested, MAX_WAIT_SEC))


class AnalysisHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: listen backlog; the inherited 5 overflows under a burst of
    #: concurrent connects, and every dropped SYN costs a 1 s retransmit
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], service: AnalysisService):
        super().__init__(address, _Handler)
        self.service = service


def write_discovery(state_dir: Path, host: str, port: int) -> Path:
    """Publish the daemon's coordinates for tooling (atomic write)."""
    path = Path(state_dir) / "daemon.json"
    atomic_write_text(
        path, json.dumps({"pid": os.getpid(), "host": host, "port": port})
    )
    return path


def run_server(
    config: ServiceConfig,
    host: str = "127.0.0.1",
    port: int = 8642,
    *,
    ready: Optional[threading.Event] = None,
    install_signals: bool = True,
    drain_timeout_sec: float = 30.0,
) -> int:
    """Start the service + HTTP server and block until shutdown.

    SIGTERM/SIGINT trigger the graceful path: mark draining (readyz
    goes 503), finish accepted work (bounded by ``drain_timeout_sec``;
    unfinished jobs stay journaled for the next daemon), stop.  Returns
    the port actually bound (0 requests an ephemeral port).
    """
    service = AnalysisService(config)
    service.start()
    server = AnalysisHTTPServer((host, port), service)
    bound_port = server.server_address[1]
    discovery = write_discovery(config.state_dir, host, bound_port)
    stop_requested = threading.Event()

    def _on_signal(signum, frame):
        slog.info("serve.signal", signum=signum)
        service.begin_drain()  # readyz flips immediately
        stop_requested.set()
        # shutdown() must not run on the serving thread; hand it off
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
    if ready is not None:
        ready.set()
    slog.info("serve.listening", host=host, port=bound_port)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        service.drain(timeout=drain_timeout_sec)
        try:
            discovery.unlink()
        except OSError:
            pass
    return bound_port


def discover(state_dir) -> Optional[Tuple[str, int]]:
    """Read the daemon.json discovery file, verifying the port answers."""
    path = Path(state_dir) / "daemon.json"
    try:
        doc = json.loads(path.read_text())
        host, port = str(doc["host"]), int(doc["port"])
    except (OSError, ValueError, KeyError):
        return None
    try:
        with socket.create_connection((host, port), timeout=1.0):
            return host, port
    except OSError:
        return None
