"""The HTTP surface: route/status-code mapping over an in-thread server."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.corpus.generator import generate
from repro.serve.daemon import AnalysisService, ServiceConfig
from repro.serve.http import AnalysisHTTPServer
from repro.serve.retry import RetryPolicy


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(
        state_dir=tmp_path / "state",
        workers=1,
        isolation="inline",
        queue_size=8,
        retry=RetryPolicy(max_retries=0, backoff_base_sec=0.01),
    )
    service = AnalysisService(config)
    service.start()
    httpd = AnalysisHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield base, service
    httpd.shutdown()
    httpd.server_close()
    service.stop()


def _get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _post(base: str, path: str, document: dict):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def test_analyze_miss_then_hit(server):
    base, _service = server
    source = generate(31).source
    code, body, _ = _post(base, "/v1/analyze", {"program": source})
    assert code == 200
    assert body["cache"] == "miss"
    assert body["result"]["confidence"] in ("exact", "partial")
    code, body, _ = _post(base, "/v1/analyze", {"program": source})
    assert code == 200
    assert body["cache"] == "hit"


def test_async_submit_then_poll(server):
    base, _service = server
    code, body, _ = _post(
        base, "/v1/analyze",
        {"program": generate(32).source, "wait": False},
    )
    assert code == 202
    job_id = body["job"]
    for _ in range(300):
        code, body, _ = _get(base, f"/v1/jobs/{job_id}")
        if code == 200:
            break
    assert code == 200
    assert body["state"] == "done"
    assert body["result"]["confidence"] in ("exact", "partial")


def test_parse_error_is_400(server):
    base, _service = server
    code, body, _ = _post(base, "/v1/analyze", {"program": "((nope"})
    assert code == 400
    assert "parse error" in body["error"]


def test_malformed_request_bodies_are_400(server):
    base, _service = server
    code, body, _ = _post(base, "/v1/analyze", {"not_program": 1})
    assert code == 400
    request = urllib.request.Request(
        base + "/v1/analyze", data=b"{not json", method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400


#: budget fields a client can get wrong; each must be a structured 400
BAD_BUDGETS = [
    {"deadline_sec": "abc"},
    {"deadline_sec": float("nan")},
    {"deadline_sec": float("inf")},
    {"deadline_sec": -1.0},
    {"max_steps": [1]},
    {"max_steps": -5},
    {"max_steps": 2.5},
    {"max_steps": True},
    {"max_state_bytes": {"a": 1}},
    {"max_state_bytes": "1024"},
]


@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=lambda b: repr(b))
def test_malformed_budget_fields_are_400(server, budget):
    base, service = server
    source = generate(35).source
    code, body, _ = _post(base, "/v1/analyze", {"program": source, **budget})
    assert code == 400
    assert next(iter(budget)) in body["error"]
    code, body, _ = _post(base, "/v1/batch", {"programs": [source], **budget})
    assert code == 400
    assert next(iter(budget)) in body["error"]
    assert service.stats()["jobs"] == 0  # nothing was admitted


def test_stale_test_fault_field_is_ignored(server):
    """The request schema has no fault-injection field: an old client's
    ``test_fault`` key is an unknown key like any other."""
    base, _service = server
    code, body, _ = _post(
        base, "/v1/analyze",
        {"program": generate(36).source, "test_fault": {"kind": "crash"}},
    )
    assert code == 200
    assert body["result"]["confidence"] in ("exact", "partial")
    assert "degraded" not in body["result"]


def test_unknown_routes_are_404(server):
    base, _service = server
    assert _get(base, "/nope")[0] == 404
    assert _post(base, "/v1/nope", {})[0] == 404
    assert _get(base, "/v1/jobs/doesnotexist")[0] == 404


def test_health_ready_stats(server):
    base, service = server
    assert _get(base, "/healthz")[0] == 200
    assert _get(base, "/readyz")[0] == 200
    code, stats, _ = _get(base, "/stats")
    assert code == 200
    assert "queue_depth" in stats and "cache" in stats
    service.begin_drain()
    code, body, _ = _get(base, "/readyz")
    assert code == 503
    assert body["status"] == "draining"
    # healthz stays green while draining: the process is still alive
    assert _get(base, "/healthz")[0] == 200


def test_draining_submissions_are_503(server):
    base, service = server
    service.begin_drain()
    code, body, headers = _post(base, "/v1/analyze", {"program": generate(33).source})
    assert code == 503
    assert "Retry-After" in headers


def test_queue_full_is_429_with_retry_after(tmp_path, gate):
    config = ServiceConfig(
        state_dir=tmp_path / "state",
        workers=1,
        isolation="inline",
        queue_size=1,
    )
    service = AnalysisService(config)
    service.start()
    httpd = AnalysisHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    try:
        _post(base, "/v1/analyze", {"program": generate(34).source, "wait": False})
        assert gate.entered.wait(10)  # the worker holds the blocker
        shed = 0
        for seed in range(35, 41):
            code, body, headers = _post(
                base, "/v1/analyze",
                {"program": generate(seed).source, "wait": False},
            )
            if code == 429:
                shed += 1
                assert "Retry-After" in headers
                assert body["error"] == "overloaded"
        assert shed >= 1
    finally:
        gate.open()
        httpd.shutdown()
        httpd.server_close()
        service.stop()


def test_batch_endpoint(server):
    base, _service = server
    source_a, source_b = generate(42).source, generate(43).source
    _post(base, "/v1/analyze", {"program": source_a})
    code, body, _ = _post(base, "/v1/batch", {"programs": [source_a, source_b]})
    assert code == 200
    caches = [item.get("cache") for item in body["results"]]
    assert caches == ["hit", "miss"]
    code, body, _ = _post(base, "/v1/batch", {"programs": []})
    assert code == 400


#: concurrent connects in the backlog burst: well past the 5-deep default
#: listen queue, so an undersized backlog drops SYNs
BURST = 48


def test_connect_burst_is_answered_below_syn_retry(server):
    """A burst of concurrent connects must fit the listen backlog: a
    dropped SYN is retransmitted after 1 s, so any answer slower than
    that means the kernel refused a connection."""
    base, _service = server
    port = int(base.rsplit(":", 1)[1])
    barrier = threading.Barrier(BURST)
    latencies, errors = [], []

    def one_request():
        barrier.wait()
        start = time.perf_counter()
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
                conn.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                )
                reply = b""
                while True:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
            assert reply.startswith(b"HTTP/1.1 200"), reply[:40]
            latencies.append(time.perf_counter() - start)
        except Exception as exc:  # collected: a thread cannot fail the test
            errors.append(repr(exc))

    threads = [threading.Thread(target=one_request) for _ in range(BURST)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors
    assert len(latencies) == BURST
    assert max(latencies) < 1.0, f"slowest connect {max(latencies):.3f} s"


def test_kept_alive_requests_do_not_wait_for_delayed_ack(server):
    """Headers and body are separate writes; with Nagle on, each reply on
    a kept-alive connection would stall ~40 ms behind delayed ACK."""
    base, _service = server
    port = int(base.rsplit(":", 1)[1])
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        times = []
        for _ in range(7):
            start = time.perf_counter()
            conn.request("GET", "/stats")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            times.append(time.perf_counter() - start)
    finally:
        conn.close()
    assert statistics.median(times) < 0.020, [f"{t * 1000:.1f} ms" for t in times]
