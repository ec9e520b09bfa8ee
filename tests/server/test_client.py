"""Client retry discipline: jittered backoff, retry taxonomy, give-up."""

from __future__ import annotations

import json
import random
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.server.client import (
    ClientError,
    RetriesExhaustedError,
    RetryPolicy,
    ServerReplyError,
    SwapClient,
)

OK_SOLVE = {
    "ok": True,
    "kind": "solve",
    "key": "v1-stub",
    "cached": False,
    "result": {"kind": "validation"},  # never decoded in these tests
}


class _ScriptedServer:
    """A real HTTP server answering from a fixed script of responses.

    Each entry is ``(status, headers, payload_dict)``; the last entry
    repeats once the script is exhausted.
    """

    def __init__(self, script):
        self.script = list(script)
        self.hits = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def _reply(self):
                length = int(self.headers.get("Content-Length") or 0)
                self.rfile.read(length)
                index = min(outer.hits, len(outer.script) - 1)
                outer.hits += 1
                status, headers, payload = outer.script[index]
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            do_GET = do_POST = _reply

            def log_message(self, *_args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.httpd.server_address[1]}"

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture()
def scripted():
    servers = []

    def _make(script):
        server = _ScriptedServer(script)
        servers.append(server)
        return server

    yield _make
    for server in servers:
        server.close()


def _client(url, max_attempts=4, sleeps=None):
    return SwapClient(
        url,
        timeout=5.0,
        retry=RetryPolicy(max_attempts=max_attempts, base_delay=0.01, max_delay=0.08),
        sleep=(sleeps.append if sleeps is not None else lambda _s: None),
        rng=random.Random(7),
    )


def _envelope(code, retryable):
    return {
        "ok": False,
        "error": {"code": code, "message": code, "retryable": retryable},
    }


class TestRetryPolicy:
    def test_full_jitter_bounded_by_capped_exponential(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=1.0)
        rng = random.Random(0)
        for attempt in range(8):
            cap = min(1.0, 0.1 * 2 ** attempt)
            for _ in range(50):
                assert 0.0 <= policy.delay(attempt, rng) <= cap

    def test_retry_after_stretches_but_stays_capped(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.5)
        rng = random.Random(1)
        assert policy.delay(0, rng, retry_after=0.3) >= 0.3
        assert policy.delay(0, rng, retry_after=99.0) <= 0.5

    def test_invalid_policy_rejected(self):
        for field, value in [
            ("max_attempts", 0),
            ("max_attempts", 2.5),  # would fail later, in range()
            ("base_delay", 0.0),
            ("base_delay", float("nan")),
            ("max_delay", -1.0),
            ("max_delay", float("nan")),  # would fail later, in sleep()
            ("max_delay", float("inf")),
        ]:
            with pytest.raises(ValueError, match=field):
                RetryPolicy(**{field: value})


class TestRetryTaxonomy:
    def test_429_retried_until_success(self, scripted):
        server = scripted(
            [
                (429, {"Retry-After": "0"}, _envelope("queue_full", True)),
                (429, {"Retry-After": "0"}, _envelope("queue_full", True)),
                (200, {}, OK_SOLVE),
            ]
        )
        sleeps = []
        status, raw = _client(server.url, sleeps=sleeps)._request(
            "POST", "/v1/solve", b"{}"
        )
        assert status == 200
        assert json.loads(raw)["ok"] is True
        assert server.hits == 3
        assert len(sleeps) == 2

    def test_503_and_retryable_envelopes_retried(self, scripted):
        server = scripted(
            [
                (503, {}, _envelope("draining", True)),
                (504, {}, _envelope("deadline_exceeded", True)),
                (500, {}, _envelope("worker_crashed", True)),
                (200, {}, OK_SOLVE),
            ]
        )
        status, _raw = _client(server.url)._request("POST", "/v1/solve", b"{}")
        assert status == 200
        assert server.hits == 4

    def test_gives_up_after_retry_cap(self, scripted):
        server = scripted([(429, {"Retry-After": "0"}, _envelope("queue_full", True))])
        sleeps = []
        with pytest.raises(RetriesExhaustedError) as excinfo:
            _client(server.url, max_attempts=3, sleeps=sleeps)._request(
                "POST", "/v1/solve", b"{}"
            )
        assert excinfo.value.attempts == 3
        assert server.hits == 3  # exactly the cap, then stop
        assert len(sleeps) == 2  # no sleep after the final failure
        assert isinstance(excinfo.value.last, ServerReplyError)
        assert excinfo.value.last.status == 429

    def test_deterministic_errors_never_retried(self, scripted):
        for status, code in [
            (400, "invalid_request"),
            (404, "not_found"),
            (413, "body_too_large"),
            (500, "solve_failed"),
        ]:
            server = scripted([(status, {}, _envelope(code, False))])
            sleeps = []
            with pytest.raises(ServerReplyError) as excinfo:
                _client(server.url, sleeps=sleeps)._request(
                    "POST", "/v1/solve", b"{}"
                )
            assert excinfo.value.status == status
            assert excinfo.value.error["code"] == code
            assert server.hits == 1  # one attempt, no retries
            assert sleeps == []

    def test_connection_refused_retried_then_exhausted(self):
        # grab a port that nothing listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sleeps = []
        client = _client(f"http://127.0.0.1:{port}", max_attempts=3, sleeps=sleeps)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            client._request("GET", "/healthz")
        assert excinfo.value.attempts == 3
        assert len(sleeps) == 2
        assert isinstance(excinfo.value.last, ClientError)

    def test_garbage_error_body_tolerated(self, scripted):
        server = scripted([(400, {}, {"weird": "shape"})])
        with pytest.raises(ServerReplyError) as excinfo:
            _client(server.url)._request("POST", "/v1/solve", b"{}")
        assert excinfo.value.error["code"] == "unknown"
