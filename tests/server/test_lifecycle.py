"""Lifecycle: admission shedding, graceful drain, signals, metrics flush."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.server.client import RetryPolicy, SwapClient
from tests.server.conftest import GatedService, request_in_thread

SOLVE_BODY = b'{"pstar": 2.0}'


def _post_no_retry(port, path, body=SOLVE_BODY):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body, method="POST"
    )
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


class TestAdmission:
    def test_queue_full_sheds_429_with_retry_after(self, make_server):
        service = GatedService()
        server = make_server(service=service, queue_depth=1, deadline=None)

        # saturate the single admission slot with a held request
        first = request_in_thread(
            lambda: _post_no_retry(server.port, "/v1/solve")
        )
        assert service.started.wait(timeout=10.0)

        # the burst beyond --queue-depth sheds immediately
        status, headers, raw = _post_no_retry(server.port, "/v1/solve")
        body = json.loads(raw)
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert body["error"]["code"] == "queue_full"
        assert body["error"]["retryable"] is True

        # ...while operational probes bypass the gate entirely
        client = SwapClient(f"http://127.0.0.1:{server.port}")
        assert client.ready() is True

        # the admitted request still completes correctly
        service.release.set()
        first.join(timeout=30.0)
        assert first.error is None
        status, _headers, raw = first.value
        assert status == 200
        assert json.loads(raw)["ok"] is True
        assert server.metrics.rejected.value(reason="queue_full") >= 1

    def test_burst_beyond_depth_serves_rest_correctly(self, make_server):
        """A concurrent burst > queue_depth: some shed, the rest correct."""
        server = make_server(queue_depth=2)
        threads = [
            request_in_thread(
                lambda: _post_no_retry(server.port, "/v1/solve")
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.join(timeout=30.0)
        assert all(thread.error is None for thread in threads)
        statuses = sorted(thread.value[0] for thread in threads)
        assert set(statuses) <= {200, 429}
        assert statuses.count(200) >= 1  # load was served, not refused flat
        for thread in threads:
            status, _headers, raw = thread.value
            body = json.loads(raw)
            if status == 200:
                assert body["result"]["kind"] == "swap_equilibrium"
            else:
                assert body["error"]["code"] == "queue_full"


class TestDrain:
    def test_inflight_request_completes_after_shutdown_begins(
        self, make_server
    ):
        service = GatedService()
        server = make_server(service=service, deadline=None, drain_timeout=10.0)

        inflight = request_in_thread(
            lambda: _post_no_retry(server.port, "/v1/solve")
        )
        assert service.started.wait(timeout=10.0)

        shutdown = request_in_thread(lambda: server.shutdown(drain=True))
        deadline = time.monotonic() + 5.0
        while not server.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.draining

        # release the held batch: the in-flight response must be delivered
        service.release.set()
        inflight.join(timeout=30.0)
        shutdown.join(timeout=30.0)
        assert inflight.error is None
        status, _headers, raw = inflight.value
        assert status == 200
        assert json.loads(raw)["ok"] is True
        assert shutdown.value is True  # drained cleanly

    def test_draining_server_answers_503(self, make_server):
        server = make_server()
        # flip the drain flag while the accept loop still runs: the
        # deterministic window for observing the 503 envelope
        server._draining.set()
        status, _headers, raw = _post_no_retry(server.port, "/v1/solve")
        body = json.loads(raw)
        assert status == 503
        assert body["error"]["code"] == "draining"
        assert body["error"]["retryable"] is True
        client = SwapClient(f"http://127.0.0.1:{server.port}")
        assert client.ready() is False
        assert client.health() is True  # alive, just not accepting work

    def test_drain_timeout_reports_stragglers(self, make_server):
        service = GatedService()
        server = make_server(service=service, deadline=None, drain_timeout=0.2)
        stuck = request_in_thread(
            lambda: _post_no_retry(server.port, "/v1/solve")
        )
        assert service.started.wait(timeout=10.0)
        assert server.shutdown(drain=True) is False  # straggler abandoned
        service.release.set()
        stuck.join(timeout=30.0)

    def test_shutdown_flushes_metrics(self, make_server, tmp_path):
        metrics_path = tmp_path / "final.prom"
        server = make_server(metrics_out=str(metrics_path))
        _post_no_retry(server.port, "/v1/solve")
        assert server.shutdown() is True
        text = metrics_path.read_text(encoding="utf-8")
        assert "repro_http_requests_total" in text
        assert 'route="/v1/solve"' in text

    def test_shutdown_idempotent(self, make_server):
        server = make_server()
        assert server.shutdown() is True
        assert server.shutdown() is True


class TestClientBackoffAgainstServer:
    def test_client_retries_queue_full_until_released(self, make_server):
        service = GatedService()
        server = make_server(service=service, queue_depth=1, deadline=None)
        held = request_in_thread(
            lambda: _post_no_retry(server.port, "/v1/solve")
        )
        assert service.started.wait(timeout=10.0)

        sleeps = []

        def _sleep(seconds: float) -> None:
            sleeps.append(seconds)
            if len(sleeps) == 2:  # free the slot mid-backoff
                service.release.set()
            time.sleep(0.05)

        client = SwapClient(
            f"http://127.0.0.1:{server.port}",
            retry=RetryPolicy(max_attempts=8, base_delay=0.01, max_delay=0.05),
            sleep=_sleep,
        )
        eq = client.solve(pstar=1.9)
        assert eq.success_rate > 0.0
        assert len(sleeps) >= 1  # saw at least one 429 before succeeding
        held.join(timeout=30.0)


@pytest.mark.slow
class TestSignals:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        metrics_path = tmp_path / "drain.prom"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--metrics-out",
                str(metrics_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            announcement = json.loads(process.stdout.readline())
            assert announcement["event"] == "listening"
            port = announcement["port"]

            client = SwapClient(f"http://127.0.0.1:{port}")
            deadline = time.monotonic() + 10.0
            while not client.ready() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert client.ready()
            assert client.solve(pstar=2.0).success_rate > 0.0

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
            assert "repro_http_requests_total" in metrics_path.read_text(
                encoding="utf-8"
            )
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)

    def test_abandoned_call_does_not_hold_the_exit(self, tmp_path):
        """A call hung past its deadline answers 504; the drained process
        then exits at once instead of waiting out the hung call."""
        plan = tmp_path / "hang.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 0,
                    "faults": [
                        {
                            "kind": "worker_hang",
                            "match": '"pstar":3.25',
                            "delay": 30.0,
                            "count": 1,
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--deadline", "0.5", "--fault-plan", str(plan),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            port = json.loads(process.stdout.readline())["port"]
            status, _headers, raw = _post_no_retry(
                port, "/v1/solve", b'{"pstar": 3.25}'
            )
            assert status == 504
            assert json.loads(raw)["error"]["code"] == "deadline_exceeded"
            process.send_signal(signal.SIGTERM)
            signalled = time.monotonic()
            assert process.wait(timeout=30.0) == 0
            assert time.monotonic() - signalled < 5.0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
