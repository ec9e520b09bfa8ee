"""Route behaviour over real sockets: payloads, envelopes, statuses."""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request

from repro.api import solve as solve_inprocess
from repro.service.api import SwapService
from repro.service.jsonl import serve_lines
from repro.service.keys import KEY_VERSION


def _post_raw(server, path, body: bytes, content_type="application/json"):
    """POST without the client's retries; (status, parsed-or-bytes)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}", data=body, method="POST"
    )
    request.add_header("Content-Type", content_type)
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class TestSolveValidate:
    def test_solve_matches_in_process(self, make_server, make_client, params):
        server = make_server()
        eq = make_client(server).solve(pstar=2.0)
        reference = solve_inprocess(params, 2.0)
        assert eq == reference
        assert eq.success_rate == reference.success_rate

    def test_validate_roundtrip_seeded(self, make_server, make_client):
        server = make_server()
        outcome = make_client(server).validate(pstar=2.0, n_paths=2000, seed=7)
        assert outcome.seed_used == 7
        assert 0.0 <= outcome.empirical.success_rate <= 1.0

    def test_solve_response_shape(self, make_server):
        server = make_server()
        status, raw = _post_raw(server, "/v1/solve", b'{"pstar": 2.0}')
        assert status == 200
        body = json.loads(raw)
        assert body["ok"] is True
        assert body["kind"] == "solve"
        assert body["key"].startswith(f"v{KEY_VERSION}-")
        assert body["result"]["kind"] == "swap_equilibrium"

    def test_no_nan_on_the_wire(self, make_server):
        # Eq. 18's threshold is 0/0 at r_a = 1000: a typed solve_failed
        # in strict JSON (RFC 8259 has no NaN), not a 200 holding NaN
        server = make_server()
        status, raw = _post_raw(
            server, "/v1/solve", b'{"pstar": 2.0, "params": {"r_a": 1000}}'
        )
        assert status == 500

        def no_constants(name):
            raise AssertionError(f"{name} is not JSON")

        body = json.loads(raw, parse_constant=no_constants)
        assert body["error"]["code"] == "solve_failed"

    def test_replies_refuse_non_finite_numbers(self):
        import math

        import pytest

        from repro.server.aio import _json_reply

        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                _json_reply({"p3_threshold": bad})

    def test_kind_mismatch_rejected(self, make_server):
        server = make_server()
        status, raw = _post_raw(
            server, "/v1/solve", b'{"kind": "validate", "pstar": 2.0}'
        )
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "invalid_request"

    def test_invalid_pstar_envelope(self, make_server):
        server = make_server()
        status, raw = _post_raw(server, "/v1/solve", b'{"pstar": -1.0}')
        body = json.loads(raw)
        assert status == 400
        assert body["ok"] is False
        assert body["error"]["code"] == "invalid_request"
        assert body["error"]["retryable"] is False

    def test_unparseable_body(self, make_server):
        server = make_server()
        status, raw = _post_raw(server, "/v1/solve", b"not json")
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "parse_error"


class TestBatch:
    LINES = [
        '{"kind": "solve", "pstar": 2.0}',
        '{"kind": "solve", "pstar": 2.0}',
        '{"kind": "solve", "pstar": -3.0}',
        "junk line",
    ]

    def test_matches_cli_wire_format(self, make_server):
        server = make_server()
        status, raw = _post_raw(
            server,
            "/v1/batch",
            "\n".join(self.LINES).encode("utf-8"),
            content_type="application/x-ndjson",
        )
        assert status == 200
        records = [json.loads(line) for line in raw.decode().splitlines()]
        _ok, reference = serve_lines(SwapService(), self.LINES)
        # identical record structure to the CLI path (cached flags and
        # floats included: both sides dedupe and serialise identically)
        assert [r["ok"] for r in records] == [r["ok"] for r in reference]
        assert records[0]["key"] == records[1]["key"]
        assert records[0]["result"] == records[1]["result"]
        assert records[2]["error"]["code"] == "invalid_request"
        assert records[3]["error"]["code"] == "parse_error"
        assert records[0]["result"] == reference[0]["result"]

    def test_client_batch_helper(self, make_server, make_client):
        server = make_server()
        records = make_client(server).batch(
            [{"kind": "solve", "pstar": 2.0}, {"kind": "solve", "pstar": 1.8}]
        )
        assert [r["ok"] for r in records] == [True, True]
        assert records[0]["result"]["success_rate"] != records[1]["result"][
            "success_rate"
        ]


class TestSweep:
    def test_sweep_matches_service(self, make_server, make_client, params):
        server = make_server()
        points = make_client(server).sweep([1.8, 2.0, 2.2])
        reference = SwapService().sweep([1.8, 2.0, 2.2], params=params)
        assert [p["success_rate"] for p in points] == [
            item.unwrap().success_rate for item in reference
        ]

    def test_missing_pstars_rejected(self, make_server):
        server = make_server()
        try:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/v1/sweep", timeout=10.0
            )
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            assert json.loads(exc.read())["error"]["code"] == "invalid_request"


class TestOperational:
    def test_health_ready_version(self, make_server, make_client):
        server = make_server()
        client = make_client(server)
        assert client.health() is True
        assert client.ready() is True
        version = client.version()
        assert version["key_version"] >= 1
        assert version["server"] == "repro-swaps"

    def test_metrics_exports_http_families(self, make_server, make_client):
        server = make_server()
        client = make_client(server)
        client.solve(pstar=2.0)
        text = client.metrics()
        assert (
            'repro_http_requests_total{method="POST",route="/v1/solve",status="200"}'
            in text
        )
        assert "repro_http_request_seconds_bucket" in text
        assert 'repro_http_rejected_total{reason="queue_full"}' in text

    def test_unknown_route_404(self, make_server):
        server = make_server()
        status, raw = _post_raw(server, "/v1/frobnicate", b"{}")
        assert status == 404
        assert json.loads(raw)["error"]["code"] == "not_found"

    def test_wrong_method_405(self, make_server):
        server = make_server()
        status, raw = _post_raw(server, "/healthz", b"{}")
        assert status == 405
        assert json.loads(raw)["error"]["code"] == "method_not_allowed"


class TestLimits:
    def test_oversized_body_413_without_reading(self, make_server):
        server = make_server(max_body_bytes=64)
        payload = b'{"pstar": 2.0, "pad": "' + b"x" * 4096 + b'"}'
        status, raw = _post_raw(server, "/v1/solve", payload)
        assert status == 413
        body = json.loads(raw)
        assert body["error"]["code"] == "body_too_large"
        assert body["error"]["retryable"] is False

    def test_missing_content_length_411(self, make_server):
        server = make_server()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            conn.putrequest("POST", "/v1/solve", skip_accept_encoding=True)
            conn.endheaders()  # no Content-Length on purpose
            response = conn.getresponse()
            assert response.status == 411
            assert json.loads(response.read())["error"]["code"] == (
                "length_required"
            )
        finally:
            conn.close()


class TestDeadline:
    def test_slow_request_504_retryable(self, make_server):
        from tests.server.conftest import GatedService

        service = GatedService()
        server = make_server(service=service, deadline=0.2)
        status, raw = _post_raw(server, "/v1/solve", b'{"pstar": 2.0}')
        body = json.loads(raw)
        assert status == 504
        assert body["error"]["code"] == "deadline_exceeded"
        assert body["error"]["retryable"] is True
        service.release.set()  # let the abandoned worker finish
