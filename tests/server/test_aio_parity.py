"""The wire contract of the one HTTP front end, per role, over raw sockets.

Both roles -- a local :class:`SwapServer` and a :class:`RouterServer`
over one in-process replica -- run one request pipeline, so parity
between them holds by construction. This suite drives *raw sockets*
(no client-library smoothing) and pins the exact bytes every role must
send: status, body, ``Content-Type`` and ``Retry-After`` for the happy
paths (rendered by a fresh in-process service), the error taxonomy,
load shedding, ``HEAD`` and ``Allow`` (RFC 9110), and the framing rules
for malformed, oversized, unfinished and unread exchanges (RFC 9112).
The ``Server`` header is asserted nowhere.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.request
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.logging import JsonLinesLogger, set_logger
from repro.server import RouterServer, ServerConfig, aio
from repro.server.wire import (
    DeadlineExceededError,
    ResultReply,
    SweepReply,
    body_too_large_error,
    chunked_body_error,
    deadline_message,
    envelope_bytes,
    header_too_large_error,
    malformed_head_error,
    malformed_length_error,
    method_not_allowed_error,
    missing_length_error,
    not_found_error,
    queue_full_error,
)
from repro.service.api import SwapService
from repro.service.errors import ServiceErrorInfo
from repro.service.jsonl import render_records, serve_lines
from repro.service.requests import parse_request
from tests.server.conftest import GatedService, make_server  # noqa: F401

CONFIG = dict(
    queue_depth=8,
    max_body_bytes=4096,
    deadline=30.0,
    workers=1,
)
ROLES = ("local", "router")


def parse_head(head: bytes) -> Tuple[int, Dict[str, str]]:
    """A response head (without its blank line); ``(status, headers)``."""
    lines = head.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _s, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split(" ", 2)[1]), headers


def exchange(
    port: int, raw: bytes, timeout: float = 30.0
) -> Tuple[int, Dict[str, str], bytes]:
    """One raw HTTP exchange; ``(status, headers, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                raise AssertionError(f"connection closed before headers: {data!r}")
            data += chunk
        head, _sep, body = data.partition(b"\r\n\r\n")
        status, headers = parse_head(head)
        want = int(headers.get("content-length", "0"))
        while len(body) < want:
            chunk = sock.recv(65536)
            if not chunk:
                break
            body += chunk
        return status, headers, body


def read_to_close(port: int, raw: bytes, timeout: float) -> Tuple[bytes, float]:
    """Send ``raw``, read until the server closes; ``(bytes, seconds)``.

    A server that holds the socket past ``timeout`` fails the test.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        started = time.monotonic()
        data = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                raise AssertionError(f"socket still open after {timeout}s: {data!r}")
            if not chunk:
                return data, time.monotonic() - started
            data += chunk


def request_bytes(
    method: str,
    target: str,
    body: Optional[bytes] = None,
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: parity"]
    sent = dict(headers or {})
    if body is not None and "Content-Length" not in sent:
        sent["Content-Length"] = str(len(body))
    if body is not None:
        sent.setdefault("Content-Type", "application/json")
    lines += [f"{name}: {value}" for name, value in sent.items()]
    lines += ["Connection: close", ""]
    return "\r\n".join(lines).encode("latin-1") + b"\r\n" + (body or b"")


def rendered(payload: object) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def envelope(info: ServiceErrorInfo) -> bytes:
    return envelope_bytes(info)[1]


def start_role(
    role: str, make_server, service=None, **config
) -> Tuple[int, Optional[RouterServer]]:
    """A fresh server of ``role``: ``(port, router or None)``."""
    server = make_server(service=service, **config)
    if role == "local":
        return server.port, None
    router = RouterServer(
        ServerConfig(port=0, **config), endpoints=[(server.host, server.port)]
    ).start()
    return router.port, router


@pytest.fixture()
def roles(make_server):
    """``{role: port}`` for both roles: identical configs, fresh states."""
    ports, routers = {}, []
    for role in ROLES:
        ports[role], router = start_role(role, make_server, **CONFIG)
        routers.append(router)
    yield ports
    for router in routers:
        if router is not None:
            router.shutdown(drain=False)


@pytest.fixture(params=ROLES)
def role_port(request, make_server):
    """The port of one fresh server per role."""
    port, router = start_role(request.param, make_server, **CONFIG)
    yield port
    if router is not None:
        router.shutdown(drain=False)


def assert_reply(
    ports: Dict[str, int],
    raw: bytes,
    status: int,
    body: bytes,
    content_type: str = "application/json",
    retry_after: Optional[str] = None,
    allow: Optional[str] = None,
) -> None:
    """Send ``raw`` to every role; each must answer exactly this."""
    for role, port in ports.items():
        got = exchange(port, raw)
        assert (got[0], got[2]) == (status, body), role
        assert got[1].get("content-type") == content_type, role
        assert got[1].get("retry-after") == retry_after, role
        assert got[1].get("allow") == allow, role


SOLVE = json.dumps({"pstar": 2.0, "collateral": 0.0}).encode()


class TestHappyPathParity:
    def test_solve_cold_then_cached(self, roles):
        reference = SwapService(max_workers=1)
        request = parse_request({"kind": "solve", "pstar": 2.0, "collateral": 0.0})
        raw = request_bytes("POST", "/v1/solve", SOLVE)
        for cached in (False, True):
            item = reference.run_batch([request])[0]
            assert item.cached is cached
            expected = rendered(ResultReply.from_item("solve", item).to_dict())
            assert_reply(roles, raw, 200, expected)

    def test_validate(self, roles):
        data = {"pstar": 2.0, "n_paths": 500, "seed": 11}
        item = SwapService(max_workers=1).run_batch(
            [parse_request({"kind": "validate", **data})]
        )[0]
        raw = request_bytes("POST", "/v1/validate", json.dumps(data).encode())
        expected = rendered(ResultReply.from_item("validate", item).to_dict())
        assert_reply(roles, raw, 200, expected)

    def test_sweep(self, roles):
        pstars = [1.5, 2.0, 2.5]
        items = SwapService(max_workers=1).sweep(pstars, collateral=0.0)
        raw = request_bytes("GET", "/v1/sweep?pstars=1.5,2.0,2.5&collateral=0.0")
        expected = rendered(SweepReply.from_items(pstars, items).to_dict())
        assert_reply(roles, raw, 200, expected)

    def test_batch(self, roles):
        lines = b'{"pstar": 1.8}\n{"pstar": 2.2}\n'
        _ok, records = serve_lines(
            SwapService(max_workers=1), lines.decode().splitlines()
        )
        raw = request_bytes(
            "POST",
            "/v1/batch",
            lines,
            headers={"Content-Type": "application/x-ndjson"},
        )
        expected = render_records(records).encode("utf-8")
        assert len(expected.splitlines()) == 2
        assert_reply(roles, raw, 200, expected, "application/x-ndjson")

    def test_ops_healthz(self, roles):
        raw = request_bytes("GET", "/healthz")
        assert_reply(roles, raw, 200, b'{"ok":true,"status":"alive"}')


class TestErrorTaxonomyParity:
    def test_unknown_path_404(self, roles):
        raw = request_bytes("GET", "/nope")
        assert_reply(roles, raw, 404, envelope(not_found_error("/nope")))

    def test_wrong_method_405(self, roles):
        raw = request_bytes("GET", "/v1/solve")
        expected = envelope(method_not_allowed_error("GET", "/v1/solve"))
        assert_reply(roles, raw, 405, expected, allow="POST")
        raw = request_bytes("POST", "/v1/sweep", b"{}")
        expected = envelope(method_not_allowed_error("POST", "/v1/sweep"))
        assert_reply(roles, raw, 405, expected, allow="GET, HEAD")
        raw = request_bytes("POST", "/healthz", b"{}")
        expected = envelope(method_not_allowed_error("POST", "/healthz"))
        assert_reply(roles, raw, 405, expected, allow="GET, HEAD")

    def test_unparseable_json_400(self, roles):
        raw = request_bytes("POST", "/v1/solve", b"not json")
        expected = envelope(
            ServiceErrorInfo(
                code="parse_error",
                message="Expecting value: line 1 column 1 (char 0)",
            )
        )
        assert_reply(roles, raw, 400, expected)

    def test_invalid_request_400(self, roles):
        raw = request_bytes(
            "POST", "/v1/solve", json.dumps({"pstar": -3.0}).encode()
        )
        expected = envelope(
            ServiceErrorInfo(
                code="invalid_request",
                message="pstar must be finite and > 0, got -3.0",
            )
        )
        assert_reply(roles, raw, 400, expected)

    def test_missing_content_length_411(self, roles):
        raw = (
            b"POST /v1/solve HTTP/1.1\r\nHost: parity\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n\r\n"
        )
        assert_reply(roles, raw, 411, envelope(missing_length_error()))

    def test_chunked_body_411(self, roles):
        raw = (
            b"POST /v1/solve HTTP/1.1\r\nHost: parity\r\n"
            b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
            b"0\r\n\r\n"
        )
        assert_reply(roles, raw, 411, envelope(chunked_body_error()))

    def test_malformed_content_length_411(self, roles):
        raw = (
            b"POST /v1/solve HTTP/1.1\r\nHost: parity\r\n"
            b"Content-Length: banana\r\nConnection: close\r\n\r\n"
        )
        assert_reply(roles, raw, 411, envelope(malformed_length_error("banana")))

    def test_body_too_large_413(self, roles):
        limit = CONFIG["max_body_bytes"]
        raw = request_bytes("POST", "/v1/solve", b"x" * (limit + 1))
        expected = envelope(body_too_large_error(limit + 1, limit))
        assert_reply(roles, raw, 413, expected)

    def test_other_methods_get_the_typed_405(self, role_port):
        raw = request_bytes("PUT", "/v1/solve", SOLVE)
        status, headers, body = exchange(role_port, raw)
        assert status == 405
        assert headers["content-type"] == "application/json"
        assert headers["allow"] == "POST"
        assert body == envelope(method_not_allowed_error("PUT", "/v1/solve"))


class TestHead:
    """``HEAD`` is ``GET`` without the body (RFC 9110 §9.3.2), and the
    keep-alive connection stays in step for the next request."""

    NEXT = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"

    def head_then_next(
        self, port: int, target: str
    ) -> Tuple[int, Dict[str, str], bytes]:
        """``HEAD target``, then a GET on the same connection: the HEAD's
        status and headers, and every byte after its head."""
        raw = f"HEAD {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode() + self.NEXT
        data, _seconds = read_to_close(port, raw, timeout=30.0)
        head, _sep, rest = data.partition(b"\r\n\r\n")
        return (*parse_head(head), rest)

    @pytest.mark.parametrize(
        "target", ["/healthz", "/v1/sweep?pstars=1.5,2.0&collateral=0.0"]
    )
    def test_get_routes_answer_with_the_get_head_and_no_body(
        self, role_port, target
    ):
        exchange(role_port, request_bytes("GET", target))  # cache the sweep
        status, headers, body = exchange(role_port, request_bytes("GET", target))
        assert status == 200
        status, head_headers, rest = self.head_then_next(role_port, target)
        assert status == 200
        assert head_headers["content-length"] == str(len(body))
        assert head_headers["content-type"] == headers["content-type"]
        # no body: the next bytes on the wire are the next request's reply
        assert rest.startswith(b"HTTP/1.1 200 OK\r\n")
        assert rest.endswith(b'{"ok":true,"status":"alive"}')

    def test_post_route_is_405_with_allow_and_no_body(self, role_port):
        status, headers, rest = self.head_then_next(role_port, "/v1/solve")
        assert (status, headers["allow"]) == (405, "POST")
        assert rest.startswith(b"HTTP/1.1 200 OK\r\n")


def saturate(port: int, gate: GatedService, raw: bytes):
    """Hold one gated request in flight, then exchange ``raw``."""
    blocker = threading.Thread(
        target=lambda: urllib.request.urlopen(
            urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/solve",
                data=SOLVE,
                headers={"Content-Type": "application/json"},
            ),
            timeout=30,
        ),
        daemon=True,
    )
    blocker.start()
    assert gate.started.wait(timeout=10.0)
    try:
        return exchange(port, raw)
    finally:
        gate.release.set()
        blocker.join(timeout=30.0)


class TestLoadSheddingParity:
    def test_queue_full_429_bytes_match(self, make_server):
        """Saturate each role (depth 1, a gated in-flight request); the
        next request's 429 is the typed queue_full envelope."""
        config = dict(CONFIG, queue_depth=1)
        raw = request_bytes("POST", "/v1/solve", SOLVE)
        for role in ROLES:
            gate = GatedService()
            port, router = start_role(role, make_server, gate, **config)
            try:
                status, headers, body = saturate(port, gate, raw)
            finally:
                if router is not None:
                    router.shutdown(drain=False)
            assert (status, body) == (429, envelope(queue_full_error(1))), role
            assert headers.get("retry-after") == "1", role

    def test_deadline_504_bytes_match(self, make_server):
        config = dict(CONFIG, deadline=0.02)
        expected = envelope(
            ServiceErrorInfo.from_exception(
                DeadlineExceededError(deadline_message(0.02))
            )
        )
        raw = request_bytes("POST", "/v1/solve", SOLVE)
        for role in ROLES:
            gate = GatedService()
            port, router = start_role(role, make_server, gate, **config)
            try:
                # never release the gate: the request must deadline out
                status, _headers, body = exchange(port, raw)
            finally:
                gate.release.set()
                if router is not None:
                    router.shutdown(drain=False)
            assert (status, body) == (504, expected), role
            assert json.loads(body)["error"]["retryable"] is True


class TestFraming:
    """Malformed or unfinished requests: a typed 4xx, or a clean close
    at the read bound -- never a hang, a 5xx or a smuggled request."""

    def test_conflicting_content_length_is_400_then_close(self, role_port):
        raw = (
            b"POST /v1/solve HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 14\r\nContent-Length: 2\r\n\r\n" + SOLVE
        )
        data, _seconds = read_to_close(role_port, raw, timeout=10.0)
        expected = envelope(
            malformed_head_error("conflicting Content-Length headers")
        )
        # exactly one response: the 12 trailing body bytes never parse
        # as a second request
        assert data.count(b"HTTP/1.1 ") == 1
        assert data.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in data
        assert data.endswith(b"\r\n\r\n" + expected)

    def test_whitespace_before_colon_is_400(self, role_port):
        raw = (
            b"POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Length : 14\r\n\r\n"
            + SOLVE
        )
        data, _seconds = read_to_close(role_port, raw, timeout=10.0)
        expected = envelope(
            malformed_head_error("bad header line 'Content-Length : 14'")
        )
        assert data.startswith(b"HTTP/1.1 400 ")
        assert data.endswith(b"\r\n\r\n" + expected)

    def test_unparseable_request_line_is_400(self, role_port):
        data, _seconds = read_to_close(role_port, b"GARBAGE\r\n\r\n", timeout=10.0)
        expected = envelope(malformed_head_error("bad request line 'GARBAGE'"))
        assert data.startswith(b"HTTP/1.1 400 ")
        assert data.endswith(b"\r\n\r\n" + expected)

    def test_oversized_head_is_431(self, role_port):
        raw = b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"
        data, _seconds = read_to_close(role_port, raw, timeout=10.0)
        expected = envelope(header_too_large_error(65536))
        assert data.startswith(b"HTTP/1.1 431 ")
        assert data.endswith(b"\r\n\r\n" + expected)
        # a HEAD gets the same head and no body
        data, _seconds = read_to_close(role_port, b"HEAD" + raw[3:], timeout=10.0)
        head, _sep, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 431 ")
        assert f"Content-Length: {len(expected)}".encode() in head
        assert body == b""

    def test_unfinished_head_closes_at_the_read_bound(self, role_port, monkeypatch):
        monkeypatch.setattr(aio, "READ_TIMEOUT", 0.5)
        data, seconds = read_to_close(
            role_port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n", timeout=10.0
        )
        assert data == b""
        assert 0.4 <= seconds < 5.0

    def test_unfinished_body_closes_at_the_read_bound(self, role_port, monkeypatch):
        monkeypatch.setattr(aio, "READ_TIMEOUT", 0.5)
        raw = b"POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Length: 14\r\n\r\n{"
        data, seconds = read_to_close(role_port, raw, timeout=10.0)
        assert data == b""
        assert 0.4 <= seconds < 5.0

    def test_connection_close_closes_the_socket(self, role_port):
        raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        # the default 60 s read bound: only an honoured close ends early
        data, seconds = read_to_close(role_port, raw, timeout=10.0)
        assert data.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close\r\n" in data
        assert seconds < 5.0

    def test_a_client_that_stops_reading_is_closed_at_the_bound(
        self, role_port, monkeypatch
    ):
        monkeypatch.setattr(aio, "READ_TIMEOUT", 0.5)
        count = 4000  # ~18 MB of /metrics replies: more than socket buffers hold
        with socket.socket() as sock:
            # a small receive window makes the server's writes stall early
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(30.0)
            sock.connect(("127.0.0.1", role_port))
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" * count)
            time.sleep(3.0)  # read nothing for six bounds
            chunks = []
            try:
                while True:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
            except ConnectionResetError:
                pass
        # the server gave up on the connection instead of holding the
        # rest of the replies for as long as the client stays silent
        assert 0 < b"".join(chunks).count(b"HTTP/1.1 200 OK\r\n") < count

    def test_keep_alive_serves_requests_back_to_back(self, role_port):
        one = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        data, _seconds = read_to_close(
            role_port,
            one + one + b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            timeout=10.0,
        )
        assert data.count(b"HTTP/1.1 200 OK\r\n") == 3


class TestAccessLog:
    def test_http_access_names_the_peer(self, role_port):
        logger = JsonLinesLogger()
        previous = set_logger(logger)
        target = f"/healthz?probe={time.monotonic_ns()}"  # this request only
        try:
            exchange(role_port, request_bytes("GET", target))
            # the event is logged once the reply is written: wait for it
            deadline = time.monotonic() + 5.0
            while target not in logger.getvalue() and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            set_logger(previous)
        events = [json.loads(line) for line in logger.getvalue().splitlines()]
        access = [e for e in events if e.get("path") == target]
        assert [(e["event"], e["route"]) for e in access] == [
            ("http_access", "/healthz")
        ]
        assert access[0]["client"] == "127.0.0.1"


_NAME = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-",
    min_size=1,
    max_size=12,
)
_DEFECTS = (
    "no_version", "bad_version", "double_space", "control_in_target",
    "space_before_colon", "no_colon", "obs_fold", "conflicting_length",
    "unfinished_head", "unfinished_body",
)


@st.composite
def malformed_requests(draw) -> Tuple[bytes, bool]:
    """``(raw, unfinished)``: a request with exactly one framing defect,
    and whether that defect is a head or body that never completes."""
    method, target = draw(
        st.sampled_from(
            [
                ("GET", "/healthz"),
                ("GET", "/v1/sweep?pstars=2.0"),
                ("POST", "/v1/solve"),
                ("POST", "/v1/batch"),
                ("DELETE", "/nope"),
                ("HEAD", "/healthz"),
            ]
        )
    )
    body = SOLVE if method == "POST" else b""
    request_line = f"{method} {target} HTTP/1.1"
    headers = ["Host: fuzz", f"Content-Length: {len(body)}"]
    at = draw(st.integers(0, len(headers)))
    defect = draw(st.sampled_from(_DEFECTS))
    if defect == "no_version":
        request_line = f"{method} {target}"
    elif defect == "bad_version":
        version = draw(st.sampled_from(["HTTP/0.9", "HTTP/2.0", "HTTP/1.2", "http/1.1"]))
        request_line = f"{method} {target} {version}"
    elif defect == "double_space":
        request_line = f"{method}  {target} HTTP/1.1"
    elif defect == "control_in_target":
        control = draw(st.sampled_from(["\x00", "\x07", "\t", "\x1b", "\x7f"]))
        request_line = f"{method} {target}{control} HTTP/1.1"
    elif defect == "space_before_colon":
        space = draw(st.sampled_from([" ", "\t", "  "]))
        headers.insert(at, f"{draw(_NAME)}{space}: {draw(_NAME)}")
    elif defect == "no_colon":
        headers.insert(at, draw(_NAME))
    elif defect == "obs_fold":
        headers.insert(at, f" {draw(_NAME)}")
    elif defect == "conflicting_length":
        headers.append(f"Content-Length: {len(body) + draw(st.integers(1, 64))}")
    head = "\r\n".join([request_line, *headers]).encode("latin-1")
    if defect == "unfinished_head":
        return head + b"\r\n", True
    if defect == "unfinished_body":
        short = draw(st.integers(1, 64))
        return (
            b"POST /v1/solve HTTP/1.1\r\nHost: fuzz\r\n"
            + f"Content-Length: {len(SOLVE) + short}\r\n\r\n".encode()
            + SOLVE
        ), True
    return head + b"\r\n\r\n" + body, False


class TestMalformedHeadProperty:
    @settings(
        derandomize=True,
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=malformed_requests())
    def test_typed_4xx_or_clean_close_within_the_bound(
        self, role_port, monkeypatch, case
    ):
        raw, unfinished = case
        bound = 0.5
        monkeypatch.setattr(aio, "READ_TIMEOUT", bound)
        data, seconds = read_to_close(role_port, raw, timeout=bound + 5.0)
        assert seconds < bound + 2.0
        if unfinished:
            assert data == b""  # a clean close at the read bound
            return
        head, _sep, body = data.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        assert 400 <= status < 500, data
        assert b"\r\nConnection: close" in head
        if raw.startswith(b"HEAD "):
            assert body == b""  # not even a 400 carries a body to a HEAD
            return
        error = json.loads(body)["error"]
        assert json.loads(body)["ok"] is False
        assert error["retryable"] is False
        assert isinstance(error["code"], str) and error["message"]
