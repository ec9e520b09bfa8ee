"""The event-loop HTTP front end: one request pipeline, two roles.

Every ``repro-swaps serve`` process answers HTTP through
:class:`_FrontEnd`: one asyncio event loop on a dedicated thread that
reads each HTTP/1.1 request non-blockingly and runs it through one
pipeline::

    read -> parse -> ops routes -> body limits -> drain -> admission
         -> backend -> envelope -> repro_http_* + http_access

Two roles plug into it, and differ only in the backend call, the
``/readyz`` and ``/version`` documents, and the proxy role's control
plane:

* the **local role** (:class:`~repro.server.app.SwapServer`) answers
  from an in-process :class:`~repro.service.api.SwapService`. It is
  what ``serve`` runs without ``--replicas``, and what every replica
  subprocess runs;
* the **proxy role** (:class:`RouterServer`) is ``serve --replicas N``::

                        +-> replica-0 (local role, own cache/surface)
    clients --> router -+-> replica-1
                        +-> ...

The pipeline enforces the production behaviours for both roles:

* **admission** -- at most ``queue_depth`` solve-units of API work run
  at once (:class:`~repro.server.overload.CostAwareGate`); excess load
  is shed immediately with ``429`` + ``Retry-After``, while the
  operational routes bypass the gate so probes never starve;
* **limits** -- bodies over ``max_body_bytes`` get ``413`` without
  being read; work still running at ``deadline`` seconds is answered
  ``504`` (the envelope is ``retryable``);
* **graceful drain** -- ``shutdown()`` (wired to SIGTERM/SIGINT by
  :func:`repro.server.app.serve`) stops accepting, answers new API
  requests ``503 draining``, waits up to ``drain_timeout`` for
  in-flight requests, then flushes metrics to ``metrics_out``;
* **observability** -- every response lands in ``repro_http_*``
  (:mod:`repro.server.metrics`) and emits one structured
  ``http_access`` event naming the peer.

Every rejection either role originates is built from the typed
constructors of :mod:`repro.server.wire`, so both roles answer with the
same bytes by construction. The pipeline's framing rules:

* a malformed head -- an unparseable request line, whitespace before a
  header colon (RFC 9112 §5.1), conflicting ``Content-Length`` values
  (§6.3) -- is answered ``400 invalid_request``, a head over 64 KiB
  ``431 header_too_large``, and the connection closes;
* every head and body read, and every reply write, is bounded by
  :data:`READ_TIMEOUT` (idle keep-alives included), so a client that
  stalls sending or stops reading cannot hold a socket;
* a request whose body was not read, or that asked for
  ``Connection: close``, is answered with ``Connection: close`` and the
  socket closes;
* ``HEAD`` is answered as ``GET`` without the body (RFC 9110 §9.3.2),
  its ``400`` and ``431`` refusals included, and every ``405`` names
  the route's methods in ``Allow`` (§15.5.6).

The proxy role does no solving. It derives each request's canonical
routing key (:func:`~repro.server.router.routing_key`) and proxies the
raw bytes to the replica owning that keyslice on a consistent-hash ring
(:class:`~repro.server.router.HashRing`). Identical requests therefore
always land on the same shard, so every shard's two-tier cache and
surface stay hot for *its* slice of the keyspace -- adding shards
multiplies cache capacity instead of diluting it. Replies are relayed
verbatim; replica connections are pooled and kept alive.

Failure handling is ring-order failover: a replica that refuses a
connection, breaks mid-proxy, or is declared dead by the
``replica_down`` fault kind gets its per-replica circuit breaker
(:class:`~repro.server.circuit.CircuitBreaker`) debited and the
request re-routed to the next distinct node on the ring -- the shard
that would inherit the keyslice anyway -- counted in
``repro_router_reroutes_total``. Only when every replica fails does
the client see ``503 no_replica`` (retryable).

With ``config.probe_interval`` set the router also probes each
replica's ``/readyz`` *actively* on that cadence: after
``config.probe_failures`` consecutive failures the replica is ejected
from the hash ring (its keyslice re-homes wholesale, so traffic stops
paying the breaker's discovery latency), and the next successful probe
readmits it. Every probe result lands in
``repro_router_probe_total{replica,outcome}`` with outcomes ``ok``,
``fail``, ``eject`` and ``readmit``. The passive breaker stays on
regardless -- probes catch replicas that die *between* requests,
breakers catch ones that fail *during* them.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
import traceback
from collections import OrderedDict
from hashlib import blake2b
from typing import Awaitable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar
from urllib.parse import urlsplit

from repro import __version__
from repro.faults.injector import NULL_INJECTOR, build_injector
from repro.obs.exporters import to_prometheus_text, write_metrics
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.server.circuit import CircuitBreaker
from repro.server.config import ServerConfig
from repro.server.metrics import HTTPMetrics, RouterMetrics, SupervisorMetrics
from repro.server.overload import CostAwareGate, route_weight
from repro.server.replica import ReplicaSet, ReplicaSupervisor
from repro.server.router import HashRing, routing_key
from repro.server.wire import (
    DeadlineExceededError,
    admin_unavailable_error,
    body_too_large_error,
    chunked_body_error,
    conflict_error,
    deadline_message,
    draining_error,
    envelope_bytes,
    header_too_large_error,
    malformed_head_error,
    malformed_length_error,
    method_not_allowed_error,
    missing_length_error,
    no_replica_error,
    not_found_error,
    queue_full_error,
    unauthorized_error,
)
from repro.service.errors import ServiceError, ServiceErrorInfo
from repro.service.keys import KEY_VERSION
from repro.stochastic.law import registered_laws
from repro.swapgraph.metrics import observe_graph_request

__all__ = ["READ_TIMEOUT", "RouterServer"]

READ_TIMEOUT = 60.0  # seconds allowed for one head/body read or reply write
_HEAD_LIMIT = 1 << 16  # request-head bytes before a 431
_T = TypeVar("_T")

_REASONS = {
    200: "OK", 400: "Bad Request", 403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 411: "Length Required",
    413: "Request Entity Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}
_SERVER_HEADER = f"Server: repro-swaps/{__version__}"
# the API routes and the one method each answers; ops routes are GETs
_API_METHODS = {
    "/v1/solve": "POST",
    "/v1/validate": "POST",
    "/v1/swap-graph": "POST",
    "/v1/batch": "POST",
    "/v1/sweep": "GET",
}
_OPS_PATHS = ("/healthz", "/readyz", "/version", "/metrics")
_KNOWN_PATHS = frozenset((*_API_METHODS, *_OPS_PATHS))
_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+\Z")  # RFC 9110 §5.6.2
_TARGET = re.compile(r"[!-~]+\Z")  # visible ASCII: no controls, no spaces

_MAX_IDLE_PER_REPLICA = 64
_DEADLINE_GRACE = 1.0  # let the replica's own 504 win the race
# idempotent routes the router-side response LRU may serve without
# proxying; /v1/batch is excluded (large bodies, in-band errors)
_CACHEABLE_PATHS = ("/v1/solve", "/v1/validate", "/v1/sweep", "/v1/swap-graph")
_SUPERVISE_TICK = 0.1  # how often the supervisor polls for dead replicas
_READMIT_PROBES = 50  # /readyz attempts (0.1s apart) before giving up


class _Reply(NamedTuple):
    """One response: status, body, content type and extra headers."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Optional[Dict[str, str]] = None


def _json_reply(payload: object) -> _Reply:
    return _Reply(200, json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def _error_reply(
    info: ServiceErrorInfo, headers: Optional[Dict[str, str]] = None
) -> _Reply:
    status, body = envelope_bytes(info)
    return _Reply(status, body, headers=headers)


def _not_allowed(method: str, path: str, allowed: str) -> _Reply:
    """The typed 405, naming the methods ``path`` answers in ``Allow``."""
    return _error_reply(
        method_not_allowed_error(method, path),
        {"Allow": "GET, HEAD" if allowed == "GET" else allowed},
    )


def _deadline_reply(seconds: float) -> _Reply:
    return _error_reply(
        ServiceErrorInfo.from_exception(
            DeadlineExceededError(deadline_message(seconds))
        )
    )


class _WireError(Exception):
    """A typed refusal raised mid-pipeline, answered with its envelope."""

    def __init__(self, info: ServiceErrorInfo) -> None:
        super().__init__(info.message)
        self.info = info


class _Request:
    """One request as it moves through the pipeline."""

    __slots__ = (
        "client", "started", "method", "head", "target", "path", "route",
        "headers", "keep_alive", "unread", "body", "budget", "token",
    )

    def __init__(self, client: str) -> None:
        self.client = client
        self.started = time.perf_counter()
        self.method = self.target = "-"
        self.head = False  # a HEAD: answered as GET, never with a body
        self.path = ""
        self.route = "unknown"
        self.headers: Dict[str, str] = {}
        self.keep_alive = False  # until a well-formed head says otherwise
        self.unread = False  # a declared body not yet consumed
        self.body = b""
        self.budget: Optional[float] = None  # forwarded X-Repro-Deadline
        self.token: Optional[Tuple[str, str, bytes]] = None  # router cache key

    def parse(self, head: bytes) -> None:
        """Fill in the request from its head; ``ValueError`` names the flaw.

        ``HEAD`` becomes ``GET`` here, so routing keys, the router cache
        and the proxy all see a GET; only the reply drops its body. The
        flag is set before any check, so not even a 400 carries a body.
        """
        request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        self.head = parts[0] == "HEAD"
        if (
            len(parts) != 3
            or not _TOKEN.match(parts[0])
            or not _TARGET.match(parts[1])
            or parts[2] not in ("HTTP/1.0", "HTTP/1.1")
        ):
            raise ValueError(f"bad request line {request_line[:80]!r}")
        headers: Dict[str, str] = {}
        for line in lines:
            name, colon, value = line.partition(":")
            if not colon or not _TOKEN.match(name) or "\n" in value or "\r" in value:
                raise ValueError(f"bad header line {line[:80]!r}")
            name, value = name.lower(), value.strip(" \t")
            if name == "content-length" and headers.get(name, value) != value:
                raise ValueError("conflicting Content-Length headers")
            headers[name] = value
        self.method, self.target, version = parts
        if self.head:
            self.method = "GET"
        self.path = self.target.split("?", 1)[0]
        self.route = self.path if self.path in _KNOWN_PATHS else "unknown"
        self.headers = headers
        options = headers.get("connection", "").lower().replace(" ", "").split(",")
        self.keep_alive = version == "HTTP/1.1" and "close" not in options
        self.unread = (
            "transfer-encoding" in headers
            or headers.get("content-length", "0") != "0"
        )


def _budget(raw: Optional[str]) -> Optional[float]:
    """The forwarded ``X-Repro-Deadline`` budget in seconds, if any."""
    try:
        return max(0.0, float(raw)) if raw is not None else None
    except ValueError:
        return None


class _FrontEnd:
    """The event loop, the parser, the pipeline and the lifecycle.

    Subclasses are the roles. They supply :meth:`_backend` (the answer
    to an admitted API request) and may extend :meth:`_surface`, the
    ``/readyz``/``/version`` documents, :meth:`_admin`,
    :meth:`_cached_reply`, :meth:`_background` and :meth:`_reject`.
    The loop runs on a dedicated thread; public methods are
    thread-safe.
    """

    _grace = 0.0  # seconds the backend may run past the deadline

    def __init__(self, config: ServerConfig, faults) -> None:
        self.config = config
        self.faults = faults
        self.metrics = HTTPMetrics()
        target = config.overload_target
        if target is None and config.deadline is not None:
            target = config.deadline / 2.0
        self.gate = CostAwareGate(config.queue_depth, target=target)
        self._draining = threading.Event()
        self._ready = threading.Event()
        self._closed = False
        self._failed: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped: Optional[asyncio.Future] = None
        self._thread: Optional[threading.Thread] = None
        self._tasks: set = set()  # connections and background work
        self._host: Optional[str] = None
        self._port: Optional[int] = None

    # -- state ---------------------------------------------------------- #

    @property
    def host(self) -> str:
        assert self._host is not None, "server not started"
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the OS's pick)."""
        assert self._port is not None, "server not started"
        return self._port

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def ready(self) -> bool:
        return self._ready.is_set() and not self.draining

    # -- lifecycle ------------------------------------------------------ #

    def start(self):
        """Bind and serve on the loop thread; returns once listening."""
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-http-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._port is None:
            self.shutdown(drain=False)
            raise RuntimeError(
                f"server failed to start: {self._failed}"
            ) from self._failed
        return self

    def _run_loop(self) -> None:
        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(self._serve())
        finally:
            self._ready.set()  # a failed start must not leave start() waiting
            self._loop.close()

    async def _serve(self) -> None:
        try:
            self._server = await asyncio.start_server(
                self._handle_client,
                host=self.config.host,
                port=self.config.port,
                limit=_HEAD_LIMIT,
            )
        except OSError as exc:
            self._failed = exc
            return
        self._host, self._port = self._server.sockets[0].getsockname()[:2]
        self._stopped = self._loop.create_future()
        self._ready.set()
        self._background()
        try:
            await self._stopped
        finally:
            self._server.close()
            tasks = list(self._tasks)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    def _spawn(self, coro) -> asyncio.Task:
        """A background task; the shutdown cancels it and collects it."""
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        return task

    def _on_loop(self, callback) -> None:
        if self._port is not None:
            try:
                self._loop.call_soon_threadsafe(callback)
            except RuntimeError:  # the loop already closed
                pass

    def shutdown(self, drain: bool = True) -> bool:
        """Stop accepting, drain in-flight requests, stop, flush metrics.

        Returns True iff every in-flight request finished within
        ``drain_timeout`` (False means stragglers were abandoned).
        Idempotent; safe to call from any thread.
        """
        if self._closed:
            return True
        self._closed = True
        self._draining.set()
        self._on_loop(lambda: self._server.close())
        drained = self.gate.wait_idle(
            self.config.drain_timeout if drain else 0.0
        )
        self._on_loop(
            lambda: self._stopped.done() or self._stopped.set_result(None)
        )
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.config.metrics_out is not None:
            write_metrics(self.config.metrics_out)
        self._ready.clear()
        get_logger().log(
            "http_drained", drained=drained, inflight=self.gate.inflight
        )
        return drained

    # -- role extension points ------------------------------------------ #

    def _backend(self, request: _Request) -> Awaitable[_Reply]:
        """The answer to an admitted API request."""
        raise NotImplementedError

    def _surface(self) -> Optional[Dict[str, object]]:
        return None

    def _readyz_document(self) -> Dict[str, object]:
        return {
            "ok": True,
            "status": "ready",
            "surface": self._surface(),
            "laws": registered_laws(),
        }

    def _version_document(self) -> Dict[str, object]:
        return {
            "ok": True,
            "server": "repro-swaps",
            "version": __version__,
            "key_version": KEY_VERSION,
            "surface": self._surface(),
            "laws": registered_laws(),
        }

    async def _admin(self, request: _Request, reader, writer) -> _Reply:
        return _error_reply(not_found_error(request.path))

    def _cached_reply(self, request: _Request) -> Optional[_Reply]:
        return None

    def _background(self) -> None:
        """Start the role's background tasks (on the loop, once bound)."""

    def _reject(self, reason: str) -> None:
        self.metrics.rejected.inc(reason=reason)

    # -- the pipeline --------------------------------------------------- #

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        peer = writer.get_extra_info("peername")
        client = str(peer[0]) if peer else "unknown"
        try:
            while await self._exchange(reader, writer, client):
                pass
        except (ConnectionError, asyncio.CancelledError):
            # cancelled by the shutdown: ending quietly matters, because
            # asyncio's stream protocol calls task.exception() on this
            # task, which raises (and logs) on a cancelled one in 3.11
            pass
        finally:
            self._tasks.discard(task)
            try:
                writer.close()
            except RuntimeError:
                # a hard shutdown can close the loop while this handler
                # is mid-await; the transport is gone either way
                pass

    async def _exchange(self, reader, writer, client: str) -> bool:
        """Serve one request; True keeps the connection open."""
        request = _Request(client)
        try:
            head = await self._bounded(reader.readuntil(b"\r\n\r\n"), writer)
        except asyncio.LimitOverrunError:
            # the head stays buffered; its first bytes name the method,
            # and the connection closes after the 431 anyway
            request.head = (await reader.read(5)) == b"HEAD "
            reply = _error_reply(header_too_large_error(_HEAD_LIMIT))
            return await self._send(writer, request, reply)
        except asyncio.IncompleteReadError:
            return False  # the peer left, or stalled past the read bound
        request.started = time.perf_counter()
        try:
            request.parse(head)
        except ValueError as exc:
            reply = _error_reply(malformed_head_error(str(exc)))
            return await self._send(writer, request, reply)
        try:
            return await self._route(request, reader, writer)
        except (asyncio.IncompleteReadError, ConnectionError):
            return False  # the body never arrived in full, or the peer left
        except _WireError as exc:
            reply = _error_reply(exc.info)
        except Exception as exc:  # a bug answers 500, never a silent close
            get_logger().log(
                "http_error", path=request.target, error=traceback.format_exc()
            )
            request.keep_alive = False
            reply = _error_reply(ServiceErrorInfo.from_exception(exc))
        return await self._send(writer, request, reply)

    async def _bounded(self, pending: Awaitable[_T], writer) -> _T:
        """Await one read or drain on ``writer``'s connection within
        :data:`READ_TIMEOUT`.

        A peer that stalls past the bound, sending or reading, is
        disconnected: that ends a read with ``IncompleteReadError`` and
        a drain at once, after which the next read fails the same way
        (a timer per await costs less than ``asyncio.wait_for``'s task).
        """
        timer = self._loop.call_later(READ_TIMEOUT, writer.transport.abort)
        try:
            return await pending
        finally:
            timer.cancel()

    async def _route(self, request: _Request, reader, writer) -> bool:
        method, path = request.method, request.path
        if method == "GET" and path in _OPS_PATHS:
            return await self._send(writer, request, self._ops(path))
        if path.startswith("/admin/"):
            reply = await self._admin(request, reader, writer)
            return await self._send(writer, request, reply)
        allowed = _API_METHODS.get(path)
        if allowed != method:
            reply = (
                _not_allowed(method, path, allowed or "GET")  # ops: GET only
                if path in _KNOWN_PATHS
                else _error_reply(not_found_error(path))
            )
            return await self._send(writer, request, reply)
        if method == "POST":
            await self._read_body(request, reader, writer)
        if self.draining:
            self._reject("draining")
            request.keep_alive = False
            return await self._send(writer, request, _error_reply(draining_error()))
        cached = self._cached_reply(request)
        if cached is not None:
            return await self._send(writer, request, cached)
        request.budget = _budget(request.headers.get("x-repro-deadline"))
        shed = self.gate.admit(path, request.target, request.budget)
        if shed is not None:
            return await self._send(writer, request, self._shed(shed, request))
        cost = route_weight(path, request.target)
        self.metrics.inflight.inc()
        admitted = time.perf_counter()
        try:
            reply = await self._call(request)
            if reply is None:
                return False
            return await self._send(writer, request, reply)
        finally:
            self.metrics.inflight.dec()
            self.gate.leave(cost)
            self.gate.observe(path, time.perf_counter() - admitted)

    def _ops(self, path: str) -> _Reply:
        """The operational routes: never gated, served while draining."""
        if path == "/healthz":
            return _json_reply({"ok": True, "status": "alive"})
        if path == "/version":
            return _json_reply(self._version_document())
        if path == "/metrics":
            text = to_prometheus_text(get_registry())
            return _Reply(
                200, text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8"
            )
        if self.draining:
            return _error_reply(
                ServiceErrorInfo(
                    code="draining", message="server is draining", retryable=True
                )
            )
        return _json_reply(self._readyz_document())

    async def _read_body(self, request: _Request, reader, writer) -> None:
        """Read the declared body into ``request.body``, within the limits."""
        headers = request.headers
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _WireError(chunked_body_error())
        raw = headers.get("content-length")
        if raw is None:
            raise _WireError(missing_length_error())
        if not (raw.isascii() and raw.isdigit()):
            raise _WireError(malformed_length_error(raw))
        length, limit = int(raw), self.config.max_body_bytes
        if length > limit:
            # refuse without reading; the unread body forces a close
            self._reject("body_too_large")
            raise _WireError(body_too_large_error(length, limit))
        if headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        request.body = await self._bounded(reader.readexactly(length), writer)
        request.unread = False

    def _shed(self, reason: str, request: _Request) -> _Reply:
        self._reject(reason)
        if reason == "deadline":
            # the budget is provably insufficient: refused in
            # microseconds instead of burning a worker and 504ing anyway
            deadline = self.config.deadline
            return _deadline_reply(
                deadline if deadline is not None else request.budget or 0.0
            )
        # overload shedding wears the queue_full envelope: both mean
        # "capacity, retry later"
        return _error_reply(
            queue_full_error(self.config.queue_depth), {"Retry-After": "1"}
        )

    async def _call(self, request: _Request) -> Optional[_Reply]:
        """Fault hooks, then the backend under the deadline.

        ``None`` means an injected ``http_drop``: close without a reply.
        """
        if self.faults.enabled:
            if self.faults.fires("http_drop", key=request.route):
                # injected transport failure: well-behaved clients see a
                # dropped connection and retry
                self._reject("fault_drop")
                return None
            delay = self.faults.delay_for("http_slow", key=request.route)
            if delay is not None:
                await asyncio.sleep(delay)
        deadline = self.config.deadline
        try:
            if deadline is None:
                return await self._backend(request)
            # a forwarded budget tightens the timer, never the envelope:
            # the 504 always quotes the configured deadline
            timer = deadline if request.budget is None else min(deadline, request.budget)
            try:
                return await asyncio.wait_for(
                    self._backend(request), timer + self._grace
                )
            except asyncio.TimeoutError:
                self._reject("deadline")
                return _deadline_reply(deadline)
        except _WireError as exc:
            return _error_reply(exc.info)
        except ServiceError as exc:
            return _error_reply(ServiceErrorInfo.from_exception(exc))

    async def _send(self, writer, request: _Request, reply: _Reply) -> bool:
        """Write ``reply`` and account for it; True keeps the connection.

        A ``HEAD`` gets the head a GET would, ``Content-Length``
        included, and no body.
        """
        keep_alive = request.keep_alive and not request.unread
        body = b"" if request.head else reply.body
        head = [
            f"HTTP/1.1 {reply.status} {_REASONS.get(reply.status, 'Unknown')}",
            _SERVER_HEADER,
            f"Content-Type: {reply.content_type}",
            f"Content-Length: {len(reply.body)}",
        ]
        head += [f"{name}: {value}" for name, value in (reply.headers or {}).items()]
        if not keep_alive:
            head.append("Connection: close")
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)
        await self._bounded(writer.drain(), writer)
        elapsed = time.perf_counter() - request.started
        # method labels stay bounded whatever verbs clients invent
        method = request.method if request.method in ("GET", "POST") else "other"
        self.metrics.observe(
            request.route, method, reply.status, elapsed, len(body)
        )
        get_logger().log(
            "http_access",
            method="HEAD" if request.head else request.method,
            route=request.route,
            path=request.target,
            status=reply.status,
            seconds=round(elapsed, 6),
            bytes=len(body),
            client=request.client,
        )
        return keep_alive


class _ReplicaLink:
    """The router's view of one shard: endpoint, breaker, idle conns."""

    def __init__(self, name: str, host: str, port: int, metrics: RouterMetrics) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.inflight = 0  # proxies currently on the wire to this shard
        self.breaker = CircuitBreaker(
            failure_threshold=3,
            reset_timeout=5.0,
            on_state=lambda value: metrics.replica_state.set(
                value, replica=name
            ),
        )
        self.idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def connection(self):
        """An idle pooled connection, or a fresh one."""
        while self.idle:
            reader, writer = self.idle.pop()
            if writer.is_closing():
                continue
            return reader, writer
        return await asyncio.open_connection(self.host, self.port)

    def release(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        reusable: bool,
    ) -> None:
        if reusable and len(self.idle) < _MAX_IDLE_PER_REPLICA:
            self.idle.append((reader, writer))
        else:
            writer.close()

    def close_all(self) -> None:
        while self.idle:
            _reader, writer = self.idle.pop()
            writer.close()


class RouterServer(_FrontEnd):
    """The proxy role: a consistent-hash router over replica processes.

    Parameters
    ----------
    config:
        The shared :class:`~repro.server.config.ServerConfig`;
        ``config.replicas`` sets the shard count when the router owns
        its replicas.
    endpoints:
        Optional pre-existing replica endpoints ``[(host, port), ...]``
        (tests route to in-process local-role servers). When given, no
        subprocesses are spawned and ``config.replicas`` is ignored.
    """

    _grace = _DEADLINE_GRACE

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        endpoints: Optional[Sequence[Tuple[str, int]]] = None,
    ) -> None:
        config = config if config is not None else ServerConfig(replicas=2)
        super().__init__(
            config,
            build_injector(config.fault_plan)
            if config.fault_plan is not None
            else NULL_INJECTOR,
        )
        self._replica_set: Optional[ReplicaSet] = None
        if endpoints is None:
            if self.config.replicas < 1:
                raise ValueError(
                    "RouterServer needs config.replicas >= 1 or explicit "
                    "endpoints"
                )
            self._replica_set = ReplicaSet(self.config, self.config.replicas)
            names = self._replica_set.names
            self._static_endpoints: Optional[List[Tuple[str, int]]] = None
        else:
            names = [f"replica-{i}" for i in range(len(endpoints))]
            self._static_endpoints = [
                (str(host), int(port)) for host, port in endpoints
            ]
            if not self._static_endpoints:
                raise ValueError("endpoints must be non-empty")
        self.router_metrics = RouterMetrics(names)
        self.supervisor_metrics = SupervisorMetrics(names)
        self.ring = HashRing(names)
        # request -> routing-key cache: canonicalising a body costs
        # ~25us (JSON parse + service key), a digest lookup ~1us; hot
        # keys repeat by design, so this wins exactly when it matters
        self._route_keys: Dict[Tuple[str, str, bytes], str] = {}
        # the hot-key response LRU (off unless config.router_cache > 0):
        # exact-key 200 replies served without a proxy hop, invalidated
        # wholesale on every topology epoch change
        self._cache_capacity = self.config.router_cache
        self._response_cache: "OrderedDict[Tuple[str, str, bytes], _Reply]" = (
            OrderedDict()
        )
        self._epoch = 1
        self._names = names
        self._links: Dict[str, _ReplicaLink] = {}
        self._ejected: Dict[str, float] = {}  # name -> eject time
        self._removing: set = set()  # admin removals mid-drain
        self._probe_tasks: Dict[str, asyncio.Task] = {}
        self._supervisor: Optional[ReplicaSupervisor] = None
        if self._replica_set is not None and self.config.supervise:
            self._supervisor = ReplicaSupervisor(
                self._replica_set,
                backoff=self.config.restart_backoff,
                cap=self.config.restart_backoff_cap,
                flap_limit=self.config.flap_limit,
                flap_window=self.config.flap_window,
                faults=self.faults,
            )

    # -- state ---------------------------------------------------------- #

    @property
    def epoch(self) -> int:
        """The topology version; bumps on every ring membership change."""
        return self._epoch

    @property
    def replica_urls(self) -> List[str]:
        """The shard base URLs, in replica order (the ``/readyz``
        discovery document's source of truth)."""
        return [
            f"http://{link.host}:{link.port}"
            for link in (self._links[name] for name in self._names)
        ]

    # -- lifecycle ------------------------------------------------------ #

    def start(self) -> "RouterServer":
        """Spawn replicas (if owned), bind, serve; returns once ready."""
        if self._replica_set is not None:
            endpoints = self._replica_set.start()
        else:
            endpoints = list(self._static_endpoints or [])
        for name, (host, port) in zip(self._names, endpoints):
            self._links[name] = _ReplicaLink(
                name, host, port, self.router_metrics
            )
        return super().start()

    async def _serve(self) -> None:
        try:
            await super()._serve()
        finally:
            for link in self._links.values():
                link.close_all()

    def _background(self) -> None:
        if self.config.probe_interval is not None:
            for name in list(self._names):
                self._start_probe(name)
        if self._supervisor is not None:
            self._spawn(self._supervise_loop())

    def shutdown(self, drain: bool = True) -> bool:
        """Stop accepting, drain in-flight proxies, stop the replicas.

        Returns True iff in-flight work finished within
        ``drain_timeout``. Idempotent, callable from any thread.
        """
        drained = super().shutdown(drain)
        if self._replica_set is not None:
            self._replica_set.stop(drain=drain)
        return drained

    # -- the pipeline's proxy-role extensions --------------------------- #

    def _reject(self, reason: str) -> None:
        super()._reject(reason)
        self.router_metrics.rejected.inc(reason=reason)

    def _readyz_document(self) -> Dict[str, object]:
        members = set(self.ring.nodes)
        return {
            **super()._readyz_document(),
            "epoch": self._epoch,
            "replicas": [
                {"name": name, "url": url}
                for name, url in zip(self._names, self.replica_urls)
                if name in members
            ],
        }

    def _version_document(self) -> Dict[str, object]:
        return {
            **super()._version_document(),
            "role": "router",
            "replicas": len(self._names),
        }

    def _cached_reply(self, request: _Request) -> Optional[_Reply]:
        request.token = (
            request.method,
            request.target,
            blake2b(request.body, digest_size=16).digest(),
        )
        if not (self._cache_capacity and request.path in _CACHEABLE_PATHS):
            return None
        hit = self._response_cache.get(request.token)
        if hit is None:
            self.router_metrics.cache_events.inc(event="miss")
            return None
        # exact-key hot path: answered from the router without admission
        # or a proxy hop (a hit costs microseconds)
        self._response_cache.move_to_end(request.token)
        self.router_metrics.cache_events.inc(event="hit")
        return hit

    async def _backend(self, request: _Request) -> _Reply:
        self.router_metrics.inflight.inc()
        try:
            reply = await self._route_and_proxy(request)
        finally:
            self.router_metrics.inflight.dec()
        if reply is None:
            self.router_metrics.rejected.inc(reason="no_replica")
            return _error_reply(no_replica_error(len(self._names)))
        if reply.status == 200:
            if request.path == "/v1/swap-graph":
                # the solve itself runs in a replica subprocess whose
                # registry this /metrics cannot see; count the proxied
                # request here so the family exports on the router too
                observe_graph_request("router")
            if self._cache_capacity and request.path in _CACHEABLE_PATHS:
                self._cache_store(request.token, reply)
        return reply

    # -- active health probes ------------------------------------------- #

    async def _probe_once(self, link: _ReplicaLink) -> bool:
        """One ``GET /readyz`` against one replica; True iff 200."""
        timeout = min(self.config.probe_interval or 2.0, 2.0)
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(link.host, link.port),
                timeout=timeout,
            )
        except (OSError, asyncio.TimeoutError):
            return False
        try:
            writer.write(
                f"GET /readyz HTTP/1.1\r\n"
                f"Host: {link.host}:{link.port}\r\n"
                f"Connection: close\r\n\r\n".encode("latin-1")
            )
            await self._bounded(writer.drain(), writer)
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=timeout
            )
            status = int(head.split(b"\r\n", 1)[0].split(b" ", 2)[1])
            return status == 200
        except (
            OSError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ValueError,
            IndexError,
        ):
            return False
        finally:
            writer.close()

    @staticmethod
    def _probe_phase(name: str) -> float:
        """This replica's fixed probe phase offset in [0, 1) intervals.

        Derived from the name, not drawn at random: restarts keep the
        same stagger, and N replicas spread over the whole interval
        instead of firing their probes in lockstep (the thundering
        herd would hit every accept queue at the same instant)."""
        digest = blake2b(name.encode("utf-8"), digest_size=4).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 32

    def _start_probe(self, name: str) -> None:
        if self.config.probe_interval is None or name in self._probe_tasks:
            return
        self._probe_tasks[name] = self._spawn(self._probe_replica(name))

    def _stop_probe(self, name: str) -> None:
        task = self._probe_tasks.pop(name, None)
        if task is not None:
            task.cancel()

    async def _probe_replica(self, name: str) -> None:
        """One replica's probe loop; ejects/readmits on the ring.

        Runs on the event loop, so ring mutation needs no locking --
        the routed proxy only reads the ring from the same loop.
        """
        interval = self.config.probe_interval
        threshold = self.config.probe_failures
        await asyncio.sleep(self._probe_phase(name) * interval)
        failures = 0
        while not self.draining:
            link = self._links.get(name)
            if link is None:
                return  # replica left the topology
            if name in self._removing:
                await asyncio.sleep(interval)
                continue
            ok = await self._probe_once(link)
            if ok:
                failures = 0
                self.router_metrics.probes.inc(replica=name, outcome="ok")
                restart_pending = (
                    self._supervisor is not None
                    and self._supervisor.pending(name)
                )
                if name in self._ejected and not restart_pending:
                    # supervisor-restarted replicas readmit through the
                    # supervisor's own /readyz gate, not the probe loop
                    self._readmit(name)
            else:
                failures += 1
                self.router_metrics.probes.inc(replica=name, outcome="fail")
                if failures >= threshold and name in self.ring.nodes:
                    self._eject(name, reason="probe")
            await asyncio.sleep(interval)

    # -- topology: epochs, eject/readmit, the response cache ------------- #

    def _bump_epoch(self, reason: str) -> None:
        """Advance the topology version (always on the event loop).

        Every ring membership change lands here: the epoch is published
        in ``/readyz`` and the admin topology document, and the response
        cache is invalidated wholesale -- a cached reply may belong to a
        keyslice that just re-homed.
        """
        self._epoch += 1
        self.router_metrics.epoch.set(self._epoch)
        self.router_metrics.replicas.set(len(self.ring))
        if self._response_cache:
            self.router_metrics.cache_events.inc(
                len(self._response_cache), event="invalidate"
            )
            self._response_cache.clear()
        self.router_metrics.cache_entries.set(0)
        get_logger().log(
            "router_epoch",
            epoch=self._epoch,
            reason=reason,
            ring=self.ring.nodes,
        )

    def _cache_store(self, token, reply: _Reply) -> None:
        cache = self._response_cache
        cache[token] = _Reply(reply.status, reply.body, reply.content_type)
        cache.move_to_end(token)
        while len(cache) > self._cache_capacity:
            cache.popitem(last=False)
            self.router_metrics.cache_events.inc(event="evict")
        self.router_metrics.cache_entries.set(len(cache))

    def _eject(self, name: str, reason: str) -> None:
        """Take a replica off the ring (its keyslice re-homes wholesale)."""
        if name not in self.ring.nodes:
            return
        self.ring.remove(name)
        self._ejected[name] = time.monotonic()
        self.router_metrics.probes.inc(replica=name, outcome="eject")
        self._bump_epoch(f"eject:{reason}")
        get_logger().log("router_eject", replica=name, reason=reason)

    def _readmit(self, name: str) -> None:
        """Put a healthy replica back on the ring."""
        if name in self.ring.nodes:
            return
        self.ring.add(name)
        self._ejected.pop(name, None)
        self.router_metrics.probes.inc(replica=name, outcome="readmit")
        self._bump_epoch("readmit")
        get_logger().log("router_readmit", replica=name)

    # -- the replica supervisor ------------------------------------------ #

    def _note_death(self, name: str) -> None:
        """Record one detected death with the supervisor's policy."""
        assert self._supervisor is not None
        delay = self._supervisor.note_failure(name)
        if delay is None:
            self.supervisor_metrics.parked.set(1, replica=name)
            self.supervisor_metrics.backoff.set(0, replica=name)
            get_logger().log("supervisor_parked", replica=name)
        else:
            self.supervisor_metrics.backoff.set(delay, replica=name)
            get_logger().log(
                "supervisor_backoff", replica=name, delay=round(delay, 4)
            )

    async def _supervise_loop(self) -> None:
        """Detect dead replicas, restart them, readmit after /readyz.

        Death is either process exit (``poll()``) or a probe ejection
        that outlives a full eject cycle (a live-but-wedged process the
        restart also heals, since respawn reaps the old subprocess).
        """
        assert self._supervisor is not None and self._replica_set is not None
        sup = self._supervisor
        probe_grace: Optional[float] = None
        if self.config.probe_interval is not None:
            probe_grace = (
                2.0 * self.config.probe_interval * self.config.probe_failures
            )
        while not self.draining:
            await asyncio.sleep(_SUPERVISE_TICK)
            for name in list(self._replica_set.names):
                if name in self._removing or sup.parked(name):
                    continue
                try:
                    process = self._replica_set.process(name)
                except KeyError:
                    continue
                dead = not process.alive
                stuck = (
                    probe_grace is not None
                    and name in self._ejected
                    and time.monotonic() - self._ejected[name] > probe_grace
                )
                if (dead or stuck) and not sup.pending(name):
                    self._eject(name, reason="death" if dead else "stuck")
                    self._note_death(name)
                    continue
                if sup.due(name):
                    await self._restart_replica(name)

    async def _restart_replica(self, name: str) -> None:
        """One supervised restart: respawn, handshake, /readyz, readmit."""
        assert self._supervisor is not None
        sup = self._supervisor
        try:
            host, port = await self._loop.run_in_executor(
                None, sup.restart, name
            )
        except (RuntimeError, KeyError) as exc:
            # the fresh process died before announcing: another death
            self.supervisor_metrics.failures.inc(replica=name)
            get_logger().log(
                "supervisor_restart_failed", replica=name, error=str(exc)
            )
            sup.note_restarted(name)
            self._note_death(name)
            return
        old = self._links.get(name)
        if old is not None:
            old.close_all()
        link = _ReplicaLink(name, host, port, self.router_metrics)
        self._links[name] = link
        ready = False
        for _attempt in range(_READMIT_PROBES):
            if await self._probe_once(link):
                ready = True
                break
            await asyncio.sleep(0.1)
        if not ready:
            # announced but never turned ready: treat as another death
            self.supervisor_metrics.failures.inc(replica=name)
            get_logger().log("supervisor_not_ready", replica=name)
            sup.note_restarted(name)
            self._note_death(name)
            return
        sup.note_restarted(name)
        self.supervisor_metrics.restarts.inc(replica=name)
        self.supervisor_metrics.backoff.set(0, replica=name)
        self._readmit(name)
        get_logger().log(
            "supervisor_restarted", replica=name, host=host, port=port
        )

    # -- the admin surface: live resharding ------------------------------ #

    async def _admin(self, request: _Request, reader, writer) -> _Reply:
        """Authenticated control-plane routes (``/admin/v1/*``).

        Never gated: resharding must work *because* the data plane is
        saturated, not only when it is idle. The body is read before
        any rejection so keep-alive framing survives a 403.
        """
        method, path = request.method, request.path
        if method == "POST":
            await self._read_body(request, reader, writer)
        token = self.config.admin_token
        if token is None:
            return _error_reply(
                unauthorized_error(
                    "admin surface disabled; start the router with "
                    "--admin-token"
                )
            )
        if request.headers.get("authorization", "") != f"Bearer {token}":
            return _error_reply(unauthorized_error("bad or missing bearer token"))
        if self.faults.enabled and self.faults.fires(
            "admin_partition", key=path
        ):
            return _error_reply(admin_unavailable_error())
        if path == "/admin/v1/topology" and method == "GET":
            return _json_reply(self._topology_document())
        if path == "/admin/v1/replicas" and method == "POST":
            try:
                data = json.loads(request.body.decode("utf-8"))
                if not isinstance(data, dict):
                    raise ValueError("body must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                return _error_reply(
                    ServiceErrorInfo(code="invalid_request", message=str(exc))
                )
            action = data.get("action")
            if action == "add":
                return await self._admin_add(data)
            if action == "remove":
                return await self._admin_remove(data)
            return _error_reply(
                ServiceErrorInfo(
                    code="invalid_request",
                    message=f"action must be 'add' or 'remove', got {action!r}",
                )
            )
        if path == "/admin/v1/topology":
            return _not_allowed(method, path, "GET")
        if path == "/admin/v1/replicas":
            return _not_allowed(method, path, "POST")
        return _error_reply(not_found_error(path))

    def _topology_document(self) -> dict:
        members = set(self.ring.nodes)
        replicas = []
        for name in self._names:
            link = self._links[name]
            entry: Dict[str, object] = {
                "name": name,
                "url": f"http://{link.host}:{link.port}",
                "on_ring": name in members,
                "draining": name in self._removing,
            }
            if self._replica_set is not None:
                try:
                    process = self._replica_set.process(name)
                except KeyError:
                    pass
                else:
                    entry["pid"] = process.pid
                    entry["alive"] = process.alive
            if self._supervisor is not None:
                entry["supervisor"] = self._supervisor.state(name)
            replicas.append(entry)
        return {
            "ok": True,
            "epoch": self._epoch,
            "ring": self.ring.nodes,
            "replicas": replicas,
            "admission": self.gate.snapshot(),
        }

    async def _admin_add(self, data: dict) -> _Reply:
        url = data.get("url")
        if url is not None:
            # externally managed replica (tests, exotic deployments):
            # the router routes to it but never supervises it
            parts = urlsplit(str(url))
            if parts.hostname is None or parts.port is None:
                return _error_reply(
                    ServiceErrorInfo(
                        code="invalid_request",
                        message=f"url must be http://host:port, got {url!r}",
                    )
                )
            name = data.get("name")
            if name is None:
                index = len(self._names)
                while f"replica-{index}" in self._links:
                    index += 1
                name = f"replica-{index}"
            name = str(name)
            if name in self._links:
                return _error_reply(
                    conflict_error(f"replica {name!r} already exists")
                )
            host, port = parts.hostname, int(parts.port)
        else:
            if self._replica_set is None:
                return _error_reply(
                    ServiceErrorInfo(
                        code="invalid_request",
                        message="router does not own its replicas; pass url",
                    )
                )
            try:
                name, host, port = await self._loop.run_in_executor(
                    None, self._replica_set.add_process
                )
            except (RuntimeError, ValueError) as exc:
                return _error_reply(
                    ServiceErrorInfo(
                        code="internal_error",
                        message=f"replica spawn failed: {exc}",
                    )
                )
        link = _ReplicaLink(name, host, port, self.router_metrics)
        self._links[name] = link
        self._names.append(name)
        self.router_metrics.add_replica(name)
        self.supervisor_metrics.add_replica(name)
        # the ring only grows once the newcomer itself answers /readyz
        ready = False
        for _attempt in range(_READMIT_PROBES):
            if await self._probe_once(link):
                ready = True
                break
            await asyncio.sleep(0.1)
        if not ready:
            self._links.pop(name, None)
            self._names.remove(name)
            if self._replica_set is not None and url is None:
                await self._loop.run_in_executor(
                    None, lambda: self._replica_set.remove_process(name, False)
                )
            return _error_reply(
                ServiceErrorInfo(
                    code="internal_error",
                    message=f"replica {name} never passed /readyz",
                )
            )
        self.ring.add(name)
        self._bump_epoch("admin_add")
        self._start_probe(name)
        get_logger().log(
            "admin_add", replica=name, url=f"http://{host}:{port}"
        )
        return _json_reply(
            {
                "ok": True,
                "name": name,
                "url": f"http://{host}:{port}",
                "epoch": self._epoch,
            }
        )

    async def _admin_remove(self, data: dict) -> _Reply:
        name = data.get("name")
        if not isinstance(name, str) or name not in self._links:
            return _error_reply(
                ServiceErrorInfo(
                    code="invalid_request",
                    message=f"unknown replica {name!r}",
                )
            )
        if name in self._removing:
            return _error_reply(
                conflict_error(f"replica {name!r} is already draining")
            )
        on_ring = name in self.ring.nodes
        if on_ring and len(self.ring) <= 1:
            return _error_reply(
                conflict_error("cannot remove the last replica on the ring")
            )
        self._removing.add(name)
        try:
            # phase one: stop routing new keys to the shard
            self._stop_probe(name)
            if on_ring:
                self.ring.remove(name)
                self._bump_epoch("admin_remove")
            if self._supervisor is not None:
                self._supervisor.forget(name)
            # phase two: wait out in-flight proxies on the pooled
            # connections, then SIGTERM (the replica drains internally)
            link = self._links[name]
            drain_deadline = time.monotonic() + self.config.drain_timeout
            while link.inflight > 0 and time.monotonic() < drain_deadline:
                await asyncio.sleep(0.02)
            drained = link.inflight == 0
            link.close_all()
            self._links.pop(name, None)
            self._names.remove(name)
            self._ejected.pop(name, None)
            exit_code: Optional[int] = None
            if (
                self._replica_set is not None
                and name in self._replica_set.names
            ):
                exit_code = await self._loop.run_in_executor(
                    None, lambda: self._replica_set.remove_process(name, True)
                )
            get_logger().log(
                "admin_remove",
                replica=name,
                drained=drained,
                exit_code=exit_code,
            )
            return _json_reply(
                {
                    "ok": True,
                    "name": name,
                    "drained": drained,
                    "epoch": self._epoch,
                }
            )
        finally:
            self._removing.discard(name)

    # -- the routed proxy ----------------------------------------------- #

    async def _route_and_proxy(self, request: _Request) -> Optional[_Reply]:
        """Proxy to the key's home shard, failing over in ring order.

        ``None`` means every replica refused -- the caller answers
        ``503 no_replica``.
        """
        key = self._route_keys.get(request.token)
        if key is None:
            key = routing_key(request.method, request.target, request.body)
            if len(self._route_keys) >= 4096:
                self._route_keys.clear()  # bounded; refills with hot keys
            self._route_keys[request.token] = key
        deadline = self.config.deadline
        for position, name in enumerate(self.ring.nodes_for(key)):
            link = self._links.get(name)
            if link is None:
                continue  # removed from the topology mid-walk
            if self.faults.enabled and self.faults.fires(
                "replica_down", key=name
            ):
                # the chaos plan declared this shard dead: heal by
                # re-routing to the next ring node, debiting the breaker
                # exactly as an observed connection failure would
                link.breaker.record_failure()
                self.router_metrics.reroutes.inc(reason="replica_down")
                continue
            if not link.breaker.allow():
                self.router_metrics.reroutes.inc(reason="circuit_open")
                continue
            # forward the remaining deadline budget: a replica seeing a
            # burnt budget rejects in microseconds instead of solving a
            # request the router will 504 anyway
            budget: Optional[float] = None
            if deadline is not None:
                budget = max(0.0, deadline - (time.perf_counter() - request.started))
            proxy_started = time.perf_counter()
            link.inflight += 1
            try:
                reply = await self._proxy_once(link, request, budget)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                link.breaker.record_failure()
                self.router_metrics.reroutes.inc(
                    reason="connect_failed" if position == 0 else "proxy_failed"
                )
                continue
            finally:
                link.inflight -= 1
            link.breaker.record_success()
            self.router_metrics.requests.inc(replica=name)
            self.router_metrics.proxy_seconds.observe(
                time.perf_counter() - proxy_started, replica=name
            )
            return reply
        return None

    async def _proxy_once(
        self,
        link: _ReplicaLink,
        request: _Request,
        budget: Optional[float] = None,
    ) -> _Reply:
        """One request over one (pooled) replica connection.

        Returns the reply exactly as the replica answered -- the body
        bytes are never touched; only ``Retry-After`` is relayed.
        """
        reader, writer = await link.connection()
        reusable = False
        try:
            request_lines = [
                f"{request.method} {request.target} HTTP/1.1",
                f"Host: {link.host}:{link.port}",
                f"Content-Length: {len(request.body)}",
                "Connection: keep-alive",
            ]
            if budget is not None:
                request_lines.append(f"X-Repro-Deadline: {budget:.6f}")
            content_type = request.headers.get("content-type")
            if content_type:
                request_lines.append(f"Content-Type: {content_type}")
            writer.write(
                "\r\n".join(request_lines).encode("latin-1")
                + b"\r\n\r\n"
                + request.body
            )
            await self._bounded(writer.drain(), writer)

            head = await reader.readuntil(b"\r\n\r\n")
            text = head.decode("latin-1")
            status_line, *header_lines = text.split("\r\n")
            status = int(status_line.split(" ", 2)[1])
            reply_headers: Dict[str, str] = {}
            for line in header_lines:
                if not line:
                    continue
                name, _sep, value = line.partition(":")
                reply_headers[name.strip().lower()] = value.strip()
            length = int(reply_headers.get("content-length", "0"))
            payload = await reader.readexactly(length) if length else b""
            reusable = (
                reply_headers.get("connection", "").lower() != "close"
            )
            relay: Dict[str, str] = {}
            if "retry-after" in reply_headers:
                relay["Retry-After"] = reply_headers["retry-after"]
            return _Reply(
                status,
                payload,
                reply_headers.get("content-type", "application/json"),
                relay,
            )
        finally:
            link.release(reader, writer, reusable)
