"""The local role: a :class:`SwapService` behind the HTTP front end.

A :class:`SwapServer` answers HTTP from one in-process
:class:`~repro.service.api.SwapService`, through the event-loop front
end of :mod:`repro.server.aio` -- the same parser, limits, drain,
admission, envelopes and metrics as the router. It is what
``repro-swaps serve`` runs without ``--replicas``, and what every
replica subprocess of the sharded tier runs. The surface:

========  =============  =================================================
method    path           behaviour
========  =============  =================================================
POST      ``/v1/solve``     one solve request (JSON body) -> one result
POST      ``/v1/validate``  one Monte Carlo validation -> one result
POST      ``/v1/swap-graph``  one multi-party / packetized swap-graph
                            solve (optional chain replay) -> one result
POST      ``/v1/batch``     JSONL in/out, the ``repro-swaps batch`` format
GET       ``/v1/sweep``     ``?pstars=1.8,2.0&collateral=0&tolerance=1e-3``
                            -> SR per point (``tolerance`` opts into
                            certified surface interpolation)
GET       ``/healthz``      liveness (200 while the process runs)
GET       ``/readyz``       readiness (503 while starting or draining);
                            reports the loaded surface artifact
GET       ``/version``      package + key-schema versions + surface info
GET       ``/metrics``      the live registry, Prometheus text format
========  =============  =================================================

The sweep verb delegates to :meth:`SwapService.sweep`, which routes
down the answer-source chain (:mod:`repro.service.sources`): points a
loaded surface artifact certifies within tolerance are interpolated in
microseconds (``repro_surface_*`` metrics), and remaining cache misses
are answered with one vectorised pass through the grid engine
(:mod:`repro.core.engine`) -- a 256-point curve over the wire costs at
most one array solve, and ``/metrics`` exposes it as the
``repro_grid_*`` family.

JSON bodies and sweep queries are parsed on the event loop, so a
``400`` never leaves it. Each service call then runs on a daemon
thread of its own, resolved into an asyncio future and timed against
the deadline (tightened by a router's forwarded ``X-Repro-Deadline``
budget); a call still running at its deadline is answered ``504`` and
abandoned -- the stdlib offers no safe preemption, so a deadline
protects the *caller's* latency budget, not the server's CPU. Daemon
threads, not a ``ThreadPoolExecutor``: an executor joins its workers
at interpreter exit, so one abandoned call would hold a drained
``serve`` process open until the call finished.

:func:`serve` runs either role until SIGTERM/SIGINT, then drains.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.parameters import SwapParameters
from repro.faults.injector import NULL_INJECTOR, build_injector
from repro.obs.logging import get_logger
from repro.server.aio import (
    RouterServer,
    _error_reply,
    _FrontEnd,
    _json_reply,
    _Reply,
    _Request,
    _WireError,
)
from repro.server.config import ServerConfig
from repro.server.wire import ResultReply, SweepReply
from repro.service.api import SwapService
from repro.service.errors import RequestValidationError, ServiceErrorInfo
from repro.service.jsonl import render_records, serve_lines
from repro.service.requests import parse_request
from repro.stochastic.law import parse_law

__all__ = ["SwapServer", "serve"]

# the single-result routes and the request kind each accepts
_RESULT_KINDS = {
    "/v1/solve": "solve",
    "/v1/validate": "validate",
    "/v1/swap-graph": "swap_graph",
}


class SwapServer(_FrontEnd):
    """A :class:`SwapService` behind HTTP, with lifecycle control.

    Parameters
    ----------
    config:
        The :class:`~repro.server.config.ServerConfig`; defaults bind
        ``127.0.0.1:8100`` with a serial service.
    service:
        Optional pre-built service (tests inject slow or failing ones);
        by default one is constructed from the config's cache/worker
        settings.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        service: Optional[SwapService] = None,
    ) -> None:
        config = config if config is not None else ServerConfig()
        if config.fault_plan is not None:
            faults = build_injector(config.fault_plan)
        else:
            faults = getattr(service, "faults", NULL_INJECTOR)
        super().__init__(config, faults)
        self.service = (
            service
            if service is not None
            else SwapService(
                max_workers=config.workers,
                cache_size=config.cache_size,
                cache_dir=config.cache_dir,
                cache_entries=config.cache_entries,
                timeout=config.timeout,
                faults=faults,
                surface=config.surface,
                tolerance=config.tolerance,
            )
        )

    def _surface(self) -> Optional[Dict[str, object]]:
        # lets operators verify *which* artifact this server answers
        # from (axes, checksum) straight off the probe
        return self.service.surface_info()

    def _backend(self, request: _Request) -> "asyncio.Future[_Reply]":
        return _on_daemon_thread(self._loop, self._work(request))

    def _work(self, request: _Request) -> Callable[[], _Reply]:
        """Parse ``request`` (a bad one raises); the call to run off the loop."""
        service = self.service
        if request.path == "/v1/sweep":
            pstars, options = _sweep_query(request.target)
            return lambda: _json_reply(
                SweepReply.from_items(pstars, service.sweep(pstars, **options)).to_dict()
            )
        if request.path == "/v1/batch":
            lines = _utf8(request.body).splitlines()
            # one record per line, in-band errors: always 200, like the CLI
            return lambda: _Reply(
                200,
                render_records(serve_lines(service, lines)[1]).encode("utf-8"),
                "application/x-ndjson",
            )
        kind = _RESULT_KINDS[request.path]
        parsed = parse_request(_json_object(request.body, kind))
        return lambda: _result_reply(kind, service.run_batch([parsed])[0])


def _on_daemon_thread(loop: asyncio.AbstractEventLoop, work: Callable[[], _Reply]):
    """Run ``work`` on a fresh daemon thread; a loop future of its result.

    Cancelling the future (a deadline) abandons the thread: it finishes
    on its own and its result is dropped.
    """
    future = loop.create_future()

    def settle(value, error) -> None:
        if future.done():  # abandoned at its deadline
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)

    def run() -> None:
        try:
            value, error = work(), None
        except Exception as exc:  # re-raised on the loop
            value, error = None, exc
        try:
            loop.call_soon_threadsafe(settle, value, error)
        except RuntimeError:  # the loop closed while the call ran
            pass

    threading.Thread(target=run, name="repro-http-call", daemon=True).start()
    return future


def _utf8(body: bytes) -> str:
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _WireError(ServiceErrorInfo(code="parse_error", message=str(exc))) from None


def _json_object(body: bytes, kind: str) -> dict:
    """The request object of a single-result route, ``kind`` filled in."""
    try:
        data = json.loads(_utf8(body))
    except json.JSONDecodeError as exc:
        raise _WireError(ServiceErrorInfo(code="parse_error", message=str(exc))) from None
    if not isinstance(data, dict):
        raise RequestValidationError(
            f"body must be a JSON object, got {type(data).__name__}"
        )
    data.setdefault("kind", kind)
    if data["kind"] != kind:
        raise RequestValidationError(
            f"this route only accepts kind={kind!r}, got {data['kind']!r}"
        )
    return data


def _sweep_query(target: str) -> Tuple[List[float], Dict[str, object]]:
    """``(pstars, sweep keyword arguments)`` from a ``/v1/sweep`` target."""
    query = parse_qs(urlsplit(target).query)
    raw = query.get("pstars", [""])[0]
    try:
        pstars = [float(part) for part in raw.split(",") if part.strip()]
        collateral = float(query.get("collateral", ["0"])[0])
        raw_tolerance = query.get("tolerance", [None])[0]
        tolerance = float(raw_tolerance) if raw_tolerance is not None else None
        raw_law = query.get("law", [None])[0]
        params = (
            SwapParameters.default().replace(law=parse_law(raw_law))
            if raw_law
            else None
        )
    except ValueError as exc:
        raise RequestValidationError(str(exc)) from None
    if not pstars:
        raise RequestValidationError(
            "query must give pstars=<comma-separated floats>"
        )
    return pstars, {"params": params, "collateral": collateral, "tolerance": tolerance}


def _result_reply(kind: str, item) -> _Reply:
    if not item.ok:
        return _error_reply(item.error)
    return _json_reply(ResultReply.from_item(kind, item).to_dict())


def serve(
    config: Optional[ServerConfig] = None,
    stop: Optional[threading.Event] = None,
    announce: Optional[Callable[[dict], None]] = None,
) -> int:
    """Run a server until SIGTERM/SIGINT (or ``stop``), then drain.

    The blocking entry point behind ``repro-swaps serve``: the local
    role, or with ``config.replicas > 0`` the proxy role over that many
    replica subprocesses. Signal handlers are installed only when
    running on the main thread (the stdlib forbids them elsewhere);
    ``stop`` is an optional extra trigger for embedders and tests.
    ``announce`` receives one ``{"event": "listening", "host", "port",
    "pid"}`` dict once bound, plus ``"replicas"`` for a router (default:
    printed to stdout as a JSON line, so callers can discover an
    ephemeral port). Returns 0 on a clean drain, 1 if in-flight
    requests had to be abandoned.
    """
    config = config if config is not None else ServerConfig()
    server = RouterServer(config) if config.replicas > 0 else SwapServer(config)
    stop = stop if stop is not None else threading.Event()
    previous: Dict[int, object] = {}
    try:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[sig] = signal.signal(sig, lambda _sig, _frame: stop.set())
            except ValueError:  # not the main thread
                pass
        server.start()
        where = {"host": server.host, "port": server.port, "pid": os.getpid()}
        if isinstance(server, RouterServer):
            where["replicas"] = len(server.ring)
        event = {"event": "listening", **where}
        if announce is not None:
            announce(event)
        else:
            print(json.dumps(event, separators=(",", ":")), flush=True)
        get_logger().log("http_listening", **where)
        stop.wait()
        return 0 if server.shutdown(drain=True) else 1
    finally:
        if isinstance(server, SwapServer):
            server.service.close()  # after the drain: no pooled job is owed
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)  # type: ignore[arg-type]
            except ValueError:
                pass
