"""A retrying HTTP client for the serving layer (stdlib ``urllib``).

:class:`SwapClient` speaks the v1 wire format (:mod:`repro.server.wire`)
of either front-end role and embeds the retry discipline the server's error envelopes are
designed for: capped exponential backoff with **full jitter**
(``delay ~ U(0, min(cap, base * 2**attempt))``), honouring
``Retry-After``, retrying *only* what the server marks transient --

* HTTP ``429`` (queue full) and ``503`` (draining),
* any error envelope with ``retryable: true`` (pool timeouts, worker
  crashes, request deadlines),
* connection-level failures (refused/reset), which are
  indistinguishable from a restarting server.

Deterministic rejections (``400``, ``404``, ``413``, non-retryable
``500``) surface immediately as :class:`ServerReplyError`. When the
retry budget runs out, :class:`RetriesExhaustedError` carries the last
failure. ``sleep`` and ``rng`` are injectable so tests exercise the
full backoff schedule in microseconds.

Retries defend against *transient* trouble; an optional
:class:`~repro.server.circuit.CircuitBreaker` (``circuit=``) defends
against *sustained* trouble: once consecutive logical requests keep
exhausting their retry budget, the breaker opens and further calls
fail locally with :class:`CircuitOpenError` (retryable -- the breaker
half-opens after its reset timeout and probes the server back in).
A ``faults=`` injector adds deterministic client-side chaos
(``http_drop``/``http_slow``) for tests of exactly that machinery.

The client talks to one base URL and only retries. Against the sharded
tier (``serve --replicas N``) that URL is the router, which already
sends each request to its home shard by canonical key, with
per-replica breakers, ring-order fail-over and a hot-key cache.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote

from repro.faults.injector import build_injector
from repro.server.wire import ResultReply, SweepReply
from repro.service.serialize import decode_result

__all__ = [
    "ClientError",
    "ServerReplyError",
    "RetriesExhaustedError",
    "CircuitOpenError",
    "RetryPolicy",
    "SwapClient",
]


class ClientError(Exception):
    """Base class of every client-side failure."""


class ServerReplyError(ClientError):
    """The server answered with a non-retryable (or final) error."""

    def __init__(self, status: int, error: Dict[str, object]) -> None:
        code = error.get("code", "unknown")
        message = error.get("message", "")
        super().__init__(f"HTTP {status} {code}: {message}")
        self.status = status
        self.error = error
        self.retry_after: Optional[float] = None

    @property
    def retryable(self) -> bool:
        """Whether the server marked this failure safe to resubmit."""
        return self.status in (429, 503) or bool(self.error.get("retryable"))


class RetriesExhaustedError(ClientError):
    """Every attempt failed with a retryable error."""

    def __init__(self, attempts: int, last: Exception) -> None:
        super().__init__(f"gave up after {attempts} attempts: {last}")
        self.attempts = attempts
        self.last = last


class CircuitOpenError(ClientError):
    """The circuit breaker is open: refused locally, nothing was sent.

    Retryable in spirit -- the breaker half-opens after its reset
    timeout, so a later call may go through.
    """

    def __init__(self, state: str) -> None:
        super().__init__(
            f"circuit breaker is {state}; request refused without contacting "
            f"the server"
        )
        self.state = state


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter.

    ``max_attempts`` counts every try including the first; the delay
    before retry ``k`` (0-based) is drawn uniformly from
    ``[0, min(max_delay, base_delay * 2**k)]``, stretched to at least
    the server's ``Retry-After`` hint when one was given (still capped
    at ``max_delay``).
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be an int >= 1, got {self.max_attempts!r}"
            )
        for name in ("base_delay", "max_delay"):
            value = getattr(self, name)
            # NaN fails every comparison, so ``<= 0`` alone would let it
            # through to time.sleep, which raises in the middle of a retry
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    def delay(
        self,
        attempt: int,
        rng: random.Random,
        retry_after: Optional[float] = None,
    ) -> float:
        """The sleep before retry number ``attempt`` (0-based)."""
        cap = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        jittered = rng.uniform(0.0, cap)
        if retry_after is not None:
            jittered = max(jittered, min(retry_after, self.max_delay))
        return jittered


class SwapClient:
    """Typed access to a running server (either front-end role).

    Parameters
    ----------
    base_url:
        e.g. ``http://127.0.0.1:8100`` (trailing slash tolerated).
    timeout:
        Per-attempt socket timeout in seconds.
    retry:
        The :class:`RetryPolicy`; ``RetryPolicy(max_attempts=1)``
        disables retries entirely.
    sleep, rng:
        Injection points for tests (defaults: ``time.sleep`` and a
        process-seeded :class:`random.Random`).
    circuit:
        Optional :class:`~repro.server.circuit.CircuitBreaker`; when
        given, logical requests consult it before touching the network
        and report their outcome to it (``None``: no breaker, the
        pre-existing behaviour).
    faults:
        Optional chaos hook (plan path, plan, or injector); honours
        client-side ``http_drop`` and ``http_slow`` specs keyed by the
        URL path.
    admin_token:
        Bearer token for the router's ``/admin/v1/*`` control surface
        (:meth:`admin_topology` / :meth:`admin_add` /
        :meth:`admin_remove`).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        circuit=None,
        faults=None,
        admin_token: Optional[str] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retry = retry if retry is not None else RetryPolicy()
        self.circuit = circuit
        self.faults = build_injector(faults)
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self.admin_token = admin_token

    # ------------------------------------------------------------------ #
    # transport with retry
    # ------------------------------------------------------------------ #

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
        attempts: Optional[int] = None,
    ) -> Tuple[int, bytes]:
        """One logical request, retried per the policy; ``(status, body)``.

        With a circuit breaker attached, the whole logical request is
        one breaker event: refused locally while open, a success or a
        deterministic server reply closes it (the transport worked),
        and an exhausted retry budget or open-circuit refusal counts
        as one failure.
        """
        if self.circuit is None:
            return self._attempts(method, path, body, content_type, attempts)
        if not self.circuit.allow():
            raise CircuitOpenError(self.circuit.state)
        try:
            outcome = self._attempts(method, path, body, content_type, attempts)
        except ServerReplyError:
            # the server answered conclusively: transport is healthy
            self.circuit.record_success()
            raise
        except ClientError:
            self.circuit.record_failure()
            raise
        self.circuit.record_success()
        return outcome

    def _attempts(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        content_type: str,
        attempts: Optional[int],
    ) -> Tuple[int, bytes]:
        """The retry loop itself (circuit-unaware)."""
        budget = attempts if attempts is not None else self.retry.max_attempts
        last: Exception = ClientError("no attempt made")
        for attempt in range(budget):
            retry_after: Optional[float] = None
            try:
                return self._one_try(method, path, body, content_type)
            except ServerReplyError as reply:
                if not reply.retryable:
                    raise
                retry_after = reply.retry_after
                last = reply
            except ClientError as exc:
                last = exc
            if attempt + 1 < budget:
                self._sleep(self.retry.delay(attempt, self._rng, retry_after))
        raise RetriesExhaustedError(budget, last)

    def _one_try(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        content_type: str,
    ) -> Tuple[int, bytes]:
        """Exactly one HTTP exchange; ``(status, body)`` on success.

        Failures are normalised: any HTTP error raises
        :class:`ServerReplyError` (with ``retry_after`` attached), any
        transport failure raises a bare :class:`ClientError`.
        """
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method
        )
        if body is not None:
            request.add_header("Content-Type", content_type)
        if self.admin_token is not None and path.startswith("/admin/"):
            request.add_header("Authorization", f"Bearer {self.admin_token}")
        try:
            if self.faults.enabled:
                if self.faults.fires("http_drop", key=path):
                    raise urllib.error.URLError("injected connection drop")
                self.faults.sleep("http_slow", key=path)
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            reply = ServerReplyError(exc.code, _envelope_error(payload))
            reply.retry_after = _parse_retry_after(
                exc.headers.get("Retry-After")
            )
            raise reply from None
        except urllib.error.URLError as exc:
            # connection refused/reset/dropped: the server may be
            # restarting (or the injector is pretending it is)
            raise ClientError(f"connection failed: {exc.reason}") from None
        except (http.client.HTTPException, OSError) as exc:
            # a connection dropped mid-exchange escapes urllib
            # unwrapped (e.g. RemoteDisconnected): same treatment
            raise ClientError(
                f"connection failed: {exc.__class__.__name__}: {exc}"
            ) from None

    def _json(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        body = (
            json.dumps(payload, separators=(",", ":")).encode("utf-8")
            if payload is not None
            else None
        )
        _status, raw = self._request(method, path, body)
        return json.loads(raw.decode("utf-8"))

    # ------------------------------------------------------------------ #
    # API surface
    # ------------------------------------------------------------------ #

    def solve(
        self,
        pstar: float = 2.0,
        collateral: float = 0.0,
        params: Optional[dict] = None,
        law: Optional[str] = None,
    ):
        """``POST /v1/solve``; returns the decoded equilibrium object.

        ``law`` is the CLI shorthand (``"merton:jump_intensity=0.05"``)
        or a ``{"kind", "params"}`` dict; it is merged into ``params``
        (an explicit ``params["law"]`` wins).
        """
        payload: dict = {"kind": "solve", "pstar": pstar, "collateral": collateral}
        params = _merge_law(params, law)
        if params is not None:
            payload["params"] = params
        reply = ResultReply.from_dict(self._json("POST", "/v1/solve", payload))
        return decode_result(reply.result)

    def validate(
        self,
        pstar: float = 2.0,
        collateral: float = 0.0,
        n_paths: int = 20_000,
        seed: Optional[int] = None,
        params: Optional[dict] = None,
        law: Optional[str] = None,
    ):
        """``POST /v1/validate``; returns the decoded validation result.

        ``law`` follows the same shorthand-merge convention as
        :meth:`solve`.
        """
        payload: dict = {
            "kind": "validate",
            "pstar": pstar,
            "collateral": collateral,
            "n_paths": n_paths,
        }
        if seed is not None:
            payload["seed"] = seed
        params = _merge_law(params, law)
        if params is not None:
            payload["params"] = params
        reply = ResultReply.from_dict(
            self._json("POST", "/v1/validate", payload)
        )
        return decode_result(reply.result)

    def swap_graph(
        self,
        spec: dict,
        n_lattice: Optional[int] = None,
        replay: bool = False,
        replay_paths: int = 400,
        seed: Optional[int] = None,
    ):
        """``POST /v1/swap-graph``; returns the decoded
        :class:`~repro.swapgraph.result.SwapGraphResult`.

        ``spec`` is the :meth:`SwapGraphSpec.to_dict` form (build one
        with ``SwapGraphSpec.cycle(3).to_dict()`` or hand-written
        JSON); pass ``replay=True`` to also replay the equilibrium on
        simulated chains server-side.
        """
        payload: dict = {"kind": "swap_graph", "spec": spec}
        if n_lattice is not None:
            payload["n_lattice"] = n_lattice
        if replay:
            payload["replay"] = True
            payload["replay_paths"] = replay_paths
        if seed is not None:
            payload["seed"] = seed
        reply = ResultReply.from_dict(
            self._json("POST", "/v1/swap-graph", payload)
        )
        return decode_result(reply.result)

    def batch(self, requests: Sequence[dict]) -> List[dict]:
        """``POST /v1/batch``: JSONL in, one record dict per request out."""
        body = "".join(
            json.dumps(request, separators=(",", ":")) + "\n"
            for request in requests
        ).encode("utf-8")
        _status, raw = self._request(
            "POST", "/v1/batch", body, content_type="application/x-ndjson"
        )
        return [
            json.loads(line)
            for line in raw.decode("utf-8").splitlines()
            if line.strip()
        ]

    def sweep(
        self,
        pstars: Sequence[float],
        collateral: float = 0.0,
        tolerance: Optional[float] = None,
        law: Optional[str] = None,
    ) -> List[dict]:
        """``GET /v1/sweep``; one ``{pstar, success_rate, ...}`` per point.

        ``tolerance`` opts the sweep into the server's surface tier:
        points certified within it come back with ``source="surface"``
        and their ``bound``; ``tolerance=0.0`` demands exact answers.
        ``law`` sweeps under a non-default price law (CLI shorthand,
        e.g. ``"merton:jump_intensity=0.05"``).
        """
        query = ",".join(repr(float(p)) for p in pstars)
        url = f"/v1/sweep?pstars={query}&collateral={collateral!r}"
        if tolerance is not None:
            url += f"&tolerance={tolerance!r}"
        if law is not None:
            url += f"&law={quote(law, safe='')}"
        reply = SweepReply.from_dict(self._json("GET", url))
        # callers get plain dicts (the wire form); the round-trip through
        # the typed schema is the client-side conformance check
        return [point.to_dict() for point in reply.results]

    # ------------------------------------------------------------------ #
    # operational endpoints
    # ------------------------------------------------------------------ #

    def health(self) -> bool:
        """Liveness: True iff ``/healthz`` answers 200."""
        return self._probe("/healthz")

    def ready(self) -> bool:
        """Readiness: True iff ``/readyz`` answers 200 (False: draining)."""
        return self._probe("/readyz")

    def _probe(self, path: str) -> bool:
        # probes answer NOW, never retry: a draining server's 503 must
        # come back as an immediate False, not a slept-through backoff
        try:
            status, _body = self._request("GET", path, attempts=1)
        except ClientError:
            return False
        return status == 200

    def version(self) -> dict:
        """The server's ``/version`` document."""
        return self._json("GET", "/version")

    def server_info(self) -> dict:
        """What this replica is serving: package version, key-schema
        version, and the loaded surface artifact (version, axes,
        checksum) or ``None`` -- the ``/version`` document, shaped for
        operator tooling."""
        document = self.version()
        return {
            "server": document.get("server"),
            "version": document.get("version"),
            "key_version": document.get("key_version"),
            "surface": document.get("surface"),
            "laws": document.get("laws"),
        }

    def metrics(self) -> str:
        """The live Prometheus text exposition from ``/metrics``."""
        _status, raw = self._request("GET", "/metrics")
        return raw.decode("utf-8")

    # ------------------------------------------------------------------ #
    # the router's admin control surface (needs ``admin_token``)
    # ------------------------------------------------------------------ #

    def admin_topology(self) -> dict:
        """``GET /admin/v1/topology``: ring, replicas, admission state."""
        return self._json("GET", "/admin/v1/topology")

    def admin_add(
        self, url: Optional[str] = None, name: Optional[str] = None
    ) -> dict:
        """``POST /admin/v1/replicas`` (add): grow the fleet live.

        Without ``url`` the router spawns and supervises a fresh
        replica subprocess; with one it adopts an externally managed
        endpoint (routed to, never supervised).
        """
        payload: dict = {"action": "add"}
        if url is not None:
            payload["url"] = url
        if name is not None:
            payload["name"] = name
        return self._json("POST", "/admin/v1/replicas", payload)

    def admin_remove(self, name: str) -> dict:
        """``POST /admin/v1/replicas`` (remove): two-phase drain, then
        stop. The reply says whether in-flight work drained in time."""
        return self._json(
            "POST", "/admin/v1/replicas", {"action": "remove", "name": name}
        )


def _merge_law(params: Optional[dict], law: Optional[str]) -> Optional[dict]:
    """Fold a ``law`` shorthand into a wire params dict (explicit wins)."""
    if law is None:
        return params
    merged = dict(params) if params is not None else {}
    merged.setdefault("law", law)
    return merged


def _envelope_error(payload: bytes) -> Dict[str, object]:
    """The ``error`` object of an envelope body (tolerant of junk)."""
    try:
        data = json.loads(payload.decode("utf-8"))
        error = data.get("error")
        if isinstance(error, dict):
            return error
    except (UnicodeDecodeError, ValueError):
        pass
    return {"code": "unknown", "message": payload[:200].decode("utf-8", "replace")}


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None
