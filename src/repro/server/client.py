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

The client is also **replica-set aware** for the sharded tier
(``serve --replicas N``): give it a static ``replicas=[url, ...]``
list, or point ``base_url`` at the router and pass ``discover=True``
to read the replica topology from the router's ``/readyz`` document.
In replicated mode each replica gets its *own* circuit breaker, retries
rotate across healthy replicas (fail-over is the retry), and an
optional :class:`HedgePolicy` launches a second attempt against a
different replica once the first has been in flight longer than the
client's own observed p95 latency -- the classic tail-tolerance
trade: a few percent duplicate work for a collapsed p99. Ops probes
(``/healthz``, ``/readyz``, ``/metrics``, ``/version``) always go to
``base_url`` itself (the router), never to a replica.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import wait as _futures_wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote

from repro.faults.injector import build_injector
from repro.server.circuit import CircuitBreaker
from repro.server.wire import ResultReply, SweepReply
from repro.service.serialize import decode_result

__all__ = [
    "ClientError",
    "ServerReplyError",
    "RetriesExhaustedError",
    "CircuitOpenError",
    "RetryPolicy",
    "HedgePolicy",
    "SwapClient",
]

# the idempotent single-shot routes a hedge may duplicate safely;
# /v1/batch is excluded (duplicating a whole batch doubles real work)
# and /v1/swap-graph too: a lattice solve can run whole seconds of CPU,
# so duplicating it burns a replica core for no tail-latency win
_HEDGEABLE_PATHS = ("/v1/solve", "/v1/validate", "/v1/sweep")


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
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay <= 0 or self.max_delay <= 0:
            raise ValueError("delays must be > 0")

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


@dataclass(frozen=True)
class HedgePolicy:
    """When and how to hedge a slow request onto a second replica.

    The hedge fires once the primary attempt has been in flight longer
    than the client's own observed ``quantile`` latency (times
    ``multiplier``), measured over a sliding window of recent
    successful requests -- the delay *adapts* to whatever the serving
    stack currently delivers instead of hard-coding a guess. Until
    ``warmup`` samples exist the fixed ``initial_delay`` is used.
    Whichever arm answers first wins (``repro_hedge_wins_total``); the
    loser finishes in the background and still feeds its replica's
    breaker.
    """

    quantile: float = 0.95
    multiplier: float = 1.0
    initial_delay: float = 0.05
    min_delay: float = 0.001
    max_delay: float = 2.0
    window: int = 128
    warmup: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {self.quantile}")
        if self.multiplier <= 0:
            raise ValueError(f"multiplier must be > 0, got {self.multiplier}")
        if self.window < 2 or self.warmup < 1:
            raise ValueError("window must be >= 2 and warmup >= 1")

    def delay_from(self, samples: Sequence[float]) -> float:
        """The hedge delay given recent latency ``samples`` (seconds)."""
        if len(samples) < self.warmup:
            return self.initial_delay
        ordered = sorted(samples)
        index = int(self.quantile * (len(ordered) - 1))
        derived = ordered[index] * self.multiplier
        return min(self.max_delay, max(self.min_delay, derived))


class _Endpoint:
    """One replica the client may talk to: URL + its own breaker."""

    def __init__(self, url: str, name: Optional[str] = None) -> None:
        self.url = url.rstrip("/")
        self.name = name if name is not None else self.url
        # per-replica breakers publish nowhere: the unlabelled client
        # gauge belongs to the single-endpoint breaker, and the router
        # already exports the authoritative per-replica states
        self.breaker = CircuitBreaker(
            failure_threshold=3,
            reset_timeout=5.0,
            on_state=lambda _value: None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Endpoint({self.name!r}, {self.url!r})"


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
    replicas:
        Optional static replica base-URL list. When given, ``/v1/*``
        requests rotate across the replicas (each with its own circuit
        breaker) and ``base_url`` serves only the ops routes.
    discover:
        When True, read the replica topology from ``base_url``'s
        ``/readyz`` document (the sharded router publishes one); a
        single local-role server publishes none and the client stays
        single-endpoint. The topology is re-read automatically --
        every ``discover_interval`` seconds, and immediately (throttled)
        when every replica breaker refuses or a transport failure
        suggests the fleet moved -- and reinstalled only when the
        router's topology *epoch* actually changed, so a live reshard
        reaches the client without a restart. Re-run manually via
        :meth:`discover_replicas`.
    discover_interval:
        Seconds between periodic topology refreshes (``None``: only
        the failure-triggered refreshes run).
    hedge:
        Optional :class:`HedgePolicy`; needs >= 2 replicas to act.
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
        replicas: Optional[Sequence[str]] = None,
        discover: bool = False,
        discover_interval: Optional[float] = None,
        hedge: Optional[HedgePolicy] = None,
        admin_token: Optional[str] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retry = retry if retry is not None else RetryPolicy()
        self.circuit = circuit
        self.faults = build_injector(faults)
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self.hedge = hedge
        self.admin_token = admin_token
        self._hedge_metrics = None
        self._latencies: deque = deque(
            maxlen=hedge.window if hedge is not None else 128
        )
        self._endpoints: List[_Endpoint] = []
        self._rotation = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._discover = bool(discover)
        self._discover_interval = (
            float(discover_interval) if discover_interval is not None else None
        )
        self._topology_epoch: Optional[int] = None
        self._last_discovery = 0.0
        if replicas is not None:
            self.set_replicas(replicas)
        if discover:
            self.discover_replicas()

    # ------------------------------------------------------------------ #
    # replica topology
    # ------------------------------------------------------------------ #

    @property
    def replica_urls(self) -> List[str]:
        """The replica base URLs currently rotated over (may be [])."""
        return [endpoint.url for endpoint in self._endpoints]

    def set_replicas(
        self,
        urls: Sequence[str],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        """Install a replica set; replaces any previous one.

        Breakers of URLs already in the set are kept (their failure
        history survives a topology refresh).
        """
        known = {endpoint.url: endpoint for endpoint in self._endpoints}
        fresh: List[_Endpoint] = []
        for index, url in enumerate(urls):
            name = names[index] if names is not None else None
            cleaned = url.rstrip("/")
            if cleaned in known:
                fresh.append(known[cleaned])
            else:
                fresh.append(_Endpoint(cleaned, name))
        self._endpoints = fresh

    def discover_replicas(self) -> List[str]:
        """Refresh the replica set from ``base_url``'s ``/readyz``.

        Returns the discovered URLs; an empty list (a server that
        publishes no topology) leaves the client single-endpoint. The
        document's topology ``epoch`` is remembered: a refresh that
        comes back with the epoch already installed changes nothing
        (surviving breakers keep their failure history either way).
        """
        self._last_discovery = time.monotonic()
        document = self._json("GET", "/readyz")
        entries = document.get("replicas")
        if not isinstance(entries, list):
            return []
        epoch = document.get("epoch")
        urls = [
            str(entry["url"])
            for entry in entries
            if isinstance(entry, dict) and "url" in entry
        ]
        names = [
            str(entry.get("name", entry["url"]))
            for entry in entries
            if isinstance(entry, dict) and "url" in entry
        ]
        if urls and (
            not isinstance(epoch, int)
            or epoch != self._topology_epoch
            or not self._endpoints
        ):
            self.set_replicas(urls, names)
        if isinstance(epoch, int):
            self._topology_epoch = epoch
        return urls

    @property
    def topology_epoch(self) -> Optional[int]:
        """The router topology epoch last seen by discovery."""
        return self._topology_epoch

    def _maybe_rediscover(self, force: bool = False) -> None:
        """Opportunistic topology refresh; never raises.

        ``force`` is the failure path (all breakers refusing, or a
        transport error that smells like a moved fleet) and is
        throttled to twice a second so a hard outage cannot turn into
        a /readyz stampede.
        """
        if not self._discover:
            return
        now = time.monotonic()
        since = now - self._last_discovery
        due = force and since >= 0.5
        if not due and self._discover_interval is not None:
            due = since >= self._discover_interval
        if not due:
            return
        try:
            self.discover_replicas()
        except ClientError:
            pass  # the router itself is unreachable; retries handle it

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

        With a replica set installed, ``/v1/*`` requests take the
        replicated path instead (per-replica breakers, fail-over
        rotation, optional hedging); ops routes stay on ``base_url``.
        """
        if self._endpoints and path.startswith("/v1/"):
            return self._request_replicated(
                method, path, body, content_type, attempts
            )
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
        """The retry loop itself (circuit-unaware, single endpoint)."""
        budget = attempts if attempts is not None else self.retry.max_attempts
        last: Exception = ClientError("no attempt made")
        for attempt in range(budget):
            retry_after: Optional[float] = None
            try:
                return self._one_try(
                    self.base_url, method, path, body, content_type
                )
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
        base_url: str,
        method: str,
        path: str,
        body: Optional[bytes],
        content_type: str,
    ) -> Tuple[int, bytes]:
        """Exactly one HTTP exchange against one endpoint.

        Success returns ``(status, body)`` and records the latency
        sample hedging feeds on. Failures are normalised: any HTTP
        error raises :class:`ServerReplyError` (with ``retry_after``
        attached), any transport failure raises a bare
        :class:`ClientError`.
        """
        request = urllib.request.Request(
            base_url + path, data=body, method=method
        )
        if body is not None:
            request.add_header("Content-Type", content_type)
        if self.admin_token is not None and path.startswith("/admin/"):
            request.add_header("Authorization", f"Bearer {self.admin_token}")
        started = time.perf_counter()
        try:
            if self.faults.enabled:
                if self.faults.fires("http_drop", key=path):
                    raise urllib.error.URLError("injected connection drop")
                self.faults.sleep("http_slow", key=path)
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                outcome = response.status, response.read()
            self._latencies.append(time.perf_counter() - started)
            return outcome
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

    # ------------------------------------------------------------------ #
    # the replicated path: fail-over rotation + hedging
    # ------------------------------------------------------------------ #

    def _request_replicated(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        content_type: str,
        attempts: Optional[int],
    ) -> Tuple[int, bytes]:
        """The retry loop over a replica set.

        Each attempt goes to the next replica whose breaker admits it
        -- fail-over *is* the retry. A deterministic server reply
        surfaces immediately (and counts as breaker success: the
        transport worked); transport failures and exhausted hedges
        debit the replica they hit.
        """
        budget = attempts if attempts is not None else self.retry.max_attempts
        last: Exception = ClientError("no attempt made")
        self._maybe_rediscover()
        for attempt in range(budget):
            endpoint = self._next_endpoint()
            if endpoint is None:
                # every breaker refuses: the topology may have moved
                # out from under us -- re-read it before giving up
                self._maybe_rediscover(force=True)
                endpoint = self._next_endpoint()
            if endpoint is None:
                raise CircuitOpenError("open")
            backup = (
                self._next_endpoint(exclude=endpoint)
                if self._should_hedge(path)
                else None
            )
            retry_after: Optional[float] = None
            try:
                if backup is not None:
                    # the hedged exchange does its own breaker accounting
                    # (two arms, two breakers) -- don't double-record here
                    return self._hedged_try(
                        endpoint, backup, method, path, body, content_type
                    )
                outcome = self._one_try(
                    endpoint.url, method, path, body, content_type
                )
                endpoint.breaker.record_success()
                return outcome
            except ServerReplyError as reply:
                if backup is None:
                    endpoint.breaker.record_success()
                if not reply.retryable:
                    raise
                retry_after = reply.retry_after
                last = reply
            except ClientError as exc:
                if backup is None:
                    endpoint.breaker.record_failure()
                last = exc
                # a dropped connection on the replicated path often
                # means the replica was restarted or removed
                self._maybe_rediscover(force=True)
            if attempt + 1 < budget:
                self._sleep(self.retry.delay(attempt, self._rng, retry_after))
        raise RetriesExhaustedError(budget, last)

    def _next_endpoint(
        self, exclude: Optional[_Endpoint] = None
    ) -> Optional[_Endpoint]:
        """The next replica (rotation order) whose breaker admits a
        call; ``None`` when every breaker refuses."""
        for _step in range(len(self._endpoints)):
            endpoint = self._endpoints[self._rotation % len(self._endpoints)]
            self._rotation += 1
            if endpoint is exclude:
                continue
            if endpoint.breaker.allow():
                return endpoint
        return None

    def _should_hedge(self, path: str) -> bool:
        return (
            self.hedge is not None
            and len(self._endpoints) >= 2
            and path.split("?", 1)[0] in _HEDGEABLE_PATHS
        )

    def _hedged_try(
        self,
        primary: _Endpoint,
        backup: _Endpoint,
        method: str,
        path: str,
        body: Optional[bytes],
        content_type: str,
    ) -> Tuple[int, bytes]:
        """One hedged exchange: primary first, backup after the delay.

        First answer wins; the loser finishes in the background and
        still reports to its replica's breaker. Raises the *last*
        failure only when both arms fail.
        """
        if self._hedge_metrics is None:
            from repro.server.metrics import HedgeMetrics

            self._hedge_metrics = HedgeMetrics()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="repro-hedge"
            )
        arms = {}
        future = self._pool.submit(
            self._one_try, primary.url, method, path, body, content_type
        )
        arms[future] = ("primary", primary)
        done, _pending = _futures_wait(
            arms, timeout=self.hedge.delay_from(tuple(self._latencies))
        )
        if not done:
            # the primary is officially slow: launch the hedge arm
            self._hedge_metrics.requests.inc()
            hedge_future = self._pool.submit(
                self._one_try, backup.url, method, path, body, content_type
            )
            arms[hedge_future] = ("hedge", backup)
        hedged = len(arms) > 1
        failure: Optional[Exception] = None
        while arms:
            done, _pending = _futures_wait(
                arms, return_when=FIRST_COMPLETED
            )
            for future in done:
                arm, endpoint = arms.pop(future)
                try:
                    outcome = future.result()
                except ServerReplyError as reply:
                    endpoint.breaker.record_success()
                    if not reply.retryable:
                        self._absorb_losers(arms)
                        raise
                    failure = reply
                    continue
                except ClientError as exc:
                    endpoint.breaker.record_failure()
                    failure = exc
                    continue
                endpoint.breaker.record_success()
                if hedged:
                    self._hedge_metrics.wins.inc(arm=arm)
                self._absorb_losers(arms)
                return outcome
        assert failure is not None
        raise failure

    def _absorb_losers(self, arms: dict) -> None:
        """Let losing arms finish in the background, feeding breakers."""
        for future, (_arm, endpoint) in arms.items():
            future.add_done_callback(self._absorber(endpoint))
        arms.clear()

    @staticmethod
    def _absorber(endpoint: _Endpoint) -> Callable:
        def _done(future) -> None:
            exc = future.exception()
            if exc is None or isinstance(exc, ServerReplyError):
                endpoint.breaker.record_success()
            else:
                endpoint.breaker.record_failure()

        return _done

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
