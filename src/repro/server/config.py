"""Server configuration.

One frozen dataclass carries every knob of the HTTP layer; the
``repro-swaps serve`` flags map onto it one-to-one. Validation happens
at construction so a bad flag fails fast with a clean message instead
of surfacing mid-request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["ServerConfig"]


def _check_positive_int(name: str, value: int) -> int:
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _check_positive_seconds(name: str, value: Optional[float]) -> Optional[float]:
    if value is None:
        return None
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


@dataclass(frozen=True)
class ServerConfig:
    """Every knob of the HTTP serving layer.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` asks the OS for an ephemeral port
        (the bound port is reported once listening).
    workers:
        ``SwapService`` process-pool size (1 = serial in-process).
    replicas:
        ``0`` (default) runs one server in the local role: the
        event-loop front end over an in-process ``SwapService``.
        ``N >= 1`` runs the sharded topology instead: the same front
        end in the proxy role on ``host:port``, consistent-hashing each
        request's canonical key across ``N`` replica subprocesses, each
        a local-role server with its own service/cache/surface chain
        (:mod:`repro.server.aio`).
    queue_depth:
        Bound on concurrently admitted API requests; excess load is
        shed with ``429`` + ``Retry-After`` instead of queueing without
        limit. Operational endpoints bypass admission.
    max_body_bytes:
        Per-request body-size ceiling; larger uploads get ``413``
        without being read.
    deadline:
        Per-request wall-clock budget in seconds; work still running at
        the deadline is abandoned and the request answers ``504``
        (``None``: no deadline).
    drain_timeout:
        How long a graceful shutdown waits for in-flight requests
        before giving up on them.
    cache_size, cache_dir, cache_entries, timeout:
        Forwarded to :class:`~repro.service.api.SwapService` (memory
        LRU capacity, disk tier directory and entry bound, per-solve
        pool budget).
    metrics_out:
        Optional path; the registry is flushed there in Prometheus text
        format when the server drains.
    fault_plan:
        Optional path to a fault-injection plan
        (:meth:`repro.faults.plan.InjectionPlan.load` format); loaded
        at server construction and shared with the underlying
        :class:`~repro.service.api.SwapService`, so one plan drives
        chaos across the HTTP handler, the cache, and the worker pool.
    surface:
        Optional path to a precomputed surface artifact
        (``repro-swaps warm`` output); forwarded to
        :class:`~repro.service.api.SwapService` as the chain's first
        answer tier. A corrupt artifact degrades (the server starts
        without the tier); a missing path fails construction.
    tolerance:
        Service-wide default answer tolerance for surface
        interpolation; ``None`` keeps tolerance-less requests exact.
    probe_interval:
        Sharded tier only: seconds between active ``/readyz`` probes of
        each replica. ``None`` (default) disables active probing and
        leaves health detection to the passive per-replica circuit
        breaker alone. Probes are phase-staggered per replica so N
        probes never fire in lockstep.
    probe_failures:
        Consecutive probe failures after which a replica is ejected
        from the hash ring (readmitted on the next probe success).
    supervise:
        Sharded tier only: when the router owns its replica
        subprocesses, restart one that dies (process exit, or probe
        ejection that outlives the probe cycle) with capped exponential
        backoff, readmitting it to the ring only after ``/readyz``
        passes. ``False`` restores the frozen-topology behaviour.
    restart_backoff, restart_backoff_cap:
        Supervisor restart delay: ``backoff * 2**n`` seconds after the
        n-th recent death, jittered, capped at ``restart_backoff_cap``.
    flap_limit, flap_window:
        The flap detector: a replica that dies ``flap_limit`` times
        within ``flap_window`` seconds is *parked* -- the supervisor
        gives up on it (``repro_supervisor_parked``) until an operator
        intervenes via the admin surface.
    admin_token:
        Bearer token guarding the router's ``/admin/v1/*`` surface
        (live resharding). ``None`` (default) disables the surface
        entirely -- admin requests answer 403.
    router_cache:
        Sharded tier only: capacity of the router-side exact-key
        response LRU (200-responses of idempotent routes). ``0``
        (default) disables it; every request is proxied to its home
        shard. The cache is invalidated wholesale on every topology
        epoch change.
    overload_target:
        Cost-aware admission: the p95 latency (seconds) above which the
        gate starts CoDel-style shedding at half capacity. ``None``
        (default) derives ``deadline / 2`` when a deadline is set.
    """

    host: str = "127.0.0.1"
    port: int = 8100
    workers: int = 1
    replicas: int = 0
    queue_depth: int = 16
    max_body_bytes: int = 1 << 20
    deadline: Optional[float] = 30.0
    drain_timeout: float = 10.0
    cache_size: int = 4096
    cache_dir: Optional[str] = None
    cache_entries: Optional[int] = None
    timeout: Optional[float] = None
    metrics_out: Optional[str] = None
    fault_plan: Optional[str] = None
    surface: Optional[str] = None
    tolerance: Optional[float] = None
    probe_interval: Optional[float] = None
    probe_failures: int = 3
    supervise: bool = True
    restart_backoff: float = 0.5
    restart_backoff_cap: float = 10.0
    flap_limit: int = 5
    flap_window: float = 30.0
    admin_token: Optional[str] = None
    router_cache: int = 0
    overload_target: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "port", int(self.port))
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        object.__setattr__(
            self, "workers", _check_positive_int("workers", self.workers)
        )
        object.__setattr__(
            self,
            "queue_depth",
            _check_positive_int("queue_depth", self.queue_depth),
        )
        object.__setattr__(
            self,
            "max_body_bytes",
            _check_positive_int("max_body_bytes", self.max_body_bytes),
        )
        object.__setattr__(
            self, "deadline", _check_positive_seconds("deadline", self.deadline)
        )
        drain = _check_positive_seconds("drain_timeout", self.drain_timeout)
        object.__setattr__(self, "drain_timeout", drain)
        object.__setattr__(
            self, "timeout", _check_positive_seconds("timeout", self.timeout)
        )
        if self.cache_entries is not None:
            object.__setattr__(
                self,
                "cache_entries",
                _check_positive_int("cache_entries", self.cache_entries),
            )
        replicas = int(self.replicas)
        if replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        object.__setattr__(self, "replicas", replicas)
        object.__setattr__(
            self,
            "probe_interval",
            _check_positive_seconds("probe_interval", self.probe_interval),
        )
        object.__setattr__(
            self,
            "probe_failures",
            _check_positive_int("probe_failures", self.probe_failures),
        )
        object.__setattr__(self, "supervise", bool(self.supervise))
        backoff = _check_positive_seconds("restart_backoff", self.restart_backoff)
        object.__setattr__(self, "restart_backoff", backoff)
        cap = _check_positive_seconds(
            "restart_backoff_cap", self.restart_backoff_cap
        )
        object.__setattr__(self, "restart_backoff_cap", cap)
        object.__setattr__(
            self, "flap_limit", _check_positive_int("flap_limit", self.flap_limit)
        )
        object.__setattr__(
            self,
            "flap_window",
            _check_positive_seconds("flap_window", self.flap_window),
        )
        router_cache = int(self.router_cache)
        if router_cache < 0:
            raise ValueError(
                f"router_cache must be >= 0, got {router_cache}"
            )
        object.__setattr__(self, "router_cache", router_cache)
        object.__setattr__(
            self,
            "overload_target",
            _check_positive_seconds("overload_target", self.overload_target),
        )
        if self.tolerance is not None:
            tolerance = float(self.tolerance)
            if not (math.isfinite(tolerance) and tolerance >= 0.0):
                raise ValueError(
                    f"tolerance must be finite and >= 0, got {tolerance}"
                )
            object.__setattr__(self, "tolerance", tolerance)
