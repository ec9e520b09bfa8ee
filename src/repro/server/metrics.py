"""The HTTP layer's registry instruments.

Three families, bound once per process against the active
:mod:`repro.obs` registry and rendered live by ``GET /metrics``:

* ``repro_http_*`` (:class:`HTTPMetrics`) -- per-response accounting
  of either front-end role (local server or router);
* ``repro_router_*`` (:class:`RouterMetrics`) -- the sharded tier's
  proxy accounting: per-replica traffic and latency, re-routes,
  breaker states;
* ``repro_supervisor_*`` (:class:`SupervisorMetrics`) -- the router's
  replica supervisor: restarts, failed restarts, backoff, parking.

Route labels are always one of the fixed route patterns (unknown paths
collapse to ``unknown``), method labels ``GET``, ``POST`` or ``other``,
and replica labels one of the fixed replica names, so label cardinality
stays bounded no matter what clients request.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.obs.metrics import get_registry

__all__ = [
    "HTTPMetrics",
    "RouterMetrics",
    "SupervisorMetrics",
    "RESPONSE_BYTE_BUCKETS",
    "PROXY_SECOND_BUCKETS",
]

# response sizes: 64 B .. 4 MiB, x4 apart (envelopes at the bottom,
# JSONL batch responses at the top)
RESPONSE_BYTE_BUCKETS: Tuple[float, ...] = (
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0,
)


class HTTPMetrics:
    """The serving layer's instruments, get-or-created once."""

    def __init__(self) -> None:
        registry = get_registry()
        self.requests = registry.counter(
            "repro_http_requests_total",
            help="HTTP requests served, by route, method and status.",
            labelnames=("route", "method", "status"),
        )
        self.request_seconds = registry.histogram(
            "repro_http_request_seconds",
            help="Wall-clock request latency, by route.",
            labelnames=("route",),
        )
        self.response_bytes = registry.histogram(
            "repro_http_response_bytes",
            help="Response body size, by route.",
            labelnames=("route",),
            buckets=RESPONSE_BYTE_BUCKETS,
        )
        self.inflight = registry.gauge(
            "repro_http_inflight",
            help="API requests currently admitted and executing.",
        )
        self.rejected = registry.counter(
            "repro_http_rejected_total",
            help="Requests shed before execution, by reason.",
            labelnames=("reason",),
        )
        # materialise the shed reasons so /metrics always exports the
        # family, even on a server that has never shed load
        for reason in ("queue_full", "body_too_large", "draining", "deadline",
                       "overload"):
            self.rejected.inc(0, reason=reason)

    def observe(
        self, route: str, method: str, status: int, seconds: float, size: int
    ) -> None:
        """Record one completed response."""
        self.requests.inc(route=route, method=method, status=str(status))
        self.request_seconds.observe(seconds, route=route)
        self.response_bytes.observe(float(size), route=route)


# proxy hops are loopback TCP: sub-millisecond when warm, tens of
# milliseconds under queueing, whole seconds only when a shard solves
PROXY_SECOND_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0,
)


class RouterMetrics:
    """The sharded tier's instruments (``repro_router_*``).

    ``replica_names`` fixes the label universe up front: every
    per-replica series is materialised at zero so ``/metrics`` exports
    the full topology from the first scrape, idle shards included.
    """

    def __init__(self, replica_names: Sequence[str]) -> None:
        registry = get_registry()
        self.requests = registry.counter(
            "repro_router_requests_total",
            help="Requests the router proxied, by replica.",
            labelnames=("replica",),
        )
        self.proxy_seconds = registry.histogram(
            "repro_router_proxy_seconds",
            help="Proxy hop latency (connect to last byte), by replica.",
            labelnames=("replica",),
            buckets=PROXY_SECOND_BUCKETS,
        )
        self.reroutes = registry.counter(
            "repro_router_reroutes_total",
            help="Requests moved off their home replica, by reason.",
            labelnames=("reason",),
        )
        self.rejected = registry.counter(
            "repro_router_rejected_total",
            help="Requests the router shed before proxying, by reason.",
            labelnames=("reason",),
        )
        self.inflight = registry.gauge(
            "repro_router_inflight",
            help="Requests currently admitted and proxying.",
        )
        self.replicas = registry.gauge(
            "repro_router_replicas",
            help="Replicas currently on the hash ring.",
        )
        self.replica_state = registry.gauge(
            "repro_router_replica_state",
            help="Per-replica breaker state (0 closed, 1 half-open, 2 open).",
            labelnames=("replica",),
        )
        self.probes = registry.counter(
            "repro_router_probe_total",
            help="Active /readyz probe results, by replica and outcome "
            "(ok, fail, eject, readmit).",
            labelnames=("replica", "outcome"),
        )
        self.epoch = registry.gauge(
            "repro_router_topology_epoch",
            help="Monotonic topology version; bumps on every ring change.",
        )
        self.cache_events = registry.counter(
            "repro_router_cache_events_total",
            help="Router-side response-cache traffic, by event "
            "(hit, miss, evict, invalidate).",
            labelnames=("event",),
        )
        self.cache_entries = registry.gauge(
            "repro_router_cache_entries",
            help="Entries currently in the router-side response cache.",
        )
        for name in replica_names:
            self.add_replica(name)
        for reason in ("replica_down", "connect_failed", "proxy_failed"):
            self.reroutes.inc(0, reason=reason)
        for reason in ("queue_full", "body_too_large", "draining", "deadline",
                       "no_replica", "overload"):
            self.rejected.inc(0, reason=reason)
        for event in ("hit", "miss", "evict", "invalidate"):
            self.cache_events.inc(0, event=event)
        self.epoch.set(1)
        self.replicas.set(len(replica_names))

    def add_replica(self, name: str) -> None:
        """Materialise the per-replica series of a (new) replica at
        zero, so ``/metrics`` exports it from the next scrape."""
        self.requests.inc(0, replica=name)
        self.replica_state.set(0, replica=name)
        for outcome in ("ok", "fail", "eject", "readmit"):
            self.probes.inc(0, replica=name, outcome=outcome)


class SupervisorMetrics:
    """The replica supervisor's instruments (``repro_supervisor_*``).

    One series set per supervised replica, materialised at zero the
    moment the replica is known -- a fleet that has never crashed still
    exports ``repro_supervisor_restarts_total 0``.
    """

    def __init__(self, replica_names: Sequence[str] = ()) -> None:
        registry = get_registry()
        self.restarts = registry.counter(
            "repro_supervisor_restarts_total",
            help="Successful supervisor restarts, by replica.",
            labelnames=("replica",),
        )
        self.failures = registry.counter(
            "repro_supervisor_restart_failures_total",
            help="Restart attempts that died before readmission, by replica.",
            labelnames=("replica",),
        )
        self.backoff = registry.gauge(
            "repro_supervisor_backoff_seconds",
            help="Current restart backoff delay, by replica (0 = healthy).",
            labelnames=("replica",),
        )
        self.parked = registry.gauge(
            "repro_supervisor_parked",
            help="1 when the flap detector gave up on the replica.",
            labelnames=("replica",),
        )
        for name in replica_names:
            self.add_replica(name)

    def add_replica(self, name: str) -> None:
        self.restarts.inc(0, replica=name)
        self.failures.inc(0, replica=name)
        self.backoff.set(0, replica=name)
        self.parked.set(0, replica=name)
