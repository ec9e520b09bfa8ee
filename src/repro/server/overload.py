"""Cost-aware admission with CoDel-style overload shedding.

Admission bounds the work in flight -- but a swap-graph lattice solve
costs 10-100x a surface-certified sweep point, so a bound on request
*count* melts under graph traffic and starves under sweeps.
:class:`CostAwareGate` bounds *cost* instead, keeps the drain surface
(``inflight``/``leave``/``wait_idle``) and adds three behaviours:

* **per-endpoint weights** -- capacity is ``depth`` *solve-units*;
  each request debits its route's weight (:data:`ROUTE_WEIGHTS`), with
  a discount for sweeps that opt into the surface tier (a certified
  interpolation costs microseconds, not an engine pass);
* **CoDel-style shedding** -- the gate tracks a sliding window of
  completed-request latencies; when the p95 stays above ``target``
  for ``hold`` seconds the fleet is oversubscribed and the gate halves
  its effective capacity until the p95 recovers, shedding the excess
  as fast retryable 429s *before* requests start blowing deadlines;
* **deadline-budget admission** -- a request arriving with a remaining
  budget (the router forwards ``X-Repro-Deadline``) that the route's
  observed latency says cannot be met is refused in microseconds
  instead of burning a worker for seconds and answering 504 anyway.

The caller maps each shed reason onto a typed envelope
(:mod:`repro.server.wire`); ``queue_full`` and ``overload`` share one.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, Optional

__all__ = ["ROUTE_WEIGHTS", "CostAwareGate", "route_weight"]

# admission cost per route, in solve-units: a swap-graph request runs a
# best-response lattice over the whole graph (whole seconds of CPU), a
# validate runs a Monte Carlo batch, a batch line or sweep point is at
# most one engine pass, a solve is the unit
ROUTE_WEIGHTS: Dict[str, float] = {
    "/v1/swap-graph": 8.0,
    "/v1/validate": 4.0,
    "/v1/batch": 2.0,
    "/v1/sweep": 1.0,
    "/v1/solve": 1.0,
}

# a sweep that opts into surface interpolation (tolerance= in the
# query) is usually answered from the precomputed artifact in
# microseconds -- admit it nearly for free
_SURFACE_SWEEP_WEIGHT = 0.25


def route_weight(path: str, target: str = "") -> float:
    """The admission cost of one request, in solve-units."""
    if path == "/v1/sweep" and "tolerance=" in target:
        return _SURFACE_SWEEP_WEIGHT
    return ROUTE_WEIGHTS.get(path, 1.0)


class CostAwareGate:
    """Bounded concurrent admission by cost, with an idle event for drains.

    Each front-end server owns one. The lock keeps it safe across
    threads: the event loop admits and releases, while ``shutdown``
    waits for idle from another thread.

    Parameters
    ----------
    depth:
        Capacity in solve-units (the old request bound keeps its
        meaning exactly for all-solve traffic). A request whose weight
        exceeds the whole capacity is still admitted when the gate is
        empty -- a lone swap-graph must never be unservable.
    target:
        The sliding-p95 latency (seconds) above which the gate turns
        overloaded and halves its effective capacity. ``None`` never
        sheds on latency.
    hold:
        How long (seconds) the p95 must stay above ``target`` before
        shedding starts -- one slow request is not an overload.
    window:
        Latency samples kept for the p95.
    deadline_factor, warmup:
        A request with remaining budget below ``deadline_factor`` times
        the route's smoothed latency is refused as doomed -- but only
        once ``warmup`` samples exist for the route (cold gates never
        guess).
    clock:
        Injectable monotonic clock (tests drive the hold window).
    """

    def __init__(
        self,
        depth: int,
        target: Optional[float] = None,
        hold: float = 0.25,
        window: int = 256,
        deadline_factor: float = 0.5,
        warmup: int = 8,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.depth = int(depth)
        self.capacity = float(self.depth)
        self.target = float(target) if target is not None else None
        self.hold = float(hold)
        self.deadline_factor = float(deadline_factor)
        self.warmup = int(warmup)
        self._clock = clock
        self._lock = threading.Lock()
        self._count = 0
        self._idle = threading.Event()
        self._idle.set()
        self._cost = 0.0
        self._window: deque = deque(maxlen=int(window))
        self._p95 = 0.0
        self._unsorted = 0
        self._over_since: Optional[float] = None
        self._overloaded = False
        # per-route smoothed latency for the doomed-request check
        self._ewma: Dict[str, float] = {}
        self._samples: Dict[str, int] = {}

    # -- state ----------------------------------------------------------- #

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._count

    @property
    def inflight_cost(self) -> float:
        with self._lock:
            return self._cost

    @property
    def overloaded(self) -> bool:
        with self._lock:
            return self._overloaded

    @property
    def p95(self) -> float:
        with self._lock:
            return self._p95

    def snapshot(self) -> Dict[str, object]:
        """Operator view of the gate (the admin topology document)."""
        with self._lock:
            return {
                "depth": self.depth,
                "inflight": self._count,
                "cost": round(self._cost, 3),
                "overloaded": self._overloaded,
                "p95": round(self._p95, 6),
                "target": self.target,
            }

    # -- admission ------------------------------------------------------- #

    def admit(
        self,
        route: str,
        target: str = "",
        budget: Optional[float] = None,
    ) -> Optional[str]:
        """Admit one request, or return the shed reason.

        ``None`` means admitted (pair with :meth:`leave`); otherwise
        one of ``"queue_full"`` (cost capacity exhausted),
        ``"overload"`` (CoDel shedding at reduced capacity) or
        ``"deadline"`` (remaining budget provably insufficient).
        """
        weight = route_weight(route, target)
        with self._lock:
            if budget is not None:
                expected = self._ewma.get(route)
                doomed = budget <= 0.0 or (
                    expected is not None
                    and self._samples.get(route, 0) >= self.warmup
                    and budget < expected * self.deadline_factor
                )
                if doomed:
                    return "deadline"
            capacity = self.capacity
            if self._overloaded:
                capacity = capacity / 2.0
                if self._cost + weight > capacity and self._cost > 0.0:
                    return "overload"
            if self._cost + weight > capacity and self._cost > 0.0:
                return "queue_full"
            self._cost += weight
            self._count += 1
            self._idle.clear()
            return None

    def leave(self, cost: float = 1.0) -> None:
        with self._lock:
            self._cost = max(0.0, self._cost - float(cost))
            self._count -= 1
            if self._count <= 0:
                self._idle.set()

    def wait_idle(self, timeout: Optional[float]) -> bool:
        """Block until no request is in flight (True iff drained)."""
        return self._idle.wait(timeout)

    # -- the latency feedback loop --------------------------------------- #

    def observe(self, route: str, seconds: float) -> None:
        """Feed one completed request's latency back into the gate."""
        seconds = float(seconds)
        with self._lock:
            previous = self._ewma.get(route)
            self._ewma[route] = (
                seconds if previous is None else 0.8 * previous + 0.2 * seconds
            )
            self._samples[route] = self._samples.get(route, 0) + 1
            self._window.append(seconds)
            self._unsorted += 1
            if self._unsorted >= 16 or len(self._window) < 16:
                self._unsorted = 0
                ordered = sorted(self._window)
                self._p95 = ordered[int(0.95 * (len(ordered) - 1))]
            if self.target is None:
                return
            now = self._clock()
            if self._p95 > self.target:
                if self._over_since is None:
                    self._over_since = now
                elif now - self._over_since >= self.hold:
                    self._overloaded = True
            else:
                self._over_since = None
                self._overloaded = False
