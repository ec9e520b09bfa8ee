"""The cost-aware admission gate and its overload behaviour.

Unit tests drive :class:`CostAwareGate` with a fake clock (weights,
CoDel-style shedding, deadline fast-reject); the integration test runs
a real server at 2x its capacity and pins the overload
contract: admitted requests keep their p99 under the deadline, excess
load is shed as fast retryable 429s, and **no request ever sees a
504** -- the gate sheds before deadlines blow, not after.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.server.overload import ROUTE_WEIGHTS, CostAwareGate, route_weight
from repro.service.api import SwapService
from tests.faults.conftest import counter_value, registry  # noqa: F401
from tests.server.conftest import make_client, make_server  # noqa: F401


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRouteWeights:
    def test_swap_graph_costs_most(self):
        assert ROUTE_WEIGHTS["/v1/swap-graph"] > ROUTE_WEIGHTS["/v1/validate"]
        assert ROUTE_WEIGHTS["/v1/validate"] > ROUTE_WEIGHTS["/v1/solve"]

    def test_unknown_routes_cost_one_solve_unit(self):
        assert route_weight("/nowhere") == 1.0

    def test_surface_sweeps_are_nearly_free(self):
        plain = route_weight("/v1/sweep", "/v1/sweep?pstars=2.0")
        surfaced = route_weight(
            "/v1/sweep", "/v1/sweep?pstars=2.0&tolerance=1e-3"
        )
        assert surfaced < plain == ROUTE_WEIGHTS["/v1/sweep"]


class TestCostAdmission:
    def test_capacity_is_solve_units_not_request_count(self):
        gate = CostAwareGate(4)
        # one validate (weight 4) fills the same capacity 4 solves would
        assert gate.admit("/v1/validate") is None
        assert gate.admit("/v1/solve") == "queue_full"
        gate.leave(route_weight("/v1/validate"))
        for _ in range(4):
            assert gate.admit("/v1/solve") is None
        assert gate.admit("/v1/solve") == "queue_full"

    def test_oversized_request_admitted_when_gate_is_empty(self):
        # a lone swap-graph (weight 8 > depth 4) must never be unservable
        gate = CostAwareGate(4)
        assert gate.admit("/v1/swap-graph") is None
        assert gate.admit("/v1/solve") == "queue_full"

    def test_leave_drains_to_idle_for_shutdown(self):
        gate = CostAwareGate(4)
        gate.admit("/v1/validate")
        assert not gate.wait_idle(timeout=0.0)
        gate.leave(route_weight("/v1/validate"))
        assert gate.wait_idle(timeout=0.0)
        assert gate.inflight_cost == 0.0


class TestDeadlineFastReject:
    def test_burnt_budget_is_rejected_immediately(self):
        gate = CostAwareGate(4)
        assert gate.admit("/v1/solve", budget=0.0) == "deadline"

    def test_cold_gate_never_guesses(self):
        gate = CostAwareGate(4)
        # no latency history yet: a tiny (positive) budget is admitted
        assert gate.admit("/v1/solve", budget=1e-6) is None

    def test_doomed_budget_rejected_after_warmup(self):
        gate = CostAwareGate(16, warmup=4)
        for _ in range(4):
            gate.observe("/v1/solve", 0.2)
        assert gate.admit("/v1/solve", budget=0.01) == "deadline"
        # a budget comfortably above the observed latency still passes
        assert gate.admit("/v1/solve", budget=1.0) is None

    def test_routes_keep_separate_latency_histories(self):
        gate = CostAwareGate(16, warmup=2)
        for _ in range(4):
            gate.observe("/v1/swap-graph", 2.0)
        # the slow route's history must not doom the fast route
        assert gate.admit("/v1/solve", budget=0.05) is None
        assert gate.admit("/v1/swap-graph", budget=0.05) == "deadline"


class TestCoDelShedding:
    def _hot_gate(self, clock) -> CostAwareGate:
        gate = CostAwareGate(8, target=0.05, hold=0.25, clock=clock)
        for _ in range(32):
            gate.observe("/v1/solve", 0.2)  # p95 far above target
        return gate

    def test_sustained_high_p95_halves_capacity(self):
        clock = FakeClock()
        gate = self._hot_gate(clock)
        assert not gate.overloaded  # the hold hasn't elapsed yet
        clock.advance(0.3)
        gate.observe("/v1/solve", 0.2)
        assert gate.overloaded
        # effective capacity is now 4 solve-units: admit 4, shed the 5th
        for _ in range(4):
            assert gate.admit("/v1/solve") is None
        assert gate.admit("/v1/solve") == "overload"

    def test_one_slow_request_does_not_shed(self):
        clock = FakeClock()
        gate = CostAwareGate(8, target=0.05, hold=0.25, clock=clock)
        gate.observe("/v1/solve", 5.0)
        clock.advance(1.0)
        for _ in range(32):
            gate.observe("/v1/solve", 0.001)
        assert not gate.overloaded

    def test_recovery_restores_full_capacity(self):
        clock = FakeClock()
        gate = self._hot_gate(clock)
        clock.advance(0.3)
        gate.observe("/v1/solve", 0.2)
        assert gate.overloaded
        for _ in range(300):  # flush the window with fast samples
            gate.observe("/v1/solve", 0.001)
        assert not gate.overloaded
        for _ in range(8):
            assert gate.admit("/v1/solve") is None

    def test_snapshot_reports_operator_view(self):
        gate = CostAwareGate(8, target=0.05)
        gate.admit("/v1/validate")
        snap = gate.snapshot()
        assert snap["depth"] == 8
        assert snap["inflight"] == 1
        assert snap["cost"] == 4.0
        assert snap["target"] == 0.05
        assert snap["overloaded"] is False


class _FixedDelayService(SwapService):
    """Every batch costs a fixed wall-clock delay (plus a cached solve)."""

    def __init__(self, delay: float) -> None:
        super().__init__(max_workers=1)
        self.delay = delay

    def run_batch(self, requests):
        time.sleep(self.delay)
        return super().run_batch(requests)


@pytest.mark.slow
class TestOverloadAtTwiceCapacity:
    def test_sheds_fast_429s_never_504s(self, registry, make_server):
        """2x capacity: p99 of admitted requests stays under the
        deadline; the excess sheds as immediate retryable 429s."""
        delay = 0.06
        deadline = 1.0
        server = make_server(
            service=_FixedDelayService(delay),
            queue_depth=4,
            deadline=deadline,
            overload_target=delay / 2.0,  # the service can never meet it
        )
        base = f"http://127.0.0.1:{server.port}"
        body = json.dumps({"kind": "solve", "pstar": 2.0}).encode()
        urllib.request.urlopen(  # warm the solve cache: delay dominates
            urllib.request.Request(
                base + "/v1/solve",
                data=body,
                headers={"Content-Type": "application/json"},
            ),
            timeout=30,
        )

        statuses, ok_latencies, lock = [], [], threading.Lock()

        def worker() -> None:
            for _ in range(6):
                request = urllib.request.Request(
                    base + "/v1/solve",
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
                t0 = time.perf_counter()
                try:
                    with urllib.request.urlopen(request, timeout=30) as reply:
                        status = reply.status
                        reply.read()
                except urllib.error.HTTPError as exc:
                    status = exc.code
                    exc.read()
                elapsed = time.perf_counter() - t0
                with lock:
                    statuses.append(status)
                    if status == 200:
                        ok_latencies.append(elapsed)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # the whole contract: successes and fast sheds, nothing else
        assert set(statuses) <= {200, 429}, statuses
        assert statuses.count(200) > 0
        assert statuses.count(429) > 0  # 2x capacity really did shed
        ordered = sorted(ok_latencies)
        p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
        assert p99 < deadline
        rejected = "repro_http_rejected_total"
        assert counter_value(registry, rejected, reason="deadline") == 0.0
        total_shed = counter_value(
            registry, rejected, reason="queue_full"
        ) + counter_value(registry, rejected, reason="overload")
        assert total_shed == statuses.count(429)

    def test_mean_latency_stays_bounded_while_shedding(self):
        """CoDel's point: shedding keeps the *admitted* experience
        fast instead of letting queues smear everyone toward timeout."""
        clock = FakeClock()
        gate = CostAwareGate(4, target=0.05, hold=0.1, clock=clock)
        # three long-running requests pin the gate near capacity ...
        for _ in range(3):
            assert gate.admit("/v1/solve") is None
        admitted, shed = 0, 0
        for _ in range(40):
            outcome = gate.admit("/v1/solve")
            if outcome is None:
                gate.observe("/v1/solve", 0.2)  # ... and latency is awful
                gate.leave()
                admitted += 1
            else:
                shed += 1
            clock.advance(0.05)
        # the hold elapsed under sustained bad p95: the gate halved its
        # capacity and the pinned requests alone now exceed it
        assert gate.overloaded
        assert admitted > 0 and shed > 0

    def test_p95_tracks_the_sliding_window(self):
        gate = CostAwareGate(8)
        for value in (0.01, 0.02, 0.03, 0.5):
            for _ in range(8):
                gate.observe("/v1/solve", value)
        assert gate.p95 == pytest.approx(0.5)
        assert statistics.median([gate.p95]) > 0.0
