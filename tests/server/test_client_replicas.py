"""The replica-aware client: discovery, fail-over, breakers, hedging.

Real sockets throughout: replicas are actual local-role servers, the
router (when used) is the actual proxy role. Hedging timing is
driven through :class:`HedgePolicy`'s injectable delay derivation, not
sleeps in the product code.
"""

from __future__ import annotations

import threading

import pytest

from repro.server import RouterServer, ServerConfig
from repro.server.client import (
    CircuitOpenError,
    ClientError,
    HedgePolicy,
    RetryPolicy,
    SwapClient,
)
from tests.faults.conftest import counter_value, registry  # noqa: F401
from tests.server.conftest import GatedService, make_server  # noqa: F401

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


def _urls(*servers) -> list:
    return [f"http://127.0.0.1:{server.port}" for server in servers]


class TestReplicaSets:
    def test_static_replicas_answer_and_rotate(self, make_server):
        a, b = make_server(), make_server()
        client = SwapClient(
            "http://unused.invalid", replicas=_urls(a, b), retry=FAST_RETRY
        )
        assert client.replica_urls == _urls(a, b)
        payload = {"kind": "solve", "pstar": 2.0, "collateral": 0.0}
        # rotation alternates replicas: the same request is cold on the
        # first two calls (one per replica), cached from the third on
        first = client._json("POST", "/v1/solve", payload)
        second = client._json("POST", "/v1/solve", payload)
        third = client._json("POST", "/v1/solve", payload)
        assert (first["cached"], second["cached"], third["cached"]) == (
            False,
            False,
            True,
        )

    def test_discovery_from_router_readyz(self, make_server):
        a, b = make_server(), make_server()
        router = RouterServer(
            ServerConfig(port=0),
            endpoints=[(a.host, a.port), (b.host, b.port)],
        ).start()
        try:
            client = SwapClient(
                f"http://127.0.0.1:{router.port}",
                discover=True,
                retry=FAST_RETRY,
            )
            assert client.replica_urls == router.replica_urls
            assert client.solve(pstar=2.0).success_rate > 0
            # ops probes still go to the router itself
            assert client.health() is True
        finally:
            router.shutdown(drain=False)

    def test_discovery_against_plain_server_stays_single_endpoint(
        self, make_server
    ):
        server = make_server()
        client = SwapClient(
            f"http://127.0.0.1:{server.port}", discover=True, retry=FAST_RETRY
        )
        assert client.replica_urls == []
        assert client.solve(pstar=2.0).success_rate > 0

    def test_refresh_keeps_surviving_breakers(self, make_server):
        a, b, c = make_server(), make_server(), make_server()
        client = SwapClient("http://unused.invalid", replicas=_urls(a, b))
        survivor = client._endpoints[0]
        survivor.breaker.record_failure()
        client.set_replicas(_urls(a, c))
        assert client._endpoints[0] is survivor  # history preserved
        assert client.replica_urls == _urls(a, c)

    def test_failover_when_one_replica_dies(self, make_server):
        a, b = make_server(), make_server()
        client = SwapClient(
            "http://unused.invalid", replicas=_urls(a, b), retry=FAST_RETRY
        )
        a.shutdown(drain=False)
        for i in range(6):
            assert client.solve(pstar=1.8 + i * 0.1).success_rate > 0

    def test_all_replicas_down_opens_every_breaker(self, make_server):
        a, b = make_server(), make_server()
        client = SwapClient(
            "http://unused.invalid", replicas=_urls(a, b), retry=FAST_RETRY
        )
        a.shutdown(drain=False)
        b.shutdown(drain=False)
        with pytest.raises(ClientError):
            for _ in range(4):  # enough logical requests to trip both
                client.solve(pstar=2.0)
        for endpoint in client._endpoints:
            endpoint.breaker.record_failure()  # ensure tripped
        with pytest.raises(CircuitOpenError):
            client.solve(pstar=2.0)

    def test_non_retryable_reply_surfaces_immediately(self, make_server):
        from repro.server.client import ServerReplyError

        a, b = make_server(), make_server()
        client = SwapClient(
            "http://unused.invalid", replicas=_urls(a, b), retry=FAST_RETRY
        )
        with pytest.raises(ServerReplyError) as excinfo:
            client.solve(pstar=-5.0)
        assert excinfo.value.status == 400
        # a conclusive reply is breaker *success*: the transport worked
        for endpoint in client._endpoints:
            assert endpoint.breaker.state == "closed"


class TestHedging:
    def test_policy_derives_delay_from_p95(self):
        policy = HedgePolicy(quantile=0.95, multiplier=2.0, warmup=4)
        assert policy.delay_from([0.1]) == policy.initial_delay  # warming up
        samples = [0.010] * 95 + [0.500] * 5
        derived = policy.delay_from(samples)
        assert derived == pytest.approx(2.0 * sorted(samples)[94], rel=0.2)

    def test_policy_clamps_to_bounds(self):
        policy = HedgePolicy(warmup=1, min_delay=0.05, max_delay=0.2)
        assert policy.delay_from([1e-9, 1e-9]) == 0.05
        assert policy.delay_from([10.0, 10.0]) == 0.2

    def test_policy_validates(self):
        with pytest.raises(ValueError):
            HedgePolicy(quantile=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(multiplier=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(warmup=0)

    def test_slow_primary_loses_to_hedge(self, registry, make_server):
        slow_service = GatedService()
        slow = make_server(service=slow_service)
        fast = make_server()
        client = SwapClient(
            "http://unused.invalid",
            replicas=_urls(slow, fast),
            retry=FAST_RETRY,
            hedge=HedgePolicy(initial_delay=0.05, warmup=10_000),
        )
        client._rotation = 0  # primary = slow replica, hedge = fast one
        try:
            result = client.solve(pstar=2.0)
        finally:
            slow_service.release.set()
        assert result.success_rate > 0
        assert counter_value(registry, "repro_hedge_requests_total") == 1.0
        assert (
            counter_value(registry, "repro_hedge_wins_total", arm="hedge")
            == 1.0
        )

    def test_fast_primary_never_launches_a_hedge(self, registry, make_server):
        a, b = make_server(), make_server()
        client = SwapClient(
            "http://unused.invalid",
            replicas=_urls(a, b),
            retry=FAST_RETRY,
            hedge=HedgePolicy(initial_delay=30.0, warmup=10_000),
        )
        client.solve(pstar=2.0)
        client.solve(pstar=2.0)
        assert counter_value(registry, "repro_hedge_requests_total") == 0.0

    def test_hedge_needs_two_replicas(self, registry, make_server):
        server = make_server()
        client = SwapClient(
            "http://unused.invalid",
            replicas=_urls(server),
            retry=FAST_RETRY,
            hedge=HedgePolicy(initial_delay=0.0001, warmup=10_000),
        )
        assert client.solve(pstar=2.0).success_rate > 0
        assert counter_value(registry, "repro_hedge_requests_total") == 0.0

    def test_batch_is_never_hedged(self, registry, make_server):
        a, b = make_server(), make_server()
        client = SwapClient(
            "http://unused.invalid",
            replicas=_urls(a, b),
            retry=FAST_RETRY,
            hedge=HedgePolicy(initial_delay=0.0, warmup=10_000),
        )
        records = client.batch([{"pstar": 1.9}, {"pstar": 2.1}])
        assert len(records) == 2
        assert counter_value(registry, "repro_hedge_requests_total") == 0.0

    def test_losing_arm_still_feeds_its_breaker(self, make_server):
        slow_service = GatedService()
        slow = make_server(service=slow_service)
        fast = make_server()
        client = SwapClient(
            "http://unused.invalid",
            replicas=_urls(slow, fast),
            retry=FAST_RETRY,
            hedge=HedgePolicy(initial_delay=0.05, warmup=10_000),
        )
        client._rotation = 0
        slow_endpoint = client._endpoints[0]
        try:
            client.solve(pstar=2.0)
        finally:
            slow_service.release.set()
        # the loser eventually completes fine: breaker stays closed
        deadline = threading.Event()
        deadline.wait(0.5)
        assert slow_endpoint.breaker.state == "closed"
