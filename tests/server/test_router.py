"""The consistent-hash ring and the router's failure handling.

The ring tests pin the two properties sharding relies on: stable,
cross-process key placement (BLAKE2b, not ``hash()``) and *keyslice
stability* -- removing one replica re-homes only the keys it owned.
The RouterServer tests run the real router over real in-process
local-role servers and exercise the ``replica_down`` chaos
kind: the router must heal by re-routing, invisibly to the caller.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import FaultSpec, InjectionPlan
from repro.server import RouterServer, ServerConfig
from repro.server.router import HashRing, routing_key
from tests.faults.conftest import counter_value, registry  # noqa: F401
from tests.server.conftest import make_client, make_server  # noqa: F401

KEYS = [f"key-{i}" for i in range(500)]


class TestHashRing:
    def test_every_key_lands_on_a_member(self):
        ring = HashRing(["a", "b", "c"])
        for key in KEYS:
            assert ring.node_for(key) in ("a", "b", "c")

    def test_placement_is_deterministic_across_instances(self):
        first = HashRing(["a", "b", "c"])
        second = HashRing(["c", "a", "b"])  # insertion order is irrelevant
        assert [first.node_for(k) for k in KEYS] == [
            second.node_for(k) for k in KEYS
        ]

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(["a", "b", "c", "d"])
        counts = {name: 0 for name in "abcd"}
        for i in range(4000):
            counts[ring.node_for(f"k{i}")] += 1
        # 64 vnodes keeps shards within a factor ~2 of each other
        assert max(counts.values()) < 2.5 * min(counts.values())

    def test_removal_rehomes_only_the_lost_keyslice(self):
        ring = HashRing(["a", "b", "c"])
        before = {key: ring.node_for(key) for key in KEYS}
        ring.remove("b")
        for key, owner in before.items():
            if owner == "b":
                assert ring.node_for(key) in ("a", "c")
            else:
                # the survivors' keyslices are untouched: caches stay hot
                assert ring.node_for(key) == owner

    def test_addition_steals_slivers_without_swapping_survivors(self):
        ring = HashRing(["a", "b"])
        before = {key: ring.node_for(key) for key in KEYS}
        ring.add("c")
        moved = 0
        for key, owner in before.items():
            after = ring.node_for(key)
            if after != owner:
                assert after == "c"  # keys only ever move TO the newcomer
                moved += 1
        assert 0 < moved < len(KEYS) / 2  # a sliver, not a reshuffle

    def test_nodes_for_prefers_distinct_nodes_in_failover_order(self):
        ring = HashRing(["a", "b", "c"])
        for key in KEYS[:50]:
            walk = ring.nodes_for(key)
            assert walk[0] == ring.node_for(key)
            assert sorted(walk) == ["a", "b", "c"]  # all distinct, all present

    def test_duplicate_and_missing_members_are_errors(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(ValueError):
            ring.remove("zz")

    def test_empty_ring_routes_nowhere(self):
        ring = HashRing()
        assert ring.node_for("k") is None
        assert ring.nodes_for("k") == []


class TestRoutingKey:
    def test_solve_routes_by_canonical_service_key(self):
        spaced = json.dumps({"pstar": 2.0, "collateral": 0.0}).encode()
        dense = b'{"collateral":0.0,"kind":"solve","pstar":2.0}'
        assert routing_key("POST", "/v1/solve", spaced) == routing_key(
            "POST", "/v1/solve", dense
        )

    def test_solve_and_validate_of_same_point_route_apart(self):
        body = b'{"pstar": 2.0}'
        assert routing_key("POST", "/v1/solve", body) != routing_key(
            "POST", "/v1/validate", body
        )

    def test_malformed_bodies_still_route_deterministically(self):
        junk = b"not json at all"
        assert routing_key("POST", "/v1/solve", junk) == routing_key(
            "POST", "/v1/solve", junk
        )

    def test_sweep_routes_by_normalised_query(self):
        a = routing_key("GET", "/v1/sweep?pstars=1.5,2.0&collateral=0.0", b"")
        b = routing_key("GET", "/v1/sweep?collateral=0.0&pstars=1.5,2.0", b"")
        assert a == b

    def test_batch_routes_by_body(self):
        one = routing_key("POST", "/v1/batch", b'{"pstar": 1.5}\n')
        two = routing_key("POST", "/v1/batch", b'{"pstar": 2.5}\n')
        assert one != two


@pytest.fixture()
def sharded(make_server):
    """A router over two real local-role replicas; yields (router, client)."""
    from repro.server.client import RetryPolicy, SwapClient

    def _make(router_config=None, **replica_kwargs):
        a = make_server(**replica_kwargs)
        b = make_server(**replica_kwargs)
        config = router_config if router_config is not None else ServerConfig()
        router = RouterServer(
            config, endpoints=[(a.host, a.port), (b.host, b.port)]
        ).start()
        client = SwapClient(
            f"http://127.0.0.1:{router.port}",
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05),
            timeout=30.0,
        )
        return router, client

    routers = []

    def _tracked(*args, **kwargs):
        router, client = _make(*args, **kwargs)
        routers.append(router)
        return router, client

    yield _tracked
    for router in routers:
        router.shutdown(drain=False)


class TestRouterServer:
    def test_identical_requests_stick_to_one_replica(self, registry, sharded):
        router, client = sharded()
        for _ in range(6):
            client.solve(pstar=2.0)
        counts = [
            counter_value(
                registry, "repro_router_requests_total", replica=name
            )
            for name in ("replica-0", "replica-1")
        ]
        assert sorted(counts) == [0.0, 6.0]  # all six on the home shard

    def test_distinct_keys_spread_across_replicas(self, registry, sharded):
        router, client = sharded()
        for i in range(12):
            client.solve(pstar=1.5 + i * 0.07)
        counts = [
            counter_value(
                registry, "repro_router_requests_total", replica=name
            )
            for name in ("replica-0", "replica-1")
        ]
        assert sum(counts) == 12.0
        assert min(counts) > 0.0  # both shards participate

    def test_replica_down_fault_heals_by_rerouting(self, registry, sharded):
        plan = InjectionPlan(
            faults=(FaultSpec(kind="replica_down", count=3),), seed=7
        )
        from repro.faults.injector import build_injector

        router, client = sharded()
        router.faults = build_injector(plan)
        baseline = client.solve(pstar=2.0).success_rate
        for _ in range(6):
            assert client.solve(pstar=2.0).success_rate == baseline
        assert (
            counter_value(
                registry, "repro_router_reroutes_total", reason="replica_down"
            )
            == 3.0
        )
        # healing was invisible: every request got the right answer
        assert router.faults.injected_total("replica_down") == 3

    def test_dead_replica_fails_over_and_trips_its_breaker(
        self, registry, sharded, make_server
    ):
        router, client = sharded()
        # replace one replica's endpoint with a dead port
        victim = router._links["replica-0"]
        live = router._links["replica-1"]
        victim.host, victim.port = "127.0.0.1", _claim_dead_port()
        victim.close_all()
        # pick pstars whose home shard IS the dead replica: the test is
        # deterministic, not a coin-flip over the keyspace
        doomed = [
            pstar
            for pstar in (round(1.5 + i * 0.05, 2) for i in range(40))
            if router.ring.node_for(_solve_key(pstar)) == "replica-0"
        ][:5]
        assert doomed, "no pstar hashed onto replica-0 (ring broken?)"
        for pstar in doomed:
            assert client.solve(pstar=pstar).success_rate is not None
        # every request answered; the dead shard's traffic re-routed
        assert (
            counter_value(registry, "repro_router_rejected_total", reason="no_replica")
            == 0.0
        )
        reroutes = counter_value(
            registry, "repro_router_reroutes_total", reason="connect_failed"
        ) + counter_value(
            registry, "repro_router_reroutes_total", reason="circuit_open"
        )
        assert reroutes == float(len(doomed))
        assert live.breaker.state == "closed"

    def test_all_replicas_dead_is_typed_no_replica(self, registry):
        config = ServerConfig(port=0)
        dead = _claim_dead_port()
        router = RouterServer(
            config, endpoints=[("127.0.0.1", dead), ("127.0.0.1", dead)]
        ).start()
        try:
            from repro.server.client import RetryPolicy, SwapClient
            from repro.server.client import ClientError

            client = SwapClient(
                f"http://127.0.0.1:{router.port}",
                retry=RetryPolicy(max_attempts=1, base_delay=0.01),
            )
            with pytest.raises(ClientError) as excinfo:
                client.solve(pstar=2.0)
            assert "no_replica" in str(excinfo.value)
            assert (
                counter_value(
                    registry, "repro_router_rejected_total", reason="no_replica"
                )
                > 0.0
            )
        finally:
            router.shutdown(drain=False)

    def test_readyz_publishes_the_replica_topology(self, sharded):
        router, client = sharded()
        import urllib.request

        with urllib.request.urlopen(
            f"http://127.0.0.1:{router.port}/readyz", timeout=10
        ) as response:
            document = json.loads(response.read())
        assert [entry["name"] for entry in document["replicas"]] == [
            "replica-0",
            "replica-1",
        ]
        assert document["replicas"][0]["url"].startswith("http://127.0.0.1:")

    def test_drain_rejects_api_but_answers_health(self, sharded):
        router, client = sharded()
        router._draining.set()
        import urllib.error
        import urllib.request

        with urllib.request.urlopen(
            f"http://127.0.0.1:{router.port}/healthz", timeout=10
        ) as response:
            assert response.status == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                urllib.request.Request(
                    f"http://127.0.0.1:{router.port}/v1/solve",
                    data=b'{"pstar": 2.0}',
                    headers={"Content-Type": "application/json"},
                ),
                timeout=10,
            )
        assert excinfo.value.code == 503
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "draining"
        assert body["error"]["retryable"] is True


def _solve_key(pstar: float) -> str:
    """The routing key of the client's ``solve(pstar=...)`` request."""
    body = json.dumps(
        {"kind": "solve", "pstar": pstar, "collateral": 0.0},
        separators=(",", ":"),
    ).encode("utf-8")
    return routing_key("POST", "/v1/solve", body)


def _claim_dead_port() -> int:
    """A loopback port that is bound to nothing (refuses connections)."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
