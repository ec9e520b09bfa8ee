"""The router's authenticated admin surface: live resharding.

Runs the real router over real local-role replicas (static
endpoints, so no subprocess cold starts) and exercises the control
plane end to end: bearer auth, the topology document, url-mode add and
two-phase remove under traffic, conflict races, the
``admin_partition`` chaos kind, and the hot-key response cache with
its epoch-wide invalidation.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.faults import FaultSpec, InjectionPlan
from repro.faults.injector import build_injector
from repro.server import RouterServer, ServerConfig
from repro.server.client import (
    RetryPolicy,
    ServerReplyError,
    SwapClient,
)
from repro.server.router import routing_key
from tests.faults.conftest import counter_value, registry  # noqa: F401
from tests.server.conftest import make_client, make_server  # noqa: F401

TOKEN = "swordfish"


def _solve_key(pstar: float) -> str:
    body = json.dumps(
        {"kind": "solve", "pstar": pstar, "collateral": 0.0},
        separators=(",", ":"),
    ).encode("utf-8")
    return routing_key("POST", "/v1/solve", body)


def _pstars_homing_on(router, name: str, count: int = 3):
    found = [
        pstar
        for pstar in (round(1.5 + i * 0.05, 2) for i in range(60))
        if router.ring.node_for(_solve_key(pstar)) == name
    ][:count]
    assert found, f"no pstar hashed onto {name} (ring broken?)"
    return found


@pytest.fixture()
def admin_sharded(make_server):
    """A router (admin surface on) over two local-role replicas."""

    routers = []

    def _make(router_config=None, **client_kwargs):
        a = make_server()
        b = make_server()
        config = (
            router_config
            if router_config is not None
            else ServerConfig(admin_token=TOKEN)
        )
        router = RouterServer(
            config, endpoints=[(a.host, a.port), (b.host, b.port)]
        ).start()
        routers.append(router)
        client_kwargs.setdefault(
            "retry", RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)
        )
        client_kwargs.setdefault("timeout", 30.0)
        client_kwargs.setdefault("admin_token", TOKEN)
        client = SwapClient(
            f"http://127.0.0.1:{router.port}", **client_kwargs
        )
        return router, client

    yield _make
    for router in routers:
        router.shutdown(drain=False)


class TestAdminAuth:
    def test_without_a_configured_token_the_surface_is_disabled(
        self, registry, admin_sharded
    ):
        router, client = admin_sharded(
            router_config=ServerConfig()  # no admin_token
        )
        with pytest.raises(ServerReplyError) as excinfo:
            client.admin_topology()
        assert excinfo.value.status == 403
        assert excinfo.value.error["code"] == "unauthorized"
        assert "disabled" in str(excinfo.value)

    def test_bad_token_is_refused(self, registry, admin_sharded):
        router, client = admin_sharded(admin_token="wrong")
        with pytest.raises(ServerReplyError) as excinfo:
            client.admin_remove("replica-0")
        assert excinfo.value.status == 403
        # ... and the refusal changed nothing
        assert sorted(router.ring.nodes) == ["replica-0", "replica-1"]

    def test_admin_requests_bypass_the_admission_gate(
        self, registry, admin_sharded
    ):
        router, client = admin_sharded()
        # fill the gate to the brim; the control plane must still answer
        for _ in range(router.config.queue_depth):
            assert router.gate.admit("/v1/solve") is None
        try:
            assert client.admin_topology()["ok"] is True
        finally:
            for _ in range(router.config.queue_depth):
                router.gate.leave()


class TestTopologyDocument:
    def test_reports_ring_replicas_and_admission(self, registry, admin_sharded):
        router, client = admin_sharded()
        doc = client.admin_topology()
        assert doc["ok"] is True
        assert doc["epoch"] == 1
        assert sorted(doc["ring"]) == ["replica-0", "replica-1"]
        by_name = {entry["name"]: entry for entry in doc["replicas"]}
        assert set(by_name) == {"replica-0", "replica-1"}
        for entry in by_name.values():
            assert entry["url"].startswith("http://127.0.0.1:")
            assert entry["on_ring"] is True
            assert entry["draining"] is False
            # static endpoints are externally managed: no supervisor
            assert "supervisor" not in entry
        assert doc["admission"]["depth"] == router.config.queue_depth

    @pytest.mark.parametrize(
        "method, path, allow",
        [
            ("POST", "/admin/v1/topology", "GET, HEAD"),
            ("GET", "/admin/v1/replicas", "POST"),
        ],
    )
    def test_wrong_method_is_405_with_allow(
        self, registry, admin_sharded, method, path, allow
    ):
        router, _client = admin_sharded()
        conn = http.client.HTTPConnection("127.0.0.1", router.port, timeout=10.0)
        try:
            conn.request(
                method,
                path,
                body=b"{}" if method == "POST" else None,
                headers={"Authorization": f"Bearer {TOKEN}"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert (response.status, response.getheader("Allow")) == (405, allow)
        assert body["error"]["code"] == "method_not_allowed"


class TestLiveReshard:
    def test_url_add_grows_the_ring_and_takes_traffic(
        self, registry, admin_sharded, make_server
    ):
        router, client = admin_sharded()
        baseline = client.solve(pstar=2.0).success_rate
        third = make_server()
        reply = client.admin_add(
            url=f"http://127.0.0.1:{third.port}", name="replica-2"
        )
        assert reply["ok"] is True
        assert reply["name"] == "replica-2"
        assert reply["epoch"] == 2
        assert sorted(router.ring.nodes) == [
            "replica-0",
            "replica-1",
            "replica-2",
        ]
        # the newcomer's keyslice really routes to it, correctly
        for pstar in _pstars_homing_on(router, "replica-2"):
            assert client.solve(pstar=pstar).success_rate is not None
        assert (
            counter_value(
                registry, "repro_router_requests_total", replica="replica-2"
            )
            >= 3.0
        )
        # the old shards' keys did not move (caches stay hot)
        assert client.solve(pstar=2.0).success_rate == baseline

    def test_duplicate_name_is_a_conflict(
        self, registry, admin_sharded, make_server
    ):
        router, client = admin_sharded()
        third = make_server()
        with pytest.raises(ServerReplyError) as excinfo:
            client.admin_add(
                url=f"http://127.0.0.1:{third.port}", name="replica-0"
            )
        assert excinfo.value.status == 409
        assert excinfo.value.error["code"] == "conflict"

    def test_remove_drains_and_shrinks_the_ring(self, registry, admin_sharded):
        router, client = admin_sharded()
        victim = router.ring.node_for(_solve_key(2.0))
        survivor = next(n for n in router.ring.nodes if n != victim)
        baseline = client.solve(pstar=2.0).success_rate
        reply = client.admin_remove(victim)
        assert reply["ok"] is True
        assert reply["drained"] is True
        assert reply["epoch"] == 2
        assert router.ring.nodes == [survivor]
        # the removed shard's keys re-homed; answers stay correct
        assert client.solve(pstar=2.0).success_rate == baseline
        assert router.ring.node_for(_solve_key(2.0)) == survivor

    def test_unknown_replica_is_an_invalid_request(
        self, registry, admin_sharded
    ):
        router, client = admin_sharded()
        with pytest.raises(ServerReplyError) as excinfo:
            client.admin_remove("replica-99")
        assert excinfo.value.status == 400

    def test_the_last_ring_member_cannot_be_removed(
        self, registry, admin_sharded
    ):
        router, client = admin_sharded()
        client.admin_remove("replica-1")
        with pytest.raises(ServerReplyError) as excinfo:
            client.admin_remove("replica-0")
        assert excinfo.value.status == 409
        assert excinfo.value.error["code"] == "conflict"
        # the fleet still serves
        assert client.solve(pstar=2.0).success_rate is not None


class TestAdminPartition:
    def test_partition_is_typed_retryable_and_heals(
        self, registry, admin_sharded
    ):
        router, client = admin_sharded()
        plan = InjectionPlan(
            faults=(FaultSpec(kind="admin_partition", count=1),), seed=5
        )
        router.faults = build_injector(plan)
        # the first attempt eats the injected 503; the client's retry
        # policy resubmits and the healed surface answers
        doc = client.admin_topology()
        assert doc["ok"] is True
        assert router.faults.injected_total("admin_partition") == 1

    def test_partition_without_retries_is_a_clean_503(
        self, registry, admin_sharded
    ):
        router, client = admin_sharded(
            retry=RetryPolicy(max_attempts=1, base_delay=0.01)
        )
        plan = InjectionPlan(
            faults=(FaultSpec(kind="admin_partition", count=1),), seed=5
        )
        router.faults = build_injector(plan)
        from repro.server.client import RetriesExhaustedError

        with pytest.raises(RetriesExhaustedError):
            client.admin_topology()
        # the data plane was never partitioned
        assert client.solve(pstar=2.0).success_rate is not None


class TestRouterResponseCache:
    def _cached_router(self, admin_sharded):
        return admin_sharded(
            router_config=ServerConfig(admin_token=TOKEN, router_cache=8)
        )

    def test_identical_requests_hit_after_one_proxy(
        self, registry, admin_sharded
    ):
        router, client = self._cached_router(admin_sharded)
        first = client.solve(pstar=2.0).success_rate
        for _ in range(3):
            assert client.solve(pstar=2.0).success_rate == first
        proxied = sum(
            counter_value(
                registry, "repro_router_requests_total", replica=name
            )
            for name in ("replica-0", "replica-1")
        )
        assert proxied == 1.0  # one miss filled the cache
        events = "repro_router_cache_events_total"
        assert counter_value(registry, events, event="miss") == 1.0
        assert counter_value(registry, events, event="hit") == 3.0

    def test_epoch_change_invalidates_wholesale(
        self, registry, admin_sharded, make_server
    ):
        router, client = self._cached_router(admin_sharded)
        baseline = client.solve(pstar=2.0).success_rate
        assert client.solve(pstar=2.0).success_rate == baseline  # hit
        third = make_server()
        client.admin_add(url=f"http://127.0.0.1:{third.port}")
        events = "repro_router_cache_events_total"
        assert counter_value(registry, events, event="invalidate") == 1.0
        # stale-shard answers can never be served: the next identical
        # request re-proxies on the new topology
        assert client.solve(pstar=2.0).success_rate == baseline
        assert counter_value(registry, events, event="miss") == 2.0

    def test_capacity_evicts_least_recently_used(
        self, registry, admin_sharded
    ):
        router, client = self._cached_router(admin_sharded)
        for i in range(10):  # capacity 8: two evictions
            client.solve(pstar=round(1.5 + i * 0.05, 2))
        events = "repro_router_cache_events_total"
        assert counter_value(registry, events, event="evict") == 2.0
        assert len(router._response_cache) == 8

    def test_cache_off_by_default(self, registry, admin_sharded):
        router, client = admin_sharded()
        for _ in range(3):
            client.solve(pstar=2.0)
        assert (
            counter_value(
                registry, "repro_router_cache_events_total", event="hit"
            )
            == 0.0
        )
        assert len(router._response_cache) == 0
