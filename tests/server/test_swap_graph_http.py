"""``POST /v1/swap-graph`` on both roles, plus active health probes.

The swap-graph route must behave exactly like the older result routes:
typed envelopes, cache semantics, and the same bytes from the local
role and from the router. The second half exercises the router's
active ``/readyz`` probe loop -- ejection of a replica that dies
between requests, readmission when it comes back, and the
``repro_router_probe_total`` counter that makes both visible.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.server import RouterServer, ServerConfig
from repro.server.wire import ResultReply
from repro.service.api import SwapService
from repro.service.requests import parse_request
from repro.swapgraph import SwapGraphResult, SwapGraphSpec
from tests.server.conftest import make_client, make_server  # noqa: F401
from tests.server.test_aio_parity import exchange, rendered, request_bytes

CYCLE = SwapGraphSpec.cycle(3).to_dict()
GRAPH_BODY = json.dumps(
    {"kind": "swap_graph", "spec": CYCLE, "n_lattice": 5}
).encode()


def wait_until(predicate, timeout: float = 8.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


class TestThreadedRoute:
    def test_client_round_trip(self, make_server, make_client):
        server = make_server()
        client = make_client(server)
        result = client.swap_graph(CYCLE, n_lattice=5)
        assert isinstance(result, SwapGraphResult)
        assert result.equilibrium.initiated
        assert sorted(result.equilibrium.utilities) == ["P0", "P1", "P2"]

    def test_replay_seed_round_trip(self, make_server, make_client):
        server = make_server()
        client = make_client(server)
        result = client.swap_graph(
            CYCLE, n_lattice=5, replay=True, replay_paths=40, seed=77
        )
        assert result.replay is not None
        assert result.replay.seed == 77
        assert result.replay.n_paths == 40

    def test_kind_mismatch_is_rejected(self, make_server):
        server = make_server()
        body = json.dumps({"kind": "solve", "pstar": 2.0}).encode()
        status, _headers, payload = exchange(
            server.port, request_bytes("POST", "/v1/swap-graph", body)
        )
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "invalid_request"

    def test_metrics_expose_swapgraph_families(self, make_server, make_client):
        server = make_server()
        client = make_client(server)
        client.swap_graph(CYCLE, n_lattice=5)
        text = client.metrics()
        assert "repro_swapgraph_solves_total" in text
        assert "repro_swapgraph_requests_total" in text


class TestRouterParity:
    @pytest.fixture()
    def both_stacks(self, make_server):
        """``(local_port, router_port)``: fresh caches on both roles."""
        local = make_server()
        replica = make_server()
        router = RouterServer(
            ServerConfig(port=0), endpoints=[(replica.host, replica.port)]
        ).start()
        yield local.port, router.port
        router.shutdown(drain=False)

    def test_swap_graph_byte_parity(self, both_stacks):
        reference = SwapService(max_workers=1)
        request = parse_request(json.loads(GRAPH_BODY))
        raw = request_bytes("POST", "/v1/swap-graph", GRAPH_BODY)
        for expect_cached in (False, True):
            item = reference.run_batch([request])[0]
            assert item.cached is expect_cached
            expected = rendered(ResultReply.from_item("swap_graph", item).to_dict())
            for port in both_stacks:
                status, headers, body = exchange(port, raw)
                assert (status, body) == (200, expected)
                assert headers.get("content-type") == "application/json"

    def test_router_counts_swap_graph_requests(self, both_stacks):
        _local_port, router_port = both_stacks
        raw = request_bytes("POST", "/v1/swap-graph", GRAPH_BODY)
        status, _headers, _body = exchange(router_port, raw)
        assert status == 200
        m_status, _m_headers, metrics = exchange(
            router_port, request_bytes("GET", "/metrics")
        )
        assert m_status == 200
        text = metrics.decode()
        assert 'repro_swapgraph_requests_total{source="router"}' in text


class TestActiveProbes:
    def test_eject_then_readmit(self, make_server):
        alive = make_server()
        doomed = make_server()
        doomed_port = doomed.port
        router = RouterServer(
            ServerConfig(port=0, probe_interval=0.05, probe_failures=2),
            endpoints=[(alive.host, alive.port), (doomed.host, doomed_port)],
        ).start()
        try:
            probes = router.router_metrics.probes
            assert wait_until(
                lambda: probes.value(replica="replica-0", outcome="ok") >= 1
            )

            doomed.shutdown(drain=False)
            assert wait_until(lambda: len(router.ring) == 1)
            assert probes.value(replica="replica-1", outcome="eject") == 1
            assert probes.value(replica="replica-1", outcome="fail") >= 2

            # requests keep flowing through the surviving replica
            status, _headers, body = exchange(
                router.port, request_bytes("POST", "/v1/swap-graph", GRAPH_BODY)
            )
            assert status == 200
            assert json.loads(body)["ok"] is True

            # resurrect the replica on its old port: the probe loop
            # must readmit it without operator action
            resurrected = make_server(port=doomed_port)
            assert resurrected.port == doomed_port
            assert wait_until(lambda: len(router.ring) == 2)
            assert probes.value(replica="replica-1", outcome="readmit") == 1
        finally:
            router.shutdown(drain=False)

    def test_probe_counter_in_metrics_text(self, make_server):
        replica = make_server()
        router = RouterServer(
            ServerConfig(port=0, probe_interval=0.05),
            endpoints=[(replica.host, replica.port)],
        ).start()
        try:
            probes = router.router_metrics.probes
            assert wait_until(
                lambda: probes.value(replica="replica-0", outcome="ok") >= 2
            )
            status, _headers, body = exchange(
                router.port, request_bytes("GET", "/metrics")
            )
            assert status == 200
            text = body.decode()
            # all outcomes materialised so dashboards see the zeros too
            for outcome in ("ok", "fail", "eject", "readmit"):
                assert (
                    f'repro_router_probe_total{{outcome="{outcome}",'
                    f'replica="replica-0"}}' in text
                )
        finally:
            router.shutdown(drain=False)

    def test_probes_off_by_default(self, make_server):
        replica = make_server()
        router = RouterServer(
            ServerConfig(port=0), endpoints=[(replica.host, replica.port)]
        ).start()
        try:
            # the registry is process-global, so assert on the *delta*
            probes = router.router_metrics.probes

            def total() -> float:
                return sum(
                    probes.value(replica="replica-0", outcome=outcome)
                    for outcome in ("ok", "fail", "eject", "readmit")
                )

            baseline = total()
            time.sleep(0.25)
            assert total() == baseline
        finally:
            router.shutdown(drain=False)
