"""Benchmark S6: the sharded tier under closed-loop load.

Not a paper artifact -- this prices the serving topology. A
closed-loop harness (N worker threads, each with its own keep-alive
connection, each firing its next request the instant the previous one
answers) drives warm single solves through three stacks:

* the S2 methodology (serial client, a fresh connection per request)
  against a single local-role server -- the recorded baseline's twin;
* a keep-alive closed loop against the single server;
* the same closed loop against the real sharded tier
  (``serve --replicas 2``: router + replica subprocesses).

The acceptance floor encodes the PR target: the sharded tier must
sustain at least **5x the S2 bench's recorded single-solve floor**
(S2 asserts >= 40 req/s; S6 asserts >= 200 req/s), beat the measured
S2-methodology baseline outright, and keep p99 bounded under
admission. On this 1-CPU container the shards cannot multiply
*compute* -- the headline win is the serving path itself (keep-alive
without the 40 ms Nagle/delayed-ACK stall the former thread-per-
connection stack used to hit, admission intact, failover for free); on a multi-core box the
replicas scale the solve capacity too.

Under ``REPRO_BENCH_SMOKE=1`` the timing floors are skipped and the
round counts shrink; the topology and correctness assertions remain.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import statistics
import threading
import time

from benchmarks.conftest import emit
from repro.server import RouterServer, ServerConfig, SwapServer
from repro.server.client import SwapClient

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
WARM_PSTARS = [1.6, 1.8, 2.0, 2.2]  # spread across both keyslices
ROUNDS_PER_WORKER = 40 if SMOKE else 400
SERIAL_ROUNDS = 30 if SMOKE else 200
CONCURRENCY = 8
S2_FLOOR_RPS = 40.0  # the S2 bench's own CI-safe single-solve floor

BODIES = [
    json.dumps(
        {"kind": "solve", "pstar": pstar, "collateral": 0.0},
        separators=(",", ":"),
    ).encode()
    for pstar in WARM_PSTARS
]


class _NoDelayConnection(http.client.HTTPConnection):
    """Keep-alive connection with Nagle off (the harness must never
    measure its own socket buffering)."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def closed_loop(port: int, concurrency: int, rounds: int):
    """``concurrency`` keep-alive workers, ``rounds`` requests each.

    Returns ``(rps, p50_seconds, p99_seconds)`` over all requests.
    """
    latencies = []
    lock = threading.Lock()
    failures = []

    def worker(offset: int) -> None:
        connection = _NoDelayConnection("127.0.0.1", port, timeout=60)
        mine = []
        try:
            for i in range(rounds):
                body = BODIES[(offset + i) % len(BODIES)]
                t0 = time.perf_counter()
                connection.request(
                    "POST",
                    "/v1/solve",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = response.read()
                if response.status != 200 or not json.loads(payload)["ok"]:
                    failures.append((response.status, payload[:200]))
                    return
                mine.append(time.perf_counter() - t0)
        finally:
            connection.close()
            with lock:
                latencies.extend(mine)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    assert not failures, f"closed loop saw failures: {failures[:3]}"
    ordered = sorted(latencies)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    return len(ordered) / wall, p50, p99


def _warm(port: int) -> None:
    client = SwapClient(f"http://127.0.0.1:{port}", timeout=60.0)
    for pstar in WARM_PSTARS:
        client.solve(pstar=pstar)


def _fmt(label: str, rps: float, p50: float, p99: float) -> str:
    return (
        f"{label}: {rps:.0f} req/s  p50={p50 * 1e3:.2f}ms  p99={p99 * 1e3:.2f}ms"
    )


def test_sharded_closed_loop_throughput():
    config = dict(workers=4, queue_depth=64)
    single = SwapServer(ServerConfig(port=0, **config)).start()
    router = RouterServer(
        ServerConfig(port=0, replicas=2, **config)
    )
    try:
        router.start()
        _warm(single.port)
        _warm(router.port)

        # the S2 methodology: serial, fresh connection per request
        serial_client = SwapClient(
            f"http://127.0.0.1:{single.port}", timeout=60.0
        )
        t0 = time.perf_counter()
        for i in range(SERIAL_ROUNDS):
            serial_client.solve(pstar=WARM_PSTARS[i % len(WARM_PSTARS)])
        serial_rps = SERIAL_ROUNDS / (time.perf_counter() - t0)

        single_rps, single_p50, single_p99 = closed_loop(
            single.port, CONCURRENCY, ROUNDS_PER_WORKER
        )
        sharded_rps, sharded_p50, sharded_p99 = closed_loop(
            router.port, CONCURRENCY, ROUNDS_PER_WORKER
        )

        # both shards took traffic (the keyspace really is split)
        metrics_text = SwapClient(
            f"http://127.0.0.1:{router.port}", timeout=60.0
        ).metrics()
        per_replica = {
            line.split("{")[1].split("}")[0]: float(line.rsplit(" ", 1)[1])
            for line in metrics_text.splitlines()
            if line.startswith("repro_router_requests_total{")
        }
        assert len(per_replica) == 2
        assert min(per_replica.values()) > 0

        emit(
            "S6 sharded tier, closed-loop warm single solves",
            "\n".join(
                [
                    f"serial urllib (S2 methodology): {serial_rps:.0f} req/s",
                    _fmt(
                        f"single    keep-alive c={CONCURRENCY}",
                        single_rps,
                        single_p50,
                        single_p99,
                    ),
                    _fmt(
                        f"sharded x2 keep-alive c={CONCURRENCY}",
                        sharded_rps,
                        sharded_p50,
                        sharded_p99,
                    ),
                    f"sharded vs S2 floor ({S2_FLOOR_RPS:.0f} req/s): "
                    f"{sharded_rps / S2_FLOOR_RPS:.1f}x",
                    f"router traffic split: {per_replica}",
                ]
            ),
        )

        if not SMOKE:
            # the PR target: >= 5x the S2 single-solve floor, beating
            # the S2-methodology baseline outright, p99 bounded
            assert sharded_rps >= 5.0 * S2_FLOOR_RPS
            assert sharded_rps > serial_rps
            assert sharded_p99 < 0.1
    finally:
        router.shutdown(drain=False)
        single.shutdown(drain=False)


def test_sharded_failover_costs_one_reroute_not_an_outage():
    """Kill one replica mid-load: the closed loop must keep answering
    (fail-over + breaker), with zero failed requests."""
    config = dict(workers=2, queue_depth=64)
    router = RouterServer(ServerConfig(port=0, replicas=2, **config))
    try:
        router.start()
        _warm(router.port)
        victim = router._replica_set.replicas[0]
        victim.stop(drain=False)
        rps, p50, p99 = closed_loop(
            router.port, 4, 20 if SMOKE else 100
        )
        emit(
            "S6 failover (one replica killed mid-run)",
            _fmt("sharded x1-of-2", rps, p50, p99),
        )
        assert rps > 0  # closed_loop already asserted zero failures
    finally:
        router.shutdown(drain=False)
