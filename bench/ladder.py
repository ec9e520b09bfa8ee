"""The layer ladder and the layer microbenchmarks of the traced run.

The ladder times one warm solve (Table III, P*=2) at each rung of the
serving path, serially, so that subtracting adjacent rungs attributes
each hop:

=====================  ==========================================
``engine_n1``          ``solve_grid(params, [2.0])``
``scalar``             ``solve_swap_game(params, 2.0)``
``service_hit``        ``SwapService.run_batch`` of a cached key
``service_miss``       ``SwapService.run_batch`` of a new key
``http_direct``        ``POST /v1/solve`` to one replica (a hit)
``http_router``        the same through the router (a hit)
=====================  ==========================================

ROADMAP item 3's first gate, "engine n=1 beats scalar", reads
``ladder.engine_n1_ms < ladder.scalar_ms``. The two HTTP rungs also
diff the servers' ``/metrics``: the replica's handler time and the
router's proxy time for the same requests.

The microbenchmarks time layers that not every workload calls: a
2000-path Monte Carlo validation, and one 56-job ``WorkerPool.map``
with two workers against the same jobs mapped serially.
"""

from __future__ import annotations

import itertools
import statistics
import time
from typing import Callable, Dict, List

from bench import mixes
from bench.loadgen import Connection, ServerProcess, build_request, delta_sum, fetch, scrape
from bench.stats import metric, percentile
from repro.core.engine import solve_grid
from repro.core.parameters import SwapParameters
from repro.core.solver import solve_swap_game
from repro.service.api import SwapService
from repro.service.executor import WorkerPool
from repro.service.keys import derive_seed, request_key
from repro.service.requests import SolveRequest
from repro.simulation.montecarlo import empirical_success_rate

SOLVE_WIRE = build_request("POST", "/v1/solve", b'{"pstar":2.0}')


def serial_seconds(call: Callable[[], object], samples: int, clock=time.perf_counter) -> List[float]:
    """One untimed warm call, then ``samples`` timed calls back to back."""
    call()
    out = []
    for _ in range(samples):
        started = clock()
        call()
        out.append(clock() - started)
    return out


def rung_metrics(name: str, seconds: List[float]) -> Dict[str, dict]:
    return {
        f"ladder.{name}_ms": metric(percentile(seconds, 50) * 1e3, "ms", len(seconds)),
        f"ladder.{name}_p90_ms": metric(percentile(seconds, 90) * 1e3, "ms", len(seconds)),
    }


def _http_rung(url: str, samples: int, failures: List[str]) -> List[float]:
    """Serial hits on one keep-alive connection; the caller has already
    sent the key once, so every request in the window is a cache hit."""
    conn = Connection(url)

    def call() -> None:
        status, body = conn.exchange(SOLVE_WIRE)
        if status != 200 or not body.startswith(b'{"ok":true'):
            failures.append(f"ladder request to {url} answered {status}")

    try:
        return serial_seconds(call, samples)
    finally:
        conn.close()


def _mean_ms(before: Dict, after: Dict, family: str, where=lambda labels: True) -> float:
    """Mean of a histogram family's observations between two scrapes."""
    count = delta_sum(before, after, f"{family}_count", where)
    return delta_sum(before, after, f"{family}_sum", where) / count * 1e3


def run_ladder(env: Dict[str, str], samples: int, failures: List[str]) -> Dict[str, dict]:
    """Every rung's p50 (gated name) and p90; HTTP rungs on a fresh
    ``serve --replicas 2``."""
    params = SwapParameters.default()
    out: Dict[str, dict] = {}
    out.update(rung_metrics("engine_n1", serial_seconds(lambda: solve_grid(params, [2.0]), samples)))
    out.update(rung_metrics("scalar", serial_seconds(lambda: solve_swap_game(params, 2.0), samples)))
    hit_service = SwapService()
    hit = [SolveRequest(pstar=2.0)]
    out.update(rung_metrics("service_hit", serial_seconds(lambda: hit_service.run_batch(hit), samples)))
    miss_service = SwapService()
    fresh = itertools.count(1)
    out.update(
        rung_metrics(
            "service_miss",
            serial_seconds(
                lambda: miss_service.run_batch([SolveRequest(pstar=2.0 + next(fresh) * 1e-7)]),
                samples,
            ),
        )
    )
    with ServerProcess(env, replicas=2) as server:
        replica = server.replica_urls[0]
        fetch(replica, SOLVE_WIRE)
        fetch(server.url, SOLVE_WIRE)
        before = scrape(replica)
        direct = _http_rung(replica, samples, failures)
        after = scrape(replica)
        out.update(rung_metrics("http_direct", direct))
        on_solve = lambda labels: labels.get("route") == "/v1/solve"  # noqa: E731
        out["ladder.http_handler_ms"] = metric(
            _mean_ms(before, after, "repro_http_request_seconds", on_solve), "ms", len(direct) + 1
        )
        before = scrape(server.url)
        routed = _http_rung(server.url, samples, failures)
        after = scrape(server.url)
        out.update(rung_metrics("http_router", routed))
        out["ladder.router_proxy_ms"] = metric(
            _mean_ms(before, after, "repro_router_proxy_seconds"), "ms", len(routed) + 1
        )
    return out


def run_microbenchmarks(samples: int, rounds: int) -> Dict[str, dict]:
    """``simulation.validate.ms`` and the worker pool's cost against a
    serial replay of the same jobs (base: the serial map's wall time)."""
    params = SwapParameters.default()
    validate = serial_seconds(
        lambda: empirical_success_rate(params, 2.0, n_paths=mixes.VALIDATE_PATHS, seed=7), samples
    )
    batch = mixes.fresh_batch(mixes.stream(0, mixes.SAMPLING))
    unique = list(dict.fromkeys(batch))
    jobs = [
        (request, derive_seed(request_key(request)) if hasattr(request, "n_paths") else None)
        for request in unique
    ]
    pooled = serial_seconds(lambda: WorkerPool(max_workers=2).map(jobs), rounds)
    serial = serial_seconds(lambda: WorkerPool(max_workers=1).map(jobs), rounds)
    pooled_ms = statistics.median(pooled) * 1e3
    serial_ms = statistics.median(serial) * 1e3
    return {
        "simulation.validate.ms": metric(percentile(validate, 50) * 1e3, "ms", len(validate)),
        "service.pool_map.ms": metric(pooled_ms, "ms", len(pooled), jobs=len(jobs)),
        "service.pool_serial.ms": metric(serial_ms, "ms", len(serial), jobs=len(jobs)),
        "service.pool.overhead_ratio": metric(
            pooled_ms / serial_ms, "ratio", len(pooled), base="serial map of the same jobs"
        ),
    }
