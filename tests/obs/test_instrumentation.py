"""End-to-end: the serving stack populates the expected metric families."""

from __future__ import annotations

import threading

import pytest

from repro.core.parameters import SwapParameters
from repro.obs.exporters import to_prometheus_text
from repro.obs.metrics import NullRegistry, Registry, use_registry
from repro.service.api import SwapService
from repro.service.requests import SolveRequest, ValidateRequest


@pytest.fixture()
def registry():
    r = Registry()
    with use_registry(r):
        yield r


def _solve_requests(params, pstars):
    return [SolveRequest(pstar=p, params=params) for p in pstars]


def _pooled_solves(params, pstars):
    """Solves the answer chain sends to the worker pool: each distinct
    P* carries its own params, so no group is large enough for the
    grid engine."""
    return [
        SolveRequest(pstar=p, params=params.replace(sigma=params.sigma + p / 100))
        for p in pstars
    ]


class TestServiceInstrumentation:
    def test_batch_populates_expected_families(self, registry, params):
        service = SwapService(max_workers=1)
        service.run_batch(_pooled_solves(params, [1.9, 2.0, 2.0, 2.1]))
        snap = registry.snapshot()
        for family in (
            "repro_batches_total",
            "repro_batch_requests_total",
            "repro_batch_deduped_total",
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_stage_seconds",
            "repro_pool_tasks_total",
            "repro_pool_task_seconds",
            "repro_pool_workers",
            "repro_solver_calls_total",
            "repro_solver_seconds",
        ):
            assert family in snap, f"missing metric family {family}"

    def test_batch_counter_arithmetic(self, registry, params):
        service = SwapService(max_workers=1)
        # 4 requests, one in-batch duplicate -> 3 unique solves
        service.run_batch(_pooled_solves(params, [1.9, 2.0, 2.0, 2.1]))
        counters = registry.counter("repro_batch_requests_total")
        assert counters.value() == 4
        assert registry.counter("repro_batch_deduped_total").value() == 1
        solver_calls = registry.counter(
            "repro_solver_calls_total", labelnames=("solver",)
        )
        assert solver_calls.value(solver="swap") == 3

    def test_cache_hits_show_up_on_second_batch(self, registry, params):
        service = SwapService(max_workers=1)
        requests = _solve_requests(params, [2.0, 2.1])
        service.run_batch(requests)
        service.run_batch(requests)
        hits = registry.counter(
            "repro_cache_hits_total", labelnames=("tier",)
        )
        assert hits.value(tier="memory") == 2

    def test_stage_spans_recorded_per_batch(self, registry, params):
        service = SwapService(max_workers=1)
        service.run_batch(_solve_requests(params, [2.0]))
        stage = registry.histogram(
            "repro_stage_seconds", labelnames=("stage",)
        )
        assert stage.count(stage="batch.canonicalise") == 1
        assert stage.count(stage="batch.cache_lookup") == 1
        assert stage.count(stage="batch.execute") == 1

    def test_validate_records_montecarlo_metrics(self, registry, params):
        service = SwapService(max_workers=1)
        request = ValidateRequest(
            pstar=2.0, params=params, n_paths=500, seed=7
        )
        service.run_batch([request])
        paths = registry.counter(
            "repro_mc_paths_total", labelnames=("level",)
        )
        assert paths.value(level="strategy") == 500

    def test_prometheus_export_of_a_served_batch(self, registry, params):
        service = SwapService(max_workers=1)
        service.run_batch(_solve_requests(params, [2.0, 2.0]))
        text = to_prometheus_text(registry)
        assert 'repro_cache_hits_total{tier="memory"} 0' in text
        assert "repro_batches_total 1" in text
        assert 'repro_stage_seconds_bucket{le="+Inf",stage="batch.execute"} 1' in text

    def test_concurrent_batches_keep_counters_consistent(self, registry, params):
        service = SwapService(max_workers=1)
        n_threads, per_batch = 6, 3
        grids = [
            [1.8 + 0.01 * (i * per_batch + j) for j in range(per_batch)]
            for i in range(n_threads)
        ]

        def worker(grid):
            service.run_batch(_solve_requests(params, grid))

        threads = [
            threading.Thread(target=worker, args=(grid,)) for grid in grids
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("repro_batches_total").value() == n_threads
        assert (
            registry.counter("repro_batch_requests_total").value()
            == n_threads * per_batch
        )

    def test_null_registry_silences_the_whole_stack(self, params):
        null = NullRegistry()
        with use_registry(null):
            service = SwapService(max_workers=1)
            items = service.run_batch(_solve_requests(params, [2.0]))
        assert items[0].ok
        assert null.snapshot() == {}
