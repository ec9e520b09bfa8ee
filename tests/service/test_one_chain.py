"""One answer chain for every ``SwapService`` entry point.

``run_batch`` and ``sweep`` share the source ladder, so a batch of
solves sharing ``(params, Q)`` is bit-for-bit the sweep of the same
grid; solve groups of ``ENGINE_MIN_POINTS`` or more coalesce onto one
grid-engine pass, smaller ones stay on the scalar rung.
"""

from __future__ import annotations

import json

import pytest

from repro.core.collateral import solve_collateral_game
from repro.core.solver import solve_swap_game
from repro.faults import FaultSpec, InjectionPlan
from repro.obs.metrics import Registry, use_registry
from repro.server.config import ServerConfig
from repro.service.api import SwapService
from repro.service.keys import request_key
from repro.service.requests import SolveRequest, ValidateRequest
from repro.service.serialize import encode_result
from repro.service.sources import ENGINE_MIN_POINTS

PSTARS = [1.7, 1.9, 2.0, 2.2, 2.4]


@pytest.fixture()
def registry():
    fresh = Registry()
    with use_registry(fresh):
        yield fresh


def grid_solves(registry) -> float:
    metric = registry.snapshot().get("repro_grid_solves_total")
    return 0.0 if metric is None else sum(s["value"] for s in metric["samples"])


def encoded(items):
    return [json.dumps(encode_result(item.value), sort_keys=True) for item in items]


class TestBatchIsASweep:
    def test_shared_solves_equal_the_sweep_bit_for_bit(self, registry, params):
        batch = SwapService().run_batch(
            [SolveRequest(pstar=p, params=params) for p in PSTARS]
        )
        sweep = SwapService().sweep(PSTARS, params=params)
        assert [item.key for item in batch] == [item.key for item in sweep]
        assert [item.source for item in batch] == [item.source for item in sweep]
        assert {item.source for item in batch} == {"engine"}
        assert [item.value for item in batch] == [item.value for item in sweep]
        assert encoded(batch) == encoded(sweep)

    def test_sweep_keys_are_the_tolerance_less_request_keys(self, params):
        items = SwapService().sweep(PSTARS, params=params, tolerance=1e-2)
        assert [item.key for item in items] == [
            request_key(SolveRequest(pstar=p, params=params)) for p in PSTARS
        ]
        assert all(item.key.startswith("v5-") for item in items)

    def test_engine_answers_stay_within_1e9_of_the_scalar_solve(self, params):
        items = SwapService().run_batch(
            [SolveRequest(pstar=p, collateral=0.5, params=params) for p in PSTARS]
        )
        for pstar, item in zip(PSTARS, items):
            assert item.source == "engine"
            exact = solve_collateral_game(params, pstar, 0.5).success_rate
            assert item.value.success_rate == pytest.approx(exact, abs=1e-9)


class TestGrouping:
    def test_mixed_batch_makes_one_grid_pass_per_large_group(
        self, registry, params
    ):
        wide = params.replace(sigma=0.12)
        requests = (
            [SolveRequest(pstar=p, params=params) for p in PSTARS[:4]]
            + [SolveRequest(pstar=p, collateral=0.5, params=params) for p in PSTARS[:3]]
            + [SolveRequest(pstar=p, params=wide) for p in PSTARS[:2]]
            + [SolveRequest(pstar=2.0, collateral=0.25, params=params)]
            + [ValidateRequest(pstar=2.0, n_paths=500, seed=3, params=params)]
        )
        items = SwapService().run_batch(requests)
        assert all(item.ok for item in items)
        assert [item.source for item in items] == ["engine"] * 7 + ["scalar"] * 4
        assert grid_solves(registry) == 2
        # the scalar rung's answers are the scalar solver's, bit for bit
        for request, item in zip(requests[7:9], items[7:9]):
            assert item.value == solve_swap_game(request.params, request.pstar)

    def test_group_size_cut(self, registry, params):
        below = [SolveRequest(pstar=p, params=params) for p in PSTARS[: ENGINE_MIN_POINTS - 1]]
        assert {i.source for i in SwapService().run_batch(below)} == {"scalar"}
        assert grid_solves(registry) == 0
        at = [SolveRequest(pstar=p, params=params) for p in PSTARS[:ENGINE_MIN_POINTS]]
        assert {i.source for i in SwapService().run_batch(at)} == {"engine"}
        assert grid_solves(registry) == 1

    def test_tolerances_do_not_split_an_engine_group(self, registry, params):
        requests = [
            SolveRequest(pstar=p, params=params, tolerance=t)
            for p, t in zip(PSTARS[:3], (None, 0.0, 1e-3))
        ]
        items = SwapService().run_batch(requests)
        assert {item.source for item in items} == {"engine"}
        assert grid_solves(registry) == 1

    def test_engine_error_degrades_only_its_group(self, registry, params):
        plan = InjectionPlan(
            faults=(FaultSpec(kind="engine_error", count=1),), seed=0
        )
        service = SwapService(faults=plan)
        requests = [SolveRequest(pstar=p, params=params) for p in PSTARS[:3]] + [
            SolveRequest(pstar=p, collateral=0.5, params=params) for p in PSTARS[:3]
        ]
        items = service.run_batch(requests)
        assert [item.source for item in items] == ["scalar"] * 3 + ["engine"] * 3
        for pstar, item in zip(PSTARS, items[:3]):
            assert item.value == solve_swap_game(params, pstar)
        snap = registry.snapshot()["repro_degraded_total"]["samples"]
        assert [s["value"] for s in snap if s["labels"]["path"] == "engine_to_scalar"] == [1]


class TestTolerance:
    def test_service_tolerance_is_validated(self):
        with pytest.raises(ValueError, match="tolerance"):
            SwapService(max_workers=1, tolerance=-1.0)
        with pytest.raises(ValueError, match="tolerance"):
            SwapService(max_workers=1, tolerance=float("nan"))

    def test_config_tolerance_is_validated(self):
        with pytest.raises(ValueError, match="tolerance"):
            ServerConfig(tolerance=-0.5)
        assert ServerConfig(tolerance=5e-3).tolerance == 5e-3

    def test_surface_tolerance_spellings_are_gone(self):
        with pytest.raises(TypeError):
            SwapService(surface_tolerance=1e-2)  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            ServerConfig(surface_tolerance=1e-2)  # type: ignore[call-arg]
