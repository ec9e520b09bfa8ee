"""The answer-source chain: ordering, accounting, exactness contracts.

The load-bearing promises: the surface rung answers only what it can
certify within the granted tolerance, everything else falls through to
*exact* rungs bit-identically to a surface-less service, tier
transitions are observable, and approximate answers never pollute the
exact-result cache.
"""

from __future__ import annotations

import pytest

from repro.service import (
    CacheSource,
    EngineSource,
    ScalarSource,
    SourceChain,
    SurfaceSource,
    SwapService,
)
from repro.service.requests import SolveRequest
from tests.surface.conftest import counter_value


@pytest.fixture()
def service(registry, metered_surface):
    """A serial service with the 1-D surface installed and a granted
    service-wide tolerance."""
    return SwapService(surface=metered_surface, tolerance=1e-2)


class TestChainShape:
    def test_surface_rung_only_when_loaded(self, service):
        kinds = [type(source) for source in service._chain.sources]
        assert kinds == [SurfaceSource, CacheSource, EngineSource, ScalarSource]
        bare = SwapService()
        assert [type(s) for s in bare._chain.sources] == [
            CacheSource,
            EngineSource,
            ScalarSource,
        ]

    def test_chain_build_is_importable_from_service(self):
        assert SourceChain.build is not None


class TestSweepRouting:
    def test_on_surface_points_interpolate_rest_fall_through(
        self, registry, service
    ):
        # 1.7 and 2.0 sit on the surface; 3.5 is beyond the pstar axis
        # and, a group of one, falls to the scalar rung
        items = service.sweep([1.7, 2.0, 3.5])
        assert [item.source for item in items] == ["surface", "surface", "scalar"]
        assert all(item.ok for item in items)
        assert counter_value(registry, "repro_surface_hits_total") == 2
        assert (
            counter_value(
                registry, "repro_degraded_total", path="surface_to_engine"
            )
            == 1
        )

    def test_all_surface_sweep_counts_no_transition(self, registry, service):
        items = service.sweep([1.8, 2.0, 2.2])
        assert {item.source for item in items} == {"surface"}
        assert (
            counter_value(
                registry, "repro_degraded_total", path="surface_to_engine"
            )
            == 0
        )

    def test_tolerance_zero_demands_exactness(self, registry, service):
        items = service.sweep([1.8, 2.0], tolerance=0.0)
        assert {item.source for item in items} == {"scalar"}
        # not consulted at all: no transition, no surface traffic
        assert (
            counter_value(
                registry, "repro_degraded_total", path="surface_to_engine"
            )
            == 0
        )
        assert counter_value(registry, "repro_surface_hits_total") == 0

    def test_surface_answers_carry_bounds(self, service):
        item = service.sweep([2.0])[0]
        assert item.source == "surface"
        answer = item.unwrap()
        assert answer.bound > 0.0
        assert 0.0 <= answer.success_rate <= 1.0

    def test_fallthrough_is_bit_identical_to_the_engine(
        self, registry, service
    ):
        exact = SwapService().sweep([3.5])[0].unwrap()
        via_chain = service.sweep([3.5])[0].unwrap()
        assert via_chain.success_rate == exact.success_rate

    def test_no_service_tolerance_means_exact_by_default(
        self, registry, metered_surface
    ):
        service = SwapService(surface=metered_surface)  # no tolerance grant
        items = service.sweep([2.0])
        assert items[0].source == "scalar"

    def test_surface_answers_never_enter_the_cache(self, registry, service):
        first = service.sweep([2.0])
        assert first[0].source == "surface"
        # same point again: still the surface, not a cache hit
        again = service.sweep([2.0])
        assert again[0].source == "surface"
        # and demanding exactness finds no cached approximation: the
        # answer must come from a solver, not a cache hit
        exact = service.sweep([2.0], tolerance=0.0)
        assert exact[0].source == "scalar"

    def test_exact_results_still_cache_behind_the_surface(self, service):
        service.sweep([3.5])  # scalar answer, cached
        assert service.sweep([3.5])[0].source == "cache"

    def test_success_rate_convenience_rides_the_chain(self, service):
        rate = service.success_rate(2.0)
        assert 0.0 <= rate <= 1.0


class TestBatchRouting:
    def test_request_tolerance_routes_to_surface(self, registry, service):
        request = SolveRequest(pstar=2.0, tolerance=1e-2)
        item = service.run_batch([request])[0]
        assert item.source == "surface"
        assert item.unwrap().bound <= 1e-2

    def test_tolerance_less_request_stays_exact(self, registry, metered_surface):
        service = SwapService(surface=metered_surface)  # no service default
        item = service.run_batch([SolveRequest(pstar=2.0)])[0]
        assert item.source == "scalar"
        assert not hasattr(item.unwrap(), "bound")

    def test_service_default_tolerance_applies_to_batches(self, service):
        item = service.run_batch([SolveRequest(pstar=2.0)])[0]
        assert item.source == "surface"

    def test_mixed_batch_counts_one_transition(self, registry, service):
        items = service.run_batch(
            [
                SolveRequest(pstar=2.0, tolerance=1e-2),  # surface
                SolveRequest(pstar=3.5, tolerance=1e-2),  # off-surface
            ]
        )
        assert [item.source for item in items] == ["surface", "scalar"]
        assert (
            counter_value(
                registry, "repro_degraded_total", path="surface_to_engine"
            )
            == 1
        )

    def test_one_lookup_per_surface_group(self, registry, service):
        requests = [SolveRequest(pstar=p, tolerance=1e-2) for p in (1.8, 2.0, 2.2)]
        requests.append(SolveRequest(pstar=2.0, tolerance=5e-3))
        items = service.run_batch(requests)
        assert {item.source for item in items} == {"surface"}
        lookups = registry.histogram("repro_surface_lookup_seconds")
        assert lookups.count() == 2  # one per (params, Q, tolerance)


class TestStatsSurfacing:
    def test_service_stats_include_the_surface_tier(self, service):
        service.sweep([2.0, 3.5])
        stats = service.stats()
        assert stats["surface"]["hits"] == 1
        assert stats["surface"]["out_of_bounds"] == 1

    def test_surface_info_exposed(self, service, metered_surface):
        info = service.surface_info()
        assert info == metered_surface.info()
        assert SwapService().surface_info() is None

    def test_stats_without_surface_have_no_surface_key(self):
        assert "surface" not in SwapService().stats()
