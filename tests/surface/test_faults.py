"""Chaos coverage for the surface fault kinds.

``surface_corrupt`` and ``surface_io_error`` (see
:data:`repro.faults.plan.FAULT_KINDS`) hit the artifact loader; the
service contract under both is quarantine-and-degrade: the process
comes up *without* the surface tier, keeps answering exactly, and the
degradation is observable -- never a crash, never a silently wrong
answer.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultSpec, InjectionPlan
from repro.service import SwapService
from repro.service.cache import QUARANTINE_SUFFIX
from repro.surface import (
    SurfaceIntegrityError,
    load_surface,
)
from tests.surface.conftest import counter_value


def plan(kind: str) -> InjectionPlan:
    return InjectionPlan(faults=(FaultSpec(kind=kind, count=1),), seed=1)


class TestSurfaceCorrupt:
    def test_loader_quarantines_and_raises(self, registry, artifact):
        path, _ = artifact
        with pytest.raises(SurfaceIntegrityError, match="injected"):
            load_surface(path, injector=plan("surface_corrupt"))
        assert not path.exists()
        assert path.with_name(path.name + QUARANTINE_SUFFIX).exists()
        assert (
            counter_value(
                registry, "repro_surface_loads_total", outcome="corrupt"
            )
            == 1
        )

    def test_service_degrades_to_exact_serving(self, registry, artifact):
        path, _ = artifact
        service = SwapService(
            surface=str(path),
            tolerance=1e-2,
            faults=plan("surface_corrupt"),
        )
        assert service.surface is None  # tier refused, not crashed
        assert (
            counter_value(
                registry, "repro_degraded_total", path="surface_load"
            )
            == 1
        )
        items = service.sweep([2.0])  # still answers, exactly
        assert items[0].ok and items[0].source == "scalar"


class TestSurfaceIoError:
    def test_loader_propagates_oserror(self, registry, artifact):
        path, _ = artifact
        with pytest.raises(OSError, match="injected"):
            load_surface(path, injector=plan("surface_io_error"))
        assert path.exists()  # an I/O hiccup is not rot: nothing moved
        assert (
            counter_value(
                registry, "repro_surface_loads_total", outcome="io_error"
            )
            == 1
        )

    def test_service_degrades_without_touching_the_file(
        self, registry, artifact
    ):
        path, _ = artifact
        before = path.read_bytes()
        service = SwapService(
            surface=str(path),
            tolerance=1e-2,
            faults=plan("surface_io_error"),
        )
        assert service.surface is None
        assert path.read_bytes() == before
        assert (
            counter_value(
                registry, "repro_degraded_total", path="surface_load"
            )
            == 1
        )

    def test_exhausted_schedule_loads_cleanly(self, artifact):
        from repro.faults.injector import build_injector

        path, _ = artifact
        # count=1 and the schedule consumed by a direct load: a service
        # sharing the same injector afterwards sees a healthy file
        injector = build_injector(plan("surface_io_error"))
        with pytest.raises(OSError):
            load_surface(path, injector=injector)
        service = SwapService(surface=str(path), faults=injector)
        assert service.surface is not None
