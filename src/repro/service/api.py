"""The service facade: batched, cached, parallel solve-and-validate.

:class:`SwapService` is the serveable engine in front of the paper's
solvers. Every entry point -- :meth:`~SwapService.run_batch`,
:meth:`~SwapService.sweep` and the conveniences built on them -- takes
one path:

1. **canonicalise + dedupe** -- every request is hashed into its
   canonical key (:mod:`repro.service.keys`); duplicates within the
   call are computed once;
2. **answer** -- the unique requests go down the answer-source chain
   (:mod:`repro.service.sources`): ``surface -> cache -> engine ->
   scalar``. Tolerance-granted solves the loaded surface artifact
   (:mod:`repro.surface`) certifies are interpolated in microseconds,
   exact cache hits come next, solves sharing ``(params, collateral)``
   coalesce onto one vectorised grid-engine pass
   (:mod:`repro.core.engine`) once the group is large enough, and the
   rest runs per request on the worker pool
   (:mod:`repro.service.executor`);
3. **assemble** -- results come back as :class:`BatchItem` records in
   request order: a value *or* a typed error per request -- one bad
   request never kills the batch.

The figure sweeps of :mod:`repro.analysis` route through
:func:`default_service`, so repeated artifact generation is served
from cache.

Surface participation is always *opt-in by tolerance*: with no
tolerance granted anywhere (request, call, or service construction),
every answer is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.parameters import SwapParameters
from repro.faults.injector import build_injector
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.service.cache import TieredCache
from repro.service.errors import (
    RequestValidationError,
    ServiceError,
    ServiceErrorInfo,
)
from repro.service.executor import Result, WorkerPool
from repro.service.keys import request_key
from repro.service.requests import (
    Request,
    SolveRequest,
    SwapGraphRequest,
    ValidateRequest,
)
from repro.service.sources import Slot, SourceChain
from repro.swapgraph.metrics import observe_graph_request

__all__ = ["BatchItem", "SwapService", "default_service"]


@dataclass(frozen=True)
class BatchItem:
    """Outcome of one request within a batch.

    ``source`` names the answer tier that served the request
    (``"surface"``, ``"cache"``, ``"engine"``, or ``"scalar"``);
    ``cached`` stays the historical boolean (``source == "cache"``).
    """

    key: str
    ok: bool
    value: Optional[Result] = None
    error: Optional[ServiceErrorInfo] = None
    cached: bool = False
    source: Optional[str] = None

    def unwrap(self) -> Result:
        """The value, or a :class:`ServiceError` re-raised for callers
        that treat any failure as fatal (the analysis sweeps do)."""
        if self.error is not None:
            self.error.raise_()
        assert self.value is not None
        return self.value


class SwapService:
    """Batched, cached, parallel access to the swap-game solvers.

    Parameters
    ----------
    max_workers:
        Size of the process pool; ``1`` (default) executes serially
        in-process. The pool forks once, at the first pooled map, and
        lives until :meth:`close`.
    cache_size:
        Capacity of the in-memory LRU tier.
    cache_dir:
        Optional directory for the persistent JSON tier; results then
        survive across service instances and processes.
    cache_entries:
        Bound on the disk tier's entry count (``None``: unbounded);
        oldest entries are pruned on write once the bound is exceeded.
    timeout:
        Per-request wall-clock budget in seconds; needs
        ``max_workers > 1`` (a serial call cannot be preempted).
    faults:
        Optional chaos hook: ``None`` (default, no faults), a plan-file
        path, an :class:`~repro.faults.plan.InjectionPlan`, or a shared
        injector. Threaded into the cache, the worker pool, the sweep
        engine, and the surface loader so one plan drives the whole
        service.
    surface:
        Optional precomputed surface: a loaded
        :class:`~repro.surface.interpolate.Surface` or an artifact
        path. A missing path is a configuration error
        (``ValueError``); a corrupt or unreadable artifact is
        quarantined/logged and the service starts *without* the
        surface tier (counted in
        ``repro_degraded_total{path="surface_load"}``) -- the same
        heal-and-degrade discipline as the disk cache.
    tolerance:
        Service-wide default answer tolerance: when set, solve
        requests without their own ``tolerance`` may be answered by
        the surface within this absolute success-rate error. ``None``
        (default) keeps every tolerance-less request exact.
    """

    def __init__(
        self,
        max_workers: int = 1,
        cache_size: int = 4096,
        cache_dir: Optional[str] = None,
        cache_entries: Optional[int] = None,
        timeout: Optional[float] = None,
        faults=None,
        surface=None,
        tolerance: Optional[float] = None,
    ) -> None:
        self.faults = build_injector(faults)
        self._cache = TieredCache.build(
            maxsize=cache_size,
            cache_dir=cache_dir,
            disk_entries=cache_entries,
            injector=self.faults,
        )
        self._pool = WorkerPool(
            max_workers=max_workers, timeout=timeout, faults=self.faults
        )
        if tolerance is not None:
            tolerance = float(tolerance)
            if not (math.isfinite(tolerance) and tolerance >= 0.0):
                raise ValueError(
                    f"tolerance must be finite and >= 0, got {tolerance}"
                )
        self._tolerance = tolerance
        self.surface = (
            self._load_surface(surface) if surface is not None else None
        )
        self._chain = SourceChain.build(
            cache=self._cache,
            pool=self._pool,
            injector=self.faults,
            surface=self.surface,
        )

    def close(self) -> None:
        """Kill the worker pool's processes (idempotent); see
        :meth:`WorkerPool.close`. ``with SwapService(...) as service:``
        calls it on exit."""
        self._pool.close()

    def __enter__(self) -> "SwapService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _load_surface(self, surface):
        """Resolve the ``surface`` argument into a loaded Surface.

        Degrades (returns ``None``) on a rotten artifact; raises
        ``ValueError`` only for the plain misconfiguration of a path
        that does not exist.
        """
        # imported lazily: repro.surface imports this package
        from repro.surface.artifact import SurfaceError, load_surface
        from repro.surface.interpolate import Surface

        if isinstance(surface, Surface):
            return surface
        try:
            return load_surface(surface, injector=self.faults)
        except FileNotFoundError:
            raise ValueError(f"surface artifact not found: {surface}")
        except (SurfaceError, OSError) as exc:
            get_registry().counter(
                "repro_degraded_total",
                help="Times the stack fell back to a degraded path.",
                labelnames=("path",),
            ).inc(path="surface_load")
            get_logger().log(
                "surface_load_failed",
                path=str(surface),
                error=f"{exc.__class__.__name__}: {exc}",
            )
            return None

    # ------------------------------------------------------------------ #
    # batch entry points
    # ------------------------------------------------------------------ #

    def run_batch(self, requests: Sequence[Request]) -> List[BatchItem]:
        """Execute a (possibly mixed solve/validate/swap-graph) batch.

        Identical requests are deduped onto one computation, and the
        unique ones go down the answer-source chain: solves sharing
        ``(params, collateral)`` coalesce onto one grid-engine pass once
        there are enough of them. Failures come back as per-item typed
        errors in request order. A solve's own ``tolerance`` (else the
        service default) is its surface grant.
        """
        return self._answer(requests)

    def solve_batch(self, requests: Sequence[SolveRequest]) -> List[BatchItem]:
        """Solve many games; see :meth:`run_batch` for semantics."""
        self._require_kind(requests, SolveRequest)
        return self.run_batch(requests)

    def validate_batch(self, requests: Sequence[ValidateRequest]) -> List[BatchItem]:
        """Monte-Carlo-validate many points; see :meth:`run_batch`."""
        self._require_kind(requests, ValidateRequest)
        return self.run_batch(requests)

    def sweep(
        self,
        pstars: Sequence[float],
        params: Optional[SwapParameters] = None,
        collateral: float = 0.0,
        tolerance: Optional[float] = None,
    ) -> List[BatchItem]:
        """Solve one game per exchange rate (the figure-sweep shape).

        A batch of tolerance-less :class:`SolveRequest` objects sharing
        ``params`` and ``collateral`` -- so per-point cache keys match
        :meth:`run_batch`'s -- with ``tolerance`` as every point's
        surface grant: points the loaded surface certifies are
        interpolated in microseconds, exact cache hits come next, and
        the remainder is solved in one vectorised grid-engine pass
        (:func:`repro.core.engine.solve_grid`), or per point by the
        scalar rung below :data:`~repro.service.sources.ENGINE_MIN_POINTS`.

        ``tolerance=None`` uses the service-wide ``tolerance`` default;
        when neither grants an error budget -- or ``tolerance=0.0``
        demands exactness outright -- the surface rung is skipped and
        every answer is exact.
        """
        if params is None:
            params = SwapParameters.default()
        requests = [
            SolveRequest(pstar=float(pstar), collateral=collateral, params=params)
            for pstar in pstars
        ]
        return self._answer(requests, tolerance)

    def _answer(
        self, requests: Sequence[Request], tolerance: Optional[float] = None
    ) -> List[BatchItem]:
        """Canonicalise, dedupe, run the chain, assemble the items.

        A slot's surface grant is the request's own ``tolerance``, else
        ``tolerance``, else the service default.
        """
        registry = get_registry()
        registry.counter(
            "repro_batches_total", help="Batches served by SwapService."
        ).inc()
        registry.counter(
            "repro_batch_requests_total",
            help="Requests received across all batches.",
        ).inc(len(requests))

        with span("batch.canonicalise"):
            keys = [request_key(request) for request in requests]

        slots: Dict[str, Slot] = {}
        for key, request in zip(keys, requests):
            if key not in slots:
                grant = getattr(request, "tolerance", None)
                if grant is None:
                    grant = tolerance if tolerance is not None else self._tolerance
                slots[key] = Slot(key=key, request=request, tolerance=grant)
        registry.counter(
            "repro_batch_deduped_total",
            help="Requests collapsed onto an identical in-batch computation.",
        ).inc(len(requests) - len(slots))

        self._chain.run(list(slots.values()))

        items: List[BatchItem] = []
        for key, request in zip(keys, requests):
            slot = slots[key]
            failed = isinstance(slot.outcome, ServiceError)
            item = BatchItem(
                key=key,
                ok=not failed,
                value=None if failed else slot.outcome,
                error=ServiceErrorInfo.from_exception(slot.outcome) if failed else None,
                cached=slot.source == "cache",
                source=slot.source,
            )
            if isinstance(request, SwapGraphRequest):
                # counted here, in the serving process: solver-side
                # metrics from pool workers never reach the exporter
                observe_graph_request(item.source)
            items.append(item)
        return items

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #

    def solve(
        self,
        params: Optional[SwapParameters] = None,
        pstar: float = 2.0,
        collateral: float = 0.0,
    ) -> Result:
        """Solve a single game through the cache (raises on failure)."""
        if params is None:
            params = SwapParameters.default()
        request = SolveRequest(pstar=pstar, collateral=collateral, params=params)
        return self.run_batch([request])[0].unwrap()

    def swap_graph(
        self,
        spec,
        n_lattice: Optional[int] = None,
        replay: bool = False,
        replay_paths: int = 400,
        seed: Optional[int] = None,
    ) -> Result:
        """Solve one swap graph through the cache (raises on failure)."""
        request = SwapGraphRequest(
            spec=spec,
            n_lattice=n_lattice,
            replay=replay,
            replay_paths=replay_paths,
            seed=seed,
        )
        return self.run_batch([request])[0].unwrap()

    def success_rate(
        self,
        pstar: float,
        params: Optional[SwapParameters] = None,
        collateral: float = 0.0,
        tolerance: Optional[float] = None,
    ) -> float:
        """Eq. (31)/(40) rate at one ``P*``, through the full chain.

        With a tolerance granted this is the microsecond warm path: a
        surface hit returns the interpolated rate without touching the
        solvers."""
        items = self.sweep(
            [pstar], params=params, collateral=collateral, tolerance=tolerance
        )
        return items[0].unwrap().success_rate

    def success_rates(
        self,
        pstars: Sequence[float],
        params: Optional[SwapParameters] = None,
        collateral: float = 0.0,
        tolerance: Optional[float] = None,
    ) -> List[float]:
        """Eq. (31)/(40) rates on a ``P*`` grid (raises on any failure)."""
        return [
            item.unwrap().success_rate
            for item in self.sweep(
                pstars,
                params=params,
                collateral=collateral,
                tolerance=tolerance,
            )
        ]

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Counter snapshot per answer tier (cache tiers + surface)."""
        out = self._cache.stats()
        if self.surface is not None:
            out["surface"] = self.surface.stats.as_dict()
        return out

    def surface_info(self) -> Optional[Dict[str, object]]:
        """The loaded surface's description (version, axes, checksum),
        or ``None`` when no surface tier is active."""
        return None if self.surface is None else self.surface.info()

    @staticmethod
    def _require_kind(requests: Sequence[Request], kind: type) -> None:
        for request in requests:
            if not isinstance(request, kind):
                raise RequestValidationError(
                    f"expected {kind.__name__}, got {type(request).__name__}"
                )


_default: Optional[SwapService] = None


def default_service() -> SwapService:
    """The process-wide shared service (serial, memory-cache only).

    Used by the analysis layer so that figure and sweep regeneration
    reuse each other's solves within one process. Serving deployments
    construct their own :class:`SwapService` with workers and a disk
    cache.
    """
    global _default
    if _default is None:
        _default = SwapService(max_workers=1)
    return _default
