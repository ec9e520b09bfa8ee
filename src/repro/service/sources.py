"""The answer-source chain behind every ``SwapService`` entry point.

``run_batch``, ``sweep`` and the conveniences built on them all
canonicalise and dedupe their requests into :class:`Slot` records and
send them down one ladder of explicit :class:`AnswerSource` objects,
cheapest first::

    surface  -- certified interpolation off a precomputed artifact: one
                lookup per (params, collateral, tolerance) group of
                tolerance-granted solves (microseconds; only points the
                artifact certifies within the grant)
    cache    -- exact results from the two-tier cache
    engine   -- one vectorised grid-engine pass per (params, collateral)
                group of at least ``ENGINE_MIN_POINTS`` solves (exact;
                results are cached)
    scalar   -- everything left, per request through the worker pool:
                small solve groups, validations, swap graphs and groups
                the engine refused (exact; the last rung never refuses)

The engine's group-size cut comes from measurement. On a 2-CPU host
(Python 3.11, NumPy 2.4, medians of 80 calls at Table III, three
rounds), ``solve_grid`` took 0.95-0.98, 1.07-1.08 and 1.08-1.12 ms at
n = 1, 2 and 3 points, and a scalar solve 0.68-0.70 ms. One array pass
wins from 2 points up on those numbers; the cut stays at 3, where it
was set on a 1-CPU host, and single solves stay scalar.

Each source answers the slots it can and passes the rest down in
request order. Every tier *transition* is observable: tolerance-granted
solves that the surface could not certify count
``repro_degraded_total{path="surface_to_engine"}``, and each engine
group fault counts ``repro_degraded_total{path="engine_to_scalar"}``
(its group then falls to the scalar rung). A point the model refuses
(its Eq. 18 threshold is not finite) is no engine fault: the engine
answers it the scalar rung's ``solve_failed``. Surface hits land in the
``repro_surface_*`` families via the surface itself.

The chain is deliberately dumb plumbing: sources own *how* to answer,
the chain owns only ordering and transition accounting, and
``SwapService`` owns request canonicalisation and item assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from repro.core.backward_induction import collateral_schedule
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.service.errors import ServiceError, SolveFailedError
from repro.service.executor import Result
from repro.service.keys import canonical_payload, derive_seed
from repro.service.requests import Request, SolveRequest, SwapGraphRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.cache import TieredCache
    from repro.service.executor import WorkerPool
    from repro.surface.interpolate import Surface

__all__ = [
    "AnswerSource",
    "SurfaceSource",
    "CacheSource",
    "EngineSource",
    "ScalarSource",
    "SourceChain",
    "Slot",
    "ENGINE_MIN_POINTS",
]

#: Smallest ``(params, collateral)`` group the engine solves in one pass.
ENGINE_MIN_POINTS = 3


def _degraded_counter():
    return get_registry().counter(
        "repro_degraded_total",
        help="Times the stack fell back to a degraded path.",
        labelnames=("path",),
    )


@dataclass
class Slot:
    """One unique request travelling down the chain.

    ``tolerance`` is the request's error grant, already resolved
    against the service default. Approximation is opt-in: with no
    grant (``None``) or an explicit demand for exactness (``0.0``) the
    surface rung never sees the slot.
    """

    key: str
    request: Request
    tolerance: Optional[float] = None
    outcome: Optional[Union[Result, ServiceError]] = None
    source: Optional[str] = None

    @property
    def surface_eligible(self) -> bool:
        return (
            isinstance(self.request, SolveRequest)
            and self.tolerance is not None
            and self.tolerance > 0.0
        )

    def settle(self, outcome: Union[Result, ServiceError], source: str) -> None:
        self.outcome = outcome
        self.source = source


def _groups(slots: Sequence[Slot], key: Callable[[Slot], tuple]) -> Dict[tuple, List[Slot]]:
    """``slots`` grouped by ``key``, groups and members in request order."""
    groups: Dict[tuple, List[Slot]] = {}
    for slot in slots:
        groups.setdefault(key(slot), []).append(slot)
    return groups


def _unanswered(slots: Sequence[Slot]) -> List[Slot]:
    return [slot for slot in slots if slot.source is None]


class AnswerSource:
    """One rung of the ladder.

    ``answer`` settles the slots it can serve and returns the rest, in
    order, for the next rung. Implementations must never raise for a
    single bad request -- refusal is returning the slot."""

    name = "source"

    def answer(self, slots: Sequence[Slot]) -> List[Slot]:
        raise NotImplementedError


class SurfaceSource(AnswerSource):
    """Certified interpolation off a loaded surface artifact."""

    name = "surface"

    def __init__(self, surface: "Surface") -> None:
        self.surface = surface

    def answer(self, slots):
        eligible = [slot for slot in slots if slot.surface_eligible]
        groups = _groups(
            eligible,
            lambda s: (s.request.params, s.request.collateral, s.tolerance),
        )
        with span("batch.surface_lookup"):
            for (params, collateral, tolerance), group in groups.items():
                lookup = self.surface.lookup(
                    params,
                    [slot.request.pstar for slot in group],
                    collateral=collateral,
                    tolerance=tolerance,
                )
                for i, slot in enumerate(group):
                    answer = lookup.answer_at(i)
                    if answer is not None:
                        slot.settle(answer, self.name)
        return _unanswered(slots)


class CacheSource(AnswerSource):
    """Exact results from the two-tier cache."""

    name = "cache"

    def __init__(self, cache: "TieredCache") -> None:
        self.cache = cache

    def answer(self, slots):
        with span("batch.cache_lookup"):
            for slot in slots:
                hit = self.cache.get(slot.key)
                if hit is not None:
                    slot.settle(hit, self.name)
        return _unanswered(slots)


class EngineSource(AnswerSource):
    """One vectorised grid-engine pass per large-enough solve group.

    Solves are grouped by ``(params, collateral)``; groups smaller than
    :data:`ENGINE_MIN_POINTS` fall through untouched. A grid refused by
    the model -- some point's Eq. 18 threshold is not finite, which
    fails the whole pass -- settles each such point with the typed,
    uncached ``solve_failed`` the scalar rung gives it, and passes the
    group's other points down. On any other failure of a group (an
    engine fault) the source logs, counts
    ``repro_degraded_total{path="engine_to_scalar"}`` once, and passes
    that group down -- the scalar rung answers it exactly.
    """

    name = "engine"

    def __init__(self, cache: "TieredCache", injector) -> None:
        self.cache = cache
        self.injector = injector

    def answer(self, slots):
        from repro.core.engine import solve_grid

        solves = [s for s in slots if isinstance(s.request, SolveRequest)]
        groups = _groups(
            solves, lambda s: (s.request.params, s.request.collateral)
        )
        for (params, collateral), group in groups.items():
            if len(group) < ENGINE_MIN_POINTS:
                continue
            try:
                with span("batch.execute"):
                    if self.injector.enabled and self.injector.fires(
                        "engine_error", f"sweep:{len(group)}"
                    ):
                        raise RuntimeError("injected engine_error")
                    grid = solve_grid(
                        params,
                        [slot.request.pstar for slot in group],
                        collateral=collateral,
                    )
            except Exception as exc:
                if isinstance(exc, ValueError) and self._refuse(group):
                    continue
                _degraded_counter().inc(path="engine_to_scalar")
                get_logger().log(
                    "sweep_degraded",
                    path="engine_to_scalar",
                    error=f"{exc.__class__.__name__}: {exc}",
                    points=len(group),
                )
                continue
            for i, slot in enumerate(group):
                equilibrium = grid.equilibrium_at(i)
                slot.settle(equilibrium, self.name)
                self.cache.put(slot.key, equilibrium)
        return _unanswered(slots)

    def _refuse(self, group: Sequence[Slot]) -> bool:
        """Settle each point whose Eq. 18 threshold is not finite with
        the scalar solve's own error; whether there was one."""
        refused = False
        for slot in group:
            request = slot.request
            schedule = collateral_schedule(request.params, request.pstar, request.collateral)
            try:
                schedule.p3_threshold()
            except ValueError as exc:
                slot.settle(SolveFailedError(f"{exc.__class__.__name__}: {exc}"), self.name)
                refused = True
        return refused


class ScalarSource(AnswerSource):
    """Per-request execution through the worker pool.

    The last rung: answers everything, with a value or a typed error
    per slot. Validation and swap-graph seeds are resolved here, before
    dispatch -- the request's own, else one derived from its key -- so
    pooled runs draw exactly the serial run's paths. The swap-graph
    chaos hooks (``swapgraph_error``/``swapgraph_slow``) are decided
    here too, in the dispatching process. Successful results are cached
    like any exact result.
    """

    name = "scalar"

    def __init__(self, pool: "WorkerPool", cache: "TieredCache", injector) -> None:
        self.pool = pool
        self.cache = cache
        self.injector = injector

    def answer(self, slots):
        jobs: List[Slot] = []
        for slot in slots:
            if isinstance(slot.request, SwapGraphRequest) and self.injector.enabled:
                payload = canonical_payload(slot.request)
                if self.injector.fires("swapgraph_error", payload):
                    slot.settle(
                        SolveFailedError("injected swapgraph_error"), self.name
                    )
                    continue
                self.injector.sleep("swapgraph_slow", payload)
            jobs.append(slot)
        with span("batch.execute"):
            outcomes = self.pool.map(
                [(slot.request, self._seed(slot)) for slot in jobs]
            )
        for slot, outcome in zip(jobs, outcomes):
            slot.settle(outcome, self.name)
            if not isinstance(outcome, ServiceError):
                self.cache.put(slot.key, outcome)
        return []

    @staticmethod
    def _seed(slot: Slot) -> Optional[int]:
        request = slot.request
        if isinstance(request, SolveRequest):
            return None
        return request.seed if request.seed is not None else derive_seed(slot.key)


class SourceChain:
    """Orders the rungs and accounts for surface fall-through."""

    def __init__(self, sources: Sequence[AnswerSource]) -> None:
        self.sources = list(sources)

    @staticmethod
    def build(
        cache: "TieredCache",
        pool: "WorkerPool",
        injector,
        surface: Optional["Surface"] = None,
    ) -> "SourceChain":
        """The standard ladder; the surface rung only when loaded."""
        sources: List[AnswerSource] = []
        if surface is not None:
            sources.append(SurfaceSource(surface))
        sources.extend(
            [
                CacheSource(cache),
                EngineSource(cache, injector),
                ScalarSource(pool, cache, injector),
            ]
        )
        return SourceChain(sources)

    def run(self, slots: Sequence[Slot]) -> None:
        """Send ``slots`` down the ladder until every one is answered."""
        pending: List[Slot] = list(slots)
        for source in self.sources:
            if not pending:
                break
            pending = source.answer(pending)
        if not any(isinstance(source, SurfaceSource) for source in self.sources):
            return
        fell_through = sum(
            1
            for slot in slots
            if slot.surface_eligible and slot.source != SurfaceSource.name
        )
        if fell_through:
            _degraded_counter().inc(path="surface_to_engine")
            get_logger().log(
                "surface_fell_through",
                path="surface_to_engine",
                points=fell_through,
            )
