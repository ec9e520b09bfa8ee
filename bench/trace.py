"""In-memory spans around calls into the program's public entry points.

The benchmark traces the program from outside: :func:`install` replaces
each entry point below -- in its defining module, and in every
``repro``/``bench`` module that imported it by name -- with a wrapper
that records one :class:`Span` (name, start, end, parent span, request
id) and restores the originals on :meth:`Tracer.uninstall`. Nothing is
written until the run ends. A span's *self time* is its duration minus
the time its child spans cover.

The traced entry points, by span name (see :data:`ENTRY_POINTS`):

* ``service.request_key`` -- ``repro.service.keys.request_key``
* ``service.cache_get`` / ``service.cache_put`` -- ``TieredCache.get``
  (tagged hit or miss) / ``TieredCache.put``
* ``service.chain`` -- ``SourceChain.run``; ``service.source.*`` -- each
  ``AnswerSource.answer``
* ``service.pool_map`` -- ``WorkerPool.map``
* ``core.solve_grid`` -- ``GridSolver.solve`` (tagged with its point count)
* ``core.scalar`` -- ``solve_swap_game`` / ``solve_collateral_game``
* ``stochastic.pieces`` -- ``StepKernel.pieces`` (lognormal and mixture)
* ``stochastic.quad`` -- ``expectation_on_interval(s)``
* ``stochastic.brackets`` -- ``grid_sign_change_brackets``
* ``stochastic.bisect`` -- ``bisect_roots`` (objective points counted)
* ``simulation.validate`` -- ``empirical_success_rate``
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: ``(module, attribute, span name)``; ``attribute`` may be ``Class.method``.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.keys", "request_key", "service.request_key"),
    ("repro.service.cache", "TieredCache.get", "service.cache_get"),
    ("repro.service.cache", "TieredCache.put", "service.cache_put"),
    ("repro.service.sources", "SourceChain.run", "service.chain"),
    ("repro.service.sources", "SurfaceSource.answer", "service.source.surface"),
    ("repro.service.sources", "CacheSource.answer", "service.source.cache"),
    ("repro.service.sources", "EngineSource.answer", "service.source.engine"),
    ("repro.service.sources", "ScalarSource.answer", "service.source.scalar"),
    ("repro.service.executor", "WorkerPool.map", "service.pool_map"),
    ("repro.core.engine", "GridSolver.solve", "core.solve_grid"),
    ("repro.core.solver", "solve_swap_game", "core.scalar"),
    ("repro.core.collateral", "solve_collateral_game", "core.scalar"),
    ("repro.stochastic.law", "LognormalStepKernel.pieces", "stochastic.pieces"),
    ("repro.stochastic.law", "MixtureStepKernel.pieces", "stochastic.pieces"),
    ("repro.stochastic.quadrature", "expectation_on_interval", "stochastic.quad"),
    ("repro.stochastic.quadrature", "expectation_on_intervals", "stochastic.quad"),
    ("repro.stochastic.rootfind", "grid_sign_change_brackets", "stochastic.brackets"),
    ("repro.stochastic.rootfind", "bisect_roots", "stochastic.bisect"),
    ("repro.simulation.montecarlo", "empirical_success_rate", "simulation.validate"),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    tag: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tag_for(name: str) -> Optional[Callable[[Any], Any]]:
    if name == "service.cache_get":
        return lambda result: result is not None
    if name == "core.solve_grid":
        return len
    return None


class Tracer:
    """Collects spans in memory; one span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.request: Optional[str] = None
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, tag: Optional[Callable[[Any], Any]] = None) -> Callable:
        """``fn`` recording one span per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                tracer._next_id += 1
                span_id = tracer._next_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = tracer.clock()
            result = label = None
            try:
                result = fn(*args, **kwargs)
                if tag is not None:
                    label = tag(result)
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, tracer.request, label)
                )

        return traced

    def run(self, name: str, body: Callable[[], Any], request: Optional[str] = None) -> Any:
        """``body()`` under a span of the benchmark's own (one operation,
        one check), with ``request`` as the request id of every span
        inside it."""
        previous, self.request = self.request, request
        try:
            return self.wrap(name, body)()
        finally:
            self.request = previous

    # -- patching -------------------------------------------------------- #

    def install(self) -> "Tracer":
        """Wrap every :data:`ENTRY_POINTS` entry until :meth:`uninstall`."""
        for module_name, attribute, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self.wrap(name, original, _tag_for(name)))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, self._counting(name, original), _tag_for(name))
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").partition(".")[0] not in ("repro", "bench"):
                    continue
                # vars(), not getattr(): modules may define __getattr__
                if vars(loaded).get(attribute) is original:
                    self._patch(loaded, attribute, wrapped)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _counting(self, name: str, fn: Callable) -> Callable:
        """``bisect_roots`` with its objective's evaluated points counted."""
        if name != "stochastic.bisect":
            return fn
        counts = self.counts

        @functools.wraps(fn)
        def bisect(f, lo, hi, *args, **kwargs):
            def counted(x):
                counts["stochastic.bisect.evals"] += int(np.size(x))
                return f(x)

            return fn(counted, lo, hi, *args, **kwargs)

        return bisect

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {span.span_id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.duration
    return own


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s``, ``true_tags``,
    ``tag_sum`` (numeric tags summed)."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "true_tags": 0, "tag_sum": 0.0}
    )
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.span_id]
        if span.tag is True:
            row["true_tags"] += 1
        elif isinstance(span.tag, (int, float)) and not isinstance(span.tag, bool):
            row["tag_sum"] += span.tag
    return dict(table)
