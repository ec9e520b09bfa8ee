"""Request execution: serial, or fanned out over a process pool.

:func:`execute_request` is the single worker entry point -- a
top-level, picklable function that turns one request into one result
object. :class:`WorkerPool` maps it over a batch:

* ``max_workers <= 1`` degrades gracefully to a plain serial loop in
  the calling process (no pickling, no fork) -- the reference
  execution;
* ``max_workers > 1`` runs the jobs on a
  :class:`~concurrent.futures.ProcessPoolExecutor` with a per-request
  timeout. A timeout fails *that request* with a typed error; the rest
  of the batch completes. A serial call cannot be preempted, so a
  timeout needs ``max_workers > 1``, and with one set even a lone job
  goes through the pool.

One executor per pool: it is forked at the first pooled map and every
later map reuses it, concurrent maps from several threads included.
:meth:`WorkerPool.close` kills its workers; a pool dropped without
``close()`` is reaped by :mod:`concurrent.futures`, as every executor
is at interpreter exit.

Self-healing: a worker crash breaks the whole executor -- every
not-yet-returned future on it raises ``BrokenExecutor``, in every map
using it -- so the pool **replaces the executor and requeues the
surviving requests**, each with a bounded retry budget
(``max_requeues``); only a request that keeps breaking the pool
surfaces :class:`WorkerCrashedError` (retryable). Replacement happens
once per broken executor, however many maps saw it break, and is
counted in ``repro_pool_rebuilds_total`` and
``repro_degraded_total{path="pool_rebuild"}``.

Timeouts: a timed-out request's executor is *retired* -- later submits
go to a fresh one -- and its workers, the hung one among them, are
killed as soon as no map has jobs on it any more; for a map that has
the executor to itself, before it returns. Other maps' jobs on the
retired executor finish there, so one map's timeout never fails
another map's request.

Determinism: a validation request's RNG seed is resolved *before*
dispatch -- the explicit ``seed`` if given, else
:func:`repro.service.keys.derive_seed` of the request key -- so the
parallel execution draws exactly the paths the serial one does,
regardless of worker scheduling.

Chaos hooks: an optional :class:`~repro.faults.injector.FaultInjector`
can kill the worker mid-request (``worker_crash`` -- a *real*
``os._exit`` in pooled mode, so the healing above is exercised against
the genuine ``BrokenExecutor``, not a simulation) or stall it
(``worker_hang``). Decisions are drawn in the dispatching process
against the request's canonical payload, so a chaos run replays
exactly regardless of worker scheduling.

Observability: every mapped job lands in the active registry --
``repro_pool_tasks_total{outcome=ok|error|timeout|crashed}``,
``repro_pool_task_seconds`` (in-worker execution time, reported back
through :func:`_timed_execute`), ``repro_pool_queue_seconds`` (dispatch
wall-clock minus execution time: pickling + waiting for a free worker),
and the ``repro_pool_workers`` / ``repro_pool_inflight`` gauges.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.collateral import CollateralEquilibrium, solve_collateral_game
from repro.core.equilibrium import SwapEquilibrium
from repro.core.solver import solve_swap_game
from repro.faults.injector import build_injector
from repro.obs.metrics import get_registry
from repro.service.errors import (
    RequestTimeoutError,
    ServiceError,
    SolveFailedError,
    WorkerCrashedError,
)
from repro.service.requests import (
    Request,
    SolveRequest,
    SwapGraphRequest,
    ValidateRequest,
)
from repro.simulation.montecarlo import MonteCarloResult, validate_against_analytic
from repro.swapgraph.replay import replay_swap_graph
from repro.swapgraph.result import SwapGraphResult
from repro.swapgraph.solver import solve_swap_graph

__all__ = ["ValidationResult", "Result", "execute_request", "WorkerPool"]


@dataclass(frozen=True)
class ValidationResult:
    """One Monte Carlo validation: empirical vs analytic success rate."""

    empirical: MonteCarloResult
    analytic: float
    seed_used: int

    @property
    def passed(self) -> bool:
        """Whether the analytic rate lies inside the empirical 95% CI."""
        return self.empirical.contains(self.analytic)


Result = Union[
    SwapEquilibrium, CollateralEquilibrium, ValidationResult, SwapGraphResult
]


def execute_request(request: Request, seed: Optional[int] = None) -> Result:
    """Run one request to completion in the current process.

    ``seed`` is the pre-resolved RNG seed for validation requests
    (ignored for solves). Solver/model errors are re-raised as
    :class:`SolveFailedError` so the batch layer can report them
    per-request.
    """
    try:
        if isinstance(request, SolveRequest):
            if request.collateral > 0.0:
                return solve_collateral_game(
                    request.params, request.pstar, request.collateral
                )
            return solve_swap_game(request.params, request.pstar)
        if isinstance(request, ValidateRequest):
            if seed is None:
                seed = request.seed if request.seed is not None else 0
            empirical, analytic = validate_against_analytic(
                request.params,
                request.pstar,
                n_paths=request.n_paths,
                seed=seed,
                collateral=request.collateral,
                protocol_level=request.protocol_level,
            )
            return ValidationResult(
                empirical=empirical, analytic=analytic, seed_used=seed
            )
        if isinstance(request, SwapGraphRequest):
            equilibrium = solve_swap_graph(
                request.spec, n_lattice=request.n_lattice
            )
            replay = None
            if request.replay:
                if seed is None:
                    seed = request.seed if request.seed is not None else 0
                replay = replay_swap_graph(
                    equilibrium, n_paths=request.replay_paths, seed=seed
                )
            return SwapGraphResult(equilibrium=equilibrium, replay=replay)
    except ServiceError:
        raise
    except Exception as exc:  # solver/model failure, not a service bug
        raise SolveFailedError(f"{exc.__class__.__name__}: {exc}") from exc
    raise SolveFailedError(f"unsupported request type {type(request).__name__}")


def _timed_execute(
    request: Request,
    seed: Optional[int],
    fault: Optional[Tuple[str, float]] = None,
) -> Tuple[Union[Result, ServiceError], float]:
    """Pool entry point: ``(outcome, in-worker seconds)``.

    Catching the :class:`ServiceError` here (instead of letting it
    propagate through the future) keeps the execution time attached, so
    the parent can split dispatch wall-clock into queue vs work even
    for failed requests.

    ``fault`` is an injected adversity decided by the *dispatching*
    process (see :class:`WorkerPool`): ``("crash", _)`` kills this
    worker outright -- the parent observes a genuine broken pool --
    and ``("hang", delay)`` stalls before executing, so the parent's
    per-request timeout fires when ``delay`` exceeds it.
    """
    if fault is not None:
        kind, delay = fault
        if kind == "crash":
            os._exit(13)  # no cleanup: a real SIGKILL-style worker death
        time.sleep(delay)
    started = time.perf_counter()
    try:
        outcome: Union[Result, ServiceError] = execute_request(request, seed)
    except ServiceError as exc:
        outcome = exc
    return outcome, time.perf_counter() - started


class _PoolMetrics:
    """The worker pool's registry instruments, bound once."""

    def __init__(self) -> None:
        registry = get_registry()
        self.tasks = registry.counter(
            "repro_pool_tasks_total",
            help="Jobs mapped over the pool, by outcome.",
            labelnames=("outcome",),
        )
        self.task_seconds = registry.histogram(
            "repro_pool_task_seconds",
            help="In-worker execution time of one job.",
        )
        self.queue_seconds = registry.histogram(
            "repro_pool_queue_seconds",
            help="Dispatch wall-clock minus in-worker time (pickling + wait).",
        )
        self.workers = registry.gauge(
            "repro_pool_workers",
            help="Configured pool size (1 = serial in-process).",
        )
        self.inflight = registry.gauge(
            "repro_pool_inflight",
            help="Jobs currently being mapped.",
        )
        self.rebuilds = registry.counter(
            "repro_pool_rebuilds_total",
            help="Process pools rebuilt after a worker crash broke them.",
        )
        self.degraded = registry.counter(
            "repro_degraded_total",
            help="Times the stack fell back to a degraded path.",
            labelnames=("path",),
        )

    def record(self, outcome: str, task_s: float, queue_s: float) -> None:
        self.tasks.inc(outcome=outcome)
        self.task_seconds.observe(task_s)
        if queue_s > 0.0:
            self.queue_seconds.observe(queue_s)


def _outcome_label(outcome: Union[Result, ServiceError]) -> str:
    if isinstance(outcome, RequestTimeoutError):
        return "timeout"
    if isinstance(outcome, WorkerCrashedError):
        return "crashed"
    if isinstance(outcome, ServiceError):
        return "error"
    return "ok"


class _Executor:
    """One :class:`ProcessPoolExecutor` and the maps holding jobs on it.

    ``retired`` executors take no new maps; the last map to leave one
    kills its workers.
    """

    __slots__ = ("pool", "users", "retired")

    def __init__(self, pool: ProcessPoolExecutor) -> None:
        self.pool = pool
        self.users = 0
        self.retired = False


def _kill(pool: ProcessPoolExecutor) -> None:
    """Kill ``pool``'s workers, busy or idle, and reap them.

    ``ProcessPoolExecutor`` has no public way to kill a worker (before
    Python 3.14), so this reads its private ``_processes`` map; an
    executor without one (a test stand-in) is only shut down.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        process.kill()
    # the killed workers break the executor, so this returns at once
    pool.shutdown(wait=True)


class WorkerPool:
    """Map :func:`execute_request` over jobs, serially or in processes.

    A pool with ``max_workers > 1`` owns one
    :class:`ProcessPoolExecutor` for its whole life: created at the
    first pooled map, reused by every later one (from any thread), and
    replaced only when a worker crash breaks it or a timeout retires
    it. :meth:`close` (also the end of a ``with`` block) kills its
    workers; it is idempotent, and a closed pool answers pooled jobs
    with :class:`WorkerCrashedError`.

    Parameters
    ----------
    max_workers:
        ``<= 1`` runs in-process (the deterministic reference path);
        larger values fork a :class:`ProcessPoolExecutor` of that size.
    timeout:
        Per-request wall-clock budget in seconds (``None``: no limit).
        Needs ``max_workers > 1``, since a serial call cannot be
        preempted; every map then runs in the pool, a lone job too. A
        timed-out request yields a :class:`RequestTimeoutError`; its
        executor is retired, and its workers are killed once no map has
        jobs left on it.
    faults:
        Optional chaos hook (``None``, an
        :class:`~repro.faults.plan.InjectionPlan`, or an injector);
        honours ``worker_crash`` and ``worker_hang`` specs.
    max_requeues:
        Retry budget per request after a pool break: how many times one
        request may be requeued onto a rebuilt pool before it surfaces
        :class:`WorkerCrashedError`.
    """

    def __init__(
        self,
        max_workers: int = 1,
        timeout: Optional[float] = None,
        faults=None,
        max_requeues: int = 2,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_requeues < 0:
            raise ValueError(f"max_requeues must be >= 0, got {max_requeues}")
        if timeout is not None and max_workers <= 1:
            raise ValueError(
                "a timeout needs workers > 1: a serial call cannot be preempted"
            )
        self.max_workers = int(max_workers)
        self.timeout = timeout
        self.max_requeues = int(max_requeues)
        self.injector = build_injector(faults)
        self._metrics = _PoolMetrics()
        self._metrics.workers.set(self.max_workers)
        # guards every field below: creation, retirement, the user counts
        self._lock = threading.Lock()
        self._current: Optional[_Executor] = None
        self._retired: List[_Executor] = []  # still holding some map's jobs
        self._closed = False

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Kill every worker, idle or running an abandoned job.

        Idempotent. Maps still in flight see their jobs fail as a
        closed pool's :class:`WorkerCrashedError`.
        """
        with self._lock:
            self._closed = True
            doomed = self._retired + ([self._current] if self._current else [])
            self._current = None
            self._retired = []
            for executor in doomed:
                executor.retired = True
        for executor in doomed:
            _kill(executor.pool)

    def map(
        self, jobs: Sequence[Tuple[Request, Optional[int]]]
    ) -> List[Union[Result, ServiceError]]:
        """Execute ``(request, seed)`` jobs, preserving order.

        Returns one entry per job: the result object on success, or the
        typed :class:`ServiceError` describing the failure. Never
        raises for a per-request failure, and -- because broken pools
        are rebuilt and their pending jobs requeued -- one crashed
        worker never fails the rest of its batch.
        """
        self._metrics.inflight.inc(len(jobs))
        try:
            # a lone job runs in process unless a timeout must preempt it
            lone = len(jobs) == 0 or (len(jobs) == 1 and self.timeout is None)
            if self.max_workers <= 1 or lone:
                return [self._run_serial(request, seed) for request, seed in jobs]
            return self._run_pooled(jobs)
        finally:
            self._metrics.inflight.dec(len(jobs))

    def _job_fault(self, request: Request) -> Optional[Tuple[str, float]]:
        """The injected fault marker shipped with one dispatched job.

        Decided here, in the dispatching process, against the request's
        canonical payload -- worker processes carry no injector state,
        so the decision sequence replays deterministically.
        """
        if not self.injector.enabled:
            return None
        from repro.service.keys import canonical_payload

        key = canonical_payload(request)
        if self.injector.fires("worker_crash", key):
            return ("crash", 0.0)
        delay = self.injector.delay_for("worker_hang", key)
        if delay is not None:
            return ("hang", delay)
        return None

    def _acquire(self) -> Optional[_Executor]:
        """The current executor, created if there is none, with this
        map counted as its user; ``None`` once the pool is closed."""
        with self._lock:
            if self._closed:
                return None
            if self._current is None:
                self._current = _Executor(
                    ProcessPoolExecutor(max_workers=self.max_workers)
                )
            self._current.users += 1
            return self._current

    def _retire(self, executor: _Executor, broken: bool) -> None:
        """Send later maps to a fresh executor instead of ``executor``.

        Only the executor the caller saw fail is replaced, so maps that
        see one crash count one rebuild between them.
        """
        with self._lock:
            if executor.retired:
                return
            executor.retired = True
            self._retired.append(executor)
            if self._current is executor:
                self._current = None
                if broken:
                    self._metrics.rebuilds.inc()
                    self._metrics.degraded.inc(path="pool_rebuild")

    def _release(self, executor: _Executor) -> None:
        """This map is done with ``executor``; the last map to leave a
        retired one kills its workers."""
        with self._lock:
            executor.users -= 1
            # close() empties the list: what it killed is not killed twice
            doomed = executor.users == 0 and executor in self._retired
            if doomed:
                self._retired.remove(executor)
        if doomed:
            _kill(executor.pool)

    def _run_pooled(
        self, jobs: Sequence[Tuple[Request, Optional[int]]]
    ) -> List[Union[Result, ServiceError]]:
        out: List[Union[Result, ServiceError]] = [None] * len(jobs)  # type: ignore[list-item]
        attempts: Dict[int, int] = {}
        pending = list(range(len(jobs)))
        while pending:
            executor = self._acquire()
            if executor is None:
                for index in pending:
                    out[index] = WorkerCrashedError("the worker pool is closed")
                    self._metrics.tasks.inc(outcome="crashed")
                break
            try:
                pending = self._run_round(executor, jobs, pending, out, attempts)
            finally:
                self._release(executor)
        return out

    def _run_round(
        self,
        executor: _Executor,
        jobs: Sequence[Tuple[Request, Optional[int]]],
        pending: List[int],
        out: List[Union[Result, ServiceError]],
        attempts: Dict[int, int],
    ) -> List[int]:
        """Submit ``pending`` to ``executor`` and settle ``out``; the
        indices to requeue after a break."""
        submitted = time.perf_counter()
        futures = {index: self._submit(executor.pool, jobs[index]) for index in pending}
        requeue: List[int] = []
        for index, future in futures.items():
            try:
                outcome, task_s = future.result(timeout=self.timeout)
                out[index] = outcome
                wall = time.perf_counter() - submitted
                self._metrics.record(_outcome_label(outcome), task_s, wall - task_s)
            except FutureTimeoutError:
                future.cancel()
                self._retire(executor, broken=False)
                out[index] = RequestTimeoutError(f"request exceeded {self.timeout:g}s")
                self._metrics.record("timeout", float(self.timeout), 0.0)
            except BrokenExecutor as exc:
                # the executor is dead for *every* pending future;
                # requeue survivors onto a fresh one instead of
                # cascading one crash into batch-wide failure
                self._retire(executor, broken=True)
                attempts[index] = attempts.get(index, 0) + 1
                if attempts[index] <= self.max_requeues:
                    requeue.append(index)
                else:
                    detail = str(exc) or "worker pool broke"
                    out[index] = WorkerCrashedError(
                        f"request kept breaking the pool "
                        f"({attempts[index]} attempts): {detail}"
                    )
                    self._metrics.tasks.inc(outcome="crashed")
            except Exception as exc:  # unpicklable result, BrokenPipe, ...
                out[index] = WorkerCrashedError(f"{exc.__class__.__name__}: {exc}")
                self._metrics.tasks.inc(outcome="crashed")
        return requeue

    def _submit(
        self, pool: ProcessPoolExecutor, job: Tuple[Request, Optional[int]]
    ) -> Future:
        """``pool.submit`` of one job; a pool that an earlier job (of
        this map or another) already broke, or that :meth:`close` shut
        down meanwhile, yields a failed future instead of raising, so
        the job is requeued like any other broken one."""
        fault = self._job_fault(job[0])
        try:
            return pool.submit(_timed_execute, *job, fault)
        except (BrokenExecutor, RuntimeError) as exc:  # RuntimeError: shut down
            future: Future = Future()
            future.set_exception(
                exc if isinstance(exc, BrokenExecutor) else BrokenExecutor(str(exc))
            )
            return future

    def _run_serial(
        self, request: Request, seed: Optional[int]
    ) -> Union[Result, ServiceError]:
        fault = self._job_fault(request)
        if fault is not None and fault[0] == "crash":
            # in-process execution cannot survive a real crash; surface
            # the same typed, retryable error a pooled crash would
            outcome: Union[Result, ServiceError] = WorkerCrashedError(
                "injected worker_crash (serial mode)"
            )
            self._metrics.record(_outcome_label(outcome), 0.0, 0.0)
            return outcome
        outcome, task_s = _timed_execute(request, seed, fault)
        self._metrics.record(_outcome_label(outcome), task_s, 0.0)
        return outcome
