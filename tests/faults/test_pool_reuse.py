"""One executor per worker pool: forked once, reused, killed on close.

The load-bearing assertions: pooled maps reuse one
``ProcessPoolExecutor`` (a crash replaces it exactly once), one map's
crash or timeout never fails another map's job, a timed-out map leaves
no worker process behind, and ``close()`` -- or dropping the pool --
releases every worker.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time

import pytest

from repro.core.parameters import SwapParameters
from repro.faults import FaultSpec, InjectionPlan
from repro.service.api import SwapService
from repro.service.errors import (
    RequestTimeoutError,
    ServiceError,
    WorkerCrashedError,
)
from repro.service.executor import WorkerPool
from repro.service.requests import SolveRequest, ValidateRequest
from tests.faults.conftest import counter_value

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="counts child processes through /proc"
)

# a request no other job shares: the target of the injected faults
TARGET = SolveRequest(pstar=3.25)
TARGET_MATCH = '"pstar":3.25'


def child_pids() -> set:
    """PIDs of this process's live or unreaped children."""
    me = os.getpid()
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parens
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.add(int(entry))
    return pids


def wait_for_no_new_children(before: set, seconds: float = 5.0) -> set:
    """The children born since ``before`` that outlive ``seconds``."""
    stop = time.monotonic() + seconds
    while child_pids() - before and time.monotonic() < stop:
        time.sleep(0.02)
    return child_pids() - before


def validations(count: int, first_seed: int = 100):
    return [
        (ValidateRequest(pstar=1.7 + 0.1 * i, n_paths=400, seed=first_seed + i), None)
        for i in range(count)
    ]


def serial(jobs):
    return WorkerPool(max_workers=1).map(jobs)


@pytest.fixture()
def built(monkeypatch):
    """Every executor the worker pools create, in creation order."""
    import repro.service.executor as executor_module

    real = executor_module.ProcessPoolExecutor
    made = []

    def counting(max_workers):
        executor = real(max_workers=max_workers)
        made.append(executor)
        return executor

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", counting)
    return made


class TestOneExecutor:
    def test_five_maps_build_one_executor(self, registry, built):
        jobs = validations(2)
        with WorkerPool(max_workers=2) as pool:
            for _ in range(5):
                assert pool.map(jobs) == serial(jobs)
        assert len(built) == 1

    def test_a_crash_rebuilds_once_and_the_next_map_reuses_it(
        self, registry, built
    ):
        plan = InjectionPlan(
            faults=(FaultSpec(kind="worker_crash", match=TARGET_MATCH, count=1),),
            seed=0,
        )
        jobs = [(TARGET, None)] + validations(3)
        with WorkerPool(max_workers=2, faults=plan) as pool:
            assert pool.map(jobs) == serial(jobs)
            assert counter_value(registry, "repro_pool_rebuilds_total") == 1
            assert len(built) == 2
            assert pool.map(jobs) == serial(jobs)
        assert len(built) == 2
        assert counter_value(registry, "repro_pool_rebuilds_total") == 1

    def test_the_private_process_map_holds_the_workers(self):
        # close() and the timeout kill read ProcessPoolExecutor's private
        # pid -> Process map; pin its shape on every supported Python
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=2)
        try:
            pid = executor.submit(os.getpid).result(timeout=30)
            assert isinstance(executor._processes, dict)
            assert pid in executor._processes
            assert all(callable(p.kill) for p in executor._processes.values())
        finally:
            executor.shutdown(wait=True)


class TestConcurrentMaps:
    """Two threads, one pool: one map's failure is never the other's."""

    def _other_map(self, pool, jobs, failing_jobs, started_first):
        """Map ``failing_jobs`` on a thread beside the map of ``jobs``;
        ``(failing outcomes, other outcomes)``."""
        box = {}

        def run_failing():
            box["failing"] = pool.map(failing_jobs)

        thread = threading.Thread(target=run_failing)
        if started_first:
            thread.start()
            time.sleep(0.3)  # its job holds a worker before ours queue
            others = pool.map(jobs)
        else:
            thread_started = threading.Timer(0.15, thread.start)
            thread_started.start()
            others = pool.map(jobs)
            thread_started.join()
        thread.join(timeout=30)
        assert not thread.is_alive()
        return box["failing"], others

    @needs_proc
    def test_a_timeout_in_one_map_spares_the_other(self, registry):
        before = child_pids()
        jobs = validations(16)
        plan = InjectionPlan(
            faults=(
                FaultSpec(kind="worker_hang", match=TARGET_MATCH, delay=3.0, count=1),
                # each of the other map's jobs takes 0.1 s on the free
                # worker, so at the hung job's 1 s timeout some of them
                # run, some wait in the executor's call queue and some
                # have not left its pending map yet
                FaultSpec(kind="worker_hang", match='"kind":"validate"', delay=0.1),
            ),
            seed=0,
        )
        expected = serial(jobs)
        with WorkerPool(max_workers=2, timeout=1.0, faults=plan) as pool:
            failing, others = self._other_map(
                pool, jobs, [(TARGET, None)], started_first=True
            )
            # every job was dispatched once: none was cancelled or rerun
            assert pool.injector.injected_total("worker_hang") == len(jobs) + 1
        assert isinstance(failing[0], RequestTimeoutError)
        assert others == expected
        assert counter_value(registry, "repro_pool_rebuilds_total") == 0
        assert wait_for_no_new_children(before) == set()

    def test_a_crash_in_one_map_spares_the_other(self, registry):
        quick = validations(5)
        slow = (ValidateRequest(pstar=2.4, n_paths=400, seed=7), None)
        jobs = quick + [slow]
        plan = InjectionPlan(
            faults=(
                FaultSpec(kind="worker_crash", match=TARGET_MATCH, count=1),
                FaultSpec(kind="worker_hang", match='"seed":7', delay=1.0),
                FaultSpec(kind="worker_hang", match='"kind":"validate"', delay=0.1),
            ),
            seed=0,
        )
        failing_jobs = [(TARGET, None), (SolveRequest(pstar=2.0), None)]
        expected = serial(jobs)
        with WorkerPool(max_workers=2, faults=plan) as pool:
            failing, others = self._other_map(
                pool, jobs, failing_jobs, started_first=False
            )
        assert others == expected
        assert failing == serial(failing_jobs)
        assert counter_value(registry, "repro_pool_rebuilds_total") == 1

    def test_a_close_racing_a_map_answers_typed_errors(self, registry, monkeypatch):
        import repro.service.executor as executor_module

        pool = WorkerPool(max_workers=2)

        class ClosedMeanwhile:
            """An executor that another thread's ``close()`` shuts down
            between this map's lease and its submit."""

            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                pool.close()
                raise RuntimeError("cannot schedule new futures after shutdown")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", ClosedMeanwhile)
        outcomes = pool.map(validations(2))
        assert all(isinstance(out, WorkerCrashedError) for out in outcomes)
        assert all("closed" in str(out) for out in outcomes)

    def test_many_threads_share_one_executor(self, registry, built):
        params = [
            SwapParameters.default().replace(sigma=0.1 + 0.01 * i) for i in range(6)
        ]
        jobs = [(SolveRequest(pstar=2.0, params=p), None) for p in params]
        expected = serial(jobs)
        threads, results, errors = [], [], []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(max_workers=2) as pool:

                def work(offset):
                    try:
                        for round_ in range(4):
                            start = (offset + round_) % len(jobs)
                            mine = (jobs[start:] + jobs[:start])[:3]
                            results.append(
                                (pool.map(mine), [expected[jobs.index(j)] for j in mine])
                            )
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=work, args=(i,)) for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 24
        for got, want in results:
            assert got == want
        assert len(built) == 1


@needs_proc
class TestWorkersAreReleased:
    def test_no_worker_outlives_a_timed_out_map(self, registry):
        before = child_pids()
        plan = InjectionPlan(
            faults=(FaultSpec(kind="worker_hang", delay=3.0),), seed=0
        )
        pool = WorkerPool(max_workers=2, timeout=0.2, faults=plan)
        for _ in range(3):
            [outcome] = pool.map([(TARGET, None)])
            assert isinstance(outcome, RequestTimeoutError)
            assert child_pids() - before == set()

    def test_close_twice_leaves_no_child(self, registry):
        before = child_pids()
        jobs = validations(2)
        pool = WorkerPool(max_workers=2)
        assert pool.map(jobs) == serial(jobs)
        assert child_pids() - before
        pool.close()
        pool.close()
        assert child_pids() - before == set()
        # a closed pool answers pooled jobs with a typed, retryable error
        outcomes = pool.map(jobs)
        assert all(isinstance(out, WorkerCrashedError) for out in outcomes)
        assert child_pids() - before == set()

    def test_close_kills_a_worker_running_an_abandoned_job(self, registry):
        before = child_pids()
        plan = InjectionPlan(
            faults=(FaultSpec(kind="worker_hang", match=TARGET_MATCH, delay=30.0),),
            seed=0,
        )
        pool = WorkerPool(max_workers=2, faults=plan)
        box = {}
        thread = threading.Thread(
            target=lambda: box.setdefault("out", pool.map([(TARGET, None)] + validations(1)))
        )
        thread.start()
        stop = time.monotonic() + 10.0
        while not child_pids() - before and time.monotonic() < stop:
            time.sleep(0.02)
        time.sleep(0.2)
        started = time.perf_counter()
        pool.close()
        assert time.perf_counter() - started < 5.0
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert isinstance(box["out"][0], ServiceError)
        assert child_pids() - before == set()

    def test_with_service_closes_its_pool(self, registry):
        before = child_pids()
        requests = [job[0] for job in validations(2)]
        with SwapService(max_workers=2) as service:
            assert all(item.ok for item in service.run_batch(requests))
            assert child_pids() - before
        assert child_pids() - before == set()

    def test_a_dropped_pool_releases_its_workers(self, registry):
        before = child_pids()
        pool = WorkerPool(max_workers=2)
        pool.map(validations(2))
        assert child_pids() - before
        del pool
        gc.collect()
        assert wait_for_no_new_children(before) == set()
