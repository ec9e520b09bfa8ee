"""Worker-pool chaos: crashes heal, hangs stay bounded, batches survive.

The load-bearing assertions: an injected ``worker_crash`` kills a real
pool process (``os._exit``), the pool rebuilds itself and requeues the
surviving requests, and every requeued request still answers the
*correct* number -- one crash never cascades into batch-wide failure.
"""

from __future__ import annotations

import pytest

from repro.core.parameters import SwapParameters
from repro.core.solver import solve_swap_game
from repro.faults import FaultSpec, InjectionPlan
from repro.service.api import SwapService
from repro.service.errors import ServiceError, WorkerCrashedError
from repro.service.executor import WorkerPool
from repro.service.requests import SolveRequest
from tests.faults.conftest import counter_value

PSTARS = [1.8, 2.0, 2.2, 2.4]
# pairwise-distinct params keep every solve a group of one, which the
# answer chain sends to the scalar rung -- through the worker pool
PARAMS = {
    pstar: SwapParameters.default().replace(sigma=0.1 + 0.01 * i)
    for i, pstar in enumerate(PSTARS)
}


@pytest.fixture(scope="module")
def baseline():
    """Fault-free success rates, from the scalar solver the pool runs."""
    return {
        pstar: solve_swap_game(PARAMS[pstar], pstar).success_rate
        for pstar in PSTARS
    }


def solve_requests():
    return [SolveRequest(pstar=pstar, params=PARAMS[pstar]) for pstar in PSTARS]


class TestPooledCrashHealing:
    def test_single_crash_heals_and_every_answer_is_correct(
        self, registry, baseline
    ):
        plan = InjectionPlan(
            faults=(FaultSpec(kind="worker_crash", count=1),), seed=3
        )
        service = SwapService(max_workers=2, faults=plan)
        items = service.run_batch(solve_requests())
        assert all(item.ok for item in items)
        for pstar, item in zip(PSTARS, items):
            assert item.value.success_rate == baseline[pstar]
        assert service.faults.injected_total("worker_crash") == 1
        assert counter_value(registry, "repro_pool_rebuilds_total") >= 1
        assert (
            counter_value(registry, "repro_degraded_total", path="pool_rebuild")
            >= 1
        )

    def test_targeted_crash_only_requeues_not_fails(self, registry, baseline):
        # crash exactly the pstar=2.2 request; everyone still answers
        plan = InjectionPlan(
            faults=(
                FaultSpec(kind="worker_crash", match='"pstar":2.2', count=1),
            ),
            seed=1,
        )
        service = SwapService(max_workers=2, faults=plan)
        items = service.run_batch(solve_requests())
        assert all(item.ok for item in items)
        for pstar, item in zip(PSTARS, items):
            assert item.value.success_rate == baseline[pstar]
        assert service.faults.injected_total("worker_crash") == 1

    def test_requeue_budget_exhaustion_is_typed_never_a_hang(self, registry):
        # every dispatch crashes: after max_requeues+1 attempts each
        # request surfaces WorkerCrashedError -- typed and retryable
        plan = InjectionPlan(faults=(FaultSpec(kind="worker_crash"),), seed=0)
        pool = WorkerPool(max_workers=2, faults=plan, max_requeues=1)
        outcomes = pool.map([(request, None) for request in solve_requests()])
        assert all(isinstance(out, WorkerCrashedError) for out in outcomes)
        assert all(out.retryable for out in outcomes)

    def test_match_key_is_canonical_payload(self, registry):
        # the executor-site key is the canonical request payload, so a
        # plan can target one request without knowing dispatch order
        from repro.service.keys import canonical_payload

        request = SolveRequest(pstar=2.2)
        assert '"pstar":2.2' in canonical_payload(request)


class _SubmitBreaksPool:
    """A stand-in ``ProcessPoolExecutor`` that runs jobs inline, except
    that the submits numbered in ``broken`` (counted across every
    instance) raise ``BrokenProcessPool``, as submitting to a pool an
    earlier job of the same round crashed does."""

    def __init__(self, broken):
        self.broken = broken
        self.calls = 0

    def __call__(self, max_workers):
        return self

    def submit(self, fn, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        self.calls += 1
        if self.calls in self.broken:
            raise BrokenProcessPool("a child process terminated abruptly")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestSubmitOnBrokenPool:
    def test_failed_submit_is_requeued(self, registry, baseline, monkeypatch):
        import repro.service.executor as executor_module

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", _SubmitBreaksPool({2})
        )
        outcomes = WorkerPool(max_workers=2).map(
            [(request, None) for request in solve_requests()]
        )
        for pstar, outcome in zip(PSTARS, outcomes):
            assert outcome.success_rate == baseline[pstar]
        assert counter_value(registry, "repro_pool_rebuilds_total") == 1

    def test_failed_submits_exhaust_the_budget_typed(self, registry, monkeypatch):
        import repro.service.executor as executor_module

        # the 2nd job's submit fails in round one and its requeue too
        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", _SubmitBreaksPool({2, 5})
        )
        outcomes = WorkerPool(max_workers=2, max_requeues=1).map(
            [(request, None) for request in solve_requests()]
        )
        assert isinstance(outcomes[1], WorkerCrashedError)
        assert outcomes[1].retryable
        assert "2 attempts" in str(outcomes[1])
        assert all(not isinstance(out, ServiceError) for out in outcomes[:1] + outcomes[2:])


class TestSerialFaults:
    def test_serial_crash_is_typed_and_isolated(self, registry, baseline):
        plan = InjectionPlan(
            faults=(FaultSpec(kind="worker_crash", count=1),), seed=0
        )
        service = SwapService(max_workers=1, faults=plan)
        items = service.run_batch(solve_requests())
        failed = [item for item in items if not item.ok]
        assert len(failed) == 1
        assert failed[0].error.code == "worker_crashed"
        assert failed[0].error.retryable
        for pstar, item in zip(PSTARS, items):
            if item.ok:
                assert item.value.success_rate == baseline[pstar]
        # the failure was transient: resubmitting the batch heals it
        retried = service.run_batch(solve_requests())
        assert all(item.ok for item in retried)
        for pstar, item in zip(PSTARS, retried):
            assert item.value.success_rate == baseline[pstar]

    def test_serial_hang_delays_but_answers_correctly(self, registry, baseline):
        plan = InjectionPlan(
            faults=(FaultSpec(kind="worker_hang", delay=0.05, count=1),),
            seed=0,
        )
        service = SwapService(max_workers=1, faults=plan)
        items = service.run_batch(solve_requests())
        assert all(item.ok for item in items)
        for pstar, item in zip(PSTARS, items):
            assert item.value.success_rate == baseline[pstar]
        assert service.faults.injected_total("worker_hang") == 1


class TestPoolConstruction:
    def test_negative_requeue_budget_rejected(self):
        with pytest.raises(ValueError, match="max_requeues"):
            WorkerPool(max_workers=2, max_requeues=-1)

    def test_batch_item_errors_never_raise(self, registry):
        # the invariant at the service boundary: chaos produces typed
        # per-item errors, not exceptions out of run_batch
        plan = InjectionPlan(faults=(FaultSpec(kind="worker_crash"),), seed=0)
        service = SwapService(max_workers=1, faults=plan)
        items = service.run_batch(solve_requests())
        for item in items:
            assert not item.ok
            assert item.error.retryable
            with pytest.raises(ServiceError):
                item.unwrap()
