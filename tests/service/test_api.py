"""SwapService batch semantics: dedupe, caching, typed errors, parallel
reproducibility."""

from __future__ import annotations

import json

import pytest

from repro.core.collateral import CollateralEquilibrium, solve_collateral_game
from repro.core.solver import solve_swap_game
from repro.service.api import SwapService, default_service
from repro.service.errors import RequestValidationError, ServiceError
from repro.service.executor import ValidationResult, WorkerPool, execute_request
from repro.service.requests import SolveRequest, ValidateRequest
from repro.service.serialize import encode_result
from repro.simulation.montecarlo import empirical_success_rate


class TestSolveBatch:
    def test_matches_direct_solver_bit_for_bit(self, params):
        service = SwapService()
        [item] = service.solve_batch([SolveRequest(pstar=2.0, params=params)])
        direct = solve_swap_game(params, 2.0)
        assert item.ok and not item.cached
        assert item.value == direct
        assert item.value.p3_threshold == direct.p3_threshold

    def test_collateral_requests_dispatch_to_section_iv(self, params):
        service = SwapService()
        [item] = service.solve_batch(
            [SolveRequest(pstar=2.0, collateral=0.5, params=params)]
        )
        assert isinstance(item.value, CollateralEquilibrium)
        assert item.value == solve_collateral_game(params, 2.0, 0.5)

    def test_repeat_served_from_cache(self, params):
        service = SwapService()
        cold = service.solve_batch([SolveRequest(pstar=2.0, params=params)])
        warm = service.solve_batch([SolveRequest(pstar=2.0, params=params)])
        assert not cold[0].cached and warm[0].cached
        assert warm[0].value == cold[0].value
        stats = service.stats()["memory"]
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_within_batch_dedupe(self, params):
        service = SwapService()
        items = service.solve_batch(
            [SolveRequest(pstar=2.0, params=params)] * 5
            + [SolveRequest(pstar=2.1, params=params)]
        )
        assert len(items) == 6
        assert len({item.key for item in items}) == 2
        # five duplicates collapse onto one computation
        assert service.stats()["memory"]["puts"] == 2
        assert items[0].value == items[4].value

    def test_kind_check(self, params):
        service = SwapService()
        with pytest.raises(RequestValidationError):
            service.solve_batch([ValidateRequest(pstar=2.0, params=params)])
        with pytest.raises(RequestValidationError):
            service.validate_batch([SolveRequest(pstar=2.0, params=params)])

    def test_sweep_and_success_rates(self, params):
        service = SwapService()
        rates = service.success_rates([1.8, 2.0, 2.2], params=params)
        assert len(rates) == 3
        assert all(0.0 <= r <= 1.0 for r in rates)


class TestErrors:
    def test_bad_request_does_not_kill_batch(self, params, monkeypatch):
        import repro.service.executor as executor_module

        real = executor_module.solve_swap_game

        def flaky(p, pstar):
            if pstar == 1.9:
                raise ValueError("induced failure")
            return real(p, pstar)

        monkeypatch.setattr(executor_module, "solve_swap_game", flaky)
        service = SwapService()  # serial: executes in-process, patch applies
        items = service.run_batch(
            [
                SolveRequest(pstar=1.9, params=params),
                SolveRequest(pstar=2.0, params=params),
            ]
        )
        assert not items[0].ok
        assert items[0].error.code == "solve_failed"
        assert "induced failure" in items[0].error.message
        assert not items[0].error.retryable
        assert items[1].ok

    def test_failures_are_not_cached(self, params, monkeypatch):
        import repro.service.executor as executor_module

        real = executor_module.solve_swap_game
        calls = {"n": 0}

        def once_flaky(p, pstar):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("transient")
            return real(p, pstar)

        monkeypatch.setattr(executor_module, "solve_swap_game", once_flaky)
        service = SwapService()
        request = SolveRequest(pstar=2.0, params=params)
        assert not service.run_batch([request])[0].ok
        retry = service.run_batch([request])[0]
        assert retry.ok and not retry.cached

    def test_unwrap_raises_service_error(self):
        from repro.service.api import BatchItem
        from repro.service.errors import ServiceErrorInfo

        item = BatchItem(
            key="k",
            ok=False,
            error=ServiceErrorInfo(code="solve_failed", message="boom"),
        )
        with pytest.raises(ServiceError, match="boom"):
            item.unwrap()

    def test_constructor_validation(self, params):
        with pytest.raises(RequestValidationError):
            SolveRequest(pstar=-1.0, params=params)
        with pytest.raises(RequestValidationError):
            SolveRequest(pstar=2.0, collateral=-0.5, params=params)
        with pytest.raises(RequestValidationError):
            ValidateRequest(pstar=2.0, n_paths=0, params=params)


class TestValidateBatch:
    def test_explicit_seed_matches_direct_call(self, params):
        service = SwapService()
        [item] = service.validate_batch(
            [ValidateRequest(pstar=2.0, n_paths=4_000, seed=9, params=params)]
        )
        direct = empirical_success_rate(params, 2.0, n_paths=4_000, seed=9)
        assert item.value.empirical == direct
        assert item.value.seed_used == 9

    def test_derived_seed_is_reproducible(self, params):
        request = ValidateRequest(pstar=2.0, n_paths=4_000, params=params)
        a = SwapService().validate_batch([request])[0].value
        b = SwapService().validate_batch([request])[0].value
        assert isinstance(a, ValidationResult)
        assert a == b
        assert a.seed_used == b.seed_used

    def test_parallel_reproduces_serial_exactly(self, params):
        requests = [
            ValidateRequest(pstar=k, n_paths=3_000, seed=5, params=params)
            for k in (1.7, 1.9, 2.0, 2.1, 2.3)
        ]
        serial = SwapService(max_workers=1).validate_batch(requests)
        parallel = SwapService(max_workers=3).validate_batch(requests)
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert json.dumps(encode_result(s.value), sort_keys=True) == json.dumps(
                encode_result(p.value), sort_keys=True
            )
            assert s.value == p.value


class TestDiskPersistence:
    def test_cache_survives_fresh_instance(self, params, tmp_path):
        request = SolveRequest(pstar=2.0, params=params)
        first = SwapService(cache_dir=str(tmp_path))
        cold = first.solve_batch([request])[0]
        second = SwapService(cache_dir=str(tmp_path))
        warm = second.solve_batch([request])[0]
        assert warm.cached
        assert warm.value == cold.value
        assert second.stats()["disk"]["hits"] == 1

    def test_validation_results_persist(self, params, tmp_path):
        request = ValidateRequest(pstar=2.0, n_paths=2_000, seed=1, params=params)
        first = SwapService(cache_dir=str(tmp_path)).validate_batch([request])[0]
        warm = SwapService(cache_dir=str(tmp_path)).validate_batch([request])[0]
        assert warm.cached
        assert warm.value == first.value


class TestExecutor:
    def test_worker_pool_serial_fallback(self, params):
        pool = WorkerPool(max_workers=1)
        request = SolveRequest(pstar=2.0, params=params)
        [result] = pool.map([(request, None)])
        assert result == solve_swap_game(params, 2.0)

    def test_execute_request_rejects_unknown(self):
        from repro.service.errors import SolveFailedError

        with pytest.raises(SolveFailedError):
            execute_request("not a request")  # type: ignore[arg-type]

    def test_pool_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)

    @pytest.mark.parametrize("collateral", [0.0, 0.5])
    def test_a_validation_builds_one_solver(self, params, monkeypatch, collateral):
        from repro.core.backward_induction import BackwardInduction

        built = []
        init = BackwardInduction.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BackwardInduction, "__init__", counted)
        request = ValidateRequest(
            pstar=2.0, n_paths=2_000, collateral=collateral, params=params
        )
        result = execute_request(request, seed=11)
        assert len(built) == 1
        monkeypatch.setattr(BackwardInduction, "__init__", init)
        # the replay bench/checks.py makes of every served validation
        assert result.empirical == empirical_success_rate(
            params, 2.0, n_paths=2_000, seed=11, collateral=collateral
        )
        solved = (
            solve_collateral_game(params, 2.0, collateral)
            if collateral
            else solve_swap_game(params, 2.0)
        )
        assert result.analytic == solved.success_rate


class TestPoolTimeout:
    """A timeout needs a pool: a serial call cannot be preempted."""

    def test_timeout_without_workers_is_rejected(self):
        from repro.server.config import ServerConfig

        with pytest.raises(ValueError, match="workers > 1"):
            WorkerPool(max_workers=1, timeout=1.0)
        with pytest.raises(ValueError, match="workers > 1"):
            SwapService(timeout=1.0)
        with pytest.raises(ValueError, match="workers > 1"):
            ServerConfig(timeout=1.0)
        assert ServerConfig(workers=2, timeout=1.0).timeout == 1.0

    def test_a_lone_job_with_a_timeout_runs_in_the_pool(self, params):
        from repro.faults import FaultSpec, InjectionPlan
        from repro.service.errors import RequestTimeoutError

        plan = InjectionPlan(faults=(FaultSpec(kind="worker_hang", delay=1.0),), seed=0)
        pool = WorkerPool(max_workers=2, timeout=0.2, faults=plan)
        [outcome] = pool.map([(SolveRequest(pstar=2.0, params=params), None)])
        assert isinstance(outcome, RequestTimeoutError)

    def test_a_lone_job_without_a_timeout_stays_in_process(self, params, monkeypatch):
        import repro.service.executor as executor_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a lone job without a timeout must not fork")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
        [result] = WorkerPool(max_workers=2).map(
            [(SolveRequest(pstar=2.0, params=params), None)]
        )
        assert result == solve_swap_game(params, 2.0)


class TestDefaultService:
    def test_shared_instance(self):
        assert default_service() is default_service()


class TestNonFiniteThreshold:
    """At ``r_a = 1000`` Alice's discounted claim and refund underflow
    to 0, so Eq. 18's threshold is 0/0: every path answers a typed
    ``solve_failed``, and nothing is cached under the key."""

    PARAMS = {"r_a": 1000}

    def _requests(self, *pstars, **fields):
        from repro.service.requests import parse_request

        return [
            parse_request({"pstar": p, "params": self.PARAMS, **fields})
            for p in pstars
        ]

    def _assert_typed_and_uncached(self, service, requests):
        for _ in range(2):  # a second call must not find a cached answer
            items = service.run_batch(requests)
            for item in items:
                assert not item.ok
                assert item.error.code == "solve_failed"
                assert "not finite" in item.error.message
                assert not item.cached
        assert service.stats()["memory"]["puts"] == 0

    def test_a_single_solve(self):
        service = SwapService()
        self._assert_typed_and_uncached(service, self._requests(2.0, kind="solve"))
        self._assert_typed_and_uncached(
            service, self._requests(2.0, kind="solve", collateral=0.5)
        )

    def test_an_engine_group(self):
        from repro.core.engine import solve_grid

        requests = self._requests(1.5, 1.6, 1.7, kind="solve")
        with pytest.raises(ValueError, match="not finite"):
            solve_grid(requests[0].params, [1.5, 1.6, 1.7])
        self._assert_typed_and_uncached(SwapService(), requests)

    def test_a_validation(self):
        service = SwapService()
        self._assert_typed_and_uncached(
            service, self._requests(2.0, kind="validate", n_paths=100)
        )


class TestEngineRefusals:
    """A grid the model refuses is no engine fault: the engine answers
    each refused point the scalar rung's typed error, counts nothing as
    degraded, and leaves the group's other points their answers."""

    @pytest.fixture()
    def registry(self):
        from repro.obs.metrics import Registry, use_registry

        fresh = Registry()
        with use_registry(fresh):
            yield fresh

    @pytest.fixture()
    def scalar_calls(self, monkeypatch):
        from repro.service.sources import ScalarSource

        calls = []
        answer = ScalarSource.answer

        def recording(source, slots):
            calls.append([slot.request.pstar for slot in slots])
            return answer(source, slots)

        monkeypatch.setattr(ScalarSource, "answer", recording)
        return calls

    @staticmethod
    def _degraded(registry):
        family = registry.snapshot().get("repro_degraded_total")
        if family is None:
            return 0.0
        return sum(
            s["value"] for s in family["samples"] if s["labels"]["path"] == "engine_to_scalar"
        )

    @staticmethod
    def _scalar_error(request):
        with pytest.raises(ServiceError) as info:
            execute_request(request)
        return info.value

    def _requests(self, overrides, *pstars):
        from repro.service.requests import parse_request

        return [
            parse_request({"pstar": p, "params": overrides, "kind": "solve"})
            for p in pstars
        ]

    def test_a_wholly_refused_group(self, registry, scalar_calls):
        requests = self._requests({"r_a": 1000}, 1.5, 1.6, 1.7)
        service = SwapService()
        for _ in range(2):
            items = service.run_batch(requests)
            for item, request in zip(items, requests):
                expected = self._scalar_error(request)
                assert not item.ok and not item.cached
                assert item.source == "engine"
                assert item.error.code == expected.code == "solve_failed"
                assert item.error.message == str(expected)
        assert scalar_calls == []
        assert self._degraded(registry) == 0.0
        assert service.stats()["memory"]["puts"] == 0

    def test_a_mixed_group(self, registry, scalar_calls):
        """Table III at ``mu = -183``: the thresholds at ``P* = 1e-300``
        and ``1e-290`` are finite (5.98e17, 5.98e27), the one at 2.0
        is not."""
        requests = self._requests({"mu": -183.0}, 1e-300, 1e-290, 2.0)
        service = SwapService()
        items = service.run_batch(requests)
        for item, request in zip(items[:2], requests):
            assert item.ok and item.source == "scalar"
            assert item.value == solve_swap_game(request.params, request.pstar)
        assert [item.value.p3_threshold for item in items[:2]] == pytest.approx(
            [5.978445824490353e17, 5.978445824490352e27]
        )
        refused = items[2]
        expected = self._scalar_error(requests[2])
        assert not refused.ok and refused.source == "engine"
        assert refused.error.code == "solve_failed"
        assert refused.error.message == str(expected)
        assert "not finite" in refused.error.message
        assert scalar_calls == [[1e-300, 1e-290]]
        assert self._degraded(registry) == 0.0
        # the refusal was not cached: alone now, the point goes scalar
        again = service.run_batch(requests)
        assert [item.source for item in again] == ["cache", "cache", "scalar"]
        assert again[2].error == refused.error

    def test_an_injected_engine_error_still_degrades(self, registry, scalar_calls):
        from repro.faults import FaultSpec, InjectionPlan

        plan = InjectionPlan(faults=(FaultSpec(kind="engine_error", count=1),), seed=0)
        requests = self._requests({"r_a": 1000}, 1.5, 1.6, 1.7)
        items = SwapService(faults=plan).run_batch(requests)
        assert [item.source for item in items] == ["scalar"] * 3
        assert all(item.error.code == "solve_failed" for item in items)
        assert self._degraded(registry) == 1.0
