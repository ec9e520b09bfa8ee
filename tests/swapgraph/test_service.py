"""Swap-graph requests through the service layer: parsing, keys,
caching, codecs, seeds, and the dispatcher-side fault hooks."""

from __future__ import annotations

import json

import pytest

from repro.service.api import SwapService
from repro.service.errors import SolveFailedError
from repro.service.keys import derive_seed, request_key
from repro.service.requests import SwapGraphRequest, parse_request
from repro.service.serialize import decode_result, encode_result
from repro.swapgraph import SwapGraphResult, SwapGraphSpec


def cycle_request(**overrides) -> SwapGraphRequest:
    fields = dict(spec=SwapGraphSpec.cycle(3), n_lattice=7)
    fields.update(overrides)
    return SwapGraphRequest(**fields)


class TestParsing:
    def test_round_trip(self):
        request = cycle_request(replay=True, replay_paths=50, seed=9)
        rebuilt = parse_request(json.loads(json.dumps(request.to_dict())))
        assert rebuilt == request

    def test_kind_tag(self):
        assert cycle_request().to_dict()["kind"] == "swap_graph"

    def test_rejects_unknown_fields(self):
        data = cycle_request().to_dict()
        data["bogus"] = True
        with pytest.raises(Exception, match="bogus"):
            parse_request(data)

    def test_unknown_kind_names_swap_graph(self):
        with pytest.raises(Exception, match="swap_graph"):
            parse_request({"kind": "nonsense"})

    def test_rejects_bad_replay_paths(self):
        from repro.service.errors import RequestValidationError

        with pytest.raises(RequestValidationError, match="replay_paths"):
            cycle_request(replay_paths=0)


class TestKeys:
    def test_key_is_stable(self):
        assert request_key(cycle_request()) == request_key(cycle_request())

    def test_key_sees_every_knob(self):
        base = request_key(cycle_request())
        assert request_key(cycle_request(n_lattice=9)) != base
        assert request_key(cycle_request(replay=True)) != base
        assert (
            request_key(
                SwapGraphRequest(spec=SwapGraphSpec.cycle(4), n_lattice=7)
            )
            != base
        )


class TestService:
    def test_solve_and_cache(self):
        service = SwapService()
        request = cycle_request()
        first = service.run_batch([request])[0]
        assert first.ok and not first.cached
        second = service.run_batch([request])[0]
        assert second.ok and second.cached
        assert first.value.to_dict() == second.value.to_dict()

    def test_replay_seed_derived_from_key(self):
        service = SwapService()
        request = cycle_request(replay=True, replay_paths=40)
        result = service.run_batch([request])[0].unwrap()
        assert result.replay is not None
        assert result.replay.seed == derive_seed(request_key(request))

    def test_explicit_seed_wins(self):
        service = SwapService()
        request = cycle_request(replay=True, replay_paths=40, seed=123)
        result = service.run_batch([request])[0].unwrap()
        assert result.replay.seed == 123

    def test_convenience_method(self):
        result = SwapService().swap_graph(SwapGraphSpec.cycle(3), n_lattice=7)
        assert isinstance(result, SwapGraphResult)
        assert result.replay is None

    def test_mixed_batch(self):
        from repro.service.requests import SolveRequest

        service = SwapService()
        items = service.run_batch(
            [SolveRequest(pstar=2.0), cycle_request()]
        )
        assert all(item.ok for item in items)
        assert items[1].value.equilibrium.initiated


class TestCodec:
    def test_result_round_trip(self):
        result = SwapService().swap_graph(
            SwapGraphSpec.cycle(3), n_lattice=7, replay=True, replay_paths=40
        )
        encoded = json.loads(json.dumps(encode_result(result)))
        assert encoded["kind"] == "swap_graph_result"
        decoded = decode_result(encoded)
        assert decoded.to_dict() == result.to_dict()


class TestFaults:
    def test_swapgraph_error_hook(self):
        from repro.faults.plan import InjectionPlan

        plan = InjectionPlan.from_dict(
            {"seed": 1, "faults": [{"kind": "swapgraph_error", "count": 1}]}
        )
        service = SwapService(faults=plan)
        item = service.run_batch([cycle_request()])[0]
        assert not item.ok
        assert item.error is not None
        assert item.error.code == SolveFailedError.code
        assert service.faults.injected_total("swapgraph_error") == 1
        # the budget is spent: the next identical request heals
        healed = service.run_batch([cycle_request()])[0]
        assert healed.ok

    def test_injected_error_is_not_counted_as_deduped(self):
        from repro.faults.plan import InjectionPlan
        from repro.obs.metrics import Registry, use_registry

        plan = InjectionPlan.from_dict(
            {"seed": 1, "faults": [{"kind": "swapgraph_error", "count": 1}]}
        )
        registry = Registry()
        with use_registry(registry):
            item = SwapService(faults=plan).run_batch([cycle_request()])[0]
        assert not item.ok
        assert registry.counter("repro_batch_deduped_total").value() == 0

    def test_swapgraph_slow_hook(self):
        from repro.faults.plan import InjectionPlan

        plan = InjectionPlan.from_dict(
            {
                "seed": 1,
                "faults": [
                    {"kind": "swapgraph_slow", "delay": 0.01, "count": 1}
                ],
            }
        )
        service = SwapService(faults=plan)
        item = service.run_batch([cycle_request()])[0]
        assert item.ok
        assert service.faults.injected_total("swapgraph_slow") == 1
