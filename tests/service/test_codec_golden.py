"""Golden bytes of the result codec.

``encode_result`` is the wire and disk-cache format: replies are dumped
without ``sort_keys``, so the key order is part of the bytes. These
literals pin both the keys and their order for the two equilibrium
kinds the service returns, and check that payloads in this format --
derived decisions included -- decode to the records a fresh solve
gives.
"""

from __future__ import annotations

import json

import pytest

from repro.core.collateral import solve_collateral_game
from repro.core.solver import solve_swap_game
from repro.service.serialize import decode_result, encode_result

_PARAMS = (
    '{"alice":{"alpha":0.3,"r":0.01},"bob":{"alpha":0.3,"r":0.01},'
    '"tau_a":3.0,"tau_b":4.0,"eps_b":1.0,"p0":2.0,"mu":0.002,"sigma":0.1}'
)

#: ``solve_swap_game(Table III, 2.0)``.
SWAP = (
    '{"kind":"swap_equilibrium","params":' + _PARAMS + ',"pstar":2.0,'
    '"p3_threshold":1.481096832140307,'
    '"bob_t2_region":[[1.1817821069873053,2.38870579898749]],'
    '"alice_t1":{"cont":2.2206082788250203,"stop":2.0},'
    '"bob_t1":{"cont":2.1861276498006594,"stop":2.0},'
    '"success_rate":0.714302224572301,"initiated":true}'
)

#: ``solve_collateral_game(Table III, 2.0, 0.5)``.
COLLATERAL = (
    '{"kind":"collateral_equilibrium","params":' + _PARAMS + ',"pstar":2.0,'
    '"collateral":0.5,"p3_threshold":1.0995460956645144,'
    '"bob_t2_region":[[2e-06,2.8662983081925684]],'
    '"alice_t1":{"cont":2.8069478919303186,"stop":2.5},'
    '"bob_t1":{"cont":2.7700328813351587,"stop":2.5},'
    '"success_rate":0.9688394723370817,"alice_engages":true,"bob_engages":true}'
)


def _solved(kind, params):
    if kind == "swap":
        return solve_swap_game(params, 2.0)
    return solve_collateral_game(params, 2.0, 0.5)


GOLDEN = [("swap", SWAP), ("collateral", COLLATERAL)]


class TestGoldenEncoding:
    @pytest.mark.parametrize("kind, literal", GOLDEN)
    def test_encoded_bytes(self, params, kind, literal):
        encoded = json.dumps(encode_result(_solved(kind, params)), separators=(",", ":"))
        assert encoded == literal

    @pytest.mark.parametrize("kind, literal", GOLDEN)
    def test_stored_payload_decodes_to_a_fresh_solve(self, params, kind, literal):
        decoded = decode_result(json.loads(literal))
        fresh = _solved(kind, params)
        assert decoded == fresh
        assert type(decoded) is type(fresh)
        assert decoded.alice_strategy == fresh.alice_strategy
        assert decoded.bob_strategy == fresh.bob_strategy
