"""JSON codecs for service results.

The disk cache and the ``repro-swaps batch`` wire format both need
result objects as plain JSON. Floats survive exactly: Python's
``json`` writes shortest round-trip reprs, so
``decode_result(json.loads(json.dumps(encode_result(x))))``
reproduces every threshold bit-for-bit (property-tested).

The two equilibrium kinds are coded from the record's own field list
(:class:`~repro.core.equilibrium.SolvedGame`): ``kind``, then every
stored field in declaration order, then the derived ``t1`` decisions
(``initiated``; or ``alice_engages`` and ``bob_engages``). Replies
are dumped without ``sort_keys``, so that order is part of the bytes.
Decoding reads the stored fields and ignores the derived keys: the
decisions and strategies are rebuilt by the record's properties, not
stored.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List

from repro.core.collateral import CollateralEquilibrium
from repro.core.equilibrium import StageUtilities, SwapEquilibrium
from repro.core.parameters import SwapParameters
from repro.service.executor import Result, ValidationResult
from repro.simulation.montecarlo import MonteCarloResult
from repro.stochastic.rootfind import IntervalUnion
from repro.swapgraph.result import SwapGraphResult

__all__ = ["encode_result", "decode_result"]


def _encode_region(region: IntervalUnion) -> List[List[float]]:
    return [[lo, hi] for lo, hi in region.intervals]


def _decode_region(data: List[List[float]]) -> IntervalUnion:
    return IntervalUnion(tuple((float(lo), float(hi)) for lo, hi in data))


def _encode_stage(stage: StageUtilities) -> Dict[str, float]:
    return {"cont": stage.cont, "stop": stage.stop}


def _decode_stage(data: Dict[str, float]) -> StageUtilities:
    return StageUtilities(cont=float(data["cont"]), stop=float(data["stop"]))


#: Codecs of the stored fields that are not plain floats; every
#: equilibrium record has these four.
_FIELD_CODECS = {
    "params": (SwapParameters.to_dict, SwapParameters.from_dict),
    "bob_t2_region": (_encode_region, _decode_region),
    "alice_t1": (_encode_stage, _decode_stage),
    "bob_t1": (_encode_stage, _decode_stage),
}

#: Each equilibrium record's ``kind`` and the derived keys written
#: after its stored fields.
_RECORDS = {
    SwapEquilibrium: ("swap_equilibrium", ("initiated",)),
    CollateralEquilibrium: ("collateral_equilibrium", ("alice_engages", "bob_engages")),
}

#: Per ``kind``: the record type and each stored field's decoder.
_DECODERS = {
    kind: (
        record,
        tuple(
            (f.name, _FIELD_CODECS[f.name][1] if f.name in _FIELD_CODECS else float)
            for f in fields(record)
        ),
    )
    for record, (kind, _) in _RECORDS.items()
}


def encode_result(result: Result) -> Dict[str, object]:
    """Encode any service result into a tagged JSON-safe dict."""
    record = _RECORDS.get(type(result))
    if record is not None:
        kind, derived = record
        # a dataclass's instance dict holds its fields in declaration
        # order; re-assigning a key encodes it in place
        payload: Dict[str, object] = {"kind": kind, **vars(result)}
        for name, (encode, _) in _FIELD_CODECS.items():
            payload[name] = encode(payload[name])
        for name in derived:
            payload[name] = getattr(result, name)
        return payload
    # imported lazily: repro.surface depends on this module (via the
    # cache), so a top-level import would be circular
    from repro.surface.interpolate import SurfaceAnswer

    if isinstance(result, SurfaceAnswer):
        return {
            "kind": "surface_answer",
            "pstar": result.pstar,
            "collateral": result.collateral,
            "success_rate": result.success_rate,
            "bound": result.bound,
        }
    if isinstance(result, SwapGraphResult):
        payload = result.to_dict()
        payload["kind"] = "swap_graph_result"
        return payload
    if isinstance(result, ValidationResult):
        empirical = result.empirical
        return {
            "kind": "validation",
            "pstar": empirical.pstar,
            "collateral": empirical.collateral,
            "n_paths": empirical.n_paths,
            "n_initiated": empirical.n_initiated,
            "n_completed": empirical.n_completed,
            "success_rate": empirical.success_rate,
            "ci_low": empirical.ci_low,
            "ci_high": empirical.ci_high,
            "analytic": result.analytic,
            "seed_used": result.seed_used,
            "passed": result.passed,
        }
    raise TypeError(f"cannot encode result of type {type(result).__name__}")


def decode_result(data: Dict[str, object]) -> Result:
    """Rebuild the result object from its :func:`encode_result` form."""
    kind = data.get("kind")
    if kind in _DECODERS:
        record, decoders = _DECODERS[kind]
        return record(**{name: decode(data[name]) for name, decode in decoders})
    if kind == "surface_answer":
        from repro.surface.interpolate import SurfaceAnswer

        return SurfaceAnswer(
            pstar=float(data["pstar"]),  # type: ignore[arg-type]
            collateral=float(data["collateral"]),  # type: ignore[arg-type]
            success_rate=float(data["success_rate"]),  # type: ignore[arg-type]
            bound=float(data["bound"]),  # type: ignore[arg-type]
        )
    if kind == "swap_graph_result":
        return SwapGraphResult.from_dict(data)
    if kind == "validation":
        empirical = MonteCarloResult(
            pstar=float(data["pstar"]),  # type: ignore[arg-type]
            collateral=float(data["collateral"]),  # type: ignore[arg-type]
            n_paths=int(data["n_paths"]),  # type: ignore[arg-type]
            n_initiated=int(data["n_initiated"]),  # type: ignore[arg-type]
            n_completed=int(data["n_completed"]),  # type: ignore[arg-type]
            success_rate=float(data["success_rate"]),  # type: ignore[arg-type]
            ci_low=float(data["ci_low"]),  # type: ignore[arg-type]
            ci_high=float(data["ci_high"]),  # type: ignore[arg-type]
        )
        return ValidationResult(
            empirical=empirical,
            analytic=float(data["analytic"]),  # type: ignore[arg-type]
            seed_used=int(data["seed_used"]),  # type: ignore[arg-type]
        )
    raise ValueError(f"cannot decode result kind {kind!r}")
