"""Seeded inputs of the four workloads.

Every generator takes a NumPy ``Generator`` and yields operations
forever; the same seed gives the same sequence. Mixes are drawn in
fixed *blocks* (an exact count of each kind, shuffled), so the share of
each kind -- and with it every latency quantile -- does not drift from
seed to seed; only parameters, grids and order do. Parameters are drawn
per operation from a neighbourhood of the paper's Table III.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Tuple

import numpy as np

from bench.loadgen import build_request
from repro.core.parameters import SwapParameters
from repro.service.requests import SolveRequest, ValidateRequest
from repro.stochastic.law import parse_law

#: Independent random streams of one seed.
MEASURED, WARMUP, SAMPLING = 0, 1, 2

#: Table III neighbourhood: ``(low, high)`` per flat override key.
NEIGHBOURHOOD: Dict[str, Tuple[float, float]] = {
    "sigma": (0.08, 0.12),
    "mu": (0.001, 0.003),
    "alpha_a": (0.25, 0.35),
    "alpha_b": (0.25, 0.35),
    "r_a": (0.008, 0.012),
    "r_b": (0.008, 0.012),
}

VALIDATE_PATHS = 2000


def stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng([seed, which])


def draw_overrides(rng: np.random.Generator) -> Dict[str, float]:
    """A flat ``SwapParameters.from_dict`` override map near Table III."""
    return {key: float(rng.uniform(lo, hi)) for key, (lo, hi) in NEIGHBOURHOOD.items()}


def draw_params(rng: np.random.Generator, law: str = "lognormal") -> SwapParameters:
    params = SwapParameters.from_dict(draw_overrides(rng))
    return params if law == "lognormal" else params.replace(law=parse_law(law))


def _blocks(rng: np.random.Generator, block: Tuple[str, ...]) -> Iterator[str]:
    """``block``'s labels, reshuffled every block; never ``repeat`` first."""
    first = True
    while True:
        labels = list(block)
        rng.shuffle(labels)
        if first and labels[0] == "repeat":
            swap = next(i for i, label in enumerate(labels) if label != "repeat")
            labels[0], labels[swap] = labels[swap], labels[0]
        first = False
        yield from labels


def _with_repeats(rng, block, fresh, recent: int):
    """Fresh operations from ``fresh(label)``; a ``repeat`` label re-issues
    one of the last ``recent`` fresh ones (still in cache by construction)."""
    history: List = []
    for label in _blocks(rng, block):
        if label == "repeat":
            window = history[-recent:]
            yield window[int(rng.integers(len(window)))], True
        else:
            op = fresh(label)
            history.append(op)
            yield op, False


# ---------------------------------------------------------------------- #
# sweep-offline
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class SweepCall:
    """One ``SwapService.sweep`` call."""

    label: str
    params: SwapParameters
    pstars: Tuple[float, ...]
    collateral: float = 0.0
    repeat: bool = False


#: Per 20 calls: 4 repeats (cache hits), 10 lognormal 64-point grids
#: (3 with Q=0.5), 2 Fig. 6 curves at 256 points, 3 merton + 1 regime at
#: 64. The 3:1 jump-law split keeps p90 inside the merton group instead
#: of on the regime/merton boundary, where it would jump between them.
SWEEP_BLOCK = (
    ("ln64",) * 7 + ("lnQ64",) * 3 + ("ln256",) * 2
    + ("merton64",) * 3 + ("regime64",) + ("repeat",) * 4
)
_SWEEP_LAWS = {"merton64": "merton", "regime64": "regime"}


def sweep_calls(rng: np.random.Generator) -> Iterator[SweepCall]:
    def fresh(label: str) -> SweepCall:
        if label == "ln256":
            lo, hi, n = rng.uniform(0.9, 1.1), rng.uniform(3.0, 3.4), 256
        else:
            lo = rng.uniform(1.2, 1.8)
            hi, n = lo + rng.uniform(0.6, 1.2), 64
        params = draw_params(rng, _SWEEP_LAWS.get(label, "lognormal"))
        pstars = tuple(float(p) for p in np.linspace(lo, hi, n))
        return SweepCall(label, params, pstars, 0.5 if label == "lnQ64" else 0.0)

    for call, repeat in _with_repeats(rng, SWEEP_BLOCK, fresh, recent=8):
        yield replace(call, repeat=True) if repeat else call


# ---------------------------------------------------------------------- #
# batch-offline
# ---------------------------------------------------------------------- #

BATCH_BLOCK = ("fresh",) * 3 + ("repeat",)


def fresh_batch(rng: np.random.Generator) -> Tuple:
    """64 lines: 48 solves in 3 (params, collateral) groups x 16 P*,
    8 in-batch duplicates of those, 8 validations at 2000 paths."""
    solves = []
    for collateral in (0.0, 0.5, 0.0):
        params = draw_params(rng)
        solves += [
            SolveRequest(pstar=float(p), collateral=collateral, params=params)
            for p in rng.uniform(1.4, 2.6, 16)
        ]
    duplicates = [solves[int(i)] for i in rng.choice(len(solves), 8, replace=False)]
    validations = [
        ValidateRequest(
            pstar=float(rng.uniform(1.6, 2.4)),
            n_paths=VALIDATE_PATHS,
            params=draw_params(rng),
        )
        for _ in range(8)
    ]
    lines = solves + duplicates + validations
    return tuple(lines[int(i)] for i in rng.permutation(len(lines)))


def batch_calls(rng: np.random.Generator) -> Iterator[Tuple]:
    """Batches; a quarter repeat one of the last four fresh batches."""
    for batch, _repeat in _with_repeats(rng, BATCH_BLOCK, lambda _: fresh_batch(rng), recent=4):
        yield batch


# ---------------------------------------------------------------------- #
# HTTP workloads
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class HttpOp:
    """One HTTP request: its kind, its decoded content, its exact bytes."""

    kind: str  # "solve" | "validate" | "sweep"
    payload: Dict[str, object]
    wire: bytes

    @staticmethod
    def post(kind: str, payload: Dict[str, object]) -> "HttpOp":
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return HttpOp(kind, payload, build_request("POST", f"/v1/{kind}", body))

    @staticmethod
    def sweep(pstars) -> "HttpOp":
        pstars = [float(p) for p in pstars]
        path = "/v1/sweep?pstars=" + ",".join(repr(p) for p in pstars)
        return HttpOp("sweep", {"pstars": pstars}, build_request("GET", path))


HOT_KEYS = 256
HOT_ZIPF = 1.2


def hot_keyset() -> List[HttpOp]:
    """The 256 solve requests of ``http-hot`` (Table III, P* on a grid)."""
    return [HttpOp.post("solve", {"pstar": float(p)}) for p in np.linspace(1.2, 2.8, HOT_KEYS)]


def hot_ops(rng: np.random.Generator, keys: List[HttpOp], hot_order: np.ndarray) -> Iterator[HttpOp]:
    """Zipf(1.2) draws over ``keys``; ``hot_order[rank]`` is the key of
    popularity rank ``rank``."""
    weights = np.arange(1, len(keys) + 1, dtype=float) ** -HOT_ZIPF
    weights /= weights.sum()
    while True:
        for rank in rng.choice(len(keys), size=1024, p=weights):
            yield keys[int(hot_order[int(rank)])]


#: Per 20 requests: 16 unique solves (a quarter with Q=0.5), one 8-point
#: sweep, one 2000-path validation, two repeats of recent requests.
MISS_BLOCK = ("solve",) * 12 + ("solveQ",) * 4 + ("sweep", "validate") + ("repeat",) * 2


def miss_ops(rng: np.random.Generator) -> Iterator[HttpOp]:
    def fresh(label: str) -> HttpOp:
        if label == "sweep":
            return HttpOp.sweep(np.sort(rng.uniform(1.3, 2.7, 8)))
        if label == "validate":
            return HttpOp.post(
                "validate",
                {
                    "pstar": float(rng.uniform(1.6, 2.4)),
                    "n_paths": VALIDATE_PATHS,
                    "params": draw_overrides(rng),
                },
            )
        payload: Dict[str, object] = {
            "pstar": float(rng.uniform(1.3, 2.7)),
            "params": draw_overrides(rng),
        }
        if label == "solveQ":
            payload["collateral"] = 0.5
        return HttpOp.post("solve", payload)

    for op, _repeat in _with_repeats(rng, MISS_BLOCK, fresh, recent=32):
        yield op
