"""Correctness checks; every failed check counts as a failed operation.

* The golden value: SR at Table III and P*=2 is 0.7143 (4 dp).
* Sampled answers are solved again, outside the timed window, by both
  the scalar solver and the grid engine under the same price law; all
  three must agree within 1e-9.
* A sampled validation must report the scalar analytic rate, and its
  Monte Carlo rate must replay exactly from the seed it reports.
* Every HTTP reply must be a 200 that decodes to ``ok: true`` (with
  every sweep point ``ok``).
"""

from __future__ import annotations

import json
from typing import List

from bench.mixes import HttpOp
from repro.core.collateral import solve_collateral_game
from repro.core.engine import solve_grid
from repro.core.parameters import SwapParameters
from repro.core.solver import solve_swap_game
from repro.simulation.montecarlo import empirical_success_rate

TOLERANCE = 1e-9
GOLDEN_SR = 0.7143


def scalar_sr(params: SwapParameters, pstar: float, collateral: float) -> float:
    if collateral > 0.0:
        return solve_collateral_game(params, pstar, collateral).success_rate
    return solve_swap_game(params, pstar).success_rate


def grid_sr(params: SwapParameters, pstar: float, collateral: float) -> float:
    return float(solve_grid(params, [pstar], collateral=collateral).success_rate[0])


def reply_ok(op: HttpOp, status: int, body: bytes) -> bool:
    """A 200 whose body decodes to ``ok: true`` (every point, for sweeps)."""
    if status != 200:
        return False
    try:
        data = json.loads(body)
    except ValueError:
        return False
    if data.get("ok") is not True:
        return False
    if op.kind == "sweep":
        points = data.get("results", [])
        return len(points) == len(op.payload["pstars"]) and all(p.get("ok") is True for p in points)
    return data.get("kind") == op.kind


class Checks:
    """Counts checks made and keeps a message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def golden(self, success_rate: float) -> None:
        self.expect(
            round(success_rate, 4) == GOLDEN_SR,
            f"golden SR at Table III, P*=2 is {success_rate!r}, expected {GOLDEN_SR}",
        )

    def point(self, params: SwapParameters, pstar: float, collateral: float, answer: float) -> None:
        scalar = scalar_sr(params, pstar, collateral)
        grid = grid_sr(params, pstar, collateral)
        self.expect(
            abs(answer - scalar) <= TOLERANCE and abs(grid - scalar) <= TOLERANCE,
            f"{params.law.kind} P*={pstar!r} Q={collateral!r}: answer {answer!r}, "
            f"scalar {scalar!r}, grid {grid!r}",
        )

    def validation(
        self,
        params: SwapParameters,
        pstar: float,
        collateral: float,
        n_paths: int,
        analytic: float,
        empirical: float,
        seed: int,
    ) -> None:
        scalar = scalar_sr(params, pstar, collateral)
        replay = empirical_success_rate(
            params, pstar, n_paths=n_paths, seed=seed, collateral=collateral
        ).success_rate
        self.expect(
            abs(analytic - scalar) <= TOLERANCE and abs(empirical - replay) <= TOLERANCE,
            f"validate P*={pstar!r}: analytic {analytic!r} vs scalar {scalar!r}, "
            f"empirical {empirical!r} vs replay {replay!r}",
        )

    def batch_item(self, request, item) -> None:
        """One answered ``run_batch`` item against its request."""
        if not item.ok:
            self.expect(False, f"batch item failed: {item.error}")
            return
        value = item.value
        if hasattr(request, "n_paths"):
            self.validation(
                request.params, request.pstar, request.collateral, request.n_paths,
                value.analytic, value.empirical.success_rate, value.seed_used,
            )
        else:
            self.point(request.params, request.pstar, request.collateral, value.success_rate)

    def http_reply(self, op: HttpOp, body: bytes) -> None:
        """Re-solve one HTTP answer in process."""
        data = json.loads(body)
        if op.kind == "sweep":
            params = SwapParameters.default()
            for point in data["results"]:
                self.point(params, point["pstar"], 0.0, point["success_rate"])
            return
        result = data["result"]
        params = SwapParameters.from_dict(op.payload.get("params", {}))
        collateral = float(op.payload.get("collateral", 0.0))
        if op.kind == "validate":
            self.validation(
                params, float(op.payload["pstar"]), collateral, int(result["n_paths"]),
                result["analytic"], result["success_rate"], int(result["seed_used"]),
            )
        else:
            self.point(params, float(op.payload["pstar"]), collateral, result["success_rate"])
