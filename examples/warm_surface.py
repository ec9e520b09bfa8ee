"""Precomputed surfaces: warm once, answer sweeps in microseconds.

Walks the full surface lifecycle on the Figure 6 curve:

* **warm** -- :func:`repro.surface.warm_surface` fills a dense ``P*``
  grid with exact engine solves, certifies a per-cell interpolation
  error bound by probing edge midpoints, and writes a checksummed,
  memory-mapped artifact (what ``repro-swaps warm`` does);
* **serve** -- a :class:`repro.service.SwapService` pointed at the
  artifact routes sweeps down the answer-source chain: surface ->
  cache -> engine -> scalar. Points the artifact certifies within the
  granted tolerance are interpolated without touching a solver;
* **trust** -- every interpolated answer is compared against the exact
  engine here, and the measured error must sit inside the certified
  bound it was served with. Off-surface requests fall through and stay
  exact automatically.

Run: ``python examples/warm_surface.py``
"""

import tempfile
import time
from pathlib import Path

from repro import SwapParameters, solve_grid
from repro.core import solve_swap_game
from repro.service import SwapService
from repro.surface import AxisSpec, SurfaceSpec, warm_surface

POINTS = 256
TOLERANCE = 5e-3


def main() -> None:
    params = SwapParameters.default()
    lo, hi = 1.2, 3.2
    pstars = [lo + (hi - lo) * i / (POINTS - 1.0) for i in range(POINTS)]

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "figure6.srf"

        print("=== Warming the artifact (offline, exact solves) ===")
        spec = SurfaceSpec(
            axes=(AxisSpec("pstar", lo, hi, 129),),
            params=params,
            default_tolerance=TOLERANCE,
        )
        t0 = time.perf_counter()
        surface = warm_surface(spec, path)
        print(f"built + certified in {time.perf_counter() - t0:.2f}s")
        info = surface.info()
        print(f"artifact : {path.name}  ({path.stat().st_size} bytes)")
        print(f"checksum : {info['checksum'][:16]}...")
        print(f"max bound: {info['max_bound']:.2e}")

        print("\n=== Serving the Figure 6 curve through the chain ===")
        service = SwapService(surface=surface, tolerance=TOLERANCE)
        t0 = time.perf_counter()
        items = service.sweep(pstars)
        warm_ms = (time.perf_counter() - t0) * 1e3
        sources = [item.source for item in items]
        print(f"sweep    : {warm_ms:.1f} ms for {POINTS} points")
        print(f"surface  : {sources.count('surface')}/{POINTS} points")

        t0 = time.perf_counter()
        exact = solve_grid(params, pstars).success_rate
        exact_ms = (time.perf_counter() - t0) * 1e3
        print(f"engine   : {exact_ms:.1f} ms for the same curve "
              f"({exact_ms / warm_ms:.1f}x the warm sweep)")

        print("\n=== Interpolated vs exact, bound by bound ===")
        worst = 0.0
        for item, truth in zip(items, exact):
            if item.source != "surface":
                continue
            answer = item.unwrap()
            error = abs(answer.success_rate - float(truth))
            assert error <= answer.bound, "certified bound violated"
            worst = max(worst, error)
        print(f"max |interpolated - exact| = {worst:.2e}")
        print(f"granted tolerance          = {TOLERANCE:g}")
        print("every error sat inside the bound it was served with")

        print("\n=== Off-surface requests stay exact ===")
        item = service.sweep([3.5])[0]  # a lone point: the scalar rung
        truth = solve_swap_game(params, 3.5).success_rate
        print(f"P* = 3.5 is beyond the axis -> source={item.source!r}, "
              f"bit-identical: {item.unwrap().success_rate == truth}")

        print("\n=== Exactness on demand ===")
        item = service.sweep([2.0], tolerance=0.0)[0]
        print(f"tolerance=0.0 -> source={item.source!r} (the surface is "
              "skipped when exactness is demanded)")


if __name__ == "__main__":
    main()
