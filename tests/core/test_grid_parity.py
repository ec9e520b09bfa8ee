"""Vectorised grid engine vs the scalar backward induction.

The parity contract of :mod:`repro.core.engine`: for any parameter
draw, any collateral level, and any ``P*`` grid, ``solve_grid`` must
agree with the per-point scalar solvers to ``1e-9`` on every reported
quantity -- thresholds, region endpoints, ``t1`` utilities, success
rates -- and on every boolean flag. Both solvers call the same scan
window, root-to-region rule and ``t1`` stage, so the only tolerated
difference is how they refine the region's roots: the engine's batched
Chandrupatla refiner vs the scalar Brent (~1e-12), plus the rounding of
a few sums (~1 ulp). The engine's certified scan finds exactly the
brackets of a full scan (``tests/core/test_certified_scan.py``), so it
adds none.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backward_induction import BackwardInduction
from repro.core.collateral import CollateralBackwardInduction
from repro.core.engine import solve_grid
from repro.core.feasible_range import feasible_pstar_range
from repro.core.parameters import SwapParameters
from repro.core.success_rate import success_rate_curve
from repro.stochastic.lognormal import LognormalLaw

TOL = 1e-9

# Spans the feasible window under most draws plus clearly-infeasible
# rates on both sides (0.3 far below, 8.0 far above the spot).
PSTARS = (0.3, 1.2, 1.6, 2.0, 2.4, 3.0, 8.0)


def _scalar_solver(params, pstar, collateral):
    if collateral > 0.0:
        return CollateralBackwardInduction(params, pstar, collateral)
    return BackwardInduction(params, pstar)


def _assert_region_endpoints_are_roots(params, scalar, engine_region, pstar, k3):
    """Every engine endpoint must be a ``t2``-indifference point of the
    *scalar* advantage (or a scan-window boundary).

    Where Bob's advantage has a clean sign change both solvers land on
    the same root to ~1e-12 and endpoint positions compare directly (the
    deterministic suite pins that). But far below the feasible window
    the advantage underflows to an exactly-zero plateau spanning decades
    of price; the root *position* is then not identifiable -- any point
    of the plateau is a valid endpoint -- so the contract degrades to
    the root *property*: the scalar advantage at the engine's endpoint
    is indifference-level. (SR and the t1 utilities are integrals and
    stay pinned at 1e-9 regardless.)
    """
    scan_lo = 1e-6 * min(pstar, params.p0)
    scan_hi = 1e4 * max(pstar, params.p0, k3)
    scale = max(abs(pstar), params.p0)
    for lo, hi in engine_region.intervals:
        for x in (lo, hi):
            if abs(x - scan_lo) <= 1e-9 * scan_lo or abs(x - scan_hi) <= 1e-9 * scan_hi:
                continue
            advantage = scalar.bob_t2_cont(float(x)) - float(x)
            assert abs(advantage) <= TOL * scale, (pstar, x, advantage)


def _assert_grid_matches_scalar(params, pstars, collateral, regions="exact"):
    grid = solve_grid(params, pstars, collateral=collateral)
    for i, pstar in enumerate(pstars):
        scalar = _scalar_solver(params, pstar, collateral)
        approx = lambda v: pytest.approx(v, rel=TOL, abs=TOL)

        assert grid.p3_threshold[i] == approx(scalar.p3_threshold())

        region = scalar.bob_t2_region()
        engine_region = grid.t2_regions[i]
        if regions == "exact":
            assert len(engine_region.intervals) == len(region.intervals)
            for (glo, ghi), (slo, shi) in zip(
                engine_region.intervals, region.intervals
            ):
                assert glo == approx(slo)
                assert ghi == approx(shi)
        else:
            _assert_region_endpoints_are_roots(
                params, scalar, engine_region, pstar, float(grid.p3_threshold[i])
            )

        assert grid.alice_t1_cont[i] == approx(scalar.alice_t1_cont())
        assert grid.alice_t1_stop[i] == approx(scalar.alice_t1_stop())
        assert grid.bob_t1_cont[i] == approx(scalar.bob_t1_cont())
        assert grid.bob_t1_stop[i] == approx(scalar.bob_t1_stop())
        assert grid.success_rate[i] == approx(scalar.success_rate())

        # flag parity: strict-advantage initiation on both paths
        assert bool(grid.alice_initiates[i]) == (
            scalar.alice_t1_cont() - scalar.alice_t1_stop() > 0.0
        )
        assert bool(grid.bob_would_agree[i]) == (
            scalar.bob_t1_cont() - scalar.bob_t1_stop() > 0.0
        )

        assert np.isfinite(grid.success_rate[i])
        assert 0.0 <= grid.success_rate[i] <= 1.0 + TOL


# alpha floors at 0.05: with a zero margin Bob's t2 advantage is <= 0
# with equality in the limit, and the sign-change scan picks up
# floating-point noise slivers (~1e-7 wide) whose exact positions differ
# between the vectorised and scalar evaluation orders -- parity on noise
# is meaningless. The exact-zero-margin case is covered deterministically
# in TestDeterministicParity.test_no_trade_region_is_empty_everywhere.
parameter_draws = st.fixed_dictionaries(
    {
        "alpha_a": st.floats(0.05, 1.0),
        "alpha_b": st.floats(0.05, 1.0),
        "r_a": st.floats(1e-4, 0.05),
        "r_b": st.floats(1e-4, 0.05),
        "tau_a": st.floats(0.5, 12.0),
        "tau_b": st.floats(1.0, 16.0),
        "mu": st.floats(-0.02, 0.02),
        "sigma": st.floats(1e-3, 0.35),
        "p0": st.floats(0.5, 5.0),
    }
)


class TestRandomisedParity:
    @settings(max_examples=25, deadline=None)
    @given(draw=parameter_draws, collateral=st.sampled_from([0.0, 0.2, 1.0]))
    def test_grid_matches_scalar(self, draw, collateral):
        # keep the Chain_b write strictly inside Bob's HTLC window
        draw["eps_b"] = 0.25 * draw.pop("tau_b")
        draw["tau_b"] = 4.0 * draw["eps_b"]
        params = SwapParameters.default().replace(**draw)
        pstars = [k * params.p0 / 2.0 for k in PSTARS]
        # random draws include deep out-of-window rates where the root
        # position is not identifiable (flat-zero advantage plateaus),
        # so regions are held to the root property instead of endpoint
        # positions (see _assert_region_endpoints_are_roots); the
        # deterministic suite below pins exact endpoints.
        _assert_grid_matches_scalar(params, pstars, collateral, regions="roots")


class TestDeterministicParity:
    @pytest.mark.parametrize("collateral", [0.0, 0.2, 1.0])
    def test_table_iii_defaults(self, params, collateral):
        _assert_grid_matches_scalar(params, list(PSTARS), collateral)

    def test_near_zero_volatility(self, params):
        quiet = params.replace(sigma=1e-3)
        _assert_grid_matches_scalar(quiet, list(PSTARS), 0.0)

    def test_long_timelocks(self, params):
        slow = params.replace(tau_a=24.0, tau_b=36.0, eps_b=6.0)
        _assert_grid_matches_scalar(slow, list(PSTARS), 0.0)

    def test_no_trade_region_is_empty_everywhere(self, params):
        # near-zero margins: Bob never locks, success must be exactly 0
        hostile = params.replace(alpha_a=0.0, alpha_b=0.0, r_a=0.05, r_b=0.05)
        grid = solve_grid(params=hostile, pstars=list(PSTARS))
        for i, pstar in enumerate(PSTARS):
            scalar = BackwardInduction(hostile, pstar)
            assert scalar.bob_t2_region().is_empty == grid.t2_regions[i].is_empty
            if grid.t2_regions[i].is_empty:
                assert grid.success_rate[i] == 0.0

    def test_single_point_grid(self, params):
        _assert_grid_matches_scalar(params, [2.0], 0.0)

    def test_rejects_bad_grids(self, params):
        with pytest.raises(ValueError):
            solve_grid(params, [])
        with pytest.raises(ValueError):
            solve_grid(params, [2.0, float("nan")])
        with pytest.raises(ValueError):
            solve_grid(params, [2.0, -1.0])
        with pytest.raises(ValueError):
            solve_grid(params, [2.0], collateral=-0.5)


class TestFeasibilityBoundary:
    """Satellite of the engine refactor: the feasibility convention.

    A ``P*`` exactly on an Eq. (29) endpoint is an indifference root,
    and the tie-breaking convention has an indifferent Alice stop --
    so endpoints are *infeasible* (open-interior convention), matching
    the strict inequalities of ``BobStrategy.decide_t2``.
    """

    def test_endpoints_are_infeasible_interior_is_feasible(self, params):
        lo, hi = feasible_pstar_range(params)
        mid = 0.5 * (lo + hi)
        points = success_rate_curve(params, [lo, mid, hi])
        assert not points[0].feasible
        assert points[1].feasible
        assert not points[2].feasible

    def test_restriction_nans_exactly_the_endpoints(self, params):
        lo, hi = feasible_pstar_range(params)
        mid = 0.5 * (lo + hi)
        points = success_rate_curve(
            params, [lo, mid, hi], restrict_to_feasible=True
        )
        assert np.isnan(points[0].rate)
        assert not np.isnan(points[1].rate)
        assert np.isnan(points[2].rate)

    def test_just_inside_counts_as_feasible(self, params):
        lo, hi = feasible_pstar_range(params)
        eps = 1e-6 * (hi - lo)
        points = success_rate_curve(params, [lo + eps, hi - eps])
        assert points[0].feasible
        assert points[1].feasible


class TestOneAnswerPerPoint:
    """A point's engine answer does not depend on which other points
    share its grid, so the answer cached under its key is the one it
    gets alone."""

    @pytest.mark.parametrize(
        "law",
        [
            None,
            "merton:jump_intensity=0.2,jump_mean=-0.1,jump_std=0.15",
            "regime:sigma_turbulent=0.3",
        ],
    )
    @pytest.mark.parametrize("collateral", [0.0, 0.5])
    def test_grid_equals_each_point_alone(self, law, collateral):
        from repro.stochastic.law import parse_law

        params = SwapParameters.default()
        if law is not None:
            params = params.replace(law=parse_law(law))
        pstars = np.linspace(1.55, 2.45, 8)
        grid = solve_grid(params, pstars, collateral=collateral)
        for i, pstar in enumerate(pstars):
            alone = solve_grid(params, [pstar], collateral=collateral)
            assert grid.success_rate[i] == alone.success_rate[0]
            assert grid.alice_t1_cont[i] == alone.alice_t1_cont[0]
            assert grid.bob_t1_cont[i] == alone.bob_t1_cont[0]
            assert grid.t2_regions[i] == alone.t2_regions[0]
