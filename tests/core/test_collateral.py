"""Tests for the Section IV collateral extension (Eqs. (32)-(40))."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backward_induction import BackwardInduction
from repro.core.collateral import (
    CollateralBackwardInduction,
    collateral_success_rate,
    feasible_pstar_region_with_collateral,
    solve_collateral_game,
)
from repro.core.parameters import SwapParameters

QS = st.floats(min_value=0.0, max_value=2.0)
PSTARS = st.floats(min_value=1.2, max_value=3.5)


class TestConstruction:
    def test_rejects_negative_collateral(self, params):
        with pytest.raises(ValueError, match="collateral"):
            CollateralBackwardInduction(params, 2.0, -0.1)


class TestReductionToBasicModel:
    """Q = 0 must reproduce the Section III game exactly."""

    @pytest.fixture(scope="class")
    def pair(self):
        params = SwapParameters.default()
        return (
            BackwardInduction(params, 2.0),
            CollateralBackwardInduction(params, 2.0, 0.0),
        )

    def test_threshold(self, pair):
        basic, collateral = pair
        assert collateral.p3_threshold() == pytest.approx(
            basic.p3_threshold(), rel=1e-12
        )

    def test_t2_utilities(self, pair):
        basic, collateral = pair
        grid = np.linspace(0.5, 4.0, 17)
        assert np.allclose(collateral.alice_t2_cont(grid), basic.alice_t2_cont(grid))
        assert np.allclose(collateral.bob_t2_cont(grid), basic.bob_t2_cont(grid))

    def test_t2_region(self, pair):
        basic, collateral = pair
        assert collateral.bob_t2_region().bounds() == pytest.approx(
            basic.bob_t2_region().bounds(), rel=1e-9
        )

    def test_t1_utilities(self, pair):
        basic, collateral = pair
        assert collateral.alice_t1_cont() == pytest.approx(basic.alice_t1_cont())
        assert collateral.bob_t1_cont() == pytest.approx(basic.bob_t1_cont())
        assert collateral.alice_t1_stop() == basic.alice_t1_stop()
        assert collateral.bob_t1_stop() == basic.bob_t1_stop()

    def test_success_rate(self, pair):
        basic, collateral = pair
        assert collateral.success_rate() == pytest.approx(basic.success_rate())


class TestThresholdEq34:
    def test_formula(self, params):
        solver = CollateralBackwardInduction(params, 2.0, 0.3)
        stop_value = 2.0 * math.exp(-0.01 * 7.0)
        deposit_value = 0.3 * math.exp(-0.01 * 4.0)
        expected = (
            math.exp((0.01 - 0.002) * 4.0) * (stop_value - deposit_value) / 1.3
        )
        assert solver.p3_threshold() == pytest.approx(expected, rel=1e-12)

    def test_decreases_with_q(self, params):
        thresholds = [
            CollateralBackwardInduction(params, 2.0, q).p3_threshold()
            for q in (0.0, 0.3, 0.6, 1.0)
        ]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))

    def test_clamps_at_zero_for_large_q(self, params):
        solver = CollateralBackwardInduction(params, 2.0, 5.0)
        assert solver.p3_threshold() == 0.0

    def test_zero_threshold_means_alice_always_continues(self, params):
        # with threshold 0 the cdf branch vanishes in the t2 pieces
        solver = CollateralBackwardInduction(params, 2.0, 5.0)
        cdf, survival, partial_below = solver._t2_law_pieces(np.array([2.0]))
        assert cdf[0] == 0.0
        assert survival[0] == 1.0
        assert partial_below[0] == 0.0


class TestBobT2Collateralised:
    def test_cont_utility_exceeds_basic(self, params):
        # extra deposit flows can only help Bob's cont branch
        basic = BackwardInduction(params, 2.0)
        coll = CollateralBackwardInduction(params, 2.0, 0.5)
        grid = np.linspace(0.2, 4.0, 15)
        assert np.all(coll.bob_t2_cont(grid) > basic.bob_t2_cont(grid))

    def test_region_extends_to_low_prices(self, params):
        # Section IV intuition 2: at P_t2 near zero Bob prefers cont
        region = CollateralBackwardInduction(params, 2.0, 0.5).bob_t2_region()
        assert float(region.bounds()[0]) < 1e-3

    def test_region_expands_with_q(self, params):
        # Figure 7: collateral expands the feasible Token_b price range
        law_independent_lengths = []
        for q in (0.0, 0.2, 0.5):
            region = CollateralBackwardInduction(params, 2.0, q).bob_t2_region()
            law_independent_lengths.append(region.bounds()[1])
        assert law_independent_lengths[0] < law_independent_lengths[1]
        assert law_independent_lengths[1] < law_independent_lengths[2]

    def test_odd_root_structure(self, params):
        # U_cont - U_stop has an odd number of sign changes (1 or 3)
        for q in (0.1, 0.3, 0.8):
            solver = CollateralBackwardInduction(params, 2.0, q)
            region = solver.bob_t2_region()
            # region starts at the scan edge (Bob continues near 0), so the
            # number of finite indifference points is odd
            assert len(region) in (1, 2)  # 1 root -> 1 piece; 3 roots -> 2 pieces


class TestSuccessRateEq40:
    def test_increases_with_q(self, params):
        # Figure 9's headline claim
        rates = [collateral_success_rate(params, 2.0, q) for q in (0.0, 0.2, 0.5, 1.0)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_saturates_at_one(self, params):
        assert collateral_success_rate(params, 2.0, 5.0) == pytest.approx(1.0, abs=1e-6)

    def test_at_different_rates(self, params):
        for k in (1.7, 2.0, 2.3):
            assert collateral_success_rate(params, k, 0.5) > collateral_success_rate(
                params, k, 0.0
            )


class TestT1Collateralised:
    def test_stop_values_include_deposit(self, params):
        solver = CollateralBackwardInduction(params, 2.0, 0.4)
        assert solver.alice_t1_stop() == pytest.approx(2.4)
        assert solver.bob_t1_stop() == pytest.approx(params.p0 + 0.4)

    def test_alice_t2_stop_value_includes_both_deposits(self, params):
        solver = CollateralBackwardInduction(params, 2.0, 0.4)
        extra = solver.alice_t2_stop() - BackwardInduction(params, 2.0).alice_t2_stop()
        expected = 2 * 0.4 * math.exp(-0.01 * (4.0 + 3.0))
        assert extra == pytest.approx(expected, rel=1e-12)

    def test_engagement_at_reference_rate(self, params):
        eq = solve_collateral_game(params, 2.0, 0.5)
        assert eq.alice_engages
        assert eq.bob_engages
        assert eq.engaged

    def test_feasible_regions_nonempty(self, params):
        alice, bob = feasible_pstar_region_with_collateral(params, 0.5)
        assert not alice.is_empty
        assert not bob.is_empty
        assert 2.0 in alice.intersect(bob)


class TestEquilibriumObject:
    def test_unconditional_rate_zero_when_not_engaged(self, params):
        # an absurd rate: nobody engages
        eq = solve_collateral_game(params, 30.0, 0.1)
        assert not eq.engaged
        assert eq.unconditional_success_rate == 0.0

    def test_fields_consistent(self, params):
        eq = solve_collateral_game(params, 2.0, 0.5)
        solver = CollateralBackwardInduction(params, 2.0, 0.5)
        assert eq.success_rate == pytest.approx(solver.success_rate())
        assert eq.p3_threshold == pytest.approx(solver.p3_threshold())
        assert eq.alice_strategy.p3_threshold == eq.p3_threshold


@settings(max_examples=20, deadline=None)
@given(q=QS, pstar=PSTARS)
def test_property_sr_monotone_in_q(q, pstar):
    """Adding collateral never hurts the success rate."""
    params = SwapParameters.default()
    low = collateral_success_rate(params, pstar, q)
    high = collateral_success_rate(params, pstar, q + 0.25)
    assert high >= low - 1e-9


@settings(max_examples=20, deadline=None)
@given(q=QS, pstar=PSTARS)
def test_property_threshold_never_negative(q, pstar):
    solver = CollateralBackwardInduction(SwapParameters.default(), pstar, q)
    assert solver.p3_threshold() >= 0.0
