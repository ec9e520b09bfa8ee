"""One payoff schedule per swap mechanism, read by every solver.

Each mechanism -- basic, collateral, premium, fees, carry -- is a
:class:`PayoffSchedule` recipe, and the threshold, ``t2`` and ``t1``
formulas are the schedule's own methods. These tests pin what that
buys by construction:

* a recipe at zero stake, fee or yield *is* the basic schedule, field
  for field, so its solver's answers equal the basic solver's exactly
  (``==``, not ``approx``);
* the grid engine builds, at each ``P*`` of its axis, exactly the
  schedule the scalar collateral solver builds at that ``P*``, so the
  thresholds agree exactly too;
* the stage methods are reads of the schedule that agree with the
  formulas: Alice is indifferent at her threshold, and Bob's ``t2``
  value is the discounted expectation of his ``t3`` value.
"""

from __future__ import annotations

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine
from repro.core.backward_induction import (
    BackwardInduction,
    PayoffSchedule,
    basic_schedule,
    collateral_schedule,
)
from repro.core.carry import CarryBackwardInduction, carry_schedule
from repro.core.collateral import CollateralBackwardInduction
from repro.core.engine import solve_grid
from repro.core.fees import FeeBackwardInduction, fee_schedule
from repro.core.parameters import SwapParameters
from repro.core.premium import PremiumBackwardInduction, premium_schedule
from repro.stochastic.law import parse_law
from repro.stochastic.quadrature import expectation_on_interval
from repro.stochastic.rootfind import IntervalUnion

LAWS = ("lognormal", "merton:jump_intensity=0.2,jump_mean=-0.1", "regime")

draws = st.fixed_dictionaries(
    {
        "alpha_a": st.floats(0.0, 1.0),
        "alpha_b": st.floats(0.0, 1.0),
        "r_a": st.floats(1e-4, 0.05),
        "r_b": st.floats(1e-4, 0.05),
        "mu": st.floats(-0.02, 0.02),
        "sigma": st.floats(0.01, 0.4),
        "p0": st.floats(0.5, 5.0),
        "law": st.sampled_from(LAWS),
    }
)

#: Each mechanism's recipe and solver at zero stake, fee or yield.
NEUTRAL = {
    "collateral": (
        lambda p, k: collateral_schedule(p, k, 0.0),
        lambda p, k: CollateralBackwardInduction(p, k, 0.0),
    ),
    "premium": (
        lambda p, k: premium_schedule(p, k, 0.0),
        lambda p, k: PremiumBackwardInduction(p, k, 0.0),
    ),
    "fees": (
        lambda p, k: fee_schedule(p, k, 0.0, 0.0),
        lambda p, k: FeeBackwardInduction(p, k, fee_a=0.0, fee_b=0.0),
    ),
    "carry": (
        lambda p, k: carry_schedule(p, k, 0.0, 0.0),
        lambda p, k: CarryBackwardInduction(p, k, yield_a=0.0, yield_b=0.0),
    ),
}


def _params(draw) -> SwapParameters:
    law = parse_law(draw.pop("law"))
    return SwapParameters.default().replace(law=law, **draw)


def _answers(solver):
    return (
        solver.p3_threshold(),
        solver.bob_t2_region(),
        solver.alice_t1_cont(),
        solver.alice_t1_stop(),
        solver.bob_t1_cont(),
        solver.bob_t1_stop(),
        solver.success_rate(),
    )


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    draw=draws,
    pstar=st.floats(0.3, 6.0),
    mechanism=st.sampled_from(sorted(NEUTRAL)),
)
def test_neutral_recipes_are_the_basic_game_exactly(draw, pstar, mechanism):
    params = _params(draw)
    recipe, solver = NEUTRAL[mechanism]
    basic = basic_schedule(params, pstar)
    schedule = recipe(params, pstar)
    for name, want, got in zip(PayoffSchedule._fields, basic, schedule):
        assert got == want, name
    assert _answers(solver(params, pstar)) == _answers(BackwardInduction(params, pstar))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    draw=draws,
    collateral=st.sampled_from([0.0, 0.3, 1.0, 5.0]),
    pstars=st.lists(st.floats(0.3, 6.0), min_size=1, max_size=5),
)
def test_engine_schedule_is_the_scalar_schedule_at_each_pstar(
    draw, collateral, pstars
):
    params = _params(draw)
    built = []

    def spy(*args):
        built.append(collateral_schedule(*args))
        return built[-1]

    with mock.patch.object(engine, "collateral_schedule", spy):
        grid = solve_grid(params, pstars, collateral=collateral)
    (schedule,) = built
    for i, pstar in enumerate(pstars):
        scalar = CollateralBackwardInduction(params, pstar, collateral)
        for name, got, want in zip(
            PayoffSchedule._fields, schedule.at(i), scalar._schedule
        ):
            assert got == want, (name, pstar)
        assert grid.p3_threshold[i] == scalar.p3_threshold()
        assert grid.alice_t1_stop[i] == scalar.alice_t1_stop()
        assert grid.bob_t1_stop[i] == scalar.bob_t1_stop()


SOLVERS = {
    "basic": lambda p: BackwardInduction(p, 2.0),
    "collateral": lambda p: CollateralBackwardInduction(p, 2.0, 0.3),
    "premium": lambda p: PremiumBackwardInduction(p, 2.0, 0.3),
    "fees": lambda p: FeeBackwardInduction(p, 2.0, fee_a=0.05, fee_b=0.02),
    "carry": lambda p: CarryBackwardInduction(p, 2.0, yield_a=0.003, yield_b=0.001),
}


@pytest.mark.parametrize("mechanism", sorted(SOLVERS))
class TestStageMethodsReadTheSchedule:
    def test_alice_is_indifferent_at_her_threshold(self, params, mechanism):
        solver = SOLVERS[mechanism](params)
        k = solver.p3_threshold()
        assert k > 0.0
        assert solver.alice_t3_cont(k) == pytest.approx(solver.alice_t3_stop(), rel=1e-12)

    def test_bob_t2_value_is_his_discounted_t3_value(self, params, mechanism):
        solver = SOLVERS[mechanism](params)
        k = solver.p3_threshold()
        for p2 in (1.5, 2.0, 2.5):
            law = solver._law(p2, params.tau_b)
            value = sum(
                expectation_on_interval(law, solver.bob_t3_value, lo, hi, 128)
                for lo, hi in ((0.0, k), (k, math.inf))
            )
            expected = value * math.exp(-params.bob.r * params.tau_b)
            expected -= solver._schedule.bob_lock_fee * p2
            assert solver.bob_t2_cont(p2) == pytest.approx(expected, rel=1e-9), p2

    def test_stop_values_are_schedule_fields(self, params, mechanism):
        solver = SOLVERS[mechanism](params)
        s = solver._schedule
        assert solver.alice_t2_stop() == s.alice_walked
        assert solver.alice_t1_stop() == s.alice_stay
        assert solver.bob_t1_stop() == s.bob_stay
        prices = np.array([1.0, 2.0])
        assert np.array_equal(solver.bob_t2_stop(prices), s.bob_keep * prices)


class TestT1Values:
    """The ``t1`` stage every solver calls: Eqs. (25), (26) and (31)."""

    @staticmethod
    def _stage(params, schedule, k, rows, lo, hi):
        solver = BackwardInduction(params, 2.0)
        return schedule.t1_values(
            params,
            solver._law(params.p0, params.tau_a),
            solver._kernel(params.tau_b),
            k,
            np.asarray(rows, dtype=np.intp),
            np.asarray(lo, dtype=float),
            np.asarray(hi, dtype=float),
        )

    def test_empty_region_gives_zero_sr_and_the_walk_away_values(self, params):
        schedule = collateral_schedule(params, 2.0, 0.5)
        alice, bob, sr = self._stage(
            params, schedule, schedule.p3_threshold(), [], [], []
        )
        law = BackwardInduction(params, 2.0)._law(params.p0, params.tau_a)
        assert sr.tolist() == [0.0]
        assert alice[0] == pytest.approx(
            schedule.alice_walked * math.exp(-params.alice.r * params.tau_a), rel=1e-15
        )
        assert bob[0] == pytest.approx(
            law.mean() * math.exp(-params.bob.r * params.tau_a), rel=1e-15
        )

    def test_nonpositive_threshold_gives_the_region_mass(self, params):
        schedule = basic_schedule(params, 2.0)
        region = IntervalUnion(((1.2, 1.6), (1.9, 2.4)))
        lo, hi = zip(*region.intervals)
        law = BackwardInduction(params, 2.0)._law(params.p0, params.tau_a)
        for k in (0.0, -1.0):
            _alice, _bob, sr = self._stage(params, schedule, k, [0, 0], lo, hi)
            assert sr[0] == pytest.approx(region.probability(law), rel=1e-14)

    def test_two_rows_are_two_one_row_calls(self, params):
        pstars = np.array([1.8, 2.4])
        both = basic_schedule(params, pstars)
        regions = [BackwardInduction(params, k).bob_t2_region() for k in pstars]
        rows = [i for i, region in enumerate(regions) for _ in region.intervals]
        lo = [a for region in regions for a, _b in region.intervals]
        hi = [b for region in regions for _a, b in region.intervals]
        batched = self._stage(params, both, both.p3_threshold(), rows, lo, hi)
        for i, pstar in enumerate(pstars):
            one = basic_schedule(params, float(pstar))
            (a, b), = regions[i].intervals
            single = self._stage(params, one, one.p3_threshold(), [0], [a], [b])
            assert [v[i] for v in batched] == [v[0] for v in single]


class TestNonFiniteThreshold:
    """A threshold that under- or overflows is an error, not an answer."""

    def test_scalar_solvers_raise(self, params):
        from repro.core.collateral import solve_collateral_game
        from repro.core.solver import solve_swap_game

        bad = params.replace(r_a=1000.0)
        with pytest.raises(ValueError, match="not finite"):
            basic_schedule(bad, 2.0).p3_threshold()
        with pytest.raises(ValueError, match="not finite"):
            solve_swap_game(bad, 2.0)
        with pytest.raises(ValueError, match="not finite"):
            solve_collateral_game(bad, 2.0, 0.5)

    def test_one_array_check_per_grid(self, params):
        bad = params.replace(r_a=1000.0)
        with pytest.raises(ValueError, match="not finite"):
            basic_schedule(bad, np.array([1.5, 2.0, 2.5])).p3_threshold()
        with pytest.raises(ValueError, match="not finite"):
            solve_grid(bad, [1.5, 2.0, 2.5], collateral=0.5)

    def test_an_overflowing_threshold_refuses_without_a_warning(self, params):
        """``mu = -183`` makes Alice's discounted claim subnormal: the
        threshold overflows at ``P* = 2`` (a refusal, and no numeric
        warning before it) and stays finite at tiny ``P*``."""
        from repro.core.solver import solve_swap_game

        bad = params.replace(mu=-183.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                solve_swap_game(bad, 2.0)
            with pytest.raises(ValueError, match="not finite"):
                solve_grid(bad, [1e-300, 1e-290, 2.0])
            assert math.isfinite(solve_swap_game(bad, 1e-290).p3_threshold)
