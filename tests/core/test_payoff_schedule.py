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
