"""Tests for the expectation quadrature."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stochastic.law import parse_law, step_kernel
from repro.stochastic.lognormal import LognormalLaw
from repro.stochastic.quadrature import (
    expectation_above,
    expectation_below,
    expectation_on_interval,
    expectation_on_intervals,
    gauss_legendre_nodes,
)

LAW = LognormalLaw(spot=2.0, mu=0.002, sigma=0.1, tau=4.0)


class TestNodes:
    def test_nodes_and_weights_shapes(self):
        nodes, weights = gauss_legendre_nodes(32)
        assert nodes.shape == (32,)
        assert weights.shape == (32,)

    def test_weights_sum_to_two(self):
        _nodes, weights = gauss_legendre_nodes(64)
        assert weights.sum() == pytest.approx(2.0)

    def test_cached_instances(self):
        assert gauss_legendre_nodes(16) is gauss_legendre_nodes(16)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_legendre_nodes(0)


class TestExpectationOnInterval:
    def test_total_mass_is_one(self):
        lo, hi = LAW.effective_support(1e-14)
        mass = expectation_on_interval(LAW, lambda x: np.ones_like(x), lo, hi)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_mean_recovered(self):
        lo, hi = LAW.effective_support(1e-14)
        mean = expectation_on_interval(LAW, lambda x: x, lo, hi)
        assert mean == pytest.approx(LAW.mean(), rel=1e-10)

    def test_interval_probability_matches_cdf(self):
        prob = expectation_on_interval(LAW, lambda x: np.ones_like(x), 1.5, 2.5)
        assert prob == pytest.approx(LAW.probability_between(1.5, 2.5), abs=1e-10)

    def test_empty_interval_is_zero(self):
        assert expectation_on_interval(LAW, lambda x: x, 3.0, 2.0) == 0.0

    def test_negative_lo_clipped(self):
        a = expectation_on_interval(LAW, lambda x: x, -5.0, 2.0)
        b = expectation_on_interval(LAW, lambda x: x, 0.0, 2.0)
        assert a == pytest.approx(b)

    def test_interval_outside_support_is_zero(self):
        assert expectation_on_interval(LAW, lambda x: x, 1e6, 2e6) == 0.0

    def test_linearity(self):
        f1 = expectation_on_interval(LAW, lambda x: x, 1.0, 3.0)
        f2 = expectation_on_interval(LAW, lambda x: np.ones_like(x), 1.0, 3.0)
        combo = expectation_on_interval(LAW, lambda x: 2.0 * x + 3.0, 1.0, 3.0)
        assert combo == pytest.approx(2.0 * f1 + 3.0 * f2, rel=1e-12)

    def test_order_convergence(self):
        coarse = expectation_on_interval(LAW, np.sqrt, 1.0, 4.0, order=24)
        fine = expectation_on_interval(LAW, np.sqrt, 1.0, 4.0, order=128)
        assert coarse == pytest.approx(fine, rel=1e-8)


class TestTails:
    def test_above_plus_below_equals_total(self):
        k = 2.1
        above = expectation_above(LAW, lambda x: x, k)
        below = expectation_below(LAW, lambda x: x, k)
        assert above + below == pytest.approx(LAW.mean(), rel=1e-9)

    def test_above_matches_partial_expectation(self):
        k = 1.7
        assert expectation_above(LAW, lambda x: x, k) == pytest.approx(
            float(LAW.partial_expectation_above(k)), rel=1e-10
        )

    def test_below_matches_partial_expectation(self):
        k = 2.6
        assert expectation_below(LAW, lambda x: x, k) == pytest.approx(
            float(LAW.partial_expectation_below(k)), rel=1e-10
        )


class TestStackedIntegrands:
    @pytest.mark.parametrize(
        "law",
        ["lognormal", "merton:jump_intensity=0.5,jump_mean=-0.3", "regime:sigma_turbulent=0.4"],
    )
    def test_each_row_equals_its_own_pass_bit_for_bit(self, law):
        t1_law = step_kernel(parse_law(law), 0.002, 0.1, 4.0).law(2.0)
        lo = np.array([0.5, 1.0, 1.9, 3.0])
        hi = np.array([1.5, 2.5, 2.1, 9.0])
        scale = np.array([1.0, 2.0, 3.0, 4.0])[:, None]
        integrands = (lambda x: x * scale, lambda x: np.sqrt(x), lambda x: np.exp(-x) + scale)
        stacked = expectation_on_intervals(
            t1_law, lambda x: np.stack([g(x) for g in integrands]), lo, hi
        )
        assert stacked.shape == (3, 4)
        for row, g in zip(stacked, integrands):
            assert np.array_equal(row, expectation_on_intervals(t1_law, g, lo, hi))

    def test_empty_batch_keeps_the_leading_shape(self):
        stacked = expectation_on_intervals(LAW, lambda x: np.stack([x, x * x]), [], [])
        assert stacked.shape == (2, 0)
        assert expectation_on_intervals(LAW, lambda x: x, [], []).shape == (0,)
