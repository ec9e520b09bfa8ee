"""The grid engine's certified scan of Bob's ``t2`` advantage.

The engine evaluates the advantage on every 16th scan column and proves
its sign on the blocks in between from the monotonicity of the
transition pieces in the spot; only unproven blocks are evaluated in
full. The contract: the sign-change brackets, and so every answer, are
exactly those of the full 512-point scan. These tests pin the contract
against a full scan over adversarial draws and every registered law,
pin the premise the proof rests on for each law, and pin the saving as
an exact work count.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine
from repro.core.backward_induction import collateral_schedule
from repro.core.engine import GridSolver, solve_grid
from repro.core.parameters import SwapParameters
from repro.stochastic.law import (
    LognormalStepKernel,
    law_registry,
    parse_law,
    step_kernel,
)
from tests.core.test_grid_parity import PSTARS, parameter_draws

#: Every registered law at its defaults, plus a heavy-jump and a
#: wide-regime spec.
LAWS = tuple(sorted(law_registry())) + (
    "merton:jump_intensity=0.5,jump_mean=-0.3,jump_std=0.4",
    "regime:sigma_calm=0.01,sigma_turbulent=0.6",
)


def _assert_scan_is_certified(params, pstars, collateral):
    """One real solve's scan signs against the full scan, evaluated here."""
    solver = GridSolver(params, collateral=collateral)
    real = engine.grid_sign_change_brackets
    scans = []

    def spy(grid, values):
        scans.append((grid, values))
        return real(grid, values)

    with mock.patch.object(engine, "grid_sign_change_brackets", spy):
        solver.solve(pstars)
    ((grid, signs),) = scans

    schedule = collateral_schedule(params, np.asarray(pstars, dtype=float), collateral)
    k3 = schedule.p3_threshold()
    full = solver._bob_advantage(grid, k3[:, None], schedule.at(np.s_[:, None]))

    for got, want in zip(real(grid, signs), real(grid, full)):
        assert np.array_equal(got, want)
    placeholders = signs != full
    assert np.all(np.isin(signs[placeholders], (-1.0, 1.0)))
    assert np.array_equal(np.sign(signs), np.sign(full))


adversarial_draws = st.fixed_dictionaries(
    {
        "sigma": st.floats(0.005, 0.8),
        "r_b": st.floats(1e-3, 0.05),
        "mu_minus_r": st.floats(-0.03, 0.03),
        "alpha_a": st.floats(0.0, 1.0),
        "alpha_b": st.floats(0.0, 1.0),
        "r_a": st.floats(1e-3, 0.05),
        "law": st.sampled_from(LAWS),
    }
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    draw=adversarial_draws,
    collateral=st.sampled_from([0.0, 0.3, 1.0, 5.0]),
    pstars=st.lists(st.floats(0.05, 40.0), min_size=1, max_size=6),
)
def test_certified_scan_matches_full_scan(draw, collateral, pstars):
    mu = draw["r_b"] + draw.pop("mu_minus_r")
    law = parse_law(draw.pop("law"))
    params = SwapParameters.default().replace(mu=mu, law=law, **draw)
    _assert_scan_is_certified(params, pstars, collateral)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(draw=parameter_draws, collateral=st.sampled_from([0.0, 0.2, 1.0]))
def test_certified_scan_matches_full_scan_on_parity_draws(draw, collateral):
    # the parity suite's draws, whose deep out-of-window rates put Bob's
    # advantage on a flat-zero plateau: never proven, always evaluated
    draw["eps_b"] = 0.25 * draw.pop("tau_b")
    draw["tau_b"] = 4.0 * draw["eps_b"]
    params = SwapParameters.default().replace(**draw)
    _assert_scan_is_certified(params, [k * params.p0 / 2.0 for k in PSTARS], collateral)


def test_certified_scan_matches_full_scan_without_margins(params):
    hostile = params.replace(alpha_a=0.0, alpha_b=0.0, r_a=0.05, r_b=0.05)
    _assert_scan_is_certified(hostile, list(PSTARS), 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    law=st.sampled_from(LAWS),
    sigma=st.floats(0.005, 0.8),
    mu=st.floats(-0.03, 0.08),
    tau=st.floats(0.1, 16.0),
    k=st.floats(0.01, 100.0),
)
def test_pieces_are_monotone_in_the_spot(law, sigma, mu, tau, k):
    """The certificate's premise, per law: as the spot grows, survival
    rises, cdf falls and ``partial_below / spot`` falls (up to rounding)."""
    kernel = step_kernel(parse_law(law), mu, sigma, tau)
    spots = k * np.geomspace(1e-6, 1e4, 2048)
    cdf, survival, partial_below = kernel.pieces(spots, k)
    ratio = partial_below / spots
    slack = 1e-12
    assert np.all(np.diff(survival) >= -slack)
    assert np.all(np.diff(cdf) <= slack)
    assert np.all(np.diff(ratio) <= slack)


def test_scan_evaluates_at_most_a_fifth_of_its_points(params):
    """A Table III 64-point solve passes at most 20 % of its 64 x 512
    scan points through ``pieces`` (12-13 % when this was written); a
    silent fall-back to the full scan fails here."""
    real_pieces = LognormalStepKernel.pieces
    real_scan = GridSolver._certified_scan
    scanning = []
    points = []

    def pieces(self, spot, k):
        if scanning:
            points.append(np.broadcast(spot, k).size)
        return real_pieces(self, spot, k)

    def scan(self, *args):
        scanning.append(True)
        try:
            return real_scan(self, *args)
        finally:
            scanning.pop()

    with mock.patch.object(LognormalStepKernel, "pieces", pieces), mock.patch.object(
        GridSolver, "_certified_scan", scan
    ):
        solve_grid(params, np.linspace(1.2, 2.8, 64))
    assert 0 < sum(points) <= 0.2 * 64 * 512
