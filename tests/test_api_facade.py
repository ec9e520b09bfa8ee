"""The unified ``repro.api`` facade and the removed aliases.

The facade must be a pure re-routing layer: on default keywords it
returns results *equal* to the pre-existing per-game entry points. The
pre-facade top-level names finished their deprecation cycle in v1.2:
they now fail hard with an ImportError that names the replacement.
"""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.api import solve, success_rate, sweep
from repro.core.collateral import (
    CollateralEquilibrium,
    collateral_success_rate,
    solve_collateral_game,
)
from repro.core.equilibrium import SwapEquilibrium
from repro.core.parameters import SwapParameters
from repro.core.premium import PremiumEquilibrium, solve_premium_game
from repro.core.solver import solve_swap_game
from repro.core.success_rate import success_rate as core_success_rate


class TestSolveDelegation:
    def test_basic_game_equals_core_solver(self, params):
        for pstar in (1.8, 2.0, 2.2):
            assert solve(params, pstar) == solve_swap_game(params, pstar)

    def test_basic_game_returns_swap_equilibrium(self, params):
        assert isinstance(solve(params, 2.0), SwapEquilibrium)

    def test_collateral_game_equals_core_solver(self, params):
        got = solve(params, 2.0, collateral=0.5)
        assert isinstance(got, CollateralEquilibrium)
        assert got == solve_collateral_game(params, 2.0, 0.5)

    def test_premium_game_equals_core_solver(self, params):
        got = solve(params, 2.0, premium=0.1)
        assert isinstance(got, PremiumEquilibrium)
        assert got == solve_premium_game(params, 2.0, 0.1)

    def test_collateral_and_premium_are_mutually_exclusive(self, params):
        with pytest.raises(ValueError):
            solve(params, 2.0, collateral=0.5, premium=0.1)

    def test_defaults_to_table_iii_parameters(self):
        assert solve() == solve_swap_game(SwapParameters.default(), 2.0)

    def test_rejects_non_parameter_objects(self):
        with pytest.raises(TypeError):
            solve({"sigma": 0.1}, 2.0)


class TestSuccessRateDelegation:
    def test_basic_rate_matches_core(self, params):
        assert success_rate(params, 2.0) == core_success_rate(params, 2.0)

    def test_collateral_rate_matches_core(self, params):
        assert success_rate(params, 2.0, collateral=0.5) == (
            collateral_success_rate(params, 2.0, 0.5)
        )

    @pytest.mark.parametrize("pstar", [1.5, 2.0, 2.6])
    @pytest.mark.parametrize("collateral", [0.0, 0.5])
    def test_the_rate_is_the_solved_games_rate(self, params, pstar, collateral):
        """One question, one answer: the same scalar solve as ``solve``."""
        assert success_rate(params, pstar, collateral=collateral) == (
            solve(params, pstar, collateral=collateral).success_rate
        )


def _assert_equilibria_close(got, want, tol=1e-9):
    """Field-wise parity between an engine-solved and a scalar equilibrium.

    The sweep verb answers through the vectorised grid engine, whose
    batched-bisection roots differ from the scalar solver's Brent roots
    at ~1e-12; the contract is agreement to ``tol``, not bitwise
    equality (see tests/core/test_grid_parity.py for the full property
    suite).
    """
    assert type(got) is type(want)
    assert got.pstar == want.pstar
    assert got.p3_threshold == pytest.approx(want.p3_threshold, abs=tol)
    assert got.alice_t1.cont == pytest.approx(want.alice_t1.cont, abs=tol)
    assert got.alice_t1.stop == pytest.approx(want.alice_t1.stop, abs=tol)
    assert got.bob_t1.cont == pytest.approx(want.bob_t1.cont, abs=tol)
    assert got.bob_t1.stop == pytest.approx(want.bob_t1.stop, abs=tol)
    assert got.success_rate == pytest.approx(want.success_rate, abs=tol)
    assert len(got.bob_t2_region.intervals) == len(want.bob_t2_region.intervals)
    for (glo, ghi), (wlo, whi) in zip(
        got.bob_t2_region.intervals, want.bob_t2_region.intervals
    ):
        assert glo == pytest.approx(wlo, abs=tol)
        assert ghi == pytest.approx(whi, abs=tol)


class TestSweep:
    def test_matches_pointwise_solves(self, params):
        grid = [1.9, 2.0, 2.1]
        got = sweep(grid, params)
        for item, pstar in zip(got, grid):
            _assert_equilibria_close(item, solve_swap_game(params, pstar))

    def test_collateral_sweep(self, params):
        grid = [2.0, 2.1]
        got = sweep(grid, params, collateral=0.5)
        for item, pstar in zip(got, grid):
            _assert_equilibria_close(item, solve_collateral_game(params, pstar, 0.5))

    def test_empty_grid(self, params):
        assert sweep([], params) == []


class TestValidateFacade:
    def test_returns_validation_result(self, params):
        result = repro.validate(params, 2.0, n_paths=500, seed=3)
        assert result.empirical.n_paths == 500
        assert result.seed_used == 3
        assert 0.0 <= result.empirical.success_rate <= 1.0
        assert result.analytic == pytest.approx(core_success_rate(params, 2.0))


class TestRemovedAliases:
    @pytest.mark.parametrize(
        "name",
        ["solve_swap_game", "solve_collateral_game", "solve_premium_game"],
    )
    def test_top_level_access_fails_hard(self, name):
        with pytest.raises(ImportError, match="repro.api"):
            getattr(repro, name)

    def test_error_names_the_replacement(self):
        with pytest.raises(ImportError, match=r"repro\.solve\(params, pstar\)"):
            repro.solve_swap_game

    def test_from_import_fails_too(self):
        with pytest.raises(ImportError):
            from repro import solve_premium_game  # noqa: F401

    def test_dropped_from_all(self):
        for name in (
            "solve_swap_game",
            "solve_collateral_game",
            "solve_premium_game",
        ):
            assert name not in repro.__all__

    def test_unknown_attributes_still_raise_attribute_error(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_name

    def test_core_originals_survive_and_stay_silent(self, params):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_swap_game(params, 2.0)
            solve_collateral_game(params, 2.0, 0.5)
            solve_premium_game(params, 2.0, 0.1)
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]


class TestPublicSurface:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_facade_names_exported(self):
        for name in ("solve", "validate", "sweep", "success_rate", "Equilibrium"):
            assert name in repro.__all__
