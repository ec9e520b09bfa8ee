"""Tests for the incomplete-information (Bayesian) swap game."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backward_induction import BackwardInduction
from repro.core.bayesian import BayesianSwapGame, TypeDistribution, information_value
from repro.core.parameters import SwapParameters
from repro.stochastic.law import registered_laws

#: every registered law at its defaults, plus a heavy-jump merton spec
LAW_SPECS = tuple(sorted(registered_laws())) + (
    "merton:jump_intensity=0.5,jump_mean=-0.2,jump_std=0.2",
)


class TestTypeDistribution:
    def test_point(self):
        dist = TypeDistribution.point(0.3)
        assert dist.values == (0.3,)
        assert dist.mean == 0.3

    def test_uniform(self):
        dist = TypeDistribution.uniform([0.1, 0.3, 0.5])
        assert dist.mean == pytest.approx(0.3)
        assert all(p == pytest.approx(1 / 3) for p in dist.probabilities)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="sum"):
            TypeDistribution(values=(0.1, 0.2), probabilities=(0.5, 0.2))
        with pytest.raises(ValueError, match="non-negative"):
            TypeDistribution(values=(0.1, 0.2), probabilities=(-0.5, 1.5))
        with pytest.raises(ValueError, match="length"):
            TypeDistribution(values=(0.1,), probabilities=(0.5, 0.5))
        with pytest.raises(ValueError, match="at least one"):
            TypeDistribution(values=(), probabilities=())
        with pytest.raises(ValueError, match="at least one"):
            TypeDistribution.uniform([])

    def test_items(self):
        dist = TypeDistribution.uniform([0.2, 0.4])
        assert dist.items() == [(0.2, 0.5), (0.4, 0.5)]


class TestCompleteInformationReduction:
    """Point-mass beliefs at the true types reproduce Section III exactly."""

    @pytest.fixture(scope="class")
    def games(self):
        params = SwapParameters.default()
        bayes = BayesianSwapGame(
            params, 2.0,
            TypeDistribution.point(params.alice.alpha),
            TypeDistribution.point(params.bob.alpha),
        )
        return bayes, BackwardInduction(params, 2.0)

    def test_bob_region(self, games):
        bayes, base = games
        assert bayes.bob_t2_region().bounds() == pytest.approx(
            base.bob_t2_region().bounds(), rel=1e-9
        )

    def test_alice_t1(self, games):
        bayes, base = games
        assert bayes.alice_t1_cont() == pytest.approx(base.alice_t1_cont())
        assert bayes.alice_initiates() == base.alice_initiates()

    def test_success_rates(self, games):
        bayes, base = games
        assert bayes.realised_success_rate() == pytest.approx(base.success_rate())
        assert bayes.ex_ante_success_rate() == pytest.approx(base.success_rate())


@pytest.mark.parametrize("law", LAW_SPECS)
def test_point_beliefs_are_the_complete_information_game_under_every_law(law):
    """The game integrates under ``params.law``, so point beliefs at the
    true types reproduce the solver exactly, whatever the law."""
    params = SwapParameters.default().replace(law=law)
    game = BayesianSwapGame(
        params, 2.0,
        TypeDistribution.point(params.alice.alpha),
        TypeDistribution.point(params.bob.alpha),
    )
    base = BackwardInduction(params, 2.0)
    prices = np.linspace(0.5, 4.0, 15)
    assert game.bob_t2_cont(prices).tolist() == base.bob_t2_cont(prices).tolist()
    assert game.bob_t2_region() == base.bob_t2_region()
    assert game.alice_t1_cont() == base.alice_t1_cont()
    assert game.realised_success_rate() == base.success_rate()
    assert game.ex_ante_success_rate() == base.success_rate()
    # the threshold the realised rate plays is the true Alice's
    assert game._bob().p3_threshold() == base.p3_threshold()


class TestUncertaintyEffects:
    @pytest.fixture(scope="class")
    def game(self):
        params = SwapParameters.default()
        belief = TypeDistribution.uniform([0.1, 0.3, 0.5])
        return BayesianSwapGame(params, 2.0, belief, belief)

    def test_bob_region_is_belief_mixture(self, game, params):
        """Bob's region under uncertainty differs from any single-type one."""
        mixed = game.bob_t2_region().bounds()
        pure = BackwardInduction(params, 2.0).bob_t2_region().bounds()
        assert mixed != pytest.approx(pure)

    def test_realised_sr_below_complete_info(self, game, params):
        """Uncertainty cannot help coordination at the true (symmetric)
        types: Bob hedges against low-alpha Alices and trims his region."""
        complete = BackwardInduction(params, 2.0).success_rate()
        assert game.realised_success_rate() < complete

    def test_ex_ante_sr_below_realised(self, game):
        """The ex-ante rate also averages over *bad* type draws."""
        assert game.ex_ante_success_rate() < game.realised_success_rate()

    def test_still_initiates_at_reference(self, game):
        assert game.alice_initiates()

    def test_pessimistic_belief_blocks_initiation(self, params):
        belief_bad_bob = TypeDistribution.uniform([0.0, 0.05])
        game = BayesianSwapGame(
            params, 2.0,
            TypeDistribution.point(params.alice.alpha),
            belief_bad_bob,
        )
        # Alice expects Bob to walk away almost surely -> she stays out
        assert not game.alice_initiates()

    def test_per_type_regions_cached(self, game):
        assert game.bob_t2_region() is game.bob_t2_region()


class TestInformationValue:
    def test_gap_nonnegative_for_symmetric_uncertainty(self, params):
        belief = TypeDistribution.uniform([0.15, 0.3, 0.45])
        complete, incomplete = information_value(params, 2.0, belief, belief)
        assert complete >= incomplete

    def test_zero_gap_with_point_beliefs(self, params):
        point_a = TypeDistribution.point(params.alice.alpha)
        point_b = TypeDistribution.point(params.bob.alpha)
        complete, incomplete = information_value(params, 2.0, point_a, point_b)
        assert complete == pytest.approx(incomplete)

    def test_wider_uncertainty_bigger_gap(self, params):
        narrow = TypeDistribution.uniform([0.25, 0.35])
        wide = TypeDistribution.uniform([0.05, 0.55])
        _c1, sr_narrow = information_value(params, 2.0, narrow, narrow)
        _c2, sr_wide = information_value(params, 2.0, wide, wide)
        assert sr_wide < sr_narrow


class TestValidation:
    def test_rejects_bad_pstar(self, params):
        with pytest.raises(ValueError):
            BayesianSwapGame(
                params, 0.0,
                TypeDistribution.point(0.3), TypeDistribution.point(0.3),
            )


@settings(max_examples=8, deadline=None)
@given(alpha=st.floats(min_value=0.2, max_value=0.5))
def test_property_point_beliefs_reduce_to_complete_info(alpha):
    params = SwapParameters.default().replace(alpha_a=alpha, alpha_b=alpha)
    game = BayesianSwapGame(
        params, 2.0, TypeDistribution.point(alpha), TypeDistribution.point(alpha)
    )
    base = BackwardInduction(params, 2.0)
    assert game.realised_success_rate() == pytest.approx(base.success_rate(), abs=1e-9)
