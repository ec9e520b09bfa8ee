"""Incomplete information: uncertainty in the counterparty's success premium.

The paper's contributions section announces a study of "the game with
uncertainty in counterparties' success premium" -- relaxing
Assumption 7 (each agent knows the other's ``(r, alpha)``). This module
implements that Bayesian variant:

* each agent holds a discrete *belief* (a :class:`TypeDistribution`)
  over the counterparty's ``alpha``;
* **Bob at t2** anticipates Alice's ``t3`` reveal threshold, which
  depends on ``alpha_A``; under uncertainty his continuation utility is
  the belief-weighted mixture of the per-type Eq. (21) values, and his
  continuation region is where that mixture beats ``P_{t2}``;
* **Alice at t1** anticipates Bob's region, which depends on
  ``alpha_B`` (and on Bob's belief about *her*); her initiation utility
  is the belief-weighted mixture of the per-Bob-type Eq. (25) values;
* the **realised success rate** pairs the *true* types' behaviour:
  true-type Bob's (belief-driven) region with true-type Alice's
  threshold;
* the **ex-ante success rate** averages the realised rate over type
  profiles drawn from the beliefs.

Each of these is a belief-weighted sum over
:class:`~repro.core.backward_induction.BackwardInduction` views of the
game: a Bob type's view mixes his ``t2`` value over Alice's types and
so locates his region with the solver's own scan, and every type
profile's view plays that region, so the ``t1`` values and both success
rates come from the solver's own ``t1`` stage under ``params.law``.
Degenerate (point-mass) beliefs at the true types therefore reproduce
the complete-information game exactly, under every price law
(property-tested per law).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backward_induction import BackwardInduction, _as_array, _out
from repro.core.parameters import SwapParameters
from repro.stochastic.quadrature import DEFAULT_QUAD_ORDER
from repro.stochastic.rootfind import IntervalUnion

__all__ = ["TypeDistribution", "BayesianSwapGame", "information_value"]


@dataclass(frozen=True)
class TypeDistribution:
    """A discrete belief over a scalar type (here: a success premium)."""

    values: Tuple[float, ...]
    probabilities: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probabilities):
            raise ValueError("values and probabilities must have equal length")
        if not self.values:
            raise ValueError("a type distribution needs at least one type")
        if any(p < 0.0 for p in self.probabilities):
            raise ValueError("probabilities must be non-negative")
        total = sum(self.probabilities)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @staticmethod
    def point(value: float) -> "TypeDistribution":
        """A degenerate belief (complete information)."""
        return TypeDistribution(values=(float(value),), probabilities=(1.0,))

    @staticmethod
    def uniform(values: Sequence[float]) -> "TypeDistribution":
        """Equal weight on each candidate type."""
        n = len(values)
        if n == 0:
            raise ValueError("need at least one type")
        return TypeDistribution(
            values=tuple(float(v) for v in values),
            probabilities=tuple(1.0 / n for _ in values),
        )

    @property
    def mean(self) -> float:
        """First moment of the belief."""
        return sum(v * p for v, p in zip(self.values, self.probabilities))

    def items(self) -> List[Tuple[float, float]]:
        """``(value, probability)`` pairs."""
        return list(zip(self.values, self.probabilities))


class _TypeProfile(BackwardInduction):
    """The game at one type profile, Bob playing his belief-driven region.

    ``params`` carry the profile's premiums; :meth:`bob_t2_region` is
    the region of the Bob type ``bob``, which he chose under his belief
    about Alice, as :class:`~repro.core.optionality.CommittedBobSolver`
    pins its own. Its ``t3`` threshold and ``t1`` stage are the
    profile's own.
    """

    def __init__(self, params: SwapParameters, bob: _BeliefBob) -> None:
        super().__init__(params, bob.pstar, bob.quad_order, bob.scan_points)
        self._bob = bob

    def bob_t2_region(self) -> IntervalUnion:
        return self._bob.bob_t2_region()


class _BeliefBob(BackwardInduction):
    """The game as one Bob type plays it under his belief about Alice.

    ``params`` carry Alice's true premium and this Bob's. His ``t2``
    continuation value is the belief-weighted mixture of the per-type
    Eq. (21) values -- Alice's threshold enters it through the branch
    split, so the mixture is exact by linearity of expectation -- and
    the inherited :meth:`bob_t2_region` is therefore his belief-driven
    region. Every other stage is the true Alice's.
    """

    def __init__(self, game: BayesianSwapGame, bob_alpha: float) -> None:
        params = game.params.replace(alpha_b=bob_alpha)
        super().__init__(params, game.pstar, game.quad_order, game.scan_points)
        #: ``(weight, profile)`` per Alice type, facing this Bob
        self.alice_types = [
            (weight, _TypeProfile(params.replace(alpha_a=alpha_a), self))
            for alpha_a, weight in game.belief_about_alice.items()
        ]

    def bob_t2_cont(self, p2):
        total = np.zeros_like(_as_array(p2))
        for weight, profile in self.alice_types:
            total = total + weight * _as_array(profile.bob_t2_cont(p2))
        return _out(total)


class BayesianSwapGame:
    """The swap game with two-sided uncertainty over success premiums.

    Parameters
    ----------
    params:
        The *true* parameter set (``params.alice.alpha`` and
        ``params.bob.alpha`` are the realised types). Discount rates,
        timing constants and the price law are common knowledge, as in
        the paper.
    pstar:
        Agreed exchange rate.
    belief_about_alice:
        Bob's belief over ``alpha_A``.
    belief_about_bob:
        Alice's belief over ``alpha_B``.
    """

    def __init__(
        self,
        params: SwapParameters,
        pstar: float,
        belief_about_alice: TypeDistribution,
        belief_about_bob: TypeDistribution,
        quad_order: int = DEFAULT_QUAD_ORDER,
        scan_points: int = 512,
    ) -> None:
        if not pstar > 0.0:
            raise ValueError(f"pstar must be positive, got {pstar}")
        self.params = params
        self.pstar = float(pstar)
        self.belief_about_alice = belief_about_alice
        self.belief_about_bob = belief_about_bob
        self.quad_order = quad_order
        self.scan_points = scan_points
        self._bobs: Dict[float, _BeliefBob] = {}

    def _bob(self, bob_alpha: Optional[float] = None) -> _BeliefBob:
        """The Bob type ``bob_alpha`` (default: the true one), built once."""
        if bob_alpha is None:
            bob_alpha = self.params.bob.alpha
        bob = self._bobs.get(bob_alpha)
        if bob is None:
            bob = self._bobs[bob_alpha] = _BeliefBob(self, bob_alpha)
        return bob

    # ------------------------------------------------------------------ #
    # Bob at t2 under uncertainty about alpha_A
    # ------------------------------------------------------------------ #

    def bob_t2_cont(self, p2, bob_alpha: float = None):
        """Belief-weighted Eq. (21) for a Bob of premium ``bob_alpha``.

        Alice's threshold enters Eq. (21) through the branch split; the
        mixture over her types is exact by linearity of expectation.
        Defaults to the true ``alpha_B``.
        """
        return self._bob(bob_alpha).bob_t2_cont(p2)

    def bob_t2_region(self, bob_alpha: float = None) -> IntervalUnion:
        """Continuation region of a Bob type under his belief about Alice."""
        return self._bob(bob_alpha).bob_t2_region()

    # ------------------------------------------------------------------ #
    # Alice at t1 under uncertainty about alpha_B
    # ------------------------------------------------------------------ #

    def alice_t1_cont(self) -> float:
        """Belief-weighted Eq. (25) over Bob's types.

        Alice's own branch values use her *true* premium; only the
        continuation region she anticipates varies with Bob's type.
        """
        total = 0.0
        for alpha_b, weight in self.belief_about_bob.items():
            total += weight * self._bob(alpha_b).alice_t1_cont()
        return total

    def alice_t1_stop(self) -> float:
        """Eq. (27)."""
        return self.pstar

    def alice_initiates(self) -> bool:
        """Alice's t1 decision under her belief."""
        return self.alice_t1_cont() > self.alice_t1_stop()

    # ------------------------------------------------------------------ #
    # success rates
    # ------------------------------------------------------------------ #

    def realised_success_rate(self) -> float:
        """SR with the *true* types acting on their beliefs.

        Bob's region is his belief-driven one; Alice's reveal threshold
        is her true Eq. (18) threshold.
        """
        return self._bob().success_rate()

    def ex_ante_success_rate(self) -> float:
        """Expected SR before types realise, averaging over both beliefs."""
        total = 0.0
        for alpha_b, wb in self.belief_about_bob.items():
            for wa, profile in self._bob(alpha_b).alice_types:
                total += wa * wb * profile.success_rate()
        return total


def information_value(
    params: SwapParameters,
    pstar: float,
    belief_about_alice: TypeDistribution,
    belief_about_bob: TypeDistribution,
) -> Tuple[float, float]:
    """``(complete_info_sr, incomplete_info_sr)`` at the true types.

    The gap quantifies what Assumption 7 (mutual knowledge of
    preferences) is worth to the protocol's reliability.
    """
    complete = BackwardInduction(params, pstar).success_rate()
    game = BayesianSwapGame(params, pstar, belief_about_alice, belief_about_bob)
    return complete, game.realised_success_rate()
