"""Equilibrium strategies as executable policy objects.

The backward induction yields *threshold* strategies. This module
packages them as plain callables so that the agent-based simulator
(:mod:`repro.agents`, :mod:`repro.simulation`) can execute exactly the
strategies the analysis derives:

* Alice at ``t1``: initiate iff ``P*`` lies in her feasible range;
* Bob at ``t2``: lock iff ``P_{t2}`` lies in his continuation region;
* Alice at ``t3``: reveal iff ``P_{t3} > P̲_{t3}``;
* Bob at ``t4``: always redeem.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.backward_induction import BackwardInduction
from repro.core.parameters import SwapParameters
from repro.stochastic.rootfind import IntervalUnion

__all__ = ["Action", "AliceStrategy", "BobStrategy", "equilibrium_strategies"]


class Action(str, enum.Enum):
    """The two-element action set of the game (paper Section III-E)."""

    CONT = "cont"
    STOP = "stop"


@dataclass(frozen=True)
class AliceStrategy:
    """Alice's equilibrium policy.

    Attributes
    ----------
    initiate_at_t1:
        Her ``t1`` decision for the agreed ``P*`` (it does not depend on
        any yet-unrealised price: ``P_{t1} = p0`` is known).
    p3_threshold:
        Reveal threshold ``P̲_{t3}`` (Eq. (18)).
    """

    initiate_at_t1: bool
    p3_threshold: float

    def decide_t1(self) -> Action:
        """Initiate the swap or keep Token_a."""
        return Action.CONT if self.initiate_at_t1 else Action.STOP

    def decide_t3(self, p3: float) -> Action:
        """Reveal the secret iff the price cleared the threshold (Eq. (19)).

        The comparison is strict: at ``P_{t3} == P̲_{t3}`` Alice is
        exactly indifferent and stops, per the tie-breaking convention
        (:data:`repro.core.equilibrium.INDIFFERENT_ACTION`).
        """
        return Action.CONT if p3 > self.p3_threshold else Action.STOP


@dataclass(frozen=True)
class BobStrategy:
    """Bob's equilibrium policy.

    Attributes
    ----------
    t2_region:
        Continuation region for ``P_{t2}`` (Eq. (24); an interval union
        to also cover the collateral extension's 3-root case).
    """

    t2_region: IntervalUnion

    def decide_t2(self, p2: float) -> Action:
        """Lock Token_b iff the price is *strictly* inside the region.

        The region's endpoints are the indifference roots of
        ``U^B_{t2}(cont) - U^B_{t2}(stop)``; at an endpoint Bob stops,
        per the shared tie-breaking convention
        (:data:`repro.core.equilibrium.INDIFFERENT_ACTION`). This is
        why membership is checked on the open interiors rather than via
        ``IntervalUnion.__contains__`` (whose half-open ``(lo, hi]``
        convention exists for set algebra, not for tie-breaking).
        """
        inside = any(lo < p2 < hi for lo, hi in self.t2_region.intervals)
        return Action.CONT if inside else Action.STOP

    def decide_t4(self) -> Action:
        """Redeeming with the revealed secret is strictly dominant."""
        return Action.CONT


def equilibrium_strategies(
    params: SwapParameters, pstar: float
) -> "tuple[AliceStrategy, BobStrategy]":
    """Both agents' equilibrium policies for a fixed ``pstar``: the
    strategies of the basic game's record
    (:class:`~repro.core.equilibrium.SolvedGame`)."""
    from repro.core.equilibrium import SwapEquilibrium  # it imports this module

    game = SwapEquilibrium.from_solver(BackwardInduction(params, pstar))
    return game.alice_strategy, game.bob_strategy
