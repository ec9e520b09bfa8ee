"""Rational agents: the paper's equilibrium players.

A rational agent executes the threshold strategy the backward
induction derives for its role. Strategies can be supplied directly
(e.g. from a :class:`~repro.core.equilibrium.SwapEquilibrium`) or
derived on construction from parameters; the collateral variants use
the Section IV thresholds.
"""

from __future__ import annotations

from typing import Tuple

from repro.agents.base import SwapAgent
from repro.core.backward_induction import BackwardInduction
from repro.core.collateral import CollateralBackwardInduction, CollateralEquilibrium
from repro.core.equilibrium import SwapEquilibrium
from repro.core.parameters import SwapParameters
from repro.core.strategy import Action, AliceStrategy, BobStrategy
from repro.protocol.messages import DecisionContext

__all__ = ["RationalAlice", "RationalBob", "pair_from_solver", "rational_pair"]


class RationalAlice(SwapAgent):
    """Alice playing her subgame-perfect strategy."""

    name = "alice"

    def __init__(self, strategy: AliceStrategy) -> None:
        self.strategy = strategy

    def decide_initiate(self, ctx: DecisionContext) -> Action:
        return self.strategy.decide_t1()

    def decide_lock(self, ctx: DecisionContext) -> Action:  # pragma: no cover
        raise NotImplementedError("Alice does not decide at t2")

    def decide_reveal(self, ctx: DecisionContext) -> Action:
        return self.strategy.decide_t3(ctx.price)


class RationalBob(SwapAgent):
    """Bob playing his subgame-perfect strategy."""

    name = "bob"

    def __init__(self, strategy: BobStrategy) -> None:
        self.strategy = strategy

    def decide_initiate(self, ctx: DecisionContext) -> Action:  # pragma: no cover
        raise NotImplementedError("Bob does not decide at t1")

    def decide_lock(self, ctx: DecisionContext) -> Action:
        return self.strategy.decide_t2(ctx.price)

    def decide_reveal(self, ctx: DecisionContext) -> Action:  # pragma: no cover
        raise NotImplementedError("Bob does not decide at t3")

    def decide_redeem(self, ctx: DecisionContext) -> Action:
        return self.strategy.decide_t4()


def rational_pair(
    params: SwapParameters,
    pstar: float,
    collateral: float = 0.0,
) -> Tuple[RationalAlice, RationalBob]:
    """Build the equilibrium agent pair for a (possibly collateralised) game."""
    if collateral > 0.0:
        return pair_from_solver(CollateralBackwardInduction(params, pstar, collateral))
    return pair_from_solver(BackwardInduction(params, pstar))


def pair_from_solver(solver: BackwardInduction) -> Tuple[RationalAlice, RationalBob]:
    """The agent pair playing ``solver``'s equilibrium strategies: those
    of the record of its own mechanism."""
    if isinstance(solver, CollateralBackwardInduction):
        game = CollateralEquilibrium.from_solver(solver)
    else:
        game = SwapEquilibrium.from_solver(solver)
    return RationalAlice(game.alice_strategy), RationalBob(game.bob_strategy)
