"""Baseline: premium mechanism à la Han, Lin and Yu (AFT 2019).

The paper's related work (Section II-C) discusses the *premium*
mechanism: the swap initiator escrows a premium that is forfeited to
the counterparty if she aborts, compensating Bob for the American
option she otherwise holds for free. We implement it in the same
utility framework so it can be benchmarked against the Section IV
symmetric-collateral design:

* Alice escrows ``W`` Token_a alongside her HTLC at ``t1``;
* on success the premium returns to her with Bob's redemption
  (received at ``t4 + tau_a``);
* if Alice waives at ``t3``, Bob collects ``W`` when the Chain_a lock
  expires (received at ``t_a + tau_a = t3 + eps_b + 2 tau_a``);
* if Bob walks away at ``t2``, the premium returns to Alice with her
  refund at ``t8``;
* if the swap is never initiated, Alice keeps ``W``.

Only Alice posts anything, so the mechanism disciplines her ``t3``
optionality (the Han et al. concern) but leaves Bob's ``t2``
optionality untouched -- exactly the asymmetry the paper's collateral
extension removes.

These flows are one payoff schedule (:func:`premium_schedule`) that
:class:`PremiumBackwardInduction` hands to the shared induction in
:mod:`repro.core.backward_induction`. ``W = 0`` is the basic schedule
field for field, so it reproduces the basic model exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.core.backward_induction import (
    BackwardInduction,
    PayoffSchedule,
    basic_schedule,
)
from repro.core.equilibrium import StageUtilities
from repro.core.parameters import SwapParameters
from repro.core.strategy import AliceStrategy, BobStrategy
from repro.stochastic.rootfind import IntervalUnion

__all__ = [
    "PremiumBackwardInduction",
    "PremiumEquilibrium",
    "premium_schedule",
    "solve_premium_game",
]


def premium_schedule(
    params: SwapParameters, pstar: float, premium: float
) -> PayoffSchedule:
    """The basic schedule plus Alice's premium ``W``.

    Her reveal recovers ``W`` (received at ``t4 + tau_a``); her waiver
    forfeits it to Bob (received at ``t3 + eps_b + 2 tau_a``); Bob
    walking away returns it with her refund at ``t8``; not initiating
    keeps it.
    """
    p = params
    a, b = p.alice, p.bob
    return basic_schedule(params, pstar)._replace(
        alice_deposit=premium * math.exp(-a.r * (p.eps_b + p.tau_a)),
        bob_forfeit=premium * math.exp(-b.r * (p.eps_b + 2.0 * p.tau_a)),
        alice_walked=(pstar + premium)
        * math.exp(-a.r * (p.tau_b + p.eps_b + 2.0 * p.tau_a)),
        alice_stay=pstar + premium,
    )


class PremiumBackwardInduction(BackwardInduction):
    """Backward induction with an initiator-only premium ``W``."""

    def __init__(
        self, params: SwapParameters, pstar: float, premium: float, **kwargs
    ) -> None:
        if premium < 0.0:
            raise ValueError(f"premium must be non-negative, got {premium}")
        super().__init__(params, pstar, **kwargs)
        self.premium = float(premium)

    @cached_property
    def _schedule(self) -> PayoffSchedule:
        return premium_schedule(self.params, self.pstar, self.premium)


@dataclass(frozen=True)
class PremiumEquilibrium:
    """Solved premium game."""

    params: SwapParameters
    pstar: float
    premium: float
    p3_threshold: float
    bob_t2_region: IntervalUnion
    alice_t1: StageUtilities
    bob_t1: StageUtilities
    success_rate: float
    initiated: bool
    alice_strategy: AliceStrategy
    bob_strategy: BobStrategy

    @property
    def unconditional_success_rate(self) -> float:
        """Success probability including the initiation decision."""
        return self.success_rate if self.initiated else 0.0


def solve_premium_game(
    params: SwapParameters, pstar: float, premium: float
) -> PremiumEquilibrium:
    """Solve the premium-mechanism game at a fixed rate and premium."""
    import time

    from repro.core.solver import observe_solver

    started = time.perf_counter()
    solver = PremiumBackwardInduction(params, pstar, premium)
    region = solver.bob_t2_region()
    alice_t1 = StageUtilities(cont=solver.alice_t1_cont(), stop=solver.alice_t1_stop())
    bob_t1 = StageUtilities(cont=solver.bob_t1_cont(), stop=solver.bob_t1_stop())
    initiated = alice_t1.advantage > 0.0
    equilibrium = PremiumEquilibrium(
        params=params,
        pstar=float(pstar),
        premium=float(premium),
        p3_threshold=solver.p3_threshold(),
        bob_t2_region=region,
        alice_t1=alice_t1,
        bob_t1=bob_t1,
        success_rate=solver.success_rate(),
        initiated=initiated,
        alice_strategy=AliceStrategy(
            initiate_at_t1=initiated, p3_threshold=solver.p3_threshold()
        ),
        bob_strategy=BobStrategy(t2_region=region),
    )
    observe_solver("premium", time.perf_counter() - started)
    return equilibrium
