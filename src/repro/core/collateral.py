"""HTLC swap with collateral deposits (paper Section IV).

Both agents escrow ``Q`` Token_a with an Oracle-connected contract on
Chain_a before the swap. The Oracle returns an agent's collateral once
that agent has discharged all obligations, and forfeits a deviating
agent's collateral to the counterparty:

* Alice's collateral is released when she reveals the secret (received
  at ``t4 + tau_a``) and forfeited to Bob if she waives at ``t3``;
* Bob's collateral is released when he writes the Chain_b HTLC
  (decided at ``t3``, received at ``t3 + tau_a``) and both deposits go
  to Alice if he walks away at ``t2``;
* if the swap is never engaged at ``t1``, both keep their deposits.

Timing/discount conventions follow the paper's Eqs. (33)-(39) read
literally, with the typo normalisations listed in DESIGN.md ("tau_e"
:= ``eps_b``; Eq. (37)'s outer discount uses Bob's own rate).

These flows are one payoff schedule,
:func:`~repro.core.backward_induction.collateral_schedule`, which the
grid engine reads over its whole ``P*`` axis;
:class:`CollateralBackwardInduction` reads it at one ``P*``. At
``Q = 0`` it is the basic schedule field for field, so the basic model
is reproduced exactly (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.core.backward_induction import (
    BackwardInduction,
    PayoffSchedule,
    collateral_schedule,
)
from repro.core.equilibrium import StageUtilities
from repro.core.parameters import SwapParameters
from repro.core.strategy import AliceStrategy, BobStrategy
from repro.stochastic.rootfind import IntervalUnion

__all__ = [
    "CollateralBackwardInduction",
    "t1_engagement_game",
    "CollateralEquilibrium",
    "solve_collateral_game",
    "collateral_success_rate",
    "feasible_pstar_region_with_collateral",
]


class CollateralBackwardInduction(BackwardInduction):
    """Backward induction for the collateralised game (Section IV).

    Parameters
    ----------
    collateral:
        Deposit ``Q`` (in Token_a) escrowed by *each* agent. ``Q = 0``
        degenerates to the basic game.
    """

    def __init__(
        self,
        params: SwapParameters,
        pstar: float,
        collateral: float,
        **kwargs,
    ) -> None:
        if collateral < 0.0:
            raise ValueError(f"collateral must be non-negative, got {collateral}")
        super().__init__(params, pstar, **kwargs)
        self.collateral = float(collateral)

    @cached_property
    def _schedule(self) -> PayoffSchedule:
        return collateral_schedule(self.params, self.pstar, self.collateral)


@dataclass(frozen=True)
class CollateralEquilibrium:
    """Solved collateralised game (Section IV analogue of SwapEquilibrium)."""

    params: SwapParameters
    pstar: float
    collateral: float
    p3_threshold: float
    bob_t2_region: IntervalUnion
    alice_t1: StageUtilities
    bob_t1: StageUtilities
    success_rate: float
    alice_engages: bool
    bob_engages: bool
    alice_strategy: AliceStrategy
    bob_strategy: BobStrategy

    @property
    def engaged(self) -> bool:
        """Both agents prefer the game to their outside option at ``t1``.

        The ``t1`` decision is simultaneous in Section IV-4; the paper's
        ``𝔓* = 𝔓^A ∪ 𝔓^B`` is read as the intersection (see DESIGN.md).
        """
        return self.alice_engages and self.bob_engages

    @property
    def unconditional_success_rate(self) -> float:
        """Success probability including the engagement decision."""
        return self.success_rate if self.engaged else 0.0


def solve_collateral_game(
    params: SwapParameters, pstar: float, collateral: float
) -> CollateralEquilibrium:
    """Solve the Section IV game at a fixed rate and deposit."""
    import time

    from repro.core.solver import observe_solver

    started = time.perf_counter()
    solver = CollateralBackwardInduction(params, pstar, collateral)
    region = solver.bob_t2_region()
    alice_t1 = StageUtilities(cont=solver.alice_t1_cont(), stop=solver.alice_t1_stop())
    bob_t1 = StageUtilities(cont=solver.bob_t1_cont(), stop=solver.bob_t1_stop())
    alice_engages = alice_t1.advantage > 0.0
    equilibrium = CollateralEquilibrium(
        params=params,
        pstar=float(pstar),
        collateral=float(collateral),
        p3_threshold=solver.p3_threshold(),
        bob_t2_region=region,
        alice_t1=alice_t1,
        bob_t1=bob_t1,
        success_rate=solver.success_rate(),
        alice_engages=alice_engages,
        bob_engages=bob_t1.advantage > 0.0,
        alice_strategy=AliceStrategy(
            initiate_at_t1=alice_engages, p3_threshold=solver.p3_threshold()
        ),
        bob_strategy=BobStrategy(t2_region=region),
    )
    observe_solver("collateral", time.perf_counter() - started)
    return equilibrium


def collateral_success_rate(
    params: SwapParameters, pstar: float, collateral: float
) -> float:
    """Eq. (40): success rate of an initiated collateralised swap."""
    from repro.core.engine import solve_grid

    return float(solve_grid(params, [pstar], collateral=collateral).success_rate[0])


def feasible_pstar_region_with_collateral(
    params: SwapParameters,
    collateral: float,
    rel_lo: float = 0.05,
    rel_hi: float = 20.0,
    n_scan: int = 96,
) -> "Tuple[IntervalUnion, IntervalUnion]":
    """Feasible ``P*`` regions ``(alice, bob)`` for the Section IV game.

    ``alice`` is where ``U^A_{t1,c}(cont) > P* + Q``; ``bob`` where
    ``U^B_{t1,c}(cont) > p0 + Q``. Combine with
    :meth:`IntervalUnion.intersect` (our reading) or
    :meth:`IntervalUnion.union` (the paper's literal ``𝔓*``). Both
    regions come out of one vectorised engine scan
    (:func:`repro.core.engine.feasible_regions_grid`).
    """
    from repro.core.engine import feasible_regions_grid

    lo = rel_lo * params.p0
    hi = rel_hi * params.p0
    return feasible_regions_grid(params, lo, hi, n_scan=n_scan, collateral=collateral)


def t1_engagement_game(
    params: SwapParameters, pstar: float, collateral: float
) -> "BimatrixGame":
    """The simultaneous ``t1`` decision as an explicit 2x2 game.

    Section IV-4 has both agents decide *simultaneously* whether to
    engage. A swap needs both: if either refuses, both keep their token
    and deposit, so the off-diagonal and (stop, stop) cells coincide.
    The game therefore always has the no-trade coordination equilibrium;
    trade is the (payoff-dominant) second equilibrium exactly when both
    continuation values beat the outside options -- the condition
    :func:`solve_collateral_game` reports as ``engaged``.
    """
    from repro.games.matrix import BimatrixGame

    solver = CollateralBackwardInduction(params, pstar, collateral)
    alice_cont = solver.alice_t1_cont()
    alice_stop = solver.alice_t1_stop()
    bob_cont = solver.bob_t1_cont()
    bob_stop = solver.bob_t1_stop()
    row = [[alice_cont, alice_stop], [alice_stop, alice_stop]]
    col = [[bob_cont, bob_stop], [bob_stop, bob_stop]]
    return BimatrixGame(
        row_payoffs=row,
        col_payoffs=col,
        row_actions=("engage", "stay_out"),
        col_actions=("engage", "stay_out"),
    )
