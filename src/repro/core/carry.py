"""Token carry: staking yields / dual risk-free rates (paper future work).

The conclusion sketches two "more realistic features": *different
risk-free rates for the two exchanged tokens* (the Garman--Kohlhagen
setting) and *coin staking, similar to earning dividends or interest on
a locked-in asset*. This module adds both through one mechanism:

* Token_a in a wallet earns a continuous yield ``q_a``; Token_b earns
  ``q_b``;
* tokens locked in an HTLC earn **nothing** -- locking forgoes carry;
* all branch payoffs are valued at the common end of game
  ``t_end = max(t7, t8)``: a token received at ``t_r`` accrues its
  yield over ``[t_r, t_end]``, so branches that release assets earlier
  are worth more.

Every stage utility keeps the base model's linear-in-price structure,
so the carry is one payoff schedule (:func:`carry_schedule`) with
per-branch carry factors, which :class:`CarryBackwardInduction` hands
to the shared induction in :mod:`repro.core.backward_induction`.
``q_a = q_b = 0`` is the basic schedule field for field, so it reduces
exactly to the basic model (property-tested).

Economic effect: a high Token_b staking yield ``q_b`` makes *keeping*
Token_b more attractive for Bob (his ``t2`` region narrows -- staking
competes with swapping) while making an *early receipt* of Token_b more
attractive for Alice (her reveal threshold drops); the net effect on
``SR`` is the kind of trade-off the benchmarks quantify.
"""

from __future__ import annotations

import math
from functools import cached_property

from repro.core.backward_induction import (
    BackwardInduction,
    PayoffSchedule,
    basic_schedule,
)
from repro.core.parameters import SwapParameters

__all__ = ["CarryBackwardInduction", "carry_schedule"]


def carry_schedule(
    params: SwapParameters, pstar: float, yield_a: float, yield_b: float
) -> PayoffSchedule:
    """The basic schedule with every branch's carry to game end.

    A token received at ``t`` earns its wallet yield (``q_a`` on
    Token_a, ``q_b`` on Token_b) from ``t`` to ``t_end = max(t7, t8)``.
    """
    grid = params.grid
    t_end = max(grid.t7, grid.t8)

    def carry_a(receipt_time: float) -> float:
        return math.exp(yield_a * (t_end - receipt_time))

    def carry_b(receipt_time: float) -> float:
        return math.exp(yield_b * (t_end - receipt_time))

    basic = basic_schedule(params, pstar)
    return basic._replace(
        alice_claim=basic.alice_claim * carry_b(grid.t5),
        alice_refund=basic.alice_refund * carry_a(grid.t8),
        bob_redeem=basic.bob_redeem * carry_a(grid.t6),
        bob_refund=basic.bob_refund * carry_b(grid.t7),
        alice_walked=basic.alice_walked * carry_a(grid.t8),
        bob_keep=carry_b(grid.t2),
        alice_stay=pstar * carry_a(0.0),
        bob_stay=params.p0 * carry_b(0.0),
    )


class CarryBackwardInduction(BackwardInduction):
    """Backward induction with per-token wallet yields ``(q_a, q_b)``."""

    def __init__(
        self,
        params: SwapParameters,
        pstar: float,
        yield_a: float = 0.0,
        yield_b: float = 0.0,
        **kwargs,
    ) -> None:
        if not math.isfinite(yield_a) or not math.isfinite(yield_b):
            raise ValueError("yields must be finite")
        super().__init__(params, pstar, **kwargs)
        self.yield_a = float(yield_a)
        self.yield_b = float(yield_b)

    @cached_property
    def _schedule(self) -> PayoffSchedule:
        return carry_schedule(self.params, self.pstar, self.yield_a, self.yield_b)
