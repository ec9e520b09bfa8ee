"""Transaction fees (paper future work; relaxes Assumption 2).

The basic model assumes "transaction fees are negligible". This
extension prices them in:

* every Chain_a transaction costs ``fee_a`` Token_a, every Chain_b
  transaction costs ``fee_b`` Token_b;
* claim/refund fees are *deducted from the transferred amount* (the
  transaction spends part of its output on fees), so Alice's claim
  yields ``1 - fee_b`` Token_b, her refund nets ``P* - fee_a``, Bob's
  redemption nets ``P* - fee_a``, his refund ``1 - fee_b`` Token_b;
* lock deployments are paid out of pocket at submission time
  (Alice's ``fee_a`` at ``t1``, Bob's ``fee_b`` -- worth
  ``fee_b * P_{t2}`` -- at ``t2``);
* walking away costs nothing (no transaction is sent).

All stage payoffs stay linear in the price, so the fees are one payoff
schedule (:func:`fee_schedule`) with shifted coefficients, which
:class:`FeeBackwardInduction` hands to the shared induction in
:mod:`repro.core.backward_induction`. ``fee_a = fee_b = 0`` is the
basic schedule field for field, so it reduces exactly to the basic
model.

Economics: fees act as a *commitment tax* -- they lower every
continuation branch but leave the stop branches mostly untouched, so
(unlike collateral, which penalises stopping) fees strictly *reduce*
the success rate and shrink the feasible window. The benchmark suite
quantifies this contrast.
"""

from __future__ import annotations

from functools import cached_property

from repro.core.backward_induction import (
    BackwardInduction,
    PayoffSchedule,
    basic_schedule,
)
from repro.core.parameters import SwapParameters

__all__ = ["FeeBackwardInduction", "fee_schedule"]


def fee_schedule(
    params: SwapParameters, pstar: float, fee_a: float, fee_b: float
) -> PayoffSchedule:
    """The basic schedule with Chain_a fee ``fee_a`` and Chain_b fee ``fee_b``.

    Every Token_a transfer nets ``P* - fee_a`` and every Token_b
    transfer ``1 - fee_b``; Bob's lock costs ``fee_b`` Token_b at
    ``t2`` and Alice's ``fee_a`` at ``t1``; staying out costs nothing.
    """
    net = basic_schedule(params, pstar - fee_a)
    return net._replace(
        alice_claim=net.alice_claim * (1.0 - fee_b),
        bob_refund=net.bob_refund * (1.0 - fee_b),
        bob_lock_fee=fee_b,
        alice_init_fee=fee_a,
        alice_stay=pstar,
    )


class FeeBackwardInduction(BackwardInduction):
    """Backward induction with per-transaction fees ``(fee_a, fee_b)``."""

    def __init__(
        self,
        params: SwapParameters,
        pstar: float,
        fee_a: float = 0.0,
        fee_b: float = 0.0,
        **kwargs,
    ) -> None:
        if fee_a < 0.0 or fee_b < 0.0:
            raise ValueError("fees must be non-negative")
        if fee_a >= pstar:
            raise ValueError(
                f"fee_a={fee_a} must be below the swap notional P*={pstar}"
            )
        if fee_b >= 1.0:
            raise ValueError(f"fee_b={fee_b} must be below the 1 Token_b notional")
        super().__init__(params, pstar, **kwargs)
        self.fee_a = float(fee_a)
        self.fee_b = float(fee_b)

    @cached_property
    def _schedule(self) -> PayoffSchedule:
        return fee_schedule(self.params, self.pstar, self.fee_a, self.fee_b)
