"""Backward induction over the HTLC swap game (paper Section III-E).

The game has four decision points on the idealized timeline:

* ``t4`` -- Bob redeems Token_a; continuing is strictly dominant
  (Section III-E1), so ``t4`` needs no computation.
* ``t3`` -- Alice chooses to reveal the secret (*cont*) or waive
  (*stop*); Eqs. (14)-(19).
* ``t2`` -- Bob chooses to lock Token_b (*cont*) or walk away (*stop*);
  Eqs. (20)-(24).
* ``t1`` -- Alice chooses to initiate (*cont*) or not (*stop*);
  Eqs. (25)-(30).

Every swap mechanism in the package -- the basic game, Section IV's
collateral, the premium, carry and fee variants -- runs this same
induction and differs only in what each branch pays. A mechanism is
therefore one :class:`PayoffSchedule`: thirteen stage payoffs at a given
``P*``, each a number or an array over a ``P*`` grid. The ``t3``
threshold, both ``t2`` continuation values and the ``t1`` values are
written once, as methods of the schedule; :class:`BackwardInduction`
reads the schedule for one ``P*`` and the grid engine
(:mod:`repro.core.engine`) reads the collateral schedule over its whole
``P*`` axis. The basic and collateral recipes live here, beside the
solver both use; the premium, carry and fee recipes live in their own
modules.

All ``t3`` and ``t2`` utilities are closed form in terms of the
transition law's CDF and partial expectations; ``t1`` requires one
layer of quadrature over Bob's continuation region.
:class:`BackwardInduction` lazily computes and caches the threshold
structure for a fixed exchange rate ``pstar``.

Utility convention: every ``U_{t_k}`` is measured *at* ``t_k``, i.e.
discounting is always back to the decision time, exactly as in the
paper's equations.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.core.parameters import SwapParameters
from repro.stochastic.law import step_kernel
from repro.stochastic.quadrature import DEFAULT_QUAD_ORDER, expectation_on_interval
from repro.stochastic.rootfind import (
    IntervalUnion,
    bracketed_root,
    grid_sign_change_brackets,
)

__all__ = [
    "BackwardInduction",
    "PayoffSchedule",
    "basic_schedule",
    "collateral_schedule",
]

#: A stage payoff: one number, or one per point of a ``P*`` grid.
Payoff = Union[float, np.ndarray]


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _out(values: np.ndarray):
    """A NumPy result as a float when it is 0-d, else as an array."""
    return values if values.ndim else float(values)


class PayoffSchedule(NamedTuple):
    """One swap mechanism's stage payoffs at a given ``P*``.

    A *slope* multiplies the price at that stage; every other field is
    a value in Token_a, discounted to its stage. With ``x`` the price:

    * ``t3`` -- Alice's claim is worth ``alice_claim * x`` plus her
      ``alice_deposit``; her waiver ``alice_refund``. Bob receives
      ``bob_redeem`` if she claims, ``bob_refund * x`` plus
      ``bob_forfeit`` if she waives, and ``bob_deposit`` either way once
      he locked.
    * ``t2`` -- if Bob walks away Alice holds ``alice_walked`` and Bob
      ``bob_keep * x``; locking costs Bob ``bob_lock_fee * x``.
    * ``t1`` -- initiating costs Alice ``alice_init_fee``; staying out
      leaves Alice ``alice_stay`` and Bob ``bob_stay``.

    :func:`basic_schedule` gives the paper's Eqs. (14)-(28), where the
    deposits and fees are zero and ``bob_keep`` is one.
    """

    alice_claim: Payoff
    alice_refund: Payoff
    bob_redeem: Payoff
    bob_refund: Payoff
    alice_deposit: Payoff
    bob_deposit: Payoff
    bob_forfeit: Payoff
    alice_walked: Payoff
    bob_keep: Payoff
    bob_lock_fee: Payoff
    alice_init_fee: Payoff
    alice_stay: Payoff
    bob_stay: Payoff

    def at(self, index) -> "PayoffSchedule":
        """The grid fields indexed by ``index``; numbers pass through.

        ``index`` is a row-index array, or ``np.s_[:, None]`` to stand
        the grid up as a column against a ``(n, m)`` price array.
        """
        return PayoffSchedule._make(
            v[index] if isinstance(v, np.ndarray) else v for v in self
        )

    def p3_threshold(self) -> Payoff:
        """Eq. (18): the ``t3`` price above which Alice reveals.

        She reveals iff ``alice_claim * x + alice_deposit`` beats
        ``alice_refund``; a deposit that outweighs the refund makes it
        zero (Eq. (34)).
        """
        return np.maximum(self.alice_refund - self.alice_deposit, 0.0) / self.alice_claim

    def alice_t2_cont(self, params: SwapParameters, x, pieces) -> Payoff:
        """Eq. (20): Alice's ``t2`` value when Bob locks at price ``x``.

        ``pieces = (F, S, PB)`` are the ``t2 -> t3`` transition's cdf,
        survival and lower partial expectation at the threshold. Above
        it she claims, worth ``alice_claim`` times the upper partial
        expectation plus her deposit; below it she takes the refund.
        """
        cdf, survival, partial_below = pieces
        partial_above = np.maximum(x * math.exp(params.mu * params.tau_b) - partial_below, 0.0)
        value = (
            self.alice_claim * partial_above
            + cdf * self.alice_refund
            + survival * self.alice_deposit
        )
        return value * math.exp(-params.alice.r * params.tau_b)

    def bob_t2_cont(self, params: SwapParameters, x, pieces) -> Payoff:
        """Eq. (21): Bob's ``t2`` value of locking at price ``x``.

        Above the threshold Alice claims and Bob redeems; below it his
        refund is ``bob_refund`` times the lower partial expectation,
        plus her forfeit. His own deposit comes back either way, and the
        lock fee is paid now.
        """
        cdf, survival, partial_below = pieces
        value = (
            survival * self.bob_redeem
            + self.bob_refund * partial_below
            + self.bob_deposit
            + cdf * self.bob_forfeit
        )
        return value * math.exp(-params.bob.r * params.tau_b) - self.bob_lock_fee * x

    def alice_t1_cont(self, params: SwapParameters, inside, prob_inside) -> Payoff:
        """Eq. (25) from its pieces.

        ``inside`` is the ``t1`` expectation of :meth:`alice_t2_cont`
        over Bob's continuation region and ``prob_inside`` the region's
        probability; outside it Bob walks away.
        """
        value = inside + (1.0 - prob_inside) * self.alice_walked
        return value * math.exp(-params.alice.r * params.tau_a) - self.alice_init_fee

    def bob_t1_cont(self, params: SwapParameters, inside, price_mass, mean) -> Payoff:
        """Eq. (26) from its pieces.

        ``inside`` is the ``t1`` expectation of :meth:`bob_t2_cont` over
        his continuation region and ``price_mass`` the region's partial
        expectation of the price, whose mean is ``mean``; outside the
        region Bob keeps Token_b.
        """
        value = inside + (mean - price_mass) * self.bob_keep
        return value * math.exp(-params.bob.r * params.tau_a)


def basic_schedule(params: SwapParameters, pstar: Payoff) -> PayoffSchedule:
    """The paper's basic game (Eqs. (14)-(17), (22), (23), (27), (28))."""
    p = params
    a, b = p.alice, p.bob
    return PayoffSchedule(
        alice_claim=(1.0 + a.alpha) * math.exp((p.mu - a.r) * p.tau_b),
        alice_refund=pstar * math.exp(-a.r * (p.eps_b + 2.0 * p.tau_a)),
        bob_redeem=(1.0 + b.alpha) * pstar * math.exp(-b.r * (p.eps_b + p.tau_a)),
        bob_refund=math.exp(2.0 * (p.mu - b.r) * p.tau_b),
        alice_deposit=0.0,
        bob_deposit=0.0,
        bob_forfeit=0.0,
        alice_walked=pstar * math.exp(-a.r * (p.tau_b + p.eps_b + 2.0 * p.tau_a)),
        bob_keep=1.0,
        bob_lock_fee=0.0,
        alice_init_fee=0.0,
        alice_stay=pstar,
        bob_stay=p.p0,
    )


def collateral_schedule(
    params: SwapParameters, pstar: Payoff, collateral: float
) -> PayoffSchedule:
    """Section IV (Eqs. (33)-(39)): both agents escrow ``Q`` Token_a.

    Alice's deposit returns with her reveal (received at
    ``t4 + tau_a``) and goes to Bob if she waives; Bob's returns once he
    locked (received at ``t3 + tau_a``); if Bob walks away Alice gets
    both at ``t3 + tau_a``; staying out keeps the deposit. ``Q = 0``
    is the basic schedule, field for field.
    """
    p = params
    a, b = p.alice, p.bob
    basic = basic_schedule(params, pstar)
    return basic._replace(
        alice_deposit=collateral * math.exp(-a.r * (p.eps_b + p.tau_a)),
        bob_deposit=collateral * math.exp(-b.r * p.tau_a),
        bob_forfeit=collateral * math.exp(-b.r * (p.eps_b + p.tau_a)),
        alice_walked=basic.alice_walked
        + 2.0 * collateral * math.exp(-a.r * (p.tau_b + p.tau_a)),
        alice_stay=pstar + collateral,
        bob_stay=p.p0 + collateral,
    )


class BackwardInduction:
    """Solver for the basic (no-collateral) swap game at a fixed ``pstar``.

    A variant supplies its payoffs by overriding ``_schedule``, the
    :class:`PayoffSchedule` every stage method reads.

    Parameters
    ----------
    params:
        The model parameters (Table III).
    pstar:
        The agreed exchange rate ``P*`` (Token_a per Token_b).
    quad_order:
        Gauss--Legendre order for the ``t1`` integrals.
    scan_points:
        Grid resolution of the sign-change scan that locates Bob's
        ``t2`` continuation region.
    """

    def __init__(
        self,
        params: SwapParameters,
        pstar: float,
        quad_order: int = DEFAULT_QUAD_ORDER,
        scan_points: int = 512,
    ) -> None:
        if not pstar > 0.0:
            raise ValueError(f"pstar must be positive, got {pstar}")
        self.params = params
        self.pstar = float(pstar)
        self.quad_order = quad_order
        self.scan_points = scan_points
        self._bob_t2_region: Optional[IntervalUnion] = None
        self._kernels: dict = {}

    @cached_property
    def _schedule(self) -> PayoffSchedule:
        """This mechanism's stage payoffs at ``pstar`` (built once)."""
        return basic_schedule(self.params, self.pstar)

    @cached_property
    def _threshold(self) -> float:
        return float(self._schedule.p3_threshold())

    def _kernel(self, tau: float):
        """The one-step transition kernel for horizon ``tau`` (cached)."""
        kernel = self._kernels.get(tau)
        if kernel is None:
            p = self.params
            kernel = step_kernel(p.law, p.mu, p.sigma, tau)
            self._kernels[tau] = kernel
        return kernel

    def _law(self, spot: float, tau: float):
        return self._kernel(tau).law(spot)

    # ------------------------------------------------------------------ #
    # stage t3: Alice reveals the secret or waives (Eqs. (14)-(19))
    # ------------------------------------------------------------------ #

    def alice_t3_cont(self, p3):
        """Eq. (14): Alice reveals; linear in the ``t3`` price, plus any
        deposit she recovers (Eq. (33)). Vectorised."""
        return _out(self._schedule.alice_claim * _as_array(p3) + self._schedule.alice_deposit)

    def alice_t3_stop(self) -> float:
        """Eq. (16): Alice waives; Token_a refunded at ``t8 = t3 + eps_b + 2 tau_a``."""
        return self._schedule.alice_refund

    def bob_t3_cont(self) -> float:
        """Eq. (15): swap succeeds; Bob gets Token_a at ``t6 = t3 + eps_b + tau_a``,
        plus any deposit of his own."""
        return self._schedule.bob_redeem + self._schedule.bob_deposit

    def bob_t3_stop(self, p3):
        """Eq. (17): Alice waived; Bob gets Token_b back at ``t7 = t3 + 2 tau_b``,
        plus any deposit of his own and whatever she forfeits."""
        s = self._schedule
        return _out(s.bob_refund * _as_array(p3) + s.bob_deposit + s.bob_forfeit)

    def p3_threshold(self) -> float:
        """Eq. (18): the cut-off price ``P̲_{t3}``.

        Alice continues at ``t3`` iff ``P_{t3} > P̲_{t3}``.
        """
        return self._threshold

    def alice_t3_value(self, p3):
        """Alice's equilibrium value at ``t3``: max of cont and stop."""
        return np.maximum(self.alice_t3_cont(p3), self.alice_t3_stop())

    def bob_t3_value(self, p3):
        """Bob's value at ``t3`` given Alice plays her threshold strategy."""
        p3 = _as_array(p3)
        cont_mask = p3 > self.p3_threshold()
        return _out(np.where(cont_mask, self.bob_t3_cont(), self.bob_t3_stop(p3)))

    # ------------------------------------------------------------------ #
    # stage t2: Bob locks Token_b or walks away (Eqs. (20)-(24))
    # ------------------------------------------------------------------ #

    def _t2_law_pieces(self, p2):
        """Vectorised pieces for the ``t2 -> t3`` transition.

        Returns ``(cdf_at_threshold, survival, partial_below)`` of the
        price at ``t3`` given ``P_{t2} = p2``, all evaluated at the
        ``t3`` threshold, vectorised over ``p2``. Thin view over the
        law's step kernel, which the grid engine shares (under the
        default law this is exactly
        :func:`repro.stochastic.lognormal.transition_pieces`);
        ``k <= 0`` degenerates to the collateral extension's "Alice
        continues at any price" pieces.
        """
        p = self.params
        return self._kernel(p.tau_b).pieces(_as_array(p2), self.p3_threshold())

    def alice_t2_cont(self, p2):
        """Eq. (20): Alice's expected utility at ``t2`` if Bob continues.

        Closed form (:meth:`PayoffSchedule.alice_t2_cont`). Vectorised
        over ``p2``.
        """
        p2 = _as_array(p2)
        return _out(self._schedule.alice_t2_cont(self.params, p2, self._t2_law_pieces(p2)))

    def alice_t2_stop(self) -> float:
        """Eq. (22): Bob walked away; Alice refunded at ``t8 = t2 + tau_b + eps_b + 2 tau_a``."""
        return self._schedule.alice_walked

    def bob_t2_cont(self, p2):
        """Eq. (21): Bob's expected utility at ``t2`` if he locks Token_b.

        Closed form (:meth:`PayoffSchedule.bob_t2_cont`). Vectorised
        over ``p2``.
        """
        p2 = _as_array(p2)
        return _out(self._schedule.bob_t2_cont(self.params, p2, self._t2_law_pieces(p2)))

    def bob_t2_stop(self, p2):
        """Eq. (23): Bob keeps his 1 Token_b, worth ``P_{t2}`` now."""
        return _out(self._schedule.bob_keep * _as_array(p2))

    def bob_t2_advantage(self, p2):
        """``U^B_{t2}(cont) - U^B_{t2}(stop)``; positive where Bob continues."""
        return _out(np.subtract(self.bob_t2_cont(p2), self.bob_t2_stop(p2)))

    def bob_t2_region(self) -> IntervalUnion:
        """Bob's continuation region ``(P̲_{t2}, P̄_{t2})`` (Eq. (24)).

        Located by a vectorised sign-change scan of
        :meth:`bob_t2_advantage` on a log grid spanning far beyond any
        price the ``t1`` law can reach, refined with Brent's method.
        Empty when ``U(cont) < U(stop)`` everywhere (the paper's
        "swap always fails" case).
        """
        if self._bob_t2_region is None:
            scale = max(self.pstar, self.params.p0, self.p3_threshold())
            lo = 1e-6 * min(self.pstar, self.params.p0)
            hi = 1e4 * scale
            grid = np.exp(np.linspace(math.log(lo), math.log(hi), self.scan_points))
            values = self.bob_t2_advantage(grid)
            _rows, bracket_lo, bracket_hi = grid_sign_change_brackets(
                grid[None, :], values[None, :]
            )
            roots = [
                bracketed_root(lambda q: float(self.bob_t2_advantage(q)), a, b)
                for a, b in zip(bracket_lo.tolist(), bracket_hi.tolist())
            ]
            edges = [lo] + sorted(roots) + [hi]
            keep = []
            for a, b in zip(edges[:-1], edges[1:]):
                if b <= a:
                    continue
                mid = math.sqrt(a * b)
                if float(self.bob_t2_advantage(mid)) > 0.0:
                    keep.append((a, b))
            self._bob_t2_region = IntervalUnion.from_intervals(keep)
        return self._bob_t2_region

    # ------------------------------------------------------------------ #
    # stage t1: Alice initiates or not (Eqs. (25)-(30))
    # ------------------------------------------------------------------ #

    def alice_t1_cont(self) -> float:
        """Eq. (25): Alice's expected utility of initiating the swap.

        Integrates :meth:`alice_t2_cont` over Bob's continuation region
        and assigns the Eq. (22) refund value to its complement.
        """
        p = self.params
        law = self._law(p.p0, p.tau_a)
        region = self.bob_t2_region()
        inside = sum(
            expectation_on_interval(law, self.alice_t2_cont, lo, hi, self.quad_order)
            for lo, hi in region.intervals
        )
        return self._schedule.alice_t1_cont(p, inside, region.probability(law))

    def alice_t1_stop(self) -> float:
        """Eq. (27): Alice keeps her ``P*`` Token_a."""
        return self._schedule.alice_stay

    def bob_t1_cont(self) -> float:
        """Eq. (26): Bob's expected utility if Alice initiates.

        Inside his own continuation region Bob locks and receives
        Eq. (21) value; outside he keeps Token_b, worth the ``t2``
        price (Eqs. (23), (26)).
        """
        p = self.params
        law = self._law(p.p0, p.tau_a)
        region = self.bob_t2_region()
        inside = sum(
            expectation_on_interval(law, self.bob_t2_cont, lo, hi, self.quad_order)
            for lo, hi in region.intervals
        )
        price_mass = sum(
            law.partial_expectation_between(lo, hi) for lo, hi in region.intervals
        )
        return self._schedule.bob_t1_cont(p, inside, price_mass, law.mean())

    def bob_t1_stop(self) -> float:
        """Eq. (28): Bob keeps his 1 Token_b, worth ``P_{t1} = p0``."""
        return self._schedule.bob_stay

    def alice_initiates(self) -> bool:
        """Alice's ``t1`` decision (Eq. (30)): initiate iff cont beats stop."""
        return self.alice_t1_cont() > self.alice_t1_stop()

    def bob_would_agree(self) -> bool:
        """Whether Bob prefers the swap game to keeping his token at ``t0``.

        Not part of the paper's Eq. (30) (which conditions on Alice
        only) but needed for a swap to be *agreed* in the first place;
        exposed separately so both conventions are available.
        """
        return self.bob_t1_cont() > self.bob_t1_stop()

    # ------------------------------------------------------------------ #
    # success rate (Eq. (31))
    # ------------------------------------------------------------------ #

    def success_rate(self) -> float:
        """Eq. (31): probability the swap completes once initiated.

        The ``t2`` price must land in Bob's continuation region and the
        ``t3`` price must then exceed Alice's threshold.
        """
        p = self.params
        law = self._law(p.p0, p.tau_a)
        region = self.bob_t2_region()
        if region.is_empty:
            return 0.0
        k = self.p3_threshold()
        if k <= 0.0:
            # Alice continues at any t3 price: SR is just the region mass
            return region.probability(law)
        kernel_b = self._kernel(p.tau_b)
        log_k = math.log(k)

        def survive(x: np.ndarray) -> np.ndarray:
            return kernel_b.survival_from_logs(np.log(x), log_k)

        return sum(
            expectation_on_interval(law, survive, lo, hi, self.quad_order)
            for lo, hi in region.intervals
        )
