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
layer of quadrature over Bob's continuation region. The rest of the
induction is written once too, and the grid engine and the Bayesian
game call the same code: :func:`scan_window` is the price window Bob's
region is located in,
:func:`~repro.stochastic.rootfind.regions_between_roots` turns the
window's roots into the region, and :meth:`PayoffSchedule.t1_values`
is the whole ``t1`` stage (Eqs. (25), (26) and (31)) from one
quadrature pass. :class:`BackwardInduction` keeps only its own root
finding -- a full scan refined with Brent's method, the reference the
engine's certified scan and batched refiner are checked against -- and
lazily computes and caches the threshold structure for a fixed
exchange rate ``pstar``.

Utility convention: every ``U_{t_k}`` is measured *at* ``t_k``, i.e.
discounting is always back to the decision time, exactly as in the
paper's equations.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.core.parameters import SwapParameters
from repro.stochastic.law import step_kernel
from repro.stochastic.quadrature import DEFAULT_QUAD_ORDER, expectation_on_intervals
from repro.stochastic.rootfind import (
    IntervalUnion,
    bracketed_root,
    grid_sign_change_brackets,
    regions_between_roots,
)

__all__ = [
    "BackwardInduction",
    "PayoffSchedule",
    "basic_schedule",
    "collateral_schedule",
    "scan_window",
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
        zero (Eq. (34)). Raises ``ValueError`` when a discount factor
        underflows so far that the threshold is not a finite number
        (``r_a = 1000`` at Table III makes it 0/0; ``mu = -183`` makes
        the claim subnormal, and the quotient overflows at ``P* = 2``)
        -- a solve that cannot be answered, not an answer. The refusal
        is the error alone, with no numeric warning before it. One check
        covers a whole grid.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k = np.maximum(self.alice_refund - self.alice_deposit, 0.0) / self.alice_claim
        if not np.isfinite(k).all():
            raise ValueError(
                "Alice's t3 threshold (Eq. 18) is not finite: her discounted "
                "claim and refund under- or overflow at these parameters"
            )
        return k

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

    def t1_values(
        self,
        params: SwapParameters,
        law,
        kernel,
        k,
        rows,
        lo,
        hi,
        order: int = DEFAULT_QUAD_ORDER,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``t1`` stage of every row: Eqs. (25), (26) and (31).

        Row ``i`` has the ``t3`` threshold ``k[i]`` and Bob's ``t2``
        continuation region made of the intervals ``(lo[j], hi[j])``
        with ``rows[j] == i`` (all arrays); the schedule's fields are
        numbers or one per row. ``law`` is the ``t1`` law of the ``t2``
        price and ``kernel`` the ``t2 -> t3`` step. One quadrature pass
        over every interval integrates a stacked integrand: both
        agents' ``t2`` continuation values, from one ``pieces`` call on
        the nodes, and the probability that the ``t3`` price beats the
        threshold.

        Returns ``(alice_t1_cont, bob_t1_cont, success_rate)``, one
        value per row. The success rate is 0 on an empty region and
        the region's mass where ``k <= 0``, since Alice then reveals at
        any price.
        """
        k = np.atleast_1d(k)
        at_nodes = self.at(rows[:, None])
        k_nodes = k[rows][:, None]
        # the survival row keeps the log-space kernel: the lognormal
        # pieces' survival differs from it by an ulp
        log_k_nodes = np.log(np.where(k > 0.0, k, 1.0))[rows][:, None]

        def t2_values(x: np.ndarray) -> np.ndarray:
            pieces = kernel.pieces(x, k_nodes)
            return np.stack(
                [
                    at_nodes.alice_t2_cont(params, x, pieces),
                    at_nodes.bob_t2_cont(params, x, pieces),
                    kernel.survival_from_logs(np.log(x), log_k_nodes),
                ]
            )

        def per_row(weights=None) -> np.ndarray:
            return np.bincount(rows, weights=weights, minlength=k.size)

        inside_alice, inside_bob, survival = (
            per_row(weights)
            for weights in expectation_on_intervals(law, t2_values, lo, hi, order)
        )
        mass = per_row(np.maximum(law.cdf(hi) - law.cdf(lo), 0.0))
        above = law.partial_expectation_above
        price_mass = per_row(np.maximum(above(lo) - above(hi), 0.0))
        success = np.where(per_row() == 0, 0.0, np.where(k > 0.0, survival, mass))
        alice = self.alice_t1_cont(params, inside_alice, mass)
        bob = self.bob_t1_cont(params, inside_bob, price_mass, law.mean())
        return alice, bob, success


def scan_window(pstar: Payoff, p0: float, k: Payoff) -> Tuple[Payoff, Payoff]:
    """The price window Bob's ``t2`` region is located in (Eq. (24)).

    ``(1e-6 min(P*, p0), 1e4 max(P*, p0, k))`` with ``k`` the ``t3``
    threshold: far beyond any price the ``t1`` law can reach.
    Broadcasts over a ``P*`` axis.
    """
    return 1e-6 * np.minimum(pstar, p0), 1e4 * np.maximum(np.maximum(pstar, p0), k)


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
        self._t1_values: Optional[Tuple[float, float, float]] = None
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
        :meth:`bob_t2_advantage` across :func:`scan_window`, refined
        with Brent's method and cut into the region by
        :func:`~repro.stochastic.rootfind.regions_between_roots`.
        Empty when ``U(cont) < U(stop)`` everywhere (the paper's "swap
        always fails" case).
        """
        if self._bob_t2_region is None:
            lo, hi = scan_window(self.pstar, self.params.p0, self.p3_threshold())
            grid = np.exp(np.linspace(math.log(lo), math.log(hi), self.scan_points))
            values = self.bob_t2_advantage(grid)
            _rows, bracket_lo, bracket_hi = grid_sign_change_brackets(
                grid[None, :], values[None, :]
            )
            roots = [
                bracketed_root(lambda q: float(self.bob_t2_advantage(q)), a, b)
                for a, b in zip(bracket_lo.tolist(), bracket_hi.tolist())
            ]
            (self._bob_t2_region,) = IntervalUnion.by_row(
                1,
                *regions_between_roots(
                    lo,
                    hi,
                    np.zeros(len(roots), dtype=np.intp),
                    roots,
                    lambda _rows, mids: self.bob_t2_advantage(mids),
                ),
            )
        return self._bob_t2_region

    # ------------------------------------------------------------------ #
    # stage t1: Alice initiates or not (Eqs. (25)-(30))
    # ------------------------------------------------------------------ #

    def _t1(self) -> Tuple[float, float, float]:
        """Alice's and Bob's ``t1`` continuation values and the success
        rate, from one :meth:`PayoffSchedule.t1_values` pass over
        :meth:`bob_t2_region` at :meth:`p3_threshold` (computed once)."""
        if self._t1_values is None:
            p = self.params
            region = np.array(self.bob_t2_region().intervals, dtype=float).reshape(-1, 2)
            alice, bob, success = self._schedule.t1_values(
                p,
                self._law(p.p0, p.tau_a),
                self._kernel(p.tau_b),
                self.p3_threshold(),
                np.zeros(len(region), dtype=np.intp),
                region[:, 0],
                region[:, 1],
                self.quad_order,
            )
            self._t1_values = (float(alice[0]), float(bob[0]), float(success[0]))
        return self._t1_values

    def alice_t1_cont(self) -> float:
        """Eq. (25): Alice's expected utility of initiating the swap.

        Integrates her ``t2`` continuation value over Bob's continuation
        region and assigns the Eq. (22) refund value to its complement.
        """
        return self._t1()[0]

    def alice_t1_stop(self) -> float:
        """Eq. (27): Alice keeps her ``P*`` Token_a."""
        return self._schedule.alice_stay

    def bob_t1_cont(self) -> float:
        """Eq. (26): Bob's expected utility if Alice initiates.

        Inside his own continuation region Bob locks and receives
        Eq. (21) value; outside he keeps Token_b, worth the ``t2``
        price (Eqs. (23), (26)).
        """
        return self._t1()[1]

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
        return self._t1()[2]
