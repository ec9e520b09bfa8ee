"""Vectorised grid-solve engine: whole ``P*`` grids as array kernels.

Every curve the paper draws -- ``SR(P*)`` (Eq. (31), Figure 6), the
feasibility windows (Eqs. (25)-(30), Figure 5), the collateral panels
of Section IV -- is a *grid* evaluation, yet the scalar solvers
(:class:`~repro.core.backward_induction.BackwardInduction` and its
collateral subclass) rebuild the whole threshold structure one exchange
rate at a time. :class:`GridSolver` evaluates the entire grid at once:

* one shared ``t1`` law (``params.law`` stepped over ``tau_a`` from
  ``p0``) and one Gauss--Legendre node set serve every point;
* the ``t3`` thresholds, the ``t2`` scan grids, Bob's advantage
  function, the endpoint roots, and the ``t1`` quadratures are computed
  as broadcast NumPy operations over the ``P*`` axis;
* the scan is *certified*: Bob's advantage is evaluated on every
  ``_SCAN_BLOCK``-th column and its sign proven on the blocks between
  them from the monotonicity of the transition pieces in the spot, so
  only blocks near a root are evaluated in full, and the sign-change
  brackets are exactly the full scan's (:meth:`GridSolver._certified_scan`);
* one batched Chandrupatla refiner
  (:func:`~repro.stochastic.rootfind.bisect_roots`) takes every bracket
  to its root, and one quadrature pass integrates a stacked integrand --
  both agents' ``t2`` continuation values, from one ``pieces`` call on
  the nodes, and the success-rate survival term.

Array layout convention (see DESIGN.md): the leading axis is always the
``P*`` grid (length ``n``); scan grids are ``(n, scan_points)``;
bracket and interval data are *flattened* into ``(rows, lo, hi)``
triples because different grid points own different numbers of
roots/intervals, and per-point results are recovered with
``np.bincount(rows, weights=..., minlength=n)`` scatter-adds. The
kernels replicate the scalar formulas operation for operation, so the
scalar solvers remain the single-point reference view -- parity is
property-tested to ``|delta| <= 1e-9`` (``tests/core/test_grid_parity.py``);
the only numerical difference is the refiner's (Chandrupatla vs Brent,
~1e-12 at the region roots).

Every solve lands in the active :mod:`repro.obs` registry:
``repro_grid_solves_total``, ``repro_grid_points`` (grid-size
histogram) and ``repro_grid_seconds`` (latency histogram).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.equilibrium import StageUtilities, SwapEquilibrium
from repro.core.parameters import SwapParameters
from repro.core.strategy import AliceStrategy, BobStrategy
from repro.obs.metrics import get_registry
from repro.stochastic.law import observe_law, step_kernel
from repro.stochastic.quadrature import (
    DEFAULT_QUAD_ORDER,
    expectation_on_intervals,
)
from repro.stochastic.rootfind import (
    IntervalUnion,
    bisect_roots,
    grid_sign_change_brackets,
)

__all__ = ["EquilibriumGrid", "GridSolver", "solve_grid", "feasible_regions_grid"]

#: Grid-size histogram buckets (points per solve, powers of four).
_POINTS_BUCKETS: Tuple[float, ...] = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)

#: Scan columns per certified block: Bob's advantage is evaluated on
#: every ``_SCAN_BLOCK``-th column and bounded in between.
_SCAN_BLOCK = 16

#: A block bound proves a sign only if it clears ``_PROOF_MARGIN * x``.
_PROOF_MARGIN = 1e-9


@dataclass(frozen=True)
class EquilibriumGrid:
    """Solved swap games on a whole ``P*`` grid.

    All float fields are ``(n,)`` arrays aligned with ``pstars``;
    ``t2_regions`` holds one :class:`IntervalUnion` per point. Use
    :meth:`equilibrium_at` to materialise the classic per-point result
    object (:class:`SwapEquilibrium`, or the Section IV
    ``CollateralEquilibrium`` when ``collateral > 0``).
    """

    params: SwapParameters
    collateral: float
    pstars: np.ndarray
    p3_threshold: np.ndarray
    t2_regions: Tuple[IntervalUnion, ...]
    alice_t1_cont: np.ndarray
    alice_t1_stop: np.ndarray
    bob_t1_cont: np.ndarray
    bob_t1_stop: np.ndarray
    success_rate: np.ndarray

    def __len__(self) -> int:
        return self.pstars.size

    @property
    def alice_initiates(self) -> np.ndarray:
        """Eq. (30) per point: ``U^A_{t1}(cont) > U^A_{t1}(stop)``."""
        return self.alice_t1_cont > self.alice_t1_stop

    @property
    def bob_would_agree(self) -> np.ndarray:
        """Bob's side of the ``t1`` agreement, per point."""
        return self.bob_t1_cont > self.bob_t1_stop

    @property
    def t2_lower(self) -> np.ndarray:
        """``P̲_{t2}`` per point (``nan`` where Bob never continues)."""
        return np.array(
            [r.bounds()[0] if not r.is_empty else math.nan for r in self.t2_regions]
        )

    @property
    def t2_upper(self) -> np.ndarray:
        """``P̄_{t2}`` per point (``nan`` where Bob never continues)."""
        return np.array(
            [r.bounds()[1] if not r.is_empty else math.nan for r in self.t2_regions]
        )

    def equilibrium_at(self, i: int):
        """The classic per-point result object for grid index ``i``.

        Returns a :class:`SwapEquilibrium` when the grid was solved
        without collateral and a ``CollateralEquilibrium`` otherwise --
        the same types (and tie-breaking conventions) the scalar
        :func:`~repro.core.solver.solve_swap_game` /
        :func:`~repro.core.collateral.solve_collateral_game` produce.
        """
        alice_t1 = StageUtilities(
            cont=float(self.alice_t1_cont[i]), stop=float(self.alice_t1_stop[i])
        )
        bob_t1 = StageUtilities(
            cont=float(self.bob_t1_cont[i]), stop=float(self.bob_t1_stop[i])
        )
        initiated = alice_t1.advantage > 0.0
        region = self.t2_regions[i]
        alice_strategy = AliceStrategy(
            initiate_at_t1=initiated, p3_threshold=float(self.p3_threshold[i])
        )
        bob_strategy = BobStrategy(t2_region=region)
        if self.collateral > 0.0:
            from repro.core.collateral import CollateralEquilibrium

            return CollateralEquilibrium(
                params=self.params,
                pstar=float(self.pstars[i]),
                collateral=self.collateral,
                p3_threshold=float(self.p3_threshold[i]),
                bob_t2_region=region,
                alice_t1=alice_t1,
                bob_t1=bob_t1,
                success_rate=float(self.success_rate[i]),
                alice_engages=initiated,
                bob_engages=bob_t1.advantage > 0.0,
                alice_strategy=alice_strategy,
                bob_strategy=bob_strategy,
            )
        return SwapEquilibrium(
            params=self.params,
            pstar=float(self.pstars[i]),
            p3_threshold=float(self.p3_threshold[i]),
            bob_t2_region=region,
            alice_t1=alice_t1,
            bob_t1=bob_t1,
            success_rate=float(self.success_rate[i]),
            initiated=initiated,
            alice_strategy=alice_strategy,
            bob_strategy=bob_strategy,
        )


class GridSolver:
    """Array-kernel backward induction over a ``P*`` grid.

    Parameters
    ----------
    params:
        Model parameters (Table III), shared by every grid point.
    collateral:
        Deposit ``Q`` of the Section IV game; ``0`` solves the basic
        game (and matches :class:`BackwardInduction` formulas exactly,
        not the ``Q -> 0`` limit of the collateral ones).
    quad_order, scan_points:
        Same knobs, and same defaults, as the scalar solvers.
    """

    def __init__(
        self,
        params: SwapParameters,
        collateral: float = 0.0,
        quad_order: int = DEFAULT_QUAD_ORDER,
        scan_points: int = 512,
    ) -> None:
        if collateral < 0.0:
            raise ValueError(f"collateral must be non-negative, got {collateral}")
        self.params = params
        self.collateral = float(collateral)
        self.quad_order = quad_order
        self.scan_points = scan_points
        # both transition kernels are identical for every grid point:
        # built once here (under the default law these delegate to the
        # exact lognormal closed forms, keeping historical bit-parity)
        self._kernel_b = step_kernel(params.law, params.mu, params.sigma, params.tau_b)
        self._t1_law = step_kernel(
            params.law, params.mu, params.sigma, params.tau_a
        ).law(params.p0)

    # ------------------------------------------------------------------ #
    # stage kernels (broadcast over the P* axis)
    # ------------------------------------------------------------------ #

    def p3_thresholds(self, pstars: np.ndarray) -> np.ndarray:
        """Eq. (18) / Eq. (34) thresholds for the whole grid."""
        p = self.params
        a = p.alice
        if self.collateral > 0.0:
            stop_value = pstars * math.exp(-a.r * (p.eps_b + 2.0 * p.tau_a))
            deposit_value = self.collateral * math.exp(-a.r * (p.eps_b + p.tau_a))
            net = np.maximum(stop_value - deposit_value, 0.0)
            return math.exp((a.r - p.mu) * p.tau_b) * net / (1.0 + a.alpha)
        exponent = (a.r - p.mu) * p.tau_b - a.r * (p.eps_b + 2.0 * p.tau_a)
        return math.exp(exponent) * pstars / (1.0 + a.alpha)

    def _bob_t2_cont(self, pieces, bob_t3_cont):
        """Eq. (21)/(35) kernel from ``kernel_b.pieces(x, k3)``; per-point
        constants broadcast against the pieces."""
        p = self.params
        b = p.bob
        cdf, survival, partial_below = pieces
        upper = survival * bob_t3_cont
        lower = math.exp(2.0 * (p.mu - b.r) * p.tau_b) * partial_below
        out = (upper + lower) * math.exp(-b.r * p.tau_b)
        if self.collateral > 0.0:
            own_deposit = self.collateral * math.exp(-b.r * p.tau_a)
            alices_deposit = (
                self.collateral * math.exp(-b.r * (p.eps_b + p.tau_a)) * cdf
            )
            out = out + (own_deposit + alices_deposit) * math.exp(-b.r * p.tau_b)
        return out

    def _alice_t2_cont(self, x, pieces, alice_t3_stop):
        """Eq. (20)/(35) kernel from ``kernel_b.pieces(x, k3)``; per-point
        constants broadcast against ``x``."""
        p = self.params
        a = p.alice
        cdf, survival, partial_below = pieces
        mean = x * math.exp(p.mu * p.tau_b)
        partial_above = np.maximum(mean - partial_below, 0.0)
        upper = (1.0 + a.alpha) * math.exp((p.mu - a.r) * p.tau_b) * partial_above
        lower = cdf * alice_t3_stop
        out = (upper + lower) * math.exp(-a.r * p.tau_b)
        if self.collateral > 0.0:
            out = out + (
                self.collateral
                * math.exp(-a.r * (p.eps_b + p.tau_a))
                * survival
                * math.exp(-a.r * p.tau_b)
            )
        return out

    def _bob_advantage(self, x, k, bob_t3_cont):
        """Bob's ``t2`` advantage ``cont - stop`` at ``x``."""
        return self._bob_t2_cont(self._kernel_b.pieces(x, k), bob_t3_cont) - x

    def _certified_scan(self, grid, k3, bob_t3_cont):
        """Bob's ``t2`` advantage on the scan grid, or its proven sign.

        The advantage is evaluated exactly on every ``_SCAN_BLOCK``-th
        column and the last; these split each row into blocks. From the
        pieces ``(F, S, PB)`` of :meth:`_bob_t2_cont` it reads

            ``A(x) = disc (S B + g PB) + Q disc (e1 + e2 F) - x``

        with ``disc = e^{-r_b tau_b}``, ``g = e^{2 (mu - r_b) tau_b}``,
        ``B = bob_t3_cont``, ``e1 = e^{-r_b tau_a}`` and
        ``e2 = e^{-r_b (eps_b + tau_a)}``. Every registered kernel is
        multiplicative (``P' = x R``), so as ``x`` grows ``S`` rises,
        ``F`` falls and ``pi = PB / x`` falls. On a block ``[x_a, x_b]``,
        with ``kappa(x) = disc g pi(x) - 1``, that gives

            ``A <= disc S(x_b) B + max(x_a, x_b) kappa(x_a) + Q disc (e1 + e2 F(x_a))``
            ``A >= disc S(x_a) B + min(x_a, x_b) kappa(x_b) + Q disc (e1 + e2 F(x_b))``

        where ``max(x_a, x_b) kappa`` is the larger of ``x_a kappa`` and
        ``x_b kappa`` (and ``min`` the smaller). A block whose upper
        bound lies below ``-_PROOF_MARGIN x_b`` is negative throughout,
        one whose lower bound lies above ``_PROOF_MARGIN x_b`` positive;
        its interior columns then hold ``-1.0`` / ``1.0`` instead of a
        value. Every other block is evaluated in full. The margin dwarfs
        rounding, so a proven column's sign is the one the full
        evaluation gives, and the sign-change brackets equal the full
        scan's exactly; the refiner evaluates the bracket ends again.
        """
        p = self.params
        b = p.bob
        n_scan = grid.shape[1]
        if n_scan < 2:
            return self._bob_advantage(grid, k3[:, None], bob_t3_cont[:, None])
        ends = np.unique(np.append(np.arange(0, n_scan, _SCAN_BLOCK), n_scan - 1))
        x_end = grid[:, ends]
        pieces = self._kernel_b.pieces(x_end, k3[:, None])
        at_ends = self._bob_t2_cont(pieces, bob_t3_cont[:, None]) - x_end

        cdf, survival, partial_below = pieces
        disc = math.exp(-b.r * p.tau_b)
        kappa = (
            disc * math.exp(2.0 * (p.mu - b.r) * p.tau_b) * (partial_below / x_end)
            - 1.0
        )
        held = disc * survival * bob_t3_cont[:, None]
        deposits = (
            self.collateral
            * disc
            * (
                math.exp(-b.r * p.tau_a)
                + math.exp(-b.r * (p.eps_b + p.tau_a)) * cdf
            )
        )
        x_a, x_b = x_end[:, :-1], x_end[:, 1:]
        upper = (
            held[:, 1:]
            + np.maximum(x_a * kappa[:, :-1], x_b * kappa[:, :-1])
            + deposits[:, :-1]
        )
        lower = (
            held[:, :-1]
            + np.minimum(x_a * kappa[:, 1:], x_b * kappa[:, 1:])
            + deposits[:, 1:]
        )
        proven = np.where(
            upper < -_PROOF_MARGIN * x_b,
            -1.0,
            np.where(lower > _PROOF_MARGIN * x_b, 1.0, 0.0),
        )
        values = np.empty_like(grid)
        values[:, :-1] = np.repeat(proven, np.diff(ends), axis=1)
        values[:, ends] = at_ends

        rows, blocks = np.nonzero(proven == 0.0)
        # a block's interior columns; the last, shorter block repeats
        # its end column, which re-evaluates to the same value
        cols = np.minimum(
            ends[blocks][:, None] + np.arange(1, _SCAN_BLOCK),
            ends[blocks + 1][:, None],
        )
        rows = rows[:, None]
        x = grid[rows, cols]
        values[rows, cols] = self._bob_advantage(x, k3[rows], bob_t3_cont[rows])
        return values

    # ------------------------------------------------------------------ #
    # the full grid solve
    # ------------------------------------------------------------------ #

    def solve(self, pstars) -> EquilibriumGrid:
        """Backward-induct every ``P*`` in one batch of array kernels."""
        started = time.perf_counter()
        pstars = np.atleast_1d(np.asarray(pstars, dtype=float))
        if pstars.ndim != 1:
            raise ValueError(f"pstars must be 1-D, got shape {pstars.shape}")
        if pstars.size == 0:
            raise ValueError("pstars must contain at least one exchange rate")
        if not np.all(np.isfinite(pstars) & (pstars > 0.0)):
            raise ValueError("every pstar must be finite and positive")
        p = self.params
        a = p.alice
        b = p.bob
        q = self.collateral
        n = pstars.size

        k3 = self.p3_thresholds(pstars)
        bob_t3_cont = (1.0 + b.alpha) * pstars * math.exp(-b.r * (p.eps_b + p.tau_a))
        alice_t3_stop = pstars * math.exp(-a.r * (p.eps_b + 2.0 * p.tau_a))

        # --- t2: locate Bob's continuation region on every row at once.
        # Same scan window and bracket rule as the scalar bob_t2_region.
        scale = np.maximum(np.maximum(pstars, p.p0), k3)
        lo_vec = 1e-6 * np.minimum(pstars, p.p0)
        hi_vec = 1e4 * scale
        grid = np.exp(
            np.linspace(np.log(lo_vec), np.log(hi_vec), self.scan_points, axis=1)
        )
        signs = self._certified_scan(grid, k3, bob_t3_cont)
        rows, bracket_lo, bracket_hi = grid_sign_change_brackets(grid, signs)

        def advantage_flat(x: np.ndarray) -> np.ndarray:
            return self._bob_advantage(x, k3[rows], bob_t3_cont[rows])

        roots = bisect_roots(advantage_flat, bracket_lo, bracket_hi)

        # candidate intervals between consecutive roots, per row; the
        # geometric-midpoint sign checks are batched into one flat call
        roots_by_row: Dict[int, List[float]] = {}
        for row, root in zip(rows.tolist(), roots.tolist()):
            roots_by_row.setdefault(row, []).append(root)
        cand_rows: List[int] = []
        cand_lo: List[float] = []
        cand_hi: List[float] = []
        for i in range(n):
            edges = [float(lo_vec[i])] + roots_by_row.get(i, []) + [float(hi_vec[i])]
            for edge_lo, edge_hi in zip(edges[:-1], edges[1:]):
                if edge_hi <= edge_lo:
                    continue
                cand_rows.append(i)
                cand_lo.append(edge_lo)
                cand_hi.append(edge_hi)
        cand_rows_arr = np.asarray(cand_rows, dtype=np.intp)
        cand_lo_arr = np.asarray(cand_lo, dtype=float)
        cand_hi_arr = np.asarray(cand_hi, dtype=float)
        mids = np.sqrt(cand_lo_arr * cand_hi_arr)
        mid_advantage = self._bob_advantage(
            mids, k3[cand_rows_arr], bob_t3_cont[cand_rows_arr]
        )
        keep = mid_advantage > 0.0
        iv_rows = cand_rows_arr[keep]
        iv_lo = cand_lo_arr[keep]
        iv_hi = cand_hi_arr[keep]
        regions: List[List[Tuple[float, float]]] = [[] for _ in range(n)]
        for row, interval_lo, interval_hi in zip(
            iv_rows.tolist(), iv_lo.tolist(), iv_hi.tolist()
        ):
            regions[row].append((interval_lo, interval_hi))
        t2_regions = tuple(IntervalUnion.from_intervals(r) for r in regions)

        # --- t1: one batched quadrature over the flattened intervals, all
        # under the one shared law, of a stacked integrand: both agents'
        # t2 continuation values (one pieces call) and the SR survival
        # term; the three rows are scattered back per grid point. The
        # survival row keeps the scalar solvers' log-space kernel: the
        # lognormal pieces' survival differs from it by an ulp.
        law = self._t1_law
        kernel_b = self._kernel_b
        k_iv = k3[iv_rows][:, None]
        log_k_iv = np.log(np.where(k3 > 0.0, k3, 1.0))[iv_rows][:, None]
        alice_t3_stop_iv = alice_t3_stop[iv_rows][:, None]
        bob_t3_cont_iv = bob_t3_cont[iv_rows][:, None]

        def t2_values(x: np.ndarray) -> np.ndarray:
            pieces = kernel_b.pieces(x, k_iv)
            return np.stack(
                [
                    self._alice_t2_cont(x, pieces, alice_t3_stop_iv),
                    self._bob_t2_cont(pieces, bob_t3_cont_iv),
                    kernel_b.survival_from_logs(np.log(x), log_k_iv),
                ]
            )

        inside_alice, inside_bob, sr_quad = (
            np.bincount(iv_rows, weights=weights, minlength=n)
            for weights in expectation_on_intervals(
                law, t2_values, iv_lo, iv_hi, self.quad_order
            )
        )
        prob_inside = np.bincount(
            iv_rows,
            weights=np.maximum(law.cdf(iv_hi) - law.cdf(iv_lo), 0.0),
            minlength=n,
        )
        price_mass = np.bincount(
            iv_rows,
            weights=np.maximum(
                law.partial_expectation_above(iv_lo)
                - law.partial_expectation_above(iv_hi),
                0.0,
            ),
            minlength=n,
        )

        alice_t2_stop = pstars * math.exp(
            -a.r * (p.tau_b + p.eps_b + 2.0 * p.tau_a)
        )
        if q > 0.0:
            alice_t2_stop = alice_t2_stop + 2.0 * q * math.exp(
                -a.r * (p.tau_b + p.tau_a)
            )
        alice_t1_cont = (
            inside_alice + (1.0 - prob_inside) * alice_t2_stop
        ) * math.exp(-a.r * p.tau_a)
        bob_t1_cont = (inside_bob + (law.mean() - price_mass)) * math.exp(
            -b.r * p.tau_a
        )
        alice_t1_stop = pstars + q
        bob_t1_stop = np.full(n, p.p0 + q)

        # --- success rate (Eq. (31)/(40)) from the stacked pass's survival row
        empty = np.bincount(iv_rows, minlength=n) == 0
        success = np.where(empty, 0.0, np.where(k3 > 0.0, sr_quad, prob_inside))

        result = EquilibriumGrid(
            params=p,
            collateral=q,
            pstars=pstars,
            p3_threshold=k3,
            t2_regions=t2_regions,
            alice_t1_cont=alice_t1_cont,
            alice_t1_stop=alice_t1_stop,
            bob_t1_cont=bob_t1_cont,
            bob_t1_stop=bob_t1_stop,
            success_rate=success,
        )
        self._observe(n, time.perf_counter() - started)
        observe_law(p.law.kind, "grid")
        return result

    @staticmethod
    def _observe(n_points: int, seconds: float) -> None:
        registry = get_registry()
        registry.counter(
            "repro_grid_solves_total",
            help="Grid solves executed by the vectorised engine.",
        ).inc()
        registry.histogram(
            "repro_grid_points",
            help="P* points per grid solve.",
            buckets=_POINTS_BUCKETS,
        ).observe(float(n_points))
        registry.histogram(
            "repro_grid_seconds",
            help="Wall-clock duration of one grid solve.",
        ).observe(seconds)


def solve_grid(
    params: SwapParameters,
    pstars,
    collateral: float = 0.0,
    quad_order: int = DEFAULT_QUAD_ORDER,
    scan_points: int = 512,
) -> EquilibriumGrid:
    """Solve the swap game on a whole ``P*`` grid in one engine pass."""
    return GridSolver(
        params,
        collateral=collateral,
        quad_order=quad_order,
        scan_points=scan_points,
    ).solve(pstars)


def feasible_regions_grid(
    params: SwapParameters,
    lo: float,
    hi: float,
    n_scan: int = 96,
    collateral: float = 0.0,
) -> Tuple[IntervalUnion, IntervalUnion]:
    """Both agents' feasible ``P*`` regions from one engine scan.

    One :meth:`GridSolver.solve` over a log grid yields *both* agents'
    ``t1`` advantages; the boundary roots of the two sign patterns are
    then refined together -- one batched refinement whose objective is a
    single engine solve over all candidate boundary points, with an
    agent mask selecting which advantage each bracket tracks.
    """
    if not (lo > 0.0 and hi > lo):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    solver = GridSolver(params, collateral=collateral)
    ks = np.exp(np.linspace(math.log(lo), math.log(hi), n_scan))
    coarse = solver.solve(ks)
    advantages = np.stack(
        [
            coarse.alice_t1_cont - coarse.alice_t1_stop,
            coarse.bob_t1_cont - coarse.bob_t1_stop,
        ]
    )
    agents, bracket_lo, bracket_hi = grid_sign_change_brackets(
        np.broadcast_to(ks, advantages.shape), advantages
    )

    def advantage_at(points: np.ndarray) -> np.ndarray:
        g = solver.solve(points)
        alice = g.alice_t1_cont - g.alice_t1_stop
        bob = g.bob_t1_cont - g.bob_t1_stop
        return np.where(agents == 0, alice, bob)

    roots = bisect_roots(advantage_at, bracket_lo, bracket_hi)

    out: List[IntervalUnion] = []
    for agent in (0, 1):
        edges = [lo] + sorted(roots[agents == agent].tolist()) + [hi]
        mids = np.sqrt(
            np.asarray(edges[:-1], dtype=float) * np.asarray(edges[1:], dtype=float)
        )
        g = solver.solve(mids)
        mid_adv = (
            g.alice_t1_cont - g.alice_t1_stop
            if agent == 0
            else g.bob_t1_cont - g.bob_t1_stop
        )
        keep = [
            (edge_lo, edge_hi)
            for edge_lo, edge_hi, adv in zip(edges[:-1], edges[1:], mid_adv)
            if edge_hi > edge_lo and adv > 0.0
        ]
        out.append(IntervalUnion.from_intervals(keep))
    return out[0], out[1]
