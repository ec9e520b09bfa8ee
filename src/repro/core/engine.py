"""Vectorised grid-solve engine: whole ``P*`` grids as array kernels.

Every curve the paper draws -- ``SR(P*)`` (Eq. (31), Figure 6), the
feasibility windows (Eqs. (25)-(30), Figure 5), the collateral panels
of Section IV -- is a *grid* evaluation, yet the scalar solvers
(:class:`~repro.core.backward_induction.BackwardInduction` and its
collateral subclass) rebuild the whole threshold structure one exchange
rate at a time. :class:`GridSolver` evaluates the entire grid at once:

* one shared ``t1`` law (``params.law`` stepped over ``tau_a`` from
  ``p0``) and one Gauss--Legendre node set serve every point;
* the stage payoffs are the Section IV
  :func:`~repro.core.backward_induction.collateral_schedule` built over
  the ``P*`` axis, and the ``t3`` thresholds, ``t2`` continuation values
  and ``t1`` values are that schedule's own methods -- the ones the
  scalar solvers call at one ``P*``;
* the ``t2`` scan grids, Bob's advantage function, the endpoint roots,
  and the ``t1`` quadratures are computed as broadcast NumPy operations
  over the ``P*`` axis;
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
``np.bincount(rows, weights=..., minlength=n)`` scatter-adds. Because
both solvers read one schedule, the scalar solvers differ from the
engine only in how they locate and integrate Bob's region: Brent vs
the Chandrupatla refiner (~1e-12 at the region roots) and per-interval
vs batched quadrature (~1 ulp). ``tests/core/test_grid_parity.py``
holds the two to ``|delta| <= 1e-9``.

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

from repro.core.backward_induction import PayoffSchedule, collateral_schedule
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
        Deposit ``Q`` of the Section IV game; at ``0`` its schedule is
        the basic game's, field for field.
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
    # Bob's t2 advantage (broadcast over the P* axis)
    # ------------------------------------------------------------------ #

    def _bob_advantage(self, x, k, schedule: PayoffSchedule):
        """Bob's ``t2`` advantage ``cont - stop`` at ``x``, with the
        threshold ``k`` and ``schedule``'s fields broadcast against ``x``."""
        pieces = self._kernel_b.pieces(x, k)
        return schedule.bob_t2_cont(self.params, x, pieces) - schedule.bob_keep * x

    def _certified_scan(self, grid, k3, schedule: PayoffSchedule):
        """Bob's ``t2`` advantage on the scan grid, or its proven sign.

        The advantage is evaluated exactly on every ``_SCAN_BLOCK``-th
        column and the last; these split each row into blocks. With the
        pieces ``(F, S, PB)`` of :meth:`PayoffSchedule.bob_t2_cont` it
        reads

            ``A(x) = disc S redeem + x kappa(x) + disc (deposit + F forfeit)``

        with ``disc = e^{-r_b tau_b}``,
        ``kappa(x) = disc refund PB / x - (keep + lock_fee)`` and the
        schedule's ``bob_*`` fields. Every registered kernel is
        multiplicative (``P' = x R``), so as ``x`` grows ``S`` rises,
        ``F`` falls and ``PB / x`` falls. Every recipe has
        ``bob_redeem``, ``bob_refund`` and ``bob_forfeit`` ``>= 0``, so
        on a block ``[x_a, x_b]``

            ``A <= disc S(x_b) redeem + max(x_a, x_b) kappa(x_a) + disc (deposit + F(x_a) forfeit)``
            ``A >= disc S(x_a) redeem + min(x_a, x_b) kappa(x_b) + disc (deposit + F(x_b) forfeit)``

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
        n_scan = grid.shape[1]
        column = schedule.at(np.s_[:, None])
        if n_scan < 2:
            return self._bob_advantage(grid, k3[:, None], column)
        ends = np.unique(np.append(np.arange(0, n_scan, _SCAN_BLOCK), n_scan - 1))
        x_end = grid[:, ends]
        pieces = self._kernel_b.pieces(x_end, k3[:, None])
        at_ends = column.bob_t2_cont(self.params, x_end, pieces) - column.bob_keep * x_end

        cdf, survival, partial_below = pieces
        disc = math.exp(-self.params.bob.r * self.params.tau_b)
        kappa = disc * column.bob_refund * (partial_below / x_end) - (
            column.bob_keep + column.bob_lock_fee
        )
        held = disc * survival * column.bob_redeem
        deposits = disc * (column.bob_deposit + column.bob_forfeit * cdf)
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
        values[rows, cols] = self._bob_advantage(x, k3[rows], schedule.at(rows))
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
        n = pstars.size

        schedule = collateral_schedule(p, pstars, self.collateral)
        k3 = schedule.p3_threshold()

        # --- t2: locate Bob's continuation region on every row at once.
        # Same scan window and bracket rule as the scalar bob_t2_region.
        scale = np.maximum(np.maximum(pstars, p.p0), k3)
        lo_vec = 1e-6 * np.minimum(pstars, p.p0)
        hi_vec = 1e4 * scale
        grid = np.exp(
            np.linspace(np.log(lo_vec), np.log(hi_vec), self.scan_points, axis=1)
        )
        signs = self._certified_scan(grid, k3, schedule)
        rows, bracket_lo, bracket_hi = grid_sign_change_brackets(grid, signs)
        bracket_schedule = schedule.at(rows)

        def advantage_flat(x: np.ndarray) -> np.ndarray:
            return self._bob_advantage(x, k3[rows], bracket_schedule)

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
            mids, k3[cand_rows_arr], schedule.at(cand_rows_arr)
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
        iv_schedule = schedule.at(iv_rows[:, None])

        def t2_values(x: np.ndarray) -> np.ndarray:
            pieces = kernel_b.pieces(x, k_iv)
            return np.stack(
                [
                    iv_schedule.alice_t2_cont(p, x, pieces),
                    iv_schedule.bob_t2_cont(p, x, pieces),
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

        # --- success rate (Eq. (31)/(40)) from the stacked pass's survival row
        empty = np.bincount(iv_rows, minlength=n) == 0
        success = np.where(empty, 0.0, np.where(k3 > 0.0, sr_quad, prob_inside))

        result = EquilibriumGrid(
            params=p,
            collateral=self.collateral,
            pstars=pstars,
            p3_threshold=k3,
            t2_regions=t2_regions,
            alice_t1_cont=schedule.alice_t1_cont(p, inside_alice, prob_inside),
            alice_t1_stop=schedule.alice_stay,
            bob_t1_cont=schedule.bob_t1_cont(p, inside_bob, price_mass, law.mean()),
            bob_t1_stop=np.full(n, schedule.bob_stay),
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
