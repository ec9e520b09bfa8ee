"""Root finding and continuation regions.

The backward induction characterises each agent's continuation region as
the set of prices where ``U(cont) - U(stop) > 0``. In the basic model
that set is a single interval (0 or 2 roots); in the collateral model
Section IV shows the indifference equation has an *odd* number of roots
(1 or 3), so the region is a union of intervals.

This module provides

* :func:`bracketed_root` -- Brent's method on one verified bracket (the
  scalar solvers' refiner);
* :func:`grid_sign_change_brackets` -- the sign-change brackets of a
  whole batch of pre-evaluated log-grid scans in one pass;
* :func:`regions_between_roots` -- each row's window cut at its roots
  into the pieces where an advantage is positive (every solver's
  root-to-region rule);
* :func:`bisect_roots` -- Chandrupatla's bracketed superlinear step on
  a batch of brackets at once (the grid engine's refiner);
* :class:`IntervalUnion` -- a normalised union of disjoint open
  intervals with membership, measure-under-a-law, and set algebra. The
  continuation regions :math:`\\mathfrak{P}_{t_2}` of the paper are
  represented with this class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "bracketed_root",
    "grid_sign_change_brackets",
    "regions_between_roots",
    "bisect_roots",
    "IntervalUnion",
]


def _count_effort(calls: int, iterations: int, evaluations: int) -> None:
    """Add one refinement's effort to the ``repro_rootfind_*`` counters.

    Both refiners report here, so the help strings name no method:
    ``calls`` counts brackets, ``iterations`` each bracket's own steps,
    ``evaluations`` the points the objective was evaluated at.
    """
    from repro.obs.metrics import get_registry

    registry = get_registry()
    registry.counter(
        "repro_rootfind_calls_total", help="Brackets refined to a root."
    ).inc(calls)
    registry.counter(
        "repro_rootfind_iterations_total",
        help="Refinement steps, summed over brackets.",
    ).inc(iterations)
    registry.counter(
        "repro_rootfind_function_calls_total",
        help="Points at which a root finder evaluated its objective.",
    ).inc(evaluations)


def bracketed_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-12,
    rtol: float = 1e-12,
) -> float:
    """Brent's method on a bracket known to contain a root.

    Convergence effort is recorded in the active metrics registry:
    ``repro_rootfind_calls_total``, ``repro_rootfind_iterations_total``
    and ``repro_rootfind_function_calls_total`` (Brent's own counts),
    so a sweep's root-finding cost is directly observable.
    """
    root, info = brentq(f, lo, hi, xtol=xtol, rtol=rtol, full_output=True)
    # scipy can report an uninitialised (negative) iteration count when
    # Brent converges on the first probe; clamp before counting
    _count_effort(
        1, max(int(info.iterations), 0), max(int(info.function_calls), 0)
    )
    return float(root)


def grid_sign_change_brackets(
    grid: np.ndarray,
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign-change brackets of a whole batch of scans in one pass.

    ``grid`` and ``values`` are ``(batch, n_scan)`` arrays: row ``i``
    holds one pre-evaluated scan. Column pair ``(c, c + 1)`` is a
    bracket when ``values[c] != 0`` and either ``values[c + 1] == 0``
    or the two values have opposite signs, so a grid-point zero is
    attributed to the bracket on its left. Only the signs of ``values``
    matter. Returns the flat triple ``(rows, lo, hi)`` where ``rows[j]``
    is the batch row that bracket ``j`` belongs to; within a row,
    brackets come out in ascending order.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.shape != values.shape or grid.ndim != 2:
        raise ValueError(
            f"grid/values must be equal-shape 2-D arrays, got "
            f"{grid.shape} and {values.shape}"
        )
    va = values[:, :-1]
    vb = values[:, 1:]
    mask = (va != 0.0) & ((vb == 0.0) | (va * vb < 0.0))
    rows, cols = np.nonzero(mask)
    return rows, grid[rows, cols], grid[rows, cols + 1]


def regions_between_roots(
    lo,
    hi,
    rows,
    roots,
    advantage: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a batch of advantages is positive, from their roots.

    Row ``i``'s window ``(lo[i], hi[i])`` is cut at the ``roots`` whose
    ``rows`` entry is ``i``; each piece of positive width is kept when
    the advantage is positive at its geometric midpoint.
    ``advantage(piece_rows, midpoints)`` is called once, on the pieces
    of every row, and returns one value per piece. Returns the kept
    pieces as the flat triple ``(rows, lo, hi)``, ascending within
    each row.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    rows = np.asarray(rows, dtype=np.intp)
    roots = np.asarray(roots, dtype=float)
    n = lo.size
    edge_rows = np.concatenate([np.arange(n), rows, np.arange(n)])
    edges = np.concatenate([lo, roots, hi])
    # per row: the window's low end, the roots in ascending order, its high end
    rank = np.concatenate([np.zeros(n), np.ones(roots.size), np.full(n, 2.0)])
    order = np.lexsort((edges, rank, edge_rows))
    edge_rows, edges = edge_rows[order], edges[order]
    piece = (edge_rows[:-1] == edge_rows[1:]) & (edges[1:] > edges[:-1])
    piece_rows = edge_rows[:-1][piece]
    piece_lo, piece_hi = edges[:-1][piece], edges[1:][piece]
    keep = np.asarray(advantage(piece_rows, np.sqrt(piece_lo * piece_hi))) > 0.0
    return piece_rows[keep], piece_lo[keep], piece_hi[keep]


def bisect_roots(
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    rtol: float = 1e-13,
    max_iter: int = 200,
) -> np.ndarray:
    """Refine a batch of verified brackets to their roots at once.

    ``f`` maps an array of points, one per bracket and in bracket
    order, to an array of values; each ``(lo[j], hi[j])`` must bracket
    a root in the :func:`grid_sign_change_brackets` sense (a sign
    change, or an exact zero at an end). Every bracket takes its own
    Chandrupatla (1997) steps: inverse quadratic interpolation through
    the last three points where it is safe, bisection otherwise, with
    each new point kept a share ``tol / |b - c|`` of the bracket away
    from its ends. A bracket stops on Chandrupatla's rule --
    ``tol / |b - c| > 1/2``, i.e. the bracket before the last step was
    narrower than ``2 tol = rtol |x|`` -- or on an exact zero, which is
    returned exactly. The returned point is the bracket end with the
    smaller ``|f|``, so it always lies inside ``[lo[j], hi[j]]``.

    ``f`` sees the whole batch every step (a finished bracket re-asks
    its answer), so objectives may index per-bracket data positionally.
    Effort lands in the same ``repro_rootfind_*`` counter families as
    :func:`bracketed_root`, with each bracket's own step count.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError(
            f"lo/hi must be equal-length 1-D arrays, got {lo.shape} and {hi.shape}"
        )
    if lo.size == 0:
        return lo.copy()
    # Chandrupatla's names: ``a`` is the newest point, ``b`` the bracket
    # end of the opposite sign, ``c`` the point the last step dropped
    b, fb = lo.copy(), np.asarray(f(lo), dtype=float)
    a, fa = hi.copy(), np.asarray(f(hi), dtype=float)
    c, fc = a.copy(), fa.copy()
    evaluations = 2 * lo.size
    steps = np.zeros(lo.size, dtype=np.int64)
    t = np.full(lo.size, 0.5)
    smaller = np.abs(fa) < np.abs(fb)
    best, f_best = np.where(smaller, a, b), np.where(smaller, fa, fb)
    active = f_best != 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            if not active.any():
                break
            x = np.where(active, a + t * (b - a), best)
            fx = np.asarray(f(x), dtype=float)
            evaluations += x.size
            steps += active
            same = np.sign(fx) == np.sign(fa)
            keep = same | ~active
            c, fc = (
                np.where(active, np.where(same, a, b), c),
                np.where(active, np.where(same, fa, fb), fc),
            )
            b, fb = np.where(keep, b, a), np.where(keep, fb, fa)
            a, fa = np.where(active, x, a), np.where(active, fx, fa)
            smaller = np.abs(fa) < np.abs(fb)
            best, f_best = np.where(smaller, a, b), np.where(smaller, fa, fb)
            t_lim = 0.5 * rtol * np.abs(best) / np.abs(b - c)
            active &= (f_best != 0.0) & ~(t_lim > 0.5)
            # inverse quadratic interpolation only where Chandrupatla's
            # test says the three points admit a monotone fit
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t_iqi = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (
                fc - fa
            ) * fb / (fc - fb)
            t = np.clip(np.where(iqi, t_iqi, 0.5), t_lim, 1.0 - t_lim)
    _count_effort(lo.size, int(steps.sum()), evaluations)
    return best


@dataclass(frozen=True)
class IntervalUnion:
    """A finite union of disjoint intervals of positive prices.

    Intervals are stored half-open ``(lo, hi]``-style for membership
    checks, but the distinction carries no probability mass under a
    continuous law; what matters is the set algebra and measure.
    """

    intervals: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev_hi = -math.inf
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ValueError(f"degenerate interval ({lo}, {hi})")
            if lo < prev_hi:
                raise ValueError("intervals must be disjoint and sorted")
            prev_hi = hi

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def empty() -> "IntervalUnion":
        """The empty region."""
        return IntervalUnion(())

    @staticmethod
    def single(lo: float, hi: float) -> "IntervalUnion":
        """A single interval ``(lo, hi)``."""
        return IntervalUnion(((lo, hi),))

    @staticmethod
    def from_intervals(pairs: Sequence[Tuple[float, float]]) -> "IntervalUnion":
        """Normalise arbitrary (possibly overlapping/unsorted) pairs."""
        cleaned = sorted((lo, hi) for lo, hi in pairs if lo < hi)
        merged: List[Tuple[float, float]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return IntervalUnion(tuple(merged))

    @staticmethod
    def by_row(n: int, rows, lo, hi) -> Tuple["IntervalUnion", ...]:
        """One union per row ``0..n-1`` of the flat triple ``(rows, lo, hi)``."""
        pairs: List[List[Tuple[float, float]]] = [[] for _ in range(n)]
        for row, a, b in zip(rows.tolist(), lo.tolist(), hi.tolist()):
            pairs[row].append((a, b))
        return tuple(IntervalUnion.from_intervals(p) for p in pairs)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def is_empty(self) -> bool:
        """Whether the region contains no interval."""
        return not self.intervals

    def __contains__(self, x: float) -> bool:
        return any(lo < x <= hi for lo, hi in self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def total_length(self) -> float:
        """Lebesgue measure of the region."""
        return sum(hi - lo for lo, hi in self.intervals)

    def bounds(self) -> Tuple[float, float]:
        """Smallest interval containing the region."""
        if self.is_empty:
            raise ValueError("empty region has no bounds")
        return self.intervals[0][0], self.intervals[-1][1]

    def probability(self, law) -> float:
        """Mass the lognormal ``law`` assigns to the region."""
        return sum(law.probability_between(lo, hi) for lo, hi in self.intervals)

    # ------------------------------------------------------------------ #
    # set algebra
    # ------------------------------------------------------------------ #

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set intersection."""
        out: List[Tuple[float, float]] = []
        for a_lo, a_hi in self.intervals:
            for b_lo, b_hi in other.intervals:
                lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalUnion.from_intervals(out)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set union."""
        return IntervalUnion.from_intervals(
            list(self.intervals) + list(other.intervals)
        )

    def complement_within(self, lo: float, hi: float) -> "IntervalUnion":
        """Complement of the region inside the window ``(lo, hi)``."""
        if not lo < hi:
            raise ValueError(f"need lo < hi, got {lo}, {hi}")
        gaps: List[Tuple[float, float]] = []
        cursor = lo
        for a, b in self.intervals:
            if b <= lo or a >= hi:
                continue
            if a > cursor:
                gaps.append((cursor, min(a, hi)))
            cursor = max(cursor, b)
        if cursor < hi:
            gaps.append((cursor, hi))
        return IntervalUnion.from_intervals(gaps)
