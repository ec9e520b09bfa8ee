"""Expectation integrals for the backward induction.

The paper's stage utilities (Equations (20), (21), (25), (26), (31),
(35)--(37), (40)) all take the form

    integral over a price interval of  pdf(x) * g(x) dx

with ``pdf`` a price-law density and ``g`` a bounded, smooth stage
payoff. We evaluate these with fixed-order Gauss--Legendre quadrature in
*log-price* space, which removes the lognormal's sharp peak near zero
and makes 64--128 nodes accurate to ~1e-12 for the payoffs at hand.

Semi-infinite integrals are truncated at quantiles carrying negligible
mass (see :meth:`LognormalLaw.effective_support`).

:func:`expectation_on_intervals` integrates many intervals under one
law in one pass, and several integrands at once when ``g`` returns them
stacked along a leading axis: the grid engine integrates both agents'
``t2`` continuation values and the success-rate survival term together.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.stochastic.mathkit import DEFAULT_QUAD_ORDER, gauss_legendre_nodes

__all__ = [
    "gauss_legendre_nodes",
    "expectation_on_interval",
    "expectation_on_intervals",
    "expectation_above",
    "expectation_below",
    "DEFAULT_QUAD_ORDER",
]

_TAIL_MASS = 1e-13


def _transformed_integral(
    law,
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    order: int,
) -> float:
    """Integrate ``pdf(x) g(x)`` over ``(lo, hi)`` in log space.

    With ``y = ln x`` the integrand becomes ``phi(y) g(e^y)`` where
    ``phi`` is a normal density -- smooth and well-behaved on the
    truncated support.
    """
    if hi <= lo:
        return 0.0
    a, b = np.log(lo), np.log(hi)
    nodes, weights = gauss_legendre_nodes(order)
    y = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    x = np.exp(y)
    phi = law.logspace_density(y)
    values = phi * np.asarray(g(x), dtype=float)
    return float(0.5 * (b - a) * np.dot(weights, values))


def expectation_on_interval(
    law,
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """:math:`E[g(P) 1\\{lo < P \\le hi\\}]` under ``law``.

    ``g`` must accept a numpy array of prices and return an array of the
    same shape. The interval is clipped to the law's effective support;
    mass outside is negligible by construction.
    """
    if lo < 0.0:
        lo = 0.0
    if hi <= lo:
        return 0.0
    support_lo, support_hi = law.effective_support(_TAIL_MASS)
    lo_eff = max(lo, support_lo)
    hi_eff = min(hi, support_hi)
    if hi_eff <= lo_eff:
        return 0.0
    return _transformed_integral(law, g, lo_eff, hi_eff, order)


def expectation_on_intervals(
    law,
    g: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    order: int = DEFAULT_QUAD_ORDER,
) -> np.ndarray:
    """Batched :func:`expectation_on_interval`: one rule, many intervals.

    ``lo`` and ``hi`` are equal-length arrays of interval endpoints, all
    integrated under the *same* ``law`` with one shared Gauss--Legendre
    node set. ``g`` receives the full ``(batch, order)`` node array (so
    it can broadcast per-row constants against it) and must evaluate
    elementwise. Returns a ``(batch,)`` array; rows whose clipped
    interval is empty contribute exactly ``0.0``, matching the scalar
    function's early return.

    ``g`` may also return a *stacked* ``(k, batch, order)`` array -- ``k``
    integrands over the same intervals, e.g. built from one shared
    transition-kernel call on the nodes -- and the result is then
    ``(k, batch)``, each row bit-identical to integrating that integrand
    alone. An empty batch still calls ``g`` (on a ``(0, order)`` array),
    so the result keeps the integrand's leading shape.
    """
    lo = np.maximum(np.asarray(lo, dtype=float), 0.0)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError(
            f"lo/hi must be equal-length 1-D arrays, got {lo.shape} and {hi.shape}"
        )
    support_lo, support_hi = law.effective_support(_TAIL_MASS)
    lo_eff = np.maximum(lo, support_lo)
    hi_eff = np.minimum(hi, support_hi)
    active = hi_eff > lo_eff
    # inactive rows get the full support as a well-defined placeholder
    # domain for the log transform; their result is zeroed at the end
    lo_eff = np.where(active, lo_eff, support_lo)
    hi_eff = np.where(active, hi_eff, support_hi)
    a = np.log(lo_eff)[:, None]
    b = np.log(hi_eff)[:, None]
    nodes, weights = gauss_legendre_nodes(order)
    y = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    x = np.exp(y)
    phi = law.logspace_density(y)
    values = phi * np.asarray(g(x), dtype=float)
    # an elementwise product and a row sum: unlike ``values @ weights``,
    # whose BLAS accumulation order depends on the batch size, each row
    # sums the same way however many rows share the call
    out = 0.5 * (b[:, 0] - a[:, 0]) * (values * weights).sum(axis=-1)
    return np.where(active, out, 0.0)


def expectation_above(
    law,
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """:math:`E[g(P) 1\\{P > lo\\}]` under ``law`` (upper tail truncated)."""
    _, support_hi = law.effective_support(_TAIL_MASS)
    return expectation_on_interval(law, g, lo, support_hi, order)


def expectation_below(
    law,
    g: Callable[[np.ndarray], np.ndarray],
    hi: float,
    order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """:math:`E[g(P) 1\\{P \\le hi\\}]` under ``law`` (lower tail truncated)."""
    support_lo, _ = law.effective_support(_TAIL_MASS)
    return expectation_on_interval(law, g, support_lo, hi, order)
