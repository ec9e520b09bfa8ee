"""Facade: solve a swap game in one call.

:func:`solve_swap_game` runs the full backward induction for a
parameter set and exchange rate and returns a
:class:`~repro.core.equilibrium.SwapEquilibrium`. This is the main
entry point of the library's analytical side; the examples and the
benchmark harness go through it.
"""

from __future__ import annotations

import time

from repro.core.backward_induction import BackwardInduction
from repro.core.equilibrium import SwapEquilibrium
from repro.core.parameters import SwapParameters
from repro.obs.metrics import get_registry

__all__ = ["solve_swap_game"]


def observe_solver(solver: str, seconds: float) -> None:
    """Record one full solver call into the active metrics registry.

    Shared by the swap, collateral, and premium solvers so all three
    land in the same ``repro_solver_*`` families, split by label.
    """
    registry = get_registry()
    registry.counter(
        "repro_solver_calls_total",
        help="Full game solves, by solver kind.",
        labelnames=("solver",),
    ).inc(solver=solver)
    registry.histogram(
        "repro_solver_seconds",
        help="Wall-clock duration of one full game solve.",
        labelnames=("solver",),
    ).observe(seconds, solver=solver)


def solve_swap_game(params: SwapParameters, pstar: float) -> SwapEquilibrium:
    """Solve the basic HTLC swap game (paper Section III).

    Parameters
    ----------
    params:
        Model parameters (defaults: ``SwapParameters.default()``,
        the paper's Table III).
    pstar:
        Agreed exchange rate ``P*``.

    Returns
    -------
    SwapEquilibrium
        Thresholds, regions, ``t1`` utilities and success rate, with
        the decisions and executable strategies they imply.
    """
    started = time.perf_counter()
    equilibrium = SwapEquilibrium.from_solver(BackwardInduction(params, pstar))
    observe_solver("swap", time.perf_counter() - started)
    return equilibrium
