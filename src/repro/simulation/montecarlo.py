"""Batch Monte Carlo and analytic-vs-empirical validation.

Two fidelity levels:

* **strategy level** (default): sample decision-price triples and apply
  the equilibrium threshold strategies vectorised -- millions of
  episodes per second; validates the probability calculus behind
  Eq. (31)/(40);
* **protocol level** (``protocol_level=True``): run every episode
  through the full chain substrate (HTLCs, mempool, refunds); validates
  that the *executable system* realises the same outcome the strategy
  algebra predicts (asserted in integration tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.agents.rational import pair_from_solver
from repro.core.backward_induction import BackwardInduction
from repro.core.collateral import CollateralBackwardInduction
from repro.core.parameters import SwapParameters
from repro.simulation.engine import EpisodeConfig, run_episode
from repro.simulation.results import BatchSummary, wilson_interval
from repro.stochastic.law import observe_law
from repro.stochastic.paths import sample_decision_prices_for_law
from repro.stochastic.rng import RandomState

__all__ = ["MonteCarloResult", "empirical_success_rate", "validate_against_analytic"]


def _decision_prices(
    params: SwapParameters,
    rng: RandomState,
    n_paths: int,
    antithetic: bool,
) -> np.ndarray:
    """Sample ``(P_t1, P_t2, P_t3)`` under the parameter set's price law."""
    return sample_decision_prices_for_law(
        params.law, params.mu, params.sigma, params.p0, params.grid,
        rng, n_paths, antithetic=antithetic,
    )


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical success statistics for one ``(params, pstar, Q)`` point."""

    pstar: float
    collateral: float
    n_paths: int
    n_initiated: int
    n_completed: int
    success_rate: float
    ci_low: float
    ci_high: float

    def contains(self, analytic_rate: float) -> bool:
        """Whether the analytic rate falls inside the 95% CI."""
        return self.ci_low <= analytic_rate <= self.ci_high


def _solver(params: SwapParameters, pstar: float, collateral: float) -> BackwardInduction:
    """The one solver a run's strategies come from."""
    if collateral > 0.0:
        return CollateralBackwardInduction(params, pstar, collateral)
    return BackwardInduction(params, pstar)


def _strategy_level_counts(
    solver: BackwardInduction,
    n_paths: int,
    rng: RandomState,
    antithetic: bool,
) -> Tuple[int, int, int]:
    """Vectorised (initiated, completed, total) under threshold strategies."""
    if not solver.alice_initiates():
        return 0, 0, n_paths

    prices = _decision_prices(solver.params, rng, n_paths, antithetic)
    p2 = prices[:, 1]
    p3 = prices[:, 2]
    region = solver.bob_t2_region()
    bob_locks = np.zeros(n_paths, dtype=bool)
    # strict interior: agents exactly on an indifference boundary stop
    # (see repro.core.equilibrium.INDIFFERENT_ACTION); the boundary has
    # probability zero but the counts must match the executable
    # strategies bit-for-bit.
    for lo, hi in region.intervals:
        bob_locks |= (p2 > lo) & (p2 < hi)
    alice_reveals = p3 > solver.p3_threshold()
    completed = int(np.count_nonzero(bob_locks & alice_reveals))
    return n_paths, completed, n_paths


def empirical_success_rate(
    params: SwapParameters,
    pstar: float,
    n_paths: int = 20_000,
    seed: int = 0,
    collateral: float = 0.0,
    protocol_level: bool = False,
    antithetic: bool = False,
) -> MonteCarloResult:
    """Empirical SR (completed / initiated) over ``n_paths`` episodes."""
    solver = _solver(params, pstar, collateral)
    return _simulate(
        solver, params, pstar, n_paths, seed, collateral, protocol_level, antithetic
    )


def _simulate(
    solver: BackwardInduction,
    params: SwapParameters,
    pstar: float,
    n_paths: int,
    seed: int,
    collateral: float,
    protocol_level: bool,
    antithetic: bool,
) -> MonteCarloResult:
    """:func:`empirical_success_rate` with the agents playing ``solver``'s
    equilibrium: its initiation decision, threshold and region."""
    import time

    from repro.obs.metrics import get_registry

    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    rng = RandomState(seed)
    mc_started = time.perf_counter()

    if protocol_level:
        alice, bob = pair_from_solver(solver)
        config = EpisodeConfig(
            params=params,
            pstar=pstar,
            collateral=collateral,
            alice=alice,
            bob=bob,
        )
        price_rng, secret_rng = rng.spawn(2)
        prices = _decision_prices(params, price_rng, n_paths, antithetic)
        summary = BatchSummary()
        for i in range(n_paths):
            record = run_episode(config, secret_rng, decision_prices=prices[i])
            summary.add(record)
        n_initiated = summary.n_initiated
        n_completed = summary.n_completed
    else:
        n_initiated, n_completed, _total = _strategy_level_counts(
            solver, n_paths, rng, antithetic
        )

    elapsed = time.perf_counter() - mc_started
    level = "protocol" if protocol_level else "strategy"
    observe_law(params.law.kind, "montecarlo")
    registry = get_registry()
    registry.counter(
        "repro_mc_paths_total",
        help="Monte Carlo episodes simulated, by fidelity level.",
        labelnames=("level",),
    ).inc(n_paths, level=level)
    registry.histogram(
        "repro_mc_run_seconds",
        help="Wall-clock duration of one Monte Carlo batch.",
        labelnames=("level",),
    ).observe(elapsed, level=level)
    if elapsed > 0.0:
        registry.gauge(
            "repro_mc_paths_per_second",
            help="Throughput of the most recent Monte Carlo batch.",
            labelnames=("level",),
        ).set(n_paths / elapsed, level=level)

    if n_initiated == 0:
        return MonteCarloResult(
            pstar=pstar, collateral=collateral, n_paths=n_paths,
            n_initiated=0, n_completed=0,
            success_rate=0.0, ci_low=0.0, ci_high=1.0,
        )
    rate = n_completed / n_initiated
    lo, hi = wilson_interval(n_completed, n_initiated)
    return MonteCarloResult(
        pstar=pstar, collateral=collateral, n_paths=n_paths,
        n_initiated=n_initiated, n_completed=n_completed,
        success_rate=rate, ci_low=lo, ci_high=hi,
    )


def validate_against_analytic(
    params: SwapParameters,
    pstar: float,
    n_paths: int = 20_000,
    seed: int = 0,
    collateral: float = 0.0,
    protocol_level: bool = False,
) -> Tuple[MonteCarloResult, float]:
    """Run the Monte Carlo and return it with the matching analytic SR.

    One solver serves both: its strategies drive the episodes and its
    Eq. (31)/(40) success rate is the analytic value.
    """
    solver = _solver(params, pstar, collateral)
    empirical = _simulate(
        solver, params, pstar, n_paths, seed, collateral, protocol_level, False
    )
    return empirical, solver.success_rate()
