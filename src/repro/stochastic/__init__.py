"""Stochastic substrate: price processes, distributions, numerics.

This package provides everything the game-theoretic solver and the
Monte Carlo engine need from probability theory and numerical analysis:

* :mod:`repro.stochastic.lognormal` -- the lognormal law of a GBM
  increment, with closed-form CDF, PDF, mean and *partial expectations*
  (the Black--Scholes-style building blocks of the paper's utilities).
* :mod:`repro.stochastic.gbm` -- the geometric Brownian motion of
  Equation (1) of the paper: analytic conditional moments and exact
  sampling of terminal values and paths.
* :mod:`repro.stochastic.quadrature` -- Gauss--Legendre expectation
  integrals over truncated price ranges, scalar and batched.
* :mod:`repro.stochastic.rootfind` -- bracketed root finding (scalar
  Brent and a batched Chandrupatla refiner), batched sign-change scans,
  and interval unions used to characterise continuation regions.
* :mod:`repro.stochastic.paths` -- vectorised simulation of the price at
  the swap's decision times.
* :mod:`repro.stochastic.rng` -- reproducible random number streams.
"""

from repro.stochastic.gbm import GeometricBrownianMotion
from repro.stochastic.law import (
    LawSpec,
    LognormalStepKernel,
    MixtureLaw,
    MixtureStepKernel,
    parse_law,
    registered_laws,
    step_kernel,
)
from repro.stochastic.lognormal import LognormalLaw, transition_pieces
from repro.stochastic.mathkit import norm_cdf, norm_ppf
from repro.stochastic.paths import DecisionTimeGrid, sample_decision_prices
from repro.stochastic.quadrature import (
    expectation_on_interval,
    expectation_on_intervals,
    gauss_legendre_nodes,
)
from repro.stochastic.rng import RandomState, spawn_streams, stable_seed
from repro.stochastic.rootfind import (
    IntervalUnion,
    bisect_roots,
    bracketed_root,
    grid_sign_change_brackets,
)

__all__ = [
    "GeometricBrownianMotion",
    "LawSpec",
    "LognormalLaw",
    "LognormalStepKernel",
    "MixtureLaw",
    "MixtureStepKernel",
    "norm_cdf",
    "norm_ppf",
    "parse_law",
    "registered_laws",
    "step_kernel",
    "transition_pieces",
    "DecisionTimeGrid",
    "sample_decision_prices",
    "expectation_on_interval",
    "expectation_on_intervals",
    "gauss_legendre_nodes",
    "RandomState",
    "spawn_streams",
    "stable_seed",
    "IntervalUnion",
    "bisect_roots",
    "bracketed_root",
    "grid_sign_change_brackets",
]
