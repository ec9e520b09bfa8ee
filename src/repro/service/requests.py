"""Request types accepted by :class:`~repro.service.api.SwapService`.

Three request kinds cover the library's whole analytic surface:

* :class:`SolveRequest` -- solve one swap game (basic for ``Q = 0``,
  the Section IV collateral game for ``Q > 0``) and return the full
  equilibrium object;
* :class:`ValidateRequest` -- run the Monte Carlo validation of the
  analytic success rate at one ``(params, P*, Q)`` point;
* :class:`SwapGraphRequest` -- solve a multi-party / packetized swap
  graph (:mod:`repro.swapgraph`), optionally replaying the equilibrium
  on simulated chains.

All are frozen dataclasses with an exact ``to_dict``/``from_dict``
round-trip, so they can be hashed into canonical cache keys
(:mod:`repro.service.keys`), shipped to pool workers, and read from
JSON-lines batch files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.core.parameters import SwapParameters
from repro.service.errors import RequestValidationError
from repro.swapgraph.spec import SwapGraphSpec

__all__ = [
    "SolveRequest",
    "ValidateRequest",
    "SwapGraphRequest",
    "Request",
    "parse_request",
]


def _check_pstar(pstar: float) -> float:
    pstar = float(pstar)
    if not (math.isfinite(pstar) and pstar > 0.0):
        raise RequestValidationError(f"pstar must be finite and > 0, got {pstar}")
    return pstar


def _check_collateral(collateral: float) -> float:
    collateral = float(collateral)
    if not (math.isfinite(collateral) and collateral >= 0.0):
        raise RequestValidationError(
            f"collateral must be finite and >= 0, got {collateral}"
        )
    return collateral


def _check_tolerance(tolerance: Optional[float]) -> Optional[float]:
    if tolerance is None:
        return None
    tolerance = float(tolerance)
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise RequestValidationError(
            f"tolerance must be finite and >= 0, got {tolerance}"
        )
    return tolerance


@dataclass(frozen=True)
class SolveRequest:
    """Solve one swap game at ``(params, pstar, collateral)``.

    ``tolerance`` is the caller's opt-in to approximate answers: when
    set (and the service has a surface loaded), the request may be
    answered by certified interpolation with absolute success-rate
    error at most ``tolerance`` instead of an exact solve.
    ``tolerance=0.0`` explicitly demands exactness; the default
    ``None`` is also exact unless the service was configured with a
    service-wide ``tolerance``.
    """

    pstar: float
    collateral: float = 0.0
    params: SwapParameters = field(default_factory=SwapParameters.default)
    tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pstar", _check_pstar(self.pstar))
        object.__setattr__(self, "collateral", _check_collateral(self.collateral))
        object.__setattr__(self, "tolerance", _check_tolerance(self.tolerance))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (the batch-file line format)."""
        return {
            "kind": "solve",
            "pstar": self.pstar,
            "collateral": self.collateral,
            "params": self.params.to_dict(),
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class ValidateRequest:
    """Monte-Carlo-validate the analytic SR at ``(params, pstar, collateral)``.

    ``seed=None`` asks the service to derive a deterministic seed from
    the request's canonical key (so identical requests always draw the
    same paths, in any process). ``protocol_level`` runs every episode
    through the full chain substrate instead of the vectorised
    strategy-level counts -- orders of magnitude slower, reserved for
    integration-grade validation.
    """

    pstar: float
    collateral: float = 0.0
    n_paths: int = 20_000
    seed: Optional[int] = None
    protocol_level: bool = False
    params: SwapParameters = field(default_factory=SwapParameters.default)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pstar", _check_pstar(self.pstar))
        object.__setattr__(self, "collateral", _check_collateral(self.collateral))
        if int(self.n_paths) < 1:
            raise RequestValidationError(
                f"n_paths must be >= 1, got {self.n_paths}"
            )
        object.__setattr__(self, "n_paths", int(self.n_paths))
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "protocol_level", bool(self.protocol_level))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (the batch-file line format)."""
        return {
            "kind": "validate",
            "pstar": self.pstar,
            "collateral": self.collateral,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "protocol_level": self.protocol_level,
            "params": self.params.to_dict(),
        }


@dataclass(frozen=True)
class SwapGraphRequest:
    """Solve a swap graph, optionally with a chain-substrate replay.

    ``n_lattice=None`` lets the solver pick: closed-form delegation for
    the paper-shaped ``k=1, n=2`` case, otherwise an adaptive lattice
    within the state budget. ``replay=True`` re-runs the equilibrium
    strategy on one simulated chain per edge (``replay_paths``
    episodes); ``seed=None`` derives a deterministic replay seed from
    the request's canonical key, like :class:`ValidateRequest`.
    """

    spec: SwapGraphSpec
    n_lattice: Optional[int] = None
    replay: bool = False
    replay_paths: int = 400
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.spec, SwapGraphSpec):
            raise RequestValidationError(
                f"spec must be a SwapGraphSpec, got {type(self.spec).__name__}"
            )
        if self.n_lattice is not None:
            n_lattice = int(self.n_lattice)
            if n_lattice < 3:
                raise RequestValidationError(
                    f"n_lattice must be >= 3, got {n_lattice}"
                )
            object.__setattr__(self, "n_lattice", n_lattice)
        object.__setattr__(self, "replay", bool(self.replay))
        if int(self.replay_paths) < 1:
            raise RequestValidationError(
                f"replay_paths must be >= 1, got {self.replay_paths}"
            )
        object.__setattr__(self, "replay_paths", int(self.replay_paths))
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (the batch-file line format)."""
        return {
            "kind": "swap_graph",
            "spec": self.spec.to_dict(),
            "n_lattice": self.n_lattice,
            "replay": self.replay,
            "replay_paths": self.replay_paths,
            "seed": self.seed,
        }


Request = Union[SolveRequest, ValidateRequest, SwapGraphRequest]


def _parse_params(raw: object) -> SwapParameters:
    if raw is None:
        return SwapParameters.default()
    if not isinstance(raw, dict):
        raise RequestValidationError(
            f"params must be an object, got {type(raw).__name__}"
        )
    try:
        return SwapParameters.from_dict(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise RequestValidationError(f"invalid params: {exc}") from exc


def parse_request(data: Dict[str, object]) -> Request:
    """Build a request from one decoded JSON-lines record.

    The ``kind`` field selects the type; ``params`` accepts either the
    nested :meth:`SwapParameters.to_dict` form or a flat override map
    (``{"sigma": 0.15}``) over the Table III defaults. Raises
    :class:`RequestValidationError` on any malformed field -- callers
    turn that into a structured per-line error, never a crash.
    """
    if not isinstance(data, dict):
        raise RequestValidationError(
            f"request must be an object, got {type(data).__name__}"
        )
    kind = data.get("kind", "solve")
    known_solve = {"kind", "pstar", "collateral", "params", "tolerance"}
    known_validate = known_solve - {"tolerance"} | {
        "n_paths",
        "seed",
        "protocol_level",
    }
    try:
        if kind == "solve":
            unknown = set(data) - known_solve
            if unknown:
                raise RequestValidationError(
                    f"unknown solve fields {sorted(unknown)}"
                )
            return SolveRequest(
                pstar=data.get("pstar", 2.0),  # type: ignore[arg-type]
                collateral=data.get("collateral", 0.0),  # type: ignore[arg-type]
                params=_parse_params(data.get("params")),
                tolerance=data.get("tolerance"),  # type: ignore[arg-type]
            )
        if kind == "validate":
            unknown = set(data) - known_validate
            if unknown:
                raise RequestValidationError(
                    f"unknown validate fields {sorted(unknown)}"
                )
            return ValidateRequest(
                pstar=data.get("pstar", 2.0),  # type: ignore[arg-type]
                collateral=data.get("collateral", 0.0),  # type: ignore[arg-type]
                n_paths=data.get("n_paths", 20_000),  # type: ignore[arg-type]
                seed=data.get("seed"),  # type: ignore[arg-type]
                protocol_level=data.get("protocol_level", False),  # type: ignore[arg-type]
                params=_parse_params(data.get("params")),
            )
        if kind == "swap_graph":
            known_graph = {
                "kind", "spec", "n_lattice", "replay", "replay_paths", "seed",
            }
            unknown = set(data) - known_graph
            if unknown:
                raise RequestValidationError(
                    f"unknown swap_graph fields {sorted(unknown)}"
                )
            raw_spec = data.get("spec")
            if not isinstance(raw_spec, dict):
                raise RequestValidationError(
                    "swap_graph requests need a 'spec' object"
                )
            return SwapGraphRequest(
                spec=SwapGraphSpec.from_dict(raw_spec),
                n_lattice=data.get("n_lattice"),  # type: ignore[arg-type]
                replay=data.get("replay", False),  # type: ignore[arg-type]
                replay_paths=data.get("replay_paths", 400),  # type: ignore[arg-type]
                seed=data.get("seed"),  # type: ignore[arg-type]
            )
    except (TypeError, ValueError) as exc:
        raise RequestValidationError(str(exc)) from exc
    raise RequestValidationError(
        f"unknown request kind {kind!r} "
        "(expected 'solve', 'validate' or 'swap_graph')"
    )
