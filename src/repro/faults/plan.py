"""Typed, seed-deterministic fault plans.

An :class:`InjectionPlan` is the declarative description of a chaos
run: a list of :class:`FaultSpec` records, each naming one fault
*kind* (see :data:`FAULT_KINDS`), an optional match predicate over the
hook-site key, and a schedule (``probability`` per eligible event,
``after`` events skipped first, at most ``count`` injections). The
plan carries one ``seed``; every spec draws from its own
:class:`random.Random` stream derived from ``(seed, spec index)``, so
a failing chaos run replays *exactly* -- same plan, same seed, same
request order, same injected faults.

Plans round-trip through JSON (:meth:`InjectionPlan.to_dict` /
:meth:`InjectionPlan.from_dict` / :meth:`InjectionPlan.load`), which
is the ``repro-swaps --fault-plan plan.json`` file format::

    {
      "seed": 7,
      "faults": [
        {"kind": "worker_crash", "match": "\"pstar\":2.5", "count": 1},
        {"kind": "http_slow", "probability": 0.25, "delay": 0.05}
      ]
    }

The *kind* names the hook site that honours the spec:

==================  ====================================================
kind                injected behaviour (hook site)
==================  ====================================================
``worker_crash``    pool worker dies mid-request (``executor.WorkerPool``;
                    only requests the chain's scalar rung dispatches:
                    validations, swap graphs, solve groups below the
                    engine's size cut or refused by it)
``worker_hang``     request stalls ``delay`` seconds in the worker (same
                    requests as ``worker_crash``)
``cache_corrupt``   a just-written disk-cache entry is garbled on disk
``cache_io_error``  disk-cache read/write raises ``OSError``
``disk_slow``       disk-cache I/O stalls ``delay`` seconds
``http_drop``       connection dropped without a response (server/client)
``http_slow``       response stalls ``delay`` seconds (server/client)
``engine_error``    one grid-engine group pass raises and that group falls
                    to the scalar rung (``service.sources.EngineSource``;
                    key = ``sweep:<points>``, the group's size)
``oracle_outage``   the Section IV Oracle refuses to settle
``surface_corrupt``   a surface artifact fails verification and is
                      quarantined on load (``surface.artifact``)
``surface_io_error``  reading a surface artifact raises ``OSError``
``replica_down``      the sharded router treats the picked replica as
                      dead and heals by re-routing to the next ring
                      node (``server.aio``; key = replica name)
``swapgraph_error``   a swap-graph request fails with a typed
                      ``SolveFailedError`` before dispatch
                      (``service.sources.ScalarSource``)
``swapgraph_slow``    a swap-graph request stalls ``delay`` seconds at
                      dispatch (``service.sources.ScalarSource``)
``replica_crash_loop``  a just-restarted replica is killed before its
                        announce, exercising the supervisor's backoff
                        and flap detector (``server.replica``; key =
                        replica name)
``admin_partition``   the router's ``/admin/v1/*`` surface answers a
                      retryable ``503 admin_unavailable``
                      (``server.aio``; key = admin path)
==================  ====================================================
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["FAULT_KINDS", "FaultSpec", "InjectionPlan"]

FAULT_KINDS: Tuple[str, ...] = (
    "worker_crash",
    "worker_hang",
    "cache_corrupt",
    "cache_io_error",
    "disk_slow",
    "http_drop",
    "http_slow",
    "engine_error",
    "oracle_outage",
    "surface_corrupt",
    "surface_io_error",
    "replica_down",
    "swapgraph_error",
    "swapgraph_slow",
    "replica_crash_loop",
    "admin_partition",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind with a match predicate and an injection schedule.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    match:
        Substring predicate over the hook-site key (the canonical
        request payload at executor sites, the cache key at cache
        sites, the URL path at HTTP sites). Empty string matches every
        event at sites of this kind.
    probability:
        Chance of injecting at each eligible event, drawn from the
        spec's seeded stream (1.0 = always).
    count:
        Ceiling on total injections from this spec (``None``:
        unlimited). ``count=1`` is the canonical "fail once, then
        recover" experiment.
    after:
        Number of eligible events to let pass untouched before the
        schedule starts.
    delay:
        Stall duration in seconds for the timing faults
        (``worker_hang``, ``disk_slow``, ``http_slow``); ignored by
        the others.
    """

    kind: str
    match: str = ""
    probability: float = 1.0
    count: Optional[int] = None
    after: int = 0
    delay: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})"
            )
        probability = float(self.probability)
        if not (0.0 <= probability <= 1.0):
            raise ValueError(
                f"probability must be in [0, 1], got {probability}"
            )
        object.__setattr__(self, "probability", probability)
        if self.count is not None:
            count = int(self.count)
            if count < 1:
                raise ValueError(f"count must be >= 1, got {count}")
            object.__setattr__(self, "count", count)
        after = int(self.after)
        if after < 0:
            raise ValueError(f"after must be >= 0, got {after}")
        object.__setattr__(self, "after", after)
        delay = float(self.delay)
        if not (math.isfinite(delay) and delay >= 0.0):
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        object.__setattr__(self, "delay", delay)

    def matches(self, key: str) -> bool:
        """Whether this spec is eligible for an event with ``key``."""
        return self.match in key

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (the plan-file entry format)."""
        out: Dict[str, object] = {"kind": self.kind}
        if self.match:
            out["match"] = self.match
        if self.probability != 1.0:
            out["probability"] = self.probability
        if self.count is not None:
            out["count"] = self.count
        if self.after:
            out["after"] = self.after
        if self.delay != 0.05:
            out["delay"] = self.delay
        return out

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FaultSpec":
        """Build from one plan-file entry; rejects unknown fields."""
        if not isinstance(data, dict):
            raise ValueError(
                f"fault spec must be an object, got {type(data).__name__}"
            )
        known = {"kind", "match", "probability", "count", "after", "delay"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-spec fields {sorted(unknown)}")
        if "kind" not in data:
            raise ValueError("fault spec needs a 'kind'")
        return FaultSpec(
            kind=str(data["kind"]),
            match=str(data.get("match", "")),
            probability=data.get("probability", 1.0),  # type: ignore[arg-type]
            count=data.get("count"),  # type: ignore[arg-type]
            after=data.get("after", 0),  # type: ignore[arg-type]
            delay=data.get("delay", 0.05),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class InjectionPlan:
    """A seeded list of fault specs -- one reproducible chaos run."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "seed", int(self.seed))

    def __len__(self) -> int:
        return len(self.faults)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (the ``--fault-plan`` file format)."""
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "InjectionPlan":
        """Build from a decoded plan file; rejects unknown fields."""
        if not isinstance(data, dict):
            raise ValueError(
                f"fault plan must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise ValueError(f"unknown fault-plan fields {sorted(unknown)}")
        raw_faults = data.get("faults", [])
        if not isinstance(raw_faults, list):
            raise ValueError(
                f"faults must be a list, got {type(raw_faults).__name__}"
            )
        return InjectionPlan(
            faults=tuple(FaultSpec.from_dict(entry) for entry in raw_faults),
            seed=data.get("seed", 0),  # type: ignore[arg-type]
        )

    @staticmethod
    def load(path) -> "InjectionPlan":
        """Read a plan from a JSON file (the CLI entry point)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read fault plan {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan {path} is not valid JSON: {exc}") from exc
        return InjectionPlan.from_dict(data)

    def dump(self, path) -> None:
        """Write the plan as JSON (inverse of :meth:`load`)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
