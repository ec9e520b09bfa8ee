"""The service layer: batched, cached, parallel solve-and-validate.

This package turns the paper's one-shot solvers into a serveable
engine. The pieces, bottom-up:

* :mod:`repro.service.requests` -- :class:`SolveRequest` /
  :class:`ValidateRequest` / :class:`SwapGraphRequest`, the three
  request kinds, with exact dict round-trips;
* :mod:`repro.service.keys` -- canonical versioned request hashing
  and per-request seed derivation;
* :mod:`repro.service.serialize` -- JSON codecs for the result
  objects (bit-exact float round-trip);
* :mod:`repro.service.cache` -- in-memory LRU over an optional
  on-disk JSON store, with hit/miss/eviction counters;
* :mod:`repro.service.executor` -- process-pool execution with
  per-request timeouts and deterministic seeding;
* :mod:`repro.service.sources` -- the answer-source chain
  (``surface -> cache -> engine -> scalar``) behind every entry point;
  solves sharing ``(params, collateral)`` coalesce onto one grid-engine
  pass;
* :mod:`repro.service.api` -- :class:`SwapService`, the batch/sweep
  facade the CLI (``repro-swaps batch``), the HTTP server and the
  analysis sweeps consume;
* :mod:`repro.service.jsonl` -- the JSON-lines batch wire format
  shared by the CLI and the HTTP server (:mod:`repro.server`).

Quickstart::

    from repro.service import SwapService, SolveRequest

    with SwapService(max_workers=4, cache_dir="cache") as service:
        items = service.sweep([1.8, 2.0, 2.2])
    for item in items:
        print(item.unwrap().success_rate)
"""

from repro.service.api import BatchItem, SwapService, default_service
from repro.service.cache import CacheStats, DiskCache, LRUCache, TieredCache
from repro.service.errors import (
    RequestTimeoutError,
    RequestValidationError,
    ServiceError,
    ServiceErrorInfo,
    SolveFailedError,
    WorkerCrashedError,
    error_payload,
)
from repro.service.executor import ValidationResult, WorkerPool, execute_request
from repro.service.jsonl import render_records, serve_lines
from repro.service.keys import KEY_VERSION, derive_seed, request_key
from repro.service.requests import (
    SolveRequest,
    SwapGraphRequest,
    ValidateRequest,
    parse_request,
)
from repro.service.sources import (
    AnswerSource,
    CacheSource,
    EngineSource,
    ScalarSource,
    SourceChain,
    SurfaceSource,
)
from repro.service.serialize import decode_result, encode_result

__all__ = [
    "BatchItem",
    "SwapService",
    "SwapGraphRequest",
    "default_service",
    "CacheStats",
    "LRUCache",
    "DiskCache",
    "TieredCache",
    "ServiceError",
    "ServiceErrorInfo",
    "RequestValidationError",
    "SolveFailedError",
    "RequestTimeoutError",
    "WorkerCrashedError",
    "error_payload",
    "ValidationResult",
    "WorkerPool",
    "execute_request",
    "KEY_VERSION",
    "request_key",
    "derive_seed",
    "AnswerSource",
    "SourceChain",
    "SurfaceSource",
    "CacheSource",
    "EngineSource",
    "ScalarSource",
    "SolveRequest",
    "ValidateRequest",
    "parse_request",
    "encode_result",
    "decode_result",
    "serve_lines",
    "render_records",
]
