"""The typed v1 wire schema: every byte the HTTP front end may emit.

This module is the single source of truth for the HTTP API's shapes.
Both roles of the event-loop front end (:mod:`repro.server.aio`) --
the local :class:`~repro.server.app.SwapServer` and the proxying
:class:`~repro.server.aio.RouterServer` -- build their responses
through the frozen dataclasses here, and
:class:`~repro.server.client.SwapClient` parses replies back through
the same types, so old and new servers provably speak one format.

Success replies:

* :class:`ResultReply` -- ``POST /v1/solve``, ``POST /v1/validate``
  and ``POST /v1/swap-graph``
  (``{"ok": true, "kind", "key", "cached", "result"}``);
* :class:`SweepPointReply` / :class:`SweepReply` -- ``GET /v1/sweep``
  (``{"ok": true, "count", "results": [...]}`` with one point record
  per requested ``P*``).

Every non-2xx API response carries the same JSON envelope::

    {"ok": false, "error": {"code": ..., "message": ..., "retryable": ...}}

``code``/``message``/``retryable`` are exactly
:class:`~repro.service.errors.ServiceErrorInfo` -- the service layer's
typed errors go onto the wire unchanged, plus a handful of
transport-only codes (``queue_full``, ``body_too_large``,
``no_replica``, ...). The ``retryable`` flag is authoritative for
clients: :mod:`repro.server.client` retries exactly when the status is
429/503 or the envelope says so.

The transport-error *constructors* (:func:`queue_full_error`,
:func:`body_too_large_error`, ...) are the only way either role words
a refusal, so both shed load and reject malformed requests with the
same bytes; the per-role raw-socket suite
(``tests/server/test_aio_parity.py``) pins them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.errors import ServiceError, ServiceErrorInfo

__all__ = [
    "DeadlineExceededError",
    "STATUS_BY_CODE",
    "status_for",
    "error_envelope",
    "envelope_bytes",
    "ErrorReply",
    "ResultReply",
    "SweepPointReply",
    "SweepReply",
    "not_found_error",
    "method_not_allowed_error",
    "malformed_head_error",
    "header_too_large_error",
    "chunked_body_error",
    "missing_length_error",
    "malformed_length_error",
    "body_too_large_error",
    "queue_full_error",
    "draining_error",
    "deadline_message",
    "no_replica_error",
    "unauthorized_error",
    "conflict_error",
    "admin_unavailable_error",
]


class DeadlineExceededError(ServiceError):
    """The request exceeded the server's per-request deadline."""

    code = "deadline_exceeded"
    retryable = True


# service-layer and transport error codes -> HTTP status
STATUS_BY_CODE: Dict[str, int] = {
    "invalid_request": 400,
    "parse_error": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "length_required": 411,
    "body_too_large": 413,
    "header_too_large": 431,
    "queue_full": 429,
    "unauthorized": 403,
    "conflict": 409,
    "admin_unavailable": 503,
    "solve_failed": 500,
    "internal_error": 500,
    "worker_crashed": 500,
    "draining": 503,
    "no_replica": 503,
    "timeout": 504,
    "deadline_exceeded": 504,
}


def status_for(info: ServiceErrorInfo) -> int:
    """The HTTP status of an error envelope (500 for unknown codes)."""
    return STATUS_BY_CODE.get(info.code, 500)


def error_envelope(info: ServiceErrorInfo) -> Dict[str, object]:
    """The JSON error envelope body for ``info``.

    Unlike the JSONL batch records (which keep the historical two-key
    error dict), HTTP envelopes carry ``retryable`` explicitly -- it is
    the client's retry signal.
    """
    return ErrorReply(error=info).to_dict()


def envelope_bytes(
    info: ServiceErrorInfo, status: Optional[int] = None
) -> Tuple[int, bytes]:
    """``(status, body)`` for an error response."""
    payload = json.dumps(error_envelope(info), separators=(",", ":"))
    return (
        status if status is not None else status_for(info),
        payload.encode("utf-8"),
    )


# ---------------------------------------------------------------------- #
# typed replies
# ---------------------------------------------------------------------- #


def _require(data: Dict[str, object], field: str, reply: str) -> object:
    if field not in data:
        raise ValueError(f"{reply} reply missing {field!r}: {sorted(data)}")
    return data[field]


@dataclass(frozen=True)
class ErrorReply:
    """The v1 error envelope (any non-2xx API response)."""

    error: ServiceErrorInfo

    def to_dict(self) -> Dict[str, object]:
        """The wire form; key order is part of the byte format."""
        return {
            "ok": False,
            "error": {
                "code": self.error.code,
                "message": self.error.message,
                "retryable": self.error.retryable,
            },
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "ErrorReply":
        error = _require(data, "error", "error")
        if not isinstance(error, dict):
            raise ValueError(f"error envelope must be an object, got {error!r}")
        return ErrorReply(error=ServiceErrorInfo.from_dict(error))


@dataclass(frozen=True)
class ResultReply:
    """One solved/validated request (``POST /v1/solve|validate``).

    ``result`` is the :func:`repro.service.serialize.encode_result`
    payload -- already JSON-safe; decode with ``decode_result``.
    """

    kind: str
    key: str
    cached: bool
    result: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        """The wire form; key order is part of the byte format."""
        return {
            "ok": True,
            "kind": self.kind,
            "key": self.key,
            "cached": self.cached,
            "result": self.result,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "ResultReply":
        if not data.get("ok", False):
            raise ValueError(f"not a success reply: {data!r}")
        return ResultReply(
            kind=str(_require(data, "kind", "result")),
            key=str(_require(data, "key", "result")),
            cached=bool(_require(data, "cached", "result")),
            result=_require(data, "result", "result"),  # type: ignore[arg-type]
        )

    @staticmethod
    def from_item(kind: str, item) -> "ResultReply":
        """Build from a successful :class:`~repro.service.api.BatchItem`."""
        from repro.service.serialize import encode_result

        return ResultReply(
            kind=kind,
            key=item.key,
            cached=item.cached,
            result=encode_result(item.value),
        )


@dataclass(frozen=True)
class SweepPointReply:
    """One point of a sweep: a rate (with its tier and optional bound)
    or an in-band error, never both."""

    pstar: float
    ok: bool
    key: str
    cached: bool
    source: Optional[str]
    success_rate: Optional[float] = None
    bound: Optional[float] = None
    error: Optional[ServiceErrorInfo] = None

    def to_dict(self) -> Dict[str, object]:
        """The wire form; key order is part of the byte format."""
        point: Dict[str, object] = {
            "pstar": self.pstar,
            "ok": self.ok,
            "key": self.key,
            "cached": self.cached,
            "source": self.source,
        }
        if self.ok:
            point["success_rate"] = self.success_rate
            if self.bound is not None:  # surface answers carry their bound
                point["bound"] = self.bound
        else:
            assert self.error is not None
            point["error"] = self.error.to_dict()
        return point

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "SweepPointReply":
        ok = bool(_require(data, "ok", "sweep point"))
        error = data.get("error")
        return SweepPointReply(
            pstar=float(_require(data, "pstar", "sweep point")),  # type: ignore[arg-type]
            ok=ok,
            key=str(_require(data, "key", "sweep point")),
            cached=bool(data.get("cached", False)),
            source=data.get("source"),  # type: ignore[arg-type]
            success_rate=(
                float(_require(data, "success_rate", "sweep point"))  # type: ignore[arg-type]
                if ok
                else None
            ),
            bound=(
                float(data["bound"])  # type: ignore[arg-type]
                if data.get("bound") is not None
                else None
            ),
            error=(
                ServiceErrorInfo.from_dict(error)  # type: ignore[arg-type]
                if isinstance(error, dict)
                else None
            ),
        )

    @staticmethod
    def from_item(pstar: float, item) -> "SweepPointReply":
        """Build from one sweep :class:`~repro.service.api.BatchItem`."""
        if item.ok:
            return SweepPointReply(
                pstar=pstar,
                ok=True,
                key=item.key,
                cached=item.cached,
                source=item.source,
                success_rate=item.value.success_rate,
                bound=getattr(item.value, "bound", None),
            )
        return SweepPointReply(
            pstar=pstar,
            ok=False,
            key=item.key,
            cached=item.cached,
            source=item.source,
            error=item.error,
        )


@dataclass(frozen=True)
class SweepReply:
    """The whole ``GET /v1/sweep`` response."""

    results: Tuple[SweepPointReply, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))

    def to_dict(self) -> Dict[str, object]:
        """The wire form; key order is part of the byte format."""
        return {
            "ok": True,
            "count": len(self.results),
            "results": [point.to_dict() for point in self.results],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "SweepReply":
        raw = _require(data, "results", "sweep")
        if not isinstance(raw, list):
            raise ValueError(f"sweep results must be a list, got {raw!r}")
        return SweepReply(
            results=tuple(SweepPointReply.from_dict(point) for point in raw)
        )

    @staticmethod
    def from_items(
        pstars: Sequence[float], items: Sequence
    ) -> "SweepReply":
        """Build from :meth:`SwapService.sweep` output, in request order."""
        return SweepReply(
            results=tuple(
                SweepPointReply.from_item(pstar, item)
                for pstar, item in zip(pstars, items)
            )
        )


# ---------------------------------------------------------------------- #
# transport-error constructors (shared by both roles)
# ---------------------------------------------------------------------- #


def not_found_error(path: str) -> ServiceErrorInfo:
    """404: no such route."""
    return ServiceErrorInfo(code="not_found", message=f"no route {path}")


def method_not_allowed_error(method: str, path: str) -> ServiceErrorInfo:
    """405: known path, wrong verb."""
    return ServiceErrorInfo(
        code="method_not_allowed", message=f"{method} not allowed on {path}"
    )


def malformed_head_error(detail: str) -> ServiceErrorInfo:
    """400: a request line or header the parser refuses (RFC 9112)."""
    return ServiceErrorInfo(
        code="invalid_request", message=f"malformed request head: {detail}"
    )


def header_too_large_error(limit: int) -> ServiceErrorInfo:
    """431: the request head outgrew the parser's buffer."""
    return ServiceErrorInfo(
        code="header_too_large",
        message=f"request head exceeds {limit} bytes",
    )


def chunked_body_error() -> ServiceErrorInfo:
    """411: chunked transfer encoding is not accepted."""
    return ServiceErrorInfo(
        code="length_required",
        message="chunked bodies are not accepted; send Content-Length",
    )


def missing_length_error() -> ServiceErrorInfo:
    """411: POST without a Content-Length header."""
    return ServiceErrorInfo(
        code="length_required", message="Content-Length required"
    )


def malformed_length_error(raw: str) -> ServiceErrorInfo:
    """411: Content-Length present but not an integer."""
    return ServiceErrorInfo(
        code="length_required", message=f"malformed Content-Length {raw!r}"
    )


def body_too_large_error(length: int, limit: int) -> ServiceErrorInfo:
    """413: declared body size over the configured ceiling."""
    return ServiceErrorInfo(
        code="body_too_large",
        message=f"body of {length} bytes exceeds limit {limit}",
    )


def queue_full_error(depth: int) -> ServiceErrorInfo:
    """429: the bounded admission gate is full."""
    return ServiceErrorInfo(
        code="queue_full",
        message=f"admission queue full (depth {depth}); retry later",
        retryable=True,
    )


def draining_error() -> ServiceErrorInfo:
    """503: the server is draining for shutdown."""
    return ServiceErrorInfo(
        code="draining",
        message="server is draining; retry elsewhere",
        retryable=True,
    )


def deadline_message(deadline: float) -> str:
    """The one :class:`DeadlineExceededError` message both tiers raise."""
    return f"request exceeded the {deadline:g}s deadline"


def no_replica_error(attempts: int) -> ServiceErrorInfo:
    """503: every replica on the ring refused or failed."""
    return ServiceErrorInfo(
        code="no_replica",
        message=f"no replica answered after {attempts} attempts; retry later",
        retryable=True,
    )


def unauthorized_error(message: str) -> ServiceErrorInfo:
    """403: the admin surface refused the caller's credentials."""
    return ServiceErrorInfo(code="unauthorized", message=message)


def conflict_error(message: str) -> ServiceErrorInfo:
    """409: the admin operation races another in-flight change."""
    return ServiceErrorInfo(code="conflict", message=message)


def admin_unavailable_error() -> ServiceErrorInfo:
    """503: the admin surface is partitioned away (chaos plans)."""
    return ServiceErrorInfo(
        code="admin_unavailable",
        message="admin surface unreachable; retry later",
        retryable=True,
    )
