"""Keyspace routing for the sharded tier: hash ring + routing keys.

Two pure, synchronous pieces the router role of the front end
(:class:`repro.server.aio.RouterServer`) composes:

* :class:`HashRing` -- consistent hashing with virtual nodes. Each
  replica owns many pseudo-random points on a 64-bit circle; a key is
  served by the first replica point at or after its own hash. Removing
  a replica re-homes *only* the keyslice it owned (its points vanish,
  their keys fall through to the next point on the circle) -- every
  other shard's cache stays hot. Adding one steals a proportional
  sliver from each. The keyslice-stability tests pin both properties.

* :func:`routing_key` -- the canonical key a request is routed by.
  For single solves/validates it is the *service-layer* canonical key
  (:func:`repro.service.keys.request_key`), so two JSON spellings of
  one request land on the same shard and hit the same cache entry --
  the whole point of sharding by key. Requests the router cannot
  canonicalise (malformed JSON, unknown fields) still route
  *deterministically* by a digest of the raw bytes; the replica then
  produces the authoritative error envelope, so a reject reads the
  same through the router as from the replica itself.

Hashing uses BLAKE2b (stdlib, keyed-length 8) rather than Python's
``hash()`` -- ring placement must be stable across processes and runs
(``PYTHONHASHSEED`` randomises ``hash``).
"""

from __future__ import annotations

import bisect
import json
from hashlib import blake2b
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

__all__ = ["HashRing", "routing_key", "DEFAULT_VNODES"]

# 64 virtual nodes per replica keeps the largest/smallest keyslice
# within ~2x of each other for small N while the ring stays tiny
DEFAULT_VNODES = 64


def _point(token: str) -> int:
    """A stable 64-bit ring position for ``token``."""
    return int.from_bytes(blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring over named nodes (replica names).

    Not thread-safe; the router mutates it only from the event loop.
    """

    def __init__(
        self, nodes: Sequence[str] = (), vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self._nodes: List[str] = []
        self._points: List[int] = []  # sorted ring positions
        self._owners: Dict[int, str] = {}  # position -> node
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> List[str]:
        """The member nodes, in insertion order."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, node: str) -> None:
        """Add ``node`` (its vnode points) to the ring."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} is already on the ring")
        self._nodes.append(node)
        for i in range(self.vnodes):
            position = _point(f"{node}#{i}")
            # a full 64-bit collision between distinct tokens is ~2^-64
            # per pair; first owner wins and keeps the ring consistent
            if position in self._owners:
                continue
            bisect.insort(self._points, position)
            self._owners[position] = node

    def remove(self, node: str) -> None:
        """Drop ``node``; only its keyslice re-homes."""
        if node not in self._nodes:
            raise ValueError(f"node {node!r} is not on the ring")
        self._nodes.remove(node)
        kept_points = [
            position
            for position in self._points
            if self._owners[position] != node
        ]
        self._owners = {
            position: owner
            for position, owner in self._owners.items()
            if owner != node
        }
        self._points = kept_points

    def node_for(self, key: str) -> Optional[str]:
        """The node owning ``key`` (``None`` on an empty ring)."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._points, _point(key))
        if index == len(self._points):
            index = 0  # wrap: the circle has no end
        return self._owners[self._points[index]]

    def nodes_for(self, key: str, count: Optional[int] = None) -> List[str]:
        """Up to ``count`` *distinct* nodes for ``key``, preference order.

        The failover walk: entry 0 is the home shard, entry 1 the shard
        whose cache the key lands in if the home is down, and so on.
        Default ``count``: every node.
        """
        if not self._points:
            return []
        want = len(self._nodes) if count is None else min(count, len(self._nodes))
        found: List[str] = []
        start = bisect.bisect_right(self._points, _point(key))
        for step in range(len(self._points)):
            owner = self._owners[
                self._points[(start + step) % len(self._points)]
            ]
            if owner not in found:
                found.append(owner)
                if len(found) == want:
                    break
        return found


def _digest_key(prefix: str, payload: bytes) -> str:
    return f"{prefix}:{blake2b(payload, digest_size=16).hexdigest()}"


def routing_key(method: str, target: str, body: bytes) -> str:
    """The key one HTTP request is consistent-hashed by.

    * ``POST /v1/solve`` / ``/v1/validate`` / ``/v1/swap-graph``: the
      service-layer canonical key of the parsed request (cache-aligned
      routing); un-parseable bodies fall back to a digest of the raw
      bytes.
    * ``GET /v1/sweep``: a digest of the normalised query parameters
      (a repeated sweep re-lands on the shard whose chain served it).
    * ``POST /v1/batch``: a digest of the body (a batch is one unit;
      its internal dedup works best on one shard's cache).
    * anything else (ops routes are not proxied, but stay total): the
      path itself.
    """
    parts = urlsplit(target)
    path = parts.path
    if path in ("/v1/solve", "/v1/validate", "/v1/swap-graph"):
        kind = {
            "/v1/solve": "solve",
            "/v1/validate": "validate",
            "/v1/swap-graph": "swap_graph",
        }[path]
        try:
            data = json.loads(body.decode("utf-8"))
            if not isinstance(data, dict):
                raise ValueError("body is not an object")
            data.setdefault("kind", kind)
            # imported lazily: repro.service pulls in the solver stack
            from repro.service.keys import request_key
            from repro.service.requests import parse_request

            return request_key(parse_request(data))
        except Exception:
            return _digest_key("body", body)
    if path == "/v1/sweep":
        normalised = json.dumps(
            sorted(parse_qs(parts.query).items()), separators=(",", ":")
        )
        return _digest_key("sweep", normalised.encode("utf-8"))
    if path == "/v1/batch":
        return _digest_key("batch", body)
    return _digest_key("path", path.encode("utf-8"))
