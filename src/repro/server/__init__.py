"""The HTTP serving layer: stdlib-only, production-shaped.

``repro.server`` puts :class:`~repro.service.api.SwapService` behind a
network socket with the behaviours a real deployment needs -- bounded
admission (``429`` + ``Retry-After``), body-size and deadline limits
(``413``/``504``), structured error envelopes, graceful drain on
SIGTERM/SIGINT, live ``/metrics`` -- and ships the matching client-side
retry discipline. The pieces:

* :mod:`repro.server.config` -- :class:`ServerConfig`, every knob of
  the layer (the ``repro-swaps serve`` flags map onto it);
* :mod:`repro.server.wire` -- error envelopes and the code -> HTTP
  status mapping;
* :mod:`repro.server.metrics` -- the ``repro_http_*`` instrument set;
* :mod:`repro.server.overload` -- :class:`CostAwareGate`, cost-aware
  admission with CoDel-style shedding;
* :mod:`repro.server.aio` -- the one HTTP front end: an asyncio event
  loop running one request pipeline (parse, limits, drain, admission,
  envelope, metrics) for either role, plus the proxy role
  :class:`RouterServer` behind ``serve --replicas N``;
* :mod:`repro.server.app` -- the local role :class:`SwapServer` (a
  :class:`~repro.service.api.SwapService` backend) and the blocking
  :func:`serve` loop that runs either role;
* :mod:`repro.server.router` / :mod:`repro.server.replica` -- the
  sharded tier's consistent-hash routing keys and replica subprocess
  management;
* :mod:`repro.server.client` -- :class:`SwapClient` with capped
  exponential backoff + full jitter, retrying only on ``429``/``503``/
  retryable envelopes;
* :mod:`repro.server.circuit` -- :class:`CircuitBreaker`, the client's
  defence against *sustained* failure (open after N consecutive
  exhausted retry budgets, half-open probe back in).

Quickstart::

    from repro.server import ServerConfig, SwapServer
    from repro.server.client import SwapClient

    server = SwapServer(ServerConfig(port=0)).start()   # ephemeral port
    client = SwapClient(f"http://127.0.0.1:{server.port}")
    print(client.solve(pstar=2.0).success_rate)
    server.shutdown()

or, from a shell: ``repro-swaps serve --port 8100``.
"""

from repro.server.aio import RouterServer
from repro.server.app import SwapServer, serve
from repro.server.circuit import CircuitBreaker
from repro.server.client import (
    CircuitOpenError,
    ClientError,
    RetriesExhaustedError,
    RetryPolicy,
    ServerReplyError,
    SwapClient,
)
from repro.server.config import ServerConfig
from repro.server.metrics import HTTPMetrics, SupervisorMetrics
from repro.server.overload import CostAwareGate, route_weight
from repro.server.replica import ReplicaSupervisor
from repro.server.wire import (
    STATUS_BY_CODE,
    DeadlineExceededError,
    error_envelope,
    status_for,
)

__all__ = [
    "ServerConfig",
    "SwapServer",
    "serve",
    "RouterServer",
    "CostAwareGate",
    "route_weight",
    "ReplicaSupervisor",
    "SupervisorMetrics",
    "SwapClient",
    "RetryPolicy",
    "ClientError",
    "ServerReplyError",
    "RetriesExhaustedError",
    "CircuitBreaker",
    "CircuitOpenError",
    "HTTPMetrics",
    "DeadlineExceededError",
    "STATUS_BY_CODE",
    "status_for",
    "error_envelope",
]
