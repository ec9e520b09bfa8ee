"""The four workloads; each run happens in its own subprocess.

    python -m bench.workloads NAME --seed N --seconds S --trace 0|1 [--smoke]

prints one JSON object: the run's metrics (every one as ``{"value",
"unit", "n"}``), the operations attempted and failed, and the failure
messages. ``bench/run.py`` starts these processes; see
``bench/README.md`` for what each workload runs and why.

An untraced run measures the end-to-end metrics: ``setup_s`` (median of
several cold starts), per-operation ``p50_ms``/``p90_ms``, and
``throughput_per_s``. Offline workloads are single-caller closed loops
over ``SwapService`` (throughput: answered points or requests per
second). HTTP workloads are open loops at a low and a high rate; the
gated latencies are the high rate's, and the throughput is the high
phase's requests per second of server CPU. Every timing is measured in
chunks and scaled to a reference host speed (:mod:`bench.calibrate`);
the raw value is reported beside it as ``raw.<name>``.

A traced run (``--trace 1``) measures the per-layer metrics instead: it
runs the same first operations of the seeded stream in process twice --
untraced, then under :class:`bench.trace.Tracer` -- reports the spans'
per-call costs and the tracing overhead, diffs the servers' ``/metrics``
around each HTTP phase, and runs the layer ladder.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from bench import ladder, mixes
from bench.calibrate import HostSpeed
from bench.checks import Checks, reply_ok
from bench.ladder import SOLVE_WIRE
from bench.loadgen import (
    Connection,
    ServerProcess,
    connections,
    delta_sum,
    fetch,
    open_loop,
    read_line,
    scrape,
)
from bench.mixes import HttpOp
from bench.stats import latency_summary, metric, percentile
from bench.trace import Tracer, aggregate
from repro.core.parameters import SwapParameters
from repro.service.api import SwapService
from repro.service.requests import SolveRequest, parse_request

#: A workload's in-process operations are sampled 1 in this many for
#: re-solving (HTTP replies: 1 in ``HTTP_SAMPLE``).
OFFLINE_SAMPLE = 16
HTTP_SAMPLE = 50


@dataclass(frozen=True)
class Settings:
    seed: int
    seconds: float
    smoke: bool
    env: Dict[str, str]

    @property
    def warmup(self) -> float:
        return 0.5 if self.smoke else min(5.0, self.seconds / 2.0)

    def cold_starts(self, wanted: int) -> int:
        return 1 if self.smoke else wanted

    @property
    def ladder_samples(self) -> int:
        return 20 if self.smoke else 500


class Run:
    """Everything one run measured, attempted and checked."""

    def __init__(self) -> None:
        self.metrics: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.checks = Checks()
        self.spans: Dict[str, Dict[str, float]] = {}

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"failed: {what}")

    def result(self) -> dict:
        return {
            "metrics": self.metrics,
            "attempted": self.attempted + self.checks.attempted,
            "failed": self.failed + len(self.checks.failures),
            "failures": (self.messages + self.checks.failures)[:20],
            "spans": self.spans,
        }


# ---------------------------------------------------------------------- #
# the workloads
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class HttpSpec:
    replicas: int
    low_rate: float
    high_rate: float
    cold_starts: int


@dataclass(frozen=True)
class Workload:
    """How one workload's operations run in process, and over HTTP."""

    name: str
    ops: Callable[[int, int], Iterator]  # (seed, stream) -> operations
    execute: Callable[[SwapService, object], list]
    size: Callable[[object], int]  # answered units per operation
    unit: str
    check: Callable[[Checks, object, list, np.random.Generator], None]
    trace_rate: float  # in-process operations per second, sizes traced passes
    workers: int = 1
    first_call: str = ""  # offline cold start: the first call, as code
    http: Optional[HttpSpec] = None
    prewarm: Callable[[], List[HttpOp]] = list
    sample_every: int = OFFLINE_SAMPLE


def _check_sweep(checks: Checks, call: mixes.SweepCall, items, rng) -> None:
    for i in rng.choice(len(items), 4, replace=False):
        item = items[int(i)]
        if not item.ok:
            checks.expect(False, f"sweep point failed: {item.error}")
            continue
        checks.point(call.params, call.pstars[int(i)], call.collateral, item.value.success_rate)


def _check_batch(checks: Checks, batch, items, rng) -> None:
    for i in rng.choice(len(batch), 8, replace=False):
        checks.batch_item(batch[int(i)], items[int(i)])


def _http_in_process(service: SwapService, op: HttpOp) -> list:
    """What a server does for ``op``, minus HTTP."""
    if op.kind == "sweep":
        return service.sweep(op.payload["pstars"])
    return service.run_batch([parse_request({"kind": op.kind, **op.payload})])


def _check_http_items(checks: Checks, op: HttpOp, items, rng) -> None:
    if op.kind == "sweep":
        params = SwapParameters.default()
        for pstar, item in zip(op.payload["pstars"], items):
            if not item.ok:
                checks.expect(False, f"sweep point failed: {item.error}")
                continue
            checks.point(params, pstar, 0.0, item.value.success_rate)
        return
    checks.batch_item(parse_request({"kind": op.kind, **op.payload}), items[0])


def _hot_ops(seed: int, which: int) -> Iterator[HttpOp]:
    order = mixes.stream(seed, mixes.SAMPLING).permutation(mixes.HOT_KEYS)
    return mixes.hot_ops(mixes.stream(seed, which), mixes.hot_keyset(), order)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sweep-offline",
            ops=lambda seed, which: mixes.sweep_calls(mixes.stream(seed, which)),
            execute=lambda service, call: service.sweep(
                list(call.pstars), params=call.params, collateral=call.collateral
            ),
            size=lambda call: len(call.pstars),
            unit="points",
            check=_check_sweep,
            trace_rate=25.0,
            first_call="service.sweep([2.0])",
        ),
        Workload(
            name="batch-offline",
            ops=lambda seed, which: mixes.batch_calls(mixes.stream(seed, which)),
            execute=lambda service, batch: service.run_batch(list(batch)),
            size=len,
            unit="requests",
            check=_check_batch,
            trace_rate=5.0,
            workers=2,
            first_call="service.run_batch([SolveRequest(pstar=2.0), SolveRequest(pstar=2.1)])",
        ),
        Workload(
            name="http-hot",
            ops=_hot_ops,
            execute=_http_in_process,
            size=lambda op: 1,
            unit="requests",
            check=_check_http_items,
            trace_rate=1000.0,
            http=HttpSpec(replicas=0, low_rate=150.0, high_rate=400.0, cold_starts=3),
            prewarm=mixes.hot_keyset,
            sample_every=HTTP_SAMPLE,
        ),
        Workload(
            name="http-sharded-miss",
            ops=lambda seed, which: mixes.miss_ops(mixes.stream(seed, which)),
            execute=_http_in_process,
            size=lambda op: 1,
            unit="requests",
            check=_check_http_items,
            trace_rate=300.0,
            http=HttpSpec(replicas=2, low_rate=75.0, high_rate=150.0, cold_starts=5),
            sample_every=HTTP_SAMPLE,
        ),
    )
}


def _sampled(seed: int, every: int) -> Callable[[int], bool]:
    """A seeded 1-in-``every`` choice of operation indices."""
    offset = int(mixes.stream(seed, mixes.SAMPLING).integers(every))
    return lambda index: (index + offset) % every == 0


# ---------------------------------------------------------------------- #
# measured timings
# ---------------------------------------------------------------------- #

#: Seconds of measured work between two host-speed probe bursts.
CHUNK_S = 1.0


@dataclass
class Measured:
    """One phase's timings, raw and scaled to the reference host
    (see :mod:`bench.calibrate`)."""

    raw: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)
    units: int = 0
    wall: float = 0.0
    scaled_wall: float = 0.0
    factors: List[float] = field(default_factory=list)

    def add(self, latencies: Sequence[float], units: int, wall: float, factor: float) -> None:
        self.factors.append(factor)
        self.raw += latencies
        self.scaled += [x * factor for x in latencies]
        self.units += units
        self.wall += wall
        self.scaled_wall += wall * factor

    def latency_metrics(self, prefix: str = "") -> Dict[str, dict]:
        out = latency_summary(self.scaled, prefix)
        raw = latency_summary(self.raw, f"{prefix}raw.")
        out.update({name: record for name, record in raw.items() if not name.endswith("tail_ms")})
        return out


def throughput_metrics(units: int, seconds: float, scaled_seconds: float, n: int, of: str) -> Dict[str, dict]:
    """``units`` per second of ``seconds``, scaled and raw, from ``n``
    operations."""
    return {
        "throughput_per_s": metric(units / scaled_seconds, "1/s", n, of=of),
        "raw.throughput_per_s": metric(units / seconds, "1/s", n, of=of),
    }


def setup_metrics(raw: Sequence[float], factors: Sequence[float], host: HostSpeed) -> Dict[str, dict]:
    scaled = [x * f for x, f in zip(raw, factors)]
    return {
        "setup_s": metric(statistics.median(scaled), "s", len(raw)),
        "raw.setup_s": metric(statistics.median(raw), "s", len(raw)),
        "host.probe_ms": metric(host.median_s * 1e3, "ms", len(host.samples)),
    }


# ---------------------------------------------------------------------- #
# in-process loops
# ---------------------------------------------------------------------- #


def closed_calls(
    w: Workload,
    service: SwapService,
    ops: Iterator[Tuple[int, object]],
    seconds: float,
    run: Optional[Run] = None,
    keep: Callable[[int], bool] = lambda index: False,
    tracer: Optional[Tracer] = None,
) -> Tuple[List[float], int, float, List[tuple]]:
    """Call the ``(index, op)`` pairs of ``ops`` back to back until
    ``seconds`` have passed (or they run out). Returns per-call seconds,
    answered units, the wall time and the ``(op, items)`` pairs that
    ``keep`` chose."""
    latencies: List[float] = []
    kept: List[tuple] = []
    answered = 0
    started = time.perf_counter()
    stop_at = started + seconds
    for index, op in ops:
        began = time.perf_counter()
        if tracer is None:
            items = w.execute(service, op)
        else:
            items = tracer.run("op", lambda: w.execute(service, op), request=f"op-{index}")
        ended = time.perf_counter()
        latencies.append(ended - began)
        ok = all(item.ok for item in items)
        if run is not None:
            run.op(ok, f"{w.name} operation {index}")
        if ok:
            answered += w.size(op)
        if keep(index):
            kept.append((op, items))
        if ended >= stop_at:
            break
    return latencies, answered, time.perf_counter() - started, kept


def offline_setup(settings: Settings, w: Workload) -> float:
    """Seconds from spawning a fresh interpreter to its first answer."""
    code = (
        "from repro.service.api import SwapService\n"
        "from repro.service.requests import SolveRequest\n"
        f"service = SwapService(max_workers={w.workers})\n"
        f"{w.first_call}\n"
        "print('ready', flush=True)\n"
    )
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=settings.env
    )
    try:
        read_line(proc, 90.0)
        return time.perf_counter() - began
    finally:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def run_offline(w: Workload, s: Settings, run: Run) -> None:
    setups, factors = [], []
    service = SwapService(max_workers=w.workers)
    ops = enumerate(w.ops(s.seed, mixes.MEASURED))
    keep = _sampled(s.seed, w.sample_every)
    measured, kept = Measured(), []
    with HostSpeed() as host:
        for _ in range(s.cold_starts(3)):
            setups.append(offline_setup(s, w))
            factors.append(host.after_chunk())
        closed_calls(w, service, enumerate(w.ops(s.seed, mixes.WARMUP)), s.warmup)
        host.after_chunk()  # the first chunk's factor starts from here
        deadline = time.perf_counter() + s.seconds
        while time.perf_counter() < deadline:
            chunk = min(CHUNK_S, deadline - time.perf_counter())
            latencies, answered, wall, chunk_kept = closed_calls(w, service, ops, chunk, run, keep)
            measured.add(latencies, answered, wall, host.after_chunk())
            kept += chunk_kept
    run.metrics.update(setup_metrics(setups, factors, host))
    run.metrics.update(measured.latency_metrics())
    run.metrics.update(
        throughput_metrics(measured.units, measured.wall, measured.scaled_wall, len(measured.raw), w.unit)
    )
    rng = mixes.stream(s.seed, mixes.SAMPLING)
    for op, items in kept:
        w.check(run.checks, op, items, rng)
    run.checks.golden(service.run_batch([SolveRequest(pstar=2.0)])[0].unwrap().success_rate)


# ---------------------------------------------------------------------- #
# HTTP phases
# ---------------------------------------------------------------------- #


def http_cold_start(w: Workload, s: Settings) -> Tuple[float, ServerProcess]:
    """Seconds from spawn to the first 200 from every replica."""
    began = time.perf_counter()
    server = ServerProcess(s.env, replicas=w.http.replicas)
    try:
        server.start()
        for url in server.replica_urls or [server.url]:
            status, _body = fetch(url, SOLVE_WIRE)
            if status != 200:
                raise RuntimeError(f"first solve on {url} answered {status}")
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - began, server


@dataclass
class Phase:
    """One load phase: its timings, the generator's lateness, the
    client-side service times, and the replies kept for re-solving."""

    name: str
    measured: Measured = field(default_factory=Measured)
    lateness: List[float] = field(default_factory=list)
    client: List[float] = field(default_factory=list)
    kept: List[Tuple[HttpOp, bytes]] = field(default_factory=list)


class HttpLoad:
    """Feeds one server the workload's seeded request stream, phase by
    phase and chunk by chunk, and accounts every reply."""

    def __init__(self, w: Workload, s: Settings, server: ServerProcess, run: Run, host: HostSpeed) -> None:
        self.w, self.s, self.server, self.run, self.host = w, s, server, run, host
        self.stream = w.ops(s.seed, mixes.MEASURED)
        self.sampled = _sampled(s.seed, HTTP_SAMPLE)
        self.consumed = 0

    def prewarm(self) -> None:
        """Every key of the workload's working set, once, serially."""
        conn = Connection(self.server.url)
        try:
            for op in self.w.prewarm():
                status, body = conn.exchange(op.wire)
                self.run.op(reply_ok(op, status, body), "prewarm request")
        finally:
            conn.close()

    def warmup(self) -> None:
        """The workload's own mix from its warm-up stream, untimed."""
        rate = self.w.http.low_rate
        count = max(1, int(rate * self.s.warmup))
        ops = list(itertools.islice(self.w.ops(self.s.seed, mixes.WARMUP), count))
        with connections(self.server.url) as conns:
            open_loop(conns, [op.wire for op in ops], rate, lambda *reply: True, [False] * count)
        self.host.after_chunk()  # the first chunk's factor starts from here

    def _chunk(self, phase: Phase, conns, rate: float, count: int) -> None:
        ops = list(itertools.islice(self.stream, count))
        keep = [self.sampled(self.consumed + i) for i in range(len(ops))]
        self.consumed += len(ops)
        check = lambda i, status, body: reply_ok(ops[i], status, body)  # noqa: E731
        samples = open_loop(conns, [op.wire for op in ops], rate, check, keep)
        for sample in samples:
            self.run.op(sample.ok, f"{phase.name} request ({ops[sample.index].kind})")
            if sample.ok:
                phase.client.append(sample.done - sample.sent)
            if sample.body is not None:
                phase.kept.append((ops[sample.index], sample.body))
        phase.lateness += [sample.lateness for sample in samples]
        answered = sum(1 for sample in samples if sample.ok)
        phase.measured.add([sample.latency for sample in samples], answered, 0.0, self.host.after_chunk())

    def open_phase(self, name: str, rate: float, seconds: float) -> Phase:
        """Open loop at ``rate``, one schedule per chunk."""
        phase = Phase(name)
        chunks = max(1, round(seconds / CHUNK_S))
        with connections(self.server.url) as conns:
            for _ in range(chunks):
                self._chunk(phase, conns, rate, max(1, int(rate * seconds / chunks)))
        return phase

    def check(self, phases: Sequence[Phase]) -> None:
        status, body = fetch(self.server.url, SOLVE_WIRE)
        self.run.op(status == 200, "golden request")
        if status == 200:
            self.run.checks.golden(json.loads(body)["result"]["success_rate"])
        for phase in phases:
            for op, reply in phase.kept:
                self.run.checks.http_reply(op, reply)


def open_phase_metrics(phase: Phase, prefix: str) -> Dict[str, dict]:
    out = phase.measured.latency_metrics(prefix)
    n = len(phase.lateness)
    out[f"{prefix}loadgen.late_p50_ms"] = metric(percentile(phase.lateness, 50) * 1e3, "ms", n)
    out[f"{prefix}loadgen.late_p99_ms"] = metric(percentile(phase.lateness, 99) * 1e3, "ms", n)
    return out


def run_http(w: Workload, s: Settings, run: Run) -> None:
    setups, factors = [], []
    server: Optional[ServerProcess] = None
    with HostSpeed() as host:
        try:
            for _ in range(s.cold_starts(w.http.cold_starts)):
                if server is not None:
                    server.stop()
                seconds, server = http_cold_start(w, s)
                setups.append(seconds)
                factors.append(host.after_chunk())
            load = HttpLoad(w, s, server, run, host)
            load.prewarm()
            load.warmup()
            low = load.open_phase("low", w.http.low_rate, s.seconds * 0.25)
            cpu_before = server.cpu_seconds()
            high = load.open_phase("high", w.http.high_rate, s.seconds * 0.75)
            cpu_used = server.cpu_seconds() - cpu_before
            load.check([low, high])
        finally:
            if server is not None:
                server.stop()
    run.metrics.update(setup_metrics(setups, factors, host))
    run.metrics.update(open_phase_metrics(low, "low."))
    run.metrics.update(open_phase_metrics(high, "high."))
    run.metrics.update(high.measured.latency_metrics())
    # the high phase's requests per second of server CPU (router and
    # replicas): the rate one fully busy core would sustain
    factor = statistics.mean(high.measured.factors)
    run.metrics.update(
        throughput_metrics(
            high.measured.units, cpu_used, cpu_used * factor, len(high.measured.raw),
            "requests per server CPU second",
        )
    )


# ---------------------------------------------------------------------- #
# the traced run
# ---------------------------------------------------------------------- #


def _mean(table: Dict[str, Dict[str, float]], name: str, column: str, scale: float, unit: str) -> dict:
    row = table.get(name)
    if not row or not row["calls"]:
        raise RuntimeError(f"no {name} spans in the traced run")
    return metric(row[column] / row["calls"] * scale, unit, row["calls"])


def span_metrics(table: Dict[str, Dict[str, float]], counts: Dict[str, int]) -> Dict[str, dict]:
    """The per-layer metrics that the spans of a traced run give."""
    grid = table.get("core.solve_grid")
    if not grid or not grid["tag_sum"]:
        raise RuntimeError("no core.solve_grid spans in the traced run")
    gets = table["service.cache_get"]
    out = {
        "core.solve_grid.ms_per_point": metric(grid["total_s"] / grid["tag_sum"] * 1e3, "ms", grid["calls"]),
        "core.solve_grid.calls": metric(grid["calls"], "count", grid["calls"]),
        "core.scalar.ms": _mean(table, "core.scalar", "total_s", 1e3, "ms"),
        "stochastic.bisect.evals": metric(counts["stochastic.bisect.evals"], "count", table["stochastic.bisect"]["calls"]),
        "service.cache_get.hit_frac": metric(gets["true_tags"] / gets["calls"], "ratio", gets["calls"]),
    }
    for layer in ("pieces", "quad", "brackets", "bisect"):
        out[f"stochastic.{layer}.self_ms"] = _mean(table, f"stochastic.{layer}", "self_s", 1e3, "ms")
    for layer in ("request_key", "cache_get", "cache_put"):
        out[f"service.{layer}.self_us"] = _mean(table, f"service.{layer}", "self_s", 1e6, "us")
    return out


def traced_in_process(w: Workload, s: Settings, run: Run) -> None:
    """The same operations untraced, then traced; spans and overhead."""
    count = max(16, math.ceil(w.trace_rate * s.seconds / 3.0))
    ops = list(w.prewarm()) + list(itertools.islice(w.ops(s.seed, mixes.MEASURED), count))
    closed_calls(w, SwapService(max_workers=w.workers), enumerate(w.ops(s.seed, mixes.WARMUP)), s.warmup)
    _lat, _answered, plain_wall, _kept = closed_calls(
        w, SwapService(max_workers=w.workers), enumerate(ops), math.inf
    )
    tracer = Tracer()
    with tracer:
        _lat, _answered, traced_wall, kept = closed_calls(
            w, SwapService(max_workers=w.workers), enumerate(ops), math.inf, run,
            _sampled(s.seed, w.sample_every), tracer,
        )
        rng = mixes.stream(s.seed, mixes.SAMPLING)
        for op, items in kept:
            tracer.run("check", lambda: w.check(run.checks, op, items, rng))
    table = aggregate(tracer.spans)
    run.spans = {
        name: {"calls": row["calls"], "total_ms": row["total_s"] * 1e3, "self_ms": row["self_s"] * 1e3}
        for name, row in sorted(table.items())
    }
    run.metrics.update(span_metrics(table, tracer.counts))
    run.metrics["trace.overhead_frac"] = metric(
        traced_wall / plain_wall - 1.0, "ratio", len(ops), base="untraced pass over the same operations"
    )


def http_layer_metrics(
    prefix: str, phase: Phase, server: ServerProcess, before: Dict[str, dict], after: Dict[str, dict]
) -> Dict[str, dict]:
    """Per-layer numbers of one HTTP phase from ``/metrics`` diffs."""
    serving = server.replica_urls or [server.url]
    api = lambda labels: labels.get("route", "").startswith("/v1/")  # noqa: E731

    def handler(urls) -> Tuple[float, float]:
        count = sum(delta_sum(before[u], after[u], "repro_http_request_seconds_count", api) for u in urls)
        total = sum(delta_sum(before[u], after[u], "repro_http_request_seconds_sum", api) for u in urls)
        return total / count * 1e3, count

    handler_ms, handled = handler(serving)
    out = {
        f"{prefix}server.handler_ms": metric(handler_ms, "ms", handled),
        f"{prefix}server.rejected": metric(
            sum(delta_sum(before[u], after[u], "repro_http_rejected_total") for u in before), "count", handled
        ),
        f"{prefix}service.cache.puts": metric(
            sum(delta_sum(before[u], after[u], "repro_cache_puts_total") for u in serving), "count", handled
        ),
        f"{prefix}service.cache.evictions": metric(
            sum(delta_sum(before[u], after[u], "repro_cache_evictions_total") for u in serving), "count", handled
        ),
    }
    front_ms = handler_ms
    if server.replica_urls:
        router_b, router_a = before[server.url], after[server.url]
        proxied = delta_sum(router_b, router_a, "repro_router_proxy_seconds_count")
        proxy_ms = delta_sum(router_b, router_a, "repro_router_proxy_seconds_sum") / proxied * 1e3
        shares = [
            value - router_b.get(key, 0.0)
            for key, value in router_a.items()
            if key[0] == "repro_router_requests_total"
        ]
        front_ms, _ = handler([server.url])
        out[f"{prefix}router.proxy_ms"] = metric(proxy_ms, "ms", proxied)
        out[f"{prefix}router.hop_ms"] = metric(proxy_ms - handler_ms, "ms", proxied)
        out[f"{prefix}router.replica_share_max"] = metric(max(shares) / sum(shares), "ratio", proxied)
        out[f"{prefix}server.rejected"]["value"] += delta_sum(router_b, router_a, "repro_router_rejected_total")
    out[f"{prefix}client.minus_handler_ms"] = metric(
        statistics.mean(phase.client) * 1e3 - front_ms, "ms", len(phase.client)
    )
    return out


def traced_http(w: Workload, s: Settings, run: Run) -> None:
    with ServerProcess(s.env, replicas=w.http.replicas) as server, HostSpeed() as host:
        urls = [server.url] + server.replica_urls
        load = HttpLoad(w, s, server, run, host)
        load.prewarm()
        load.warmup()
        phases = []
        for name, rate, share in (("low", w.http.low_rate, 0.25), ("high", w.http.high_rate, 0.75)):
            before = {url: scrape(url) for url in urls}
            phase = load.open_phase(name, rate, s.seconds * share)
            after = {url: scrape(url) for url in urls}
            run.metrics.update(open_phase_metrics(phase, f"{name}."))
            run.metrics.update(http_layer_metrics(f"{name}.", phase, server, before, after))
            phases.append(phase)
        load.check(phases)


def run_traced(w: Workload, s: Settings, run: Run) -> None:
    traced_in_process(w, s, run)
    if w.http is not None:
        traced_http(w, s, run)
    failures: List[str] = []
    run.metrics.update(ladder.run_ladder(s.env, s.ladder_samples, failures))
    for message in failures:
        run.op(False, message)
    run.metrics.update(
        ladder.run_microbenchmarks(samples=5 if s.smoke else 50, rounds=1 if s.smoke else 3)
    )


def run_workload(name: str, s: Settings, trace: bool) -> dict:
    w = WORKLOADS[name]
    run = Run()
    if trace:
        run_traced(w, s, run)
    elif w.http is None:
        run_offline(w, s, run)
    else:
        run_http(w, s, run)
    return run.result()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # a SIGTERM from the runner unwinds normally, so every server this
    # process started is stopped by its ``finally``
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    settings = Settings(seed=args.seed, seconds=args.seconds, smoke=args.smoke, env=dict(os.environ))
    result = run_workload(args.workload, settings, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
