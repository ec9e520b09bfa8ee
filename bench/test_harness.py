"""Self-tests of the benchmark's own math and plumbing.

    PYTHONPATH=src:. python -m pytest bench -q

Percentiles, open-loop lateness, the ladder and the tracer run against a
fake clock; the load loops against a stub HTTP server in this process.
"""

from __future__ import annotations

import itertools
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from bench import compare, ladder, loadgen, mixes, run, stats, trace


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802
        body = b'{"ok":true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        if self.path == "/close":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


@pytest.fixture
def stub_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


# -- percentiles ---------------------------------------------------------- #


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_is_the_highest_level_with_ten_samples_beyond():
    assert stats.tail(list(range(50))) is None
    assert stats.tail(list(range(100)))[0] == 90.0
    level, value, beyond = stats.tail(list(range(1000)))
    assert (level, beyond) == (99.0, 10)
    assert value == 989
    assert stats.tail(list(range(10000)))[0] == 99.9


def test_quartiles_and_spread_match_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, median, q3 = stats.quartiles(values)
    assert median == 12.0
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / 12.0)
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)


# -- open-loop lateness against a fake clock ------------------------------- #


def test_open_loop_times_requests_from_their_due_time(stub_url):
    clock = FakeClock()
    wires = [loadgen.build_request("GET", "/")] * 5

    def check(index, status, body):
        if index == 0:
            clock.now += 0.03  # the generator stalls for three intervals
        return status == 200 and json.loads(body)["ok"]

    with loadgen.connections(stub_url, 1) as conns:
        samples = loadgen.open_loop(
            conns, wires, rate=100.0, check=check, keep=[False] * 5, clock=clock, sleep=clock.sleep
        )
    assert [s.index for s in samples] == list(range(5))
    assert all(s.ok for s in samples)
    due = [s.due - samples[0].due for s in samples]
    assert due == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])
    # requests queued behind the stall are late by what is left of it
    assert [s.lateness for s in samples] == pytest.approx([0.0, 0.02, 0.01, 0.0, 0.0])
    assert [s.latency for s in samples] == pytest.approx([0.0, 0.02, 0.01, 0.0, 0.0])


def test_open_loop_keeps_sampled_bodies_over_shared_connections(stub_url):
    wires = [loadgen.build_request("GET", "/")] * 40
    keep = [i % 10 == 0 for i in range(40)]
    with loadgen.connections(stub_url, 2) as conns:
        samples = loadgen.open_loop(conns, wires, 2000.0, lambda i, st, b: st == 200, keep)
        again = loadgen.open_loop(conns, wires[:4], 2000.0, lambda i, st, b: st == 200, keep)
    assert len(samples) == 40 and all(s.ok for s in samples) and len(again) == 4
    assert [s.index for s in samples if s.body is not None] == [0, 10, 20, 30]
    assert all(s.latency >= s.lateness >= -1e-9 for s in samples)


def test_connection_reconnects_after_connection_close(stub_url):
    conn = loadgen.Connection(stub_url)
    try:
        for path in ("/", "/close", "/", "/"):
            status, body = conn.exchange(loadgen.build_request("GET", path))
            assert (status, body) == (200, b'{"ok":true}')
    finally:
        conn.close()


def test_prometheus_parsing_and_deltas():
    before = loadgen.parse_prometheus(
        '# HELP x\nrepro_http_request_seconds_count{route="/v1/solve"} 2\n'
        'repro_http_request_seconds_count{route="/metrics"} 5\n'
    )
    after = loadgen.parse_prometheus(
        'repro_http_request_seconds_count{route="/v1/solve"} 12\n'
        'repro_http_request_seconds_count{route="/metrics"} 6\n'
        'repro_http_request_seconds_count{route="/v1/sweep"} 3\n'
    )
    api = lambda labels: labels["route"].startswith("/v1/")  # noqa: E731
    assert loadgen.delta_sum(before, after, "repro_http_request_seconds_count", api) == 13.0
    assert loadgen.delta_sum(before, after, "repro_http_request_seconds_count") == 14.0


# -- the ladder ------------------------------------------------------------ #


def test_serial_samples_skip_the_warm_call_and_rung_names():
    clock = FakeClock()
    steps = itertools.count(1)
    seconds = ladder.serial_seconds(lambda: clock.sleep(next(steps) * 1e-3), 10, clock=clock)
    assert seconds == pytest.approx([k * 1e-3 for k in range(2, 12)])
    rung = ladder.rung_metrics("scalar", seconds)
    assert rung["ladder.scalar_ms"]["value"] == pytest.approx(6.0)
    assert rung["ladder.scalar_p90_ms"]["value"] == pytest.approx(10.0)
    assert rung["ladder.scalar_ms"]["n"] == 10


# -- tracing --------------------------------------------------------------- #


def test_spans_self_time_and_request_ids():
    clock = FakeClock(0.0)
    tracer = trace.Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.sleep(1.0))

    def middle():
        clock.sleep(2.0)
        leaf()
        leaf()

    traced_middle = tracer.wrap("middle", middle)
    tracer.run("op", traced_middle, request="op-7")
    table = trace.aggregate(tracer.spans)
    assert table["leaf"]["calls"] == 2 and table["leaf"]["self_s"] == pytest.approx(2.0)
    assert table["middle"]["total_s"] == pytest.approx(4.0)
    assert table["middle"]["self_s"] == pytest.approx(2.0)
    assert table["op"]["self_s"] == pytest.approx(0.0)
    assert {span.request for span in tracer.spans} == {"op-7"}
    root = next(span for span in tracer.spans if span.name == "op")
    assert root.parent is None


def test_install_wraps_entry_points_and_uninstall_restores_them():
    from repro.core import solver
    from repro.core.parameters import SwapParameters
    from repro.service import executor

    original = solver.solve_swap_game
    with trace.Tracer() as tracer:
        assert executor.solve_swap_game is not original
        executor.solve_swap_game(SwapParameters.default(), 2.0)
    assert solver.solve_swap_game is original and executor.solve_swap_game is original
    names = {span.name for span in tracer.spans}
    assert {"core.scalar", "stochastic.pieces", "stochastic.quad"} <= names
    scalar = next(span for span in tracer.spans if span.name == "core.scalar")
    assert scalar.parent is None


# -- compare --------------------------------------------------------------- #


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    faster = [80.0 + i for i in range(10)]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    slower = [120.0 + i for i in range(10)]
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "regressed"
    same = [100.5 + i for i in range(10)]
    assert compare.verdict(parent, same, "lower", 0.1)["verdict"] == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(parent, slower, "lower", None)["verdict"] == "regressed"
    assert compare.verdict(parent, same, "higher", None)["verdict"] == "unchanged"
    row = compare.verdict(parent, faster, "lower", 0.1)
    assert row["win_share"] == 1.0 and row["pairs"] == 10


def test_compare_rows_per_workload():
    spec = {
        "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }

    def runs(values):
        return [{"workloads": {"a": {"metrics": {"p50_ms": {"value": v}}}}} for v in values]

    table = compare.rows(spec, runs([1.0, 1.01, 1.02]), runs([1.0, 1.01, 1.02]))
    assert [(r["workload"], r["verdict"]) for r in table] == [("a", "unchanged")]
    # a parent spread wider than the bound cannot show "within the bound"
    table = compare.rows(spec, runs([1.0, 1.1, 1.2]), runs([1.0, 1.1, 1.2]))
    assert [r["verdict"] for r in table] == ["unresolved"]


# -- the runner's final line ------------------------------------------------ #


def test_summary_requires_every_declared_metric_with_its_unit():
    spec = {
        "end_to_end": [{"name": "p50_ms", "unit": "ms"}],
        "per_layer": [{"name": "core.scalar.ms", "unit": "ms"}],
    }
    good = {"metrics": {"p50_ms": {"value": 1.5, "unit": "ms", "n": 3}}, "attempted": 3, "failed": 0}
    assert run.summary(spec, 0, {"w": good}) == {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"p50_ms": {"value": 1.5, "unit": "ms"}},
    }
    assert run.summary(spec, 1, {"w": good})["correct"] is False
    wrong_unit = dict(good, metrics={"p50_ms": {"value": 1.5, "unit": "s", "n": 3}})
    assert run.summary(spec, 0, {"w": wrong_unit})["correct"] is False
    assert run.summary(spec, 0, {"w": dict(good, failed=1)})["correct"] is False
    assert run.summary(spec, 0, {"w": {"error": "boom"}})["correct"] is False


# -- seeded inputs ----------------------------------------------------------- #


def test_mixes_repeat_per_seed_and_keep_exact_block_shares():
    first = list(itertools.islice(mixes.sweep_calls(mixes.stream(3, 0)), 40))
    again = list(itertools.islice(mixes.sweep_calls(mixes.stream(3, 0)), 40))
    assert first == again
    labels = [call.label if not call.repeat else "repeat" for call in first[:20]]
    assert sorted(labels) == sorted(mixes.SWEEP_BLOCK)
    assert not first[0].repeat
    ops = list(itertools.islice(mixes.miss_ops(mixes.stream(3, 0)), 20))
    kinds = sorted(op.kind for op in ops)
    assert kinds.count("sweep") + kinds.count("validate") in (2, 3, 4)
    batch = mixes.fresh_batch(np.random.default_rng(0))
    assert len(batch) == 64 and len(set(batch)) == 56
