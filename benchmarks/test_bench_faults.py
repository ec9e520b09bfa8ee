"""Benchmark S4: what the fault-injection machinery costs.

Not a paper artifact -- this prices the robustness layer. Three
measurements: (a) the overhead of a *disabled* injector (the
``NullInjector`` path every production caller takes) versus a service
built without ``faults=`` at all, which must stay under 2%; (b) the
wall-clock cost of healing a pool break -- a ``worker_crash`` on one
request of a batch, measured as the extra time over a fault-free run
of the same batch (pool teardown + rebuild + requeue); (c) the cost of
quarantining a corrupt disk-cache entry versus a plain miss.

Under ``REPRO_BENCH_SMOKE=1`` (the CI smoke lane) the timing
assertions relax; the correctness assertions always hold.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import emit
from repro.core.parameters import SwapParameters
from repro.faults import FaultSpec, InjectionPlan
from repro.service.api import SwapService
from repro.service.cache import DiskCache
from repro.service.requests import SolveRequest

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
OVERHEAD_CEILING = 0.02  # disabled injector must cost < 2%
PSTARS = [1.6 + 0.05 * k for k in range(8)]
ROUNDS = 30


def _requests():
    return [SolveRequest(pstar=pstar) for pstar in PSTARS]


def _pooled_requests(shift=0.0):
    """One solve per P*, each with its own params: groups of one, which
    the answer chain dispatches to the worker pool."""
    base = SwapParameters.default()
    return [
        SolveRequest(pstar=p + shift, params=base.replace(sigma=0.1 + 0.001 * k))
        for k, p in enumerate(PSTARS)
    ]


def _best_of(fn, rounds):
    """Best-of-N wall time: robust against scheduler noise."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_injector_overhead_under_2_percent():
    bare = SwapService(max_workers=1)
    nulled = SwapService(max_workers=1)  # faults=None -> NULL_INJECTOR
    assert not nulled.faults.enabled

    # warm both memory caches so the measured loop is pure hot path
    bare.run_batch(_requests())
    nulled.run_batch(_requests())
    assert [i.unwrap().success_rate for i in bare.run_batch(_requests())] == [
        i.unwrap().success_rate for i in nulled.run_batch(_requests())
    ]

    bare_s = _best_of(lambda: bare.run_batch(_requests()), ROUNDS)
    nulled_s = _best_of(lambda: nulled.run_batch(_requests()), ROUNDS)
    overhead = nulled_s / bare_s - 1.0

    emit(
        "S4 disabled-injector overhead (warm 8-point batch, best of 30)",
        f"no injector   : {bare_s * 1e6:.1f}us\n"
        f"null injector : {nulled_s * 1e6:.1f}us\n"
        f"overhead      : {overhead * 100:+.2f}% (ceiling {OVERHEAD_CEILING:.0%})",
    )
    if not SMOKE:
        assert overhead < OVERHEAD_CEILING, (
            f"disabled injector costs {overhead:.1%}"
        )


def test_pool_rebuild_recovery_latency():
    clean = SwapService(max_workers=2)
    clean.run_batch(_pooled_requests())  # warm: imports, pool spin-up
    t0 = time.perf_counter()
    baseline_items = clean.run_batch(_pooled_requests(1.0))
    clean_s = time.perf_counter() - t0

    # after=8: the 8 warm-batch dispatches pass untouched, the 9th --
    # the first job of the measured batch -- crashes its worker
    plan = InjectionPlan(
        faults=(FaultSpec(kind="worker_crash", after=8, count=1),), seed=3
    )
    chaotic = SwapService(max_workers=2, faults=plan)
    chaotic.run_batch(_pooled_requests())  # warm: imports, decisions 1-8
    t0 = time.perf_counter()
    healed_items = chaotic.run_batch(_pooled_requests(1.0))
    healed_s = time.perf_counter() - t0

    assert all(item.ok for item in healed_items)
    assert [i.unwrap().success_rate for i in healed_items] == [
        i.unwrap().success_rate for i in baseline_items
    ]
    assert chaotic.faults.injected_total("worker_crash") >= 1
    recovery = healed_s - clean_s

    emit(
        "S4 pool-rebuild recovery (8-point batch, one worker_crash)",
        f"fault-free batch : {clean_s * 1e3:.1f}ms\n"
        f"healed batch     : {healed_s * 1e3:.1f}ms\n"
        f"recovery cost    : {recovery * 1e3:.1f}ms "
        f"(teardown + rebuild + requeue)",
    )
    if not SMOKE:
        assert healed_s < 60.0  # healing is bounded, never a hang


def test_quarantine_cost_versus_plain_miss(tmp_path):
    service = SwapService(max_workers=1, cache_dir=str(tmp_path / "seed"))
    request = SolveRequest(pstar=2.0)
    service.run_batch([request])  # populate one disk entry
    [entry] = list((tmp_path / "seed").glob("*.json"))

    miss_cache = DiskCache(str(tmp_path / "seed"))
    t0 = time.perf_counter()
    assert miss_cache.get("no-such-key") is None
    miss_s = time.perf_counter() - t0

    entry.write_text('{"key": "rotten')  # torn write
    corrupt_cache = DiskCache(str(tmp_path / "seed"))
    key = entry.name[: -len(".json")]
    t0 = time.perf_counter()
    assert corrupt_cache.get(key) is None
    quarantine_s = time.perf_counter() - t0

    assert corrupt_cache.stats.corrupt == 1
    assert entry.with_name(entry.name + ".quarantine").exists()
    assert not entry.exists()

    emit(
        "S4 quarantine cost (one corrupt entry vs plain miss)",
        f"plain miss : {miss_s * 1e6:.1f}us\n"
        f"quarantine : {quarantine_s * 1e6:.1f}us "
        f"(read + decode attempt + rename)",
    )
    if not SMOKE:
        assert quarantine_s < 0.5  # a rename, not a rebuild
