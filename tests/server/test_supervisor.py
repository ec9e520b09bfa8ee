"""Replica supervision: restart policy, flap parking, self-healing.

The policy half runs :class:`ReplicaSupervisor` against a fake clock
(backoff bands, deterministic jitter, the flap detector) with no
subprocesses. The integration half runs the real sharded tier with
owned replica subprocesses and pins the self-healing contract: a
``kill -9`` is detected, the replica is restarted with its announce
handshake replayed, and it rejoins the ring only after ``/readyz``
passes -- all while the survivor keeps answering. The
``replica_crash_loop`` chaos kind proves a replica that dies on every
boot ends up *parked*, not restarted forever.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.faults import FaultSpec, InjectionPlan
from repro.faults.injector import build_injector
from repro.server import RouterServer, ServerConfig
from repro.server.replica import ReplicaSet, ReplicaSupervisor
from tests.faults.conftest import counter_value, registry  # noqa: F401
from tests.server.conftest import request_in_thread


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_supervisor(clock, **kwargs) -> ReplicaSupervisor:
    kwargs.setdefault("backoff", 1.0)
    kwargs.setdefault("cap", 100.0)
    kwargs.setdefault("flap_limit", 10)
    kwargs.setdefault("flap_window", 1000.0)
    return ReplicaSupervisor(clock=clock, **kwargs)


class TestBackoffPolicy:
    def test_delays_grow_exponentially_in_jitter_bands(self):
        clock = FakeClock()
        sup = make_supervisor(clock)
        # jitter is [0.5, 1.0)x, so successive bands never overlap
        for low, high in ((0.5, 1.0), (1.0, 2.0), (2.0, 4.0)):
            delay = sup.note_failure("replica-0")
            assert low <= delay < high
            sup.note_restarted("replica-0")
            clock.advance(delay + 0.1)

    def test_backoff_is_capped(self):
        clock = FakeClock()
        sup = make_supervisor(clock, cap=2.0)
        for _ in range(6):
            delay = sup.note_failure("replica-0")
            sup.note_restarted("replica-0")
        assert delay <= 2.0

    def test_jitter_is_deterministic_per_replica_and_death(self):
        # a replayed chaos run must back off identically
        first = make_supervisor(FakeClock(), seed=7)
        second = make_supervisor(FakeClock(), seed=7)
        for _ in range(3):
            assert first.note_failure("replica-0") == second.note_failure(
                "replica-0"
            )
        # ... but different replicas do not respawn in lockstep
        third = make_supervisor(FakeClock(), seed=7)
        assert third.note_failure("replica-1") != first.backoff_of("replica-0")

    def test_pending_becomes_due_when_the_backoff_elapses(self):
        clock = FakeClock()
        sup = make_supervisor(clock)
        delay = sup.note_failure("replica-0")
        assert sup.pending("replica-0")
        assert not sup.due("replica-0")
        clock.advance(delay)
        assert sup.due("replica-0")
        sup.note_restarted("replica-0")
        assert not sup.pending("replica-0")
        assert sup.backoff_of("replica-0") == 0.0

    def test_unknown_replicas_are_quiet(self):
        sup = make_supervisor(FakeClock())
        assert not sup.pending("ghost")
        assert not sup.due("ghost")
        assert not sup.parked("ghost")

    def test_restart_without_a_replica_set_is_an_error(self):
        sup = make_supervisor(FakeClock())
        with pytest.raises(RuntimeError):
            sup.restart("replica-0")


class TestFlapDetector:
    def test_flap_limit_deaths_inside_the_window_parks(self):
        clock = FakeClock()
        sup = make_supervisor(clock, flap_limit=3, flap_window=60.0)
        assert sup.note_failure("replica-0") is not None
        assert sup.note_failure("replica-0") is not None
        assert sup.note_failure("replica-0") is None  # parked
        assert sup.parked("replica-0")
        assert not sup.pending("replica-0")  # no restart will fire

    def test_announce_then_die_loops_still_park(self):
        # note_restarted must NOT reset the death window: a binary that
        # boots, announces, then segfaults would otherwise loop forever
        clock = FakeClock()
        sup = make_supervisor(clock, flap_limit=3, flap_window=60.0)
        for expected_parked in (False, False, True):
            sup.note_failure("replica-0")
            sup.note_restarted("replica-0")
            assert sup.parked("replica-0") is expected_parked
            clock.advance(1.0)

    def test_slow_deaths_outside_the_window_never_park(self):
        clock = FakeClock()
        sup = make_supervisor(clock, flap_limit=3, flap_window=10.0)
        for _ in range(6):
            assert sup.note_failure("replica-0") is not None
            sup.note_restarted("replica-0")
            clock.advance(11.0)  # each death ages out before the next
        assert not sup.parked("replica-0")

    def test_unpark_forgives_the_flap_history(self):
        clock = FakeClock()
        sup = make_supervisor(clock, flap_limit=2, flap_window=60.0)
        sup.note_failure("replica-0")
        sup.note_failure("replica-0")
        assert sup.parked("replica-0")
        sup.unpark("replica-0")
        assert not sup.parked("replica-0")
        # the slate is clean: the next death schedules a first-death delay
        delay = sup.note_failure("replica-0")
        assert 0.5 <= delay < 1.0

    def test_forget_clears_every_trace(self):
        clock = FakeClock()
        sup = make_supervisor(clock, flap_limit=2, flap_window=60.0)
        sup.note_failure("replica-0")
        sup.note_failure("replica-0")
        sup.forget("replica-0")
        assert sup.state("replica-0") == {
            "deaths": 0,
            "backoff": 0.0,
            "pending": False,
            "parked": False,
        }

    def test_state_reports_the_operator_view(self):
        clock = FakeClock()
        sup = make_supervisor(clock)
        delay = sup.note_failure("replica-0")
        state = sup.state("replica-0")
        assert state["deaths"] == 1
        assert state["backoff"] == round(delay, 4)
        assert state["pending"] is True
        assert state["parked"] is False


def _owned_router(registry, **overrides) -> RouterServer:
    """A router that owns two real replica subprocesses."""
    overrides.setdefault("replicas", 2)
    overrides.setdefault("probe_interval", 0.1)
    overrides.setdefault("probe_failures", 2)
    overrides.setdefault("restart_backoff", 0.05)
    overrides.setdefault("restart_backoff_cap", 0.2)
    return RouterServer(ServerConfig(port=0, **overrides)).start()


def _wait_for(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(message)


@pytest.mark.slow
class TestSelfHealing:
    def test_kill9_restart_replays_announce_and_readmits(self, registry):
        """The full heal: probe eject -> supervised restart (fresh pid,
        fresh announce) -> /readyz-gated readmission to the ring."""
        router = _owned_router(registry)
        try:
            from repro.server.client import RetryPolicy, SwapClient

            client = SwapClient(
                f"http://127.0.0.1:{router.port}",
                retry=RetryPolicy(max_attempts=4, base_delay=0.05),
                timeout=30.0,
            )
            baseline = client.solve(pstar=2.0).success_rate
            victim = router._replica_set.process("replica-0")
            old_pid = victim.pid
            os.kill(old_pid, signal.SIGKILL)

            # the survivor answers throughout the outage
            for _ in range(3):
                assert client.solve(pstar=2.0).success_rate == baseline

            def healed() -> bool:
                fresh = router._replica_set.process("replica-0")
                return (
                    fresh.alive
                    and fresh.pid != old_pid
                    and "replica-0" in router.ring.nodes
                )

            _wait_for(healed, 10.0, "replica-0 was never restored")
            assert (
                counter_value(
                    registry,
                    "repro_supervisor_restarts_total",
                    replica="replica-0",
                )
                == 1.0
            )
            # the ordering left its trail: the probe ejected the dead
            # replica before the supervisor readmitted the fresh one
            assert (
                counter_value(
                    registry,
                    "repro_router_probe_total",
                    replica="replica-0",
                    outcome="eject",
                )
                >= 1.0
            )
            assert (
                counter_value(
                    registry,
                    "repro_router_probe_total",
                    replica="replica-0",
                    outcome="readmit",
                )
                >= 1.0
            )
            # the healed replica serves its keyslice again
            assert client.solve(pstar=2.0).success_rate == baseline
        finally:
            router.shutdown(drain=False)

    def test_crash_loop_parks_instead_of_restarting_forever(self, registry):
        """``replica_crash_loop``: every supervised respawn is killed
        before it can announce; the flap detector must park."""
        router = _owned_router(registry, flap_limit=2, flap_window=60.0)
        try:
            plan = InjectionPlan(
                faults=(FaultSpec(kind="replica_crash_loop", count=4),),
                seed=3,
            )
            router._supervisor._faults = build_injector(plan)
            victim = router._replica_set.process("replica-1")
            os.kill(victim.pid, signal.SIGKILL)

            _wait_for(
                lambda: router._supervisor.parked("replica-1"),
                15.0,
                "crash-looping replica was never parked",
            )
            assert (
                counter_value(
                    registry,
                    "repro_supervisor_restart_failures_total",
                    replica="replica-1",
                )
                >= 1.0
            )
            assert "replica-1" not in router.ring.nodes
            # parked means *stopped restarting*, not broken service:
            from repro.server.client import RetryPolicy, SwapClient

            client = SwapClient(
                f"http://127.0.0.1:{router.port}",
                retry=RetryPolicy(max_attempts=4, base_delay=0.05),
                timeout=30.0,
            )
            assert client.solve(pstar=2.0).success_rate is not None
        finally:
            router.shutdown(drain=False)

    def test_sigterm_drain_races_a_live_reshard(self, registry):
        """A drain shutdown issued while an admin remove is mid-flight:
        both must complete -- no deadlock, no crash."""
        router = _owned_router(registry, admin_token="race", drain_timeout=2.0)
        try:
            from repro.server.client import ClientError, RetryPolicy, SwapClient

            client = SwapClient(
                f"http://127.0.0.1:{router.port}",
                retry=RetryPolicy(max_attempts=1, base_delay=0.01),
                timeout=10.0,
                admin_token="race",
            )
            assert client.solve(pstar=2.0).success_rate is not None
            remover = request_in_thread(
                lambda: client.admin_remove("replica-1")
            )
            time.sleep(0.05)  # let the remove enter its drain
            started = time.monotonic()
            router.shutdown(drain=True)
            assert time.monotonic() - started < 30.0  # no deadlock
            remover.join(timeout=20.0)
            assert not remover.is_alive(), "admin remove hung over the drain"
            # the remove either finished before the drain won the race
            # or was cut off by it -- a typed client error, never a hang
            if remover.error is not None:
                assert isinstance(remover.error, ClientError)
            else:
                assert remover.value.get("ok") is True
        finally:
            router.shutdown(drain=False)


@pytest.mark.slow
def test_stop_closes_the_replica_stdout_pipe():
    """A stopped replica leaves no open pipe behind: its announce
    reader reaches EOF, and ``stop`` then closes the pipe it read."""
    replicas = ReplicaSet(ServerConfig(port=0), 1)
    with replicas:
        (replica,) = replicas.replicas
        pipe = replica._process.stdout
        assert not pipe.closed
    assert replica._process.returncode is not None
    assert pipe.closed
