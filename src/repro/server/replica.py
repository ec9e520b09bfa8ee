"""Replica subprocess management for the sharded serving tier.

Each shard of ``repro-swaps serve --replicas N`` is a full local-role
server (:class:`~repro.server.app.SwapServer`) in its own process:
its own ``SwapService``, its own surface/cache/engine chain, its own
GIL. The router process never solves anything -- scale-out is real
processes, not threads.

:class:`ReplicaProcess` wraps one such subprocess: it is spawned as
``python -m repro.cli serve --port 0 ...`` (flags derived from the
router's :class:`~repro.server.config.ServerConfig`), and its bound
port is discovered from the one-line JSON *announce* the serve command
prints on stdout (``{"event": "listening", "host", "port", "pid"}``)
-- the same contract the CI smoke test and human operators already
rely on. :class:`ReplicaSet` spawns N of them concurrently (cold
starts overlap), names them ``replica-0..N-1`` for metric labels and
ring membership, and tears them down with SIGTERM so each drains
gracefully.

Per-replica resource carve-outs:

* ``cache_dir`` becomes ``cache_dir/replica-i`` -- shards own disjoint
  keyslices, so sharing one disk tier would only serialise writes;
* ``fault_plan`` passes through unchanged (one plan drives chaos
  everywhere);
* ``metrics_out`` stays with the router: only the router's registry
  is written there, and each replica's stays in its own process.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.logging import get_logger
from repro.server.config import ServerConfig

__all__ = [
    "ReplicaProcess",
    "ReplicaSet",
    "ReplicaSupervisor",
    "replica_command",
]

_ANNOUNCE_TIMEOUT = 60.0  # cold numpy/scipy imports on a loaded box


def replica_command(config: ServerConfig, cache_dir: Optional[str]) -> List[str]:
    """The argv for one replica subprocess derived from ``config``.

    The replica binds an ephemeral port on loopback: the router is the
    only intended caller, and the announce line reports the real port.
    """
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--workers",
        str(config.workers),
        "--queue-depth",
        str(config.queue_depth),
        "--max-body-bytes",
        str(config.max_body_bytes),
        "--drain-timeout",
        str(config.drain_timeout),
    ]
    if config.deadline is not None:
        argv += ["--deadline", str(config.deadline)]
    if cache_dir is not None:
        argv += ["--cache-dir", cache_dir]
    if config.cache_entries is not None:
        argv += ["--cache-entries", str(config.cache_entries)]
    if config.timeout is not None:
        argv += ["--timeout", str(config.timeout)]
    if config.fault_plan is not None:
        argv += ["--fault-plan", config.fault_plan]
    if config.surface is not None:
        argv += ["--surface", config.surface]
    if config.tolerance is not None:
        argv += ["--tolerance", str(config.tolerance)]
    return argv


class ReplicaProcess:
    """One shard: a local-role ``SwapServer`` subprocess on loopback."""

    def __init__(self, name: str, config: ServerConfig) -> None:
        self.name = name
        cache_dir = (
            os.path.join(config.cache_dir, name)
            if config.cache_dir is not None
            else None
        )
        self._argv = replica_command(config, cache_dir)
        self._process: Optional[subprocess.Popen] = None
        self._announce: Optional[dict] = None
        self._announced = threading.Event()
        self._reader: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------ #

    def spawn(self) -> None:
        """Start the subprocess; returns immediately (no port yet)."""
        self._process = subprocess.Popen(
            self._argv,
            stdout=subprocess.PIPE,
            stderr=None,  # replica tracebacks surface on the router's stderr
            text=True,
        )
        # one reader per replica: capture the announce line, then keep
        # draining so a chatty subprocess can never block on the pipe
        self._reader = threading.Thread(
            target=self._read_stdout, name=f"repro-{self.name}-out", daemon=True
        )
        self._reader.start()

    def _read_stdout(self) -> None:
        assert self._process is not None and self._process.stdout is not None
        for line in self._process.stdout:
            if not self._announced.is_set():
                try:
                    event = json.loads(line)
                    if event.get("event") == "listening":
                        self._announce = event
                        self._announced.set()
                except (ValueError, TypeError):
                    pass
        self._announced.set()  # EOF: wake any waiter (spawn failed)

    def wait_ready(self, timeout: float = _ANNOUNCE_TIMEOUT) -> Tuple[str, int]:
        """Block until the announce line arrives; ``(host, port)``.

        Raises ``RuntimeError`` when the subprocess dies (or stays
        silent past ``timeout``) instead -- a replica that cannot bind
        is a deployment error, not something to route around.
        """
        deadline = time.monotonic() + timeout
        while not self._announced.wait(timeout=0.1):
            if time.monotonic() > deadline:
                self.stop(drain=False)
                raise RuntimeError(
                    f"{self.name} did not announce within {timeout:g}s"
                )
        if self._announce is None:
            code = self._process.poll() if self._process else None
            raise RuntimeError(
                f"{self.name} exited (code {code}) before announcing its port"
            )
        return str(self._announce["host"]), int(self._announce["port"])

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def stop(self, drain: bool = True, timeout: float = 15.0) -> Optional[int]:
        """SIGTERM (graceful drain inside the replica), then reap.

        Escalates to SIGKILL if the replica ignores the term past
        ``timeout``. Returns the exit code (``None`` if never spawned).
        """
        if self._process is None:
            return None
        if self._process.poll() is None:
            self._process.terminate()
            try:
                self._process.wait(timeout=timeout if drain else 1.0)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait(timeout=5.0)
        if self._reader is not None:
            self._reader.join(timeout=1.0)
            if not self._reader.is_alive():
                # read to EOF; closing under a live reader would block on
                # its buffer lock
                self._process.stdout.close()
        return self._process.returncode


class ReplicaSet:
    """N replicas spawned together, stopped together.

    Usable as a context manager; :meth:`start` returns the endpoint
    list in replica order -- the input to the router's hash ring.
    """

    def __init__(self, config: ServerConfig, count: int) -> None:
        if count < 1:
            raise ValueError(f"replica count must be >= 1, got {count}")
        self.config = config
        self.replicas = [
            ReplicaProcess(f"replica-{i}", config) for i in range(count)
        ]
        self.endpoints: List[Tuple[str, int]] = []
        self._created = count  # monotonic name allocator: names never recycle

    @property
    def names(self) -> List[str]:
        return [replica.name for replica in self.replicas]

    def process(self, name: str) -> ReplicaProcess:
        for replica in self.replicas:
            if replica.name == name:
                return replica
        raise KeyError(f"no replica named {name!r}")

    def next_name(self) -> str:
        """A never-before-used replica name (metric labels stay unique)."""
        name = f"replica-{self._created}"
        self._created += 1
        return name

    def respawn(self, name: str, faults=None) -> Tuple[str, int]:
        """Replace a dead replica with a fresh subprocess, same name.

        Blocking: reaps the old process, spawns the new one, replays
        the announce handshake. Raises ``RuntimeError`` when the fresh
        process dies before announcing (the supervisor counts that as
        another death and backs off).
        """
        index = next(
            (i for i, r in enumerate(self.replicas) if r.name == name), None
        )
        if index is None:
            raise KeyError(f"no replica named {name!r}")
        self.replicas[index].stop(drain=False, timeout=1.0)
        fresh = ReplicaProcess(name, self.config)
        fresh.spawn()
        if faults is not None and faults.enabled and faults.fires(
            "replica_crash_loop", key=name
        ):
            # the chaos plan declared this restart doomed: kill the
            # subprocess before it can announce, exactly like a replica
            # that segfaults on boot
            fresh._process.kill()
        try:
            endpoint = fresh.wait_ready()
        except RuntimeError:
            fresh.stop(drain=False)
            raise
        self.replicas[index] = fresh
        if index < len(self.endpoints):
            self.endpoints[index] = endpoint
        return endpoint

    def add_process(self, name: Optional[str] = None) -> Tuple[str, str, int]:
        """Spawn one more replica; ``(name, host, port)`` once announced."""
        if name is None:
            name = self.next_name()
        if any(replica.name == name for replica in self.replicas):
            raise ValueError(f"replica {name!r} already exists")
        fresh = ReplicaProcess(name, self.config)
        fresh.spawn()
        try:
            host, port = fresh.wait_ready()
        except RuntimeError:
            fresh.stop(drain=False)
            raise
        self.replicas.append(fresh)
        self.endpoints.append((host, port))
        return name, host, port

    def remove_process(self, name: str, drain: bool = True) -> Optional[int]:
        """SIGTERM one replica (graceful drain inside it) and forget it."""
        index = next(
            (i for i, r in enumerate(self.replicas) if r.name == name), None
        )
        if index is None:
            raise KeyError(f"no replica named {name!r}")
        replica = self.replicas.pop(index)
        if index < len(self.endpoints):
            self.endpoints.pop(index)
        return replica.stop(drain=drain)

    def start(self) -> List[Tuple[str, int]]:
        """Spawn all replicas, wait for every announce; endpoints."""
        started = time.monotonic()
        for replica in self.replicas:
            replica.spawn()
        try:
            self.endpoints = [
                replica.wait_ready() for replica in self.replicas
            ]
        except Exception:
            self.stop(drain=False)
            raise
        get_logger().log(
            "replicas_ready",
            count=len(self.replicas),
            seconds=round(time.monotonic() - started, 3),
            ports=[port for _host, port in self.endpoints],
        )
        return list(self.endpoints)

    def stop(self, drain: bool = True) -> None:
        """SIGTERM every replica, then reap them all."""
        for replica in self.replicas:
            if replica.alive:
                replica._process.terminate()  # overlap the drains
        for replica in self.replicas:
            replica.stop(drain=drain)

    def __enter__(self) -> "ReplicaSet":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ReplicaSupervisor:
    """Restart policy + mechanics for a fleet of owned replicas.

    The router's event loop *drives* this object (detect death, ask
    when to restart, run the blocking restart in an executor); the
    object itself holds all per-replica state, so the policy is unit
    testable with a fake clock and no subprocesses:

    * **backoff** -- the n-th death inside ``flap_window`` schedules a
      restart after ``backoff * 2**n`` seconds (capped at ``cap``),
      jittered deterministically per replica so a correlated crash of
      the whole fleet does not respawn in lockstep;
    * **flap detection** -- ``flap_limit`` deaths inside
      ``flap_window`` *parks* the replica: the supervisor stops
      restarting it (a crash-looping binary would burn CPU forever)
      until :meth:`unpark` or an admin replacement.

    State machine per replica::

        healthy --death--> waiting(backoff) --due--> restarting
           ^                    |                        |
           |                    +--death x flap_limit--> parked
           +------readmitted (caller re-adds to ring)----+
    """

    def __init__(
        self,
        replica_set: Optional[ReplicaSet] = None,
        backoff: float = 0.5,
        cap: float = 10.0,
        flap_limit: int = 5,
        flap_window: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        faults=None,
        seed: int = 0,
    ) -> None:
        self._replica_set = replica_set
        self.backoff = float(backoff)
        self.cap = float(cap)
        self.flap_limit = int(flap_limit)
        self.flap_window = float(flap_window)
        self._clock = clock
        self._faults = faults
        self._seed = int(seed)
        self._deaths: Dict[str, deque] = {}
        self._due: Dict[str, float] = {}
        self._delay: Dict[str, float] = {}
        self._parked: set = set()

    # -- policy ---------------------------------------------------------- #

    def _rng(self, name: str) -> random.Random:
        return random.Random(
            f"{self._seed}:{name}:{len(self._deaths.get(name, ()))}"
        )

    def note_failure(self, name: str) -> Optional[float]:
        """Record one detected death; schedule the next restart.

        Returns the backoff delay in seconds, or ``None`` when the flap
        detector just parked the replica.
        """
        now = self._clock()
        deaths = self._deaths.setdefault(name, deque())
        deaths.append(now)
        while deaths and now - deaths[0] > self.flap_window:
            deaths.popleft()
        if len(deaths) >= self.flap_limit:
            self._parked.add(name)
            self._due.pop(name, None)
            self._delay.pop(name, None)
            return None
        exponent = len(deaths) - 1
        delay = min(self.cap, self.backoff * (2.0 ** exponent))
        # deterministic jitter in [0.5, 1.0)x: seeded per (replica,
        # death count), so a replayed chaos run backs off identically
        delay *= 0.5 + 0.5 * self._rng(name).random()
        self._due[name] = now + delay
        self._delay[name] = delay
        return delay

    def pending(self, name: str) -> bool:
        """Whether a restart is scheduled (waiting or due)."""
        return name in self._due

    def due(self, name: str) -> bool:
        """Whether the scheduled restart's backoff has elapsed."""
        due_at = self._due.get(name)
        return due_at is not None and self._clock() >= due_at

    def parked(self, name: str) -> bool:
        return name in self._parked

    def backoff_of(self, name: str) -> float:
        """The delay of the pending restart (0 when none is pending)."""
        return self._delay.get(name, 0.0)

    def note_restarted(self, name: str) -> None:
        """The caller readmitted the replica: clear the pending slot.

        The death window deliberately survives -- a replica that keeps
        announcing and then dying must still trip the flap detector.
        """
        self._due.pop(name, None)
        self._delay.pop(name, None)

    def unpark(self, name: str) -> None:
        """Operator override: forgive the flap history, resume restarts."""
        self._parked.discard(name)
        self._deaths.pop(name, None)

    def forget(self, name: str) -> None:
        """The replica left the topology (admin remove)."""
        self._deaths.pop(name, None)
        self._due.pop(name, None)
        self._delay.pop(name, None)
        self._parked.discard(name)

    def state(self, name: str) -> Dict[str, object]:
        """Operator view (the admin topology document)."""
        return {
            "deaths": len(self._deaths.get(name, ())),
            "backoff": round(self.backoff_of(name), 4),
            "pending": self.pending(name),
            "parked": self.parked(name),
        }

    # -- mechanics (blocking; run off the event loop) -------------------- #

    def restart(self, name: str) -> Tuple[str, int]:
        """Respawn + announce handshake; ``(host, port)`` on success.

        Raises ``RuntimeError`` when the fresh process dies before
        announcing -- the caller records another failure and backs off.
        """
        if self._replica_set is None:
            raise RuntimeError("supervisor has no replica set to restart")
        return self._replica_set.respawn(name, faults=self._faults)
