"""HTTP load generation and server lifecycles for the benchmark.

All load comes from this one process. :func:`open_loop` sends a fixed
schedule -- request ``i`` is due at ``t0 + i / rate`` -- over at most
``nproc`` keep-alive connections, one sender per connection (the
calling thread is one of them). A request is timed from its *due* time,
so a stall in the server, or in the generator itself, counts as latency
for every request queued behind it; the generator's own lateness
(send time minus due time) is returned alongside.

Servers are spawned as ``python -m repro.cli serve --port 0 ...``
subprocesses in their own session, so a teardown can always reach the
router's replicas too; the port comes from the ``listening`` announce
line.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

ANNOUNCE_TIMEOUT_S = 90.0


def connections_for_host() -> int:
    """Sender threads/connections: two, or one on a single-CPU host."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def build_request(method: str, path: str, body: bytes = b"") -> bytes:
    """The exact bytes of one keep-alive HTTP/1.1 request."""
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n"
    if body:
        head += "Content-Type: application/json\r\n"
    return head.encode("ascii") + b"\r\n" + body


class Connection:
    """A minimal keep-alive HTTP/1.1 client socket with ``TCP_NODELAY``.

    Both front ends always answer with ``Content-Length``, so this reads
    exactly one response per request and never parses more than the
    status line and the two headers it needs.
    """

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        parts = urlsplit(url)
        self.address = (parts.hostname, parts.port)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buf = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._buf = sock, b""
        return sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def exchange(self, wire: bytes) -> Tuple[int, bytes]:
        """Send one pre-built request; return ``(status, body)``."""
        sock = self._sock or self._connect()
        try:
            sock.sendall(wire)
            status, body, close = self._read_response(sock)
        except OSError:
            self.close()
            raise
        if close:
            self.close()
        return status, body

    def _recv(self, sock: socket.socket) -> None:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def _read_response(self, sock: socket.socket) -> Tuple[int, bytes, bool]:
        while b"\r\n\r\n" not in self._buf:
            self._recv(sock)
        head, _, self._buf = self._buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        while len(self._buf) < length:
            self._recv(sock)
        body, self._buf = self._buf[:length], self._buf[length:]
        return status, body, close


def get(url: str, path: str) -> bytes:
    """The body of one ``GET`` that must answer 200."""
    status, body = fetch(url, build_request("GET", path))
    if status != 200:
        raise RuntimeError(f"GET {url}{path} answered {status}")
    return body


def fetch(url: str, wire: bytes) -> Tuple[int, bytes]:
    """One request on a fresh connection."""
    conn = Connection(url)
    try:
        return conn.exchange(wire)
    finally:
        conn.close()


# ---------------------------------------------------------------------- #
# server processes
# ---------------------------------------------------------------------- #


class ServerProcess:
    """One ``repro.cli serve`` subprocess (threaded, or a router with
    ``replicas`` replica subprocesses)."""

    def __init__(self, env: Dict[str, str], replicas: int = 0) -> None:
        self.env = env
        self.replicas = replicas
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.replica_urls: List[str] = []

    def start(self) -> "ServerProcess":
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        if self.replicas:
            command += ["--replicas", str(self.replicas)]
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=self.env,
            start_new_session=True,
        )
        event = json.loads(read_line(self.proc, ANNOUNCE_TIMEOUT_S))
        if event.get("event") != "listening":
            raise RuntimeError(f"unexpected announce line {event!r}")
        self.url = f"http://{event['host']}:{event['port']}"
        if self.replicas:
            ready = json.loads(get(self.url, "/readyz"))
            self.replica_urls = [r["url"] for r in ready["replicas"]]
        return self

    def stop(self) -> None:
        """SIGTERM (drain), then make sure the whole session is gone."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()

    def cpu_seconds(self) -> float:
        """CPU time (user + system) used so far by every live process of
        the server's session: the router and its replicas."""
        ticks = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    # proc(5) fields 3.. follow the parenthesised name
                    fields = handle.read().rpartition(")")[2].split()
            except OSError:  # the process ended while we looked
                continue
            if int(fields[5 - 3]) == self.proc.pid:  # pgrp
                ticks += int(fields[14 - 3]) + int(fields[15 - 3])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The next stdout line of ``proc``, or an error after ``timeout``."""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout
    data = b""
    while not data.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise RuntimeError(f"no output from pid {proc.pid} within {timeout:g}s")
        chunk = os.read(fd, 4096)
        if not chunk:
            raise RuntimeError(
                f"pid {proc.pid} exited ({proc.wait()}) before announcing"
            )
        data += chunk
    return data.decode("utf-8")


# ---------------------------------------------------------------------- #
# load loops
# ---------------------------------------------------------------------- #


@dataclass
class Sample:
    """One request of a load phase (times on ``perf_counter``)."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    body: Optional[bytes] = None

    @property
    def latency(self) -> float:
        """From when the request was due to its last response byte."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


ReplyCheck = Callable[[int, int, bytes], bool]


@contextmanager
def connections(url: str, count: Optional[int] = None) -> Iterator[List[Connection]]:
    """``count`` keep-alive connections (default: one per sender thread
    the host allows), closed on exit."""
    conns = [Connection(url) for _ in range(count or connections_for_host())]
    try:
        yield conns
    finally:
        for conn in conns:
            conn.close()


class _Cursor:
    """Hands out request indices to the sender threads."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> Optional[int]:
        with self._lock:
            index = self._next
            self._next += 1
        return index if index < self.size else None


def _run_senders(conns: Sequence[Connection], sender: Callable[[Connection, List[Sample]], None]) -> List[Sample]:
    """One sender per connection; the calling thread is the first."""
    outs: List[List[Sample]] = [[] for _ in conns]
    errors: List[BaseException] = []

    def run(i: int) -> None:
        try:
            sender(conns[i], outs[i])
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(conns))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sorted((s for out in outs for s in out), key=lambda s: s.index)


def open_loop(
    conns: Sequence[Connection],
    wires: Sequence[bytes],
    rate: float,
    check: ReplyCheck,
    keep: Sequence[bool],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Sample]:
    """Send ``wires[i]`` at ``t0 + i / rate``, one sender per connection.

    ``check(index, status, body)`` decides whether a reply counts as
    answered; ``keep[index]`` keeps that reply's body for a later
    re-solve. A transport error is a failed sample, timed at the error.
    """
    interval = 1.0 / rate
    cursor = _Cursor(len(wires))
    t0 = clock() + 0.01

    def sender(conn: Connection, out: List[Sample]) -> None:
        while (index := cursor.take()) is not None:
            due = t0 + index * interval
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            try:
                status, body = conn.exchange(wires[index])
                done = clock()
                ok = check(index, status, body)
            except OSError:
                done, ok, body = clock(), False, None
            out.append(Sample(index, due, sent, done, ok, body if ok and keep[index] else None))

    return _run_senders(conns, sender)


# ---------------------------------------------------------------------- #
# /metrics
# ---------------------------------------------------------------------- #


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """``{(name, sorted label pairs): value}`` for every sample line."""
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, brace, rest = series.partition("{")
        labels: Tuple[Tuple[str, str], ...] = ()
        if brace:
            pairs = []
            for item in rest.rstrip("}").split(","):
                if item:
                    key, _, raw = item.partition("=")
                    pairs.append((key, raw.strip('"')))
            labels = tuple(sorted(pairs))
        out[(name, labels)] = float(value)
    return out


def scrape(url: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    return parse_prometheus(get(url, "/metrics").decode("utf-8"))


def delta_sum(
    before: Dict, after: Dict, name: str, where: Callable[[Dict[str, str]], bool] = lambda labels: True
) -> float:
    """Increase of every series of ``name`` whose labels pass ``where``."""
    total = 0.0
    for (series, labels), value in after.items():
        if series == name and where(dict(labels)):
            total += value - before.get((series, labels), 0.0)
    return total
