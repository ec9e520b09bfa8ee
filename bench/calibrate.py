"""Host-speed calibration for timings taken on a shared machine.

On a shared host the same fixed computation swings 1.5-3x in wall time
within minutes, and the process's CPU time inflates with it, so nothing
the guest can read separates "the code got slower" from "the host got
slower". The benchmark therefore measures in chunks of about a second
and, between chunks -- while the system under test is idle -- times a
burst of :func:`probe`, a fixed computation that shares nothing with the
program. Each chunk's timings are scaled by ``REFERENCE_S / (median probe
time around that chunk)``: they are reported at the speed of a reference
host on which the probe takes ``REFERENCE_S``. The raw timings are
reported beside the scaled ones.

The probe runs in a process of its own (``python -m bench.calibrate``,
driven over a pipe), so the benchmark process's heap, garbage collector
and threads cannot slow it. It mixes the two kinds of work the program
does: NumPy array passes the size of one engine scan, and interpreted
dict/JSON work like the request path's.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from typing import List

import numpy as np

#: The probe's median time on the reference host: this 2-CPU container
#: (Python 3.11, NumPy 2.4) while the machine is quiet.
REFERENCE_S = 0.0025

PROBES_PER_BURST = 16

_GRID = np.linspace(0.5, 4.0, 64 * 512).reshape(64, 512)


def probe() -> float:
    """Seconds one fixed unit of mixed NumPy and interpreted work takes."""
    started = time.perf_counter()
    y = np.log(_GRID)
    for _ in range(4):
        z = np.exp(-0.5 * y * y) * np.sqrt(_GRID) + np.cumsum(y, axis=1)
        y = np.where(z > 1.0, y * 0.999, y)
    table = {f"k{i}": (i * 2654435761) % 1000003 for i in range(1500)}
    json.loads(json.dumps(table, sort_keys=True))
    return time.perf_counter() - started


class HostSpeed:
    """Probe bursts between chunks of measured work, in a probe process.

    Use as a context manager around the measured phases: it probes once
    on entry; call :meth:`after_chunk` right after each chunk.
    """

    def __init__(self, per_burst: int = PROBES_PER_BURST) -> None:
        self._per_burst = per_burst
        self._proc: subprocess.Popen = None  # type: ignore[assignment]
        self.samples: List[float] = []
        self._last: List[float] = []

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "bench.calibrate"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._last = self._burst()
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def _burst(self) -> List[float]:
        self._proc.stdin.write(f"{self._per_burst}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the probe process exited")
        burst = json.loads(line)
        self.samples += burst
        return burst

    def after_chunk(self) -> float:
        """Probe now; return the factor that scales the chunk just
        measured (bracketed by this burst and the one before it) to the
        reference host."""
        current = self._burst()
        factor = REFERENCE_S / statistics.median(self._last + current)
        self._last = current
        return factor

    @property
    def median_s(self) -> float:
        return statistics.median(self.samples)


def main() -> None:
    """Probe server: each input line ``n`` answers with ``n`` probe times."""
    for line in sys.stdin:
        print(json.dumps([probe() for _ in range(int(line))]), flush=True)


if __name__ == "__main__":
    main()
