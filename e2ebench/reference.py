"""Machine-speed reference: a fixed kernel timed alongside the workload.

The 2-CPU VM this benchmark was sized on runs fast or slow for minutes at
a time.  Two sets of ten identical runs of ``churn``, minutes apart,
gave tick p50 medians of 98 and 145 ms and request p50 medians of 14.5
and 23.5 µs, and this kernel's median moved from 0.93 to 1.54 ms between
them.  No amount of work inside a 30-second run averages that out, so a
run divides its timings by a slowness factor measured with the kernel
over the run (rates are multiplied by it).  The raw timings and the
factor are written next to the reported ones.

The kernel mixes interpreter work (a breadth-first search over dicts and
sets) with NumPy work (a sort), like the program.  It is built from
``inputs.py`` alone, so a change to the program cannot change it, and it
runs in two helper processes with heaps of their own, so the program's
memory cannot change its timings either.  A sample times it twice:

``serial``
    one helper's own timing of the kernel: how fast the CPU it ran on is.
``fanout``
    the wall time, seen from this process, of both helpers running the
    kernel at once: it waits for the slower of the two CPUs, as a
    ``WorkerPool.run`` waits for its slower worker.

The factor is the geometric mean of the two, each as a median over
nominal.  Either one alone misses half of what moves the program: with
one CPU-bound process added on the 2-CPU VM, the sharded workload's
ticks slowed 25% and the serial workload's 19%, while the serial
kernel stayed flat and the fan-out slowed 55-65%.  Over ten runs of
each workload that crossed a slow phase, the geometric mean left 14%
less summed spread in the timings than the serial kernel alone, and as
little as the fan-out alone, which over-corrects a process that does
not fan out whenever one CPU is taken.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from inputs import udg

__all__ = ["NOMINAL_MS", "Reference"]

#: About the medians in a fast phase of the 2-CPU x86 VM, in ms; a run at
#: that speed reports its raw timings unchanged.
NOMINAL_MS = {"serial": 0.95, "fanout": 2.5}


class _Kernel:
    def __init__(self) -> None:
        adj: "dict[int, list[int]]" = {}
        for u, v in udg(1024, 12.0, 0):
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        self._adj = adj
        self._array = np.random.default_rng(0).integers(0, 1 << 20, size=50_000)

    def run(self) -> int:
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return len(seen) + int(np.sort(self._array)[-1])

    def timed(self) -> float:
        """Seconds of one run, after an untimed one that warms the caches."""
        self.run()
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


def _serve() -> None:
    """Helper process: one timed kernel run per line read from stdin."""
    kernel = _Kernel()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(kernel.timed()), flush=True)


class Reference:
    """Two kernel helpers and the times they took, sampled between timed
    regions.  Use as a context manager: leaving it stops the helpers."""

    def __init__(self) -> None:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--serve"]
        self._helpers = [
            subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
            for _ in range(2)
        ]
        self.samples: "dict[str, list[float]]" = {"serial": [], "fanout": []}
        try:
            for helper in self._helpers:
                if helper.stdout.readline().strip() != "ready":
                    raise RuntimeError("reference helper failed to start")
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            helper.wait()
            helper.stdout.close()

    def sample(self) -> None:
        """One serial sample, then one fan-out sample."""
        first = self._helpers[0]
        first.stdin.write("\n")
        self.samples["serial"].append(float(first.stdout.readline()))
        t0 = time.perf_counter()
        for helper in self._helpers:
            helper.stdin.write("\n")
        for helper in self._helpers:
            helper.stdout.readline()
        self.samples["fanout"].append(time.perf_counter() - t0)

    def factor(self, last: int = 0) -> float:
        """How many times slower than nominal the machine ran (1.0 =
        nominal), over all samples or over the *last* ones."""
        serial, fanout = (
            statistics.median(self.samples[kind][-last:]) * 1e3 / NOMINAL_MS[kind]
            for kind in ("serial", "fanout")
        )
        return (serial * fanout) ** 0.5


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    _serve()
