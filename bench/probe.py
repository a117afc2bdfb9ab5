"""CPU speed probes: turn measured seconds into reference-speed seconds.

The benchmark shares a 2-vCPU machine with other tenants.  Their load
slows one vCPU at a time by 20-50 % for seconds, and the whole machine
by about 10 % for minutes; raw pass times of identical work spread by
10-17 % between runs.  So every benchmark process is pinned to one CPU
and a probe process pinned next to it times a fixed integer loop every
50 ms (2.5 % of that CPU).  Both use ``perf_counter`` (CLOCK_MONOTONIC,
shared across processes), so an operation timed over ``[a, b]`` on a
CPU ran at the mean speed the probe saw there, and

    reference seconds = (b - a) * mean(REFERENCE_KERNEL_S / kernel time)

is its time on that CPU at the speed of the reference machine.  The
loop uses no program code, so a faster program still reads faster.

``python -m bench.probe CPU OUT`` samples until SIGTERM, then writes
``[[start, seconds], ...]`` to ``OUT``.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import subprocess
import sys
import time

from bench import ROOT, child_env

__all__ = ["Probes", "kernel", "reference_seconds", "speed"]

KERNEL_ITERATIONS = 20000
#: The kernel's time on the reference machine (2 vCPU Xeon, quiet).
REFERENCE_KERNEL_S = 0.00125
INTERVAL_S = 0.05
#: Probe samples this close to an operation also count for it.
WINDOW_S = 0.5


def kernel():
    """The fixed unit of CPU work the probe times."""
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i % 7
    return total


def speed(samples, start, end, window=WINDOW_S):
    """Mean speed relative to the reference machine over ``[start,
    end]`` widened by *window*, from sorted ``(time, seconds)``
    *samples* (widened further until it holds a sample)."""
    if not samples:
        raise ValueError("no probe samples")
    times = [sample[0] for sample in samples]
    while True:
        low = bisect.bisect_left(times, start - window)
        high = bisect.bisect_right(times, end + window)
        if high > low:
            chosen = samples[low:high]
            return sum(REFERENCE_KERNEL_S / seconds
                       for _, seconds in chosen) / len(chosen)
        window *= 2


def reference_seconds(samples, start, end):
    """Seconds the operation timed over ``[start, end]`` would take at
    the reference machine's speed."""
    return (end - start) * speed(samples, start, end)


class Probes:
    """One probe process per CPU, for the life of a ``with`` block;
    ``samples[cpu]`` holds each probe's samples afterwards."""

    def __init__(self, cpus, directory):
        self.cpus = tuple(cpus)
        self.directory = directory
        self.samples = {}
        self._processes = {}

    def _path(self, cpu):
        return os.path.join(self.directory, "probe-%d.json" % cpu)

    def __enter__(self):
        os.makedirs(self.directory, exist_ok=True)
        for cpu in self.cpus:
            self._processes[cpu] = subprocess.Popen(
                [sys.executable, "-m", "bench.probe", str(cpu),
                 self._path(cpu)],
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            )
        return self

    def __exit__(self, *exc_info):
        for process in self._processes.values():
            process.send_signal(signal.SIGTERM)
        for cpu, process in self._processes.items():
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            if process.returncode == 0:
                with open(self._path(cpu)) as handle:
                    self.samples[cpu] = [tuple(s) for s in json.load(handle)]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    cpu, out = int(argv[0]), argv[1]
    os.sched_setaffinity(0, {cpu})
    stopping = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(1))
    samples = []
    while not stopping:
        time.sleep(INTERVAL_S)
        started = time.perf_counter()
        kernel()
        samples.append((started, time.perf_counter() - started))
    with open(out, "w") as handle:
        json.dump(samples, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
