"""A helper process that samples how fast the benchmark's CPU runs right now.

The shared host slows each of its CPUs by up to 1.6 times, in spells of
0.3 to 3 s, and the two CPUs of a run slow independently of each other.  A
single operation of a workload lasts 0.3 to 5 s, so its time in seconds
depends on how many slow spells it caught.  The run pins itself and this
process to one CPU.  Every ``INTERVAL_S`` this process wakes, times a fixed
probe of about 0.3 ms, and sleeps again.  The probe uses numpy but not
sgdstab, so no change to the package changes it.  ``reference_units`` then
turns an operation's seconds into probe lengths at the speed the CPU had
while the operation ran.

    python3 bench/speedometer.py STOP_FILE   # started by Speedometer, not by hand

It prints ``ready`` once it samples, and after STOP_FILE appears, one
``start duration`` line per sample.  It also stops when its parent exits,
or after ``MAX_LIFETIME_S``.
"""

from __future__ import annotations

import bisect
import os
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

INTERVAL_S = 0.01
MAX_LIFETIME_S = 600.0
MIN_SAMPLES = 3  # an operation shorter than this many samples borrows its nearest ones
# Seconds per probe length, to give set-up time in seconds: the median, over
# set-up on the 2-core Xeon the bounds were set on, of seconds as measured over
# probe lengths.  There, setup_s reads close to the seconds as measured.
PROBE_SECONDS = 4.0e-4


def probe(small, large) -> float:
    """Seconds for a fixed mix of the workloads' three kinds of work.

    An interpreter loop, small numpy calls in a Python loop and BLAS
    products: a slow spell stretches each by a different factor."""
    start = perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    v = small[0]
    for _ in range(20):
        v = small @ v
    for _ in range(2):
        large @ large
    return perf_counter() - start


class Speedometer:
    """The sampling process; ``stop`` ends it and returns its (start, seconds) samples.

    The caller must already be pinned to one CPU: the child inherits it."""

    def __init__(self, workdir: Path):
        self.stop_path = workdir / "speedometer.stop"
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.stop_path)], stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline().strip()
        except BaseException:
            self.close()
            raise
        if line != "ready":
            self.close()
            raise RuntimeError(f"speedometer did not start: {line!r}")

    def stop(self) -> list[tuple[float, float]]:
        self.stop_path.touch()
        out, _ = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"speedometer exited {self.proc.returncode}")
        return [(float(a), float(b)) for a, b in (line.split() for line in out.splitlines())]

    def close(self) -> None:
        """Stop the process on any path out; a no-op once ``stop`` has returned."""
        if self.proc.poll() is None:
            self.stop_path.touch()
            try:
                self.proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()


def reference_units(start: float, end: float, samples: list[tuple[float, float]], starts: list[float]) -> float:
    """The interval [start, end] in probe lengths, at the CPU's speed during it.

    The time the probes themselves took inside the interval is taken out
    first.  ``starts`` is the sorted list of the samples' start times."""
    lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
    stolen = sum(d for _, d in samples[lo:hi])
    if hi - lo < MIN_SAMPLES:
        middle = bisect.bisect_left(starts, 0.5 * (start + end))
        lo = max(0, min(middle - MIN_SAMPLES // 2, len(samples) - MIN_SAMPLES))
        hi = lo + MIN_SAMPLES
    speed = sum(1.0 / d for _, d in samples[lo:hi]) / (hi - lo)
    return (end - start - stolen) * speed


def main(stop_path: str) -> int:
    import numpy as np

    rng = np.random.default_rng(0)
    small, large = rng.standard_normal((16, 16)) / 4.0, rng.standard_normal((96, 96))
    for _ in range(100):  # warm the interpreter and numpy's dispatch before the first sample
        probe(small, large)
    print("ready", flush=True)
    parent = os.getppid()
    deadline = perf_counter() + MAX_LIFETIME_S
    samples = []
    while not os.path.exists(stop_path) and os.getppid() == parent and perf_counter() < deadline:
        start = perf_counter()
        samples.append((start, probe(small, large)))
        time.sleep(INTERVAL_S)
    sys.stdout.write("".join(f"{a!r} {d!r}\n" for a, d in samples))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
