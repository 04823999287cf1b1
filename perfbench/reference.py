"""A fixed reference computation that measures how fast the machine runs now.

It mixes the kinds of work mmdreg does: formatting and parsing numbers
as text (the CSV layer), small-array numpy work (fits at n=1000),
streaming and gathering over arrays larger than the caches (fits at
n=1e5, the pair cache).  It is written here so that no change to the
package can move it, and its large arrays are preallocated so its time
does not depend on the allocator state a workload left behind.  Timing
it around each timed segment gives the machine's speed during that
segment, which the end-to-end times are scaled by.

The unit only ever runs in worker processes started from this file
(``python3 reference.py`` runs one unit per line read from standard
input and prints its time), so its arrays (about 70 MB) never sit in
the benchmark process, in the pool workers that process forks, or in
its peak RSS.  The workers are plain subprocesses that the clock waits
for on close; a worker whose standard input closes exits on its own.
"""

import subprocess
import sys
import time

import numpy as np

_ARRAYS = None


def _arrays():
    global _ARRAYS
    if _ARRAYS is None:
        rng = np.random.default_rng(12345)
        large = rng.standard_normal(4_000_000)
        index = rng.integers(0, large.size, 200_000)
        _ARRAYS = (rng.standard_normal(6000).tolist(), rng.standard_normal((3, 1000)),
                   large, index, np.empty_like(large), np.empty(index.size))
    return _ARRAYS


def reference_unit():
    """Seconds taken by one fixed unit of reference work."""
    text, small, large, index, out, gathered = _arrays()
    a, b, c = small
    t0 = time.perf_counter()
    for _ in range(10):
        line = ",".join(format(v, ".17g") for v in text)
        parsed = [float(tok) for tok in line.split(",")]
    s = parsed[0]
    for _ in range(7000):
        s += float(np.exp(-np.abs(a - b)) @ c)
    for _ in range(3):
        np.multiply(large, large, out=out)
        np.sqrt(out, out=out)
        s += float(out.sum())
    for _ in range(16):
        np.take(large, index, out=gathered)
        s += float(gathered.sum())
    return time.perf_counter() - t0


class ReferenceClock:
    """Times the reference unit in ``width`` worker processes.

    A workload that keeps two processes busy is slowed by contention on
    either core, so ``measure(2)`` runs one unit per worker at once and
    reports their mean; ``measure(1)`` runs one unit on one worker.  The
    workers are started once and reused; close the clock after reading
    the peak RSS, so they are not yet counted among the reaped children.
    """

    def __init__(self, width=1):
        self.width = width
        self._workers = []
        try:
            for _ in range(width):
                self._workers.append(subprocess.Popen(
                    [sys.executable, __file__], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True))
            self.measure()  # warm the workers
        except BaseException:
            self.close()
            raise

    def measure(self, width=None):
        workers = self._workers[:self.width if width is None else width]
        for w in workers:
            w.stdin.write("\n")
            w.stdin.flush()
        times = []
        for w in workers:
            line = w.stdout.readline()
            if not line:
                raise RuntimeError(f"reference worker {w.pid} exited with {w.wait()}")
            times.append(float(line))
        return sum(times) / len(times)

    def close(self):
        """Close every worker's input and wait for it to end."""
        for w in self._workers:
            try:
                w.stdin.close()
            except OSError:
                pass
        for w in self._workers:
            try:
                w.wait(timeout=30)
            except subprocess.TimeoutExpired:
                w.kill()
                w.wait()
            w.stdout.close()
        self._workers = []


def serve():
    """Run one reference unit per line of standard input; print each time."""
    for _ in sys.stdin:
        print(repr(reference_unit()), flush=True)


if __name__ == "__main__":
    serve()
