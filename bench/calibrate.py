"""Reference work that rescales measured times to a steady machine speed.

The benchmark runs on small shared virtual machines whose speed drifts
by up to 2x within a minute as neighbours load the host; raw wall times
of the same code then spread far beyond any useful regression bound.
A fixed piece of reference work, timed next to the program, slows down
with the machine, so time divided by the reference time stays put while
a change to the program still moves it.

The reference does what voss spends most of its time on: building
string-keyed sets and dicts and walking tuples of ints, floats and
complex numbers.  It never calls voss, so a change to the program
cannot change it.  Normalized times are reported in reference seconds:

    time_ref_s = time_s * REFERENCE_S / (measured reference time)

REFERENCE_S is about what the reference takes on a quiet machine of the
kind the baseline was recorded on, so reference seconds read close to
seconds there.

The reference runs in a helper process that holds nothing else: timed
in the measuring process, it slowed or sped up with the state the
program left in the heap, not with the machine.  The helper inherits
the measuring process's one-CPU affinity and waits on a pipe while the
program runs, so the two share a core and never compete for it.
run.py uses it the same way around each cold import it times for
setup_s.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

REFERENCE_S = 0.02
REPEATS = 3


def reference_work() -> complex:
    ids = [f"t{i}.{i % 97}" for i in range(10_000)]
    for _ in range(16):
        seen = set(ids)
    table = {key: (i, complex(i, 1.0)) for i, key in enumerate(ids) if key in seen}
    acc = 0j
    for key in ids:
        acc += table[key][1]
    rows = [{"id": key, "kw": (float(i), 0.5 * i)} for i, key in enumerate(ids[:5000])]
    return acc + len(rows)


class Calibrator:
    """Context manager around the helper process that times the reference."""

    def __enter__(self) -> "Calibrator":
        self.samples: list = []
        self.helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        self.helper.wait(timeout=30)

    def sample(self) -> None:
        """Have the helper time REPEATS runs of the reference."""
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        self.samples += json.loads(self.helper.stdout.readline())

    def factor(self) -> float:
        """REFERENCE_S over the median reference time since the last call."""
        samples, self.samples = self.samples, []
        return REFERENCE_S / statistics.median(samples)


def serve() -> None:
    """Helper loop: one line in, REPEATS reference times out as JSON.

    An untimed run first brings the helper back from sleep: it may have
    waited through a pass of half a minute.
    """
    for _ in sys.stdin:
        reference_work()
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
        print(json.dumps(times), flush=True)


if __name__ == "__main__":
    serve()
