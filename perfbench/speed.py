"""How fast the machine runs Python right now, to scale timings by.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over tens of seconds, so two runs of the same code can differ more
than any change worth measuring.  A fixed calibration loop, timed between
the cases of a pass, measures that drift: the pass's timings are scaled by
`NOMINAL_S / median(loop time)`, which gives them in seconds on a machine
where the loop takes `NOMINAL_S`.  The program's cost stays in the scaled
figure; only the machine's speed cancels.  The loop runs outside every
timed interval and its time is kept out of the pass's wall time.
"""

from __future__ import annotations

import statistics
import time

# The loop's time on a quiet 2-vCPU Xeon VM; any constant works, as long as
# it stays the same between the runs that are compared.
NOMINAL_S = 0.002
# The loop does two kinds of work in about equal shares: plain arithmetic,
# and a mix of dict updates, bytearray slices and small lists like the
# verifier's.  Each alone followed the verifier's drift less closely than
# the two together: in the host's fast spells the mix ran 2x faster where
# the verifier ran 1.45x faster, and arithmetic alone missed slower swings.
ARITH_ITERATIONS = 10_000
MIX_ITERATIONS = 750
# Sample at most this often, so the loop costs about 2% of the run.
INTERVAL_S = 0.1


def calibration_loop() -> float:
    """Seconds for a fixed amount of interpreter work."""
    t0 = time.perf_counter()
    s = 0
    for i in range(ARITH_ITERATIONS):
        s += i * i % 7
    counts: dict[int, int] = {}
    buf = bytearray(256)
    for i in range(MIX_ITERATIONS):
        k = i * 7 % 97
        counts[k] = counts.get(k, 0) + 1
        buf[i % 200:i % 200 + 16] = bytes(16)
        pair = [i, k]
        pair.append(len(buf[3:40]))
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration-loop samples taken through one pass, and their cost."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_loop())
        self._last = time.perf_counter()
        self.spent += self._last - t0

    def maybe_sample(self) -> None:
        """Sample unless the last sample was under `INTERVAL_S` ago."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured while sampling into nominal
        seconds."""
        return NOMINAL_S / statistics.median(self.samples)
