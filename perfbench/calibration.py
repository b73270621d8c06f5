"""Machine-speed probe used to express timings in reference seconds.

On a shared host the same sweep can run at half speed for tens of seconds
while a neighbour is busy, and CPU time slows with it, so neither wall nor
CPU time repeats from run to run. A short fixed kernel with the same mix as
a block trial (small numpy draws and products, scalar Python arithmetic),
timed right before and after each measured step, tracks the current speed.
A step's reference time is its host time scaled by REFERENCE_S over the
kernel's time: what it would have taken with the kernel at REFERENCE_S.
"""

import math
import time

import numpy as np

# Kernel time on the quiet 2-core Xeon VM (2.1 GHz) the benchmark was tuned on.
REFERENCE_S = 0.1
ROUNDS = 4000


def kernel_seconds() -> float:
    """Host seconds for one run of the fixed kernel."""
    rng = np.random.Generator(np.random.Philox(key=7))
    start = time.perf_counter()
    acc = 0.0
    for _ in range(ROUNDS):
        x = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        acc += float(np.sum(np.abs(x @ x[0].conj()) ** 2))
        for k in range(20):
            acc += math.log1p(math.exp(-abs(acc % 3.0 - k)))
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel timings taken between measured steps; ``scale`` converts the
    host seconds of the step just measured to reference seconds."""

    def __init__(self):
        self.last = kernel_seconds()
        self.history = [self.last]

    def scale(self) -> float:
        """Time the kernel again and return REFERENCE_S over the mean of the
        kernel times on either side of the step."""
        before, self.last = self.last, kernel_seconds()
        self.history.append(self.last)
        return REFERENCE_S / ((before + self.last) / 2.0)
