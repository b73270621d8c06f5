"""Set-up probe, run as a fresh process by run.py:

    python3 perfbench/setup_probe.py <workload> <config seed>

Imports timsr, builds the workload's config and the context of its first
grid point, then prints the ``time.monotonic()`` reading at which the first
block trial starts. The caller subtracts its own reading taken just before
starting this process.
"""

import benchenv

benchenv.prepare()

import sys  # noqa: E402
import time  # noqa: E402

import sweeps  # noqa: E402
from timsr.sim import run_block_trial  # noqa: E402


def main() -> None:
    wl = sweeps.WORKLOADS[sys.argv[1]]
    ctx = wl.first_context(wl.config(int(sys.argv[2])))
    started = time.monotonic()
    run_block_trial(ctx, 0)
    print(repr(started))


if __name__ == "__main__":
    main()
