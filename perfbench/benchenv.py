"""Process set-up shared by every benchmark entry point."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin the BLAS/OpenMP thread pools to one thread and put the checkout's
    ``src`` first on the import path.

    Call before numpy is imported. Pool workers and probe processes inherit
    the environment, so two workers cannot oversubscribe two cores through
    BLAS threads.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
