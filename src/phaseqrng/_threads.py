"""The thread pool that the post-processing loops share.

The extractor's chunks and the autocorrelation's lags are exact per chunk
and per lag, and NumPy's FFT, ufunc and ``einsum`` loops release the GIL, so
they run on one thread per usable CPU with the same result bytes at any
count.  ``concurrent.futures`` is imported on first use, so the commands that
never hash or correlate (``simulate``, ``calibrate``, ``stability``) do not
pay for it.
"""

from __future__ import annotations

import os


def worker_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_pool(workers: int):
    """A ``ThreadPoolExecutor`` of ``workers`` threads; use it in a ``with``."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="phaseqrng")
