"""Host fingerprint, BLAS-thread pinning and the calibration probe.

Every result carries what it was measured on and a drift probe, because the
same commit measured minutes apart on the reference host moved by up to 15 %
while back-to-back repeats held +-2 %: a run whose probe moved is reported as
unresolved, not as a result.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from typing import Dict, Optional, Set

#: one thread per process, so the parallelism measured is the program's own
#: (ranks <= cores) and not the BLAS library's
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: a run whose probe moved by more than this between start and end is ``drifted``
DRIFT_LIMIT_PCT = 10.0


def pin_blas_threads() -> Dict[str, Optional[str]]:
    """Pin the BLAS thread variables to 1 in this process's environment, which
    ranks and the server child inherit; returns the values as found.  Must run
    before NumPy is first imported."""
    found = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    return found


def calib_gemm_ms(repeats: int = 120) -> float:
    """Median milliseconds of the fixed probe GEMM, (2000 x 784) @ (784 x 9) —
    the shape of one shard's logits product on the dense workloads."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((2000, 784))
    b = rng.standard_normal((784, 9))
    a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def fingerprint(blas_env_found: Dict[str, Optional[str]]) -> dict:
    import multiprocessing

    import numpy as np
    import scipy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        affinity = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_found": blas_env_found,
        "blas_threads_pinned": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "start_method_default": multiprocessing.get_start_method(allow_none=True),
        "start_method_process_engine": "spawn",
        "load_average": list(os.getloadavg()),
    }


def reap_resource_tracker() -> None:
    """Stop ``multiprocessing``'s resource tracker and wait until it has ended.

    The process engine's spawn context and shared-memory blocks start that
    helper process in this interpreter; it ends only when it sees this
    interpreter's end of its pipe close, that is *after* this interpreter has
    exited, and nobody waits for it then — it is left running, then defunct,
    past the run.  Call last on every path out of the benchmark: ranks that a
    failed run left alive (they hold the other ends of that pipe) are ended
    first, as ``multiprocessing`` itself would do at exit."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for rank in multiprocessing.active_children():
        rank.terminate()
        rank.join()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is None:  # never started, or stopped already
            return
        os.close(tracker._fd)  # the tracker's main loop ends at this EOF
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process, from ``/proc`` (``VmHWM``).

    Not ``getrusage``: on Linux a child's ``ru_maxrss`` starts from what its
    *parent* held when it spawned the child, so ``RUSAGE_CHILDREN`` of a
    300 MB interpreter reads 300 MB for a 60 MB server."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # reported in KiB
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM")


def shm_entries() -> Set[str]:
    """Names under ``/dev/shm``: the process engine's shared-memory blocks must
    all be gone when a run ends, so a run may leave no name it did not find.
    Names, not a count, which another process on the host could move."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # no tmpfs-backed shared memory on this platform
        return set()
