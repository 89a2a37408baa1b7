"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. offline environments where editable installs cannot build wheels), and
wraps every test marked ``process_engine`` twice over.  A hung-worker watchdog:
a deadlocked or orphaned worker process would otherwise hang the whole suite
at a pipe ``recv``, and CI kills the job with no useful traceback.  And a
shared-memory audit: a test that passes but leaves a new name in ``/dev/shm``
(a dataset block or an exchange slab nobody unlinked) fails there and then,
not later as somebody else's "entries left behind".
"""

import os
import signal
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: hard per-test ceiling for process-engine tests (seconds); generous next to
#: the transport's own REPRO_PROCESS_TIMEOUT watchdog, which should fire first
_PROCESS_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "180"))


_SHM_DIR = Path("/dev/shm")


def _shm_names():
    """Names in ``/dev/shm``; empty where the platform has no such directory."""
    return set(os.listdir(_SHM_DIR)) if _SHM_DIR.is_dir() else set()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if item.get_closest_marker("process_engine") is None or not hasattr(
        signal, "SIGALRM"
    ):
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"process-engine test exceeded {_PROCESS_TEST_TIMEOUT:.0f}s "
            "(REPRO_TEST_TIMEOUT) — worker processes are likely hung"
        )

    shm_before = _shm_names()
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, _PROCESS_TEST_TIMEOUT)
    try:
        outcome = yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    leaked = _shm_names() - shm_before
    if leaked and outcome.excinfo is None:
        outcome.force_exception(
            AssertionError(
                f"test left shared memory behind in {_SHM_DIR}: {sorted(leaked)}"
            )
        )
