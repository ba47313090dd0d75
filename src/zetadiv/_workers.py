"""The CPUs one call may spread over, and forked workers that never outlive it.

The sieve, the quadrature and the CSV writer each read ``WORKERS`` through
this module at call time, so one assignment sets all three.
"""

from __future__ import annotations

import contextlib
import os

#: Threads or processes one call spreads over, the caller included: the CPUs
#: this process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def cpus_beside_caller() -> set[int]:
    """The CPUs this process may use but the one it is on; empty where /proc cannot tell."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])  # field 39, the CPU
    except (OSError, ValueError, IndexError):
        return set()
    return os.sched_getaffinity(0) - {cpu}


def move_to(cpus: set[int]) -> None:
    """Move the calling thread (a whole process, if it has one thread) to ``cpus``, if any.

    A new thread or forked process starts on its parent's CPU, and a kernel
    that does not balance load (a cpuset with ``sched_load_balance`` 0)
    leaves it there.  A move the kernel refuses leaves it where it is.
    """
    if cpus:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


class Forked:
    """Worker processes, each reaped when the ``with`` block that starts them ends.

    ``start(body, *args)`` forks a worker that moves to the CPUs beside the
    caller, runs ``body(*args)`` and ends in ``os._exit``: 0 if the body
    returned, 1 if it raised.  So a worker flushes no inherited buffer and
    runs no clean-up of its parent's.  If the block raises, every worker is
    killed before it is reaped; if it does not, a worker that ended other
    than with 0 raises ChildProcessError.  No worker outlives the block.
    """

    def __init__(self):
        self.cpus = cpus_beside_caller()
        self.pids: list[int] = []

    def start(self, body, *args) -> None:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                move_to(self.cpus)
                body(*args)
                code = 0
            finally:
                os._exit(code)
        self.pids.append(pid)

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            import signal  # only this path needs it
            for pid in self.pids:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in self.pids]
        if exc_type is None and any(codes):
            raise ChildProcessError(f"a worker process ended with code {max(codes, key=abs)}")
