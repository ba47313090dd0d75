"""The CPUs one call may spread over, and the one way work goes to forked workers.

The sieve, the quadrature and the CSV writer each read ``WORKERS`` through
this module at call time, so one assignment sets all three.  The sieve and
the CSV writer ``deal`` their items, keep share 0 and give each other share
to a ``Forked`` worker, so both deal, send back and fail the same way.
"""

from __future__ import annotations

import contextlib
import os
import pickle

#: Threads or processes one call spreads over, the caller included: the CPUs
#: this process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

#: Pipe capacity each worker asks for: a 4-column CSV block is about 350 KB,
#: and in a 64 KiB pipe the worker and the caller took turns rather than
#: running at once (0.35 s for estar-scan's table at tmax = 2e4, against
#: 0.18 s with 1 MiB, on a 2-vCPU Xeon).
_PIPE_BYTES = 2**20


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


def deal(items) -> list:
    """The shares ``items[w::W]`` for W = max(1, min(WORKERS, len(items))).

    W is 1 where ``os.fork`` is missing.  Share 0 is the caller's; each
    other share is one forked worker's.
    """
    shares = max(1, min(WORKERS, len(items))) if hasattr(os, "fork") else 1
    return [items[w::shares] for w in range(shares)]


_END = object()  # what a worker's pipe yields at its end


class Forked:
    """Worker processes, each reaped when the ``with`` block that starts them ends.

    ``start(body, *args)`` forks a worker with its own pipe of ``_PIPE_BYTES``.
    The worker closes the read ends it inherits, moves to the CPUs beside
    the caller and runs ``body(send, *args)``, where ``send(obj)`` pickles
    obj down the pipe; if the body raises, it sends the exception.  It ends
    in ``os._exit`` (0 if the body returned), so it flushes no inherited
    buffer and runs no clean-up of its parent's.

    ``receive(w)`` returns the next object from worker w (in start order),
    raises it if it is an exception, and raises ChildProcessError if the
    worker ended without sending one.  A worker blocks while its pipe is
    full, so the caller receives everything a worker sends before the
    block ends cleanly; then a failed worker's exception is raised, or
    ChildProcessError if it sent none.  If the block raises, every worker
    is killed first.  Every worker is reaped and every read end closed.
    """

    def __init__(self):
        self.cpus = cpus_beside_caller()
        self.pids: list[int] = []
        self.pipes: list = []  # worker w's read end at index w

    def start(self, body, *args) -> None:
        r, w = os.pipe()
        self.pipes.append(open(r, "rb"))
        try:
            with contextlib.suppress(AttributeError, OSError):  # Linux only, up to pipe-max-size
                import fcntl
                fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for pipe in self.pipes:
                        pipe.close()
                    move_to(self.cpus)
                    with open(w, "wb") as out:
                        def send(obj) -> None:
                            pickle.dump(obj, out)
                            out.flush()
                        try:
                            body(send, *args)
                            code = 0
                        except Exception as exc:
                            send(exc)
                finally:
                    os._exit(code)
        finally:
            os.close(w)
        self.pids.append(pid)

    def _next(self, w: int):
        """Worker w's next object, or ``_END`` at the end of its pipe."""
        try:
            return pickle.load(self.pipes[w])
        except (EOFError, pickle.UnpicklingError):
            return _END

    def receive(self, w: int):
        obj = self._next(w)
        if obj is _END:
            raise ChildProcessError(f"worker {w} ended before sending its next result")
        if isinstance(obj, BaseException):
            raise obj
        return obj

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        lasts = None
        try:
            if exc_type is None:
                lasts = [self._next(w) for w in range(len(self.pids))]
        finally:
            if lasts is None:  # the block raised, or a read did: stop every worker first
                import signal  # only this path needs it
                for pid in self.pids:
                    os.kill(pid, signal.SIGKILL)
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in self.pids]
            for pipe in self.pipes:
                pipe.close()
        for last, code in zip(lasts or (), codes):
            if isinstance(last, BaseException):
                raise last
            if code:
                raise ChildProcessError(f"a worker process ended with code {code}")
