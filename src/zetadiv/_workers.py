"""The CPUs one call may spread over, and the one way work goes to forked workers.

The sieve, the CSV writer and the quadrature (blocks of kernel slabs, dealt
under ``one_blas_thread`` where it finds a BLAS to cap) read ``WORKERS`` here
at call time.  Each ``deal``s its items, keeps share 0 and gives each other
share to a ``Forked`` worker, so all deal, send back and fail the same way.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import traceback

#: Processes one call spreads over, the caller included: the CPUs this
#: process may run on.
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
    """Move the calling thread (all of a forked worker) to ``cpus``, if any.

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


@functools.cache
def _openblas() -> list:
    """(get, set) thread-count functions of each OpenBLAS mapped here, found on first use."""
    import ctypes
    paths, found = set(), []
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        with contextlib.suppress(OSError, StopIteration):
            lib = ctypes.CDLL(path)  # mapped already, so this only takes a handle
            name = next(n for n in (f"{a}openblas_%s_num_threads{b}" for a in ("scipy_", "")
                                    for b in ("64_", "")) if hasattr(lib, n % "set"))
            get, put = getattr(lib, name % "get"), getattr(lib, name % "set")
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            found.append((get, put))
    return found


@contextlib.contextmanager
def one_blas_thread():
    """Set each OpenBLAS found to one thread in the block, which a worker forked
    there keeps, and restore its count on the way out; yields whether any was found."""
    olds = [(put, get()) for get, put in _openblas()]
    try:
        for put, _ in olds:
            put(1)
        yield bool(olds)
    finally:
        for put, old in olds:
            put(old)


def send_each(send, fn, items) -> None:
    """A ``Forked`` body that sends fn(item) for each of ``items`` in turn."""
    for item in items:
        send(fn(item))


_END = object()  # what a worker's pipe yields at its end


class RemoteTraceback(Exception):
    """A worker's formatted traceback, the cause of the exception it sent."""


def _with_cause(exc: BaseException, text: str) -> BaseException:
    exc.__cause__ = RemoteTraceback(text)
    return exc


class _Failure:
    """A worker's exception and its traceback text; unpickles as the exception
    with the text chained as its cause (pickling drops ``__traceback__``)."""

    def __init__(self, exc: BaseException):
        self.exc, self.text = exc, traceback.format_exc()

    def __reduce__(self):
        return _with_cause, (self.exc, self.text)


class Forked:
    """Worker processes, each reaped when the ``with`` block that starts them ends.

    ``start(body, *args)`` forks a worker with its own pipe of ``_PIPE_BYTES``.
    The worker closes the read ends it inherits, moves to the CPUs beside
    the caller and runs ``body(send, *args)``, where ``send(obj)`` pickles
    obj down the pipe; if the body raises, it sends the exception with its
    formatted traceback, which the caller chains as the exception's cause
    (a ``RemoteTraceback``), so the body's failing line shows there.  It ends
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
                            send(_Failure(exc))
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
