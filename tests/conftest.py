import os
import tracemalloc

import numpy as np
import pytest

from zetadiv import acceptance, sieve_divisors


@pytest.fixture(scope="session")
def table_small():
    """Divisor table to 1e5: enough for Voronoi suites and Atkinson at T<=5000."""
    return sieve_divisors(10**5)


@pytest.fixture(scope="session")
def table_big():
    """Divisor table to 1e7 for the full divisor identity suite."""
    return sieve_divisors(10**7)


@pytest.fixture(scope="session")
def subconvexity_arrays():
    """One criterion-6 scan (1,138,781 Z values on [10, 1e5]), read-only, shared."""
    ts, run = acceptance.subconvexity_scan()
    ts.flags.writeable = False
    run.flags.writeable = False
    return ts, run


@pytest.fixture(scope="session")
def estar_2e4():
    """One criterion-7 scan (E, 2 pi delta* and E* on [0, 2e4] at step 0.25), read-only, shared."""
    scan = acceptance.estar_scan(2e4, 0.25)
    for col in (scan.t, scan.E, scan.delta_star_scaled, scan.E_star):
        col.flags.writeable = False
    return scan


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def traced_peak():
    """Run fn() under tracemalloc; return its result and the peak bytes allocated."""
    def run(fn):
        tracemalloc.start()
        try:
            out = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak
    return run


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the processes os.fork starts during the test, as a list."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture()
def assert_reaped():
    """A check that each pid is no longer a child of this process: it has been reaped."""
    def check(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
    return check
