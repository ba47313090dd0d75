"""One workload in its own process: set up, time passes, check, trace.

Started by ``run.py``, never by hand.  ``--t0`` is the launcher's
monotonic clock reading just before this process was spawned, so
``setup_s`` runs from process start until the inputs are ready.  The
result (samples, checks, layer values, spans, provenance) is written as
JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

import numpy as np

#: time the calibration kernel takes on the reference machine: normalised
#: times read as seconds on a machine that runs the kernel this fast
CAL_REF_S = 0.12
_CAL_X = np.linspace(0.0, 1000.0, 100_000)
_CAL_BUF = np.zeros(2_000_000, dtype=np.uint32)


def calibrate() -> float:
    """Wall time of a fixed kernel that mixes the workloads' kinds of work.

    Vectorised cosines (the Riemann-Siegel sums), interpreted Python and
    Fraction arithmetic (the exponent-pair search, CSV formatting) and
    strided integer adds (the sieve).  It uses numpy only, never zetadiv,
    so no library change can move it; only the machine's speed does.
    """
    t0 = time.perf_counter()
    for k in range(20):
        np.cos(_CAL_X * 1.0001 + k).sum()
    f = Fraction(1, 3)
    for i in range(1, 3000):
        f = (f + Fraction(1, i)) / 2
    acc = 0
    for i in range(100_000):
        acc += i * i
    for d in range(1, 300):
        _CAL_BUF[d::d] += 1
    return time.perf_counter() - t0


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def provenance() -> dict:
    import mpmath
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def timed_passes(wl, inputs, state, budget_s, workdir, tracer=None, first_id=0):
    """Run passes until ``budget_s`` has elapsed (at least one); check each."""
    samples = []
    start = time.monotonic()
    while not samples or time.monotonic() - start < budget_s:
        samples.append(one_pass(wl, inputs, state, workdir, first_id + len(samples), tracer))
    return samples


def one_pass(wl, inputs, state, workdir, pid, tracer=None):
    """Time one pass (one operation), then check its outputs untimed."""
    pass_dir = os.path.join(workdir, f"pass-{pid}")
    os.makedirs(pass_dir)
    error = out = None
    cal_before = calibrate()
    if tracer is not None:
        tracer.pass_id = pid
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = wl.run_pass(inputs, pass_dir)
    except Exception:  # one failed operation; keep measuring
        error = traceback.format_exc()
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if tracer is not None:
        tracer.end_pass()
    # machine speed around this pass: the shared host's speed drifts by
    # tens of per cent within minutes, in the kernel and the pass alike
    scale = CAL_REF_S / ((cal_before + calibrate()) / 2.0)
    fails, measured = [], {}
    if error is None:
        try:
            fails, measured = wl.check(inputs, out, state)
        except Exception:
            fails = ["check raised:\n" + traceback.format_exc()]
    else:
        fails = ["pass raised:\n" + error]
    del out
    shutil.rmtree(pass_dir)
    return {"pass": pid, "wall_s": wall, "cpu_s": cpu, "wall_norm_s": wall * scale,
            "cpu_norm_s": cpu * scale, "cal_scale": scale, "failures": fails,
            "measured": measured}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads  # imports zetadiv: part of set-up
    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.make_inputs(args.seed)
    setup_s = time.monotonic() - args.t0
    result = {"setup_raw_s": setup_s, "setup_s": setup_s * CAL_REF_S / calibrate()}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    state = wl.prepare(inputs)
    # one untimed pass first, so that lazy set-up and allocator growth
    # inside the library are not in the timed samples; it is still checked
    result["warmup"] = one_pass(wl, inputs, state, args.workdir, -1)
    if args.trace:
        import tracing
        half = args.seconds / 2.0
        untraced = timed_passes(wl, inputs, state, half, args.workdir)
        tracer = tracing.Tracer()
        tracing.install_all(tracer)
        try:
            traced = timed_passes(wl, inputs, state, half, args.workdir, tracer,
                                  first_id=len(untraced))
        finally:
            tracer.uninstall()
        layers = tracing.layer_values(tracer.spans, {s["pass"]: s["wall_s"] for s in traced})
        for layer, s in zip(layers, traced):
            # layer times read in the same normalised seconds as the pass times
            for key in layer:
                if tracing.is_time(key):
                    layer[key] *= s["cal_scale"]
            s["failures"] += [f"traced pass recorded no {key}"
                              for key in wl.traced if key not in layer]
        result["layers"], result["spans"] = layers, tracer.spans
        result["untraced"], result["traced"] = untraced, traced
        result["trace_overhead_s"] = (statistics.median(s["wall_norm_s"] for s in traced)
                                      - statistics.median(s["wall_norm_s"] for s in untraced))
    else:
        result["untraced"] = timed_passes(wl, inputs, state, args.seconds, args.workdir)
        result["traced"] = []
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = provenance()
    with open(args.result, "w") as fh:
        json.dump(result, fh, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
