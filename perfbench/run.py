"""zetadiv benchmark launcher.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each workload runs alone in its own
worker process (``worker.py``) with ``src`` on PYTHONPATH and BLAS
threads set to the number of usable cores.  Before it, fresh set-up
probes (one warm-up, then ``SETUP_PROBES`` timed) import zetadiv and
build the inputs, so that ``setup_s`` is a median.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, and a file
under ``.bench_run/``, hold the full record (samples, checks, layer
values, provenance).  With ``--trace 1`` the worker times half of the
budget untraced and half traced, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("critical-line", "zeta-high", "estar-cli", "arith")
SETUP_PROBES = 4
#: every run must end within this many seconds
DEADLINE_S = 175.0


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "zetadiv").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _spawn(args, extra, workdir, result, env, timeout):
    """Run the worker to completion; returns its JSON result or raises."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--result", str(result)] + extra
    with open(workdir / "worker.log", "a") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker exceeded {timeout:.0f} s")
    if code != 0:
        raise RuntimeError(f"worker exited {code}; see {workdir / 'worker.log'}")
    with open(result) as fh:
        data = json.load(fh)
    result.unlink()
    return data


def _metrics(declared: list[dict], values: dict, default=None) -> dict:
    """The declared metrics with their values; ``default`` fills the missing."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and default is None:
        raise RuntimeError(f"no value for declared metrics {missing}")
    return {m["name"]: {"value": values.get(m["name"], default), "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not (ROOT / "src" / "zetadiv" / "__init__.py").is_file():
        return _fail(f"no zetadiv sources under {ROOT / 'src'}; run from a full checkout")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + DEADLINE_S
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = ROOT / ".bench_run" / tag
    workdir.mkdir(parents=True)

    try:
        setups = []
        for i in range(SETUP_PROBES + 1):
            probe = _spawn(args, ["--setup-only"], workdir, workdir / "probe.json", env,
                           deadline - time.monotonic())
            if i:  # the first probe only warms the file cache and bytecode
                setups.append(probe)
        res = _spawn(args, [], workdir, workdir / "worker.json", env,
                     deadline - time.monotonic())
    except RuntimeError as exc:
        return _fail(str(exc))
    setups.append({k: res[k] for k in ("setup_s", "setup_raw_s")})

    passes = [res["warmup"]] + res["untraced"] + res["traced"]
    untraced = res["untraced"]
    values = {
        "wall_norm_s": statistics.median(s["wall_norm_s"] for s in untraced),
        "cpu_norm_s": statistics.median(s["cpu_norm_s"] for s in untraced),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    coverage_ok = True
    if args.trace:
        layers = res["layers"]
        values.update({k: statistics.median(d.get(k, 0.0) for d in layers)
                       for k in {k for d in layers for k in d}})
        values["bench.span_coverage"] = min(d["bench.span_coverage"] for d in layers)
        values["bench.trace_overhead_s"] = res["trace_overhead_s"]
        values["zeta.oracle_abs_err_max"] = max(
            s["measured"].get("oracle_abs_err_max", 0.0) for s in passes)
        values["cli.bytes_written"] = statistics.median(
            s["measured"].get("bytes_written", 0) for s in res["traced"])
        coverage_ok = values["bench.span_coverage"] >= 0.9
        if args.workload == "estar-cli":
            # only the extend_to span sees the integrator's Richardson estimate
            for s, layer in zip(res["traced"], layers):
                rich = layer.get("error_terms.ZetaMeanSquare.extend_to.richardson_err", 0.0)
                if not 0.0 < rich <= 0.1:
                    s["failures"].append(f"Richardson estimate at 2e4 is {rich!r}, not in (0, 0.1]")
    try:
        # a layer the workload is not meant to call reads 0 (its prediction:
        # no change); the worker fails a pass that misses one it is meant to call
        metrics = (_metrics(spec["per_layer"], values, default=0) if args.trace
                   else _metrics(spec["end_to_end"], values))
    except RuntimeError as exc:
        return _fail(str(exc))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "src_sha256": _source_digest(),
        "provenance": res["provenance"], "setup_samples_s": setups,
        "passes": passes,
        "untraced_passes": len(untraced), "traced_passes": len(res["traced"]),
        "span_coverage_ok": coverage_ok, "metrics": metrics,
    }
    with open(workdir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(workdir / "spans.json", "w") as fh:
            json.dump(res["spans"], fh)
    print(json.dumps({"record": str((workdir / "record.json").relative_to(ROOT)),
                      "passes": len(passes), "untraced_passes": len(untraced),
                      "failures": [f for s in passes for f in s["failures"]][:5]}))
    failed = sum(1 for s in passes if s["failures"])
    print(json.dumps({"correct": failed == 0 and coverage_ok, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
