"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --out perfbench/results/x.json

For every workload of BENCHMARK.json: one untraced run per seed in
``SEEDS`` and one traced run per seed in ``TRACED_SEEDS``, plus a second
traced run of the first traced seed to show that the exact counters (unit ``count`` or
``bytes``) repeat.  Each metric gets its values, median, quartiles and
spread (quartile distance over the median, as Python's
``statistics.quantiles(values, n=4)`` gives them).  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "bytes")
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 4)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    with open(ROOT / json.loads(lines[-2])["record"]) as fh:
        result["record"] = json.load(fh)
    return result


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / med if med else 0.0,
                     "values": vals}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        t0 = time.monotonic()
        plain = [run_once(w, s, seconds, 0) for s in SEEDS]
        traced = [run_once(w, s, seconds, 1) for s in TRACED_SEEDS]
        again = run_once(w, TRACED_SEEDS[0], seconds, 1)
        counts = {k: m["value"] for k, m in traced[0]["metrics"].items()
                  if m["unit"] in COUNT_UNITS}
        repeat = {k: m["value"] for k, m in again["metrics"].items() if k in counts}
        report["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in plain + traced + [again]),
            "failed": sum(r["failed"] for r in plain + traced + [again]),
            "all_correct": all(r["correct"] for r in plain + traced + [again]),
            "end_to_end": summarise(plain),
            "per_layer": summarise(traced),
            "counters_repeat_exactly": counts == repeat,
            "measured": plain[0]["record"]["passes"][0]["measured"],
            "provenance": plain[0]["record"]["provenance"],
            "git_sha": plain[0]["record"]["git_sha"],
            "src_sha256": plain[0]["record"]["src_sha256"],
            "sweep_s": time.monotonic() - t0,
        }
        e2e = report["workloads"][w]["end_to_end"]
        print(w, {k: (round(v["median"], 4), round(v["spread"], 4)) for k, v in e2e.items()},
              "failed", report["workloads"][w]["failed"],
              "counters repeat", counts == repeat, flush=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
