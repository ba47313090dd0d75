import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name, expect", [
    ("01_divisor_remainder.py", "empirical growth exponent of |delta| over dyadic blocks"),
    ("02_truncated_voronoi.py", "  delta* expansion at x=1000.125, N=1000: -2.55441 (1000 terms)"),
    ("03_critical_line.py",
     "  t=  10000: |Z_rs - Z_em| = 2.30e-07   envelope 0.053 t^-5/4 = 5.30e-07"),
    ("04_mean_square_three_ways.py", "accumulated error estimate"),
    ("05_exponent_pairs.py", "  depth 10: best theta_div = 229/696 (~0.329023) at "
                             "(97/251, 132/251) word=ABAABAAAB; 467 pairs explored"),
    ("06_estar_moments.py", "moment ratios at dyadic checkpoints"),
    ("07_subconvexity_scan.py",
     "  largest peak in range: |zeta| = 28.208 at t = 77403.732 (scaled 4.3210)"),
], ids=["demo01", "demo02", "demo03", "demo04", "demo05", "demo06", "demo07"])
def test_demo_runs(name, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
    assert "Warning" not in proc.stderr, proc.stderr
