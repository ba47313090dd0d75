import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name, expect", [
    ("01_divisor_remainder.py", "empirical growth exponent of |delta| over dyadic blocks"),
    ("04_mean_square_three_ways.py", "accumulated error estimate"),
    ("06_estar_moments.py", "moment ratios at dyadic checkpoints"),
], ids=["demo01", "demo04", "demo06"])
def test_demo_runs(name, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
    assert "Warning" not in proc.stderr, proc.stderr
