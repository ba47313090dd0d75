import argparse
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zetadiv import CacheError, load_table, sieve_divisors, voronoi_delta
from zetadiv.cli import build_parser, main
from zetadiv.zeta import zeta_em


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_exppair_report_golden(capsys):
    rc, out, _ = run(capsys, "exppair-report", "--kappa", "11/30", "--lambda", "16/30")
    assert rc == 0
    assert "theta_div = 27/82" in out
    assert "beats_one_third = True" in out


def test_exppair_report_hypothetical_gate(capsys):
    rc, _, err = run(capsys, "exppair-report", "--kappa", "0", "--lambda", "1/2")
    assert rc == 2
    assert "--hypothetical" in err
    rc, out, _ = run(capsys, "exppair-report", "--kappa", "0", "--lambda", "1/2",
                     "--hypothetical")
    assert rc == 0
    assert "theta_div = 1/4" in out


def test_exppair_report_accepts_deep_derivable_pair(capsys):
    # word BAAAAAAAAAAAA: 13 processes from a seed pair, past the old depth-12 gate;
    # then A applied 30 times to (11/30, 16/30), past any depth the search can reach
    for kappa, lam in (("1/131070", "65527/65535"),
                       ("11/55834574826", "27917287241/27917287413")):
        rc, out, _ = run(capsys, "exppair-report", "--kappa", kappa, "--lambda", lam)
        assert rc == 0
        assert f"pair=({kappa}, {lam}) hypothetical=False" in out


def test_delta_scan_empty_range_usage_error(capsys, tmp_path):
    rc, _, err = run(capsys, "--cache-dir", str(tmp_path), "delta-scan", "--max", "0")
    assert rc == 2
    assert "max" in err


def test_delta_scan_deterministic_with_manifest(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    rc, _, _ = run(capsys, "--cache-dir", cache, "delta-scan", "--max", "2000",
                   "--count", "50", "--log-spaced", "--out", out1)
    assert rc == 0
    rc, _, _ = run(capsys, "--cache-dir", cache, "delta-scan", "--max", "2000",
                   "--count", "50", "--log-spaced", "--out", out2)
    assert rc == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()
    mani = json.load(open(out1 + ".manifest.json"))
    assert mani["command"] == "delta-scan"
    assert mani["config"]["max"] == 2000.0
    assert mani["outputs"][out1] == hashlib.sha256(open(out1, "rb").read()).hexdigest()
    assert set(mani) == {"command", "config", "fitted_constants", "outputs", "version",
                         "wall_time_s"}


def test_delta_scan_stdout_rows_are_plain_floats(capsys, tmp_path):
    rc, out, _ = run(capsys, "--cache-dir", str(tmp_path), "delta-scan", "--min", "10",
                     "--max", "20", "--count", "3")
    assert rc == 0
    rows = out.splitlines()
    assert len(rows) == 3
    for row in rows:
        x, d = row.split(",")
        float(x), float(d)


def test_stdout_has_no_numpy_reprs(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    for argv in (("e-scan", "--tmax", "50"),
                 ("zeta-eval", "--t", "5"),
                 ("zeta-eval", "--t", "100"),
                 ("voronoi", "--x", "500", "--n", "100", "--compare"),
                 ("atkinson", "--T", "400"),
                 ("balasu", "--T", "1000"),
                 ("short-interval", "--T", "1000", "--G", "10"),
                 ("moments", "--tmax", "300", "--k", "2")):
        rc, out, _ = run(capsys, "--cache-dir", cache, *argv)
        assert rc == 0, argv
        assert "np." not in out, (argv, out)


def test_zeta_eval_matches_oracle(capsys):
    rc, out, _ = run(capsys, "zeta-eval", "--t", "100")
    assert rc == 0
    printed = float(out.split("|zeta(1/2+it)|=")[1].split()[0])
    oracle = abs(zeta_em(0.5 + 100j, terms=400, correction_order=20))
    assert abs(printed - oracle) <= 1e-6 * oracle


def test_zeta_eval_small_t_routes_to_em(capsys):
    rc, out, _ = run(capsys, "zeta-eval", "--t", "2")
    assert rc == 0
    assert "Euler-Maclaurin route" in out


@pytest.mark.parametrize("t, line", [
    ("100", "t=100.0 Z=2.69269705666442 |zeta(1/2+it)|=2.69269705666442 "
            "|zeta|^2=7.250617438969232"),
    ("7000", "t=7000.0 Z=3.0800380748346767 |zeta(1/2+it)|=3.0800380748346767 "
             "|zeta|^2=9.486634542431302"),
], ids=["100", "7000"])
def test_zeta_eval_golden(capsys, t, line):
    # one point on each side of the Euler-Maclaurin / Riemann-Siegel crossover
    rc, out, _ = run(capsys, "zeta-eval", "--t", t)
    assert rc == 0
    assert out == line + "\n"


@pytest.mark.parametrize("t, codes", [("nan", {2}), ("inf", {2}), ("-inf", {2}),
                                      ("1e300", {2, 4})])
def test_zeta_eval_non_finite_and_huge_t(capsys, t, codes):
    rc, out, err = run(capsys, "zeta-eval", f"--t={t}")
    assert rc in codes, (rc, out, err)
    assert out == "" and "Traceback" not in err, (out, err)


def test_cli_import_leaves_scipy_out():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, zetadiv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout


def test_cache_build_hit_and_corruption(capsys, tmp_path):
    cache = str(tmp_path)
    rc, out, _ = run(capsys, "--cache-dir", cache, "cache-table", "--limit", "5000")
    assert rc == 0 and "built" in out
    rc, out, _ = run(capsys, "--cache-dir", cache, "cache-table", "--limit", "5000")
    assert rc == 0 and "hit" in out
    # smaller request still hits (cache is sliced)
    rc, out, _ = run(capsys, "--cache-dir", cache, "cache-table", "--limit", "100")
    assert rc == 0 and "hit" in out
    # bigger request forces a rebuild
    rc, out, err = run(capsys, "--cache-dir", cache, "cache-table", "--limit", "6000")
    assert rc == 0 and "rebuilt" in out and "rebuilding" in err
    # corrupt one byte: checksum rejects, rebuild happens
    path = os.path.join(cache, "divisor_table.bin")
    raw = bytearray(open(path, "rb").read())
    raw[100] ^= 0x01
    open(path, "wb").write(bytes(raw))
    rc, out, err = run(capsys, "--cache-dir", cache, "cache-table", "--limit", "6000")
    assert rc == 0 and "rebuilt" in out and "checksum" in err


def test_cache_table_rebuilds_v1_cache(capsys, tmp_path):
    # a hand-written version-1 file (uint32 payload) is refused, not misread
    path = tmp_path / "divisor_table.bin"
    values = sieve_divisors(5000).values
    payload = values.astype("<u4").tobytes()
    path.write_bytes(b"ZDTABLE1" + struct.pack("<IQ", 1, 5000)
                     + hashlib.sha256(payload).digest() + payload)
    with pytest.raises(CacheError, match="version 1"):
        load_table(path)
    rc, out, err = run(capsys, "--cache-dir", str(tmp_path), "cache-table", "--limit", "5000")
    assert rc == 0 and out.startswith("cache rebuilt") and "version 1" in err
    raw = path.read_bytes()
    assert struct.unpack("<IQ", raw[8:20]) == (2, 5000) and len(raw) == 52 + 2 * 5001
    assert np.array_equal(load_table(path).values, values)


def test_cache_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ZETADIV_CACHE_DIR", str(tmp_path / "envcache"))
    rc, out, _ = run(capsys, "cache-table", "--limit", "300")
    assert rc == 0 and "built" in out
    assert os.path.exists(tmp_path / "envcache" / "divisor_table.bin")


def test_balasu_resource_cap(capsys):
    rc, _, err = run(capsys, "balasu", "--T", "1e12")
    assert rc == 3
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ("e-scan", "--tmax", "1e4", "--step", "1e-9"),
    ("e-scan", "--tmax", "1e300"),
    ("e-scan", "--tmax", "4e18", "--step", "4e17"),
    ("short-interval", "--T", "1e18", "--G", "1e17"),
    ("delta-scan", "--max=100", "--step=5e-324"),
    ("delta-scan", "--max=100", "--step=1e-300"),
    ("delta-scan", "--max=100", "--count=16777216"),
    ("atkinson", "--T=1e300"),
], ids=["tiny-step", "huge-tmax", "huge-step", "short-interval", "delta-scan-step-inf-points",
        "delta-scan-step-huge-points", "delta-scan-count", "atkinson-N-past-sieve"])
def test_e_scan_grid_cap(capsys, argv):
    # chunk, node and grid-point counts and the Atkinson cutoff are checked
    # before any grid or divisor table is allocated
    rc, out, err = run(capsys, *argv)
    assert rc == 3, (rc, out, err)
    assert err.startswith("resource limit:") and "cap" in err, err


def test_e_scan_precision_exit(capsys, tmp_path):
    rc, _, err = run(capsys, "e-scan", "--tmax", "5", "--tol", "0")
    assert rc == 4
    assert "precision" in err.lower() or "tol" in err
    # a negative tolerance is a usage error, refused before the quadrature
    rc, _, err = run(capsys, "e-scan", "--tmax", "5", "--tol", "-1")
    assert rc == 2 and "--tol" in err, err


@pytest.mark.parametrize("argv, named", [
    (("atkinson", "--T", "1000", "--N", "3e7"), "cutoff N=30000000.0"),
    (("atkinson", "--T", "-5"), "T > 0, got T=-5.0"),
    (("estar-scan", "--tmax", "-5", "--out", "{tmp}/scan.csv"), "--tmax"),
    (("moments", "--tmax", "-5"), "--tmax"),
    (("voronoi", "--x", "1", "--n", "100"), "x must be finite and >= 2, got 1.0"),
    (("voronoi", "--x", "500", "--n", "-5"), "truncation N must be finite and >= 2, got -5"),
], ids=["atkinson-N", "atkinson-T", "estar-scan-tmax", "moments-tmax", "voronoi-x",
        "voronoi-n"])
def test_table_commands_check_flags_before_sieving(capsys, tmp_path, argv, named):
    # a bad flag exits 2 and names itself; no divisor table is sized or cached
    cache = tmp_path / "cache"
    rc, out, err = run(capsys, "--cache-dir", str(cache), *[a.format(tmp=tmp_path) for a in argv])
    assert rc == 2 and named in err, (rc, out, err)
    assert not (cache / "divisor_table.bin").exists()


@pytest.mark.parametrize("argv", [
    ("e-scan", "--tmax", "nan"),
    ("e-scan", "--tmax", "300", "--step", "nan"),
    ("estar-scan", "--tmax", "nan", "--out", "{tmp}/scan.csv"),
    ("short-interval", "--T", "inf", "--G", "5"),
    ("balasu", "--T", "nan"),
    ("atkinson", "--T", "nan"),
    ("voronoi", "--x", "nan", "--n", "10"),
    ("delta-scan", "--max", "nan", "--count", "5"),
    ("delta-scan", "--max", "inf", "--count", "5"),
    ("e-scan", "--tmax", "300", "--tol", "nan"),
], ids=["e-scan-tmax", "e-scan-step", "estar-scan-tmax", "short-interval-T", "balasu-T",
        "atkinson-T", "voronoi-x", "delta-scan-max-nan", "delta-scan-max-inf", "e-scan-tol"])
def test_quadrature_commands_reject_non_finite(capsys, tmp_path, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    rc, out, err = run(capsys, "--cache-dir", str(tmp_path), *argv)
    assert rc == 2, (rc, out, err)
    assert "Traceback" not in err and err.startswith("error:"), err


#: one valid value per required flag, so each float flag can go to an
#: extreme while the others stay ordinary
BASE_ARGS = {
    "delta-scan": ("--min=10", "--max=20", "--step=1"),
    "voronoi": ("--x=500", "--n=100"),
    "zeta-eval": ("--t=100",),
    "e-scan": ("--tmax=50",),
    "atkinson": ("--T=400",),
    "balasu": ("--T=1000",),
    "estar-scan": ("--tmax=50", "--out={tmp}/scan.csv"),
    "moments": ("--tmax=300",),
    "short-interval": ("--T=1000", "--G=10"),
}
EXTREMES = ("nan", "inf", "-inf", "0", "-1", "1e300", "5e-324")
NON_FINITE_TOKEN = re.compile(r"(?<![a-z])(nan|inf|infinity)(?![a-z])", re.IGNORECASE)


def float_flag_slots():
    """(subcommand, flag) for every float flag of every subcommand but accept."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0]) for name, sp in sub.choices.items()
            if name != "accept" for action in sp._actions if action.type is float]


@pytest.mark.filterwarnings("ignore::zetadiv.errors.PrecisionWarning")
@pytest.mark.parametrize("command, flag", float_flag_slots(),
                         ids=lambda v: v.lstrip("-"))
def test_float_flags_at_extremes(capsys, tmp_path, command, flag):
    # --flag=value form, so that -inf is read as a value; an exception
    # escaping main fails the test as it stands
    base = [a.format(tmp=tmp_path) for a in BASE_ARGS[command]
            if not a.startswith(flag + "=")]
    for value in EXTREMES:
        argv = ("--cache-dir", str(tmp_path / "cache"), command, *base, f"{flag}={value}")
        rc, out, err = run(capsys, *argv)
        assert rc in (0, 2, 3, 4), (argv, rc, err)
        if rc == 0:
            assert not NON_FINITE_TOKEN.search(out), (argv, out)


@pytest.mark.filterwarnings("ignore::zetadiv.errors.PrecisionWarning")
def test_estar_scan_csv_contract(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    out = str(tmp_path / "scan.csv")
    rc, _, _ = run(capsys, "--cache-dir", cache, "estar-scan", "--tmax", "50",
                   "--step", "0.25", "--out", out)
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,E,delta_star,E_star"
    assert len(lines) == 202  # 201 samples + header
    row = lines[10].split(",")
    assert math.isclose(float(row[3]), float(row[1]) - float(row[2]), rel_tol=0, abs_tol=0)
    assert os.path.exists(out + ".summary.json")
    assert os.path.exists(out + ".manifest.json")


def test_moments_cli(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    rc, out, _ = run(capsys, "--cache-dir", cache, "moments", "--tmax", "300",
                     "--k", "2")
    assert rc == 0
    assert out.splitlines()[0] == "T,integral,normalizer,ratio"


def test_voronoi_cli(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    # without --compare the sum reads d(1..N) alone, whatever x is
    rc, out, err = run(capsys, "--cache-dir", cache, "voronoi", "--x", "1e8", "--n", "1000")
    assert rc == 0, err
    v = voronoi_delta(sieve_divisors(1000), 1e8, 1000)
    assert out == f"x={v.x!r} N={v.N} terms={v.term_count} value={v.value!r}\n"
    assert load_table(os.path.join(cache, "divisor_table.bin")).limit == 1000
    rc, out, _ = run(capsys, "--cache-dir", cache, "voronoi", "--x", "500",
                     "--n", "100", "--compare")
    assert rc == 0
    assert "residual=" in out
    rc, out, _ = run(capsys, "--cache-dir", cache, "voronoi", "--x", "500",
                     "--n", "100", "--star")
    assert rc == 0


def test_atkinson_and_short_interval_cli(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    rc, out, _ = run(capsys, "--cache-dir", cache, "atkinson", "--T", "400")
    assert rc == 0 and "sigma1=" in out
    assert load_table(os.path.join(cache, "divisor_table.bin")).limit == 400  # max(N, N')
    rc, out, _ = run(capsys, "short-interval", "--T", "1000", "--G", "10")
    assert rc == 0 and "value/(G*logT)=" in out


def test_exppair_search_cli(capsys, tmp_path):
    out = str(tmp_path / "front.csv")
    rc, text, _ = run(capsys, "exppair-search", "--depth", "10", "--out", out)
    assert rc == 0
    assert text.splitlines()[0] == ("best theta_div = 229/696 (~0.329023) at pair "
                                    "(97/251, 132/251) word=ABAABAAAB")
    lines = open(out).read().splitlines()
    assert lines[0] == "kappa,lambda,word,theta_div,theta_zeta"
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["fitted_constants"] == {"best_theta_div": "229/696"}
