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
from zetadiv.divisor import MAX_SIEVE_LIMIT
from zetadiv.error_terms import E_GRID_MAX_POINTS, E_direct
from zetadiv.exppairs import MAX_SEARCH_DEPTH
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
    # below t = 10 zeta-eval is the same z_function call and line shape; its
    # Euler-Maclaurin route gives |zeta(1/2+2i)| with the bits of zeta_em
    rc, out, _ = run(capsys, "zeta-eval", "--t", "2")
    assert rc == 0
    assert out.startswith("t=2.0 Z=-0.5396331256461443 ")
    assert f" |zeta(1/2+it)|={abs(zeta_em(0.5 + 2j))!r} " in out


@pytest.mark.parametrize("t, code, line", [
    ("-7000", 0, "t=-7000.0 Z=3.0800380748346767 |zeta(1/2+it)|=3.0800380748346767 "
                 "|zeta|^2=9.486634542431302\n"),
    ("-2", 0, "t=-2.0 Z=-0.5396331256461443 |zeta(1/2+it)|=0.5396331256461443 "
              "|zeta|^2=0.29120391029462733\n"),
    ("-1e9", 0, None),
    ("-1e300", 4, None),
], ids=["-7000", "-2", "-1e9", "-1e300"])
def test_zeta_eval_negative_t_is_z_of_abs_t(capsys, t, code, line):
    # Z is even, so a negative t prints Z(|t|) after its own t; -1e9 is a
    # Riemann-Siegel point, and -1e300 is past the phase-rounding cap
    rc, out, err = run(capsys, "zeta-eval", f"--t={t}")
    assert rc == code, (rc, out, err)
    assert "Traceback" not in err
    if code == 0:
        assert out.count("\n") == 1 and out.startswith(f"t={float(t)!r} Z="), out
        assert line is None or out == line, out
    else:
        assert out == "" and err.startswith("precision failure:") and err.count("\n") == 1


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


def test_e_scan_precision_exit(capsys, monkeypatch):
    # E_grid gates on E_DIRECT_TOL; at 0 every estimate fails it
    monkeypatch.setattr("zetadiv.error_terms.E_DIRECT_TOL", 0.0)
    rc, _, err = run(capsys, "e-scan", "--tmax", "5")
    assert rc == 4
    assert err.startswith("precision failure: quadrature error estimate"), err


@pytest.mark.filterwarnings("ignore::zetadiv.errors.PrecisionWarning")
def test_scan_grids_stop_at_tmax(capsys, tmp_path):
    # a step that does not divide tmax ends the grid at its last point
    # below tmax, and e-scan names the t it printed
    rc, out, _ = run(capsys, "e-scan", "--tmax", "15", "--step", "10")
    assert rc == 0 and out.startswith("E(10.0) = "), out
    assert float(out.split()[2]) == pytest.approx(E_direct(10.0), abs=1e-3)  # E(20) is 7.19
    rc, out, _ = run(capsys, "e-scan", "--tmax", "100", "--step", "3")
    assert rc == 0 and out.startswith("E(99.0) = "), out
    # the divisor table covers tmax, so delta* is never read past it
    scan = tmp_path / "scan.csv"
    rc, out, err = run(capsys, "--cache-dir", str(tmp_path / "c"), "estar-scan",
                       "--tmax", "15", "--step", "10", "--out", str(scan))
    assert rc == 0, err
    assert [row.split(",")[0] for row in scan.read_text().splitlines()[1:]] == ["0.0", "10.0"]


@pytest.mark.parametrize("argv, named", [
    (("atkinson", "--T", "1000", "--N", "3e7"), "cutoff N=30000000.0"),
    (("atkinson", "--T", "-5"), "T > 0, got T=-5.0"),
    (("estar-scan", "--tmax", "-5", "--out", "{tmp}/scan.csv"), "got tmax=-5.0, step=0.25"),
    (("moments", "--tmax", "-5"), "--tmax"),
    (("moments", "--tmax", "10"), "--tmax must be >= 16"),
    (("estar-scan", "--tmax", "0.2", "--step", "0.25", "--out", "{tmp}/scan.csv"),
     "step 0.25 exceeds tmax 0.2"),
    (("moments", "--tmax", "16", "--step", "20"), "step 20.0 exceeds tmax 16.0"),
    (("e-scan", "--tmax", "0.2", "--step", "0.25"), "step 0.25 exceeds tmax 0.2"),
    (("voronoi", "--x", "1", "--n", "100"), "x must be finite and >= 2, got 1.0"),
    (("voronoi", "--x", "500", "--n", "-5"), "truncation N must be finite and >= 2, got -5"),
    (("delta-scan", "--max", "10", "--step", "1", "--log-spaced"), "--log-spaced needs --count"),
    (("delta-scan", "--max", "10", "--step", "1", "--count", "3"),
     "exactly one of --step and --count"),
    (("delta-scan", "--max", "-5", "--count", "4"), "empty range: min=1.0, max=-5.0"),
], ids=["atkinson-N", "atkinson-T", "estar-scan-tmax", "moments-tmax", "moments-tmax-below-16",
        "estar-scan-step-above-tmax", "moments-step-above-tmax", "e-scan-step-above-tmax",
        "voronoi-x", "voronoi-n", "delta-scan-log-without-count", "delta-scan-step-and-count",
        "delta-scan-max-below-1"])
def test_table_commands_check_flags_before_sieving(capsys, tmp_path, argv, named):
    # a bad flag exits 2 and names itself; no divisor table is sized or
    # cached, and no --out is written
    cache = tmp_path / "cache"
    rc, out, err = run(capsys, "--cache-dir", str(cache), *[a.format(tmp=tmp_path) for a in argv])
    assert rc == 2 and named in err, (rc, out, err)
    assert not (cache / "divisor_table.bin").exists()
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("cache, argv", [
    ("{file}/c", ("cache-table", "--limit", "10")),
    ("{file}/c", ("delta-scan", "--max", "10", "--step", "1")),
    ("{file}/c", ("estar-scan", "--tmax", "50", "--out", "{tmp}/s.csv")),
    ("{tmp}/c", ("delta-scan", "--max", "10", "--step", "1", "--out", "{tmp}/no/x.csv")),
    ("{tmp}/c", ("e-scan", "--tmax", "50", "--out", "{tmp}/no/x.csv")),
    ("{tmp}/c", ("estar-scan", "--tmax", "50", "--out", "{tmp}/no/x.csv")),
    ("{tmp}/c", ("moments", "--tmax", "50", "--out", "{tmp}/no/x.csv")),
    ("{tmp}/c", ("exppair-search", "--depth", "2", "--out", "{tmp}/no/x.csv")),
    ("{tmp}/c", ("estar-scan", "--tmax", "50", "--out", "{tmp}")),
], ids=["cache-table-cache", "delta-scan-cache", "estar-scan-cache", "delta-scan-out",
        "e-scan-out", "estar-scan-out", "moments-out", "exppair-search-out",
        "estar-scan-out-is-dir"])
def test_unwritable_output_exits_2(capsys, tmp_path, cache, argv):
    # a cache directory under a regular file is a usage error, and an --out
    # that is a directory or lies in a missing one is refused before the
    # command starts
    (tmp_path / "file").write_text("")
    fill = {"tmp": tmp_path, "file": tmp_path / "file"}
    named = "Not a directory" if cache == "{file}/c" else "not a file in an existing directory"
    argv = ["--cache-dir", cache.format(**fill), *[a.format(**fill) for a in argv]]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and err.startswith("error:") and named in err, (rc, out, err)


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
], ids=["e-scan-tmax", "e-scan-step", "estar-scan-tmax", "short-interval-T", "balasu-T",
        "atkinson-T", "voronoi-x", "delta-scan-max-nan", "delta-scan-max-inf"])
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


#: each int flag: its command with the other flags it needs, and the first
#: value past its cap (a table past the sieve cap, a grid of
#: E_GRID_MAX_POINTS, a search past MAX_SEARCH_DEPTH, a k outside 2, 4, 5)
INT_FLAGS = {
    "--count": (("delta-scan", "--min=10", "--max=20"), E_GRID_MAX_POINTS, 3),
    "--n": (("voronoi", "--x=500"), MAX_SIEVE_LIMIT + 1, 3),
    "--k": (("moments", "--tmax=300"), 6, 2),
    "--depth": (("exppair-search",), MAX_SEARCH_DEPTH + 1, 3),
    "--limit": (("cache-table",), MAX_SIEVE_LIMIT + 1, 3),
}


@pytest.mark.parametrize("flag", INT_FLAGS, ids=lambda v: v.lstrip("-"))
def test_int_flags_at_extremes(capsys, tmp_path, traced_peak, flag):
    # -1, 0, the first value past the cap and 10**30 exit 2 or 3 before any
    # table, grid or search is sized (under 1 MB traced, no cache file);
    # --depth 0 is a valid search of the seeds alone.  Allowed large values
    # (a 2**28 sieve, a 2**24 - 1 grid, a depth-24 search) run long and are
    # not drawn
    (command, *base), cap, cap_code = INT_FLAGS[flag]
    cache = tmp_path / "cache"
    for value, code in ((-1, 2), (0, 0 if flag == "--depth" else 2), (cap, cap_code),
                        (10**30, cap_code)):
        (rc, _, err), peak = traced_peak(
            lambda: run(capsys, "--cache-dir", str(cache), command, *base, f"{flag}={value}"))
        assert rc == code, (flag, value, rc, err)
        assert peak < 2**20, (flag, value, peak)
        assert not (cache / "divisor_table.bin").exists(), (flag, value)


def test_precision_warning_is_one_line(capsys, tmp_path):
    # a sparse moment grid warns on one `warning:` line, as a cache rebuild
    # does: no source path and no code line on stderr
    rc, out, err = run(capsys, "--cache-dir", str(tmp_path / "cache"), "moments",
                       "--tmax", "100")
    assert rc == 0 and out.startswith("T,integral,normalizer,ratio\n16.0,")
    assert err == ("warning: moment grid is sparse (401 samples, step 0.25); "
                   "moment ratios may be under-resolved\n")
    assert ".py:" not in err


@pytest.mark.parametrize("argv", [
    ("moments", "--tmax", "300", "--k", "3"),
    ("moments",),
    ("e-scan", "--tmax", "5", "--tol", "0"),
    ("zeta-eval", "--t", "abc"),
    ("no-such-command",),
    (),
], ids=["k-choice", "missing-tmax", "removed-tol", "bad-float", "bad-command", "no-command"])
def test_argparse_refusals_are_one_error_line(capsys, argv):
    # argparse's own refusals are returned as exit 2 with one `error:` line,
    # no usage block, like every other refusal
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "", (rc, out, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [("--help",), ("moments", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: zetadiv")


@pytest.mark.parametrize("flag", ["--kappa", "--lambda"])
def test_exppair_report_rational_flags_at_extremes(capsys, flag):
    # malformed literals, values outside 0 <= kappa <= 1/2 <= lambda <= 1
    # (with and without --hypothetical) and huge values: exit 2, one line
    base = {"--kappa": "11/30", "--lambda": "16/30"}
    for value in ("1/0", "nan", "inf", "", "-1/2", "3/2", "1e400"):
        for extra in ((), ("--hypothetical",)):
            argv = ["exppair-report", *(f"{f}={value if f == flag else v}"
                                        for f, v in base.items()), *extra]
            rc, out, err = run(capsys, *argv)
            assert rc == 2 and out == "", (argv, rc, out, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    rc, out, err = run(capsys, "exppair-report", "--kappa", "0", "--lambda", "1/2")
    assert rc == 2 and "--hypothetical" in err and err.count("\n") == 1, err


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


#: sha256 of ``estar-scan --tmax 2000 --out``: 8,001 rows, across a seam of the
#: CSV writer's 4096-row blocks and t up to 2000, past the moments goldens
ESTAR_TMAX2000_SHA256 = "f4e7d6047eea894beb63b219e1cdb6809588e6822798483753f738ec2396c5a8"


def test_estar_scan_tmax2000_golden(capsys, tmp_path):
    # the first run sieves and saves the divisor table, the second loads it
    # (a rebuild would replace the file by a new one)
    cache = tmp_path / "cache"
    stats = []
    for status in ("built", "hit"):
        out = tmp_path / f"{status}.csv"
        rc, _, _ = run(capsys, "--cache-dir", str(cache), "estar-scan", "--tmax", "2000",
                       "--out", str(out))
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == ESTAR_TMAX2000_SHA256, status
        st = os.stat(cache / "divisor_table.bin")
        stats.append((st.st_ino, st.st_mtime_ns))
    assert stats[0] == stats[1]


#: sha256 of ``moments --tmax 300 --k k --out`` CSVs
MOMENTS_TMAX300_SHA256 = {
    2: "c10c40be14c3802b7304dcf9369d6093ce6c4b0662282bd9b22811b6050c6eb4",
    4: "fd4bb7a869cfe80398070929db52387fcc6d1f152c8bb98e0d30cf6d3ee74b70",
    5: "4d4ea8185e189ffa40ee53da137a2a712e16e446b9b31fc4865a23263d9861ab",
}


def test_moments_cli(capsys, tmp_path):
    # stdout (header, rows, and k = 2's cubic-fit line) and the --out CSV,
    # both golden
    cache = str(tmp_path / "cache")
    for k, sha in MOMENTS_TMAX300_SHA256.items():
        rc, out, _ = run(capsys, "--cache-dir", cache, "moments", "--tmax", "300",
                         "--k", str(k))
        assert rc == 0
        golden = Path(__file__).parent / "data" / f"moments_tmax300_k{k}.txt"
        assert out == golden.read_text(), k
        csv = tmp_path / f"m{k}.csv"
        rc, _, _ = run(capsys, "--cache-dir", cache, "moments", "--tmax", "300",
                       "--k", str(k), "--out", str(csv))
        assert rc == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == sha, k


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
