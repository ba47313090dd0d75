"""Command-line front end: scans, single evaluations, caching, manifests.

Every run that writes data files also writes a JSON manifest next to them
(config echo, tool version, wall time, fitted constants, sha256 of each
output).  Data sections are byte-deterministic for a fixed config and
version: fixed iteration orders, no randomised quadrature, shortest
round-trip float formatting.

Exit codes: 0 success, 1 an acceptance criterion failed, 2 usage /
invalid argument / unwritable output, 3 resource cap, 4 precision failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .divisor import (DivisorTable, delta_grid, load_table, save_table,
                      sieve_divisors)
from .errors import (CacheError, InvalidArgumentError, PrecisionError,
                     ResourceLimitError, ZetaDivError)
from .error_terms import (E_GRID_MAX_POINTS, MOMENT_J_MIN, E_atkinson, E_balasubramanian,
                          E_grid, atkinson_cutoffs, check_E_grid, estar_scan, fit_log_cubic,
                          moment_scan_from_samples, short_interval_ms, write_columns_csv)
from .exppairs import (ExponentPair, is_process_reachable, parse_fraction, search_optimal,
                       write_frontier_csv)
from .voronoi import (delta_series_target, delta_star_series_target, voronoi_delta,
                      voronoi_delta_star, voronoi_term_count)
from .zeta import TWO_PI, rs_term_count, z_function

CACHE_ENV = "ZETADIV_CACHE_DIR"
CACHE_FILENAME = "divisor_table.bin"

EXIT_OK = 0
EXIT_CRITERION_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PRECISION = 4


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(args, t0: float, outputs, fitted_constants: dict, **config) -> None:
    """Write ``<args.out>.manifest.json`` for the run started at t0 that wrote ``outputs``."""
    echo = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    manifest = {"command": args.command, "config": {**echo, **config}, "version": __version__,
                "wall_time_s": time.time() - t0, "fitted_constants": fitted_constants,
                "outputs": {p: _sha256(p) for p in outputs}}  # path -> sha256 of file bytes
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cache_dir(args) -> str:
    d = args.cache_dir or os.environ.get(CACHE_ENV) or os.path.join(".", ".zetadiv-cache")
    os.makedirs(d, exist_ok=True)
    return d


def cache_table(limit: int, cache_dir: str) -> tuple[DivisorTable, str, str]:
    """Load the cached divisor table covering ``limit``, rebuilding if needed.

    Returns (table, path, status) with status one of "hit", "rebuilt",
    "built".  A corrupt or too-small cache is rebuilt with a warning on
    stderr; the checksum is always verified on load.
    """
    path = os.path.join(cache_dir, CACHE_FILENAME)
    status = "built"
    if os.path.exists(path):
        try:
            return load_table(path, limit=limit), path, "hit"
        except CacheError as exc:
            print(f"warning: rebuilding divisor cache ({exc})", file=sys.stderr)
            status = "rebuilt"
    table = sieve_divisors(limit)
    save_table(table, path)
    return table, path, status


def _float_grid(lo: float, hi: float, step: float | None, count: int | None,
                log_spaced: bool) -> np.ndarray:
    """The --count or --step grid on [lo, hi]; ``E_GRID_MAX_POINTS`` points or
    more raise ResourceLimitError before anything is allocated."""
    if hi <= lo:
        raise InvalidArgumentError(f"empty range: min={lo}, max={hi}")
    if (step is None) == (count is None):
        raise InvalidArgumentError("give exactly one of --step and --count")
    if log_spaced and count is None:
        raise InvalidArgumentError("--log-spaced needs --count")
    if count is None and step <= 0:
        raise InvalidArgumentError(f"--step must be positive, got {step!r}")
    points = count if count is not None else (hi - lo) / step + 1.0
    if points >= E_GRID_MAX_POINTS:
        raise ResourceLimitError(f"{points:.3e} grid points reach the cap of "
                                 f"{E_GRID_MAX_POINTS}")
    if count is not None:
        if count < 2:
            raise InvalidArgumentError("count must be >= 2")
        if log_spaced:
            if lo <= 0:
                raise InvalidArgumentError("log spacing needs min > 0")
            return np.exp(np.linspace(math.log(lo), math.log(hi), count))
        return np.linspace(lo, hi, count)
    n = int(math.floor((hi - lo) / step + 1e-9))
    return lo + step * np.arange(n + 1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_delta_scan(args) -> int:
    lo = max(args.min, 1.0)  # so a --max below 1 is an empty range
    xs = _float_grid(lo, args.max, args.step, args.count, args.log_spaced)
    t0 = time.time()
    table, cache_path, status = cache_table(int(math.ceil(args.max)), _cache_dir(args))
    ds = delta_grid(table, xs)
    if args.out:
        write_columns_csv(args.out, "x,delta", (xs, ds))
        _write_manifest(args, t0, [args.out], {"max_abs_delta": float(np.max(np.abs(ds)))},
                        cache_status=status)
        print(f"wrote {xs.size} rows to {args.out} (cache: {status} at {cache_path})")
    else:
        for x, d in zip(xs.tolist(), ds.tolist()):
            print(f"{x!r},{d!r}")
    return EXIT_OK


def cmd_voronoi(args) -> int:
    # the sum reads d(1..N); the series target reads the table up to x (4x for delta*)
    limit = voronoi_term_count(args.x, args.n)  # checks --x and --n before sieving
    if args.compare:
        limit = max(limit, math.ceil(4 * args.x if args.star else args.x))
    table, _, _ = cache_table(limit, _cache_dir(args))
    fn = voronoi_delta_star if args.star else voronoi_delta
    v = fn(table, args.x, args.n)
    print(f"x={v.x!r} N={v.N} terms={v.term_count} value={v.value!r}")
    if args.compare:
        target = (delta_star_series_target if args.star else delta_series_target)(table, args.x)
        print(f"series_target={target!r} residual={abs(v.value - target)!r}")
    return EXIT_OK


def cmd_zeta_eval(args) -> int:
    z = z_function(args.t)
    print(f"t={args.t!r} Z={z!r} |zeta(1/2+it)|={abs(z)!r} |zeta|^2={z * z!r}")
    return EXIT_OK


def cmd_e_scan(args) -> int:
    t0 = time.time()
    ts, es, err = E_grid(args.tmax, args.step)
    if args.out:
        write_columns_csv(args.out, "t,E", (ts, es))
        _write_manifest(args, t0, [args.out], {"quadrature_error_estimate": err})
        print(f"wrote {ts.size} rows to {args.out}")
    else:
        print(f"E({float(ts[-1])!r}) = {float(es[-1])!r} (error estimate {err:.3e})")
    return EXIT_OK


def cmd_atkinson(args) -> int:
    need = atkinson_cutoffs(args.T, args.N)[2]  # checks --T and --N before sieving
    table, _, _ = cache_table(need, _cache_dir(args))
    ev = E_atkinson(args.T, args.N, table=table)
    print(f"T={ev.T!r} N={ev.N!r} N'={ev.N_prime!r}")
    print(f"sigma1={ev.sigma1!r} sigma2={ev.sigma2!r} value={ev.value!r}")
    return EXIT_OK


def cmd_balasu(args) -> int:
    val = E_balasubramanian(args.T)
    print(f"T={args.T!r} value={val!r} K={rs_term_count(args.T)}")
    return EXIT_OK


def _estar_table(args) -> DivisorTable:
    check_E_grid(args.tmax, args.step)  # before the table is sized
    return cache_table(int(4 * args.tmax / TWO_PI) + 2, _cache_dir(args))[0]


def cmd_estar_scan(args) -> int:
    t0 = time.time()
    table = _estar_table(args)
    scan = estar_scan(args.tmax, args.step, table=table)
    scan.write_csv(args.out)
    summary = scan.summary()
    with open(args.out + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args, t0, [args.out, args.out + ".summary.json"],
                    {k: v for k, v in summary.items() if k.startswith("moment")})
    print(f"wrote {scan.t.size} rows to {args.out}")
    return EXIT_OK


def cmd_moments(args) -> int:
    if args.tmax < 2 ** MOMENT_J_MIN:
        raise InvalidArgumentError(f"--tmax must be >= {2 ** MOMENT_J_MIN}, the first moment "
                                   f"checkpoint, got {args.tmax!r}")
    t0 = time.time()
    table = _estar_table(args)
    scan = estar_scan(args.tmax, args.step, table=table)
    columns = moment_scan_from_samples(scan.t, scan.E_star, args.k)
    T, integral = columns[:2]
    fitted = {}
    if args.k == 2 and T.size >= 4:
        coef, rel = fit_log_cubic(T, integral)
        fitted = {"log_cubic_coefficients": coef.tolist(),
                  "log_cubic_max_rel_residual_top4": float(np.max(rel[-4:]))}
    header = "T,integral,normalizer,ratio"
    if args.out:
        write_columns_csv(args.out, header, columns)
        _write_manifest(args, t0, [args.out], fitted)
        print(f"wrote {T.size} checkpoints to {args.out}")
    else:
        print(header)
        for row in zip(*(col.tolist() for col in columns)):
            print(",".join(map(repr, row)))
        if fitted:
            print("cubic fit:", json.dumps(fitted))
    return EXIT_OK


def cmd_short_interval(args) -> int:
    val = short_interval_ms(args.T, args.G)
    ratio = val / (args.G * math.log(args.T))
    print(f"T={args.T!r} G={args.G!r} value={val!r} value/(G*logT)={ratio!r}")
    return EXIT_OK


def cmd_exppair_report(args) -> int:
    kappa = parse_fraction(args.kappa)
    lam = parse_fraction(args.lam)
    if not args.hypothetical and not is_process_reachable(kappa, lam):
        raise InvalidArgumentError(
            f"({kappa}, {lam}) is not derivable from the seed pairs by the "
            "A/B processes; pass --hypothetical to report a conjectural pair")
    pair = ExponentPair(kappa, lam)
    print(f"pair=({pair.kappa}, {pair.lam}) hypothetical={args.hypothetical}")
    print(f"theta_div = {pair.theta_div} (~{float(pair.theta_div):.6f})")
    print(f"theta_zeta = {pair.theta_zeta} (~{float(pair.theta_zeta):.6f})")
    print(f"beats_one_third = {pair.beats_one_third}")
    print(f"nontrivial = {pair.nontrivial}")
    return EXIT_OK


def cmd_exppair_search(args) -> int:
    t0 = time.time()
    res = search_optimal(args.depth)
    best = res.best
    print(f"best theta_div = {best.theta_div} (~{float(best.theta_div):.6f}) at pair "
          f"({best.kappa}, {best.lam}) word={best.word or 'seed'}")
    print(f"explored {res.explored} distinct pairs; frontier size {len(res.frontier)}")
    if args.out:
        write_frontier_csv(res.frontier, args.out)
        _write_manifest(args, t0, [args.out],
                        {"best_theta_div": str(best.theta_div)})
        print(f"wrote frontier to {args.out}")
    return EXIT_OK


def cmd_cache_table(args) -> int:
    if args.limit < 1:
        raise InvalidArgumentError("--limit must be >= 1")
    table, path, status = cache_table(args.limit, _cache_dir(args))
    print(f"cache {status}: {path} (limit {table.limit})")
    return EXIT_OK


def cmd_accept(args) -> int:
    from . import acceptance
    nums = [args.criterion] if args.criterion else sorted(acceptance.CRITERIA)
    kwargs_by_num = {7: {"tmax": 2e3}} if args.smoke else {}
    all_ok = True
    for n in nums:
        all_ok = acceptance.run_criterion(n, **kwargs_by_num.get(n, {})) and all_ok
    return EXIT_OK if all_ok else EXIT_CRITERION_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's refusals exit 2 with one `error:` line, as all do
        raise InvalidArgumentError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="zetadiv",
        description="Divisor remainders, critical-line zeta, mean-square error "
                    "terms, and the exponent-pair calculus.")
    p.add_argument("--cache-dir", default=None,
                   help=f"divisor-table cache directory (default ${CACHE_ENV} "
                        "or ./.zetadiv-cache)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("delta-scan", help="scan the divisor remainder delta(x)")
    sp.add_argument("--min", type=float, default=1.0)
    sp.add_argument("--max", type=float, required=True)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--count", type=int, default=None)
    sp.add_argument("--log-spaced", action="store_true")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("voronoi", help="truncated expansion of delta or delta*")
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--n", type=int, required=True, help="truncation N >= 2")
    sp.add_argument("--star", action="store_true")
    sp.add_argument("--compare", action="store_true",
                    help="also print the exact series target and residual")

    sp = sub.add_parser("zeta-eval", help="evaluate Z(t) and |zeta(1/2+it)|")
    sp.add_argument("--t", type=float, required=True)

    sp = sub.add_parser("e-scan", help="scan E(T) by direct quadrature")
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--step", type=float, default=0.25)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("atkinson", help="E(T) by the Atkinson formula")
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--N", type=float, default=None, help="cutoff (default T)")

    sp = sub.add_parser("balasu", help="E(T) by the Balasubramanian double sum")
    sp.add_argument("--T", type=float, required=True)

    sp = sub.add_parser("estar-scan", help="scan E, 2pi*delta*(t/2pi) and E*")
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--step", type=float, default=0.25)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("moments", help="dyadic-checkpoint moments of |E*|^k")
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--k", type=int, choices=(2, 4, 5), default=2)
    sp.add_argument("--step", type=float, default=0.25)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("short-interval", help="smoothed short-interval mean square")
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--G", type=float, required=True)

    sp = sub.add_parser("exppair-report", help="exact exponents of one pair")
    sp.add_argument("--kappa", required=True, help="rational literal p/q")
    sp.add_argument("--lambda", dest="lam", required=True, help="rational literal p/q")
    sp.add_argument("--hypothetical", action="store_true",
                    help="allow conjectural pairs outside the A/B closure")

    sp = sub.add_parser("exppair-search", help="exhaustive A/B word search")
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--out", default=None, help="frontier CSV path")

    sp = sub.add_parser("cache-table", help="build or verify the divisor cache")
    sp.add_argument("--limit", type=int, required=True)

    sp = sub.add_parser("accept", help="run acceptance criteria (all or one)")
    sp.add_argument("--criterion", type=int, choices=range(1, 9), default=None)
    sp.add_argument("--smoke", action="store_true",
                    help="reduced [0, 2e3] variant of the moment suite")
    for name, sp in sub.choices.items():  # "delta-scan" runs cmd_delta_scan, and so on
        sp.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidArgumentError(f"--{name} must be finite, got {value!r}")
        out = getattr(args, "out", None)  # checked first, so no scan runs before a failed write
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            raise InvalidArgumentError(f"--out {out!r} is not a file in an existing directory")
        with warnings.catch_warnings():  # a warning is one line, like every message here
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (ZetaDivError, OSError) as exc:  # bad arguments, unwritable --out or --cache-dir
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
