"""Spans around calls into zetadiv, recorded only in the traced run.

Wrappers are installed by rebinding each traced name in the module (or
class) that looks it up at call time, so the library itself is unchanged
and the untraced run executes no wrapper at all.  A span holds its name,
start, end, parent span and pass id; exact work counts are derived from
the call's inputs and return value after the pass has ended, so counting
never lands inside a timed span.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from zetadiv import acceptance, cli, divisor, error_terms, exppairs, voronoi, zeta

TWO_PI = 2.0 * math.pi


class Tracer:
    """In-memory span recorder; records only while a pass id is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.pass_id is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = {"name": name, "pass": tracer.pass_id,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                tracer._pending.append((span, count, args, kwargs, result))
            return result

        return traced

    def install(self, owner, attr, name, count=None):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def end_pass(self):
        """Close the current pass and attach its exact work counts."""
        self.pass_id = None
        for span, count, args, kwargs, result in self._pending:
            span["counts"] = count(args, kwargs, result)
        self._pending.clear()


# ---------------------------------------------------------------------------
# exact work counters, from inputs and return values
# ---------------------------------------------------------------------------

def _rs_counts(args, kwargs, result):
    ts = np.asarray(args[0], dtype=float)
    kk = np.floor(np.sqrt(ts / TWO_PI)).astype(np.int64)
    return {"points": int(ts.size), "terms": int(kk.sum()),
            "K": int(kk.min()) if ts.size else 0}


def _em_counts(args, kwargs, result):
    # the Euler-Maclaurin head sum has N - 1 terms per point,
    # N = max(24, ceil(1.3 max|t|) + 24)
    ts = np.asarray(args[0], dtype=float)
    if ts.size == 0:
        return {"points": 0, "terms": 0}
    n_cut = max(24, math.ceil(1.3 * float(np.max(np.abs(ts)))) + 24)
    return {"points": int(ts.size), "terms": int(ts.size) * (n_cut - 1)}


def _extend_counts(args, kwargs, result):
    # every pass builds a fresh integrator, which extend_to reaches once
    integ, T = args[0], args[1]
    need = math.ceil(max(T, 0.0) / integ.chunk)
    return {"chunks": need, "t_covered": need * integ.chunk,
            "richardson_err": integ.error_estimate(T)}


def _points_of_result(args, kwargs, result):
    return {"points": int(np.asarray(result[0]).size)}


def _sieve_counts(args, kwargs, result):
    return {"entries": int(result.limit)}


def _voronoi_counts(args, kwargs, result):
    return {"terms": int(result.term_count)}


def _atkinson_counts(args, kwargs, result):
    return {"terms": int(math.floor(result.N)) + int(math.floor(result.N_prime))}


def _balasu_counts(args, kwargs, result):
    kn = int(math.floor(math.sqrt(args[0] / TWO_PI)))
    return {"pairs": kn * kn}


def _search_counts(args, kwargs, result):
    return {"explored": int(result.explored)}


def install_all(tracer: Tracer) -> None:
    """Rebind every traced name; ``tracer.uninstall()`` restores them."""
    table = [
        (zeta, "rs_z_grid", "zeta.rs_z_grid", _rs_counts),
        (zeta, "_zeta_half_em_grid", "zeta.em_grid", _em_counts),
        (acceptance, "zeta_abs2_grid", "zeta.zeta_abs2_grid", None),
        (acceptance, "subconvexity_scan", "acceptance.subconvexity_scan", _points_of_result),
        (error_terms, "zeta_abs2_grid", "zeta.zeta_abs2_grid", None),
        (error_terms, "short_interval_ms", "error_terms.short_interval_ms", None),
        (error_terms, "moment_scan_from_samples", "error_terms.moment_scan_from_samples", None),
        (error_terms, "E_atkinson", "error_terms.E_atkinson", _atkinson_counts),
        (error_terms, "E_balasubramanian", "error_terms.E_balasubramanian", _balasu_counts),
        (error_terms.ZetaMeanSquare, "extend_to", "error_terms.ZetaMeanSquare.extend_to",
         _extend_counts),
        (error_terms.ScanResult, "write_csv", "error_terms.ScanResult.write_csv", None),
        (cli, "main", "cli.main", None),
        (cli, "cache_table", "cli.cache_table", None),
        (cli, "estar_scan", "error_terms.estar_scan", None),
        (cli, "sieve_divisors", "divisor.sieve_divisors", _sieve_counts),
        (divisor, "sieve_divisors", "divisor.sieve_divisors", _sieve_counts),
        (divisor, "hyperbola_divisor_sum", "divisor.hyperbola_divisor_sum", None),
        (divisor, "delta_via_psi", "divisor.delta_via_psi", None),
        (divisor, "delta", "divisor.delta", None),
        (divisor, "delta_star", "divisor.delta_star", None),
        (divisor, "delta_star_alternating", "divisor.delta_star_alternating", None),
        (divisor.DivisorTable, "prefix", "divisor.DivisorTable.prefix", None),
        (divisor.DivisorTable, "alt_prefix", "divisor.DivisorTable.alt_prefix", None),
        (voronoi, "voronoi_delta", "voronoi.voronoi_delta", _voronoi_counts),
        (voronoi, "voronoi_delta_star", "voronoi.voronoi_delta_star", _voronoi_counts),
        (exppairs, "search_optimal", "exppairs.search_optimal", _search_counts),
    ]
    for owner, attr, name, count in table:
        tracer.install(owner, attr, name, count)


# ---------------------------------------------------------------------------
# per-pass aggregation and the per-layer metrics
# ---------------------------------------------------------------------------

#: rs_z_grid windows of the zeta-high workload, keyed by their starting K
RS_WINDOW_KS = (398, 1261, 3989)
EXTEND = "error_terms.ZetaMeanSquare.extend_to"


def _pass_layers(spans: list[dict], members: list[int], pass_wall: float) -> dict:
    """Layer values of one pass: calls, busy and self time, counts, ratios.

    ``members`` indexes the pass's spans in ``spans``; parents are indices
    into ``spans`` too.
    """
    child_time = dict.fromkeys(members, 0.0)
    for i in members:
        if spans[i]["parent"] is not None:
            child_time[spans[i]["parent"]] += spans[i]["end"] - spans[i]["start"]
    v: dict[str, float] = {}

    def add(key, val):
        v[key] = v.get(key, 0) + val

    root_time = 0.0
    for i in members:
        s = spans[i]
        name, dur = s["name"], s["end"] - s["start"]
        if s["parent"] is None:
            root_time += dur
        add(f"{name}.busy_s", dur)
        add(f"{name}.self_s", dur - child_time[i])
        add(f"{name}.calls", 1)
        counts = s.get("counts", {})
        for key in ("points", "terms", "entries", "pairs", "explored", "chunks", "t_covered"):
            if key in counts:
                add(f"{name}.{key}", counts[key])
        if name == "zeta.rs_z_grid" and counts["K"] in RS_WINDOW_KS:
            v[f"zeta.rs_z_grid.ns_per_term.K{counts['K']}"] = 1e9 * dur / counts["terms"]
        if name == EXTEND:
            # cumulative budget: the last call reaches the largest T
            v[f"{EXTEND}.richardson_err"] = counts["richardson_err"]
        if name in ("zeta.rs_z_grid", "zeta.em_grid"):
            p = s["parent"]
            while p is not None and spans[p]["name"] != EXTEND:
                p = spans[p]["parent"]
            if p is not None:
                add(f"{EXTEND}.integrand_points", counts["points"])

    def ratio(num, den, scale):
        return scale * v.get(num, 0.0) / v[den] if v.get(den) else 0.0

    v["zeta.rs_z_grid.ns_per_term"] = ratio("zeta.rs_z_grid.busy_s", "zeta.rs_z_grid.terms", 1e9)
    v["zeta.em_grid.ns_per_term"] = ratio("zeta.em_grid.busy_s", "zeta.em_grid.terms", 1e9)
    v[f"{EXTEND}.points_per_t"] = ratio(f"{EXTEND}.integrand_points", f"{EXTEND}.t_covered", 1.0)
    v["divisor.sieve_divisors.ns_per_entry"] = ratio(
        "divisor.sieve_divisors.busy_s", "divisor.sieve_divisors.entries", 1e9)
    v["error_terms.E_balasubramanian.ns_per_pair"] = ratio(
        "error_terms.E_balasubramanian.busy_s", "error_terms.E_balasubramanian.pairs", 1e9)
    v["exppairs.search_optimal.us_per_pair"] = ratio(
        "exppairs.search_optimal.busy_s", "exppairs.search_optimal.explored", 1e6)
    v["bench.span_coverage"] = root_time / pass_wall
    return v


def is_time(key: str) -> bool:
    """Whether a layer value is a time (busy, self or a unit cost)."""
    return key.endswith((".busy_s", ".self_s")) or ".ns_per_" in key or ".us_per_" in key


def layer_values(spans: list[dict], pass_walls: dict[int, float]) -> list[dict]:
    """The layer values of each traced pass, in pass order."""
    members: dict[int, list[int]] = {p: [] for p in pass_walls}
    for i, s in enumerate(spans):
        members[s["pass"]].append(i)
    return [_pass_layers(spans, members[p], wall) for p, wall in pass_walls.items()]
