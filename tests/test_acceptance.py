"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one machine-readable pass/fail line; the logic lives in
``zetadiv.acceptance`` so the same checks run from the CLI
(``zetadiv accept --criterion N``).  Run here with

    pytest tests/test_acceptance.py -v -s

Criterion 6's running-max slope clause is implemented exactly as stated
and fails on honest data: the scaled sup still grows like log t at these
heights, and a verified large value near t = 77404 lifts the top-decade
slope to ~0.056 against the stated 0.02.  test_criterion_6_substance
checks the underlying boundedness claim that does hold at desk scale.
"""

import numpy as np

from zetadiv import acceptance


def check(num, **kwargs):
    # run_criterion prints the criterion's verdict line, which pytest shows
    # with a failure
    assert acceptance.run_criterion(num, **kwargs), f"criterion {num} failed"


def test_criterion_1_exponent_goldens():
    check(1)


def test_criterion_2_divisor_identities():
    check(2)


def test_criterion_3_voronoi_convergence():
    check(3)


def test_criterion_4_zeta_evaluator():
    check(4)


def test_criterion_5_three_formula_consistency():
    # the five heights are read off one E grid; the exact line pins their
    # values, bit for bit those of E_direct at each height
    ok, detail = acceptance.criterion_5()
    assert ok, detail
    assert detail == ("fitted C = 0.1205 (<= 20); T=100: +3.46/+0.91/+1.93; "
                      "T=300: +2.76/-0.51/-0.39; T=1000: -11.80/-14.43/-11.76; "
                      "T=3000: -1.10/-3.34/-5.35; T=5000: -39.32/-42.60/-44.03")


def test_criterion_6_subconvexity_witness(monkeypatch, subconvexity_arrays):
    # criterion_6 runs unchanged on the session's scan instead of building its own
    monkeypatch.setattr(acceptance, "subconvexity_scan", lambda: subconvexity_arrays)
    check(6)


def test_criterion_6_substance(subconvexity_arrays):
    """The claims behind criterion 6 that do hold at desk scale.

    The scaled sup |zeta(1/2+it)| t^(-1/6) is bounded by a few units and
    its running-max growth rate is non-increasing decade over decade, so
    the t^(1/6) envelope is not being outrun; the 0.02 top-decade proxy in
    the stated criterion is what fails.
    """
    ts, run = subconvexity_arrays
    assert ts.size >= 10**4
    slopes = []
    for dlo, dhi in ((1e2, 1e3), (1e3, 1e4), (1e4, 1e5)):
        m = (ts >= dlo) & (ts <= dhi)
        slopes.append(float(np.polyfit(np.log(ts[m]), np.log(run[m]), 1)[0]))
    print(f"[criterion 6 substance] decade slopes {np.round(slopes, 4)} "
          f"(non-increasing), sup = {run[-1]:.3f}")
    assert run[-1] < 10.0
    assert slopes[0] >= slopes[1] >= slopes[2] - 1e-9
    assert slopes[2] < 0.10


def test_subconvexity_scan_obeys_hiary_bound(subconvexity_arrays):
    """The scan obeys a proven explicit subconvexity bound.

    G. Hiary, "An explicit van der Corput estimate for zeta(1/2+it)", Indag.
    Math. 27 (2016): |zeta(1/2+it)| <= 0.63 t^(1/6) log t for t >= 3.  The
    running max run(t) of |zeta| t^(-1/6) bounds each scanned value, so
    run(t)/log t bounds each |zeta| / (t^(1/6) log t); its largest value is
    0.50688, at t = 45.5567, a margin of 1.24x.
    """
    ts, run = subconvexity_arrays
    ratio = run / np.log(ts)
    assert ts[0] >= 3.0
    assert ratio.max() < 0.63, (ratio.max(), ts[ratio.argmax()])


def test_criterion_7_moment_suite_full(monkeypatch, estar_2e4):
    # criterion_7 runs unchanged on the session's scan instead of building its own
    monkeypatch.setattr(acceptance, "estar_scan", lambda tmax, step: estar_2e4)
    check(7, tmax=2e4)


def test_criterion_7_moment_suite_smoke():
    check(7, tmax=2e3)


def test_criterion_8_search_sanity():
    check(8)
