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


def test_criterion_1_exponent_goldens():
    ok, detail = acceptance.criterion_1()
    print(f"[criterion 1] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_2_divisor_identities():
    ok, detail = acceptance.criterion_2()
    print(f"[criterion 2] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_3_voronoi_convergence():
    ok, detail = acceptance.criterion_3()
    print(f"[criterion 3] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_4_zeta_evaluator():
    ok, detail = acceptance.criterion_4()
    print(f"[criterion 4] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_5_three_formula_consistency():
    ok, detail = acceptance.criterion_5()
    print(f"[criterion 5] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_6_subconvexity_witness(monkeypatch, subconvexity_arrays):
    # criterion_6 runs unchanged on the session's scan instead of building its own
    monkeypatch.setattr(acceptance, "subconvexity_scan", lambda: subconvexity_arrays)
    ok, detail = acceptance.criterion_6()
    print(f"[criterion 6] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, ("the running-max slope clause fails on honest data; "
                "see the known-red paragraph under 'Install and test' in README.md -- "
                + detail)


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


def test_criterion_7_moment_suite_full():
    ok, detail = acceptance.criterion_7(tmax=2e4)
    print(f"[criterion 7] {'PASS' if ok else 'FAIL'} - full {detail}")
    assert ok, detail


def test_criterion_7_moment_suite_smoke():
    ok, detail = acceptance.criterion_7(tmax=2e3)
    print(f"[criterion 7] {'PASS' if ok else 'FAIL'} - smoke {detail}")
    assert ok, detail


def test_criterion_8_search_sanity():
    ok, detail = acceptance.criterion_8()
    print(f"[criterion 8] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail
