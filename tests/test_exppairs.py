import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetadiv import (ExponentPair, InvalidArgumentError, ResourceLimitError,
                     apply_A, apply_B, is_process_reachable, parse_fraction,
                     report, search_optimal, seed_pairs, write_frontier_csv)
from zetadiv.exppairs import _children, _normalise, _triple, _word_from_seed

HALF = Fraction(1, 2)
STD = ExponentPair(HALF, HALF)


def random_valid_pair(rng) -> ExponentPair:
    q = int(rng.integers(1, 200))
    a = int(rng.integers(0, q + 1))       # kappa = a/(2q) in [0, 1/2]
    b = int(rng.integers(0, q + 1))       # lambda = (q+b)/(2q) in [1/2, 1]
    return ExponentPair(Fraction(a, 2 * q), Fraction(q + b, 2 * q))


kappas = st.fractions(0, HALF, max_denominator=10**4)
lambdas = st.fractions(HALF, 1, max_denominator=10**4)


def as_fractions(t):
    a, b, c = t
    return Fraction(a, c), Fraction(b, c)


def test_seed_pairs_contents():
    seeds = seed_pairs()
    keys = {(p.kappa, p.lam) for p in seeds}
    assert (HALF, HALF) in keys
    assert (Fraction(11, 30), Fraction(16, 30)) in keys
    assert (Fraction(1, 6), Fraction(2, 3)) in keys
    assert (Fraction(0), Fraction(1)) in keys
    assert all(isinstance(p.kappa, Fraction) and isinstance(p.lam, Fraction)
               for p in seeds)


def test_invariant_validation():
    with pytest.raises(InvalidArgumentError):
        ExponentPair(Fraction(3, 5), Fraction(2, 3))  # kappa > 1/2
    with pytest.raises(InvalidArgumentError):
        ExponentPair(Fraction(0), Fraction(1, 3))     # lambda < 1/2


def test_apply_A_golden():
    a = apply_A(STD)
    assert (a.kappa, a.lam) == (Fraction(1, 6), Fraction(2, 3))
    assert a.word == "A"
    triv = ExponentPair(Fraction(0), Fraction(1))
    fixed = apply_A(triv)
    assert (fixed.kappa, fixed.lam) == (Fraction(0), Fraction(1))


def test_apply_B_golden():
    b = apply_B(STD)
    assert (b.kappa, b.lam) == (Fraction(0), Fraction(1))
    classical = ExponentPair(Fraction(1, 6), Fraction(2, 3))
    fixed = apply_B(classical)
    assert (fixed.kappa, fixed.lam) == (classical.kappa, classical.lam)


def test_B_is_involution(rng):
    for _ in range(100):
        p = random_valid_pair(rng)
        q = apply_B(apply_B(p))
        assert (q.kappa, q.lam) == (p.kappa, p.lam)


def test_processes_preserve_invariants(rng):
    # constructor raises on violation, so surviving construction is the check
    for _ in range(100):
        p = random_valid_pair(rng)
        apply_A(p)
        apply_B(p)


def test_word_of_cited_pair():
    p = STD
    for c in "AAAB":
        p = apply_A(p) if c == "A" else apply_B(p)
    assert (p.kappa, p.lam) == (Fraction(11, 30), Fraction(16, 30))
    assert p.word == "AAAB"


def test_report_goldens():
    r = report(STD)
    assert r.theta_div == Fraction(1, 3)
    assert r.theta_zeta == Fraction(1, 6)
    assert r.beats_one_third is False  # 3*lambda + kappa = 2 exactly
    rh = report(ExponentPair(Fraction(11, 30), Fraction(16, 30)))
    assert rh.theta_div == Fraction(27, 82)
    assert rh.beats_one_third is True
    lind = report(ExponentPair(Fraction(0), HALF, hypothetical=True))
    assert lind.theta_div == Fraction(1, 4)
    assert lind.theta_zeta == Fraction(1, 8)


def test_theta_zeta_is_half_theta_div():
    res = search_optimal(8)
    for p in res.frontier:
        r = report(p)
        assert r.theta_zeta * 2 == r.theta_div
        assert isinstance(r.theta_div, Fraction)
        assert isinstance(r.theta_zeta, Fraction)


def test_nontrivial_flag():
    assert report(ExponentPair(Fraction(0), Fraction(1))).nontrivial is False
    assert report(STD).nontrivial is True


def test_search_depth1_from_standard_seed():
    # the four seeds are distinct, and five of their eight children are seeds
    # again ((1/6, 2/3) = A(1/2, 1/2) among them), so depth 1 adds three
    # pairs and depth 2 four more.  The seed (11/30, 16/30) stays optimal
    for depth, explored in ((0, 4), (1, 7), (2, 11)):
        res = search_optimal(depth)
        assert res.explored == explored
        assert res.best.theta_div == Fraction(27, 82)
        assert res.best.pair.word == ""
        assert res.best_by_depth == [Fraction(27, 82)] * (depth + 1)


def test_search_monotone_and_beats_one_third():
    res = search_optimal(10)
    bb = res.best_by_depth
    assert len(bb) == 11
    assert all(bb[i + 1] <= bb[i] for i in range(10))
    assert res.best.theta_div < Fraction(1, 3)
    # frozen golden from the exhaustive run
    assert res.best.theta_div == Fraction(229, 696)
    assert (res.best.pair.kappa, res.best.pair.lam) == (Fraction(97, 251), Fraction(132, 251))


def test_search_validation():
    with pytest.raises(ResourceLimitError):
        search_optimal(25)
    with pytest.raises(InvalidArgumentError):
        search_optimal(-1)


def test_exhaustive_depth12_invariants():
    res = search_optimal(12)
    assert res.explored >= 1000
    for p in res.frontier:
        assert 0 <= p.kappa <= HALF <= p.lam <= 1
        assert isinstance(p.kappa, Fraction) and isinstance(p.lam, Fraction)


def test_frontier_csv_golden(tmp_path):
    res = search_optimal(10)
    out = tmp_path / "frontier.csv"
    write_frontier_csv(res.frontier, out)
    got = out.read_text().splitlines()
    assert got[0] == "kappa,lambda,word,theta_div,theta_zeta"
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "exppair_frontier_depth10.csv"
    assert got == golden.read_text().splitlines()


def test_parse_fraction():
    assert parse_fraction("11/30") == Fraction(11, 30)
    assert parse_fraction(" 1/2 ") == Fraction(1, 2)
    assert parse_fraction("3") == Fraction(3)
    with pytest.raises(InvalidArgumentError):
        parse_fraction("a/b")
    with pytest.raises(InvalidArgumentError):
        parse_fraction("1/0")


def test_reachability_agrees_with_search():
    # the backward walk returns exactly the word the breadth-first search stores
    for p in search_optimal(14).frontier:
        assert _word_from_seed(_triple(p.kappa, p.lam)) == p.word
        assert is_process_reachable(p.kappa, p.lam)
    assert not is_process_reachable(Fraction(0), HALF)


def test_reachability_gate():
    assert is_process_reachable(Fraction(11, 30), Fraction(16, 30))
    assert is_process_reachable(Fraction(1, 6), Fraction(2, 3))
    assert not is_process_reachable(Fraction(0), Fraction(1, 2))
    # kappa = 0: each step back doubles 1 - lambda, here for 200 steps
    assert not is_process_reachable(Fraction(0), 1 - Fraction(1, 2**200))
    # a pair outside 0 <= kappa <= 1/2 <= lambda <= 1 is never derived
    assert not is_process_reachable(Fraction(3, 5), Fraction(2, 3))


@given(st.sampled_from(seed_pairs()), st.text("AB", max_size=40))
def test_walk_back_accepts_every_derived_pair(seed, word):
    p = seed
    for step in word:
        p = apply_A(p) if step == "A" else apply_B(p)
    assert is_process_reachable(p.kappa, p.lam)


@given(kappas, lambdas)
def test_triple_processes_match_fraction_processes(kappa, lam):
    p = ExponentPair(kappa, lam)
    t = _triple(kappa, lam)
    assert as_fractions(t) == (kappa, lam)
    ta, tb = _children(*t)
    assert as_fractions(ta) == (apply_A(p).kappa, apply_A(p).lam)
    assert as_fractions(tb) == (apply_B(p).kappa, apply_B(p).lam)
    assert _children(*tb)[1] == t  # B is an involution
    for child in (ta, tb):
        k, lam_child = as_fractions(child)
        assert 0 <= k <= HALF <= lam_child <= 1


@given(kappas, lambdas, st.integers(1, 10**9))
def test_triple_normalisation_is_canonical(kappa, lam, m):
    a, b, c = t = _triple(kappa, lam)
    assert c > 0 and gcd(a, b, c) == 1
    assert _normalise(m * a, m * b, m * c) == t
    assert _triple(Fraction(m * a, m * c), Fraction(m * b, m * c)) == t


def test_search_depth16_golden(tmp_path):
    res = search_optimal(16)
    assert res.explored == 8363
    best = res.best.pair
    assert (best.kappa, best.lam, best.word) == (
        Fraction(1731, 4492), Fraction(591, 1123), "ABAABABABAABAAAB")
    assert res.best.theta_div == res.best_by_depth[-1] == Fraction(585, 1778)
    out = tmp_path / "frontier.csv"
    write_frontier_csv(res.frontier, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest().startswith("c5e7f723a490fc8a")


