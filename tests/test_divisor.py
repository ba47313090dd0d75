import hashlib
import math
import struct
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zetadiv import (EULER_GAMMA, CacheError, InvalidArgumentError, OutOfRangeError,
                     PrecisionError, ResourceLimitError, delta, delta_star,
                     delta_star_alternating, delta_star_grid, delta_via_psi, divisor_sum,
                     hyperbola_divisor_sum, load_table, main_term, psi, save_table,
                     sieve_divisors)
from zetadiv import divisor
from zetadiv.divisor import (DEFAULT_SEGMENT, HYPERBOLA_X_CAP, PREFIX_BLOCK, SUM_BLOCK,
                             _signed_sums, block_sum)


def trial_division_d(n: int) -> int:
    """Independent oracle: count divisors by trial division."""
    count = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            count += 2 if d * d != n else 1
    return count


def brute_force_divisor_sum(x: int) -> int:
    """Independent O(x^2) oracle: sum_{mn<=x} 1 by a double loop."""
    total = 0
    for m in range(1, x + 1):
        for n in range(1, x // m + 1):
            total += 1
    return total


def test_euler_gamma_constant():
    assert repr(EULER_GAMMA).startswith("0.57721")
    assert EULER_GAMMA == np.euler_gamma


def test_sieve_limit_one():
    t = sieve_divisors(1)
    assert t.limit == 1
    assert list(t.values) == [0, 1]


def test_sieve_basic_values(table_small):
    assert table_small.values[1] == 1
    assert table_small.values[12] == trial_division_d(12) == 6
    assert table_small.values[997] == 2  # 997 is prime
    # d(p) = 2 for a few scattered primes
    for p in (2, 3, 89, 7919, 99991):
        assert trial_division_d(p) == 2
        assert table_small.values[p] == 2


def test_sieve_matches_trial_division(table_small, rng):
    for n in rng.integers(1, table_small.limit + 1, 200):
        assert table_small.values[n] == trial_division_d(int(n)), n


def test_sieve_multiplicative_on_coprime_pairs(table_small, rng):
    hits = 0
    while hits < 100:
        m, n = int(rng.integers(2, 316)), int(rng.integers(2, 316))
        if math.gcd(m, n) != 1:
            continue
        hits += 1
        assert table_small.values[m * n] == table_small.values[m] * table_small.values[n]


def test_sieve_errors():
    with pytest.raises(InvalidArgumentError):
        sieve_divisors(0)
    with pytest.raises(ResourceLimitError):
        sieve_divisors(10**12)


def test_sieve_uint16_cap_ignores_max_limit():
    # d(n) <= 6720 below 1e12, and the one cap lies far below that; it is
    # checked before the table is allocated
    with pytest.raises(ResourceLimitError, match="exceeds cap"):
        sieve_divisors(10**12)
    with pytest.raises(ResourceLimitError, match=r"~0\.5 GiB"):
        sieve_divisors(2**28 + 1)


def test_sieve_uint16_matches_trial_division_to_1e7(table_big):
    assert table_big.values.dtype == np.uint16
    # the largest d(n) up to 1e7 does not fit in one byte
    assert table_big.values[8_648_640] == trial_division_d(8_648_640) == 448
    for n in np.random.default_rng(14).integers(1, 10**7 + 1, 2000).tolist():
        d = np.arange(1, math.isqrt(n) + 1)
        hits = d[n % d == 0]
        assert table_big.values[n] == 2 * hits.size - (hits[-1] ** 2 == n), n


def signed_cumsum(table, alt):
    """Independent oracle: np.cumsum of (-1)^n d(n) (alt) or d(n) over the whole table."""
    n = np.arange(table.limit + 1)
    return np.cumsum(np.where(n % 2 == 1, -1 if alt else 1, 1) * table.values)


def test_prefix_tables_allocate_only_their_output(traced_peak):
    # one int64 per block of 64 entries, 125 KB at 1e6, built with no
    # temporary of the table's length; alt_prefix reads prefix, built first
    table = sieve_divisors(10**6)
    for name, alt in (("prefix", False), ("alt_prefix", True)):
        out, peak = traced_peak(getattr(table, name))
        assert out.dtype == np.int64 and out.size == (table.limit + 1) // PREFIX_BLOCK + 1
        assert peak <= 1.05 * out.nbytes, (name, peak, out.nbytes)
        ref = signed_cumsum(table, alt)[PREFIX_BLOCK - 1::PREFIX_BLOCK]
        assert out[0] == 0 and np.array_equal(out[1:], ref), name


@given(st.data())
def test_block_query_matches_cumsum(data):
    # both signed queries, scalar and array, against np.cumsum of the signed
    # values, at m = 0, 64k - 1, 64k, 64k + 1 and the limit, on limits below
    # 64 and limits whose last block is partial; arrays run in shuffled order
    # and three queries a step, so runs of one block meet step seams
    limit = data.draw(st.one_of(st.sampled_from((1, 62, 63, 64, 65, 127, 128)),
                                st.integers(1, 200), st.integers(1, 5000)), label="limit")
    table = sieve_divisors(limit)
    k = data.draw(st.integers(0, (limit + 1) // PREFIX_BLOCK), label="k")
    edges = [m for m in (0, 64 * k - 1, 64 * k, 64 * k + 1, limit) if 0 <= m <= limit]
    ms = data.draw(st.permutations(edges + data.draw(
        st.lists(st.integers(0, limit), max_size=20), label="more")), label="ms")
    for alt in (False, True):
        ref = signed_cumsum(table, alt)[ms].tolist()
        assert [_signed_sums(table, m, alt) for m in ms] == ref
        with mock.patch.object(divisor, "SUM_BLOCK", 3):
            assert _signed_sums(table, np.array(ms, dtype=np.int64), alt).tolist() == ref


def test_segmented_matches_plain():
    # two full segments and a partial third: no seam may show against the
    # pairing pass run once over the whole array
    limit = 2 * DEFAULT_SEGMENT + 12345
    ref = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, math.isqrt(limit) + 1):
        ref[d * d] += 1
        ref[d * d + d::d] += 2
    assert np.array_equal(sieve_divisors(limit).values, ref)


@given(st.integers(1, 5000), st.integers(1, 9), st.integers(-3000, 3000))
def test_segmented_matches_single_segment(table_big, limit, seam, offset):
    # a one-segment sieve is the prefix of the ten-segment table to 1e7, and
    # the table is exact on both sides of each segment seam
    assert np.array_equal(sieve_divisors(limit).values, table_big.values[:limit + 1])
    n = seam * DEFAULT_SEGMENT + offset
    assert table_big.values[n] == trial_division_d(n)


def test_table_values_read_only(table_small):
    with pytest.raises(ValueError):
        table_small.values[5] = 99


def test_divisor_sum_brute_force(table_small):
    assert divisor_sum(table_small, 1) == 1
    assert brute_force_divisor_sum(10) == 27
    assert divisor_sum(table_small, 10) == 27
    expected_100 = brute_force_divisor_sum(100)
    assert divisor_sum(table_small, 100) == expected_100
    assert hyperbola_divisor_sum(100) == expected_100
    # real (non-integer) abscissae truncate
    assert divisor_sum(table_small, 10.7) == 27
    assert divisor_sum(table_small, 0.3) == 0


def test_divisor_sum_out_of_range(table_small):
    with pytest.raises(OutOfRangeError):
        divisor_sum(table_small, table_small.limit + 1)


def test_hyperbola_identity_random():
    # criterion 2 checks the identity against the sieve at 1000 points to
    # 1e7; here r = 4473 terms cross a block boundary, and plain Python ints
    # are the oracle
    m = 2 * 10**7 + 12345
    r = math.isqrt(m)
    assert hyperbola_divisor_sum(m) == 2 * sum(m // n for n in range(1, r + 1)) - r * r


@given(st.integers(0, 3), st.integers(-3, 3))
def test_block_sum_matches_python_sum(blocks, offset):
    # n_max on and around each block seam: no block is dropped or repeated
    n_max = max(0, blocks * SUM_BLOCK + offset)
    expected = sum(k * k % 7 - k for k in range(1, n_max + 1))
    assert block_sum(n_max, lambda n: n * n % 7 - n) == expected


@given(st.one_of(st.integers(0, 10**7), st.floats(0.0, 1e7)))
@example(x=10**7)
def test_hyperbola_sum_matches_table(table_big, x):
    # the hyperbola identity is exact on every x the table to 1e7 covers
    assert hyperbola_divisor_sum(x) == divisor_sum(table_big, x)


def test_hyperbola_cap():
    # above ~1.04e18 the int64 sum of the first block of m // n wraps; the
    # cap refuses before any block is summed
    assert HYPERBOLA_X_CAP == 10**18
    with pytest.raises(ResourceLimitError, match="cap"):
        hyperbola_divisor_sum(1.1e18)
    with pytest.raises(ResourceLimitError):
        hyperbola_divisor_sum(HYPERBOLA_X_CAP + 1)


def test_delta_examples(table_big):
    d1 = delta(table_big, 1)
    assert d1.sum_d == 1
    assert abs(d1.delta - (2 - 2 * EULER_GAMMA)) < 1e-12
    d2 = delta(table_big, 2)
    assert d2.sum_d == 3
    assert abs(d2.delta - (3 - 2 * (math.log(2) + 2 * EULER_GAMMA - 1))) < 1e-12
    with pytest.raises(InvalidArgumentError):
        delta(table_big, 0.5)
    # criterion 2 bounds the psi route on a log grid; at the integer 1e6 too
    assert abs(delta(table_big, 10**6).delta - delta_via_psi(10**6)) <= 5.0


def test_psi_values():
    assert psi(0.5) == 0.0
    assert psi(1.25) == -0.25
    assert psi(7) == -0.5  # bracket definition at integers
    arr = psi(np.array([0.5, 1.25, 7.0]))
    assert np.allclose(arr, [0.0, -0.25, -0.5])


def test_psi_range_property(rng):
    xs = rng.uniform(-50, 50, 1000)
    vals = psi(xs)
    assert np.all(vals >= -0.5) and np.all(vals < 0.5)


def test_delta_via_psi_single_term():
    # x=1: single term -2*psi(1) = 1 exactly
    assert delta_via_psi(1) == 1.0
    with pytest.raises(InvalidArgumentError):
        delta_via_psi(0.5)


def test_delta_via_psi_refuses_x_past_2_53():
    # up to 2^53 the psi route is within criterion 2's bound of 5 of the
    # exact remainder (integer sum minus the main term in Decimal); past it
    # the double x/n drops the fractional part psi reads
    x = 2.0 ** 53
    gamma = Decimal("0.57721566490153286060651209008240243104215933594")
    with localcontext() as ctx:
        ctx.prec = 40
        exact = Decimal(hyperbola_divisor_sum(x)) - Decimal(x) * (Decimal(x).ln() + 2 * gamma - 1)
    assert abs(delta_via_psi(x) - float(exact)) <= 5.0
    with pytest.raises(PrecisionError):
        delta_via_psi(math.nextafter(x, math.inf))


def test_delta_star_matches_remainder_combination(table_small, rng):
    # for x >= 1 the defining combination built from delta() itself agrees
    for x in rng.uniform(1.0, table_small.limit / 4.0, 50):
        x = float(x)
        combo = (-delta(table_small, x).delta
                 + 2 * delta(table_small, 2 * x).delta
                 - 0.5 * delta(table_small, 4 * x).delta)
        assert abs(combo - delta_star(table_small, x)) < 1e-6 * max(1.0, abs(combo))


@given(st.lists(st.floats(0.0, 2.5e6, exclude_min=True), min_size=1, max_size=20))
def test_delta_star_matches_grid(table_big, xs):
    # the divisor-sum combination against the alternating prefix route, on x
    # up to the 4x the table to 1e7 covers, within criterion 2's bound
    grid = delta_star_grid(table_big, np.array(xs)).tolist()
    for x, b in zip(xs, grid):
        a = delta_star(table_big, x)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), x


def test_delta_star_quarter_point(table_small):
    # single term n=1 of the alternating sum
    expected = -0.5 - 0.25 * (math.log(0.25) + 2 * EULER_GAMMA - 1)
    assert abs(delta_star(table_small, 0.25) - expected) < 1e-12
    assert abs(delta_star_alternating(table_small, 0.25) - expected) < 1e-12


def test_delta_star_jump_structure(table_small):
    # crossing 4x = m adds (-1)^m d(m)/2, up to the smooth term's drift; at
    # the jump 4x = 1000 itself the two forms agree as criterion 2 asks
    a = delta_star(table_small, 250.0)
    assert abs(a - delta_star_alternating(table_small, 250.0)) <= 1e-9 * max(1.0, abs(a))
    eps = 1e-9
    for m in (1000, 999):
        x0 = m / 4.0
        jump = (delta_star(table_small, x0 + eps)
                - delta_star(table_small, x0 - eps))
        expected = ((-1) ** m) * int(table_small.values[m]) / 2.0
        assert abs(jump - expected) < 1e-5, (m, jump, expected)


def test_delta_star_errors(table_small):
    with pytest.raises(InvalidArgumentError):
        delta_star(table_small, 0.0)
    with pytest.raises(OutOfRangeError):
        delta_star(table_small, table_small.limit / 2.0)


def test_main_term_zero():
    assert main_term(0.0) == 0.0


def test_cache_roundtrip(tmp_path):
    table = sieve_divisors(10**4)
    path = tmp_path / "tab.bin"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.limit == table.limit
    assert np.array_equal(loaded.values, table.values)
    # slicing a larger cache down to a smaller request
    sliced = load_table(path, limit=100)
    assert sliced.limit == 100
    assert np.array_equal(sliced.values, table.values[:101])
    # a cache smaller than the request is refused
    with pytest.raises(CacheError):
        load_table(path, limit=10**6)


def test_cache_bytes_and_io_peaks(table_big, tmp_path, traced_peak):
    # the file is header + sha256 + the <u2 payload, written from the
    # table's own buffer and read back into one preallocated array
    path = tmp_path / "big.bin"
    _, peak = traced_peak(lambda: save_table(table_big, path))
    assert peak < 2**20, peak
    payload = table_big.values.astype("<u2").tobytes()
    assert path.read_bytes() == (b"ZDTABLE1" + struct.pack("<IQ", 2, table_big.limit)
                                 + hashlib.sha256(payload).digest() + payload)
    loaded, peak = traced_peak(lambda: load_table(path))
    assert peak < 1.1 * len(payload), peak / len(payload)
    assert np.array_equal(loaded.values, table_big.values)
    assert not loaded.values.flags.writeable


def test_cache_rejects_wrong_payload_size(tmp_path):
    # short and long payloads, and a header whose limit no file could hold,
    # are refused by size before any payload array is allocated
    table = sieve_divisors(1000)
    path = tmp_path / "tab.bin"
    save_table(table, path)
    raw = path.read_bytes()
    huge = raw[:8] + struct.pack("<IQ", 2, 2**62) + raw[20:]
    for data, got, want in ((raw[:-2], 2000, 2002), (raw + b"\0", 2003, 2002),
                            (huge, 2002, 2**63 + 2)):
        path.write_bytes(data)
        with pytest.raises(CacheError, match=rf"truncated payload \({got} != {want} bytes\)"):
            load_table(path)


def test_cache_sliced_v2_roundtrip(tmp_path):
    table = sieve_divisors(10**4)
    save_table(table, tmp_path / "full.bin")
    sliced = load_table(tmp_path / "full.bin", limit=100)
    path = tmp_path / "sliced.bin"
    save_table(sliced, path)
    raw = path.read_bytes()
    assert raw[:8] == b"ZDTABLE1" and struct.unpack("<IQ", raw[8:20]) == (2, 100)
    assert len(raw) == 52 + 2 * 101
    loaded = load_table(path)
    assert loaded.limit == 100 and loaded.values.dtype == np.uint16
    assert np.array_equal(loaded.values, table.values[:101])
    assert not loaded.values.flags.writeable


def test_cache_save_ignores_stale_tmp_path(tmp_path):
    # a leftover directory at the old fixed temp name must not break a
    # write: each save goes through its own unique temp file
    table = sieve_divisors(1000)
    path = tmp_path / "tab.bin"
    (tmp_path / "tab.bin.tmp").mkdir()
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.limit == table.limit
    assert np.array_equal(loaded.values, table.values)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tab.bin", "tab.bin.tmp"]


def test_cache_rejects_corruption(tmp_path):
    table = sieve_divisors(1000)
    path = tmp_path / "tab.bin"
    save_table(table, path)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError):
        load_table(path)


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a table at all")
    with pytest.raises(CacheError):
        load_table(path)
