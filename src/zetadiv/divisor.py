"""Divisor-function sieve and elementary evaluators of the divisor remainder.

The remainder of the divisor summatory function is

    remainder(x) = sum_{n<=x} d(n) - x*(log x + 2*gamma - 1),

with d(n) the number of divisors of n and gamma Euler's constant.  This
module provides

* a sieved uint16 table of d(n) up to a limit, built in cache-sized
  segments and cacheable,
* exact divisor sums via the table and via the hyperbola identity
  sum_{n<=x} d(n) = 2*sum_{n<=sqrt(x)} floor(x/n) - floor(sqrt(x))**2,
* the remainder ``delta`` itself, its sieve-free sawtooth evaluation
  delta_via_psi(x) = -2*sum_{n<=sqrt(x)} psi(x/n), and
* the alternating-sign variant ``delta_star`` defined by
  delta*(x) = -delta(x) + 2*delta(2x) - delta(4x)/2, whose arithmetic form
  is (1/2)*sum_{n<=4x} (-1)^n d(n) - x*(log x + 2*gamma - 1), and
* ``block_sum``, the one blocked reducer that the two sqrt(x) sums here,
  the Voronoi expansions and the Atkinson sums all run through.

Integer sums are kept exact: the int64 prefix sums are kept only at
multiples of ``PREFIX_BLOCK`` = 64, and one query adds at most 63 entries
of a block to them.  Only the smooth main term is floating point.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
import uuid
from dataclasses import dataclass, field

import numpy as np

from .errors import (CacheError, InvalidArgumentError, OutOfRangeError, PrecisionError,
                     ResourceLimitError)

#: Euler's constant, full double precision.  The leading digits 0.57721
#: are the usual 5-digit value; the cancellation in the remainder's main
#: term needs all 16.
EULER_GAMMA = 0.5772156649015329

#: Cap on sieve size (entries), to keep a single process well under a few
#: GiB:  2**28 entries = 512 MiB of uint16 values.  It also keeps the uint16
#: table exact: below 1e12, d(n) never passes 6720 (its maximum, reached at
#: the highly composite 963,761,198,400).
MAX_SIEVE_LIMIT = 2**28

#: Segment length of the sieve passes: 2**20 uint16 entries, 2 MiB,
#: so each segment's strided writes stay in a core's L2 cache.  At 1e7 on a
#: 2-vCPU Xeon (2 MiB of L2 per core), 2**18..2**21 took median 0.30, 0.22,
#: 0.21 and 0.22 s.
DEFAULT_SEGMENT = 2**20

#: Terms per block of ``block_sum`` (each temporary is 32 KiB; at T = 1e6 the
#: blocked Atkinson sums run no slower than 2**10..2**20 blocks), queries
#: per step of an array divisor-sum query (about 6 MiB of temporaries), and
#: rows per block of ``error_terms.write_columns_csv``.
SUM_BLOCK = 2**12

#: Largest x that ``hyperbola_divisor_sum`` takes: above about 1.04e18 the
#: int64 sum of its first block of m // n wraps.
HYPERBOLA_X_CAP = 10**18

#: Entries per block of the prefix sums: ``prefix()`` and ``alt_prefix()``
#: keep one int64 per block.  It is even, so (-1)^n runs alike in every block.
PREFIX_BLOCK = 64

_CACHE_MAGIC = b"ZDTABLE1"
_CACHE_VERSION = 2


@dataclass(eq=False)
class DivisorTable:
    """Sieved divisor counts d(1..limit).

    ``values`` is a uint16 array of length ``limit + 1`` with
    ``values[n] == d(n)`` for ``1 <= n <= limit`` and ``values[0] == 0``.
    The array is frozen (read-only) after construction, so a table can be
    shared freely across threads.  The two block prefix sums are built
    lazily on first use: 16 bytes per 64 entries for both, 2.5 MB at 1e7.
    """

    limit: int
    values: np.ndarray
    _prefix: np.ndarray | None = field(default=None, repr=False, compare=False)
    _alt_prefix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def prefix(self) -> np.ndarray:
        """int64 block prefix sums: prefix()[b] == sum_{n<64b} d(n), 0 <= b <= (limit+1)//64."""
        if self._prefix is None:
            self._prefix = self._block_cumsum(slice(None))
        return self._prefix

    def alt_prefix(self) -> np.ndarray:
        """int64 block prefix sums: alt_prefix()[b] == sum_{n<64b} (-1)^n d(n),
        as twice the sums over even n less ``prefix()``, which it builds first."""
        if self._alt_prefix is None:
            out = self._block_cumsum(slice(None, None, 2))
            out *= 2
            self._alt_prefix = np.subtract(out, self.prefix(), out=out)
        return self._alt_prefix

    def _block_cumsum(self, cols: slice) -> np.ndarray:
        """0, then the running sums over each 64-entry row's ``cols``."""
        rows = self.values[:self.values.size // PREFIX_BLOCK * PREFIX_BLOCK]
        out = np.zeros(rows.size // PREFIX_BLOCK + 1, dtype=np.int64)
        bufsize = np.setbufsize(128)  # numpy's cast buffer, the one temporary: 1 KiB
        try:
            np.sum(rows.reshape(-1, PREFIX_BLOCK)[:, cols], axis=1, dtype=np.int64, out=out[1:])
        finally:
            np.setbufsize(bufsize)
        return np.cumsum(out, out=out)


def sieve_divisors(limit: int) -> DivisorTable:
    """Sieve d(n) for 1 <= n <= limit.

    Uses the divisor-pairing pass: every d <= sqrt(limit) contributes +1
    at n = d*d and +2 at larger multiples of d (the pair (d, n/d)).  Only
    sqrt(limit) strided passes are needed, all vectorised.  The passes run
    per fixed-length segment (``DEFAULT_SEGMENT`` entries, cache-sized) so
    the write working set stays in cache; the output array itself is
    allocated in full (uint16, 2 bytes per entry), up to ``MAX_SIEVE_LIMIT``.
    """
    if not 1 <= limit < math.inf:
        raise InvalidArgumentError(f"sieve limit must be finite and >= 1, got {limit}")
    limit = int(limit)
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds cap {MAX_SIEVE_LIMIT} "
            f"(~{2 * (MAX_SIEVE_LIMIT + 1) / 2**30:.1f} GiB of table)")

    values = np.zeros(limit + 1, dtype=np.uint16)
    for lo in range(1, limit + 1, DEFAULT_SEGMENT):
        hi = min(lo + DEFAULT_SEGMENT, limit + 1)
        seg = values[lo:hi]
        for d in range(1, math.isqrt(hi - 1) + 1):
            sq = d * d
            if sq >= lo:
                seg[sq - lo] += 1
                seg[sq - lo + d::d] += 2
            elif (first := -lo % d) < hi - lo:
                seg[first::d] += 2
    values.setflags(write=False)
    return DivisorTable(limit=limit, values=values)


def main_term(x):
    """Smooth main term x*(log x + 2*gamma - 1); 0 at x == 0."""
    xs = np.asarray(x, dtype=float)
    pos = xs > 0
    out = np.where(pos, xs * (np.log(np.where(pos, xs, 1.0)) + 2.0 * EULER_GAMMA - 1.0), 0.0)
    return float(out) if out.ndim == 0 else out


def _signed_sums(table: DivisorTable, m, alt: bool):
    """Exact sum_{n<=m} s_n d(n), s_n = (-1)^n if ``alt`` else 1, for 0 <= m <= limit.

    Every divisor sum here is this query: the block prefix at 64*(m // 64)
    plus the signed entries from there to m.  An int m sums them in Python;
    an int64 array m sums each run of queries in one block over one
    gathered row, ``SUM_BLOCK`` queries at a time.
    """
    b, r = divmod(m, PREFIX_BLOCK)
    blocks = table.alt_prefix() if alt else table.prefix()
    if isinstance(m, int):
        tail = table.values[m - r:m + 1].tolist()
        return blocks.item(b) + (sum(tail[::2]) - sum(tail[1::2]) if alt else sum(tail))
    out, cols = blocks[b], np.arange(PREFIX_BLOCK)
    signs = (-1) ** cols if alt else 1
    for lo in range(0, m.size, SUM_BLOCK):
        bs, rs = b[lo:lo + SUM_BLOCK], r[lo:lo + SUM_BLOCK]
        new = np.concatenate(([True], bs[1:] != bs[:-1]))  # first query of each run
        rows = np.take(table.values, PREFIX_BLOCK * bs[new, None] + cols, mode="clip")
        cum = np.cumsum(rows * signs, axis=1, dtype=np.int64)
        out[lo:lo + SUM_BLOCK] += cum[np.cumsum(new) - 1, rs]
    return out


def divisor_sum(table: DivisorTable, x) -> int:
    """Exact sum_{n<=x} d(n) from the table's block prefix sums."""
    if not -math.inf < x < math.inf:
        raise InvalidArgumentError(f"divisor_sum needs finite x, got {x}")
    m = int(math.floor(x))
    if m > table.limit:
        raise OutOfRangeError(f"x={x} exceeds table limit {table.limit}")
    return _signed_sums(table, max(m, 0), alt=False)


def block_sum(n_max: int, terms):
    """sum_{n=1}^{n_max} terms(n), with n an int64 array of ``SUM_BLOCK`` terms at a time.

    numpy sums each block and Python adds the block sums in order, so the
    temporaries stay bounded and integer series accumulate as Python ints.
    """
    total = 0
    for lo in range(1, n_max + 1, SUM_BLOCK):
        n = np.arange(lo, min(lo + SUM_BLOCK, n_max + 1), dtype=np.int64)
        total += np.sum(terms(n)).item()
    return total


def hyperbola_divisor_sum(x) -> int:
    """sum_{n<=x} d(n) by the Dirichlet hyperbola identity, no table needed.

    Exact integer arithmetic; O(sqrt(x)) work in bounded blocks.  x above
    ``HYPERBOLA_X_CAP`` raises ResourceLimitError.
    """
    if not -math.inf < x < math.inf:
        raise InvalidArgumentError(f"hyperbola_divisor_sum needs finite x, got {x}")
    if x > HYPERBOLA_X_CAP:
        raise ResourceLimitError(f"hyperbola_divisor_sum: x={x!r} exceeds the cap "
                                 f"{HYPERBOLA_X_CAP:.0e} of exact int64 block sums")
    m = int(math.floor(x))
    r = math.isqrt(max(m, 0))
    return 2 * block_sum(r, lambda n: m // n) - r * r


@dataclass(frozen=True)
class DeltaValue:
    """One evaluation of the divisor remainder at x."""

    x: float
    sum_d: int
    main_term: float
    delta: float


def delta(table: DivisorTable, x) -> DeltaValue:
    """Divisor remainder sum_{n<=x} d(n) - x*(log x + 2*gamma - 1) for x >= 1."""
    if not 1 <= x < math.inf:
        raise InvalidArgumentError(f"delta requires finite x >= 1, got {x}")
    s = divisor_sum(table, x)
    mt = main_term(float(x))
    return DeltaValue(x=float(x), sum_d=s, main_term=mt, delta=s - mt)


def delta_grid(table: DivisorTable, xs: np.ndarray) -> np.ndarray:
    """Vectorised remainder values over an array of abscissae in [1, limit]."""
    xs = np.asarray(xs, dtype=float)
    if xs.size and not (1 <= xs.min() and xs.max() < table.limit + 1):
        raise OutOfRangeError("delta_grid abscissae must lie in [1, table.limit]")
    return _signed_sums(table, np.floor(xs).astype(np.int64), alt=False) - main_term(xs)


def psi(x):
    """Sawtooth x - floor(x) - 1/2, in [-1/2, 1/2).

    At integer x this returns exactly -1/2 (the bracket definition); the
    Fourier series of the sawtooth converges to 0 there instead, but the
    integer points form a measure-zero set absorbed by the O(1) term of
    every identity this feeds.
    """
    x = np.asarray(x, dtype=float)
    out = x - np.floor(x) - 0.5
    return float(out) if out.ndim == 0 else out


def delta_via_psi(x) -> float:
    """Sieve-free divisor remainder: -2*sum_{n<=sqrt(x)} psi(x/n).

    Differs from ``delta`` by a bounded term (observed well under 5 over
    [10, 1e7], within 2.0 on [1e13, 2^53]); runs in O(sqrt(x)) bounded
    blocks with no divisor table.  Above x = 2^53 the double x/n loses the
    fractional part psi reads, so such x raise PrecisionError.
    """
    if not 1 <= x < math.inf:
        raise InvalidArgumentError(f"delta_via_psi requires finite x >= 1, got {x}")
    x = float(x)
    if x > 2.0 ** 53:
        raise PrecisionError(f"delta_via_psi: x={x!r} is past 2^53, where x/n "
                             "no longer holds its fractional part")
    return float(-2 * block_sum(math.isqrt(math.floor(x)), lambda n: psi(x / n)))


def _check_star_range(table: DivisorTable, x) -> None:
    if not 0 < x < math.inf:
        raise InvalidArgumentError(f"delta_star requires finite x > 0, got {x}")
    if 4 * x > table.limit:
        raise OutOfRangeError(f"delta_star at x={x} needs the table to cover "
                              f"4x={4 * x}, limit is {table.limit}")


def delta_star(table: DivisorTable, x) -> float:
    """Alternating divisor remainder via -delta(x) + 2*delta(2x) - delta(4x)/2.

    Evaluated directly on divisor sums, so it is defined for every x > 0
    (the plain remainder's x >= 1 restriction does not apply: the main
    terms of the combination collapse to a single x*(log x + 2*gamma - 1)).
    Needs table coverage up to 4x.
    """
    _check_star_range(table, x)
    a, b, c = (_signed_sums(table, math.floor(v), alt=False) for v in (x, 2 * x, 4 * x))
    return -a + 2 * b - 0.5 * c - main_term(float(x))


def delta_star_alternating(table: DivisorTable, x) -> float:
    """Alternating divisor remainder via (1/2)*sum_{n<=4x} (-1)^n d(n) - main term.

    Arithmetically identical to ``delta_star``; kept as an independent
    route for cross-validation.  A size-1 call of ``delta_star_grid``.
    """
    _check_star_range(table, x)
    return float(delta_star_grid(table, np.array([float(x)]))[0])


def delta_star_grid(table: DivisorTable, xs: np.ndarray) -> np.ndarray:
    """Vectorised ``delta_star`` over an array of x > 0 with 4x <= limit."""
    xs = np.asarray(xs, dtype=float)
    if xs.size and not (0 < xs.min() and 4 * xs.max() < table.limit + 1):
        raise OutOfRangeError("delta_star_grid needs 0 < x and 4x <= table.limit")
    return 0.5 * _signed_sums(table, np.floor(4 * xs).astype(np.int64), alt=True) - main_term(xs)


# ---------------------------------------------------------------------------
# Binary cache.  Layout (little endian):
#   8 bytes   magic  b"ZDTABLE1"
#   u32       version (currently 2; version 1 held uint32 values)
#   u64       limit
#   32 bytes  sha256 of the raw values payload
#   payload   (limit+1) uint16 values
# ---------------------------------------------------------------------------

def save_table(table: DivisorTable, path) -> None:
    """Write a table to its binary cache format (atomic via temp rename).

    The temp file has a unique name in the target's directory, so
    concurrent writers never share it; it is removed if writing fails.
    """
    payload = memoryview(np.ascontiguousarray(table.values, dtype="<u2"))  # no copy on LE hosts
    digest = hashlib.sha256(payload).digest()
    header = _CACHE_MAGIC + struct.pack("<IQ", _CACHE_VERSION, table.limit) + digest
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_table(path, *, limit: int | None = None) -> DivisorTable:
    """Load a cached table, verifying magic, version and checksum.

    If ``limit`` is given, the cached table must cover at least that
    limit; a larger cache is sliced down to the request.  Raises
    ``CacheError`` on any inconsistency (caller decides whether to
    rebuild).  The payload is read into its final array, after the file
    size is checked, so a load holds one payload.
    """
    with open(path, "rb") as fh:
        header = fh.read(8 + 4 + 8 + 32)
        if len(header) < 52 or header[:8] != _CACHE_MAGIC:
            raise CacheError(f"{path}: not a divisor-table cache")
        version, stored_limit = struct.unpack("<IQ", header[8:20])
        if version != _CACHE_VERSION:
            raise CacheError(f"{path}: unsupported cache version {version}")
        digest = header[20:52]
        expected = (stored_limit + 1) * 2
        size = os.fstat(fh.fileno()).st_size - len(header)
        if size == expected:
            payload = np.empty(stored_limit + 1, dtype="<u2")
            size = fh.readinto(payload)
    if size != expected:
        raise CacheError(f"{path}: truncated payload ({size} != {expected} bytes)")
    if hashlib.sha256(payload).digest() != digest:
        raise CacheError(f"{path}: checksum mismatch")
    if limit is not None and stored_limit < limit:
        raise CacheError(f"{path}: cached limit {stored_limit} < requested {limit}")
    stored_limit = stored_limit if limit is None else limit  # a larger cache is sliced
    values = payload[:stored_limit + 1].astype(np.uint16, copy=False)
    values.setflags(write=False)
    return DivisorTable(limit=int(stored_limit), values=values)
