"""Exact-rational exponent-pair calculus.

An exponent pair (kappa, lambda) with 0 <= kappa <= 1/2 <= lambda <= 1
bounds one-dimensional exponential sums; two classical processes map
pairs to pairs:

    A: (kappa, lambda) -> (kappa/(2 kappa + 2), (kappa + lambda + 1)/(2 kappa + 2))
    B: (kappa, lambda) -> (lambda - 1/2, kappa + 1/2)        (an involution)

Every arithmetic operation in this module is exact.  The search runs on
gcd-normalised integer triples (a, b, c) = c (kappa, lambda, 1), where
A: (a, b, c) -> (a, a+b+c, 2a+2c) and B: (a, b, c) -> (2b-c, 2a+c, 2c);
public values are fractions.Fraction, and floats serve only display and
sort pre-keys whose ties exact values break.  The growth exponents are

    theta_div  = (kappa + lambda) / (2 + 2 kappa)   (divisor remainder / E(T)),
    theta_zeta = (kappa + lambda) / (4 + 4 kappa)   (critical-line zeta),

with theta_zeta = theta_div / 2 identically; a pair improves the
classical 1/3 exponent exactly when 3 lambda + kappa < 2, and any pair
with lambda < 1 beats the convexity exponent 1/4 for zeta.

``search_optimal`` enumerates all process words over {A, B} from the seed
pairs, deduplicates exactly, and reports the theta_div minimiser plus the
Pareto frontier in (kappa, lambda).  ``is_process_reachable`` decides
whether the processes derive a given pair from the seeds, at any depth,
by walking back from the pair to a seed one process at a time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate
from math import gcd

from .errors import InvalidArgumentError, ResourceLimitError

HALF = Fraction(1, 2)
MAX_SEARCH_DEPTH = 24


@dataclass(frozen=True, slots=True)
class ExponentPair:
    """An exact exponent pair with the process word that produced it.

    ``word`` lists the processes applied to the seed in order ("AAB"
    means A, then A, then B).  ``hypothetical`` marks conjectural pairs
    supplied by hand (e.g. the Lindelof pair (0, 1/2)) rather than
    derived through the calculus.
    """

    kappa: Fraction
    lam: Fraction
    word: str = ""
    hypothetical: bool = False

    def __post_init__(self):
        if not isinstance(self.kappa, Fraction) or not isinstance(self.lam, Fraction):
            object.__setattr__(self, "kappa", Fraction(self.kappa))
            object.__setattr__(self, "lam", Fraction(self.lam))
        k, lam = self.kappa, self.lam  # integer form of 0 <= k <= 1/2 <= lam <= 1
        if not (0 <= 2 * k.numerator <= k.denominator
                and lam.denominator <= 2 * lam.numerator <= 2 * lam.denominator):
            raise InvalidArgumentError(
                f"({self.kappa}, {self.lam}) violates 0 <= kappa <= 1/2 <= lambda <= 1")

    def __str__(self):
        w = self.word or "seed"
        return f"({self.kappa}, {self.lam})[{w}]"


def seed_pairs() -> tuple[ExponentPair, ...]:
    """The proven starting pairs of the calculus.

    (0, 1) trivial, (1/2, 1/2) standard, (1/6, 2/3) classical (= A of the
    standard pair), and (11/30, 16/30) (= AAAB of the standard pair).
    """
    return (
        ExponentPair(Fraction(0), Fraction(1)),
        ExponentPair(HALF, HALF),
        ExponentPair(Fraction(1, 6), Fraction(2, 3)),
        ExponentPair(Fraction(11, 30), Fraction(16, 30)),
    )


def apply_A(p: ExponentPair) -> ExponentPair:
    """A-process: (kappa, lambda) -> (kappa, kappa+lambda+1) / (2 kappa + 2)."""
    den = 2 * p.kappa + 2
    return replace(p, kappa=p.kappa / den, lam=(p.kappa + p.lam + 1) / den,
                   word=p.word + "A")


def apply_B(p: ExponentPair) -> ExponentPair:
    """B-process: (kappa, lambda) -> (lambda - 1/2, kappa + 1/2); B(B(p)) = p."""
    return replace(p, kappa=p.lam - HALF, lam=p.kappa + HALF, word=p.word + "B")


@dataclass(frozen=True)
class ExponentReport:
    """The growth exponents and criteria derived from one pair."""

    pair: ExponentPair
    theta_div: Fraction
    theta_zeta: Fraction
    beats_one_third: bool
    nontrivial: bool


def report(p: ExponentPair) -> ExponentReport:
    """Exact growth exponents and improvement criteria for a pair."""
    s = p.kappa + p.lam
    return ExponentReport(pair=p, theta_div=s / (2 + 2 * p.kappa),
                          theta_zeta=s / (4 + 4 * p.kappa),
                          beats_one_third=(3 * p.lam + p.kappa < 2), nontrivial=(p.lam < 1))


def pareto_frontier(pairs) -> list[ExponentPair]:
    """Non-dominated pairs minimising (kappa, lambda) componentwise."""
    front: list[ExponentPair] = []
    for p in sorted(pairs, key=lambda p: (float(p.kappa), p.kappa, float(p.lam), p.lam,
                                          len(p.word), p.word)):
        if not front or p.lam < front[-1].lam:
            front.append(p)
    return front


def _normalise(a: int, b: int, c: int) -> tuple[int, int, int]:
    g = gcd(a, b, c)
    return (a, b, c) if g == 1 else (a // g, b // g, c // g)


def _triple(kappa, lam) -> tuple[int, int, int]:
    """The triple (a, b, c), c > 0 and gcd 1, with (kappa, lambda) = (a/c, b/c)."""
    kappa, lam = Fraction(kappa), Fraction(lam)
    return _normalise(kappa.numerator * lam.denominator, lam.numerator * kappa.denominator,
                      kappa.denominator * lam.denominator)


def _children(a: int, b: int, c: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The A- and B-images of the triple (a, b, c), each normalised."""
    return _normalise(a, a + b + c, 2 * (a + c)), _normalise(2 * b - c, 2 * a + c, 2 * c)


def _closure(max_depth: int) -> tuple[dict, list[list[tuple]]]:
    """Breadth-first A/B closure of the seed pairs on triples, words up to max_depth long.

    Returns a dict from each reached triple to its entry (triple, first word
    found) and the entries first reached at each depth, ending at the last
    nonempty one.
    """
    seen = {key: (key, "") for key in (_triple(s.kappa, s.lam) for s in seed_pairs())}
    layers: list[list[tuple]] = [list(seen.values())]
    for _depth in range(max_depth):
        nxt = []
        for (a, b, c), word in layers[-1]:
            for child, step in zip(_children(a, b, c), "AB"):
                if child not in seen:
                    seen[child] = entry = (child, word + step)
                    nxt.append(entry)
        if not nxt:
            break
        layers.append(nxt)
    return seen, layers


@dataclass
class SearchResult:
    """Outcome of the exhaustive process-word search."""

    best: ExponentReport
    frontier: list[ExponentPair]
    explored: int
    best_by_depth: list[Fraction] = field(default_factory=list)


def search_optimal(max_depth: int) -> SearchResult:
    """Breadth-first search of all A/B words up to max_depth from the seed pairs.

    Pairs are deduplicated exactly as gcd-normalised triples; BFS
    guarantees the stored word is of minimal length (ties resolved by the
    fixed seed order, A before B, so runs are deterministic).  Among
    equal theta_div values the returned minimiser takes the shortest,
    then lexicographically smallest word.  ``best_by_depth[d]`` is the
    exact theta_div minimum over everything reachable within depth d,
    non-increasing by construction.  Empirically the whole closure is an
    antichain in (kappa, lambda), so the Pareto frontier coincides with
    the deduplicated reachable set.
    """
    if max_depth < 0:
        raise InvalidArgumentError("max_depth must be >= 0")
    if max_depth > MAX_SEARCH_DEPTH:
        raise ResourceLimitError(f"max_depth {max_depth} exceeds cap {MAX_SEARCH_DEPTH}")
    seen, layers = _closure(max_depth)

    def theta(entry) -> Fraction:  # theta_div = (kappa + lambda) / (2 (1 + kappa))
        a, b, c = entry[0]
        return Fraction(a + b, 2 * (a + c))

    def argmin(entries) -> int:
        """Index of the entry least in (theta_div, len(word), word); floats pick candidates."""
        approx = [(a + b) / (a + c) for (a, b, c), _ in entries]
        least = min(approx)
        return min((i for i, x in enumerate(approx) if x == least),
                   key=lambda i: (theta(entries[i]), len(entries[i][1]), entries[i][1]))

    best_by_depth = list(accumulate((theta(layer[argmin(layer)]) for layer in layers), min))
    best_by_depth += [best_by_depth[-1]] * (max_depth + 1 - len(best_by_depth))
    entries = list(seen.values())
    best = argmin(entries)
    pairs = [ExponentPair(Fraction(a, c), Fraction(b, c), word) for (a, b, c), word in entries]
    del seen, layers, entries  # freed first, so the frontier sort's keys do not raise the peak
    return SearchResult(best=report(pairs[best]), frontier=pareto_frontier(pairs),
                        explored=len(pairs), best_by_depth=best_by_depth)


def write_frontier_csv(pairs, path) -> None:
    """Frontier export with exact rational fields: kappa,lambda,word,theta_div,theta_zeta."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kappa", "lambda", "word", "theta_div", "theta_zeta"])
        for p in pairs:
            r = report(p)
            w.writerow([p.kappa, p.lam, p.word, r.theta_div, r.theta_zeta])


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or integer literals into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"not a rational literal: {text!r}") from exc


def _word_from_seed(p: tuple[int, int, int]) -> str | None:
    """The process word that takes a seed pair to the triple p, or None."""
    # Walk back one process at a time: up to scale, p = A(q) for
    # q = (2a, 2b-c, c-2a) and p = B(A(q)) for q = (2b-c, 2a, 2c-2b), when q
    # is a valid pair.  Uniqueness: both are valid only at (1/6, 2/3), a seed,
    # so the walk never branches.  Termination: c never increases; it strictly
    # decreases unless kappa = 0 (then 1 - lambda doubles each step) or
    # lambda = 1/2 (then the next step has kappa = 0).  So the walk needs
    # neither a visited set nor a step cap.
    seeds = {_triple(s.kappa, s.lam) for s in seed_pairs()}

    def valid(a, b, c):  # 0 <= kappa <= 1/2 <= lambda <= 1
        return 0 <= 2 * a <= c <= 2 * b <= 2 * c

    word = ""
    while p not in seeds:
        if _children(*p)[1] in seeds:
            return "B" + word
        a, b, c = p
        undo_a, undo_ab = (2 * a, 2 * b - c, c - 2 * a), (2 * b - c, 2 * a, 2 * c - 2 * b)
        if valid(*undo_a):
            p, word = _normalise(*undo_a), "A" + word
        elif valid(*undo_ab):
            p, word = _normalise(*undo_ab), "AB" + word
        else:
            return None
    return word


def is_process_reachable(kappa, lam) -> bool:
    """Whether A/B processes derive (kappa, lambda) from the seed pairs, at any depth.

    The CLI asks this before it reports a hand-supplied pair without the
    hypothetical opt-in.  The walk back to a seed takes one step per process.
    """
    return _word_from_seed(_triple(kappa, lam)) is not None
