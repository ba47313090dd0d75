"""Exact-rational exponent-pair calculus.

An exponent pair (kappa, lambda) with 0 <= kappa <= 1/2 <= lambda <= 1
bounds one-dimensional exponential sums; two classical processes map
pairs to pairs:

    A: (kappa, lambda) -> (kappa/(2 kappa + 2), (kappa + lambda + 1)/(2 kappa + 2))
    B: (kappa, lambda) -> (lambda - 1/2, kappa + 1/2)        (an involution)

Every arithmetic operation in this module is exact (fractions.Fraction);
floats appear only in display helpers.  The derived growth exponents are

    theta_div  = (kappa + lambda) / (2 + 2 kappa)   (divisor remainder / E(T)),
    theta_zeta = (kappa + lambda) / (4 + 4 kappa)   (critical-line zeta),

with theta_zeta = theta_div / 2 identically; a pair improves the
classical 1/3 exponent exactly when 3 lambda + kappa < 2, and any pair
with lambda < 1 beats the convexity exponent 1/4 for zeta.

``search_optimal`` enumerates all process words over {A, B} from the seed
pairs, deduplicates exactly, and reports the objective minimiser plus the
Pareto frontier in (kappa, lambda).
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import InvalidArgumentError, ResourceLimitError

HALF = Fraction(1, 2)
MAX_SEARCH_DEPTH = 24


@dataclass(frozen=True)
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
        if not (0 <= self.kappa <= HALF <= self.lam <= 1):
            raise InvalidArgumentError(
                f"({self.kappa}, {self.lam}) violates 0 <= kappa <= 1/2 <= lambda <= 1")

    def key(self) -> tuple[Fraction, Fraction]:
        return (self.kappa, self.lam)

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
    theta_div = s / (2 + 2 * p.kappa)
    theta_zeta = s / (4 + 4 * p.kappa)
    return ExponentReport(
        pair=p,
        theta_div=theta_div,
        theta_zeta=theta_zeta,
        beats_one_third=(3 * p.lam + p.kappa < 2),
        nontrivial=(p.lam < 1),
    )


_OBJECTIVES = ("theta_div", "theta_zeta")


def _objective_value(p: ExponentPair, objective: str) -> Fraction:
    r = report(p)
    return getattr(r, objective)


def pareto_frontier(pairs) -> list[ExponentPair]:
    """Non-dominated pairs minimising (kappa, lambda) componentwise."""
    items = sorted(pairs, key=lambda p: (p.kappa, p.lam, len(p.word), p.word))
    front: list[ExponentPair] = []
    best_lam = None
    for p in items:
        if best_lam is None or p.lam < best_lam:
            front.append(p)
            best_lam = p.lam
    return front


def _closure(seeds, max_depth: int) -> tuple[dict, list[list[ExponentPair]]]:
    """Breadth-first A/B closure of the seeds, words up to max_depth long.

    Returns the reached pairs keyed by exact (kappa, lambda), each stored
    with the first word found (minimal length; seed order, A before B),
    and the list of pairs first reached at each depth, ending at the
    last nonempty one.
    """
    def rank(p: ExponentPair):
        return (len(p.word), p.word)

    seen: dict[tuple[Fraction, Fraction], ExponentPair] = {}
    layer: list[ExponentPair] = []
    for s in seeds:
        if s.key() not in seen or rank(s) < rank(seen[s.key()]):
            seen[s.key()] = s
            layer.append(s)
    layers = [layer]
    for _depth in range(max_depth):
        nxt: list[ExponentPair] = []
        for p in layer:
            for child in (apply_A(p), apply_B(p)):
                if child.key() not in seen:
                    seen[child.key()] = child
                    nxt.append(child)
        if not nxt:
            break
        layers.append(nxt)
        layer = nxt
    return seen, layers


@dataclass
class SearchResult:
    """Outcome of the exhaustive process-word search."""

    best: ExponentReport
    frontier: list[ExponentPair]
    explored: int
    best_by_depth: list[Fraction] = field(default_factory=list)
    objective: str = "theta_div"


def search_optimal(max_depth: int, objective: str = "theta_div", *,
                   seeds=None) -> SearchResult:
    """Breadth-first search of all A/B words up to max_depth from the seeds.

    Pairs are deduplicated by exact rational equality; BFS guarantees the
    stored word is of minimal length (ties resolved by the fixed seed
    order with A expanded before B, so runs are deterministic).  Among
    equal objective values the returned minimiser takes the shortest,
    then lexicographically smallest word.  ``best_by_depth[d]`` is the
    exact objective minimum over everything reachable within depth d,
    non-increasing by construction.  Empirically the whole closure is an
    antichain in (kappa, lambda), so the Pareto frontier coincides with
    the deduplicated reachable set.
    """
    if objective not in _OBJECTIVES:
        raise InvalidArgumentError(f"objective must be one of {_OBJECTIVES}")
    if max_depth < 0:
        raise InvalidArgumentError("max_depth must be >= 0")
    if max_depth > MAX_SEARCH_DEPTH:
        raise ResourceLimitError(
            f"max_depth {max_depth} exceeds cap {MAX_SEARCH_DEPTH}")
    seen, layers = _closure(seed_pairs() if seeds is None else seeds, max_depth)
    best_by_depth = [min(_objective_value(p, objective) for p in layers[0])]
    for layer in layers[1:]:
        best_by_depth.append(min(best_by_depth[-1],
                                 *(_objective_value(p, objective) for p in layer)))
    best_by_depth += [best_by_depth[-1]] * (max_depth + 1 - len(best_by_depth))

    candidates = sorted(
        seen.values(),
        key=lambda p: (_objective_value(p, objective), len(p.word), p.word))
    best_pair = candidates[0]
    return SearchResult(
        best=report(best_pair),
        frontier=pareto_frontier(seen.values()),
        explored=len(seen),
        best_by_depth=best_by_depth,
        objective=objective,
    )


def write_frontier_csv(pairs, path) -> None:
    """Frontier export with exact rational fields: kappa,lambda,word,theta_div,theta_zeta."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kappa", "lambda", "word", "theta_div", "theta_zeta"])
        for p in pairs:
            r = report(p)
            w.writerow([str(p.kappa), str(p.lam), p.word,
                        str(r.theta_div), str(r.theta_zeta)])


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q' or integer literals into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"not a rational literal: {text!r}") from exc


@functools.cache
def _reachable(depth: int) -> frozenset:
    """Exact keys of the seeds' closure to ``depth``, built once per depth."""
    return frozenset(_closure(seed_pairs(), depth)[0])


def is_process_reachable(kappa, lam, depth: int = 12) -> bool:
    """Whether (kappa, lambda) lies in the depth-limited A/B closure of the seeds.

    Used by the CLI to decide when a hand-supplied pair needs the
    explicit hypothetical opt-in (conjectural pairs such as (0, 1/2) are
    never in the closure).
    """
    return (Fraction(kappa), Fraction(lam)) in _reachable(depth)
