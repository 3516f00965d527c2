"""Exact macrostate combinatorics.

Statistical weights are arbitrary-precision integers (no overflow, ever);
probabilities have both a log-space floating route and an exact rational
route so asymptotic formulas can be checked against exact arithmetic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterator, Sequence

from .core import Macrostate, ProbabilityVector, _same_length, _size
from .errors import ValidationError

#: The one cap on exact enumeration and eager materialization of a set.
DEFAULT_SIZE_CAP = 10_000_000


@dataclass(frozen=True)
class StatWeight:
    exact: int
    log_value: float


def statistical_weight(m: Macrostate) -> StatWeight:
    """Number of microstates (particle assignments) realizing macrostate m.

    ``exact`` is N! / prod(N_i!) as a big integer; ``log_value`` is its
    natural log computed independently through log-gamma.
    """
    return StatWeight(_exact_weight(m.occupations), _log_weight(m.occupations))


def _log_factorial(x: int) -> float:
    return math.lgamma(x + 1)


def _exact_weight(occ: Sequence[int]) -> int:
    w = math.factorial(sum(occ))
    for x in occ:
        w //= math.factorial(x)
    return w


def _log_weight(occ: Sequence[int]) -> float:
    return _log_factorial(sum(occ)) - math.fsum(map(_log_factorial, occ))


def _log_probability(occ: Sequence[int], log_prior: Sequence[float]) -> float:
    """ln(W prod(prior_i ** N_i)) from ln prior_i, -inf where prior_i <= 0."""
    log_p = _log_weight(occ)
    for count, lq in zip(occ, log_prior):
        if count:
            if lq == -math.inf:
                return -math.inf
            log_p += count * lq
    return log_p


def _log_priors(prior: Sequence[float]) -> list[float]:
    return [-math.inf if q <= 0.0 else math.log(q) for q in prior]


@dataclass(frozen=True)
class CompositionSet:
    """All occupation vectors of length ``parts`` summing to ``total``.

    Iteration is lazy, lexicographically ascending, and duplicate-free.
    Each instantiated iterator owns its state, so independent consumers
    (including parallel ones) never interfere.
    """

    total: int
    parts: int

    def __post_init__(self):
        object.__setattr__(self, "parts", _size(self.parts, "part count"))
        object.__setattr__(self, "total", _size(self.total, "composition total", 0))

    @property
    def cardinality(self) -> int:
        return math.comb(self.total + self.parts - 1, self.parts - 1)

    def __len__(self) -> int:
        return self.cardinality

    def __iter__(self) -> Iterator[Macrostate]:
        return map(Macrostate, self.iter_tuples())

    def iter_tuples(self) -> Iterator[tuple[int, ...]]:
        """Raw tuples, skipping Macrostate construction, for hot loops."""
        return _compositions(self.total, self.parts)

    def materialize(self) -> list[Macrostate]:
        """Eager list of all members; refuses sets above ``DEFAULT_SIZE_CAP``."""
        self.require_within_cap()
        return list(self)

    def require_within_cap(self) -> None:
        if self.cardinality > DEFAULT_SIZE_CAP:
            raise ValidationError(
                f"{self.cardinality} compositions exceed the cap {DEFAULT_SIZE_CAP}"
            )


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Lexicographic successor walk over one mutable occupation list."""
    if parts == 1:
        yield (total,)
        return
    occ = [0] * parts
    occ[-1] = total
    while True:
        yield tuple(occ)
        last = occ[-1]
        if last:  # move one particle from the last level to its neighbour
            occ[-2] += 1
            occ[-1] = last - 1
            continue
        # the last level is empty: move one particle of the rightmost
        # occupied level k one level left, and the rest to the last level
        k = parts - 2
        while k and not occ[k]:
            k -= 1
        if not k:  # (total, 0, ..., 0): the walk is complete
            return
        occ[k - 1] += 1
        occ[-1] = occ[k] - 1
        occ[k] = 0


def enumerate_compositions(total: int, parts: int) -> CompositionSet:
    """Composition set of ``total`` particles over ``parts`` levels."""
    return CompositionSet(total=total, parts=parts)


def _terms(
    comps: CompositionSet, a: Sequence, log: bool = False
) -> Iterator[tuple[tuple[int, ...], int | float]]:
    """(composition, W prod(a_i ** N_i)) for each member of
    ``comps.iter_tuples()``, in its order: a big integer for integer a_i.
    With ``log`` the a_i are ln a_i (-inf for a_i = 0) and each value is ln
    of the term. Every member gets its own term, whatever the order.

    A term is prod_i C(r_i, N_i) a_i ** N_i, r_i being the particles left for
    levels i.., so it is the factor of its head (all but the last two levels)
    times T[r][x] = C(r, x) a[-2] ** x a[-1] ** (r - x), with x = N[-2] and r
    the particles the head leaves. Each row T[r] is built once per set (per
    head, for up to three levels, where no row recurs), and a head's factor
    once per run of members that share it: in lexicographic order, once per
    head.
    """
    total = comps.total
    if log:
        log_factorial = [_log_factorial(x) for x in range(total + 1)]
        unit, times = 0.0, operator.add

        def choose(r, x):
            return log_factorial[r] - log_factorial[x] - log_factorial[r - x]

        def power(la, x):  # x * ln 0 would be nan at x = 0
            return x * la if x else 0.0
    else:
        unit, times, choose, power = 1, operator.mul, math.comb, pow
    if comps.parts == 1:
        for occ in comps.iter_tuples():
            yield occ, power(a[0], occ[0])
        return
    *lead, before, last = a
    keep, rows = comps.parts > 3, {}  # no row recurs under a one-level head
    for head, run in groupby(comps.iter_tuples(), operator.itemgetter(slice(0, -2))):
        factor, r = unit, total
        for ai, x in zip(lead, head):
            factor = times(factor, times(choose(r, x), power(ai, x)))
            r -= x
        row = rows.get(r)
        if row is None:
            row = [times(choose(r, x), times(power(before, x), power(last, r - x)))
                   for x in range(r + 1)]
            if keep:
                rows[r] = row
        for occ in run:
            yield occ, times(factor, row[occ[-2]])


def log_macrostate_probability(
    m: Macrostate, prior: ProbabilityVector | Sequence[float]
) -> float:
    """ln of the multinomial probability of m under per-particle priors.

    Returns -inf when some occupied level has zero prior. Raises on
    arity mismatch.
    """
    p = prior.entries if isinstance(prior, ProbabilityVector) else tuple(prior)
    _same_length(len(p), len(m.occupations), "priors")
    return _log_probability(m.occupations, _log_priors(p))


def macrostate_probability(
    m: Macrostate, prior: ProbabilityVector | Sequence[float]
) -> float:
    """Multinomial probability W(m) * prod(prior_i ** N_i), via log space.

    Zero prior on an occupied level legitimately gives probability 0.
    """
    return math.exp(log_macrostate_probability(m, prior))


def macrostate_probability_exact(
    m: Macrostate, prior: Sequence[Fraction]
) -> Fraction:
    """Exact-rational multinomial probability for rational priors."""
    _same_length(len(prior), len(m.occupations), "priors")
    out = Fraction(_exact_weight(m.occupations))
    for count, q in zip(m.occupations, prior):
        if count:
            out *= Fraction(q) ** count
    return out


def weight_ratio_probability(m: Macrostate) -> float:
    """W(m) over the summed weights of every macrostate with the same (N, n).

    Computed by exact big-integer enumeration (the sum equals n**N, which
    the test suite verifies independently), then converted to float. Equals
    the multinomial probability at the uniform prior.
    """
    comps = CompositionSet(total=m.total, parts=len(m.occupations))
    comps.require_within_cap()
    w_sum = sum(w for _, w in _terms(comps, [1] * comps.parts))
    return float(Fraction(_exact_weight(m.occupations), w_sum))
