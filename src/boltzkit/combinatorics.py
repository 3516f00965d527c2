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
from typing import Callable, Iterator, Sequence

from .core import Macrostate, ProbabilityVector, _reals, _same_length, _size
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


def _exact_weight(occ: Sequence[int]) -> int:
    w = math.factorial(sum(occ))
    for x in occ:
        w //= math.factorial(x)
    return w


def _log_weight(occ: Sequence[int]) -> float:
    return math.lgamma(sum(occ) + 1) - math.fsum(math.lgamma(x + 1) for x in occ)


def _log_priors(prior: Sequence[float]) -> list[float]:
    return [-math.inf if q <= 0.0 else math.log(q) for q in prior]


def _rational(x, what: str) -> Fraction:
    """x as an exact Fraction: a finite real >= 0 (or a numeral string) that
    Fraction accepts, not a bool."""
    try:
        q = None if isinstance(x, bool) else Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        q = None  # not a number, or NaN, inf or x/0
    if q is None or q < 0:
        raise ValidationError(f"{what} {x!r} is not a rational >= 0")
    return q


def _integer_priors(priors: Sequence) -> tuple[list[int], int]:
    """(a, D): rational priors q_i, floats converted exactly, as integers a_i
    over their common denominator D, q_i = a_i / D. The exact checks' one system."""
    q = [Fraction(x) for x in priors]
    d = math.lcm(*(x.denominator for x in q))
    return [x.numerator * (d // x.denominator) for x in q], d


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

    def __iter__(self) -> Iterator[Macrostate]:
        return map(Macrostate, self.iter_tuples())

    def iter_tuples(self) -> Iterator[tuple[int, ...]]:
        """Raw member tuples, run by run from ``_runs``, for hot loops."""
        if self.parts == 1:  # without the phantom level
            return ((x,) for _, _, xs in _runs(self.total, 1) for x in xs)
        return ((*head, x, r - x)
                for head, r, xs in _runs(self.total, self.parts) for x in xs)

    def materialize(self) -> list[Macrostate]:
        """Eager list of all members; refuses sets above ``DEFAULT_SIZE_CAP``."""
        self.require_within_cap()
        return list(self)

    def require_within_cap(self) -> None:
        if self.cardinality > DEFAULT_SIZE_CAP:
            from decimal import Decimal  # exact at any size; loaded only here
            raise ValidationError(f"{Decimal(self.cardinality):.3e} compositions "
                                  f"exceed the cap {DEFAULT_SIZE_CAP}")


def _runs(total: int, parts: int) -> Iterator[tuple[tuple[int, ...], int, range]]:
    """The one walk of a composition set: runs (head, r, xs) in lexicographic
    order, each standing for the members head + (x, r - x), x in xs =
    range(r + 1), where ``head`` is all but the last two levels and r the
    particles it leaves. A one-level set's one run, ((), total, range(total,
    total + 1)), ends in an empty phantom level."""
    if parts == 1:
        yield (), total, range(total, total + 1)
        return
    head, r = [0] * (parts - 2), total  # one mutable list
    while True:
        yield tuple(head), r, range(r + 1)
        k = parts - 3
        if r and k >= 0:  # one more particle on the last head level
            head[k], r = head[k] + 1, r - 1
            continue
        # else one particle of the rightmost occupied head level k goes left
        while k > 0 and not head[k]:
            k -= 1
        if k <= 0:  # (total, 0, ..., 0) or no head: the walk is complete
            return
        head[k - 1] += 1
        head[k], r = 0, head[k] - 1


def _terms(
    total: int, parts: int, a: Sequence, fold: Callable, log: bool = False
) -> Iterator[tuple[tuple[int, ...], int, Sequence[int], int | float, list, object]]:
    """(head, r, xs, factor, row, folded) for each run of ``_runs`` over the
    composition set (total, parts), which must be within the size cap:
    member x's term W prod(a_i ** N_i) is factor * row[x], a big integer for
    integer a_i; with ``log`` the a_i are ln a_i (-inf for a_i = 0) and ln of
    the term is factor + row[x]. ``folded`` is ``fold(xs, row)``, a sum or
    max over the run's own members, for the caller to scale by the factor.

    A term is prod_i C(r_i, N_i) a_i ** N_i, r_i being the particles left for
    levels i.., so ``factor`` is the head's part and row[x] = C(r, x)
    a[-2] ** x a[-1] ** (r - x), built with its fold once per r and xs (per
    run, for up to three levels, where no row recurs). An exact row takes its
    binomials from C(r, x + 1) = C(r, x) (r - x) // (x + 1), an exact division."""
    comps = CompositionSet(total, parts)
    comps.require_within_cap()
    total, parts = comps.total, comps.parts
    if log:
        log_factorial = [math.lgamma(x + 1) for x in range(total + 1)]
        unit, times = 0.0, operator.add
        # x * ln 0 would be nan at x = 0
        powers = [[x * la if x else 0.0 for x in range(total + 1)] for la in a]

        def choose(r, x):
            return log_factorial[r] - log_factorial[x] - log_factorial[r - x]
    else:
        unit, times, choose = 1, operator.mul, math.comb
        powers = [[ai**x for x in range(total + 1)] for ai in a]
    # a one-level set's phantom last level holds no particle: any a_i will do
    *lead, before, last = powers if parts > 1 else powers * 2
    keep, rows = parts > 3, {}  # no row recurs under a one-level head
    done = None  # the head levels above the last: their part pf is redone on change
    for head, r, xs in _runs(total, parts):
        if head[:-1] != done:
            pf, left, done = unit, total, head[:-1]
            for level, y in zip(lead, done):
                pf = times(pf, times(choose(left, y), level[y]))
                left -= y
        factor = pf
        if head:  # times the last head level's part, in the same order
            x = head[-1]
            factor = times(pf, times(choose(left, x), lead[-1][x]))
        built = rows.get(r)
        if built is None or built[0] != xs:
            if log:
                row = [choose(r, x) + (before[x] + last[r - x]) for x in range(r + 1)]
            else:  # c = C(r, x)
                row, c = [], 1
                for x in range(r + 1):
                    row.append(c * (before[x] * last[r - x]))
                    c = c * (r - x) // (x + 1)
            built = xs, row, fold(xs, row)
            if keep:
                rows[r] = built
        _, row, folded = built
        yield head, r, xs, factor, row, folded


# folds for ``_terms``, each over the run's own members
def _sum(xs: Sequence[int], row: list):
    return sum(map(row.__getitem__, xs))


def _sums(xs: Sequence[int], row: list):  # (sum of row[x], sum of x row[x])
    terms = list(map(row.__getitem__, xs))
    return sum(terms), sum(map(operator.mul, xs, terms))


def _top(xs: Sequence[int], row: list):  # -inf for a run without members
    return max(map(row.__getitem__, xs), default=-math.inf)


def log_macrostate_probability(
    m: Macrostate, prior: ProbabilityVector | Sequence[float]
) -> float:
    """ln of the multinomial probability of m under per-particle priors, or
    of its term W prod(a_i ** N_i) under weights a_i: finite reals >= 0, not
    bools (``core._reals``).

    Returns -inf when some occupied level has zero prior. Raises on
    arity mismatch.
    """
    p = (prior.entries if isinstance(prior, ProbabilityVector)
         else _reals(prior, "prior weights"))
    for q in p:
        if not 0.0 <= q < math.inf:  # catches negatives and NaN
            raise ValidationError(f"prior weight {q!r} is not a finite real >= 0")
    _same_length(len(p), len(m.occupations), "priors")
    log_p = _log_weight(m.occupations)
    for count, lq in zip(m.occupations, _log_priors(p)):
        if count:
            if lq == -math.inf:
                return -math.inf
            log_p += count * lq
    return log_p


def macrostate_probability_exact(
    m: Macrostate, prior: Sequence[Fraction]
) -> Fraction:
    """Exact-rational multinomial probability for rational priors, each a
    rational >= 0 that Fraction accepts, not a bool."""
    _same_length(len(prior), len(m.occupations), "priors")
    out = Fraction(_exact_weight(m.occupations))
    for count, q in zip(m.occupations, prior):
        q = _rational(q, "prior weight")
        if count:
            out *= q ** count
    return out


def weight_ratio_probability(m: Macrostate) -> float:
    """W(m) over the summed weights of every macrostate with the same (N, n).

    Computed by exact big-integer enumeration (the sum equals n**N, which
    the test suite verifies independently), then converted to float. Equals
    the multinomial probability at the uniform prior.
    """
    terms = _terms(m.total, len(m.occupations), [1] * len(m.occupations), _sum)
    w_sum = sum(factor * s for *_, factor, _, s in terms)
    return float(Fraction(_exact_weight(m.occupations), w_sum))
