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
            raise ValidationError(
                f"{self.cardinality} compositions exceed the cap {DEFAULT_SIZE_CAP}"
            )


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
    total: int, parts: int, a: Sequence, log: bool = False
) -> Iterator[tuple[tuple[int, ...], int, range, int | float, list]]:
    """(head, r, xs, factor, row) for each run of ``_runs`` over the
    composition set (total, parts), which must be within the size cap:
    member x's term W prod(a_i ** N_i) is factor * row[x], a big integer for
    integer a_i. With ``log`` the a_i are ln a_i (-inf for a_i = 0) and ln
    of the term is factor + row[x]. The caller computes each member's term.

    A term is prod_i C(r_i, N_i) a_i ** N_i, r_i being the particles left for
    levels i.., so ``factor`` is the head's part and row[x] = C(r, x)
    a[-2] ** x a[-1] ** (r - x), built once per set (per run, for up to
    three levels, where no row recurs)."""
    comps = CompositionSet(total, parts)
    comps.require_within_cap()
    total, parts = comps.total, comps.parts
    if log:
        log_factorial = [_log_factorial(x) for x in range(total + 1)]
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
    for head, r, xs in _runs(total, parts):
        factor, left = unit, total
        for level, x in zip(lead, head):
            factor = times(factor, times(choose(left, x), level[x]))
            left -= x
        row = rows.get(r)
        if row is None:
            row = [times(choose(r, x), times(before[x], last[r - x]))
                   for x in range(r + 1)]
            if keep:
                rows[r] = row
        yield head, r, xs, factor, row


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
    terms = _terms(m.total, len(m.occupations), [1] * len(m.occupations))
    w_sum = sum(factor * row[x] for _, _, xs, factor, row in terms for x in xs)
    return float(Fraction(_exact_weight(m.occupations), w_sum))
