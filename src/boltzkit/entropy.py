"""Entropy and cross-entropy functionals over distributions and occupations.

Everything here is a pure function of its arguments. The convention
0*ln(0) = 0 applies throughout, so NaN never escapes. Entropies carry the
Boltzmann constant they were computed with, which defaults to 1
(dimensionless units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

from .combinatorics import _log_weight
from .core import (Macrostate, ProbabilityVector, _boltzmann_k, _same_length, _size,
                   _total)
from .errors import ValidationError

#: Tolerance on sum(mean occupations) == N.
MEAN_SUM_TOL = 1e-9


@dataclass(frozen=True)
class EntropyValue:
    """An entropy in units of the Boltzmann constant it was computed with,
    which passes the k rule and is stored as a float."""

    value: float
    k_used: float

    def __post_init__(self):
        object.__setattr__(self, "k_used", _boltzmann_k(self.k_used))


def _entropy(nats: float, k: float) -> EntropyValue:
    """k * nats: EntropyValue checks k once, then the product is stored."""
    entropy = EntropyValue(value=nats, k_used=k)
    object.__setattr__(entropy, "value", entropy.k_used * nats + 0.0)  # not -0.0
    return entropy


def _x_log(xs: Iterable, tops: Iterable, bottoms: Iterable) -> float:
    """sum(x ln(top/bottom)) over the x > 0, summed exactly: 0 ln(.) = 0."""
    return math.fsum(x * math.log(t / b) for x, t, b in zip(xs, tops, bottoms) if x > 0)


def shannon_entropy(p: ProbabilityVector, k: float = 1.0) -> EntropyValue:
    """-k * sum(p_i ln p_i): uncertainty of a probability distribution."""
    return _entropy(-_x_log(p.entries, p.entries, repeat(1.0)), k)


def boltzmann_shannon_entropy(m: Macrostate, k: float = 1.0) -> EntropyValue:
    """-k * sum(N_i ln N_i): the Shannon form over raw occupation numbers.

    Defined over integers rather than probabilities, so it is generally
    negative; only entropy differences are meaningful for it.
    """
    occ = m.occupations
    return _entropy(-_x_log(occ, occ, repeat(1.0)), k)


def stirling_entropy(m: Macrostate, k: float = 1.0) -> EntropyValue:
    """-k N sum((N_i/N) ln(N_i/N)): the large-N limit of k ln W.

    Equals the Shannon entropy of the empirical frequencies scaled by k N.
    """
    if m.total < 1:
        raise ValidationError("stirling_entropy needs at least one particle")
    occ = m.occupations
    return _entropy(-_x_log(occ, occ, repeat(m.total)), k)


def exact_boltzmann_entropy(m: Macrostate, k: float = 1.0) -> EntropyValue:
    """k ln W with the exact microstate count W = N!/prod(N_i!)."""
    return _entropy(_log_weight(m.occupations), k)


def _masses(values: Sequence[float], what: str):
    """A sequence's masses as a float64 array; a NaN or inf one is refused
    (a ProbabilityVector's are finite and >= 0 by construction)."""
    import numpy as np
    a = np.asarray(values, dtype=float)
    not_finite = ~(np.abs(a) < np.inf)  # NaN compares false
    if not_finite.any():
        i = int(not_finite.argmax())
        raise ValidationError(f"{what} {float(a[i])!r} at entry {i} is not finite")
    return a


def kl_divergence(
    p: ProbabilityVector | Sequence[float], p0: ProbabilityVector | Sequence[float]
) -> float:
    """Unsigned divergence D(p || p0) = sum(p_i ln(p_i/p0_i)) >= 0."""
    import numpy as np
    a, b = (x._array if isinstance(x, ProbabilityVector) else _masses(x, what)
            for x, what in ((p, "mass"), (p0, "reference mass")))
    _same_length(len(a), len(b), "entries")
    if not isinstance(p, ProbabilityVector) and (a < 0.0).any():
        raise ValidationError(f"mass {float(a[a < 0.0][0])!r} is negative")
    mass = a != 0.0
    outside = mass & (b <= 0.0)
    if outside.any():
        i = int(outside.argmax())
        raise ValidationError(f"mass {float(a[i])!r} where the reference "
                              f"distribution has {float(b[i])!r}")
    if not mass.all():
        a, b = a[mass], b[mass]
    with np.errstate(over="ignore", divide="ignore"):  # a D beyond float range is inf
        terms = np.log(a / b)
        off = np.isinf(terms)  # a / b is 0 or inf: ln a - ln b there
        if off.any():
            terms[off] = np.log(a[off]) - np.log(b[off])
        d = _total(a * terms)
    return max(0.0, d)  # below 0: rounding


def kl_cross_entropy(
    p: ProbabilityVector, p0: ProbabilityVector, k: float = 1.0, N: int = 1
) -> float:
    """-N k D(p || p0): N-particle relative entropy against the prior.

    Nonpositive, and zero exactly when p == p0 on their common support.
    """
    return -_size(N, "particle count") * _boltzmann_k(k) * kl_divergence(p, p0)


def _check_mean(m: Macrostate, mean: Sequence[float]) -> tuple[float, ...]:
    mn = tuple(float(x) for x in mean)
    _same_length(len(mn), len(m.occupations), "mean occupations")
    for x in mn:
        if not (x >= 0.0) or not math.isfinite(x):
            raise ValidationError(f"mean occupation {x!r} is not a nonnegative real")
    total = math.fsum(mn)
    if abs(total - m.total) > MEAN_SUM_TOL:
        raise ValidationError(
            f"mean occupations sum to {total!r}, macrostate has {m.total}"
        )
    for count, x in zip(m.occupations, mn):
        if count > 0 and x == 0.0:
            raise ValidationError(f"occupation {count} where mean is 0")
    return mn


def occupation_cross_entropy(
    m: Macrostate, mean: Sequence[float], k: float = 1.0
) -> float:
    """k sum(N_i ln(N_i / mean_i)): divergence of occupations from their means.

    Nonnegative whenever the mean occupations sum to N (it is N times a
    KL divergence of the empirical frequencies from mean/N).
    """
    mn = _check_mean(m, mean)
    return _boltzmann_k(k) * _x_log(m.occupations, m.occupations, mn)


def negentropy_relation(
    m: Macrostate, mean: Sequence[float], k: float = 1.0
) -> tuple[float, float]:
    """Both sides of the information = negentropy identity.

    lhs is ``occupation_cross_entropy(m, mean, k)``. rhs is the entropy
    deficit S_ref - S, with S the Stirling-form entropy of m and S_ref the
    Stirling-form cross term -k sum(N_i ln(mean_i/N)), i.e. the equilibrium
    reference evaluated along the observed occupations. With that reference
    the two sides agree identically (to rounding) for every macrostate and
    mean with matching totals and supports; the residual difference between
    S_ref and the entropy of the mean vector itself is an asymptotic
    statement, exercised by the convergence checks in the oracle module.
    """
    mn, k = _check_mean(m, mean), _boltzmann_k(k)
    occ, n_total = m.occupations, repeat(m.total)
    s_state = -k * _x_log(occ, occ, n_total)
    s_ref = -k * _x_log(occ, mn, n_total)
    return k * _x_log(occ, occ, mn), s_ref - s_state


def einstein_probability(s: EntropyValue, s_ref: EntropyValue) -> float:
    """exp((S - S_ref)/k): macrostate probability from its entropy deficit.

    ``s_ref`` is the caller's reference (maximum or equilibrium) entropy,
    so the same operation serves both the fluctuation form and the
    equilibrium form. Result lies in (0, 1].
    """
    if abs(s.k_used - s_ref.k_used) > 1e-12 * max(abs(s.k_used), abs(s_ref.k_used)):
        raise ValidationError(f"k {s.k_used!r} vs {s_ref.k_used!r}")
    if s.value > s_ref.value + 1e-12:
        raise ValidationError(
            f"entropy {s.value!r} exceeds reference {s_ref.value!r}"
        )
    return min(1.0, math.exp((s.value - s_ref.value) / s.k_used))
