"""Entropy and cross-entropy functionals over distributions and occupations.

Everything here is a pure function of its arguments. The convention
0*ln(0) = 0 applies throughout, so NaN never escapes. Entropies carry the
Boltzmann constant they were computed with, which defaults to 1
(dimensionless units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .combinatorics import _log_weight
from .core import Macrostate, ProbabilityVector
from .errors import (
    ExceedsReference,
    KMismatch,
    MeanSumMismatch,
    SupportViolation,
    ValidationError,
)

#: Tolerance on sum(mean occupations) == N.
MEAN_SUM_TOL = 1e-9


@dataclass(frozen=True)
class EntropyValue:
    """An entropy in units of the Boltzmann constant it was computed with."""

    value: float
    k_used: float


def _xlogx(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(x)


def shannon_entropy(p: ProbabilityVector, k: float = 1.0) -> EntropyValue:
    """-k * sum(p_i ln p_i): uncertainty of a probability distribution."""
    return EntropyValue(value=-k * math.fsum(_xlogx(x) for x in p.entries), k_used=k)


def boltzmann_shannon_entropy(m: Macrostate, k: float = 1.0) -> EntropyValue:
    """-k * sum(N_i ln N_i): the Shannon form over raw occupation numbers.

    Defined over integers rather than probabilities, so it is generally
    negative; only entropy differences are meaningful for it.
    """
    return EntropyValue(
        value=-k * math.fsum(_xlogx(x) for x in m.occupations), k_used=k
    )


def stirling_entropy(m: Macrostate, k: float = 1.0) -> EntropyValue:
    """-k N sum((N_i/N) ln(N_i/N)): the large-N limit of k ln W.

    Equals the Shannon entropy of the empirical frequencies scaled by k N.
    """
    n_total = m.total
    if n_total < 1:
        raise ValidationError("stirling_entropy needs at least one particle")
    value = -k * math.fsum(
        x * math.log(x / n_total) for x in m.occupations if x > 0
    )
    return EntropyValue(value=value, k_used=k)


def exact_boltzmann_entropy(m: Macrostate, k: float = 1.0) -> EntropyValue:
    """k ln W with the exact microstate count W = N!/prod(N_i!)."""
    return EntropyValue(value=k * _log_weight(m.occupations), k_used=k)


def kl_divergence(
    p: ProbabilityVector | Sequence[float], p0: ProbabilityVector | Sequence[float]
) -> float:
    """Unsigned divergence D(p || p0) = sum(p_i ln(p_i/p0_i)) >= 0."""
    import numpy as np
    a, b = (x._array if isinstance(x, ProbabilityVector) else
            np.asarray(x, dtype=float) for x in (p, p0))
    if len(a) != len(b):
        raise ValidationError(f"length mismatch {len(a)} vs {len(b)}")
    if (a < 0.0).any():
        raise ValidationError(f"mass {float(a[a < 0.0][0])!r} is negative")
    mass = a != 0.0
    outside = mass & (b <= 0.0)
    if outside.any():
        i = int(outside.argmax())
        raise SupportViolation(f"mass {float(a[i])!r} where the reference "
                               f"distribution has {float(b[i])!r}")
    a, b = a[mass], b[mass]
    return math.fsum((a * np.log(a / b)).tolist())


def kl_cross_entropy(
    p: ProbabilityVector, p0: ProbabilityVector, k: float = 1.0, N: int = 1
) -> float:
    """-N k D(p || p0): N-particle relative entropy against the prior.

    Nonpositive, and zero exactly when p == p0 on their common support.
    """
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    return -N * k * kl_divergence(p, p0)


def _check_mean(m: Macrostate, mean: Sequence[float]) -> tuple[float, ...]:
    mn = tuple(float(x) for x in mean)
    if len(mn) != len(m.occupations):
        raise ValidationError(
            f"mean length {len(mn)} != macrostate length {len(m.occupations)}"
        )
    for x in mn:
        if not (x >= 0.0) or not math.isfinite(x):
            raise ValidationError(f"mean occupation {x!r} is not a nonnegative real")
    total = math.fsum(mn)
    if abs(total - m.total) > MEAN_SUM_TOL:
        raise MeanSumMismatch(
            f"mean occupations sum to {total!r}, macrostate has {m.total}"
        )
    for count, x in zip(m.occupations, mn):
        if count > 0 and x == 0.0:
            raise SupportViolation(f"occupation {count} where mean is 0")
    return mn


def occupation_cross_entropy(
    m: Macrostate, mean: Sequence[float], k: float = 1.0
) -> float:
    """k sum(N_i ln(N_i / mean_i)): divergence of occupations from their means.

    Nonnegative whenever the mean occupations sum to N (it is N times a
    KL divergence of the empirical frequencies from mean/N).
    """
    mn = _check_mean(m, mean)
    return k * math.fsum(
        x * math.log(x / mb) for x, mb in zip(m.occupations, mn) if x > 0
    )


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
    mn = _check_mean(m, mean)
    lhs = occupation_cross_entropy(m, mn, k)
    n_total = m.total
    s_state = -k * math.fsum(
        x * math.log(x / n_total) for x in m.occupations if x > 0
    )
    s_ref = -k * math.fsum(
        x * math.log(mb / n_total) for x, mb in zip(m.occupations, mn) if x > 0
    )
    return lhs, s_ref - s_state


def einstein_probability(s: EntropyValue, s_ref: EntropyValue) -> float:
    """exp((S - S_ref)/k): macrostate probability from its entropy deficit.

    ``s_ref`` is the caller's reference (maximum or equilibrium) entropy,
    so the same operation serves both the fluctuation form and the
    equilibrium form. Result lies in (0, 1].
    """
    if abs(s.k_used - s_ref.k_used) > 1e-12 * max(abs(s.k_used), abs(s_ref.k_used)):
        raise KMismatch(f"k {s.k_used!r} vs {s_ref.k_used!r}")
    if s.value > s_ref.value + 1e-12:
        raise ExceedsReference(
            f"entropy {s.value!r} exceeds reference {s_ref.value!r}"
        )
    return min(1.0, math.exp((s.value - s_ref.value) / s.k_used))
