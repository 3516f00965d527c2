"""Harmonic-oscillator ensembles: closed forms and truncated-series checks.

Two models share one energy quantum h_nu:

* ``LINEAR_1D`` — levels (i - 1/2) h_nu, i = 1, 2, ..., all with equal
  prior weight; mean energy h_nu/2 + h_nu/(exp(beta h_nu) - 1).
* ``PLANAR_2D`` — levels i h_nu with prior weight proportional to i
  (two-dimensional degeneracy folded into the prior); mean energy
  h_nu + 2 h_nu/(exp(beta h_nu) - 1).

The series evaluator sums a finite number of levels and returns a rigorous
truncation-error bound from the closed geometric tails, so the closed
forms can be verified rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import EnergySpectrum, ProbabilityVector, uniform_prior
from .errors import NonPositiveBeta, TruncationInsufficient, ValidationError


class Dimensionality(Enum):
    LINEAR_1D = "1d"
    PLANAR_2D = "2d"


@dataclass(frozen=True)
class OscillatorModel:
    """Oscillator ensemble: energy quantum, dimensionality, truncation depth."""

    h_nu: float
    dimensionality: Dimensionality
    truncation: int = 256

    def __post_init__(self):
        if not (self.h_nu > 0.0 and math.isfinite(self.h_nu)):
            raise ValidationError(f"h_nu {self.h_nu!r} must be a positive real")
        if self.truncation < 1:
            raise ValidationError(f"truncation {self.truncation} must be >= 1")


def mean_energy_closed(model: OscillatorModel, beta: float) -> float:
    """Closed-form mean energy per oscillator at inverse temperature beta."""
    if not (beta > 0.0):
        raise NonPositiveBeta(f"beta {beta!r} must be positive")
    x = beta * model.h_nu
    linear = model.dimensionality is Dimensionality.LINEAR_1D
    ground, modes = (0.5, 1.0) if linear else (1.0, 2.0)
    if x < 1e-8:
        # h_nu (ground + modes/(exp(x) - 1)) = modes (1/beta + h_nu x/12)
        # + O(x^3): no cancellation, and finite where x underflows to 0
        return modes * (1.0 / beta + model.h_nu * x / 12.0)
    bose = math.exp(-x) / (-math.expm1(-x))  # 1/(exp(x) - 1)
    return model.h_nu * (ground + modes * bose)


def _tail(numerator: float, power: float) -> float:
    # the tail is unbounded once the power of 1 - x underflows to 0
    return numerator / power if power else math.inf


def _tail_g0(x: float, y: float, m: int) -> float:
    # sum_{i>=m} x^i
    return _tail(x**m, y)


def _tail_g1(x: float, y: float, m: int) -> float:
    # sum_{i>=m} i x^i
    return _tail(x**m * (m - (m - 1) * x), y**2)


def _tail_g2(x: float, y: float, m: int) -> float:
    # sum_{i>=m} i^2 x^i
    return _tail(
        x**m * (m * m - (2 * m * m - 2 * m - 1) * x + (m - 1) ** 2 * x * x),
        y**3,
    )


def mean_energy_series(
    model: OscillatorModel, beta: float, tol: float | None = None
) -> tuple[float, float]:
    """Truncated-series mean energy and a rigorous truncation-error bound.

    Sums the first ``model.truncation`` levels of
    sum(w_i E_i exp(-beta E_i)) / sum(w_i exp(-beta E_i)) with weight 1
    (1D) or i (2D). The bound combines the exact geometric tails of
    numerator and denominator: for partial sums A/B with nonnegative tails
    a, b, |(A+a)/(B+b) - A/B| <= (a + b A/B)/B.

    When ``tol`` is given and the bound exceeds it, raises
    ``TruncationInsufficient`` instead of returning a value the caller
    would have to distrust.
    """
    if not (beta > 0.0):
        raise NonPositiveBeta(f"beta {beta!r} must be positive")
    L = model.truncation
    x = math.exp(-beta * model.h_nu)
    y = -math.expm1(-beta * model.h_nu)  # 1 - x, > 0 even where x rounds to 1
    # Boltzmann factors shifted by the ground level, so nothing overflows
    # and the leading term is exactly 1 (even when x underflows to 0).
    u = [x**j for j in range(L)]
    # Tails below are written over j = i - 1 so no division by x is needed:
    # sum_{i>L} f(i) x^(i-1) = sum_{j>=L} f(j+1) x^j.
    if model.dimensionality is Dimensionality.LINEAR_1D:
        den = math.fsum(u)
        num = math.fsum((j + 0.5) * w for j, w in enumerate(u))  # h_nu units
        tail_z = _tail_g0(x, y, L)
        tail_e = _tail_g1(x, y, L) + 0.5 * _tail_g0(x, y, L)
    else:
        den = math.fsum((j + 1) * w for j, w in enumerate(u))
        num = math.fsum((j + 1) * (j + 1) * w for j, w in enumerate(u))
        tail_z = _tail_g1(x, y, L) + _tail_g0(x, y, L)
        tail_e = _tail_g2(x, y, L) + 2.0 * _tail_g1(x, y, L) + _tail_g0(x, y, L)
    ratio = num / den
    tail_bound = model.h_nu * (tail_e + tail_z * ratio) / den
    if tol is not None and tail_bound > tol:
        raise TruncationInsufficient(
            f"tail bound {tail_bound:.3e} exceeds requested tolerance "
            f"{tol:.3e} at truncation {L}"
        )
    return model.h_nu * ratio, tail_bound


def auto_truncation(
    model: OscillatorModel,
    beta: float,
    tol: float,
    max_levels: int = 1_000_000,
) -> OscillatorModel:
    """Smallest power-of-two-scaled truncation whose tail bound meets tol."""
    if not (beta > 0.0):
        raise NonPositiveBeta(f"beta {beta!r} must be positive")
    L = max(2, model.truncation)
    while True:
        candidate = OscillatorModel(model.h_nu, model.dimensionality, L)
        _, bound = mean_energy_series(candidate, beta)
        if bound <= tol:
            return candidate
        if L >= max_levels:
            raise TruncationInsufficient(
                f"tail bound {bound:.3e} > {tol:.3e} at the cap {max_levels}"
            )
        L = min(2 * L, max_levels)


def oscillator_as_system(
    model: OscillatorModel,
) -> tuple[EnergySpectrum, ProbabilityVector]:
    """Truncated spectrum and prior, ready for the equilibrium module.

    1D: uniform prior over levels (i - 1/2) h_nu. 2D: prior i/C over
    levels i h_nu, with C = L(L+1)/2 normalizing the retained window.
    """
    L = model.truncation
    if model.dimensionality is Dimensionality.LINEAR_1D:
        levels = [(i - 0.5) * model.h_nu for i in range(1, L + 1)]
        return EnergySpectrum(levels), uniform_prior(L)
    levels = [i * model.h_nu for i in range(1, L + 1)]
    c = L * (L + 1) // 2
    prior = ProbabilityVector(i / c for i in range(1, L + 1))
    return EnergySpectrum(levels), prior
