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

from .core import (EnergySpectrum, ProbabilityVector, _positive, _real, _size,
                   uniform_prior)
from .errors import NumericError, ValidationError


class Dimensionality(Enum):
    LINEAR_1D = "1d"
    PLANAR_2D = "2d"


@dataclass(frozen=True)
class OscillatorModel:
    """Oscillator ensemble: energy quantum, dimensionality ("1d", "2d" or a
    Dimensionality, stored as a Dimensionality), truncation depth."""

    h_nu: float
    dimensionality: Dimensionality
    truncation: int = 256

    def __post_init__(self):
        object.__setattr__(self, "h_nu", _positive(self.h_nu, "h_nu"))
        try:
            dim = Dimensionality(self.dimensionality)
        except ValueError:
            raise ValidationError(f"dimensionality {self.dimensionality!r} "
                                  "is not '1d' or '2d'") from None
        object.__setattr__(self, "dimensionality", dim)
        object.__setattr__(self, "truncation", _size(self.truncation, "truncation"))


def _beta(beta) -> float:
    """beta as a float: a real > 0, not a bool or a string (``core._real``)."""
    if not (value := _real(beta)) > 0.0:
        raise ValidationError(f"beta {beta!r} must be positive")
    return value


def mean_energy_closed(model: OscillatorModel, beta: float) -> float:
    """Closed-form mean energy per oscillator at inverse temperature beta."""
    beta = _beta(beta)
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


def mean_energy_series(model: OscillatorModel, beta: float) -> tuple[float, float]:
    """Truncated-series mean energy and a rigorous truncation-error bound.

    Sums the first ``model.truncation`` levels of
    sum(w_i E_i exp(-beta E_i)) / sum(w_i exp(-beta E_i)) with weight 1
    (1D) or i (2D). The bound combines the exact geometric tails of
    numerator and denominator: for partial sums A/B with nonnegative tails
    a, b, |(A+a)/(B+b) - A/B| <= (a + b A/B)/B. ``auto_truncation`` picks
    the truncation whose bound meets a tolerance.
    """
    beta = _beta(beta)
    L = model.truncation
    x = math.exp(-beta * model.h_nu)
    y = -math.expm1(-beta * model.h_nu)  # 1 - x, > 0 even where x rounds to 1
    # Boltzmann factors shifted by the ground level, so nothing overflows
    # and the leading term is exactly 1 (even when x underflows to 0).
    u = [x**j for j in range(L)]
    # The tails g_n = sum_{i>=L} i^n x^i from one x^L, over j = i - 1 so no
    # division by x is needed: sum_{i>L} f(i) x^(i-1) = sum_{j>=L} f(j+1) x^j.
    xL = x**L
    g0 = _tail(xL, y)
    g1 = _tail(xL * (L - (L - 1) * x), y**2)
    if model.dimensionality is Dimensionality.LINEAR_1D:
        den = math.fsum(u)
        num = math.fsum((j + 0.5) * w for j, w in enumerate(u))  # h_nu units
        tail_z, tail_e = g0, g1 + 0.5 * g0
    else:
        den = math.fsum((j + 1) * w for j, w in enumerate(u))
        num = math.fsum((j + 1) * (j + 1) * w for j, w in enumerate(u))
        g2 = _tail(xL * (L * L - (2 * L * L - 2 * L - 1) * x + (L - 1) ** 2 * x * x),
                   y**3)
        tail_z, tail_e = g1 + g0, g2 + 2.0 * g1 + g0
    ratio = num / den
    tail_bound = model.h_nu * (tail_e + tail_z * ratio) / den
    return model.h_nu * ratio, tail_bound


def auto_truncation(
    model: OscillatorModel,
    beta: float,
    tol: float,
    max_levels: int = 1_000_000,
) -> OscillatorModel:
    """Smallest power-of-two-scaled truncation whose tail bound meets tol."""
    if not _real(tol) >= 0.0:
        raise ValidationError(f"tol {tol!r} must be a real >= 0")
    L = min(max(2, model.truncation), max_levels)
    while True:
        candidate = OscillatorModel(model.h_nu, model.dimensionality, L)
        _, bound = mean_energy_series(candidate, beta)
        if bound <= tol:
            return candidate
        if L >= max_levels:
            raise NumericError(f"tail bound {bound:.3e} > {float(tol):.3e} "
                               f"at the cap {max_levels}")
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
