"""Equilibrium distributions over energy levels.

The plain exponential-family distribution p_i = exp(-beta E_i)/Z and its
prior-weighted generalization p_i = prior_i exp(-beta E_i)/Z_w, plus the
inverse problem (solve for beta from a target mean energy) and the two
closed-form equilibrium-entropy expressions.

All exponentials go through a max-shift, so arbitrarily large |beta * E|
cannot overflow. Normalization of the generalized distribution uses the
prior-weighted partition sum Z_w = sum(prior_j exp(-beta E_j)), the unique
choice under which the weights form a probability distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EnergySpectrum, ProbabilityVector
from .errors import (
    DegeneratePrior,
    LengthMismatch,
    NoVariation,
    NumericError,
    TargetOutOfRange,
    ValidationError,
    ZeroPriorEntry,
)


@dataclass(frozen=True)
class EquilibriumSolution:
    """A solved equilibrium: beta, ln Z, distribution, and its summaries.

    ``entropy_per_particle`` is the Gibbs entropy -sum(p ln p) of the
    distribution, in units of the Boltzmann constant.
    """

    beta: float
    log_partition: float
    distribution: ProbabilityVector
    mean_energy: float
    entropy_per_particle: float


def _require_finite_beta(beta: float) -> None:
    if not math.isfinite(beta):
        raise ValidationError(f"beta must be finite, got {beta!r}")


def _solve_from_log_weights(
    beta: float, energies: np.ndarray, log_w: np.ndarray
) -> EquilibriumSolution:
    finite = np.isfinite(log_w)
    if not finite.any():
        raise DegeneratePrior("every prior-weighted Boltzmann factor vanished")
    shift = float(log_w[finite].max())
    w = np.where(finite, np.exp(log_w - shift), 0.0)
    total = float(np.sum(w))
    p = w / total
    log_partition = shift + math.log(total)
    mean_energy = float(np.dot(p, energies))
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    entropy = float(-np.sum(plogp))
    return EquilibriumSolution(
        beta=beta,
        log_partition=log_partition,
        distribution=ProbabilityVector(p),
        mean_energy=mean_energy,
        entropy_per_particle=entropy,
    )


def boltzmann_distribution(
    spectrum: EnergySpectrum, beta: float
) -> EquilibriumSolution:
    """p_i = exp(-beta E_i) / Z with Z = sum(exp(-beta E_j))."""
    _require_finite_beta(beta)
    energies = np.asarray(spectrum.levels, dtype=float)
    with np.errstate(over="ignore"):  # beta*E may saturate to inf, by design
        log_w = -beta * energies
    return _solve_from_log_weights(beta, energies, log_w)


def generalized_distribution(
    spectrum: EnergySpectrum, prior: ProbabilityVector, beta: float
) -> EquilibriumSolution:
    """p_i = prior_i exp(-beta E_i) / Z_w, the prior-weighted equilibrium.

    Levels with zero prior get probability exactly 0. With a uniform prior
    this coincides with ``boltzmann_distribution``. At beta = 0 it returns
    the prior itself.
    """
    _require_finite_beta(beta)
    if len(prior) != spectrum.count:
        raise LengthMismatch(
            f"{len(prior)} priors for {spectrum.count} levels"
        )
    energies = np.asarray(spectrum.levels, dtype=float)
    p0 = np.asarray(prior.entries, dtype=float)
    with np.errstate(over="ignore"):  # beta*E may saturate to inf, by design
        log_w = np.where(
            p0 > 0.0,
            np.log(np.where(p0 > 0.0, p0, 1.0)) - beta * energies,
            -np.inf,
        )
    return _solve_from_log_weights(beta, energies, log_w)


#: Relative (to the supported energy range) tolerance on the solved energy.
ENERGY_TOL_FACTOR = 1e-10

_MAX_BRACKET_DOUBLINGS = 200
_MAX_BISECTIONS = 400


def solve_beta(
    spectrum: EnergySpectrum,
    prior: ProbabilityVector,
    target_mean_energy: float,
) -> EquilibriumSolution:
    """Find the unique beta whose equilibrium mean energy hits the target.

    The map beta -> mean energy is strictly decreasing whenever the prior
    supports at least two distinct energies, so a geometrically expanded
    bracket plus bisection always converges. The target must lie strictly
    between the smallest and largest supported energies; beta may come out
    negative (targets above the beta=0 mean).
    """
    if not math.isfinite(target_mean_energy):
        raise ValidationError(f"target {target_mean_energy!r} must be finite")
    if len(prior) != spectrum.count:
        raise LengthMismatch(f"{len(prior)} priors for {spectrum.count} levels")
    supported = [
        e for e, q in zip(spectrum.levels, prior.entries) if q > 0.0
    ]
    if not supported:
        raise DegeneratePrior("prior has empty support")
    e_min, e_max = min(supported), max(supported)

    if e_min == e_max:
        scale = max(1.0, abs(e_min))
        if abs(target_mean_energy - e_min) <= 1e-12 * scale:
            return generalized_distribution(spectrum, prior, 0.0)
        raise NoVariation(
            f"all supported levels have energy {e_min}; "
            f"target {target_mean_energy} is unreachable"
        )
    if not (e_min < target_mean_energy < e_max):
        raise TargetOutOfRange(
            f"target {target_mean_energy} outside the open interval "
            f"({e_min}, {e_max}) of attainable mean energies"
        )

    def energy_at(beta: float) -> float:
        return generalized_distribution(spectrum, prior, beta).mean_energy

    lo, hi = -1.0, 1.0  # energy_at is decreasing: need E(lo) >= target >= E(hi)
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if energy_at(lo) >= target_mean_energy:
            break
        lo *= 2.0
    else:
        raise NumericError("bracket expansion failed on the low side")
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if energy_at(hi) <= target_mean_energy:
            break
        hi *= 2.0
    else:
        raise NumericError("bracket expansion failed on the high side")

    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if energy_at(mid) > target_mean_energy:
            lo = mid
        else:
            hi = mid

    solution = generalized_distribution(spectrum, prior, 0.5 * (lo + hi))
    tol = ENERGY_TOL_FACTOR * (e_max - e_min)
    if abs(solution.mean_energy - target_mean_energy) > tol:
        raise NumericError(
            f"bisection stalled: |{solution.mean_energy} - "
            f"{target_mean_energy}| > {tol}"
        )
    return solution


def equilibrium_entropy_uniform(
    spectrum: EnergySpectrum, beta: float, N: int = 1, k: float = 1.0
) -> float:
    """k N (ln n + beta <E> + ln Z) with <E>, Z from the plain distribution.

    This is the closed equal-priors equilibrium form, reproduced verbatim;
    note it carries an additive k N ln n relative to the Gibbs entropy
    -k N sum(p ln p) of the same distribution (exposed separately via
    ``EquilibriumSolution.entropy_per_particle``).
    """
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    sol = boltzmann_distribution(spectrum, beta)
    return k * N * (
        math.log(spectrum.count) + beta * sol.mean_energy + sol.log_partition
    )


def equilibrium_entropy_prior(
    spectrum: EnergySpectrum,
    prior: ProbabilityVector,
    beta: float,
    N: int = 1,
    k: float = 1.0,
) -> float:
    """-N k sum(p0 ln p0) + N k (beta <E> + ln Z_w), the unequal-priors form.

    <E> and Z_w come from ``generalized_distribution``; the prior must be
    strictly positive since the formula contains ln(p0_i). With the
    prior-weighted Z_w this differs at uniform priors from
    ``equilibrium_entropy_uniform`` by exactly k N ln n (the weighted
    partition sum is Z/n there); the inequality between the two forms is
    what ``entropy_inequality_check`` reports.
    """
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    for q in prior.entries:
        if q <= 0.0:
            raise ZeroPriorEntry("formula requires strictly positive priors")
    sol = generalized_distribution(spectrum, prior, beta)
    prior_entropy = -math.fsum(q * math.log(q) for q in prior.entries)
    return k * N * (
        prior_entropy + beta * sol.mean_energy + sol.log_partition
    )


def entropy_inequality_check(
    spectrum: EnergySpectrum,
    prior: ProbabilityVector,
    beta: float,
    N: int = 1,
    k: float = 1.0,
) -> tuple[float, float, bool]:
    """Evaluate both equilibrium-entropy forms at one beta and compare.

    Returns (uniform-priors value, given-priors value, holds) where holds
    means the uniform form is at least the prior form within 1e-12. The
    margin is k N [(ln n - H(prior)) + H(p_beta) + D(p_gen || prior)], a
    sum of nonnegative terms, so the inequality holds for every prior and
    beta and is strict whenever the prior is non-uniform.
    """
    s_uniform = equilibrium_entropy_uniform(spectrum, beta, N, k)
    s_prior = equilibrium_entropy_prior(spectrum, prior, beta, N, k)
    return s_uniform, s_prior, s_uniform >= s_prior - 1e-12
