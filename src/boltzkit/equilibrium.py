"""Equilibrium distributions over energy levels.

The plain exponential-family distribution p_i = exp(-beta E_i)/Z and its
prior-weighted generalization p_i = prior_i exp(-beta E_i)/Z_w, plus the
inverse problem (solve for beta from a target mean energy) and the two
closed-form equilibrium-entropy expressions.

All of it runs on one kernel, ``_exponential_family``. Its exponents are
anchored at the lowest supported energy when beta >= 0 and the highest
when beta < 0, so none is positive, nothing saturates before the shift,
and p does not depend on the energies' offset. Normalization uses the
prior-weighted partition sum Z_w = sum(prior_j exp(-beta E_j)), the unique
choice under which the weights form a probability distribution.
"""

from __future__ import annotations

import math
import sys
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


def _family_arrays(
    spectrum: EnergySpectrum, prior: ProbabilityVector | None
) -> tuple[np.ndarray, np.ndarray]:
    """Energies and ln prior (-inf where a prior is 0); no prior means the
    plain distribution, whose log-prior is 0 on every level."""
    energies = spectrum._array
    if prior is None:
        return energies, np.zeros_like(energies)
    if len(prior) != spectrum.count:
        raise LengthMismatch(f"{len(prior)} priors for {spectrum.count} levels")
    with np.errstate(divide="ignore"):
        return energies, np.log(prior._array)


def _exponential_family(
    energies: np.ndarray, log_prior: np.ndarray, beta: float
) -> tuple[np.ndarray, float, float]:
    """p_i = exp(log_prior_i - beta E_i) / Z_w, ln Z_w and <E>.

    ln Z_w = shift + ln(sum w) - beta anchor, where the anchor is the
    supported level that dominates for the sign of beta.
    """
    if not math.isfinite(beta):
        raise ValidationError(f"beta must be finite, got {beta!r}")
    support = np.isfinite(log_prior)
    supported = energies[support]
    anchor = float(supported.min() if beta >= 0.0 else supported.max())
    with np.errstate(over="ignore", invalid="ignore"):
        decay = beta * (energies - anchor) if beta else 0.0  # 0 * inf is 0
        log_w = np.where(support, log_prior - decay, -np.inf)
    shift = float(log_w.max())
    w = np.exp(log_w - shift)
    total = float(np.sum(w))
    log_partition = shift + math.log(total) - beta * anchor
    if not math.isfinite(log_partition):
        raise DegeneratePrior(
            f"ln Z_w = {log_partition} at beta={beta}: the prior-weighted "
            "partition sum is beyond float range"
        )
    p = w / total
    return p, log_partition, float(np.dot(p, energies))


def _summaries(energies: np.ndarray, log_prior: np.ndarray, beta: float):
    """The kernel's p, ln Z_w and <E>, and -sum(p ln p) with 0 ln 0 = 0."""
    p, log_z, mean = _exponential_family(energies, log_prior, beta)
    return p, log_z, mean, float(-np.sum(p * np.log(np.where(p > 0.0, p, 1.0))))


def _solution(spectrum, prior, beta: float) -> EquilibriumSolution:
    p, log_z, mean, entropy = _summaries(*_family_arrays(spectrum, prior), beta)
    return EquilibriumSolution(beta, log_z, ProbabilityVector._adopt(p), mean, entropy)


def boltzmann_distribution(
    spectrum: EnergySpectrum, beta: float
) -> EquilibriumSolution:
    """p_i = exp(-beta E_i) / Z with Z = sum(exp(-beta E_j))."""
    return _solution(spectrum, None, beta)


def generalized_distribution(
    spectrum: EnergySpectrum, prior: ProbabilityVector, beta: float
) -> EquilibriumSolution:
    """p_i = prior_i exp(-beta E_i) / Z_w, the prior-weighted equilibrium.

    Levels with zero prior get probability exactly 0. With a uniform prior
    this coincides with ``boltzmann_distribution``. At beta = 0 it returns
    the prior itself.
    """
    return _solution(spectrum, prior, beta)


#: Relative (to the supported energy range) tolerance on the solved energy.
ENERGY_TOL_FACTOR = 1e-10

_MAX_STEPS = 200
_RESOLUTION = 4.0 * sys.float_info.epsilon


def solve_beta(
    spectrum: EnergySpectrum,
    prior: ProbabilityVector,
    target_mean_energy: float,
) -> EquilibriumSolution:
    """Find the unique beta whose equilibrium mean energy hits the target.

    The map beta -> mean energy is strictly decreasing whenever the prior
    supports at least two distinct energies. The target must lie strictly
    between the smallest and largest supported energies; beta may come out
    negative (targets above the beta=0 mean), and is exactly 0.0 when the
    beta=0 mean hits the target.

    It works on the supported levels in units of their range, u = (E -
    E_min)/(E_max - E_min), with t = beta (E_max - E_min). The minimum of
    the convex dual ln Z_w(t) + t u_target (slope u_target - <u>, curvature
    Var(u)) is found by Newton's method on the log-odds of <u>; once both
    sides of the root are known, a step that leaves them bisects instead.
    It iterates to full precision, checks the residual <E> - E_min against
    target - E_min, and builds only the returned distribution.
    """
    if not math.isfinite(target_mean_energy):
        raise ValidationError(f"target {target_mean_energy!r} must be finite")
    energies, log_prior = _family_arrays(spectrum, prior)
    support = np.isfinite(log_prior)
    levels, log_prior = energies[support], log_prior[support]
    e_min, e_max = float(levels.min()), float(levels.max())

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
    span = e_max - e_min
    goal = (target_mean_energy - e_min) / span
    with np.errstate(divide="ignore", invalid="ignore"):
        goal_odds = float(np.log(goal) - np.log((e_max - target_mean_energy) / span))
    if not math.isfinite(goal_odds):
        raise NumericError(
            f"target {target_mean_energy} is not resolvable within the "
            f"range ({e_min}, {e_max})"
        )
    u, rest = (levels - e_min) / span, (e_max - levels) / span  # rest = 1 - u
    rise, fall = float(u[u > 0.0].min()), float(rest[rest > 0.0].min())  # gaps

    t, lo, hi, step = 0.0, -math.inf, math.inf, math.inf
    for _ in range(_MAX_STEPS):  # the root stays between lo and hi
        p, _, mean = _exponential_family(u, log_prior, t)
        # Newton on the log-odds of <u>, whose slope is -Var(u)/(<u> <1-u>):
        # exact for two levels and in both saturated tails; where Var(u)
        # underflows, minus the anchor level's gap to its nearest neighbour
        mean_rest = float(np.dot(p, rest))
        variance = float(np.dot(p, (u - mean) ** 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            odds = np.log(mean) - np.log(mean_rest) - goal_odds
            newton = (odds * mean * mean_rest / variance if variance
                      else odds / (rise if t >= 0.0 else fall))
        if odds > 0.0:
            lo = t
        elif odds < 0.0:
            hi = t
        scale = max(1.0, abs(t))
        stalled = abs(newton) > 0.5 * abs(step)  # corrections stopped halving
        if abs(newton) <= _RESOLUTION * scale or hi - lo <= _RESOLUTION * scale:
            break
        if stalled and abs(step) <= 1e-8 * scale:
            break  # Newton has reached the rounding noise of <u>
        bracketed = math.isfinite(hi - lo)
        if lo < t + newton < hi and not (bracketed and stalled):
            step = float(newton)
        elif not bracketed:  # one side still open and Newton went nowhere finite
            step = math.copysign(1.0 + abs(t), odds)
        elif hi - lo > 2.0 + min(abs(lo), abs(hi)):  # bisect across decades
            step = math.sinh(0.5 * (math.asinh(lo) + math.asinh(hi))) - t
        else:
            step = 0.5 * (lo + hi) - t
        t += step
    else:
        raise NumericError(f"solver did not converge in {_MAX_STEPS} steps")

    if abs(mean - goal) > ENERGY_TOL_FACTOR:
        raise NumericError(
            f"solver stalled: mean {e_min + mean * span!r} "
            f"misses target {target_mean_energy!r}"
        )
    return generalized_distribution(spectrum, prior, t / span)


def _prior_entropy(prior: ProbabilityVector, log_prior: np.ndarray) -> float:
    """H(prior) = -sum(p0 ln p0), the unequal-priors form's beta-free term."""
    if not (prior._array > 0.0).all():
        raise ZeroPriorEntry("formula requires strictly positive priors")
    return -math.fsum((prior._array * log_prior).tolist())


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
    _, log_z, mean = _exponential_family(*_family_arrays(spectrum, None), beta)
    return k * N * (math.log(spectrum.count) + beta * mean + log_z)


def equilibrium_entropy_prior(
    spectrum: EnergySpectrum,
    prior: ProbabilityVector,
    beta: float,
    N: int = 1,
    k: float = 1.0,
) -> float:
    """-N k sum(p0 ln p0) + N k (beta <E> + ln Z_w), the unequal-priors form.

    <E> and Z_w are those of ``generalized_distribution``; the prior must be
    strictly positive since the formula contains ln(p0_i). With the
    prior-weighted Z_w this differs at uniform priors from
    ``equilibrium_entropy_uniform`` by exactly k N ln n (the weighted
    partition sum is Z/n there); the inequality between the two forms is
    what ``entropy_inequality_check`` reports.
    """
    if N < 1:
        raise ValidationError(f"need N >= 1, got {N}")
    energies, log_prior = _family_arrays(spectrum, prior)
    prior_entropy = _prior_entropy(prior, log_prior)
    _, log_z, mean = _exponential_family(energies, log_prior, beta)
    return k * N * (prior_entropy + beta * mean + log_z)


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
