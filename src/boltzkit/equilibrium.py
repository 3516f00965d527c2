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

Each public route, and the CLI's grid ``_sweep``, opens one numpy error state,
``_quiet``, around its array work: the kernel and the solver handle overflow,
ln 0 and inf - inf where they arise, and open none per call, point or step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (EnergySpectrum, ProbabilityVector, _fsum, _positive, _real,
                   _same_length, _size)
from .errors import InfeasibleError, NumericError, ValidationError


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


def _quiet() -> np.errstate:
    """The error state of a route into the kernel: no warning on overflow,
    on ln 0 or on inf - inf, which the kernel and the solver handle."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _beta(beta) -> float:
    """beta as a float where it enters a route: a finite real, not a bool or a
    string (k's rule, ``core._real``); the solver's own steps are not checked."""
    if not math.isfinite(value := _real(beta)):
        raise ValidationError(f"beta must be finite, got {beta!r}")
    return value


def _family_arrays(
    spectrum: EnergySpectrum, prior: ProbabilityVector | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Energies, ln prior (-inf where a prior is 0) and the support mask, None
    when every prior is > 0; no prior means the plain distribution, whose
    log-prior is 0 on every level. Under its route's ``_quiet``."""
    energies = spectrum._array
    if prior is None:
        return energies, np.zeros_like(energies), None
    _same_length(len(prior), spectrum.count, "priors")
    log_prior = np.log(prior._array)
    support = np.isfinite(log_prior)
    return energies, log_prior, None if support.all() else support


def _exponential_family(
    energies: np.ndarray, log_prior: np.ndarray, beta: float,
    support: np.ndarray | None,
) -> tuple[np.ndarray, float, float]:
    """p_i = exp(log_prior_i - beta E_i) / Z_w, ln Z_w and <E>, with
    ``_family_arrays``' support mask, at a finite float beta (``_beta``),
    under its route's ``_quiet``.

    ln Z_w = shift + ln(sum w) - beta anchor, where the anchor is the
    supported level that dominates for the sign of beta.
    """
    extreme, far = (np.minimum, np.inf) if beta >= 0.0 else (np.maximum, -np.inf)
    anchor = float(extreme.reduce(energies) if support is None
                   else extreme.reduce(energies, initial=far, where=support))
    decay = beta * (energies - anchor) if beta else 0.0  # 0 * inf is 0
    log_w = log_prior - decay
    if support is not None:  # -inf - -inf is nan where a decay overflows
        log_w[~support] = -np.inf
    shift = float(np.maximum.reduce(log_w))
    p = np.exp(log_w - shift)  # w, normalized in place below
    total = float(np.add.reduce(p))
    log_partition = shift + math.log(total) - beta * anchor
    if not math.isfinite(log_partition):
        raise NumericError(
            f"ln Z_w = {log_partition} at beta={beta}: the prior-weighted "
            "partition sum is beyond float range"
        )
    p /= total
    return p, log_partition, float(np.dot(p, energies))


def _solution(arrays, beta: float) -> EquilibriumSolution:
    """The kernel on ``_family_arrays``' triple at beta, with the Gibbs entropy
    -sum(p ln p), 0 ln 0 = 0, under its route's ``_quiet``."""
    energies, log_prior, support = arrays
    beta = _beta(beta)
    p, log_z, mean = _exponential_family(energies, log_prior, beta, support)
    entropy = float(-np.add.reduce(p * np.log(np.where(p > 0.0, p, 1.0))))
    return EquilibriumSolution(beta, log_z, ProbabilityVector._adopt(p), mean,
                               entropy + 0.0)  # +0.0, not -0.0, on a point mass


def boltzmann_distribution(
    spectrum: EnergySpectrum, beta: float
) -> EquilibriumSolution:
    """p_i = exp(-beta E_i) / Z with Z = sum(exp(-beta E_j))."""
    with _quiet():
        return _solution(_family_arrays(spectrum, None), beta)


def generalized_distribution(
    spectrum: EnergySpectrum, prior: ProbabilityVector, beta: float
) -> EquilibriumSolution:
    """p_i = prior_i exp(-beta E_i) / Z_w, the prior-weighted equilibrium.

    Levels with zero prior get probability exactly 0. With a uniform prior
    this coincides with ``boltzmann_distribution``. At beta = 0 it returns
    the prior, up to rounding.
    """
    with _quiet():
        return _solution(_family_arrays(spectrum, prior), beta)


def _sweep(spectrum: EnergySpectrum, prior: ProbabilityVector, betas) -> list:
    """[(solution, h + beta <E> + ln Z_w, D(p || prior))] over betas: the
    ``generalized_distribution`` route on arrays found once. h, the closed
    entropy form's beta-free term, is 2 ln n at a uniform prior (ln Z = ln Z_w
    + ln n there), H(prior) otherwise; the form is None where a prior is 0."""
    from .entropy import kl_divergence
    with _quiet():  # a list, not a generator, so that it closes here
        arrays = _, log_prior, support = _family_arrays(spectrum, prior)
        n = spectrum.count
        if np.maximum.reduce(np.abs(prior._array - 1.0 / n)) <= 1e-12:
            head = 2.0 * math.log(n)
        else:
            head = _prior_entropy(prior, log_prior, None) if support is None else None
        rows = []
        for beta in betas:
            sol = _solution(arrays, beta)
            closed = (None if head is None else
                      head + beta * sol.mean_energy + sol.log_partition)
            rows.append((sol, closed, kl_divergence(sol.distribution, prior)))
    return rows


#: Tolerance on the solved mean energy, relative to the target's distance
#: from the nearer end of the supported range.
ENERGY_TOL_FACTOR = 1e-10

_MAX_STEPS = 200
_RESOLUTION = 4.0 * sys.float_info.epsilon
_T_MAX = sys.float_info.max


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
    E_min)/(E_max - E_min), with t = beta (E_max - E_min). If the prior's
    mean (at t = 0) is below the target, it solves the mirror image u -> 1 -
    u and negates t, so t >= 0 and a mirrored problem gives -beta bit for
    bit. Newton's method on the log-odds of <u> finds the minimum of the
    convex dual ln Z_w(t) + t u_target, to full precision. A step that
    leaves the known bracket bisects it; one past float range first tries
    the largest float, and a beta beyond float range is a NumericError, as
    is a mean that misses the target by more than ``ENERGY_TOL_FACTOR`` of
    its distance from the nearer end of the range.
    """
    with _quiet():
        given, target_mean_energy = target_mean_energy, _real(target_mean_energy)
        if not math.isfinite(target_mean_energy):
            raise ValidationError(f"target {given!r} must be finite")
        levels, log_prior, support = _family_arrays(spectrum, prior)
        if support is not None:  # from here on, the supported levels only
            levels, log_prior = levels[support], log_prior[support]
        e_min = float(np.minimum.reduce(levels))
        e_max = float(np.maximum.reduce(levels))

        if e_min == e_max:
            scale = max(1.0, abs(e_min))
            if abs(target_mean_energy - e_min) <= 1e-12 * scale:
                return generalized_distribution(spectrum, prior, 0.0)
            raise InfeasibleError(
                f"all supported levels have energy {e_min}; "
                f"target {target_mean_energy} is unreachable"
            )
        if not (e_min < target_mean_energy < e_max):
            raise InfeasibleError(
                f"target {target_mean_energy} outside the open interval "
                f"({e_min}, {e_max}) of attainable mean energies"
            )
        span = e_max - e_min
        goal = (target_mean_energy - e_min) / span
        goal_rest = (e_max - target_mean_energy) / span  # the mirror image's goal
        goal_odds = float(np.log(goal) - np.log(goal_rest))
        if not math.isfinite(goal_odds):
            raise NumericError(
                f"target {target_mean_energy} is not resolvable within the "
                f"range ({e_min}, {e_max})"
            )
        u, rest = (levels - e_min) / span, (e_max - levels) / span  # rest = 1 - u

        sign, t, lo, hi, step = 1.0, 0.0, 0.0, math.inf, math.inf
        for _ in range(_MAX_STEPS):  # the root stays in [lo, hi)
            p, _, mean = _exponential_family(u, log_prior, t, None)
            mean_rest = float(np.dot(p, rest))
            odds = float(np.log(mean) - np.log(mean_rest) - goal_odds)
            if t == 0.0 and odds < 0.0:  # the root is at t < 0: from here on solve
                # the mirror image, whose u is rest; p at t = 0 is the same in both
                sign, u, rest, mean, mean_rest = -1.0, rest, u, mean_rest, mean
                goal, goal_rest, goal_odds, odds = goal_rest, goal, -goal_odds, -odds
            variance = float(np.dot(p, (u - mean) ** 2))
            if variance > 2.0 * mean * mean_rest:  # past <u><1-u>: <u> rounded near 1
                variance = float(np.dot(p, (rest - mean_rest) ** 2))  # = Var(u)
            # Newton on the log-odds of <u>, whose slope is -Var(u)/(<u> <1-u>):
            # exact for two levels and in the saturated tail; where Var(u)
            # underflows, minus the gap between the two lowest levels
            newton = (odds * mean * mean_rest / variance if variance
                      else odds / float(u[u > 0.0].min()))
            if odds > 0.0:
                lo = t
            elif odds < 0.0:
                hi = t
            scale = max(1.0, t)
            stalled = abs(newton) > 0.5 * abs(step)  # corrections stopped halving
            if abs(newton) <= _RESOLUTION * scale or hi - lo <= _RESOLUTION * scale:
                break
            if stalled and abs(step) <= 1e-8 * scale:
                break  # Newton has reached the rounding noise of <u>
            if lo < t + newton < hi and not (stalled and hi < math.inf):
                step = newton
            elif hi == math.inf and t < _T_MAX:  # Newton leaves float range: try
                step = _T_MAX - t  # its largest value
            elif hi == math.inf:  # the root lies beyond float range
                t = math.inf
                break
            elif hi - lo > 2.0 + lo:  # bisect across decades
                step = math.sinh(0.5 * (math.asinh(lo) + math.asinh(hi))) - t
            else:
                step = 0.5 * (lo + hi) - t
            t += step
        else:
            raise NumericError(f"solver did not converge in {_MAX_STEPS} steps")

        beta = sign * t / span
        if not math.isfinite(beta):
            raise NumericError(
                f"target {target_mean_energy!r} needs a beta beyond float range"
            )
        # relative to the target's distance from the nearer end, on that end's
        # side: mean and mean_rest are both computed directly, with no 1 - x
        error = mean - goal if goal <= goal_rest else goal_rest - mean_rest
        if abs(error) > ENERGY_TOL_FACTOR * min(goal, goal_rest):
            missed = target_mean_energy + sign * error * span
            raise NumericError(
                f"solver stalled: mean {missed!r} misses target {target_mean_energy!r}"
            )
        return generalized_distribution(spectrum, prior, beta)


def _prior_entropy(prior: ProbabilityVector, log_prior: np.ndarray,
                   support: np.ndarray | None) -> float:
    """H(prior) = -sum(p0 ln p0), the unequal-priors form's beta-free term."""
    if support is not None:
        raise ValidationError("formula requires strictly positive priors")
    return -_fsum(prior._array * log_prior)


def equilibrium_entropy_uniform(
    spectrum: EnergySpectrum, beta: float, N: int = 1, k: float = 1.0
) -> float:
    """k N (ln n + beta <E> + ln Z) with <E>, Z from the plain distribution.

    This is the closed equal-priors equilibrium form, reproduced verbatim;
    note it carries an additive k N ln n relative to the Gibbs entropy
    -k N sum(p ln p) of the same distribution (exposed separately via
    ``EquilibriumSolution.entropy_per_particle``).
    """
    k_n = _positive(k) * _size(N, "particle count")
    with _quiet():
        energies, log_prior, support = _family_arrays(spectrum, None)
        beta = _beta(beta)
        _, log_z, mean = _exponential_family(energies, log_prior, beta, support)
    return k_n * (math.log(spectrum.count) + beta * mean + log_z)


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
    k_n = _positive(k) * _size(N, "particle count")
    with _quiet():
        energies, log_prior, support = _family_arrays(spectrum, prior)
        prior_entropy = _prior_entropy(prior, log_prior, support)
        beta = _beta(beta)
        _, log_z, mean = _exponential_family(energies, log_prior, beta, support)
    return k_n * (prior_entropy + beta * mean + log_z)


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
