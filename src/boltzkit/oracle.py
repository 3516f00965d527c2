"""Brute-force verification of asymptotic claims at exactly-computable scale.

Each check enumerates or evaluates something exactly (big integers, exact
rationals) and compares it against the closed-form or asymptotic route the
library exposes, emitting machine-readable ``OracleReport`` rows. Checks
are deterministic: enumeration order, tie-breaking and rounding rules are
all fixed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import compress
from operator import add, mul
from typing import Sequence

from .combinatorics import (
    _exact_weight,
    _integer_priors,
    _log_priors,
    _rational,
    _sums,
    _terms,
    _top,
)
from .core import (
    Macrostate,
    ProbabilityVector,
    SystemSpec,
    _same_length,
    _size,
    uniform_prior,
)
from .entropy import occupation_cross_entropy
from .equilibrium import generalized_distribution
from .errors import ValidationError


@dataclass(frozen=True)
class OracleReport:
    """One verified claim: exact quantity vs approximate route.

    Every row has ``rel_error = abs_error / |reference|``, or ``abs_error``
    where the reference is 0. For value checks the reference is the exact
    value (or the tolerance, for the most-probable state) and ``passed``
    means the error is within ``tolerance``. For convergence checks, one
    report is emitted per schedule point: the reference and ``tolerance``
    are the previous point's metric, ``abs_error`` is the signed change
    (negative = margin) and ``passed`` means strict improvement. The first
    point passes, with ``abs_error``, ``rel_error`` and ``tolerance`` 0.
    """

    check_name: str
    instance: str
    exact_value: str
    approx_value: float
    abs_error: float
    rel_error: float
    passed: bool
    tolerance: float


def reports_to_json(reports: Sequence[OracleReport]) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2)


def format_fraction(value: Fraction) -> str:
    """Decimal rendering of an exact rational to 36 significant digits,
    exact when it terminates within them, and in full for any integer."""
    if value.denominator == 1:
        return str(Decimal(value.numerator))  # str() of an int stops at 4,300 digits
    with localcontext() as ctx:
        ctx.prec = 36
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def round_to_macrostate(total: int, p: Sequence[float]) -> Macrostate:
    """Largest-remainder apportionment of total*p into integer occupations.

    Exact: each entry is taken as a rational q_i, and the targets
    total * q_i / sum(q) sum to total exactly (a float total * q_i loses its
    units past 2**53), so the occupations do too. Deterministic: leftover
    units go to the largest fractional parts, ties to the lowest index.
    """
    total = _size(total, "composition total", 0)
    p = [Fraction(q) for q in ProbabilityVector(p).entries]
    norm = sum(p)
    targets = [total * q / norm for q in p]
    base = [math.floor(t) for t in targets]
    leftover = total - sum(base)
    order = sorted(
        range(len(p)), key=lambda j: (-(targets[j] - base[j]), j)
    )
    for j in order[:leftover]:
        base[j] += 1
    return Macrostate(base)


def check_normalization_and_means(
    spec: SystemSpec,
    exact_prior: Sequence[Fraction] | None = None,
) -> list[OracleReport]:
    """Exact check that macrostate probabilities sum to 1 and that
    occupation means equal N * prior, by full enumeration.

    With the priors over their common denominator D, q_i = a_i / D, each
    composition's integer term t = W * prod(a_i ** N_i) is
    factor * h[y] * row[x] of its block from ``combinatorics._terms``. Every
    t adds to a sum that must come to D**N, and N_j t to one that must come
    to N q_j D**N. Per block, with s_y and sx_y run y's folds of row[x] and
    x row[x], sum(t) = factor sum(h[y] s_y), sum(y t) = factor sum(y h[y] s_y)
    and sum(x t) = factor sum(h[y] sx_y), each a C-level sum over y: outer
    level j gets outer[j] sum(t), the last head level sum(y t), the next
    sum(x t) and the last left sum(t) - sum(y t) - sum(x t). Only these
    totals become fractions.

    Floats are exact rationals, so the default path converts the stored
    prior exactly; pass ``exact_prior`` when the intended rational (say
    1/3) is not float-representable; each of its entries must be a rational
    >= 0 that Fraction accepts.
    """
    given = spec.prior.entries if exact_prior is None else exact_prior
    prior = [_rational(q, "exact prior") for q in given]
    _same_length(len(prior), spec.spectrum.count, "exact priors")
    n_levels = spec.spectrum.count
    total_n = spec.particles
    a, denominator = _integer_priors(prior)
    total_t = 0
    moments = [0] * max(n_levels, 3)  # a small set's phantom levels lead
    for outer, left, _, factor, h, _, folded in _terms(total_n, n_levels, a, _sums):
        s, sx = zip(*folded)
        hs = list(map(mul, h, s))
        t = factor * sum(hs)
        yt = factor * sum(map(mul, range(left + 1), hs))
        xt = factor * sum(map(mul, h, sx))
        total_t += t
        for j, count in enumerate(outer):
            moments[j] += count * t
        moments[-3] += yt
        moments[-2] += xt
        moments[-1] += left * t - yt - xt
    moments = moments[-n_levels:]
    scale = denominator**total_n

    instance = f"N={total_n} n={n_levels} prior={[str(q) for q in prior]}"
    return [
        _exact_report("normalization_sums_to_one", instance, expected=Fraction(1),
                      actual=Fraction(total_t, scale))
    ] + [
        _exact_report(f"mean_occupation_level_{j + 1}", instance,
                      expected=total_n * q, actual=Fraction(moment, scale))
        for j, (q, moment) in enumerate(zip(prior, moments))
    ]


def _report(
    name: str, instance: str, exact_value: str, approx_value, error,
    reference, tolerance, passed: bool,
) -> OracleReport:
    """The one row builder: rel_error is error / |reference|, or error
    where the reference is 0 (exact for Fractions, then rounded)."""
    rel = error / abs(reference) if reference != 0 else error
    return OracleReport(name, instance, exact_value, float(approx_value),
                        float(error), float(rel), passed, float(tolerance))


def _exact_report(
    name: str, instance: str, expected: Fraction, actual: Fraction
) -> OracleReport:
    err = abs(actual - expected)
    return _report(name, instance, format_fraction(actual), expected, err,
                   expected, 0.0, err == 0)


def _schedule(
    name: str, points: Sequence[tuple[str, str, float]], increasing: bool
) -> list[OracleReport]:
    """Convergence rows over (instance, exact_value, metric) points: each
    must strictly improve on the previous one (grow when ``increasing``,
    shrink otherwise). The first point has nothing to improve on and passes."""
    reports = [_report(name, *points[0], 0.0, 0.0, 0.0, True)] if points else []
    for (_, _, previous), (instance, exact_value, metric) in zip(points, points[1:]):
        change = previous - metric if increasing else metric - previous
        reports.append(_report(name, instance, exact_value, metric, change,
                               previous, previous, change < 0))
    return reports


def check_most_probable_state(spec: SystemSpec, beta: float) -> OracleReport:
    """Exhaustive argmax of the macrostate probability vs the continuous
    equilibrium distribution.

    The per-particle prior is the generalized equilibrium distribution p at
    beta. Compositions are scored by their float ln P, a block at a time: a
    block whose best score (factor + the max over y of h[y] + run y's row
    max) misses the floor is passed over whole, and only runs whose best
    score reaches it have their members scored. Those within a slack far
    above the rounding of the best score are compared exactly, in integers,
    by W prod(a_i ** N_i) with p_i = a_i / D (D ** N is common to all); the
    first exact maximum in lexicographic order wins, whatever the order of
    the float sums. It must
    sit within max-norm n/N of the continuous distribution. ``exact_value``
    records the argmax vector.
    """
    p = generalized_distribution(spec.spectrum, spec.prior, beta).distribution
    total_n = spec.particles
    n_levels = spec.spectrum.count

    # ln P sums terms of size up to ln N! + |ln P|, so its rounding is far below
    # this slack: the exact maximum is kept, a -inf (P = 0) never. One exact scan
    # of the same blocks (the a_i over D, ~2**56) takes about 2x (2.1-2.3x)
    # this screen on oracle-enum's instances.
    scale = 1.0 + 2.0 * math.lgamma(total_n + 1)
    top = floor = -math.inf
    runs: list[tuple] = []  # (score, head, r, xs, factor, h[y], row, y) reaching the floor
    log_p = _log_priors(p.entries)
    for outer, left, xss, factor, h, row, peaks in _terms(
            total_n, n_levels, log_p, _top, True):
        # each exactly its run's best member's, less the factor: rounding is monotone
        scores = list(map(add, h, peaks))
        block_best = factor + max(scores)
        if block_best < floor or block_best == -math.inf:
            continue
        for y, score in enumerate(scores):
            lp = factor + score
            if lp >= floor and lp > -math.inf:
                if lp > top:
                    top, floor = lp, lp - 1e-9 * (scale + abs(lp))
                    runs = [run for run in runs if run[0] >= floor]
                runs.append((lp, (*outer, y), left - y, xss[y], factor, h[y], row, y))
    near = []  # each surviving run's row is built (up to three levels) once, here
    for _, head, r, xs, factor, hy, row, y in runs:
        ry = row(y)
        near += [(*head, x, r - x)[-n_levels:]  # drop the phantoms
                 for x in xs if factor + (hy + ry[x]) >= floor]
    a, _ = _integer_priors(p.entries)
    best = max(near, key=lambda occ: _exact_weight(occ) * math.prod(map(pow, a, occ)))
    distance = max(abs(x / total_n - q) for x, q in zip(best, p.entries))
    tol = n_levels / total_n
    return _report(
        "most_probable_state_near_distribution",
        f"N={total_n} n={n_levels} beta={beta:g}", str(list(best)),
        distance, distance, tol, tol, distance <= tol,
    )


def check_einstein_convergence(
    p: ProbabilityVector,
    prior: ProbabilityVector,
    n_schedule: Sequence[int],
) -> list[OracleReport]:
    """Per-particle gap between the exact multinomial log-probability and
    the entropy-difference (fluctuation) formula, along growing N.

    For each N the macrostate is the rounded N*p; the gap
    d(N) = |ln P_exact - (S - S_ref)/k| / N must strictly decrease along
    the schedule (the gap is the Stirling error of ln W, so it shrinks
    like ln N / N).
    """
    _same_length(len(p), len(prior), "entries")
    for a, b in zip(p.entries, prior.entries):
        if a > 0.0 and b <= 0.0:
            raise ValidationError("p has mass where the prior has none")

    points = []
    for total_n in n_schedule:  # each metric is per particle
        total_n = _size(total_n, "particle count")
        m = round_to_macrostate(total_n, p.entries)
        log_p_exact = math.log(_exact_weight(m.occupations)) + math.fsum(
            x * math.log(q) for x, q in zip(m.occupations, prior.entries) if x
        )
        mean = [total_n * q for q in prior.entries]
        # (S - S_ref)/k = -occupation_cross_entropy in units of k, exactly.
        gap = abs(log_p_exact + occupation_cross_entropy(m, mean))
        points.append((
            f"N={total_n} p={list(p.entries)} prior={list(prior.entries)}",
            f"{log_p_exact:.17g}", gap / total_n,
        ))
    return _schedule("einstein_probability_convergence", points, increasing=False)


def check_weight_dominance(n: int, n_schedule: Sequence[int]) -> list[OracleReport]:
    """r(N) = ln W_max / ln W_total must increase toward 1 along N.

    W_total is n**N exactly (multinomial theorem). At every N, W_max is the
    largest exact weight, from the big-integer scan of ``_terms`` over every
    composition, and ``exact_value`` holds all its digits; a set above
    ``DEFAULT_SIZE_CAP`` compositions raises ``ValidationError``.
    """
    n = _size(n, "level count")
    schedule = [_size(total_n, "particle count") for total_n in n_schedule]
    name = "weight_dominance_ratio"
    if n == 1:
        return [_report(name, f"N={total_n} n=1", "1", 1.0, 0.0, 1.0, 0.0, True)
                for total_n in schedule]
    points = []
    for total_n in schedule:  # the ratio is per particle
        # factor and h[y] are positive integers, so they scale run y's max; a
        # run without members (-inf) has none, and its h[y] may pass float range
        w_max = max(factor * max(map(mul, compress(h, xss), compress(tops, xss)))
                    for _, _, xss, factor, h, _, tops
                    in _terms(total_n, n, [1] * n, _top) if any(xss))
        points.append((f"N={total_n} n={n}", format_fraction(Fraction(w_max)),
                       math.log(w_max) / (total_n * math.log(n))))
    return _schedule(name, points, increasing=True)


# -- default suite ----------------------------------------------------------

def default_suite(scale: str = "quick") -> list[OracleReport]:
    """Canonical oracle run. ``quick`` keeps N <= 12; ``full`` raises the
    enumeration ceiling to N = 20 and adds the convergence schedules.
    """
    if scale not in ("quick", "full"):
        raise ValidationError(f"scale must be 'quick' or 'full', got {scale!r}")
    reports: list[OracleReport] = []

    norm_instances = [
        ([0.0, 1.0], [Fraction(1, 2), Fraction(1, 2)], 8),
        ([0.0, 1.0, 2.0], [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)], 6),
        (
            [0.0, 1.0, 2.0, 3.0],
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
            12,
        ),
    ]
    if scale == "full":
        norm_instances.append(
            ([0.0, 0.5, 2.0], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], 20)
        )
    for levels, fractions, particles in norm_instances:
        spec = SystemSpec(levels, fractions, particles)
        reports.extend(check_normalization_and_means(spec, fractions))

    mode_instances = [
        ([0.0, 1.0], [0.5, 0.5], 10),
        ([0.0, 1.0], [0.25, 0.75], 12),
        ([0.0, 1.0, 2.0], [0.5, 0.3, 0.2], 12),
    ]
    for levels, priors, particles in mode_instances:
        spec = SystemSpec(levels, priors, particles)
        for beta in (0.0, 1.0):
            reports.append(check_most_probable_state(spec, beta))

    dominance_schedule = (10, 50, 200) if scale == "quick" else (10, 100, 1000, 10000)
    reports.extend(check_weight_dominance(2, dominance_schedule))

    if scale == "full":
        reports.extend(check_einstein_convergence(
            ProbabilityVector([0.6, 0.4]), uniform_prior(2), (10, 100, 1000)
        ))
    return reports
