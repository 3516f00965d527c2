"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its measured figure.

Run with output visible:  pytest tests/test_acceptance.py -v -s
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from boltzkit import (
    EnergySpectrum,
    Macrostate,
    ProbabilityVector,
    SystemSpec,
    auto_truncation,
    check_einstein_convergence,
    check_most_probable_state,
    check_normalization_and_means,
    check_weight_dominance,
    boltzmann_distribution,
    generalized_distribution,
    kl_divergence,
    log_macrostate_probability,
    mean_energy_closed,
    mean_energy_series,
    negentropy_relation,
    round_to_macrostate,
    solve_beta,
    statistical_weight,
    uniform_prior,
    entropy_inequality_check,
    Dimensionality,
    OscillatorModel,
)


def report(number, label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {number:>2}: {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# 5 rational priors, dyadic so the float-backed spec holds them exactly
PRIOR_GRID = [
    [Fraction(1, 2), Fraction(1, 2)],
    [Fraction(1, 4), Fraction(3, 4)],
    [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
    [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
    [Fraction(3, 8), Fraction(3, 8), Fraction(1, 8), Fraction(1, 8)],
]


def test_criterion_01_multinomial_exactness():
    """Exact-rational normalization and means for all N <= 12, n <= 4."""
    start = time.perf_counter()
    checked = 0
    ok = True
    for prior in PRIOR_GRID:
        n = len(prior)
        spec_prior = ProbabilityVector([float(q) for q in prior])
        for total in range(1, 13):
            spec = SystemSpec(
                spectrum=EnergySpectrum(list(range(n))),
                prior=spec_prior,
                particles=total,
            )
            reports = check_normalization_and_means(spec)
            ok = ok and all(r.passed and r.abs_error == 0.0 for r in reports)
            checked += len(reports)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(1, "multinomial normalization and means exact", ok,
           f"{checked} exact checks in {elapsed:.2f}s")


def test_criterion_02_multinomial_kkt_identity():
    """ln(P/W) - sum(N_i ln prior_i) vanishes on 1000 random macrostates."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        total = int(rng.integers(1, 61))
        occ = rng.multinomial(total, rng.dirichlet(np.ones(n)))
        q = rng.dirichlet(np.ones(n)) + 0.02
        prior = ProbabilityVector(q / q.sum())
        m = Macrostate(occ)
        log_ratio = (log_macrostate_probability(m, prior)
                     - statistical_weight(m).log_value)
        prior_term = math.fsum(
            x * math.log(v) for x, v in zip(m.occupations, prior.entries) if x
        )
        worst = max(worst, abs(log_ratio - prior_term))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(2, "multinomial log-probability decomposition", ok,
           f"worst |residual|={worst:.3g} in {elapsed:.2f}s")


def test_criterion_03_gibbs_inequality():
    """D(p||p0) >= -1e-15 on 10^4 random simplex pairs; 0 at equality."""
    rng = np.random.default_rng(43)
    worst = math.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        worst = min(worst, kl_divergence(p / p.sum(), q / q.sum()))
    self_d = max(
        kl_divergence(v, v)
        for v in ([0.5, 0.5], [0.2, 0.3, 0.5], [1.0])
    )
    ok = worst >= -1e-15 and self_d <= 1e-12
    report(3, "divergence nonnegative, zero at equality", ok,
           f"min D={worst:.3g}, self D={self_d:.3g}")


def test_criterion_04_negentropy_identity():
    """lhs == rhs within 1e-9 on 10^3 random occupation/mean pairs."""
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        total = int(rng.integers(2, 1001))
        occ = rng.multinomial(total, rng.dirichlet(np.ones(n)))
        mean = rng.dirichlet(np.ones(n)) + 1e-3
        mean = total * mean / mean.sum()
        lhs, rhs = negentropy_relation(Macrostate(occ), mean)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    report(4, "information equals negentropy identically", ok,
           f"worst |lhs-rhs|={worst:.3g}")


def test_criterion_05_einstein_convergence():
    """Fluctuation-formula gap strictly decreasing, d(1000) < d(10)/5."""
    start = time.perf_counter()
    reports = check_einstein_convergence(
        ProbabilityVector([0.6, 0.4]), uniform_prior(2), (10, 100, 1000)
    )
    d = [r.approx_value for r in reports]
    elapsed = time.perf_counter() - start
    ok = (
        all(a > b for a, b in zip(d, d[1:]))
        and d[2] < d[0] / 5
        and elapsed < 5.0
    )
    report(5, "fluctuation probability converges to exact", ok,
           f"d={['%.4g' % x for x in d]} in {elapsed:.2f}s")


def test_criterion_06_weight_dominance():
    """ln W_max / ln W_total strictly increasing, > 0.99 by N = 10000."""
    reports = check_weight_dominance(2, (10, 100, 1000, 10000))
    r = [x.approx_value for x in reports]
    ok = all(a < b for a, b in zip(r, r[1:])) and r[-1] > 0.99
    report(6, "dominant weight carries the total entropy", ok,
           f"r={['%.5f' % x for x in r]}")


def test_criterion_07_uniform_prior_reduction():
    """Generalized and plain distributions agree at uniform priors, 1e-14."""
    rng = np.random.default_rng(45)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        spectrum = EnergySpectrum(rng.uniform(0.0, 2.0, size=n))
        beta = float(rng.uniform(-4, 4))
        plain = boltzmann_distribution(spectrum, beta).distribution
        general = generalized_distribution(
            spectrum, uniform_prior(n), beta
        ).distribution
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(plain.entries, general.entries)),
        )
    ok = worst <= 1e-14
    report(7, "uniform prior reduces to the plain distribution", ok,
           f"worst max-norm={worst:.3g}")


def test_criterion_08_beta_round_trip():
    """solve_beta recovers beta0 within 1e-8 across 20 random systems."""
    rng = np.random.default_rng(46)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        spectrum = EnergySpectrum(rng.uniform(0.0, 2.0, size=n))
        q = rng.dirichlet(np.ones(n)) + 0.05
        prior = ProbabilityVector(q / q.sum())
        for beta0 in (-5.0, -1.0, 0.0, 1.0, 5.0):
            target = generalized_distribution(spectrum, prior, beta0).mean_energy
            recovered = solve_beta(spectrum, prior, target).beta
            worst = max(worst, abs(recovered - beta0))
    ok = worst <= 1e-8
    report(8, "inverse-temperature round trip", ok, f"worst |dbeta|={worst:.3g}")


def test_criterion_09_entropy_inequality():
    """Equal-priors equilibrium entropy dominates the prior-weighted one."""
    rng = np.random.default_rng(47)
    ok = True
    strict_cases = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        spectrum = EnergySpectrum(rng.uniform(0.0, 2.0, size=n))
        q = rng.dirichlet(np.ones(n)) + 0.01
        prior = ProbabilityVector(q / q.sum())
        beta = float(rng.uniform(-4, 4))
        total = int(rng.integers(1, 21))
        s_u, s_p, holds = entropy_inequality_check(
            spectrum, prior, beta, N=total
        )
        ok = ok and holds and (s_u >= s_p - 1e-12)
        prior_entropy = -math.fsum(v * math.log(v) for v in prior.entries)
        if prior_entropy < math.log(n) - 1e-6:
            strict_cases += 1
            ok = ok and (s_u > s_p)
    report(9, "unequal priors never raise the equilibrium entropy", ok,
           f"{strict_cases} strict cases of 1000")


def test_criterion_10_oscillator_formulas():
    """Series with rigorous tails confirms both closed forms; zero-point
    energies recovered in the deep quantum limit."""
    start = time.perf_counter()
    ok = True
    for h_nu in (1.0, 0.5):
        for dim in (Dimensionality.LINEAR_1D, Dimensionality.PLANAR_2D):
            for beta_h in (0.1, 0.5, 1.0, 2.0, 5.0):
                beta = beta_h / h_nu
                model = auto_truncation(
                    OscillatorModel(h_nu, dim), beta, tol=1e-10
                )
                value, bound = mean_energy_series(model, beta)
                closed = mean_energy_closed(model, beta)
                ok = ok and bound <= 1e-10
                ok = ok and abs(value - closed) <= bound + 1e-12
        zero_1d = mean_energy_closed(
            OscillatorModel(h_nu, Dimensionality.LINEAR_1D), 50.0 / h_nu
        )
        zero_2d = mean_energy_closed(
            OscillatorModel(h_nu, Dimensionality.PLANAR_2D), 50.0 / h_nu
        )
        ok = ok and abs(zero_1d - h_nu / 2) <= 1e-12 * h_nu
        ok = ok and abs(zero_2d - h_nu) <= 1e-12 * h_nu
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(10, "oscillator closed forms verified by series", ok,
           f"in {elapsed:.2f}s")


def test_criterion_11_most_probable_state():
    """Exhaustive argmax tracks the rounded continuous distribution for
    every N <= 12, n <= 3 at beta in {0, 1}."""
    systems = [
        ([0.0], [1.0]),
        ([0.0, 1.0], [0.5, 0.5]),
        ([0.0, 1.0], [0.25, 0.75]),
        ([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3]),
        ([0.0, 1.0, 2.0], [0.5, 0.3, 0.2]),
    ]
    ok = True
    cases = 0
    for levels, priors in systems:
        n = len(levels)
        for total in range(1, 13):
            spec = SystemSpec(
                spectrum=EnergySpectrum(levels),
                prior=ProbabilityVector(priors),
                particles=total,
            )
            for beta in (0.0, 1.0):
                rep = check_most_probable_state(spec, beta)
                ok = ok and rep.passed
                p = generalized_distribution(
                    spec.spectrum, spec.prior, beta
                ).distribution
                argmax = [int(x) for x in rep.exact_value.strip("[]").split(",")]
                rounded = round_to_macrostate(total, p.entries).occupations
                gap = max(
                    abs(a - b) / total for a, b in zip(argmax, rounded)
                )
                ok = ok and gap <= n / total
                cases += 1
    report(11, "generalized distribution is the most probable macrostate",
           ok, f"{cases} exhaustive instances")


def test_criterion_12_cli_determinism(tmp_path):
    """Identical sweeps are byte-identical; the quick oracle suite exits 0."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"levels": [0.0, 1.0], "priors": [0.5, 0.5], "N": 10}')
    args = [
        sys.executable, "-m", "boltzkit", "sweep", "--spec", str(spec),
        "--from", "-3", "--to", "3", "--points", "25",
    ]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    verify = subprocess.run(
        [sys.executable, "-m", "boltzkit", "verify", "--scale", "quick"],
        capture_output=True,
    )
    ok = (
        first.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
        and verify.returncode == 0
    )
    report(12, "CLI output deterministic, quick verification green", ok,
           f"{len(first.stdout)} bytes, verify rc={verify.returncode}")
