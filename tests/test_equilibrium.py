"""Equilibrium distributions, the beta solver, and entropy formulas."""

import math

import numpy as np
import pytest

from boltzkit import (
    EnergySpectrum,
    ProbabilityVector,
    boltzmann_distribution,
    entropy_inequality_check,
    equilibrium_entropy_prior,
    equilibrium_entropy_uniform,
    generalized_distribution,
    solve_beta,
    uniform_prior,
)
from boltzkit.equilibrium import ENERGY_TOL_FACTOR
from boltzkit.errors import (
    NoVariation,
    TargetOutOfRange,
    ValidationError,
    ZeroPriorEntry,
)

TWO_LEVEL = EnergySpectrum([0.0, 1.0])


def random_system(rng, n_min=2, n_max=6, strict_prior=True):
    n = int(rng.integers(n_min, n_max + 1))
    spectrum = EnergySpectrum(rng.uniform(0.0, 2.0, size=n))
    raw = rng.dirichlet(np.ones(n))
    if strict_prior:
        raw = raw + 0.05
    prior = ProbabilityVector(raw / raw.sum())
    return spectrum, prior


class TestBoltzmannDistribution:
    def test_infinite_temperature(self):
        sol = boltzmann_distribution(TWO_LEVEL, 0.0)
        assert sol.distribution.entries == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_logistic_point(self):
        sol = boltzmann_distribution(TWO_LEVEL, 1.0)
        z = 1 + math.exp(-1)
        assert sol.distribution.entries[0] == pytest.approx(1 / z, abs=1e-14)
        assert sol.distribution.entries[1] == pytest.approx(
            math.exp(-1) / z, abs=1e-14
        )
        assert sol.log_partition == pytest.approx(math.log(z), abs=1e-14)
        assert sol.mean_energy == pytest.approx(0.2689414213699951, abs=1e-14)

    def test_ground_state_limit(self):
        sol = boltzmann_distribution(TWO_LEVEL, 50.0)
        assert sol.distribution.entries[0] == pytest.approx(1.0, abs=1e-20)
        assert sol.distribution.entries[1] <= 1e-20

    def test_overflow_safe_at_extreme_beta(self):
        sol = boltzmann_distribution(EnergySpectrum([0.0, 1e4]), 500.0)
        assert sol.distribution.entries[0] == 1.0
        assert math.isfinite(sol.log_partition)

    def test_mean_energy_consistent_with_distribution(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            spectrum, _ = random_system(rng)
            sol = boltzmann_distribution(spectrum, float(rng.uniform(-4, 4)))
            recomputed = math.fsum(
                p * e for p, e in zip(sol.distribution.entries, spectrum.levels)
            )
            assert abs(sol.mean_energy - recomputed) <= 1e-12

    def test_rejects_non_finite_beta(self):
        with pytest.raises(ValidationError):
            boltzmann_distribution(TWO_LEVEL, math.inf)

    def test_degenerate_prior_when_every_factor_vanishes(self):
        # beta * E overflows to +inf on every level, so every log weight
        # is -inf and no distribution exists
        from boltzkit.errors import DegeneratePrior

        with pytest.raises(DegeneratePrior):
            generalized_distribution(
                EnergySpectrum([1e200, 2e200]), uniform_prior(2), 1e200
            )

    def test_degenerate_prior_when_log_partition_leaves_float_range(self):
        # p is the prior here, but ln Z_w = ln 1 - 10 * 1e308 is not a float
        from boltzkit.errors import DegeneratePrior

        with pytest.raises(DegeneratePrior, match="beyond float range"):
            generalized_distribution(
                EnergySpectrum([1e308, 1e308]), uniform_prior(2), 10.0
            )


class TestGeneralizedDistribution:
    def test_beta_zero_returns_prior(self):
        prior = ProbabilityVector([1 / 3, 2 / 3])
        sol = generalized_distribution(TWO_LEVEL, prior, 0.0)
        for got, want in zip(sol.distribution.entries, prior.entries):
            assert got == pytest.approx(want, abs=1e-14)

    def test_weighted_point(self):
        prior = ProbabilityVector([1 / 3, 2 / 3])
        sol = generalized_distribution(TWO_LEVEL, prior, 1.0)
        w = (1 / 3, (2 / 3) * math.exp(-1))
        expected = (w[0] / sum(w), w[1] / sum(w))
        for got, want in zip(sol.distribution.entries, expected):
            assert got == pytest.approx(want, abs=1e-14)
        assert sol.distribution.entries[0] == pytest.approx(
            0.5761168847658291, abs=1e-12
        )

    def test_zero_prior_level_gets_zero_probability(self):
        prior = ProbabilityVector([0.5, 0.0, 0.5])
        sol = generalized_distribution(EnergySpectrum([0, 1, 2]), prior, 1.3)
        assert sol.distribution.entries[1] == 0.0

    def test_uniform_prior_reduces_to_plain_boltzmann(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            spectrum = EnergySpectrum(rng.uniform(0.0, 2.0, size=n))
            beta = float(rng.uniform(-4, 4))
            plain = boltzmann_distribution(spectrum, beta)
            general = generalized_distribution(spectrum, uniform_prior(n), beta)
            gap = max(
                abs(a - b)
                for a, b in zip(
                    plain.distribution.entries, general.distribution.entries
                )
            )
            assert gap <= 1e-14

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            spectrum, prior = random_system(rng)
            beta = float(rng.uniform(-3, 3))
            shift = float(rng.uniform(-5, 5))
            shifted = EnergySpectrum([e + shift for e in spectrum.levels])
            a = generalized_distribution(spectrum, prior, beta)
            b = generalized_distribution(shifted, prior, beta)
            for x, y in zip(a.distribution.entries, b.distribution.entries):
                assert abs(x - y) <= 1e-12
            assert b.mean_energy - a.mean_energy == pytest.approx(
                shift, abs=1e-12
            )

    def test_mean_energy_strictly_decreasing_in_beta(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            spectrum, prior = random_system(rng)
            betas = np.linspace(-4, 4, 9)
            means = [
                generalized_distribution(spectrum, prior, float(b)).mean_energy
                for b in betas
            ]
            assert all(a > b for a, b in zip(means, means[1:]))


class TestSolveBeta:
    def test_symmetric_target_gives_beta_zero(self):
        sol = solve_beta(TWO_LEVEL, uniform_prior(2), 0.5)
        assert abs(sol.beta) <= 1e-12

    def test_known_point(self):
        sol = solve_beta(TWO_LEVEL, uniform_prior(2), 0.2689414213699951)
        assert sol.beta == pytest.approx(1.0, abs=1e-8)

    def test_mirror_point_negative_beta(self):
        sol = solve_beta(TWO_LEVEL, uniform_prior(2), 0.7310585786300049)
        assert sol.beta == pytest.approx(-1.0, abs=1e-8)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            spectrum, prior = random_system(rng)
            for beta0 in (-5.0, -1.0, 0.0, 1.0, 5.0):
                target = generalized_distribution(
                    spectrum, prior, beta0
                ).mean_energy
                sol = solve_beta(spectrum, prior, target)
                assert abs(sol.beta - beta0) <= 1e-8

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            solve_beta(TWO_LEVEL, uniform_prior(2), 1.5)
        with pytest.raises(TargetOutOfRange):
            solve_beta(TWO_LEVEL, uniform_prior(2), 0.0)  # boundary excluded

    def test_no_variation_on_degenerate_support(self):
        prior = ProbabilityVector([0.5, 0.5, 0.0])
        spectrum = EnergySpectrum([1.0, 1.0, 3.0])
        sol = solve_beta(spectrum, prior, 1.0)
        assert sol.beta == 0.0
        with pytest.raises(NoVariation):
            solve_beta(spectrum, prior, 1.2)


class TestEquilibriumEntropies:
    def test_flat_spectrum(self):
        got = equilibrium_entropy_uniform(EnergySpectrum([0.0, 0.0]), 3.7)
        assert got == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_uniform_examples(self):
        got = equilibrium_entropy_uniform(TWO_LEVEL, 0.0)
        assert got == pytest.approx(2 * math.log(2), abs=1e-12)
        got = equilibrium_entropy_uniform(TWO_LEVEL, 1.0, N=10)
        assert got == pytest.approx(12.753502894481631, abs=1e-9)

    def test_prior_form_at_beta_zero_is_prior_entropy(self):
        prior = ProbabilityVector([1 / 3, 2 / 3])
        got = equilibrium_entropy_prior(TWO_LEVEL, prior, 0.0)
        expected = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.6365141682948128, abs=1e-12)

    def test_prior_form_rejects_zero_entries(self):
        with pytest.raises(ZeroPriorEntry):
            equilibrium_entropy_prior(
                TWO_LEVEL, ProbabilityVector([1.0, 0.0]), 1.0
            )

    def test_inequality_examples(self):
        s_u, s_p, holds = entropy_inequality_check(
            TWO_LEVEL, ProbabilityVector([0.9, 0.1]), 1.0
        )
        assert holds and s_u > s_p
        s_u, s_p, holds = entropy_inequality_check(
            TWO_LEVEL, ProbabilityVector([1 / 3, 2 / 3]), 0.7
        )
        assert holds and s_u > s_p

    def test_inequality_holds_on_random_draws(self):
        rng = np.random.default_rng(29)
        strict_misses = 0
        for _ in range(1000):
            spectrum, prior = random_system(rng)
            beta = float(rng.uniform(-4, 4))
            s_u, s_p, holds = entropy_inequality_check(
                spectrum, prior, beta, N=int(rng.integers(1, 20))
            )
            assert holds
            n = spectrum.count
            prior_entropy = -math.fsum(
                q * math.log(q) for q in prior.entries
            )
            if prior_entropy < math.log(n) - 1e-6 and not s_u > s_p:
                strict_misses += 1
        assert strict_misses == 0


def dyadic_system(rng):
    """Levels on a 1/1024 grid in [0, 2], so shifts by integers and scalings
    by powers of two are exact in floating point."""
    n = int(rng.integers(2, 9))
    levels = rng.permutation(2049)[:n] / 1024.0
    raw = rng.dirichlet(np.ones(n)) + 0.05
    return levels, ProbabilityVector(raw / raw.sum())


def dyadic_target(rng, levels):
    lo, hi = int(levels.min() * 1024), int(levels.max() * 1024)
    return int(rng.integers(lo + 1, hi)) / 1024.0


class TestOffsetAndScale:
    """p depends on the energies only through E - E_min, and beta on the
    energies only through (E - E_min) / (E_max - E_min)."""

    def test_shift_leaves_p_and_beta_unchanged(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            levels, prior = dyadic_system(rng)
            if levels.min() + 1 / 1024 >= levels.max():
                continue
            target = dyadic_target(rng, levels)
            beta = float(rng.uniform(-5.0, 5.0))
            base = EnergySpectrum(levels)
            for shift in (1.0, -37.0, 1e7, -3e9, 2.0**40):
                moved = EnergySpectrum(levels + shift)
                assert (
                    generalized_distribution(moved, prior, beta).distribution
                    == generalized_distribution(base, prior, beta).distribution
                )
                assert (
                    solve_beta(moved, prior, target + shift).beta
                    == solve_beta(base, prior, target).beta
                )

    def test_scaling_energies_and_dividing_beta_leaves_p_unchanged(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            levels, prior = dyadic_system(rng)
            beta = float(rng.uniform(-5.0, 5.0))
            want = generalized_distribution(EnergySpectrum(levels), prior, beta)
            for c in (2.0**-30, 0.5, 8.0, 2.0**600):  # exact in floating point
                got = generalized_distribution(
                    EnergySpectrum(levels * c), prior, beta / c
                )
                assert got.distribution == want.distribution
            for c in (1e-250, 3.7, 1e200):
                got = generalized_distribution(
                    EnergySpectrum(levels * c), prior, beta / c
                )
                assert np.allclose(got.distribution.entries,
                                   want.distribution.entries,
                                   rtol=1e-12, atol=0.0)

    def test_scaling_energies_divides_beta(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            levels, prior = dyadic_system(rng)
            if levels.min() + 1 / 1024 >= levels.max():
                continue
            target = dyadic_target(rng, levels)
            beta = solve_beta(EnergySpectrum(levels), prior, target).beta
            for c in (2.0**-40, 4.0, 2.0**700):
                scaled = solve_beta(EnergySpectrum(levels * c), prior, target * c)
                assert scaled.beta == beta / c


class TestSolverRegressions:
    """Inputs on which a solver working in absolute energies stalls or
    drifts."""

    def test_offset_far_above_the_range(self):
        target = 1e7 + 0.7
        sol = solve_beta(
            EnergySpectrum([1e7, 1e7 + 1, 1e7 + 2]), uniform_prior(3), target
        )
        # the same problem in shifted coordinates, target - E_min exactly
        ref = solve_beta(
            EnergySpectrum([0.0, 1.0, 2.0]), uniform_prior(3), target - 1e7
        )
        assert sol.beta == ref.beta
        assert sol.beta == pytest.approx(0.4661214579839947, rel=1e-14)

    def test_range_near_float_max(self):
        sol = solve_beta(EnergySpectrum([0.0, 1e300]), uniform_prior(2), 1e299)
        # two levels: p_1 / p_0 = exp(-beta 1e300) = 0.1 / 0.9
        assert sol.beta == pytest.approx(math.log(9.0) / 1e300, rel=1e-14)
        assert sol.distribution.entries == pytest.approx((0.9, 0.1), rel=1e-14)

    def test_ten_levels_scaled_by_1e200(self):
        rng = np.random.default_rng(53)
        levels = rng.uniform(0.0, 1.0, 10)
        prior = uniform_prior(10)
        target = float(levels.min() + 0.3 * (levels.max() - levels.min()))
        ref = solve_beta(EnergySpectrum(levels), prior, target)
        sol = solve_beta(EnergySpectrum(levels * 1e200), prior, target * 1e200)
        assert sol.beta * 1e200 == pytest.approx(ref.beta, rel=1e-12)

    def test_symmetric_target_is_exactly_zero(self):
        assert solve_beta(TWO_LEVEL, uniform_prior(2), 0.5).beta == 0.0
        spectrum = EnergySpectrum([0.0, 0.5, 1.5])
        prior = ProbabilityVector([0.5, 0.0, 0.5])
        assert solve_beta(spectrum, prior, 0.75).beta == 0.0

    def test_saturated_tails(self):
        # targets that sit e^-690 from an edge, or a prior mass of 1e-320
        sol = solve_beta(TWO_LEVEL, uniform_prior(2), 1e-300)
        assert sol.beta == pytest.approx(math.log(1e300 - 1.0), rel=1e-14)
        sol = solve_beta(TWO_LEVEL, ProbabilityVector([1.0, 1e-320]), 0.5)
        assert sol.beta == pytest.approx(math.log(1e-320), rel=1e-3)

    def test_builds_one_distribution_in_few_kernel_evaluations(
        self, monkeypatch
    ):
        from boltzkit import equilibrium

        calls = {"kernel": 0, "distribution": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(equilibrium, "_exponential_family",
                            counted("kernel", equilibrium._exponential_family))
        monkeypatch.setattr(equilibrium, "generalized_distribution",
                            counted("distribution",
                                    equilibrium.generalized_distribution))
        rng = np.random.default_rng(59)
        for _ in range(8):
            levels = 10 ** rng.uniform(-3, 3) * (rng.uniform(0, 1e3)
                                                  + rng.uniform(0, 1, 2000))
            raw = rng.uniform(0.05, 1.0, 2000)
            lo, hi = levels.min(), levels.max()
            target = float(lo + (hi - lo) * rng.uniform(0.25, 0.75))
            calls.update(kernel=0, distribution=0)
            solve_beta(EnergySpectrum(levels), ProbabilityVector(raw / raw.sum()),
                       target)
            assert calls["distribution"] == 1
            assert calls["kernel"] <= 10  # the returned distribution included

    @pytest.mark.parametrize("levels, target", [
        ([0.0, 1e-300, 1.0], 1e-310),
        ([0.0, 1e-200, 2e-200, 1.0], 1e-205),
    ])
    def test_tail_where_the_variance_underflows(self, monkeypatch, levels, target):
        # past t ~ 1e3 p sits on the lowest levels and Var(u) underflows to
        # 0; the root lies near t = 1e301 (1e201), out of reach of doubling
        from boltzkit import equilibrium

        calls = []
        kernel = equilibrium._exponential_family
        monkeypatch.setattr(equilibrium, "_exponential_family",
                            lambda *args: calls.append(args[2]) or kernel(*args))
        sol = solve_beta(EnergySpectrum(levels), uniform_prior(len(levels)), target)
        assert len(calls) <= 20
        assert abs(sol.mean_energy - target) <= ENERGY_TOL_FACTOR * levels[-1]
        assert sol.mean_energy == pytest.approx(target, rel=1e-9)
        if len(levels) == 3:
            # p_1 / (p_0 + p_1) = 1e-10 = e^(-beta 1e-300) / (1 + e^(-beta 1e-300))
            assert sol.beta == pytest.approx(-math.log(1e-10 / (1 - 1e-10)) / 1e-300,
                                             rel=1e-12)
