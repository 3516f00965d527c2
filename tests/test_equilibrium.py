"""Equilibrium distributions, the beta solver, and entropy formulas."""

import contextlib
import io
import json
import math
import warnings

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
from boltzkit import cli
from boltzkit.entropy import kl_divergence
from boltzkit.equilibrium import ENERGY_TOL_FACTOR, _family_arrays, _quiet
from boltzkit.errors import (BoltzkitError, InfeasibleError, NumericError,
                             ValidationError)

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
        with pytest.raises(NumericError, match="partition sum is beyond float range"):
            generalized_distribution(
                EnergySpectrum([1e200, 2e200]), uniform_prior(2), 1e200
            )

    def test_degenerate_prior_when_log_partition_leaves_float_range(self):
        # p is the prior here, but ln Z_w = ln 1 - 10 * 1e308 is not a float
        with pytest.raises(NumericError, match="partition sum is beyond float range"):
            generalized_distribution(
                EnergySpectrum([1e308, 1e308]), uniform_prior(2), 10.0
            )


class TestGeneralizedDistribution:
    def test_beta_zero_returns_prior(self):
        prior = ProbabilityVector([1 / 3, 2 / 3])
        sol = generalized_distribution(TWO_LEVEL, prior, 0.0)
        for got, want in zip(sol.distribution.entries, prior.entries):
            assert got == pytest.approx(want, abs=1e-14)

    def test_point_mass_entropy_is_positive_zero(self):
        one, four = EnergySpectrum([0.0]), EnergySpectrum([0.0, 1.0, 2.0, 3.0])
        for sol in (generalized_distribution(one, uniform_prior(1), 1.0),
                    generalized_distribution(four, uniform_prior(4), 1e308),
                    boltzmann_distribution(four, -1e300)):
            assert sol.distribution.entries.count(1.0) == 1
            assert math.copysign(1.0, sol.entropy_per_particle) == 1.0

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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_prior_extreme_level_is_not_the_anchor(self, sign):
        # the unsupported level is the lowest (beta > 0) or the highest
        # (beta < 0); anchored there, every supported decay would overflow
        spectrum = EnergySpectrum([sign * x for x in (-2.0, 0.0, 1.0)])
        prior = ProbabilityVector([0.0, 0.5, 0.5])
        sol = generalized_distribution(spectrum, prior, sign * 1e308)
        assert sol.distribution.entries == (0.0, 1.0, 0.0)
        assert sol.log_partition == math.log(0.5)
        assert sol.mean_energy == 0.0

    @pytest.mark.parametrize("n", [3, 2000])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_unsupported_decay_overflow_leaves_exact_zeros(self, n, sign):
        # beta (E - anchor) is -inf on the unsupported levels: ln 0 minus it
        # would be nan, yet p is exactly 0 there and nothing warns
        levels = np.linspace(0.0, 1.0, n)
        levels[::2] = -100.0
        weights = np.where(levels < 0.0, 0.0, 1.0)
        spectrum = EnergySpectrum(sign * levels)
        prior = ProbabilityVector(weights / weights.sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = generalized_distribution(spectrum, prior, sign * 1e307)
        p = np.array(sol.distribution.entries)
        assert not np.isnan(p).any()
        assert (p[weights == 0.0] == 0.0).all()
        assert p[1] == 1.0  # the lowest supported energy, at sign * levels[1]
        assert math.isfinite(sol.log_partition)

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
        with pytest.raises(InfeasibleError, match="outside the open interval"):
            solve_beta(TWO_LEVEL, uniform_prior(2), 1.5)
        with pytest.raises(InfeasibleError, match="outside the open interval"):
            solve_beta(TWO_LEVEL, uniform_prior(2), 0.0)  # boundary excluded

    def test_no_variation_on_degenerate_support(self):
        prior = ProbabilityVector([0.5, 0.5, 0.0])
        spectrum = EnergySpectrum([1.0, 1.0, 3.0])
        sol = solve_beta(spectrum, prior, 1.0)
        assert sol.beta == 0.0
        with pytest.raises(InfeasibleError, match="all supported levels have energy"):
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
        with pytest.raises(ValidationError, match="requires strictly positive priors"):
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


class TestSupportMask:
    """``_family_arrays`` finds the support mask once per (spectrum, prior);
    the kernel and every route take it from there."""

    ENDS_OFF = EnergySpectrum([0.0, 1.0, 2.0, 3.0])
    MIDDLE = ProbabilityVector([0.0, 0.5, 0.5, 0.0])

    def test_mask_is_none_exactly_when_every_prior_is_positive(self):
        assert _family_arrays(self.ENDS_OFF, None)[2] is None
        tiny = ProbabilityVector([5e-324, 1.0 - 5e-324])
        assert _family_arrays(TWO_LEVEL, tiny)[2] is None
        rng = np.random.default_rng(61)
        masked = 0
        for _ in range(200):
            n = int(rng.integers(1, 8))
            raw = rng.uniform(0.0, 1.0, n) * (rng.uniform(0.0, 1.0, n) < 0.7)
            if not raw.any():
                raw[int(rng.integers(n))] = 1.0
            prior = ProbabilityVector(raw / raw.sum())
            with _quiet():  # the error state of the route that calls it
                support = _family_arrays(EnergySpectrum(rng.uniform(0.0, 2.0, n)),
                                         prior)[2]
            if (prior._array > 0.0).all():
                assert support is None
            else:
                masked += 1
                assert support.dtype == bool
                assert np.array_equal(support, prior._array > 0.0)
        assert masked > 50

    def test_both_extreme_levels_unsupported(self):
        # exact floats of the kernel's gaps branch, on either side of beta = 0
        spectrum, prior = self.ENDS_OFF, self.MIDDLE
        sol = generalized_distribution(spectrum, prior, 0.7)
        assert sol.distribution.entries == (0.0, 0.668187772168166,
                                            0.3318122278318339, 0.0)
        assert (sol.log_partition, sol.mean_energy, sol.entropy_per_particle) == (
            -0.9899611316744873, 1.3318122278318338, 0.6354546083677417)
        sol = generalized_distribution(spectrum, prior, -1.3)
        assert sol.distribution.entries == (0.0, 0.21416501695744145,
                                            0.7858349830425586, 0.0)
        assert (sol.log_partition, sol.mean_energy, sol.entropy_per_particle) == (
            2.147861273273047, 1.7858349830425586, 0.5194229758776661)
        sol = solve_beta(spectrum, prior, 1.2)
        assert sol.beta == 1.3862943611198908
        assert sol.distribution.entries == (0.0, 0.8, 0.19999999999999996, 0.0)
        assert (sol.log_partition, sol.mean_energy, sol.entropy_per_particle) == (
            -1.8562979903656263, 1.2, 0.5004024235381879)
        sol = solve_beta(spectrum, prior, 1.9)
        assert sol.beta == -2.1972245773362187
        assert sol.distribution.entries == (0.0, 0.10000000000000006,
                                            0.8999999999999999, 0.0)
        assert equilibrium_entropy_uniform(spectrum, 0.7, 3, 2.0) == 15.114653612544412
        assert equilibrium_entropy_uniform(spectrum, -1.3, 3, 2.0) == 12.942731531147572
        with pytest.raises(ValidationError, match="requires strictly positive priors"):
            equilibrium_entropy_prior(spectrum, prior, 0.7)

    def test_sweep_row_with_both_extreme_levels_unsupported(self, tmp_path):
        path = tmp_path / "ends-off.json"
        path.write_text('{"levels": [0, 1, 2, 3], "priors": [0, 0.5, 0.5, 0], '
                        '"N": 10}')
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["sweep", "--spec", str(path), "--from", "0.7",
                             "--to", "1.7", "--points", "2", "--format", "json"]) == 0
        assert json.loads(out.getvalue().splitlines()[0]) == {
            "beta": 0.7, "temperature": 1.42857142857,
            "log_partition": -0.989961131674, "mean_energy": 1.33181222783,
            "gibbs_entropy": 6.35454608368, "equilibrium_entropy": None,
            "kl_to_prior": 0.0576925721922,
        }


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


def _kernel_calls(monkeypatch) -> list:
    """The list of t (beta in solver units) of every kernel call from now on."""
    from boltzkit import equilibrium

    calls = []
    kernel = equilibrium._exponential_family
    monkeypatch.setattr(equilibrium, "_exponential_family",
                        lambda *args: calls.append(args[2]) or kernel(*args))
    return calls


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
        # the mirror images: the crowded levels sit at the top, beta < 0
        ([-1.0, -1e-300, 0.0], -1e-310),
        ([-1.0, -8.3e-7, -6.58e-7, 0.0], -3.0846934659513736e-09),
    ])
    def test_tail_where_the_variance_underflows(self, monkeypatch, levels, target):
        # past t ~ 1e3 p sits on the lowest levels and Var(u) underflows to
        # 0; the root lies near t = 1e301 (1e201), out of reach of doubling
        calls = _kernel_calls(monkeypatch)
        sol = solve_beta(EnergySpectrum(levels), uniform_prior(len(levels)), target)
        assert len(calls) <= 20
        span = levels[-1] - levels[0]
        assert abs(sol.mean_energy - target) <= ENERGY_TOL_FACTOR * span
        assert sol.mean_energy == pytest.approx(target, rel=1e-9)
        if len(levels) == 3:
            # p_1 / (p_0 + p_1) = 1e-10 = e^(-beta 1e-300) / (1 + e^(-beta 1e-300))
            root = -math.log(1e-10 / (1 - 1e-10)) / 1e-300
            assert sol.beta == pytest.approx(math.copysign(root, target), rel=1e-12)
        steps = len(calls)
        mirror = solve_beta(EnergySpectrum([-x for x in levels]),
                            uniform_prior(len(levels)), -target)
        assert sol.beta == -mirror.beta
        # the mirror takes the same steps; the last call builds the result
        assert calls[steps:-1] == calls[:steps - 1]

    def test_mirrored_problem_gives_minus_beta(self, monkeypatch):
        # E -> -E and target -> -target maps beta to -beta, so the answer
        # must not depend on which end of the range the crowded levels sit:
        # the solver takes the same steps on both, and returns -beta exactly
        calls = _kernel_calls(monkeypatch)
        rng = np.random.default_rng(61)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            levels = rng.uniform(-1.0, 1.0, n)
            if rng.random() < 0.5:  # gaps of 1e-9..1e-5 at one end of the range
                gaps = 10 ** rng.uniform(-9, -5, n - 1) * rng.random(n - 1)
                levels = np.append(levels[0] + np.append(0.0, gaps),
                                   levels[0] + rng.uniform(0.5, 2.0))
            raw = rng.dirichlet(np.ones(len(levels))) + 0.01
            prior = ProbabilityVector(raw / raw.sum())
            frac = (10 ** rng.uniform(-9, -0.3) if rng.random() < 0.5
                    else rng.uniform(0.01, 0.99))
            if rng.random() < 0.5:
                frac = 1.0 - frac
            lo, hi = levels.min(), levels.max()
            target = float(lo + (hi - lo) * frac)
            calls.clear()
            beta = solve_beta(EnergySpectrum(levels), prior, target).beta
            steps = len(calls)
            mirror = solve_beta(EnergySpectrum(-levels), prior, -target).beta
            assert beta == -mirror, (levels, target)
            assert calls[steps:-1] == calls[:steps - 1]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("levels, weights, target, beta, kernel_calls", [
        # the gap to the nearest level is subnormal: Var(u) is 0 past t ~ 1e3
        # and the tail slope is 1e-310, so Newton's step is the log-odds/1e-310
        ([0.0, 1e-310, 1.0], None, 4.96e-311, 1.6000341334574888e308, 40),
        ([0.0, 1e-310, 1.0], None, 1e-315, None, 20),  # root near t = 1e311
        # t = 1e308 is in range, beta = t / 1e-3 is not
        ([0.0, 1e-310, 1e-3], None, 4.5e-315, None, 20),
        # the prior sits on the middle level: at t = 0, Var(u) = 5e-311 is
        # tiny next to <u><1-u>, Newton's step overflows, yet the root is t ~ 1e3
        ([0.0, 1.0, 2.0], [1e-310, 1.0, 1e-310], 0.2, 715.187673189274, 20),
    ])
    def test_root_at_the_edge_of_float_range(self, monkeypatch, sign, levels,
                                             weights, target, beta, kernel_calls):
        calls = _kernel_calls(monkeypatch)
        spectrum = EnergySpectrum([sign * x for x in levels])
        prior = (uniform_prior(len(levels)) if weights is None
                 else ProbabilityVector(weights))
        if beta is None:
            with pytest.raises(NumericError, match="beta beyond float range"):
                solve_beta(spectrum, prior, sign * target)
        else:
            assert solve_beta(spectrum, prior, sign * target).beta == sign * beta
        assert len(calls) <= kernel_calls

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_prior_mean_next_to_the_top_level(self, sign):
        # <u> = sum(p u) rounds to 1 - 1.1e-16, so Var(u) about it is 1.2e-32,
        # far above its bound <u><1-u> = 1e-200; Var(1 - u) is exact. Both
        # orientations solve to the same |beta| = 200 ln 10
        prior = ProbabilityVector([0.3, 0.3, 0.4, 1e-200])
        solved = solve_beta(EnergySpectrum([0.0, 0.0, 0.0, sign]), prior, sign * 0.5)
        assert solved.beta == pytest.approx(-sign * 200 * math.log(10), rel=1e-14)
        assert solved.mean_energy == pytest.approx(sign * 0.5, rel=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_residual_is_relative_to_the_nearer_end(self, sign):
        # the solver ends with <u> 4e-9 relative from the goal 1e-300: within
        # 1e-10 of the range, but not of the target's distance from its end
        levels = EnergySpectrum([sign * x for x in (0.0, 1e-310, 1e-40, 1.0)])
        prior = ProbabilityVector([0.5, 0.5, 5e-251, 5e-301])
        with pytest.raises(NumericError, match="solver stalled: mean"):
            solve_beta(levels, prior, sign * 1e-300)

    @pytest.mark.parametrize("levels, target, midpoints", [
        ([0.0, 6.58e-7, 8.3e-7, 1.0], 3.0846934659513736e-09, {"asinh"}),
        ([0.0, 5.47e-7, 5.62e-7, 6.84e-7, 1.0], 4.675777377787808e-09,
         {"asinh", "plain"}),
    ])
    def test_bisection_step_rules(self, levels, target, midpoints):
        # Newton stalls here once both sides of the root are known, so the
        # solver bisects: in asinh(t) across decades, plainly within one
        import inspect
        import sys

        source, first = inspect.getsourcelines(solve_beta)
        step_lines = {
            name: first + [i for i, line in enumerate(source) if text in line][0]
            for name, text in (("asinh", "math.sinh("), ("plain", "0.5 * (lo + hi)"))
        }
        seen = set()

        def tracer(frame, event, arg):
            if frame.f_code is not solve_beta.__code__:
                return None
            if event == "line":
                seen.add(frame.f_lineno)
            return tracer

        spectrum, prior = EnergySpectrum(levels), uniform_prior(len(levels))
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            sol = solve_beta(spectrum, prior, target)
        finally:
            sys.settrace(previous)
        assert {name for name, line in step_lines.items() if line in seen} == midpoints

        def mean(beta):
            return generalized_distribution(spectrum, prior, beta).mean_energy

        lo, hi = 0.0, 1.0  # plain bisection on beta, to the last bit
        while mean(hi) > target:
            lo, hi = hi, 2.0 * hi
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if mean(mid) > target else (lo, mid)
        assert sol.beta == pytest.approx(lo, rel=1e-12)


#: Systems at the edges of float range and of the support.
EDGE_SYSTEMS = {
    "four levels": ([0.0, 1.0, 2.0, 3.0], [0.4, 0.3, 0.2, 0.1]),
    "float range": ([-1e308, -1.0, 1.0, 1e308], [0.25] * 4),
    "zero priors at both ends": ([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.5, 0.0]),
    "float range, ends unsupported": ([-1e308, -1.0, 1.0, 1e308],
                                      [0.0, 0.5, 0.5, 0.0]),
}

ROUTES = {
    "generalized_distribution": lambda s, q, b: kl_divergence(
        generalized_distribution(s, q, b).distribution, q),
    "boltzmann_distribution": lambda s, q, b: boltzmann_distribution(s, b),
    "equilibrium_entropy_uniform": lambda s, q, b: equilibrium_entropy_uniform(s, b),
    "equilibrium_entropy_prior": lambda s, q, b: equilibrium_entropy_prior(s, q, b),
    "entropy_inequality_check": lambda s, q, b: entropy_inequality_check(s, q, b),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNoWarningEscapesARoute:
    """Each public route sets one numpy error state; none of the overflow,
    ln 0 or inf - inf that its kernel and solver handle warns, and a value
    beyond float range is a BoltzkitError."""

    @pytest.mark.parametrize("beta", [1e300, -1e300])
    @pytest.mark.parametrize("system", EDGE_SYSTEMS)
    @pytest.mark.parametrize("route", ROUTES)
    def test_routes_at_extreme_beta(self, route, system, beta):
        levels, priors = EDGE_SYSTEMS[system]
        with contextlib.suppress(BoltzkitError):
            ROUTES[route](EnergySpectrum(levels), ProbabilityVector(priors), beta)

    @pytest.mark.parametrize("levels, priors, target", [
        ([0.0, 1.0, 2.0, 3.0], [0.4, 0.3, 0.2, 0.1], 1e-300),
        ([0.0, 1.0, 2.0, 3.0], [0.4, 0.3, 0.2, 0.1], 3.0 - 1e-15),
        ([0.0, 1.0], [1.0, 1e-320], 0.5),
        ([0.0, 1e-300, 1.0], [0.25, 0.25, 0.5], 1e-310),
        ([-1.0, -1e-300, 0.0], [0.5, 0.25, 0.25], -1e-310),
        ([0.0, 1e308], [0.5, 0.5], 1e-300),
        ([-1e308, 1e308], [0.5, 0.5], 0.5),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.5, 0.0], 1.0 + 1e-15),
        ([-1e308, -1.0, 1.0, 1e308], [0.0, 0.5, 0.5, 0.0], 1.0 - 1e-15),
    ])
    def test_solve_beta_on_saturated_tails(self, levels, priors, target):
        with contextlib.suppress(BoltzkitError):
            solve_beta(EnergySpectrum(levels), ProbabilityVector(priors), target)

    @pytest.mark.parametrize("grid", [
        ["--from=-1e300", "--to", "1e300", "--points", "5"],
        ["--variable", "temperature", "--from", "1e-300", "--to", "1",
         "--points", "5", "--spacing", "log"],
    ], ids=["beta", "temperature"])
    @pytest.mark.parametrize("system", EDGE_SYSTEMS)
    def test_sweep_to_extreme_beta(self, tmp_path, system, grid):
        levels, priors = EDGE_SYSTEMS[system]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"levels": levels, "priors": priors, "N": 3}))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["sweep", "--spec", str(path), *grid])
        # a log-partition beyond float range is a numeric failure
        assert code == (cli.EXIT_NUMERIC if system == "float range" else cli.EXIT_OK)

    def test_solve_beta_opens_two_error_states_whatever_its_steps(
        self, monkeypatch
    ):
        # its own, and generalized_distribution's for the result
        opened = []
        errstate = np.errstate
        monkeypatch.setattr(np, "errstate",
                            lambda **kw: opened.append(kw) or errstate(**kw))
        calls = _kernel_calls(monkeypatch)
        steps = []
        for levels, target in [([0.0, 1.0], 0.5), ([0.0, 1.0, 2.0], 0.3),
                               ([0.0, 1e-300, 1.0], 1e-310),
                               ([0.0, 5.47e-7, 5.62e-7, 6.84e-7, 1.0],
                                4.675777377787808e-09)]:
            opened.clear()
            calls.clear()
            solve_beta(EnergySpectrum(levels), uniform_prior(len(levels)), target)
            assert len(opened) <= 2, (levels, opened)
            steps.append(len(calls))
        assert min(steps) <= 2 and max(steps) >= 10
