"""Entropy functionals, divergences, and the information/negentropy relation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boltzkit import (
    EnergySpectrum,
    EntropyValue,
    Macrostate,
    ProbabilityVector,
    boltzmann_shannon_entropy,
    einstein_probability,
    exact_boltzmann_entropy,
    generalized_distribution,
    kl_cross_entropy,
    kl_divergence,
    log_macrostate_probability,
    negentropy_relation,
    occupation_cross_entropy,
    shannon_entropy,
    stirling_entropy,
    uniform_prior,
)
from boltzkit.errors import ValidationError
from boltzkit.oracle import round_to_macrostate


class TestShannonEntropy:
    def test_deterministic_distribution(self):
        # a point mass's -sum(p ln p) is +0.0, not -0.0
        for entropy in (shannon_entropy(ProbabilityVector([1.0, 0.0])),
                        shannon_entropy(ProbabilityVector([1.0])),
                        shannon_entropy(ProbabilityVector([0.0, 1.0]), k=2.0),
                        stirling_entropy(Macrostate([0, 7])),
                        boltzmann_shannon_entropy(Macrostate([1, 0]))):
            assert entropy.value == 0.0, entropy
            assert math.copysign(1.0, entropy.value) == 1.0, entropy

    def test_uniform_two_level(self):
        got = shannon_entropy(ProbabilityVector([0.5, 0.5]))
        assert got.value == pytest.approx(math.log(2), abs=1e-12)

    def test_quarter_three_quarters(self):
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        got = shannon_entropy(ProbabilityVector([0.25, 0.75]))
        assert got.value == pytest.approx(expected, abs=1e-12)
        assert got.value == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_k_scales_linearly(self):
        p = ProbabilityVector([0.25, 0.75])
        assert shannon_entropy(p, k=3.0).value == pytest.approx(
            3.0 * shannon_entropy(p).value
        )
        assert shannon_entropy(p, k=3.0).k_used == 3.0

    def test_bounded_by_log_n_with_equality_iff_uniform(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(2, 9)
            p = rng.dirichlet(np.ones(n))
            h = shannon_entropy(ProbabilityVector(p / p.sum())).value
            assert h <= math.log(n) + 1e-12
        for n in (2, 5, 8):
            h = shannon_entropy(uniform_prior(n)).value
            assert h == pytest.approx(math.log(n), abs=1e-12)


class TestOccupationEntropies:
    def test_boltzmann_shannon(self):
        assert boltzmann_shannon_entropy(Macrostate([1] * 6)).value == 0.0
        assert boltzmann_shannon_entropy(Macrostate([2, 2])).value == (
            pytest.approx(-4 * math.log(2), abs=1e-12)
        )
        assert boltzmann_shannon_entropy(Macrostate([4, 0])).value == (
            pytest.approx(-4 * math.log(4), abs=1e-12)
        )

    def test_stirling_entropy(self):
        assert stirling_entropy(Macrostate([9, 0])).value == 0.0
        assert stirling_entropy(Macrostate([5, 5])).value == pytest.approx(
            10 * math.log(2), abs=1e-12
        )
        expected = 3 * (
            -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        )
        assert stirling_entropy(Macrostate([2, 1])).value == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(1.9095425048844388, abs=1e-12)

    def test_exact_boltzmann_entropy(self):
        assert exact_boltzmann_entropy(Macrostate([8, 0, 0])).value == 0.0
        assert exact_boltzmann_entropy(Macrostate([2, 1])).value == (
            pytest.approx(math.log(3), abs=1e-12)
        )
        assert exact_boltzmann_entropy(Macrostate([1, 1, 1])).value == (
            pytest.approx(math.log(6), abs=1e-12)
        )

    def test_stirling_gap_per_particle_shrinks(self):
        """Exact k ln W approaches the Stirling form, per particle."""
        gaps = []
        for total in (10, 100, 1000, 10000):
            m = round_to_macrostate(total, (0.6, 0.4))
            gap = abs(
                exact_boltzmann_entropy(m).value - stirling_entropy(m).value
            )
            gaps.append(gap / total)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestKullbackLeibler:
    def test_zero_at_equality(self):
        p = ProbabilityVector([0.3, 0.7])
        assert kl_cross_entropy(p, p, N=5) == 0.0

    def test_signed_example(self):
        p = ProbabilityVector([0.5, 0.5])
        p0 = ProbabilityVector([0.25, 0.75])
        expected_d = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert kl_divergence(p, p0) == pytest.approx(expected_d, abs=1e-12)
        assert kl_divergence(p, p0) == pytest.approx(0.14384103622589042)
        assert kl_cross_entropy(p, p0, N=1) == pytest.approx(
            -expected_d, abs=1e-12
        )

    def test_point_mass_example(self):
        p = ProbabilityVector([1.0, 0.0])
        assert kl_cross_entropy(p, uniform_prior(2), N=2) == pytest.approx(
            -2 * math.log(2), abs=1e-12
        )

    def test_rounding_below_zero_is_clamped(self):
        # the beta = 0 distribution on levels 0..3 is the prior up to rounding;
        # its summed divergence rounds to -4.4e-17
        prior = ProbabilityVector([0.4, 0.3, 0.2, 0.1])
        p = generalized_distribution(EnergySpectrum([0, 1, 2, 3]), prior, 0.0)
        assert p.distribution.entries != prior.entries
        assert kl_loop(p.distribution.entries, prior.entries) < 0.0
        d = kl_divergence(p.distribution, prior)
        assert d == 0.0 and math.copysign(1.0, d) == 1.0
        assert kl_divergence(prior, prior) == 0.0

    def test_support_violation(self):
        with pytest.raises(ValidationError, match="where the reference distribution"):
            kl_divergence(ProbabilityVector([0.5, 0.5]),
                          ProbabilityVector([1.0, 0.0]))

    def test_ratio_beyond_float_range(self):
        # 0.5 / 1e-320 overflows, but its term 0.5 (ln 0.5 - ln 1e-320) does not
        want = math.fsum([0.5 * math.log(0.5 / (1 - 1e-320)),
                          0.5 * (math.log(0.5) - math.log(1e-320))])
        assert want == 367.7204732649271
        assert kl_divergence([0.5, 0.5], [1 - 1e-320, 1e-320]) == want
        p = ProbabilityVector([0.25, 0.25, 0.5])
        assert kl_divergence(p, [0.5, 1e-320, 0.5]) == math.fsum([
            0.25 * math.log(0.5), 0.25 * (math.log(0.25) - math.log(1e-320)), 0.0])

    @pytest.mark.parametrize("n", [2, 500])
    @pytest.mark.parametrize("reference", [1e-10, 1e308 / 4.5])
    def test_divergence_beyond_float_range_is_inf(self, n, reference):
        # 1e308 ln(1e318) overflows a term; 1.5e308 terms overflow their sum
        # (math.fsum below 450 entries, the array pass from there); quietly
        assert kl_divergence([1e308] * n, [reference] * n) == math.inf

    @pytest.mark.parametrize("p, q, want", [
        ([1e-300, 1.0], [1e300, 1.0], 0.0),
        ([1e-300, 1e308], [1e300, 1e-10], math.inf),
    ], ids=["underflow", "underflow-and-overflow"])
    def test_ratio_below_float_range(self, p, q, want):
        # 1e-300 / 1e300 rounds to 0: its term is 1e-300 (ln 1e-300 - ln 1e300),
        # about -1.4e-297, not 1e-300 ln 0 = -inf; quietly
        assert kl_divergence(p, q) == want

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_gibbs_inequality(self, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        d = kl_divergence(p / p.sum(), q / q.sum())
        assert d >= -1e-15


def kl_loop(pe, qe):
    """The per-element loop that kl_divergence ran before it became an
    array pass: the reference for its value and its support rule."""
    terms = []
    for a, b in zip(pe, qe):
        if a == 0.0:
            continue
        if b <= 0.0:
            raise ValidationError(
                f"mass {a!r} where the reference distribution has {b!r}"
            )
        terms.append(a * math.log(a / b))
    return math.fsum(terms)


def kl_inputs(count, seed=20261018):
    """Seeded (p, q) pairs of 1-2,000 levels, p with zeros, q positive."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 2001))
        p = rng.dirichlet(np.full(n, rng.uniform(0.2, 5.0)))
        p[rng.uniform(size=n) < 0.3] = 0.0
        if not p.any():
            p[0] = 1.0
        q = 0.9 * rng.dirichlet(np.full(n, rng.uniform(0.2, 5.0))) + 0.1 / n
        yield (ProbabilityVector((p / p.sum()).tolist()),
               ProbabilityVector((q / q.sum()).tolist()))


class TestKullbackLeiblerArrayPass:
    def test_matches_the_per_element_loop(self):
        ulp = 2.0 ** -52
        for p, q in kl_inputs(300):
            want = kl_loop(p.entries, q.entries)
            got = kl_divergence(p, q)
            assert abs(got - want) <= 4 * ulp * abs(want), (len(p), got, want)

    def test_plain_sequences_and_arrays(self):
        for p, q in kl_inputs(10, seed=3):
            want = kl_divergence(p, q)
            assert kl_divergence(list(p.entries), list(q.entries)) == want
            assert kl_divergence(p.entries, q) == want
            assert kl_divergence(np.array(p.entries), q.entries) == want
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
            0.14384103622589042)
        assert kl_divergence([1, 0], (0.5, 0.5)) == math.log(2)

    @pytest.mark.parametrize("p, q", [
        ([0.5, 0.5], [1.0, 0.0]),
        ([0.0, 0.25, 0.75], [0.5, 0.5, 0.0]),
        ([0.2, 0.3, 0.5], [0.0, 0.0, 1.0]),
        ([0.5, 0.5], [1.5, -0.5]),
    ])
    def test_support_violation_as_in_the_loop(self, p, q):
        with pytest.raises(ValidationError) as want:
            kl_loop(p, q)
        with pytest.raises(ValidationError, match="where the reference") as got:
            kl_divergence(p, q)
        assert str(got.value) == str(want.value)

    def test_negative_mass_is_a_validation_error(self):
        # the loop stopped at math.log of a negative ratio
        for p, q in [([-0.5, 1.5], [0.5, 0.5]), ([1.5, -0.5], [0.0, 1.0])]:
            with pytest.raises(ValueError):
                kl_loop(p, q)
            with pytest.raises(ValidationError, match="negative"):
                kl_divergence(p, q)

    @pytest.mark.parametrize("p, q, message", [
        ([math.nan, 1.0], [0.5, 0.5], "mass nan at entry 0 is not finite"),
        ([1.0, 1.0], [math.nan, 0.5], "reference mass nan at entry 0 is not finite"),
        ([1.0, math.inf], [math.inf, 1.0], "mass inf at entry 1 is not finite"),
        ([0.5, 0.5], [1.0, -math.inf], "reference mass -inf at entry 1 is not finite"),
    ], ids=["nan mass", "nan reference", "inf both", "-inf reference"])
    def test_non_finite_mass_is_a_validation_error(self, p, q, message):
        # the first two returned D = 0.0, the third a bare ValueError from fsum
        for convert in (list, tuple, np.array):
            with pytest.raises(ValidationError) as exc:
                kl_divergence(convert(p), convert(q))
            assert str(exc.value) == message

    def test_non_finite_reference_beside_a_vector(self):
        with pytest.raises(ValidationError, match="reference mass nan at entry 1"):
            kl_divergence(ProbabilityVector([0.5, 0.5]), [1.0, math.nan])

    def test_zero_mass_needs_no_support(self):
        assert kl_divergence([1.0, 0.0], [1.0, 0.0]) == 0.0

    @pytest.mark.parametrize("p, q", [
        ([0.5, 0.5], [1.0]),
        ([1.0], [0.5, 0.5]),
        ([], [1.0]),
    ])
    def test_length_mismatch(self, p, q):
        with pytest.raises(ValidationError, match="length mismatch"):
            kl_divergence(p, q)
        with pytest.raises(ValidationError, match="length mismatch"):
            kl_divergence(np.array(p), tuple(q))


class TestOccupationCrossEntropy:
    def test_zero_at_the_mean(self):
        assert occupation_cross_entropy(Macrostate([2, 2]), [2.0, 2.0]) == 0.0

    def test_examples(self):
        got = occupation_cross_entropy(Macrostate([3, 1]), [2.0, 2.0])
        assert got == pytest.approx(
            3 * math.log(1.5) + math.log(0.5), abs=1e-12
        )
        assert got == pytest.approx(0.5232481437645479, abs=1e-12)
        assert occupation_cross_entropy(
            Macrostate([0, 4]), [2.0, 2.0]
        ) == pytest.approx(4 * math.log(2), abs=1e-12)

    def test_mean_sum_mismatch(self):
        with pytest.raises(ValidationError, match="mean occupations sum to 5.0"):
            occupation_cross_entropy(Macrostate([3, 1]), [2.0, 3.0])

    def test_support_violation(self):
        with pytest.raises(ValidationError, match="occupation 1 where mean is 0"):
            occupation_cross_entropy(Macrostate([3, 1]), [4.0, 0.0])

    def test_nonnegative_when_totals_match(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = rng.integers(2, 7)
            total = int(rng.integers(1, 200))
            occ = rng.multinomial(total, rng.dirichlet(np.ones(n)))
            mean = rng.dirichlet(np.ones(n)) + 1e-3
            mean = total * mean / mean.sum()
            got = occupation_cross_entropy(Macrostate(occ), mean)
            assert got >= -1e-12


class TestNegentropyRelation:
    def test_equilibrium_state_gives_zero(self):
        lhs, rhs = negentropy_relation(Macrostate([2, 2]), [2.0, 2.0])
        assert lhs == 0.0
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_examples(self):
        lhs, rhs = negentropy_relation(Macrostate([3, 1]), [2.0, 2.0])
        assert lhs == pytest.approx(0.5232481437645479, abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-9)
        lhs, rhs = negentropy_relation(Macrostate([4, 0]), [2.0, 2.0])
        assert lhs == pytest.approx(4 * math.log(2), abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-9)

    def test_identity_on_random_pairs(self):
        """Both sides agree for any occupations and means with matching
        totals and supports, not just near equilibrium."""
        rng = np.random.default_rng(23)
        for _ in range(500):
            n = rng.integers(2, 8)
            total = int(rng.integers(2, 500))
            occ = rng.multinomial(total, rng.dirichlet(np.ones(n)))
            mean = rng.dirichlet(np.ones(n)) + 1e-3
            mean = total * mean / mean.sum()
            lhs, rhs = negentropy_relation(Macrostate(occ), mean)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestOneXLogSum:
    """Every sum x ln(x/r) in the module runs through one helper; the
    per-function loops it replaced are kept here as the reference, and
    the arithmetic is unchanged, so the results must be equal to the bit."""

    @staticmethod
    def reference(m, mean, p, k):
        def xlogx(x):
            return 0.0 if x == 0.0 else x * math.log(x)

        occ, total = m.occupations, m.total
        s_state = -k * math.fsum(x * math.log(x / total) for x in occ if x > 0)
        s_ref = -k * math.fsum(
            x * math.log(mb / total) for x, mb in zip(occ, mean) if x > 0)
        cross = k * math.fsum(
            x * math.log(x / mb) for x, mb in zip(occ, mean) if x > 0)
        return (-k * math.fsum(xlogx(x) for x in p.entries),
                -k * math.fsum(xlogx(x) for x in occ),
                s_state, cross, (cross, s_ref - s_state))

    def test_bit_identical_to_the_loops(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            occ = rng.multinomial(int(rng.integers(1, 10**6)), rng.dirichlet(np.ones(n)))
            mean = rng.dirichlet(np.ones(n)) + 1e-3
            mean = (occ.sum() * mean / mean.sum()).tolist()
            raw = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.8)
            p = ProbabilityVector(raw / raw.sum() if raw.sum() else np.ones(n) / n)
            m, k = Macrostate(occ), float(rng.uniform(0.1, 3.0))
            got = (shannon_entropy(p, k).value, boltzmann_shannon_entropy(m, k).value,
                   stirling_entropy(m, k).value, occupation_cross_entropy(m, mean, k),
                   negentropy_relation(m, mean, k))
            assert got == self.reference(m, mean, p, k)

    def test_empty_macrostate(self):
        assert negentropy_relation(Macrostate([0, 0]), [0.0, 0.0]) == (0.0, 0.0)


class TestEinsteinProbability:
    def test_most_probable_state(self):
        s = EntropyValue(2.5, 1.0)
        assert einstein_probability(s, s) == 1.0

    def test_log_two_deficit(self):
        s_ref = EntropyValue(1.0, 1.0)
        s = EntropyValue(1.0 - math.log(2), 1.0)
        assert einstein_probability(s, s_ref) == pytest.approx(0.5, abs=1e-12)

    def test_from_negentropy_example(self):
        lhs, _ = negentropy_relation(Macrostate([3, 1]), [2.0, 2.0])
        s_ref = EntropyValue(0.0, 1.0)
        s = EntropyValue(-lhs, 1.0)
        # exp(-(3 ln(3/2) + ln(1/2))) = (2/3)^3 * 2 = 16/27
        assert einstein_probability(s, s_ref) == pytest.approx(
            16 / 27, abs=1e-12
        )

    def test_k_mismatch(self):
        with pytest.raises(ValidationError, match=r"^k 1\.0 vs 2\.0$"):
            einstein_probability(EntropyValue(0.0, 1.0), EntropyValue(0.0, 2.0))

    def test_exceeds_reference(self):
        with pytest.raises(ValidationError, match="exceeds reference"):
            einstein_probability(EntropyValue(1.0, 1.0), EntropyValue(0.0, 1.0))

    def test_convergence_to_exact_probability(self):
        """The fluctuation formula approaches the exact multinomial
        probability (per particle) as N grows, at uniform priors."""
        p = (0.6, 0.4)
        prior = uniform_prior(2)
        gaps = []
        for total in (10, 100, 1000):
            m = round_to_macrostate(total, p)
            log_p = log_macrostate_probability(m, prior)
            mean = [total * q for q in prior.entries]
            lhs, rhs = negentropy_relation(m, mean)
            gaps.append(abs(log_p - (-lhs)) / total)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
