"""The brute-force verification harness itself."""

import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from boltzkit import (
    EnergySpectrum,
    Macrostate,
    ProbabilityVector,
    SystemSpec,
    check_einstein_convergence,
    check_most_probable_state,
    check_normalization_and_means,
    check_weight_dominance,
    default_suite,
    reports_to_json,
    round_to_macrostate,
    uniform_prior,
)
from boltzkit import combinatorics
from boltzkit.combinatorics import macrostate_probability_exact
from boltzkit.equilibrium import generalized_distribution
from boltzkit.errors import ValidationError
from boltzkit.oracle import _exact_report, format_fraction


def two_level_spec(priors, particles):
    return SystemSpec(
        spectrum=EnergySpectrum([0.0, 1.0]),
        prior=ProbabilityVector(priors),
        particles=particles,
    )


def test_round_to_macrostate_is_deterministic_and_sum_preserving():
    m = round_to_macrostate(3, (0.5, 0.5))
    assert m.occupations == (2, 1)  # tie goes to the lowest index
    m = round_to_macrostate(10, (0.731, 0.269))
    assert m.occupations == (7, 3)
    for total, p in [(7, (0.2, 0.3, 0.5)), (11, (0.6, 0.4)), (1, (0.9, 0.1))]:
        assert round_to_macrostate(total, p).total == total


@pytest.mark.parametrize("total, p, message", [
    (10, [0.6, 0.6], "probabilities sum to 1.2"),
    (2.5, [0.5, 0.5], "composition total 2.5 is not an integer >= 0"),
    (10, [math.nan, 1.0], "probability entry nan is not >= 0"),
    (True, [0.5, 0.5], "composition total True is not an integer >= 0"),
], ids=["sum-above-one", "fractional-total", "nan-entry", "bool-total"])
def test_round_to_macrostate_checks_its_inputs(total, p, message):
    with pytest.raises(ValidationError, match=f"^{message}"):
        round_to_macrostate(total, p)


def test_format_fraction():
    assert format_fraction(Fraction(1)) == "1"
    assert format_fraction(Fraction(3, 2)) == "1.5"
    assert format_fraction(Fraction(1, 3)).startswith("0.3333333333333")
    # 7**20000 has 16,902 digits, past the 4,300 that str() of an int allows
    value = 7**20000
    digits = format_fraction(Fraction(value))
    assert len(digits) == 16902 and digits.isdigit()
    assert int(digits[:4000]) == value // 10**12902
    assert int(digits[-4000:]) == value % 10**4000
    assert format_fraction(Fraction(-(10**5000))) == "-1" + "0" * 5000


class TestNormalizationAndMeans:
    def test_symmetric_small_case(self):
        reports = check_normalization_and_means(two_level_spec([0.5, 0.5], 3))
        assert all(r.passed for r in reports)
        norm = reports[0]
        assert norm.exact_value == "1"
        assert norm.abs_error == 0.0
        means = reports[1:]
        assert [r.exact_value for r in means] == ["1.5", "1.5"]

    def test_single_particle_means_equal_prior(self):
        reports = check_normalization_and_means(two_level_spec([0.25, 0.75], 1))
        assert all(r.passed for r in reports)
        assert reports[1].exact_value == "0.25"
        assert reports[2].exact_value == "0.75"

    def test_non_dyadic_prior_through_fractions(self):
        spec = SystemSpec(
            spectrum=EnergySpectrum([0.0, 1.0, 2.0]),
            prior=ProbabilityVector([0.2, 0.3, 0.5]),
            particles=10,
        )
        fractions = [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]
        reports = check_normalization_and_means(spec, fractions)
        assert all(r.passed for r in reports)
        assert [r.exact_value for r in reports[1:]] == ["2", "3", "5"]

    @pytest.mark.parametrize(
        "exact_prior, float_prior",
        [
            # non-dyadic rationals
            ([Fraction(1, 3), Fraction(2, 3)], None),
            ([Fraction(1, 10), Fraction(3, 10), Fraction(3, 5)], None),
            ([Fraction(1, 3), Fraction(1, 10), Fraction(1, 6), Fraction(2, 5)],
             None),
            # a level no particle may occupy
            ([Fraction(0), Fraction(1, 3), Fraction(2, 3)], None),
            ([Fraction(1, 7), Fraction(0), Fraction(2, 7), Fraction(4, 7)],
             None),
            # float priors, converted exactly (0.1 is not 1/10)
            (None, [1.0]),
            (None, [0.1, 0.9]),
            (None, [0.1, 0.2, 0.7]),
            (None, [0.1, 0.2, 0.3, 0.4]),
            # priors that do not sum to 1: both routes fail the same way
            ([Fraction(1, 3)], None),
            ([Fraction(1, 3), Fraction(1, 3)], None),
            ([Fraction(1, 10)] * 4, None),
        ],
        ids=["thirds-2", "tenths-3", "mixed-4", "zero-3", "zero-4",
             "float-1", "float-2", "float-3", "float-4",
             "short-1", "short-2", "short-4"],
    )
    def test_matches_per_composition_fraction_route(
        self, exact_prior, float_prior
    ):
        """Every report field equals the one built from a Fraction product
        per composition, over compositions enumerated independently."""
        n = len(exact_prior or float_prior)
        prior = exact_prior or [Fraction(q) for q in float_prior]
        for total in range(1, 11):
            spec = SystemSpec(
                spectrum=EnergySpectrum([float(i) for i in range(n)]),
                prior=ProbabilityVector(float_prior or [1.0 / n] * n),
                particles=total,
            )
            total_p = Fraction(0)
            means = [Fraction(0)] * n
            for occ in itertools.product(range(total + 1), repeat=n):
                if sum(occ) != total:
                    continue
                p = macrostate_probability_exact(Macrostate(occ), prior)
                total_p += p
                for j, x in enumerate(occ):
                    means[j] += x * p
            instance = f"N={total} n={n} prior={[str(q) for q in prior]}"
            want = [
                _exact_report("normalization_sums_to_one", instance,
                              Fraction(1), total_p)
            ] + [
                _exact_report(f"mean_occupation_level_{j + 1}", instance,
                              total * prior[j], mean)
                for j, mean in enumerate(means)
            ]
            reports = check_normalization_and_means(spec, exact_prior)
            assert reports == want
            # binary 0.1 + 0.9 is not 1 either
            assert reports[0].passed is (sum(prior) == 1)

    @pytest.mark.parametrize("dropped", [0, 13, -1])
    def test_dropping_one_composition_fails(self, drop_members, dropped):
        """The integer sums see every composition: losing any one of them
        (first, one in the middle, last) from its run fails the
        normalization."""
        drop_members([list(combinatorics.CompositionSet(6, 3).iter_tuples())[dropped]])
        spec = SystemSpec(
            spectrum=EnergySpectrum([0.0, 1.0, 2.0]),
            prior=ProbabilityVector([0.25, 0.25, 0.5]),
            particles=6,
        )
        reports = check_normalization_and_means(
            spec, [Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)]
        )
        assert reports[0].passed is False
        assert reports[0].exact_value != "1"

    def test_dropping_any_four_level_composition_fails(self, drop_members):
        """Four levels share rows between runs, and each run must still sum
        its own members: losing any one of the 84 fails the normalization."""
        spec = SystemSpec(
            spectrum=EnergySpectrum([0.0, 1.0, 2.0, 3.0]),
            prior=ProbabilityVector([0.5, 0.25, 0.125, 0.125]),
            particles=6,
        )
        assert all(r.passed for r in check_normalization_and_means(spec))
        members = list(combinatorics.CompositionSet(6, 4).iter_tuples())
        assert len(members) == 84
        for member in members:
            drop_members([member])
            reports = check_normalization_and_means(spec)
            assert reports[0].passed is False, member

    @pytest.mark.parametrize("exact_prior, shown", [
        ([-0.5, 1.5], "-0.5"),
        (["a", 1], "'a'"),
        ([math.nan, 0.5], "nan"),
        ([True, False], "True"),
    ], ids=["negative", "string", "nan", "bool"])
    def test_exact_prior_entries_are_rationals_at_least_zero(self, exact_prior, shown):
        with pytest.raises(ValidationError,
                           match=rf"^exact prior {shown} is not a rational >= 0$"):
            check_normalization_and_means(two_level_spec([0.5, 0.5], 2), exact_prior)

    def test_size_guard(self):
        spec = SystemSpec(
            spectrum=EnergySpectrum([0.0] * 5),
            prior=uniform_prior(5),
            particles=200,
        )
        with pytest.raises(ValidationError, match="compositions exceed the cap"):
            check_normalization_and_means(spec)


class TestMostProbableState:
    def test_symmetric_mode(self):
        report = check_most_probable_state(two_level_spec([0.5, 0.5], 4), 0.0)
        assert report.passed
        assert report.exact_value == "[2, 2]"

    def test_two_level_at_unit_beta(self):
        # equilibrium p = (0.731..., 0.269...); the exhaustive argmax is
        # [8, 2], matching the binomial mode floor((N+1) p_2) = 2, and it
        # sits within n/N of the continuous distribution
        report = check_most_probable_state(two_level_spec([0.5, 0.5], 10), 1.0)
        assert report.passed
        assert report.exact_value == "[8, 2]"
        assert report.approx_value <= report.tolerance == pytest.approx(0.2)

    def test_uniform_three_level(self):
        spec = SystemSpec(
            spectrum=EnergySpectrum([0.0, 0.0, 0.0]),
            prior=uniform_prior(3),
            particles=3,
        )
        report = check_most_probable_state(spec, 1.0)
        assert report.exact_value == "[1, 1, 1]"
        assert report.passed

    @pytest.mark.parametrize(
        "levels,priors",
        [
            # the systems of acceptance criterion 11
            ([0.0], [1.0]),
            ([0.0, 1.0], [0.5, 0.5]),
            ([0.0, 1.0], [0.25, 0.75]),
            ([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3]),
            ([0.0, 1.0, 2.0], [0.5, 0.3, 0.2]),
            # a level no particle may occupy
            ([0.0, 1.0, 2.0], [0.5, 0.0, 0.5]),
        ],
        ids=["one-level", "two-uniform", "two-skewed", "three-uniform",
             "three-skewed", "three-zero-prior"],
    )
    def test_matches_brute_force_reference(self, levels, priors):
        """Same argmax and distance as scoring every occupation vector,
        enumerated independently, with a validated Macrostate and the exact
        rational probability under the float distribution; the first vector
        in lexicographic order wins ties."""
        for total in range(1, 13):
            spec = SystemSpec(
                spectrum=EnergySpectrum(levels),
                prior=ProbabilityVector(priors),
                particles=total,
            )
            # at beta = 740 a two-level p has a subnormal entry, so the
            # common denominator of its entries is 2**1074
            for beta in (0.0, 1.0, 740.0):
                p = generalized_distribution(
                    spec.spectrum, spec.prior, beta
                ).distribution
                exact_p = [Fraction(q) for q in p.entries]
                best, best_p = None, Fraction(-1)
                for occ in itertools.product(range(total + 1), repeat=len(levels)):
                    if sum(occ) != total:
                        continue
                    prob = macrostate_probability_exact(Macrostate(occ), exact_p)
                    if prob > best_p:
                        best, best_p = occ, prob
                distance = max(abs(x / total - q) for x, q in zip(best, p.entries))
                report = check_most_probable_state(spec, beta)
                assert report.exact_value == str(list(best))
                assert report.approx_value == distance
                assert report.passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_uniform_prior_tie_goes_to_the_first_composition(self, n):
        """With every level equally likely, each permutation of the balanced
        occupation is an exact tie; the first in lexicographic order, the
        smaller counts first, wins whatever the order of the float sums."""
        for total in range(1, 25):
            spec = SystemSpec(
                spectrum=EnergySpectrum([0.0] * n),
                prior=uniform_prior(n),
                particles=total,
            )
            q, rem = divmod(total, n)
            report = check_most_probable_state(spec, 0.0)
            assert report.exact_value == str([q] * (n - rem) + [q + 1] * rem)

    def test_zero_probability_compositions_are_not_kept(self):
        """Only level 0 has mass: every composition but the last, [N, 0, ...],
        scores -inf, and the scan keeps none of them (10,626 here)."""
        spec = SystemSpec(
            spectrum=EnergySpectrum([0.0, 1.0, 2.0, 3.0, 4.0]),
            prior=ProbabilityVector([1.0, 0.0, 0.0, 0.0, 0.0]),
            particles=20,
        )
        for beta in (0.0, 1.0):
            tracemalloc.start()
            try:
                report = check_most_probable_state(spec, beta)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.exact_value == "[20, 0, 0, 0, 0]"
            assert report.passed
            assert peak < 200_000  # keeping them all takes about 1.7 MB

    @pytest.mark.parametrize(
        "priors, beta, argmax",
        [([0.5, 0.5], 1.0, (8, 2)), ([0.25, 0.75], 0.0, (3, 8))],
    )
    def test_dropping_the_argmax_fails(self, drop_members, priors, beta, argmax):
        """The scan sees every composition: without the argmax another
        composition is reported."""
        total = sum(argmax)
        spec = two_level_spec(priors, total)
        assert check_most_probable_state(spec, beta).exact_value == str(list(argmax))
        drop_members([argmax])
        assert check_most_probable_state(spec, beta).exact_value != str(list(argmax))

    def test_dropping_any_four_level_composition(self, drop_members):
        """With any one of the 84 compositions lost from its run, the scan
        reports the first exact argmax of the other 83; without the argmax
        another composition is reported."""
        spec = SystemSpec(
            spectrum=EnergySpectrum([0.0, 0.4, 1.1, 2.0]),
            prior=ProbabilityVector([0.4, 0.3, 0.2, 0.1]),
            particles=6,
        )
        p = generalized_distribution(spec.spectrum, spec.prior, 1.0).distribution
        exact_p = [Fraction(q) for q in p.entries]
        members = list(combinatorics.CompositionSet(6, 4).iter_tuples())
        prob = {occ: macrostate_probability_exact(Macrostate(occ), exact_p)
                for occ in members}
        argmax = max(members, key=prob.get)
        assert check_most_probable_state(spec, 1.0).exact_value == str(list(argmax))
        for member in members:
            drop_members([member])
            want = max((occ for occ in members if occ != member), key=prob.get)
            got = check_most_probable_state(spec, 1.0).exact_value
            assert got == str(list(want)), member
            assert (got == str(list(argmax))) is (member != argmax)

    def test_size_guard(self):
        spec = SystemSpec(
            spectrum=EnergySpectrum([0.0] * 5),
            prior=uniform_prior(5),
            particles=200,
        )
        with pytest.raises(ValidationError, match="compositions exceed the cap"):
            check_most_probable_state(spec, 1.0)


class TestEinsteinConvergence:
    def test_decreasing_gap_for_offset_distribution(self):
        reports = check_einstein_convergence(
            ProbabilityVector([0.6, 0.4]), uniform_prior(2), (10, 100, 1000)
        )
        assert [r.passed for r in reports] == [True, True, True]
        gaps = [r.approx_value for r in reports]
        assert gaps[0] == pytest.approx(0.13830091393750948, abs=1e-12)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_mode_case_has_small_gap(self):
        reports = check_einstein_convergence(
            ProbabilityVector([0.5, 0.5]), uniform_prior(2), (10, 100)
        )
        # at the mode both sides are near zero; the gap is the Stirling
        # error of ln W alone, order ln(N)/N
        assert reports[-1].approx_value < 0.05

    def test_rows_carry_the_relative_change(self):
        reports = check_einstein_convergence(
            ProbabilityVector([0.6, 0.4]), uniform_prior(2), (10, 100, 1000)
        )
        first, second = reports[0], reports[1]
        assert (first.abs_error, first.rel_error, first.tolerance) == (0.0, 0.0, 0.0)
        assert second.tolerance == first.approx_value
        assert second.abs_error == second.approx_value - first.approx_value
        assert second.rel_error == second.abs_error / first.approx_value

    def test_zero_previous_gap_returns_reports(self):
        # every macrostate is (N, 0); both gaps are 0, and a gap of 0
        # cannot shrink further, so the second row fails instead of raising
        reports = check_einstein_convergence(
            ProbabilityVector([1.0, 0.0]), uniform_prior(2), (1, 2)
        )
        assert [r.approx_value for r in reports] == [0.0, 0.0]
        assert [r.passed for r in reports] == [True, False]
        assert reports[1].rel_error == reports[1].abs_error == 0.0

    @pytest.mark.parametrize("schedule", [(0, 5), (5, 0), (-1, 5)])
    def test_schedule_without_particles_is_a_validation_error(self, schedule):
        # the gap is per particle: N = 0 used to divide by zero
        with pytest.raises(ValidationError):
            check_einstein_convergence(
                ProbabilityVector([0.6, 0.4]), uniform_prior(2), schedule
            )

    def test_support_violation(self):
        with pytest.raises(ValidationError, match="p has mass where the prior"):
            check_einstein_convergence(
                ProbabilityVector([0.5, 0.5]),
                ProbabilityVector([1.0, 0.0]),
                (10,),
            )


class TestWeightDominance:
    def test_known_first_ratio(self):
        schedule = (10, 100, 1000, 10000)
        reports = check_weight_dominance(2, schedule)
        assert reports[0].approx_value == pytest.approx(
            math.log(252) / (10 * math.log(2)), abs=1e-12
        )
        assert all(r.passed for r in reports)
        assert [r.exact_value for r in reports] == [
            str(math.comb(total, total // 2)) for total in schedule]
        ratios = [r.approx_value for r in reports]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("total", [10, 1000])
    def test_exact_mode_records_the_integer(self, total):
        (report,) = check_weight_dominance(2, (total,))
        assert report.exact_value == str(math.comb(total, total // 2))

    @pytest.mark.parametrize("total", [10, 1000])
    def test_dropping_the_maximal_weight_fails(self, drop_members, total):
        """The exact scan sees every composition at every N: without the
        balanced vector, whose weight C(N, N/2) is the maximum, the next
        largest weight C(N, N/2 - 1) is reported."""
        drop_members([(total // 2, total // 2)])
        (report,) = check_weight_dominance(2, (total,))
        assert report.exact_value == str(math.comb(total, total // 2 - 1))

    def test_dropping_four_level_compositions(self, drop_members):
        """Four levels share rows between runs, and each run must still take
        the max of its own members: with any one of the 84 compositions
        lost, W_max is the largest weight of the other 83, and without the
        six permutations of (2, 2, 1, 1) it falls from 180 to 120."""
        members = list(combinatorics.CompositionSet(6, 4).iter_tuples())
        weight = {occ: combinatorics._exact_weight(occ) for occ in members}
        for member in members:
            drop_members([member])
            (report,) = check_weight_dominance(4, (6,))
            want = max(w for occ, w in weight.items() if occ != member)
            assert report.exact_value == str(want), member
        top = [occ for occ, w in weight.items() if w == 180]
        assert len(top) == 6
        drop_members(top)
        (report,) = check_weight_dominance(4, (6,))
        assert report.exact_value == "120"

    @pytest.mark.parametrize("lost", [550, 367])
    def test_a_run_without_members_is_skipped(self, monkeypatch, lost):
        """A planted walk empties the run of head (lost,) at N = 1,100, whose
        max folds to -inf: head (550,) has the factor C(1100, 550) ~ 1e329,
        past float range, and head (367,) holds a largest weight. W_max is
        the largest weight of the other members, C(N, h) C(N - h, (N - h)
        // 2) over the other heads h."""
        walk, total = combinatorics._runs, 1100

        def runs(total, parts):
            for head, r, xs in walk(total, parts):
                yield head, r, (() if head == (lost,) else xs)

        monkeypatch.setattr(combinatorics, "_runs", runs)
        (report,) = check_weight_dominance(3, (total,))
        assert report.exact_value == str(max(
            math.comb(total, h) * math.comb(total - h, (total - h) // 2)
            for h in range(total + 1) if h != lost))

    def test_weight_beyond_the_int_str_digit_limit(self):
        # C(20000, 10000) has 6,019 digits; str() of an int refuses 4,301
        (report,) = check_weight_dominance(2, (20000,))
        digits = report.exact_value
        assert len(digits) == 6019 and digits.isdigit()
        assert int(digits[:4300]) == math.comb(20000, 10000) // 10**1719
        assert report.passed

    def test_set_above_the_size_cap_is_refused(self):
        # n = 4 at N = 1,000 holds C(1003, 3) = 1.677e+8 compositions
        with pytest.raises(ValidationError, match="1.677e[+]8 compositions exceed"):
            check_weight_dominance(4, (1000,))

    def test_zero_previous_ratio_returns_reports(self):
        # N = 1 has W_max = 1, so the first ratio is 0
        first, second = check_weight_dominance(2, (1, 10))
        assert first.approx_value == 0.0 and first.passed
        assert second.passed and second.tolerance == 0.0
        assert second.rel_error == second.abs_error == -second.approx_value

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("schedule", [(0, 5), (5, 0), (-1, 5)])
    def test_schedule_without_particles_is_a_validation_error(self, n, schedule):
        # the ratio divides by N ln n: N = 0 used to divide by zero
        with pytest.raises(ValidationError):
            check_weight_dominance(n, schedule)

    def test_degenerate_single_level(self):
        reports = check_weight_dominance(1, (5, 50))
        assert all(r.passed for r in reports)
        assert all(r.approx_value == 1.0 for r in reports)


class TestSuite:
    def test_quick_suite_passes_fast(self):
        start = time.perf_counter()
        reports = default_suite("quick")
        elapsed = time.perf_counter() - start
        assert reports and all(r.passed for r in reports)
        assert elapsed < 60.0

    def test_full_suite_passes_fast(self):
        start = time.perf_counter()
        reports = default_suite("full")
        elapsed = time.perf_counter() - start
        assert reports and all(r.passed for r in reports)
        assert elapsed < 60.0
        names = {r.check_name for r in reports}
        assert "einstein_probability_convergence" in names

    def test_reports_serialize_with_snake_case_keys(self):
        reports = default_suite("quick")
        parsed = json.loads(reports_to_json(reports))
        assert len(parsed) == len(reports)
        assert set(parsed[0]) == {
            "check_name", "instance", "exact_value", "approx_value",
            "abs_error", "rel_error", "passed", "tolerance",
        }

    def test_suite_is_deterministic(self):
        assert reports_to_json(default_suite("quick")) == reports_to_json(
            default_suite("quick")
        )
