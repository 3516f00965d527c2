"""Exact combinatorics: weights, compositions, multinomial probabilities.

Expected values are produced by independent routes (direct factorial
arithmetic, stars-and-bars counting, exact rational products) and frozen.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltzkit import (
    Macrostate,
    ProbabilityVector,
    macrostate_probability_exact,
    statistical_weight,
    uniform_prior,
    weight_ratio_probability,
)
from boltzkit.combinatorics import (
    CompositionSet,
    _exact_weight,
    _log_priors,
    _runs,
    _sum,
    _sums,
    _terms,
    _top,
    log_macrostate_probability,
)
from boltzkit.errors import ValidationError


def brute_weight(occupations):
    """Independent route: direct factorial arithmetic."""
    w = math.factorial(sum(occupations))
    for x in occupations:
        w //= math.factorial(x)
    return w


def test_weight_examples():
    assert statistical_weight(Macrostate([7, 0, 0])).exact == 1
    assert statistical_weight(Macrostate([2, 1])).exact == 3
    assert statistical_weight(Macrostate([1, 1, 1])).exact == 6


@given(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5)
)
def test_weight_matches_brute_force_and_log(occ):
    w = statistical_weight(Macrostate(occ))
    assert w.exact == brute_weight(occ)
    assert w.exact >= 1
    if w.exact > 1:
        assert abs(w.log_value - math.log(w.exact)) <= 1e-10 * abs(
            math.log(w.exact)
        ) + 1e-12
    else:
        assert abs(w.log_value) <= 1e-12


def test_log_weight_beyond_float_range():
    # 2000!/(1000!)^2 overflows float; the log-gamma route must not.
    w = statistical_weight(Macrostate([1000, 1000]))
    assert abs(w.log_value - math.log(w.exact)) <= 1e-10 * w.log_value


class TestCompositions:
    def test_empty_system(self):
        assert [m.occupations for m in CompositionSet(0, 3)] == [
            (0, 0, 0)
        ]

    def test_three_over_two(self):
        got = [m.occupations for m in CompositionSet(3, 2)]
        assert got == [(0, 3), (1, 2), (2, 1), (3, 0)]  # lexicographic
        assert CompositionSet(3, 2).cardinality == 4

    def test_cardinality_is_exact_at_any_size(self):
        comps = CompositionSet(10_000, 100)
        assert comps.cardinality == math.comb(10_099, 99)
        assert comps.cardinality > 2**63  # beyond what len() could return
        assert not hasattr(comps, "__len__")

    def test_counts_match_stars_and_bars(self):
        for total, parts in [(2, 3), (5, 4), (12, 3), (0, 1)]:
            comps = CompositionSet(total, parts)
            members = list(comps)
            assert len(members) == math.comb(total + parts - 1, parts - 1)
            assert len(set(m.occupations for m in members)) == len(members)
            assert all(m.total == total for m in members)

    @settings(max_examples=30)
    @given(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=1, max_value=4),
    )
    def test_lexicographic_no_duplicates(self, total, parts):
        seq = [m.occupations for m in CompositionSet(total, parts)]
        assert seq == sorted(seq)
        assert len(seq) == len(set(seq))

    @pytest.mark.parametrize("parts", range(1, 6))
    @pytest.mark.parametrize("total", range(0, 9))
    def test_successor_walk_matches_sorted_product(self, total, parts):
        want = sorted(
            occ
            for occ in itertools.product(range(total + 1), repeat=parts)
            if sum(occ) == total
        )
        got = list(CompositionSet(total, parts).iter_tuples())
        assert got == want
        assert len(got) == CompositionSet(total, parts).cardinality
        assert len(set(got)) == len(got)

    def test_size_guard_on_materialize(self):
        comps = CompositionSet(200, 5)  # ~70e6 members
        with pytest.raises(ValidationError, match="compositions exceed the cap"):
            comps.materialize()
        small = CompositionSet(3, 2).materialize()
        assert len(small) == 4

    def test_size_cap_message_rounds_the_count(self):
        # the count has 241 digits; the message shows it to four
        with pytest.raises(ValidationError) as info:
            CompositionSet(10_000, 100).materialize()
        assert str(info.value) == "1.755e+240 compositions exceed the cap 10000000"


class TestMacrostateProbability:
    def test_deterministic_placement(self):
        p = ProbabilityVector([1.0, 0.0])
        assert math.exp(
            log_macrostate_probability(Macrostate([5, 0]), p)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_binomial_example(self):
        p = math.exp(
            log_macrostate_probability(Macrostate([2, 1]), uniform_prior(2))
        )
        assert p == pytest.approx(0.375, abs=1e-12)  # 3 * (1/2)^3

    def test_direct_product_example(self):
        p = math.exp(log_macrostate_probability(
            Macrostate([1, 1]), ProbabilityVector([0.25, 0.75])
        ))
        assert p == pytest.approx(2 * 0.25 * 0.75, abs=1e-12)

    def test_zero_prior_occupied_is_zero_not_error(self):
        p = ProbabilityVector([1.0, 0.0])
        assert log_macrostate_probability(Macrostate([1, 1]), p) == -math.inf

    @pytest.mark.parametrize("weights, shown", [
        ([0.5, "a"], "'a'"),
        ([math.nan, 0.5], "nan"),
        ([0.5, math.inf], "inf"),
        ([-0.5, 1.5], "-0.5"),
        ([True, False], "True"),
    ], ids=["string", "nan", "inf", "negative", "bool"])
    def test_raw_weights_follow_the_sequence_rule(self, weights, shown):
        m = Macrostate([1, 1])
        with pytest.raises(ValidationError):
            log_macrostate_probability(m, weights)
        with pytest.raises(ValidationError,
                           match=rf"^prior weight {shown} is not a rational >= 0$"):
            macrostate_probability_exact(m, weights)

    def test_unnormalized_weights_stay_accepted(self):
        m = Macrostate([1, 1])
        assert log_macrostate_probability(m, [2, 0]) == -math.inf
        assert log_macrostate_probability(m, [2, 3]) == pytest.approx(math.log(12))
        assert macrostate_probability_exact(m, [2, "1/3"]) == Fraction(4, 3)

    def test_exact_rational_path(self):
        prior = [Fraction(1, 4), Fraction(3, 4)]
        got = macrostate_probability_exact(Macrostate([1, 1]), prior)
        assert got == Fraction(3, 8)


class TestWeightRatio:
    def test_examples(self):
        assert weight_ratio_probability(Macrostate([1, 1])) == pytest.approx(0.5)
        assert weight_ratio_probability(Macrostate([2, 1])) == pytest.approx(3 / 8)
        # single microstate over n^N of them
        assert weight_ratio_probability(Macrostate([4, 0, 0])) == pytest.approx(
            1 / 3**4
        )

    def test_equals_uniform_prior_probability(self):
        for occ in [(2, 1), (3, 3), (0, 4, 1)]:
            m = Macrostate(occ)
            via_ratio = weight_ratio_probability(m)
            via_multinomial = math.exp(log_macrostate_probability(
                m, uniform_prior(len(occ))
            ))
            assert via_ratio == pytest.approx(via_multinomial, rel=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValidationError, match="compositions exceed the cap"):
            weight_ratio_probability(Macrostate([100] * 5))

    @pytest.mark.parametrize("occ, size", [((2, 3, 1), 28), ((2, 1, 2, 1), 84)])
    def test_dropping_any_one_composition_changes_the_ratio(self, drop_members,
                                                            occ, size):
        """The weight sum sees every composition: without any one of them,
        missing from its run, the ratio is no longer W / n**N. Four levels
        share rows between runs, and each run must still sum its own."""
        m = Macrostate(occ)
        want = float(Fraction(brute_weight(occ), len(occ) ** 6))
        assert weight_ratio_probability(m) == want
        members = list(CompositionSet(6, len(occ)).iter_tuples())
        assert len(members) == size
        for member in members:
            drop_members([member])
            assert weight_ratio_probability(m) != want, member


#: integer per-level weights a_i for the term scan, zeros included
TERM_WEIGHTS = [(1, 1, 1, 1, 1), (3, 0, 2, 1, 5), (0, 4, 1, 0, 2), (7, 2, 0, 0, 0)]


def folds(xs, row):
    """Every fold the scans use, at once."""
    return _sum(xs, row), _sums(xs, row), _top(xs, row)


class TestTerms:
    """The per-run terms against the per-composition formulas."""

    @pytest.mark.parametrize("parts", range(1, 6))
    @pytest.mark.parametrize("total", range(0, 11))
    def test_matches_per_composition_terms(self, total, parts):
        walk = list(CompositionSet(total, parts).iter_tuples())
        for weights in TERM_WEIGHTS:
            a = weights[:parts]
            log_a = _log_priors(a)
            exact = list(_terms(total, parts, a, folds))
            logs = list(_terms(total, parts, log_a, _top, log=True))
            assert [run[:3] for run in exact] == [run[:3] for run in logs]
            assert [run[:3] for run in exact] == list(_runs(total, parts))
            members = []
            for (head, r, xs, factor, row, folded), (
                _, _, _, log_factor, log_row, log_folded
            ) in zip(exact, logs):
                terms, log_terms = [], []
                for x in xs:
                    occ = (*head, x, r - x)[:parts]
                    members.append(occ)
                    want = _exact_weight(occ)
                    for ai, count in zip(a, occ):
                        want *= ai**count
                    assert factor * row[x] == want, (a, occ)
                    terms.append(want)
                    want = log_macrostate_probability(Macrostate(occ), a)
                    value = log_factor + log_row[x]
                    if want == -math.inf:
                        assert value == -math.inf, (a, occ)
                    else:
                        assert abs(value - want) <= 1e-12, (a, occ)
                    log_terms.append(value)
                # each fold is the sum or max over this run's own members;
                # in log mode only the max is meaningful
                t_sum, (t_sum2, x_sum), t_top = folded
                assert factor * t_sum == factor * t_sum2 == sum(terms), (a, head)
                assert factor * x_sum == sum(x * t for x, t in zip(xs, terms))
                assert factor * t_top == max(terms), (a, head)
                # rounding is monotone: the best member's score, exactly
                assert log_factor + log_folded == max(log_terms), (a, head)
            assert members == walk

    @pytest.mark.parametrize("log", [False, True])
    @pytest.mark.parametrize("parts", range(1, 6))
    def test_a_run_without_members_folds_to_nothing(self, drop_members, parts, log):
        """Only a planted drop empties a run: its sums are 0, its top -inf."""
        head, r, xs = list(_runs(4, parts))[-1]
        drop_members([(*head, x, r - x)[:parts] for x in xs])
        a = [1] * parts
        runs = list(_terms(4, parts, _log_priors(a) if log else a, folds, log=log))
        assert [run[:3] for run in runs if not run[2]] == [(head, r, ())]
        assert runs[-1][-1] == (0, (0, 0), -math.inf)

    def test_one_long_row(self):
        """The exact row's binomial recurrence against ``math.comb`` over a
        row far longer than the per-composition cases reach."""
        ((head, r, xs, factor, row, total),) = _terms(1000, 2, [1, 1], _sum)
        assert (head, r, xs, factor) == ((), 1000, range(1001), 1)
        assert row == [math.comb(1000, x) for x in range(1001)]
        assert total == 2**1000


# -- structural identities over the full composition set --------------------

RATIONAL_PRIORS = {
    2: [Fraction(1, 3), Fraction(2, 3)],
    3: [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)],
    4: [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)],
}


@pytest.mark.parametrize("total", [1, 5, 12, 20])
@pytest.mark.parametrize("parts", [2, 3, 4])
def test_exact_normalization_and_means(total, parts):
    """sum(P) == 1 and sum(N_i P) == N p_i, exactly, in rational arithmetic."""
    prior = RATIONAL_PRIORS[parts]
    total_p = Fraction(0)
    means = [Fraction(0)] * parts
    for m in CompositionSet(total, parts):
        p = macrostate_probability_exact(m, prior)
        total_p += p
        for j, x in enumerate(m.occupations):
            means[j] += x * p
    assert total_p == 1
    for j in range(parts):
        assert means[j] == total * prior[j]


@pytest.mark.parametrize("total,parts", [(5, 2), (8, 3), (6, 4)])
def test_weights_sum_to_levels_to_the_particles(total, parts):
    """Big-integer identity: sum of W over all compositions is n**N."""
    acc = 0
    for m in CompositionSet(total, parts):
        acc += statistical_weight(m).exact
    assert acc == parts**total


def test_log_probability_minus_log_weight_is_prior_term():
    """ln(P/W) must equal sum(N_i ln prior_i) to rounding."""
    prior = ProbabilityVector([0.2, 0.3, 0.5])
    for m in CompositionSet(9, 3):
        log_p = log_macrostate_probability(m, prior)
        expected = math.fsum(
            x * math.log(q) for x, q in zip(m.occupations, prior.entries) if x
        )
        assert abs(
            (log_p - statistical_weight(m).log_value) - expected
        ) <= 1e-10


def test_dominance_ratio_monotone_toward_one():
    """ln W_max / ln W_total climbs toward 1 as N grows (n = 2)."""
    ratios = []
    for total in (10, 50, 200, 1000):
        half = total // 2
        log_w_max = statistical_weight(Macrostate([half, total - half])).log_value
        ratios.append(log_w_max / (total * math.log(2)))
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] == pytest.approx(0.7977279923499917, abs=1e-12)
    assert ratios[-1] < 1.0
