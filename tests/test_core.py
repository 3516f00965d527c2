"""Domain-type validation and the spec-file contract."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boltzkit import (
    EnergySpectrum,
    Macrostate,
    ProbabilityVector,
    SystemSpec,
    uniform_prior,
    validate_spec,
)
from boltzkit.core import load_spec
from boltzkit.errors import (
    LengthMismatch,
    NegativePrior,
    NonFiniteEnergy,
    NonPositiveN,
    PriorSumMismatch,
    ValidationError,
    ZeroLevels,
)


class TestEnergySpectrum:
    def test_accepts_unsorted_and_degenerate(self):
        s = EnergySpectrum([2.0, 0.0, 2.0, -1.0])
        assert s.levels == (2.0, 0.0, 2.0, -1.0)
        assert s.count == 4

    def test_rejects_empty(self):
        with pytest.raises(ZeroLevels):
            EnergySpectrum([])

    @pytest.mark.parametrize(
        "bad", ["a", None, [1], 10**400], ids=["str", "null", "list", "huge"]
    )
    def test_rejects_non_numbers_as_validation_errors(self, bad):
        with pytest.raises(ValidationError):
            EnergySpectrum([bad, 1.0])

    def test_still_coerces_numeric_strings(self):
        assert EnergySpectrum(["1.5", 2]).levels == (1.5, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteEnergy):
            EnergySpectrum([0.0, bad])


class TestProbabilityVector:
    def test_accepts_zero_entries(self):
        p = ProbabilityVector([1.0, 0.0])
        assert p.entries == (1.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(NegativePrior):
            ProbabilityVector([1.1, -0.1])

    def test_rejects_nan(self):
        with pytest.raises(NegativePrior):
            ProbabilityVector([math.nan, 1.0])

    def test_rejects_sum_off_by_more_than_tolerance(self):
        with pytest.raises(PriorSumMismatch):
            ProbabilityVector([0.5, 0.5 + 2e-12])

    def test_accepts_sum_within_tolerance(self):
        p = ProbabilityVector([0.5, 0.5 + 5e-13])
        assert abs(math.fsum(p.entries) - 1.0) <= 1e-12

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_every_construction_is_normalized_and_nonnegative(self, raw):
        total = math.fsum(raw)
        if total <= 0.0:
            return
        p = ProbabilityVector(x / total for x in raw)
        assert abs(math.fsum(p.entries) - 1.0) <= 1e-12
        assert min(p.entries) >= 0.0


class TestMacrostate:
    def test_total_is_derived_and_checked(self):
        m = Macrostate([3, 0, 2])
        assert m.total == 5
        assert Macrostate([3, 0, 2], total=5) == m
        with pytest.raises(ValidationError):
            Macrostate([3, 0, 2], total=4)

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(ValidationError):
            Macrostate([1, -1])
        with pytest.raises(ValidationError):
            Macrostate([1.5, 0.5])

    @pytest.mark.parametrize(
        "bad", ["a", None, [1], math.inf, math.nan],
        ids=["str", "null", "list", "inf", "nan"],
    )
    def test_rejects_non_numbers_as_validation_errors(self, bad):
        with pytest.raises(ValidationError):
            Macrostate([bad])


class TestUniformPrior:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1.0,)), (2, (0.5, 0.5)), (4, (0.25, 0.25, 0.25, 0.25))],
    )
    def test_values(self, n, expected):
        assert uniform_prior(n).entries == expected

    def test_zero_levels(self):
        with pytest.raises(ZeroLevels):
            uniform_prior(0)


class TestValidateSpec:
    def test_well_formed(self):
        spec = validate_spec({"levels": [0, 1], "priors": [0.5, 0.5], "N": 10})
        assert spec.particles == 10
        assert spec.boltzmann_k == 1.0
        assert spec.prior.entries == (0.5, 0.5)

    def test_idempotent(self):
        raw = {"levels": [0, 1], "priors": [0.5, 0.5], "N": 10, "k": 2.0}
        once = validate_spec(raw)
        assert validate_spec(once) == once

    def test_sum_violation_rejected(self):
        with pytest.raises(PriorSumMismatch):
            validate_spec({"levels": [0, 1], "priors": [0.5, 0.6], "N": 10})

    def test_renormalizes_small_drift(self):
        spec = validate_spec(
            {"levels": [0, 1], "priors": [0.5, 0.5 + 5e-10], "N": 3}
        )
        assert abs(math.fsum(spec.prior.entries) - 1.0) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_spec({"levels": [0, 1, 2], "priors": [0.5, 0.5], "N": 5})

    def test_non_positive_n(self):
        with pytest.raises(NonPositiveN):
            validate_spec({"levels": [0, 1], "priors": [0.5, 0.5], "N": 0})
        with pytest.raises(NonPositiveN):
            validate_spec({"levels": [0, 1], "priors": [0.5, 0.5], "N": 2.5})

    @pytest.mark.parametrize(
        "bad", [None, "a", [0.5]], ids=["null", "str", "list"]
    )
    def test_non_number_prior_is_a_validation_error(self, bad):
        with pytest.raises(ValidationError):
            validate_spec({"levels": [0.0, 1.0], "priors": [bad, 0.5], "N": 2})

    def test_k_beyond_float_range_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            validate_spec({"levels": [0.0], "priors": [1.0], "N": 1, "k": 10**400})

    def test_negative_prior(self):
        with pytest.raises(NegativePrior):
            validate_spec({"levels": [0, 1], "priors": [1.5, -0.5], "N": 2})

    def test_non_finite_energy(self):
        with pytest.raises(NonFiniteEnergy):
            validate_spec(
                {"levels": [0, math.inf], "priors": [0.5, 0.5], "N": 2}
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            validate_spec(
                {"levels": [0, 1], "priors": [0.5, 0.5], "N": 2, "extra": 1}
            )

    def test_load_spec_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"levels": [0, 1], "priors": [0.25, 0.75], "N": 4, "k": 2.0}')
        spec = load_spec(str(path))
        assert spec == SystemSpec(
            spectrum=EnergySpectrum([0.0, 1.0]),
            prior=ProbabilityVector([0.25, 0.75]),
            particles=4,
            boltzmann_k=2.0,
        )

    def test_load_spec_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError):
            load_spec(str(path))
