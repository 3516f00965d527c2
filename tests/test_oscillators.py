"""Oscillator closed forms verified against independent series summation."""

import math

import numpy as np
import pytest

from boltzkit import (
    Dimensionality,
    OscillatorModel,
    auto_truncation,
    generalized_distribution,
    mean_energy_closed,
    mean_energy_series,
    oscillator_as_system,
)
from boltzkit.errors import NonPositiveBeta, TruncationInsufficient, ValidationError
from boltzkit.oscillators import _tail_g0, _tail_g1, _tail_g2

LIN = Dimensionality.LINEAR_1D
PLA = Dimensionality.PLANAR_2D


def numpy_series(model, beta):
    """The array form mean_energy_series had before it summed in plain
    Python with math.fsum, kept as the reference: (energy, tail bound)."""
    L = model.truncation
    x = math.exp(-beta * model.h_nu)
    y = -math.expm1(-beta * model.h_nu)
    i = np.arange(1, L + 1, dtype=float)
    u = x ** (i - 1.0)
    if model.dimensionality is LIN:
        den = float(np.sum(u))
        num = float(np.sum((i - 0.5) * u))
        tail_z = _tail_g0(x, y, L)
        tail_e = _tail_g1(x, y, L) + 0.5 * _tail_g0(x, y, L)
    else:
        den = float(np.sum(i * u))
        num = float(np.sum(i * i * u))
        tail_z = _tail_g1(x, y, L) + _tail_g0(x, y, L)
        tail_e = _tail_g2(x, y, L) + 2.0 * _tail_g1(x, y, L) + _tail_g0(x, y, L)
    ratio = num / den
    return model.h_nu * ratio, model.h_nu * (tail_e + tail_z * ratio) / den


class TestClosedForm:
    def test_exp_two_points(self):
        # exp(beta h_nu) = 2 makes the occupation factor exactly 1
        beta = math.log(2)
        assert mean_energy_closed(OscillatorModel(1.0, LIN), beta) == (
            pytest.approx(1.5, abs=1e-12)
        )
        assert mean_energy_closed(OscillatorModel(1.0, PLA), beta) == (
            pytest.approx(3.0, abs=1e-12)
        )

    def test_scales_with_quantum(self):
        beta_h = math.log(2)
        for h_nu in (0.5, 2.0):
            got = mean_energy_closed(OscillatorModel(h_nu, LIN), beta_h / h_nu)
            assert got == pytest.approx(1.5 * h_nu, rel=1e-12)

    def test_zero_point_limits(self):
        assert mean_energy_closed(OscillatorModel(1.0, LIN), 50.0) == (
            pytest.approx(0.5, abs=1e-12)
        )
        assert mean_energy_closed(OscillatorModel(1.0, PLA), 50.0) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_high_temperature_limits(self):
        beta = 1e-6
        assert beta * mean_energy_closed(OscillatorModel(1.0, LIN), beta) == (
            pytest.approx(1.0, rel=1e-3)
        )
        assert beta * mean_energy_closed(OscillatorModel(1.0, PLA), beta) == (
            pytest.approx(2.0, rel=1e-3)
        )

    def test_tiny_beta_branch_agrees_with_robust_formula(self):
        # across the series-expansion cutoff both occupation-factor routes
        # must agree at the same argument
        for x in (0.5e-8, 0.999e-8, 1.001e-8, 2e-8):
            series = 1.0 / x - 0.5 + x / 12.0
            robust = math.exp(-x) / (-math.expm1(-x))
            got = mean_energy_closed(OscillatorModel(1.0, LIN), x)
            assert got == pytest.approx(0.5 + series, rel=1e-12)
            assert got == pytest.approx(0.5 + robust, rel=1e-12)

    @pytest.mark.parametrize("dim, modes", [(LIN, 1.0), (PLA, 2.0)])
    def test_finite_where_beta_h_nu_underflows_to_zero(self, dim, modes):
        # beta * h_nu = 1e-400 reads 0.0; the energy is still modes / beta
        beta = 1e-200
        assert beta * 1e-200 == 0.0
        got = mean_energy_closed(OscillatorModel(1e-200, dim), beta)
        assert got == pytest.approx(modes / beta, rel=1e-15)

    def test_rejects_non_positive_beta(self):
        with pytest.raises(NonPositiveBeta):
            mean_energy_closed(OscillatorModel(1.0, LIN), 0.0)
        with pytest.raises(NonPositiveBeta):
            mean_energy_closed(OscillatorModel(1.0, PLA), -1.0)


class TestSeries:
    def test_matches_closed_form_at_unit_beta(self):
        for dim, expected in ((LIN, 0.5 + 1 / (math.e - 1)),
                              (PLA, 1 + 2 / (math.e - 1))):
            value, bound = mean_energy_series(OscillatorModel(1.0, dim, 200), 1.0)
            assert value == pytest.approx(expected, abs=1e-12)
            assert bound <= 1e-12
        assert 1 + 2 / (math.e - 1) == pytest.approx(2.163953413738653)

    def test_difference_within_tail_bound(self):
        for dim in (LIN, PLA):
            for beta_h in (0.1, 0.5, 1.0, 2.0, 5.0):
                model = auto_truncation(
                    OscillatorModel(1.0, dim), beta_h, tol=1e-10
                )
                value, bound = mean_energy_series(model, beta_h)
                closed = mean_energy_closed(model, beta_h)
                assert bound <= 1e-10
                assert abs(value - closed) <= bound + 1e-12

    def test_truncation_insufficient_when_tolerance_requested(self):
        model = OscillatorModel(1.0, PLA, truncation=10)
        _, bound = mean_energy_series(model, 0.1)
        assert bound > 1e-6
        with pytest.raises(TruncationInsufficient):
            mean_energy_series(model, 0.1, tol=1e-6)

    def test_auto_truncation_cap(self):
        with pytest.raises(TruncationInsufficient):
            auto_truncation(OscillatorModel(1.0, PLA), 1e-4, tol=1e-12,
                            max_levels=64)

    @pytest.mark.parametrize("dim", [LIN, PLA])
    def test_tail_bound_finite_where_exp_rounds_to_one(self, dim):
        # exp(-1e-18) == 1.0, so 1 - x would be 0; the bound must still hold
        model = OscillatorModel(1.0, dim, 256)
        value, bound = mean_energy_series(model, 1e-18)
        assert math.isfinite(value) and math.isfinite(bound)
        assert abs(value - mean_energy_closed(model, 1e-18)) <= bound

    @pytest.mark.parametrize("dim, beta", [
        (LIN, 1e-160), (LIN, 1e-170), (PLA, 1e-110),
    ])
    def test_tail_bound_unbounded_where_power_of_one_minus_x_underflows(
        self, dim, beta
    ):
        # (1 - x)**2 or (1 - x)**3 is subnormal or 0 here: the bound is inf
        model = OscillatorModel(1.0, dim, 256)
        value, bound = mean_energy_series(model, beta)
        assert math.isfinite(value) and bound == math.inf

    @pytest.mark.parametrize("dim", [LIN, PLA])
    @pytest.mark.parametrize("h_nu", [0.5, 1.0, 2.0])
    def test_matches_numpy_reference(self, dim, h_nu):
        # the terms differ from numpy's power by an ulp at most, and the
        # sums are exactly rounded where numpy's are pairwise
        for levels in (1, 2, 400, 10_000):
            model = OscillatorModel(h_nu, dim, levels)
            for beta in np.geomspace(0.01, 40.0, 25).tolist():
                series, bound = mean_energy_series(model, beta)
                want_series, want_bound = numpy_series(model, beta)
                assert series == pytest.approx(want_series, rel=1e-15, abs=0)
                assert bound == pytest.approx(want_bound, rel=1e-15, abs=0)
                closed = mean_energy_closed(model, beta)
                # the CLI's exceeds_bound column
                assert (abs(series - closed) > bound + 1e-12) == (
                    abs(want_series - closed) > want_bound + 1e-12
                )

    def test_deep_quantum_regime_stays_finite(self):
        value, bound = mean_energy_series(OscillatorModel(1.0, PLA, 64), 800.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert bound == pytest.approx(0.0, abs=1e-300)


class TestAsSystem:
    def test_planar_priors_grow_linearly(self):
        spectrum, prior = oscillator_as_system(OscillatorModel(1.0, PLA, 3))
        assert spectrum.levels == (1.0, 2.0, 3.0)
        assert prior.entries == pytest.approx((1 / 6, 2 / 6, 3 / 6), abs=1e-15)

    def test_linear_two_levels(self):
        spectrum, prior = oscillator_as_system(OscillatorModel(1.0, LIN, 2))
        assert spectrum.levels == (0.5, 1.5)
        assert prior.entries == (0.5, 0.5)

    def test_planar_singleton(self):
        spectrum, prior = oscillator_as_system(OscillatorModel(1.0, PLA, 1))
        assert spectrum.levels == (1.0,)
        assert prior.entries == (1.0,)

    def test_invalid_model(self):
        with pytest.raises(ValidationError):
            OscillatorModel(0.0, LIN)
        with pytest.raises(ValidationError):
            OscillatorModel(1.0, LIN, truncation=0)

    def test_equilibrium_route_converges_to_closed_form(self):
        """Feeding the truncated system through the equilibrium module must
        approach the closed form as the truncation deepens.

        At this beta the truncation error drops below float rounding before
        depth 50, so the measured gap is noise; the rigorous tail bound is
        what shrinks observably, and the gap must stay inside it.
        """
        closed = mean_energy_closed(OscillatorModel(1.0, PLA), 1.0)
        bounds = []
        for depth in (50, 100, 400):
            model = OscillatorModel(1.0, PLA, depth)
            spectrum, prior = oscillator_as_system(model)
            sol = generalized_distribution(spectrum, prior, 1.0)
            series, bound = mean_energy_series(model, 1.0)
            # same truncated sum through two unrelated code paths
            assert sol.mean_energy == pytest.approx(series, abs=1e-12)
            assert abs(sol.mean_energy - closed) <= bound + 1e-12
            bounds.append(bound)
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        assert abs(sol.mean_energy - closed) <= 1e-12
