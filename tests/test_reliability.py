"""Tests for reliability-growth and zero-failure demonstration math."""

import math
import re

import pytest

from avhorizon.errors import ValidationError
from avhorizon.reliability import (
    CrowAmsaaParams,
    PoissonParams,
    crow_failure_rate,
    crow_required_miles,
    demonstration_years,
    poisson_required_miles,
)


def raises_exactly(message):
    """pytest.raises for a ValidationError whose whole message is ``message``."""
    return pytest.raises(ValidationError, match=f"^{re.escape(message)}$")


class TestCrowParams:
    def test_alpha_bounds(self):
        CrowAmsaaParams(alpha=1.0, beta=0.4)
        with raises_exactly("alpha=0.0 outside permitted range (0, 1]"):
            CrowAmsaaParams(alpha=0.0, beta=0.4)
        with raises_exactly("alpha=1.5 outside permitted range (0, 1]"):
            CrowAmsaaParams(alpha=1.5, beta=0.4)

    def test_beta_strictly_open(self):
        with raises_exactly("beta=0.0 outside permitted range (0, 1)"):
            CrowAmsaaParams(alpha=1e-4, beta=0.0)
        with raises_exactly("beta=1.0 outside permitted range (0, 1)"):
            CrowAmsaaParams(alpha=1e-4, beta=1.0)
        with raises_exactly("beta=1.2 outside permitted range (0, 1)"):
            CrowAmsaaParams(alpha=1e-4, beta=1.2)

    def test_severity_at_least_one(self):
        with raises_exactly("severity=0.5 outside permitted range [1, inf)"):
            CrowAmsaaParams(alpha=1e-4, beta=0.4, severity=0.5)

    def test_values_that_are_not_finite_numbers(self):
        with raises_exactly("alpha must be a finite number, got True"):
            CrowAmsaaParams(alpha=True, beta=0.4)
        with raises_exactly("beta must be a finite number, got '0.4'"):
            CrowAmsaaParams(alpha=1e-4, beta="0.4")
        with raises_exactly("severity is an integer beyond float range (1329 bits)"):
            CrowAmsaaParams(alpha=1e-4, beta=0.4, severity=10**400)
        assert CrowAmsaaParams(alpha=1, beta=0.5, severity=2).alpha == 1  # ints are numbers

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_values_are_outside_every_range(self, value):
        with raises_exactly(f"beta={value!r} outside permitted range (0, 1)"):
            CrowAmsaaParams(alpha=1e-4, beta=value)
        with raises_exactly(f"severity={value!r} outside permitted range [1, inf)"):
            CrowAmsaaParams(alpha=1e-4, beta=0.4, severity=value)


class TestCrowMiles:
    def test_square_law_case(self):
        # (0.01 * 2 / 1e-8) ** (1 / 0.5) = (2e6) ** 2
        p = CrowAmsaaParams(alpha=0.01, beta=0.5, severity=2.0)
        assert crow_required_miles(p, 1e-8) == pytest.approx(4.0e12, rel=1e-9)

    def test_slow_growth_case(self):
        # (2e6) ** (10/3); about 1e21 after display rounding.
        p = CrowAmsaaParams(alpha=0.01, beta=0.3, severity=2.0)
        got = crow_required_miles(p, 1e-8)
        assert got == pytest.approx((2e6) ** (10.0 / 3.0), rel=1e-9)
        assert 1e21 / 1.1 <= got <= 1e21 * 1.1

    def test_target_already_met_needs_no_miles(self):
        p = CrowAmsaaParams(alpha=1e-9, beta=0.4, severity=1.0)
        assert crow_required_miles(p, 1e-8) == 0.0
        assert crow_required_miles(p, 1e-9) == 0.0

    def test_round_trip_with_failure_rate(self):
        p = CrowAmsaaParams(alpha=1e-4, beta=0.4, severity=2.0)
        miles = crow_required_miles(p, 1e-8)
        assert crow_failure_rate(p, miles) == pytest.approx(1e-8, rel=1e-9)

    def test_failure_rate_inversion_example(self):
        p = CrowAmsaaParams(alpha=0.01, beta=0.5, severity=2.0)
        assert crow_failure_rate(p, 4.0e12) == pytest.approx(1e-8, rel=1e-9)

    def test_monotonicities(self):
        base = CrowAmsaaParams(alpha=1e-4, beta=0.4, severity=2.0)
        ref = crow_required_miles(base, 1e-8)
        assert crow_required_miles(
            CrowAmsaaParams(alpha=2e-4, beta=0.4, severity=2.0), 1e-8) > ref
        assert crow_required_miles(
            CrowAmsaaParams(alpha=1e-4, beta=0.4, severity=3.0), 1e-8) > ref
        assert crow_required_miles(
            CrowAmsaaParams(alpha=1e-4, beta=0.5, severity=2.0), 1e-8) < ref
        assert crow_required_miles(base, 2e-8) < ref

    def test_lambda_target_must_be_positive(self):
        p = CrowAmsaaParams(alpha=1e-4, beta=0.4)
        with pytest.raises(ValidationError):
            crow_required_miles(p, 0.0)

    def test_mileage_beyond_float_range_names_beta(self):
        # (1e-4 / 1e-8) ** (1 / 0.01) = 1e400 overflows a float.
        with pytest.raises(ValidationError) as err:
            crow_required_miles(CrowAmsaaParams(1e-4, 0.01), 1e-8)
        assert str(err.value) == (
            "the growth mileage (crow.alpha=0.0001 * crow.severity=1.0 / "
            "crow_lambda_target=1e-08) ** (1 / crow.beta=0.01) exceeds float range")
        # A subnormal beta makes 1 / beta inf, and the power inf, without raising.
        with pytest.raises(ValidationError) as err:
            crow_required_miles(CrowAmsaaParams(1e-4, 5e-324), 1e-8)
        assert str(err.value) == (
            "the growth mileage (crow.alpha=0.0001 * crow.severity=1.0 / "
            "crow_lambda_target=1e-08) ** (1 / crow.beta=5e-324) exceeds float range")

    def test_failure_rate_beyond_float_range_names_miles(self):
        with raises_exactly("the failure rate after miles=5e-324 exceeds float range"):
            crow_failure_rate(CrowAmsaaParams(alpha=1.0, beta=0.99), 5e-324)

    def test_ratio_beyond_float_range_names_lambda_target(self):
        # 1e-4 / 5e-324 overflows to inf before the power is taken.
        with pytest.raises(ValidationError, match="crow_lambda_target=5e-324"):
            crow_required_miles(CrowAmsaaParams(1e-4, 0.4), 5e-324)


    @pytest.mark.parametrize("alpha, beta, severity, target", [
        (1.0, 0.999, 1.0, 1e-300),     # near-linear growth to a 1e-300 target
        (1e-12, 0.999, 1.0, 1e-300),
        (1.0, 0.999, 1e9, 1e-290),     # largest alpha * severity
        (1.0, 0.05, 1e6, 1e-9),        # slow growth: about 1e300 miles
        (1e-12, 0.05, 1.0, 1e-20),
        (1e-4, 0.01, 1.0, 1e-6),       # beta 0.01: about 1e200 miles
        (1e-4, 0.4, 1.0, 9.999e-5),    # target just below the starting rate
    ])
    def test_inversion_round_trips_at_extremes(self, alpha, beta, severity, target):
        # Crow, AMSAA TR-138 (1974): lambda(t) = alpha * severity * t**(-beta).
        p = CrowAmsaaParams(alpha=alpha, beta=beta, severity=severity)
        miles = crow_required_miles(p, target)
        assert crow_failure_rate(p, miles) == pytest.approx(target, rel=1e-12)


class TestPoissonMiles:
    def test_headline_case(self):
        p = PoissonParams(confidence=0.95, safety_factor=2.0, lambda_target=7.1e-9)
        got = poisson_required_miles(p)
        assert got == pytest.approx(8.438e8, rel=1e-3)
        assert got == pytest.approx(843868246.0715464, rel=1e-12)

    def test_unit_log_case(self):
        # -ln(1 - C) = 1 when C = 1 - 1/e.
        p = PoissonParams(confidence=1 - 1 / math.e, safety_factor=1.0,
                          lambda_target=1e-8)
        assert poisson_required_miles(p) == pytest.approx(1e8, rel=1e-12)

    def test_halving_safety_factor_halves_miles(self):
        low = PoissonParams(confidence=0.95, safety_factor=1.0, lambda_target=7.1e-9)
        high = PoissonParams(confidence=0.95, safety_factor=2.0, lambda_target=7.1e-9)
        assert poisson_required_miles(high) == pytest.approx(
            2 * poisson_required_miles(low), rel=1e-12
        )
        assert poisson_required_miles(low) == pytest.approx(4.219e8, rel=1e-3)

    def test_monotone_in_confidence_and_target(self):
        mid = poisson_required_miles(
            PoissonParams(confidence=0.95, safety_factor=2.0, lambda_target=1e-8))
        assert poisson_required_miles(
            PoissonParams(confidence=0.99, safety_factor=2.0, lambda_target=1e-8)) > mid
        assert poisson_required_miles(
            PoissonParams(confidence=0.95, safety_factor=2.0, lambda_target=2e-8)) < mid

    @pytest.mark.parametrize("confidence", [
        1e-3, 0.1, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999, 1 - 1e-9,
    ])
    def test_zero_failure_factor_matches_chi_square_bound(self, confidence):
        # Kalra & Paddock, "Driving to Safety" (RAND RR-1478, 2016): zero
        # failures in R miles bound the rate at chi2.ppf(C, 2) / (2 R).
        stats = pytest.importorskip("scipy.stats")
        factor = poisson_required_miles(
            PoissonParams(confidence=confidence, safety_factor=1.0, lambda_target=1.0))
        assert factor == pytest.approx(stats.chi2.ppf(confidence, 2) / 2, rel=1e-12)

    @pytest.mark.parametrize("confidence", [1e-17, 1e-16, 1e-3, 0.5, 0.95, 1 - 2**-53])
    def test_miles_are_the_negated_log_term_and_never_negative_zero(self, confidence):
        # 0 - log(1 - C) has the bits of -log(1 - C) wherever the log is not
        # zero, and +0.0 where 1 - C rounds to 1.0.
        miles = poisson_required_miles(
            PoissonParams(confidence=confidence, safety_factor=2.0, lambda_target=1e-8))
        assert miles == -math.log(1.0 - confidence) * 2.0 / 1e-8
        assert math.copysign(1.0, miles) == 1.0

    def test_mileage_beyond_float_range_names_lambda_target(self):
        params = PoissonParams(confidence=0.95, safety_factor=2.0, lambda_target=5e-324)
        with pytest.raises(ValidationError, match=r"poisson\.lambda_target=5e-324"):
            poisson_required_miles(params)

    def test_param_validation(self):
        with raises_exactly("confidence=1.0 outside permitted range (0, 1)"):
            PoissonParams(confidence=1.0, safety_factor=2.0, lambda_target=1e-8)
        with raises_exactly("safety_factor=0.5 outside permitted range [1, inf)"):
            PoissonParams(confidence=0.95, safety_factor=0.5, lambda_target=1e-8)
        with raises_exactly("lambda_target=0.0 outside permitted range (0, inf)"):
            PoissonParams(confidence=0.95, safety_factor=2.0, lambda_target=0.0)


class TestDemonstrationYears:
    def test_robo_scale_case(self):
        years = demonstration_years(
            required_miles=5.657e10, gamma_value=0.9, delta=1.0, annual_miles=1e9)
        assert years == pytest.approx(50.9, rel=1e-2)

    def test_unit_case(self):
        assert demonstration_years(1e9, 1.0, 1.0, 1e9) == 1.0

    def test_months_scale_case(self):
        years = demonstration_years(8.438e8, 0.4, 1.0, 1e9)
        assert years == pytest.approx(0.33752, rel=1e-4)
        assert years * 12 == pytest.approx(4.05, abs=0.01)

    def test_linearity(self):
        base = demonstration_years(1e10, 0.5, 0.8, 1e9)
        assert demonstration_years(2e10, 0.5, 0.8, 1e9) == pytest.approx(
            2 * base, rel=1e-12)
        assert demonstration_years(1e10, 1.0, 0.8, 1e9) == pytest.approx(
            2 * base, rel=1e-12)
        assert demonstration_years(1e10, 0.5, 0.4, 1e9) == pytest.approx(
            base / 2, rel=1e-12)
        assert demonstration_years(1e10, 0.5, 0.8, 2e9) == pytest.approx(
            base / 2, rel=1e-12)

    def test_gamma_above_one_is_legal(self):
        assert demonstration_years(1e9, 2.5, 1.0, 1e9) == pytest.approx(2.5, rel=1e-12)

    def test_year_count_beyond_float_range_names_annual_miles(self):
        with pytest.raises(ValidationError) as err:
            demonstration_years(5.657e10, 0.9, 1.0, 1e-300)
        assert str(err.value) == (
            "the demonstration years 56570000000.0 miles * gamma_override=0.9 * "
            "stage delta=1.0 / annual_miles=1e-300 exceed float range")

    def test_validation(self):
        with pytest.raises(ValidationError):
            demonstration_years(-1.0, 1.0, 1.0, 1e9)
        with pytest.raises(ValidationError):
            demonstration_years(1e9, 0.0, 1.0, 1e9)
        with pytest.raises(ValidationError):
            demonstration_years(1e9, 1.0, 1.5, 1e9)
        with pytest.raises(ValidationError):
            demonstration_years(1e9, 1.0, 1.0, 0.0)
