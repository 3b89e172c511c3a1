"""Tests for log-domain magnitudes and the compute-demand pipeline."""

import math

import pytest

from avhorizon.complexity import (
    LOG10_2,
    ComputeEnv,
    Magnitude,
    compute_demand,
    effective_demand,
    hpc_horizon_years,
)
from avhorizon.errors import ValidationError


class TestMagnitude:
    def test_from_value_round_trip(self):
        m = Magnitude.from_value(1e16)
        assert m.log10_value == pytest.approx(16.0, abs=1e-12)

    def test_negative_exponent_is_legal(self):
        assert Magnitude(-3.0).log10_value == -3.0

    def test_nonfinite_exponent_rejected(self):
        with pytest.raises(ValidationError):
            Magnitude(math.inf)
        with pytest.raises(ValidationError):
            Magnitude(math.nan)

    def test_from_value_rejects_nonpositive(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                Magnitude.from_value(bad)


class TestComputeDemand:
    def test_fifty_objects_one_cycle_per_second(self):
        assert compute_demand(50, 1.0).log10_value == pytest.approx(50 * LOG10_2, abs=1e-12)

    def test_ten_objects_is_1024(self):
        assert compute_demand(10, 1.0).log10_value == pytest.approx(math.log10(1024.0),
                                                                    abs=1e-12)

    def test_negative_objects_rejected(self):
        with pytest.raises(ValidationError):
            compute_demand(-1, 0.1)

    def test_exponent_beyond_float_range_names_n_objects(self):
        with pytest.raises(ValidationError, match="n_objects"):
            compute_demand(10**400, 0.1)

    def test_fifty_objects_tenth_second(self):
        d = compute_demand(50, 0.1)
        assert d.log10_value == pytest.approx(50 * LOG10_2 + 1.0, abs=1e-12)

    def test_sixty_objects(self):
        d = compute_demand(60, 0.1)
        assert d.log10_value == pytest.approx(19.0618, abs=1e-4)

    def test_zero_objects_is_one_op_per_cycle(self):
        assert compute_demand(0, 1.0).log10_value == 0.0

    def test_doubling_cycle_halves_demand(self):
        fast = compute_demand(40, 0.05)
        slow = compute_demand(40, 0.1)
        assert fast.log10_value - slow.log10_value == pytest.approx(LOG10_2, abs=1e-12)

    def test_nonpositive_cycle_rejected(self):
        with pytest.raises(ValidationError):
            compute_demand(10, 0.0)
        with pytest.raises(ValidationError):
            compute_demand(10, -0.1)


class TestEffectiveDemand:
    def test_thousandfold_reduction(self):
        out = effective_demand(Magnitude(19.0), 0.001)
        assert out.log10_value == pytest.approx(16.0, abs=1e-12)

    def test_identity_chi(self):
        out = effective_demand(Magnitude(16.0), 1.0)
        assert out.log10_value == 16.0

    def test_matches_direct_float_arithmetic(self):
        # Where the linear value is representable the log-domain result
        # must agree with plain multiplication.
        naive = Magnitude(19.06)
        direct = (10 ** 19.06) * 0.01421
        out = effective_demand(naive, 0.01421)
        assert 10 ** out.log10_value == pytest.approx(direct, rel=1e-9)

    def test_chi_out_of_range_rejected(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                effective_demand(Magnitude(19.0), bad)


class TestHpcHorizon:
    ENV = ComputeEnv(current_capacity=1e13, doubling_period_years=2.5)

    def test_three_decades_gap(self):
        # 2.5 * log2(10^3) years; just under 25.
        got = hpc_horizon_years(Magnitude(16.0), self.ENV)
        assert got == pytest.approx(2.5 * 3.0 / LOG10_2, rel=1e-12)
        assert got == pytest.approx(24.914460711655217, abs=1e-9)

    def test_demand_below_capacity_clamps_to_zero(self):
        assert hpc_horizon_years(Magnitude(12.0), self.ENV) == 0.0

    def test_demand_equal_capacity_is_zero(self):
        assert hpc_horizon_years(Magnitude(13.0), self.ENV) == 0.0

    def test_doubling_law(self):
        base = hpc_horizon_years(Magnitude(16.0), self.ENV)
        for k in (1, 3, 10):
            shifted = hpc_horizon_years(Magnitude(16.0 + k * LOG10_2), self.ENV)
            assert shifted - base == pytest.approx(k * 2.5, abs=1e-9)

    def test_monotone_in_doubling_period(self):
        slow = ComputeEnv(current_capacity=1e13, doubling_period_years=5.0)
        assert hpc_horizon_years(Magnitude(16.0), slow) > hpc_horizon_years(
            Magnitude(16.0), self.ENV
        )

    def test_env_validation(self):
        with pytest.raises(ValidationError) as err:
            ComputeEnv(current_capacity=1e13, doubling_period_years=0.0)
        assert str(err.value) == "doubling_period_years=0.0 outside permitted range (0, inf)"

    def test_capacity_is_a_number_in_ops_per_second(self):
        with pytest.raises(ValidationError) as err:
            ComputeEnv(Magnitude(13.0), 2.5)
        assert str(err.value) == (
            "current_capacity must be a finite number, got Magnitude(log10_value=13.0)")
        for bad in (0, -1e13, math.inf, math.nan, True):
            with pytest.raises(ValidationError, match="current_capacity"):
                ComputeEnv(bad, 2.5)
        assert ComputeEnv(10**13, 2.5).current_capacity == 10**13  # kept as given

    def test_horizon_beyond_float_range_names_doubling_period(self):
        env = ComputeEnv(current_capacity=1e13, doubling_period_years=1e308)
        with pytest.raises(ValidationError, match=r"compute_env\.doubling_period_years"):
            hpc_horizon_years(Magnitude(16.0), env)
        assert hpc_horizon_years(Magnitude(12.0), env) == 0.0  # no gap, no overflow
