"""Tests for timeline composition, gating, and calendar rounding, and
the argument checks of every public model function."""

import dataclasses
import math
import re

import pytest

from avhorizon.complexity import (
    Magnitude,
    compute_demand,
    effective_demand,
    naive_mapf_ops_per_cycle,
)
from avhorizon.errors import UnsupportedStageError, ValidationError
from avhorizon.reliability import (
    CrowAmsaaParams,
    crow_failure_rate,
    crow_required_miles,
    demonstration_years,
)
from avhorizon.timeline import (
    Gating,
    PROJECTABLE_STAGES,
    STAGE_DELTA_MULTIPLIERS,
    Stage,
    StageSpec,
    TimelineBreakdown,
    calendar_date,
    compose_total,
    split_crow,
)


class TestStage:
    def test_from_key(self):
        assert Stage.from_key("2") is Stage.REVENUE_SERVICE
        assert Stage.from_key("3") is Stage.BROAD_COMMERCIAL
        assert Stage.from_key("stage2") is Stage.REVENUE_SERVICE
        assert Stage.from_key("stage3") is Stage.BROAD_COMMERCIAL

    def test_from_key_rejects_unknown(self):
        with pytest.raises(ValidationError):
            Stage.from_key("4")

    def test_display_names(self):
        assert Stage.REVENUE_SERVICE.display_name == "Revenue Service (Stage 2)"
        assert Stage.BROAD_COMMERCIAL.display_name == "Broad Commercialization (Stage 3)"
        assert Stage.PILOT.display_name == "Pilot (Stage 1)"

    def test_delta_multipliers(self):
        assert STAGE_DELTA_MULTIPLIERS[Stage.REVENUE_SERVICE] == 0.5
        assert STAGE_DELTA_MULTIPLIERS[Stage.BROAD_COMMERCIAL] == 1.0

    def test_projectable_stages(self):
        assert PROJECTABLE_STAGES == (Stage.REVENUE_SERVICE, Stage.BROAD_COMMERCIAL)

    def test_gating_labels(self):
        assert Gating.COMPUTE.value == "compute-gated"
        assert Gating.RELIABILITY.value == "reliability-gated"


class TestStageSpec:
    def test_for_stage_carries_threshold(self):
        spec = StageSpec.for_stage(Stage.BROAD_COMMERCIAL, prod_reg_years=5.0)
        assert spec.delta_multiplier == 1.0
        assert spec.prod_reg_years == 5.0

    def test_pilot_stage_unsupported(self):
        with pytest.raises(UnsupportedStageError):
            StageSpec.for_stage(Stage.PILOT, prod_reg_years=1.0)


class TestSplitCrow:
    def test_worked_split(self):
        partial, final = split_crow(10.0, 0.7)
        assert partial == 7.0
        assert final == 3.0

    def test_full_concurrency(self):
        assert split_crow(12.5, 1.0) == (12.5, 0.0)

    def test_fully_serial(self):
        assert split_crow(12.5, 0.0) == (0.0, 12.5)

    def test_parts_recompose_exactly(self):
        partial, final = split_crow(13.7, 0.37)
        assert partial + final == 13.7

    def test_f_out_of_range(self):
        with pytest.raises(ValidationError):
            split_crow(10.0, 1.5)
        with pytest.raises(ValidationError):
            split_crow(10.0, -0.1)


class TestComposeTotal:
    def test_worked_total(self):
        b = compose_total(15.0, 10.0, 0.7, 1.0, 4.0)
        assert b.t_total == 23.0
        assert b.gating is Gating.COMPUTE
        assert b.t_crow_partial == 7.0
        assert b.t_crow_final == pytest.approx(3.0, abs=1e-12)

    def test_all_zero(self):
        assert compose_total(0.0, 0.0, 0.3, 0.0, 0.0).t_total == 0.0

    def test_consumer_assembly(self):
        b = compose_total(35.0, 10.0, 0.7, 0.8438682460715464, 5.0)
        assert b.t_total == pytest.approx(43.84, abs=0.01)
        assert b.gating is Gating.COMPUTE

    def test_serial_reduction_f_zero(self):
        b = compose_total(6.0, 10.0, 0.0, 1.5, 2.0)
        assert b.t_total == 6.0 + 10.0 + 1.5 + 2.0
        assert b.gating is Gating.COMPUTE

    def test_max_overlap_reduction_f_one(self):
        b = compose_total(6.0, 10.0, 1.0, 0.0, 2.0)
        assert b.t_total == max(10.0, 6.0) + 2.0
        assert b.gating is Gating.RELIABILITY

    def test_gating_flag_follows_max(self):
        assert compose_total(8.0, 10.0, 0.7, 0.0, 0.0).gating is Gating.COMPUTE
        assert compose_total(7.0, 10.0, 0.7, 0.0, 0.0).gating is Gating.RELIABILITY
        # boundary: t_comp == partial counts as reliability-gated
        b = compose_total(7.0, 10.0, 0.7, 0.0, 0.0)
        assert b.t_comp == b.t_crow_partial

    def test_monotone_in_each_duration(self):
        ref = compose_total(5.0, 10.0, 0.7, 1.0, 2.0).t_total
        assert compose_total(6.0, 10.0, 0.7, 1.0, 2.0).t_total >= ref
        assert compose_total(5.0, 11.0, 0.7, 1.0, 2.0).t_total >= ref
        assert compose_total(5.0, 10.0, 0.7, 2.0, 2.0).t_total >= ref
        assert compose_total(5.0, 10.0, 0.7, 1.0, 3.0).t_total >= ref

    def test_nonincreasing_in_f(self):
        totals = [compose_total(15.0, 10.0, f, 1.0, 4.0).t_total
                  for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert totals == sorted(totals, reverse=True)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            compose_total(-1.0, 10.0, 0.7, 1.0, 4.0)
        with pytest.raises(ValidationError):
            compose_total(15.0, 10.0, 0.7, -1.0, 4.0)

    def test_custom_baseline_year(self):
        b = compose_total(0.0, 1.0, 0.0, 0.0, 0.0, baseline_year=2030)
        assert b.calendar_year == 2031


class TestBreakdownInvariants:
    GOOD = compose_total(15.0, 10.0, 0.7, 1.0, 4.0)  # partial 7, final 3, total 23

    def test_inconsistent_split_rejected(self):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(self.GOOD, t_crow_partial=6.0)
        assert str(err.value) == ("t_crow_partial + t_crow_final must reconstruct "
                                  "t_crow_total exactly, got 6.0 + 3.0 != 10.0")

    def test_inconsistent_total_rejected(self):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(self.GOOD, t_total=24.0)
        assert str(err.value) == (
            "t_total must equal the composition formula, got 24.0 vs recomposed 23.0")

    def test_inconsistent_gating_rejected(self):
        assert self.GOOD.gating is Gating.COMPUTE
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(self.GOOD, gating=Gating.RELIABILITY)
        assert str(err.value) == (
            "gating must be 'compute-gated' when t_comp=15.0 and t_crow_partial=7.0")

    def test_recomposition_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError) as err:
            TimelineBreakdown(1e308, 0.0, 0.0, 0.0, 0.0, 1e308, 0.5, 1e308, Gating.COMPUTE, 2024)
        assert str(err.value) == (
            "the total of the spans t_comp=1e+308, t_crow_total=0.0 (f=0.5), t_poisson=0.0 "
            "and t_prod_reg=1e+308 exceeds float range")


class TestCalendarDate:
    def test_rounds_half_up_not_to_even(self):
        # Banker's rounding would map 0.5 to 0; the calendar rule must not.
        assert calendar_date(2024, 0.5) == 2025
        assert calendar_date(2024, 1.5) == 2026
        assert calendar_date(2024, 2.5) == 2027

    def test_worked_values(self):
        assert calendar_date(2024, 43.84) == 2068
        assert calendar_date(2024, 0.0) == 2024
        assert calendar_date(2024, 228.94) == 2253

    def test_below_half_rounds_down(self):
        assert calendar_date(2024, 4.49) == 2028

    def test_negative_total_rejected(self):
        with pytest.raises(ValidationError):
            calendar_date(2024, -0.1)

    def test_a_total_just_below_half_a_year_rounds_down(self):
        # In floats 0.49999999999999994 + 0.5 rounds up to 1.0.
        assert calendar_date(2024, 0.49999999999999994) == 2024

    def test_an_odd_whole_total_beyond_2_to_the_52_keeps_its_year(self):
        # In floats 2**52 + 1 + 0.5 is a tie that rounds to 2**52 + 2.
        assert calendar_date(2024, 4503599627370497.0) == 2024 + 4503599627370497

    def test_any_integer_baseline_year(self):
        assert calendar_date(10**400, 1.0) == 10**400 + 1
        assert calendar_date(-5000, 0.0) == -5000


# ---------------------------------------------------------------------------
# Argument checks of the public model functions
# ---------------------------------------------------------------------------

# Each public model function with valid keyword arguments.
ENTRY_POINTS = [
    (Magnitude, {"log10_value": 19.0}),
    (Magnitude.from_value, {"value": 1e19}),
    (naive_mapf_ops_per_cycle, {"n_objects": 60}),
    (compute_demand, {"n_objects": 60, "cycle_time_s": 0.1}),
    (effective_demand, {"naive": Magnitude(19.0), "chi": 0.5}),
    (crow_required_miles, {"params": CrowAmsaaParams(1e-3, 0.5), "lambda_target": 1e-7}),
    (crow_failure_rate, {"params": CrowAmsaaParams(1e-3, 0.5), "miles": 1e6}),
    (demonstration_years, {"required_miles": 1e9, "gamma_value": 0.9, "delta": 0.5,
                           "annual_miles": 1e9}),
    (split_crow, {"t_crow_total": 10.0, "f": 0.5}),
    (compose_total, {"t_comp": 5.0, "t_crow_total": 10.0, "f": 0.5, "t_poisson": 1.0,
                     "t_prod_reg": 2.0, "baseline_year": 2024}),
    (calendar_date, {"baseline_year": 2024, "t_total_years": 43.84}),
]

ABOVE_ONE = math.nextafter(1.0, 2.0)
# A value just outside each number argument's interval; baseline_year takes
# any integer, so it has none.
JUST_OUTSIDE = {
    "log10_value": -math.inf, "value": 0.0, "n_objects": -1, "cycle_time_s": 0.0,
    "chi": ABOVE_ONE, "lambda_target": 0.0, "miles": 0.0, "required_miles": -5e-324,
    "gamma_value": 0.0, "delta": ABOVE_ONE, "annual_miles": 0.0, "t_crow_total": -5e-324,
    "f": ABOVE_ONE, "t_comp": -5e-324, "t_poisson": -5e-324, "t_prod_reg": -5e-324,
    "baseline_year": None, "t_total_years": -5e-324,
}


def bad_arguments():
    for function, valid in ENTRY_POINTS:
        for name in [name for name in valid if name in JUST_OUTSIDE]:
            bad = {"True": True, "nan": math.nan, "inf": math.inf, "10**400": 10**400,
                   "outside": JUST_OUTSIDE[name]}
            if name == "baseline_year":  # any integer, however large
                del bad["10**400"], bad["outside"]
            for label, value in bad.items():
                yield pytest.param(function, valid, name, value,
                                   id=f"{function.__qualname__}-{name}-{label}")


@pytest.mark.parametrize("function, valid, name, value", bad_arguments())
def test_a_bad_number_raises_a_validation_error_naming_the_argument(function, valid, name,
                                                                     value):
    with pytest.raises(ValidationError) as err:
        function(**{**valid, name: value})
    assert re.match(rf"{name}( must be | is too large|=)", str(err.value)), str(err.value)
