"""Tests for timeline composition, gating, and calendar rounding, and
the argument checks of every public model function and analysis entry
point."""

import dataclasses
import math
import re

import pytest

from avhorizon.complexity import Magnitude, compute_demand, effective_demand
from avhorizon.errors import UnsupportedStageError, ValidationError
from avhorizon.reliability import (
    CrowAmsaaParams,
    crow_failure_rate,
    crow_required_miles,
    demonstration_years,
)
from avhorizon.scenario import builtin_catalog
from avhorizon.sensitivity import (
    MAX_ROWS,
    DistributionKind,
    DistributionSpec,
    ParameterBounds,
    SweepSpec,
    monte_carlo,
    set_parameter,
)
from avhorizon.timeline import (
    Gating,
    PROJECTABLE_STAGES,
    STAGE_DELTA_MULTIPLIERS,
    Stage,
    StageSpec,
    TimelineBreakdown,
    compose_total,
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


def split(t_crow_total, f):
    """compose_total's (t_crow_partial, t_crow_final) of the growth span."""
    b = compose_total(0.0, t_crow_total, f, 0.0, 0.0)
    return b.t_crow_partial, b.t_crow_final


class TestSplitCrow:
    def test_worked_split(self):
        partial, final = split(10.0, 0.7)
        assert partial == 7.0
        assert final == 3.0

    def test_full_concurrency(self):
        assert split(12.5, 1.0) == (12.5, 0.0)

    def test_fully_serial(self):
        assert split(12.5, 0.0) == (0.0, 12.5)

    def test_parts_recompose_exactly(self):
        partial, final = split(13.7, 0.37)
        assert partial + final == 13.7

    def test_f_out_of_range(self):
        with pytest.raises(ValidationError):
            split(10.0, 1.5)
        with pytest.raises(ValidationError):
            split(10.0, -0.1)


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


def calendar_year(baseline_year, t_total):
    """compose_total's calendar year of a timeline whose only span is
    t_prod_reg = t_total, so its total is t_total exactly."""
    b = compose_total(0.0, 0.0, 0.0, 0.0, t_total, baseline_year)
    assert b.t_total == t_total
    return b.calendar_year


class TestCalendarDate:
    def test_rounds_half_up_not_to_even(self):
        # Banker's rounding would map 0.5 to 0; the calendar rule must not.
        assert calendar_year(2024, 0.5) == 2025
        assert calendar_year(2024, 1.5) == 2026
        assert calendar_year(2024, 2.5) == 2027

    def test_worked_values(self):
        assert calendar_year(2024, 43.84) == 2068
        assert calendar_year(2024, 0.0) == 2024
        assert calendar_year(2024, 228.94) == 2253

    def test_below_half_rounds_down(self):
        assert calendar_year(2024, 4.49) == 2028

    def test_a_total_just_below_half_a_year_rounds_down(self):
        # In floats 0.49999999999999994 + 0.5 rounds up to 1.0.
        assert calendar_year(2024, 0.49999999999999994) == 2024

    @pytest.mark.parametrize("total", [2**52 + 1, 2**52 + 12345, 2**53 - 1])
    def test_an_odd_whole_total_beyond_2_to_the_52_keeps_its_year(self, total):
        # In floats 2**52 + 1 + 0.5 is a tie that rounds to 2**52 + 2.
        assert calendar_year(2024, float(total)) == 2024 + total

    def test_any_integer_baseline_year(self):
        assert calendar_year(10**400, 1.0) == 10**400 + 1
        assert calendar_year(-5000, 0.0) == -5000

    def test_a_total_overflow_raises_before_the_baseline_year_is_checked(self):
        with pytest.raises(ValidationError, match="exceeds float range"):
            compose_total(1e308, 0.0, 0.0, 0.0, 1e308, baseline_year=2024.5)


# ---------------------------------------------------------------------------
# Argument checks of the public model functions
# ---------------------------------------------------------------------------

# Each public model function with valid keyword arguments.
ENTRY_POINTS = [
    (Magnitude, {"log10_value": 19.0}),
    (Magnitude.from_value, {"value": 1e19}),
    (compute_demand, {"n_objects": 60, "cycle_time_s": 0.1}),
    (effective_demand, {"naive": Magnitude(19.0), "chi": 0.5}),
    (crow_required_miles, {"params": CrowAmsaaParams(1e-3, 0.5), "lambda_target": 1e-7}),
    (crow_failure_rate, {"params": CrowAmsaaParams(1e-3, 0.5), "miles": 1e6}),
    (demonstration_years, {"required_miles": 1e9, "gamma_value": 0.9, "delta": 0.5,
                           "annual_miles": 1e9}),
    (compose_total, {"t_comp": 5.0, "t_crow_total": 10.0, "f": 0.5, "t_poisson": 1.0,
                     "t_prod_reg": 2.0, "baseline_year": 2024}),
]

ABOVE_ONE = math.nextafter(1.0, 2.0)
# A value just outside each number argument's interval; baseline_year takes
# any integer, so it has none.
JUST_OUTSIDE = {
    "log10_value": -math.inf, "value": 0.0, "n_objects": -1, "cycle_time_s": 0.0,
    "chi": ABOVE_ONE, "lambda_target": 0.0, "miles": 0.0, "required_miles": -5e-324,
    "gamma_value": 0.0, "delta": ABOVE_ONE, "annual_miles": 0.0, "t_crow_total": -5e-324,
    "f": ABOVE_ONE, "t_comp": -5e-324, "t_poisson": -5e-324, "t_prod_reg": -5e-324,
    "baseline_year": None,
}


ROBO_TAXIS = next(s for s in builtin_catalog() if s.name == "Robo-Taxis")
UNIFORM_F = DistributionSpec("f", DistributionKind.UNIFORM, 0.6, 0.8)
BELOW_LOW = math.nextafter(0.6, 0.0)

# Each number argument of an analysis entry point: the entry point, the
# argument, a call taking its value (every other argument valid), what
# the message starts with (prefix and name) and a value just outside.
ANALYSIS_ARGUMENTS = [
    ("set_parameter", "crow.beta", lambda v: set_parameter(ROBO_TAXIS, "crow.beta", v),
     "scenario 'Robo-Taxis': crow.beta", 1.0),
    ("set_parameter", "baseline_year", lambda v: set_parameter(ROBO_TAXIS, "baseline_year", v),
     "scenario 'Robo-Taxis': baseline_year", 10000),
    ("SweepSpec", "values", lambda v: SweepSpec("f", (0.6, v)),
     "sweep over 'f': value", -math.inf),
    ("SweepSpec.from_grid", "low", lambda v: SweepSpec.from_grid("f", v, 0.8, 3),
     "sweep over 'f': grid low", -math.inf),
    ("SweepSpec.from_grid", "high", lambda v: SweepSpec.from_grid("f", 0.6, v, 3),
     "sweep over 'f': grid high", BELOW_LOW),
    ("SweepSpec.from_grid", "steps", lambda v: SweepSpec.from_grid("f", 0.6, 0.8, v),
     "sweep over 'f': grid steps", 1),
    ("ParameterBounds", "low", lambda v: ParameterBounds("f", v, 0.8),
     "bounds for 'f': low", -math.inf),
    ("ParameterBounds", "high", lambda v: ParameterBounds("f", 0.6, v),
     "bounds for 'f': high", BELOW_LOW),
    ("DistributionSpec", "low", lambda v: DistributionSpec("f", DistributionKind.UNIFORM, v, 0.8),
     "distribution for 'f': low", -math.inf),
    ("DistributionSpec", "high",
     lambda v: DistributionSpec("f", DistributionKind.UNIFORM, 0.6, v),
     "distribution for 'f': high", BELOW_LOW),
    ("DistributionSpec", "mode",
     lambda v: DistributionSpec("f", DistributionKind.TRIANGULAR, 0.6, 0.8, v),
     "distribution for 'f': mode", math.nextafter(0.8, 1.0)),
    ("monte_carlo", "sample_count",
     lambda v: monte_carlo(ROBO_TAXIS, Stage.BROAD_COMMERCIAL, [UNIFORM_F], v, 0),
     "sample_count", MAX_ROWS + 1),
    ("monte_carlo", "seed",
     lambda v: monte_carlo(ROBO_TAXIS, Stage.BROAD_COMMERCIAL, [UNIFORM_F], 4, v),
     "seed", 2**64),
]


def bad_arguments():
    """(call, message start, value) for each number argument and bad value."""
    arguments = [
        (function.__qualname__, name,
         lambda v, function=function, valid=valid, name=name: function(**{**valid, name: v}),
         name, JUST_OUTSIDE[name])
        for function, valid in ENTRY_POINTS for name in valid if name in JUST_OUTSIDE
    ] + ANALYSIS_ARGUMENTS
    for entry_point, argument, call, start, outside in arguments:
        bad = {"True": True, "nan": math.nan, "inf": math.inf, "10**400": 10**400,
               "10**5000": 10**5000, "outside": outside}
        if argument == "baseline_year" and entry_point != "set_parameter":
            # any integer, however large
            del bad["10**400"], bad["10**5000"], bad["outside"]
        for label, value in bad.items():
            yield pytest.param(call, start, value, id=f"{entry_point}-{argument}-{label}")


@pytest.mark.parametrize("call, start, value", bad_arguments())
def test_a_bad_number_raises_a_validation_error_naming_the_argument(call, start, value):
    with pytest.raises(ValidationError) as err:
        call(value)
    message = str(err.value)
    if type(value) is int and value > 2**1024:  # beyond float range: never printed
        bits = value.bit_length()
        assert message == (
            f"n_objects is too large ({bits} bits): the exponent of 2**n_objects exceeds "
            "float range" if start == "n_objects"  # any integer, until its exponent
            else f"{start} is an integer beyond float range ({bits} bits)")
    else:
        assert re.match(rf"{re.escape(start)}( must be |=)", message), message
