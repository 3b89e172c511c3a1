"""Tests for sweeps, tornado rankings, and seeded Monte Carlo."""

import dataclasses
import math
import operator
import re
import tracemalloc

import numpy as np
import pytest

from avhorizon.complexity import LOG10_2
from avhorizon import sensitivity
from avhorizon.errors import UnknownParameterError, ValidationError, _in_interval
from avhorizon.scenario import project
from avhorizon.sensitivity import (
    AnalysisKind,
    DistributionKind,
    DistributionSpec,
    MC_PERCENTILES,
    ParameterBounds,
    SweepSpec,
    monte_carlo,
    one_at_a_time,
    set_parameter,
    tornado,
    valid_parameter_paths,
)
from avhorizon.timeline import Stage

S3 = Stage.BROAD_COMMERCIAL


def beta_1_2_error(category):
    """Pattern of the whole error of setting crow.beta to 1.2 in ``category``."""
    message = f"scenario {category!r}: crow.beta=1.2 outside permitted range (0, 1)"
    return f"^{re.escape(message)}$"


@pytest.fixture(scope="module")
def worked_inputs(catalog):
    """A scenario assembled to hit t_comp=15, t_crow=10, t_poisson=1, prod_reg=4.

    Built from the consumer category: gamma 1 and severity 1 give a
    10-year growth phase; chi is calibrated to a 6-doubling compute gap
    (15 years); the Poisson target is chosen so the demonstration takes
    exactly one fleet-year.
    """
    base = catalog["Consumer Automotive"]
    naive = 60 * LOG10_2 + 1.0
    chi_15y = 10 ** (13.0 + 6 * LOG10_2 - naive)
    lam = 2.0 * math.log(20.0) / 1e9  # poisson miles come out at 1e9 exactly
    return dataclasses.replace(
        base,
        name="Worked Inputs",
        chi=dataclasses.replace(base.chi, stage3=chi_15y),
        poisson=dataclasses.replace(base.poisson, lambda_target=lam),
        prod_reg_years=dataclasses.replace(base.prod_reg_years, stage3=4.0),
    )


class TestParameterRegistry:
    def test_paths_are_sorted_and_complete(self):
        # Derived from the scenario dataclasses: a new numeric field
        # changes the swept surface, and this list with it.
        assert valid_parameter_paths() == (
            "annual_miles", "base_delta", "baseline_year", "chi.stage2", "chi.stage3",
            "compute_env.current_capacity", "compute_env.doubling_period_years",
            "crow.alpha", "crow.beta", "crow.severity", "crow_lambda_target",
            "cycle_time_s", "f", "gamma_override", "n_objects",
            "poisson.confidence", "poisson.lambda_target", "poisson.safety_factor",
            "prod_reg_years.stage2", "prod_reg_years.stage3",
        )

    @pytest.mark.parametrize("path", valid_parameter_paths())
    def test_every_path_declares_a_range_holding_the_catalog(self, catalog, path):
        # monte_carlo takes a sample between two valid bounds as valid:
        # that holds because every path's domain is one interval.
        interval = sensitivity._lookup(path)[2]
        assert interval is not None and interval[0] < interval[1]
        for name, scenario in catalog.items():
            assert _in_interval(operator.attrgetter(path)(scenario), interval), name

    def test_set_leaves_the_original_untouched(self, catalog):
        s = catalog["Robo-Taxis"]
        s2 = set_parameter(s, "crow.beta", 0.45)
        assert s2.crow.beta == 0.45
        assert s.crow.beta == 0.4  # original untouched

    def test_capacity_path_uses_linear_ops(self, catalog):
        s = catalog["Robo-Taxis"]
        s2 = set_parameter(s, "compute_env.current_capacity", 1e14)
        assert s2.compute_env.current_capacity == 1e14

    def test_cycle_time_path_keeps_scenario_and_env_consistent(self, catalog):
        s2 = set_parameter(catalog["Robo-Taxis"], "cycle_time_s", 0.2)
        assert s2.cycle_time_s == 0.2

    def test_integer_paths_require_integral_values(self, catalog):
        s = catalog["Robo-Taxis"]
        s2 = set_parameter(s, "n_objects", 50.0)
        assert s2.n_objects == 50
        with pytest.raises(ValidationError):
            set_parameter(s, "n_objects", 50.5)
        with pytest.raises(ValidationError):
            set_parameter(s, "baseline_year", 2024.25)

    def test_unknown_path_lists_valid_paths(self, catalog):
        with pytest.raises(UnknownParameterError) as err:
            set_parameter(catalog["Robo-Taxis"], "crow.gamma", 0.5)
        assert "crow.beta" in str(err.value)


class TestSweepSpec:
    def test_grid_endpoints_exact(self):
        spec = SweepSpec.from_grid("crow.beta", 0.3, 0.5, 5)
        assert spec.values[0] == 0.3
        assert spec.values[-1] == 0.5
        assert len(spec.values) == 5

    def test_grid_needs_two_steps(self):
        with pytest.raises(ValidationError):
            SweepSpec.from_grid("crow.beta", 0.3, 0.5, 1)

    def test_empty_values_rejected(self):
        with pytest.raises(ValidationError):
            SweepSpec("crow.beta", ())

    def test_unknown_path_rejected_at_construction(self):
        with pytest.raises(UnknownParameterError):
            SweepSpec("nope", (1.0,))

    @pytest.mark.parametrize("scalar", [np.float32(0.4), np.float64(0.4)], ids=repr)
    def test_a_numpy_scalar_value_is_rejected(self, scalar):
        # np.float64 subclasses float; taken for one, a CSV report would
        # write its repr, np.float64(0.4), as the cell.
        with pytest.raises(ValidationError) as err:
            SweepSpec("f", (scalar,))
        assert str(err.value) == (
            f"sweep over 'f': value must be a finite number, got {scalar!r}")


class TestOneAtATime:
    def test_beta_sweep_hits_known_mileages(self, catalog):
        consumer = catalog["Consumer Automotive"]
        report = one_at_a_time(consumer, S3, SweepSpec("crow.beta", (0.3, 0.4, 0.5)))
        assert report.kind is AnalysisKind.SWEEP
        expected_miles = {
            0.3: (1e4) ** (1 / 0.3),  # about 2.15e13
            0.4: 1e10,
            0.5: 1e8,
        }
        assert len(report.entries) == 3
        for entry, beta in zip(report.entries, (0.3, 0.4, 0.5)):
            assert dict(entry.inputs)["crow.beta"] == beta
            direct = project(set_parameter(consumer, "crow.beta", beta), S3)
            assert entry.t_total == direct.breakdown.t_total
            assert entry.calendar_year == direct.breakdown.calendar_year
            assert direct.intermediate.crow_miles == pytest.approx(
                expected_miles[beta], rel=1e-9)
        assert expected_miles[0.3] == pytest.approx(2.15e13, rel=1e-2)

    def test_f_sweep_over_worked_inputs(self, worked_inputs):
        report = one_at_a_time(worked_inputs, S3, SweepSpec("f", (0.0, 0.7, 1.0)))
        totals = [e.t_total for e in report.entries]
        assert totals == pytest.approx([30.0, 23.0, 20.0], rel=1e-9)

    def test_single_value_sweep_equals_plain_projection(self, catalog):
        s = catalog["Military/Defense"]
        report = one_at_a_time(s, S3, SweepSpec("gamma_override", (0.3,)))
        direct = project(s, S3)
        (entry,) = report.entries
        assert entry.t_total == direct.breakdown.t_total
        assert entry.calendar_year == direct.breakdown.calendar_year
        assert entry.gating == direct.breakdown.gating
        assert report.summary.minimum == report.summary.maximum == entry.t_total

    def test_all_values_validated_before_any_projection(self, catalog):
        with pytest.raises(ValidationError, match=beta_1_2_error("Robo-Taxis")):
            one_at_a_time(catalog["Robo-Taxis"], S3,
                          SweepSpec("crow.beta", (0.4, 1.2)))

    def test_memory_grows_by_a_few_columns_per_value(self, catalog):
        # Each row is built and projected in turn and only its outputs are
        # kept: the peak measured 112-115 B a value at 20k and 100k values
        # (list and tuple slots, one float and one int a row).  Holding
        # every row's scenario and breakdown until the last projection
        # measured 470-530 B a value.
        n = 20_000
        sweep = SweepSpec.from_grid("crow.beta", 0.3, 0.6, n)
        tracemalloc.start()
        try:
            report = one_at_a_time(catalog["Robo-Taxis"], S3, sweep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.t_total) == n
        assert peak / n < 200

    def test_monotone_parameter_gives_monotone_totals(self, catalog):
        report = one_at_a_time(
            catalog["Highway Trucking"], S3,
            SweepSpec("crow.severity", (1.0, 2.0, 3.0, 4.0, 5.0)))
        totals = [e.t_total for e in report.entries]
        assert totals == sorted(totals)

    @pytest.mark.parametrize("values", [(1e308, 1e308), (1e308,) * 50, (1e308, 2.0, 1e300)])
    def test_mean_of_totals_whose_sum_overflows(self, catalog, values):
        # Totals near 1e308 overflow math.fsum; their mean does not.
        report = one_at_a_time(catalog["Highway Trucking"], S3,
                               SweepSpec("prod_reg_years.stage3", values))
        totals = [e.t_total for e in report.entries]
        assert report.summary.mean == pytest.approx(
            math.fsum(t / len(totals) for t in totals), rel=1e-15)

    def test_summary_statistics(self, catalog):
        report = one_at_a_time(
            catalog["Industrial/Mining"], S3,
            SweepSpec("gamma_override", (0.1, 0.2, 0.3)))
        totals = [e.t_total for e in report.entries]
        assert report.summary.minimum == min(totals)
        assert report.summary.maximum == max(totals)
        assert report.summary.mean == pytest.approx(sum(totals) / 3, rel=1e-12)


class TestTornado:
    def test_severity_dominates_ten_percent_excursions(self, catalog):
        # The severity excursion spans its full credible range (1 to 5);
        # multiplicative parameters get symmetric ten-percent bounds.
        truck = catalog["Highway Trucking"]
        bounds = [
            ParameterBounds("crow.severity", 1.0, 5.0),
            ParameterBounds("crow.alpha", 0.9e-4, 1.1e-4),
            ParameterBounds("crow_lambda_target", 0.9e-8, 1.1e-8),
            ParameterBounds("annual_miles", 0.9e9, 1.1e9),
            ParameterBounds("gamma_override", 0.36, 0.44),
            ParameterBounds("f", 0.63, 0.77),
        ]
        report = tornado(truck, S3, bounds)
        assert report.kind is AnalysisKind.TORNADO
        spreads = report.tornado_spreads
        assert spreads[0].parameter_path == "crow.severity"
        assert [s.spread for s in spreads] == sorted(
            (s.spread for s in spreads), reverse=True)
        # f cannot matter when there is no compute wait to overlap
        f_spread = next(s for s in spreads if s.parameter_path == "f")
        assert f_spread.spread == 0.0

    def test_endpoint_consistency_with_sweeps(self, catalog):
        s = catalog["Robo-Taxis"]
        (spread,) = tornado(s, S3, [ParameterBounds("crow.beta", 0.35, 0.45)]).tornado_spreads
        sweep = one_at_a_time(s, S3, SweepSpec("crow.beta", (0.35, 0.45)))
        assert spread.t_total_low == sweep.entries[0].t_total
        assert spread.t_total_high == sweep.entries[1].t_total

    def test_zero_effect_parameter_has_zero_spread(self, catalog):
        # Industrial demand already fits capacity, so chi cannot move anything.
        (spread,) = tornado(
            catalog["Industrial/Mining"], S3,
            [ParameterBounds("chi.stage3", 0.5, 1.0)],
        ).tornado_spreads
        assert spread.spread == 0.0

    def test_empty_bounds_give_empty_report(self, catalog):
        report = tornado(catalog["Industrial/Mining"], S3, [])
        assert report.entries == ()
        assert report.tornado_spreads == ()
        assert report.summary is None

    def test_duplicate_paths_rejected(self, catalog):
        with pytest.raises(ValidationError, match="duplicate"):
            tornado(catalog["Industrial/Mining"], S3, [
                ParameterBounds("crow.beta", 0.35, 0.45),
                ParameterBounds("crow.beta", 0.3, 0.5),
            ])

    def test_bounds_validated_before_any_projection(self, catalog):
        with pytest.raises(ValidationError, match=beta_1_2_error("Industrial/Mining")):
            tornado(catalog["Industrial/Mining"], S3, [
                ParameterBounds("crow.severity", 1.0, 2.0),
                ParameterBounds("crow.beta", 0.4, 1.2),
            ])


class TestMonteCarlo:
    DIST_BETA = DistributionSpec(
        parameter_path="crow.beta", kind=DistributionKind.UNIFORM,
        low=0.3, high=0.5)

    def test_zero_width_distribution_reproduces_baseline(self, catalog):
        s = catalog["Military/Defense"]
        dist = DistributionSpec("gamma_override", DistributionKind.UNIFORM,
                                low=0.3, high=0.3)
        report = monte_carlo(s, S3, [dist], sample_count=32, seed=5)
        baseline = project(s, S3).breakdown.t_total
        assert all(e.t_total == pytest.approx(baseline, rel=1e-12)
                   for e in report.entries)

    def test_same_seed_is_identical(self, catalog):
        s = catalog["Consumer Automotive"]
        a = monte_carlo(s, S3, [self.DIST_BETA], sample_count=64, seed=123)
        b = monte_carlo(s, S3, [self.DIST_BETA], sample_count=64, seed=123)
        assert a == b

    def test_different_seeds_differ(self, catalog):
        s = catalog["Consumer Automotive"]
        a = monte_carlo(s, S3, [self.DIST_BETA], sample_count=64, seed=123)
        b = monte_carlo(s, S3, [self.DIST_BETA], sample_count=64, seed=124)
        assert a != b

    def test_median_lies_between_sweep_endpoints(self, catalog):
        s = catalog["Consumer Automotive"]
        report = monte_carlo(s, S3, [self.DIST_BETA], sample_count=10_000, seed=7)
        ends = one_at_a_time(s, S3, SweepSpec("crow.beta", (0.3, 0.5)))
        hi, lo = ends.entries[0].t_total, ends.entries[1].t_total
        median = dict(report.percentiles)[50]
        assert lo < median < hi
        assert report.sample_count == 10_000
        assert report.seed == 7

    def test_percentiles_nondecreasing(self, catalog):
        report = monte_carlo(catalog["Robo-Taxis"], S3, [self.DIST_BETA],
                             sample_count=128, seed=11)
        levels = [p for p, _ in report.percentiles]
        values = [v for _, v in report.percentiles]
        assert tuple(levels) == MC_PERCENTILES
        assert values == sorted(values)

    def test_triangular_samples_respect_bounds(self, catalog):
        dist = DistributionSpec("crow.beta", DistributionKind.TRIANGULAR,
                                low=0.3, high=0.5, mode=0.4)
        report = monte_carlo(catalog["Robo-Taxis"], S3, [dist],
                             sample_count=256, seed=3)
        for entry in report.entries:
            beta = dict(entry.inputs)["crow.beta"]
            assert 0.3 <= beta <= 0.5

    def test_triangular_requires_mode_in_bounds(self):
        with pytest.raises(ValidationError):
            DistributionSpec("crow.beta", DistributionKind.TRIANGULAR,
                             low=0.3, high=0.5, mode=0.6)
        with pytest.raises(ValidationError):
            DistributionSpec("crow.beta", DistributionKind.UNIFORM,
                             low=0.3, high=0.5, mode=0.4)

    def test_invalid_bounds_rejected_before_sampling(self, catalog):
        dist = DistributionSpec("crow.beta", DistributionKind.UNIFORM,
                                low=0.4, high=1.2)
        with pytest.raises(ValidationError, match=beta_1_2_error("Robo-Taxis")):
            monte_carlo(catalog["Robo-Taxis"], S3, [dist],
                        sample_count=16, seed=0)

    def test_integer_paths_not_sampleable(self, catalog):
        dist = DistributionSpec("n_objects", DistributionKind.UNIFORM,
                                low=20, high=40)
        with pytest.raises(ValidationError):
            monte_carlo(catalog["Robo-Taxis"], S3, [dist],
                        sample_count=16, seed=0)

    def test_seed_range_enforced(self, catalog):
        with pytest.raises(ValidationError):
            monte_carlo(catalog["Robo-Taxis"], S3, [self.DIST_BETA],
                        sample_count=16, seed=-1)
        with pytest.raises(ValidationError):
            monte_carlo(catalog["Robo-Taxis"], S3, [self.DIST_BETA],
                        sample_count=16, seed=2 ** 64)
        # the extremes of the legal range must work
        monte_carlo(catalog["Robo-Taxis"], S3, [self.DIST_BETA],
                    sample_count=4, seed=2 ** 64 - 1)

    def test_needs_at_least_one_distribution_and_sample(self, catalog):
        with pytest.raises(ValidationError):
            monte_carlo(catalog["Robo-Taxis"], S3, [], sample_count=16, seed=0)
        with pytest.raises(ValidationError):
            monte_carlo(catalog["Robo-Taxis"], S3, [self.DIST_BETA],
                        sample_count=0, seed=0)


def _tornado_of(scenario, specs):
    return tornado(scenario, S3, [ParameterBounds(*spec) for spec in specs])


def _monte_carlo_of(scenario, specs):
    dists = [DistributionSpec(path, DistributionKind.UNIFORM, low, high)
             for path, low, high in specs]
    return monte_carlo(scenario, S3, dists, sample_count=16, seed=0)


@pytest.mark.parametrize("analysis", [_tornado_of, _monte_carlo_of])
@pytest.mark.parametrize("specs, pattern", [
    # A second spec of a path is rejected before any bound is checked.
    ([("crow.severity", 1.0, 2.0), ("crow.beta", 0.4, 1.2), ("crow.severity", 1.0, 3.0)],
     r"^duplicate (tornado bounds|distribution) for parameter 'crow\.severity'$"),
    # Bounds are checked in spec order, low before high.
    ([("f", 0.2, 0.9), ("crow.beta", 0.4, 1.2), ("crow.alpha", 0.5, 2.0)],
     beta_1_2_error("Robo-Taxis")),
    ([("f", 0.2, 0.9), ("crow.beta", 1.2, 1.5)], beta_1_2_error("Robo-Taxis")),
])
def test_spec_errors_come_in_order(catalog, analysis, specs, pattern):
    with pytest.raises(ValidationError, match=pattern):
        analysis(catalog["Robo-Taxis"], specs)
