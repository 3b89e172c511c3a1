"""The shared model terms on floats and on columns, against references.

``project`` runs the model's term functions on Python floats; Monte
Carlo runs the same functions over numpy columns, and sweeps and
tornados project each row on its own.  The cases here check:

- ``project`` against the chain of public functions it once called
  (``compute_demand`` ... ``compose_total``);
- numpy against libm arithmetic on the shared terms: Monte Carlo
  against a copy of the per-row loop it replaced (``set_parameter``
  then ``project``, one row and one Philox generator per sample);
- the fallback rows: samples that fail each term check, lie outside
  their distribution's bounds or come from a scenario holding a JSON
  integer float64 does not;
- sweeps and tornados against their reference loops;
- the calendar years of a column against ``_calendar_year``.

Reports must be equal, renders in all four formats byte-identical, and
errors the same text.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from avhorizon import sensitivity
from avhorizon.complexity import (
    ComputeEnv,
    compute_demand,
    effective_demand,
    hpc_horizon_years,
)
from avhorizon.errors import ValidationError
from avhorizon.reliability import crow_required_miles, demonstration_years, poisson_required_miles
from avhorizon.report import ReportFormat, render_sensitivity
from avhorizon.scenario import Intermediates, builtin_catalog, project
from avhorizon.sensitivity import (
    MC_PERCENTILES,
    AnalysisKind,
    DistributionKind,
    DistributionSpec,
    ParameterBounds,
    SensitivityEntry,
    SensitivityReport,
    SweepSpec,
    TornadoSpread,
    _calendar_years,
    _summarize,
    _uniforms,
    monte_carlo,
    one_at_a_time,
    set_parameter,
    tornado,
    valid_parameter_paths,
)
from avhorizon.timeline import PROJECTABLE_STAGES, Stage, StageSpec, _calendar_year, compose_total

CATALOG = builtin_catalog()
S2, S3 = Stage.REVENUE_SERVICE, Stage.BROAD_COMMERCIAL

# A valid interval for every float path; some reach values whose terms
# overflow (tiny crow.beta, huge severity), so errors are compared too.
FLOAT_RANGES = {
    "cycle_time_s": (1e-3, 2.0),
    "chi.stage2": (1e-30, 1.0),
    "chi.stage3": (1e-30, 1.0),
    "compute_env.current_capacity": (1e3, 1e25),
    "compute_env.doubling_period_years": (0.1, 10.0),
    "crow.alpha": (1e-9, 1.0),
    "crow.beta": (0.005, 0.999),
    "crow.severity": (1.0, 1e30),
    "crow_lambda_target": (1e-14, 1e-2),
    "poisson.confidence": (1e-6, 0.999999),
    "poisson.safety_factor": (1.0, 100.0),
    "poisson.lambda_target": (1e-14, 1e-3),
    "annual_miles": (1e-3, 1e13),
    "gamma_override": (1e-3, 1e3),
    "base_delta": (1e-6, 1.0),
    "f": (0.0, 1.0),
    "prod_reg_years.stage2": (0.0, 50.0),
    "prod_reg_years.stage3": (0.0, 50.0),
}
FORMATS = tuple(ReportFormat)


# ---------------------------------------------------------------------------
# The scalar path: reference loops, one row at a time
# ---------------------------------------------------------------------------


def scalar_inverse_cdf(dist, u):
    span = dist.high - dist.low
    if span == 0.0:
        return dist.low
    if dist.kind is DistributionKind.UNIFORM:
        return dist.low + span * u
    cut = (dist.mode - dist.low) / span
    if u < cut:
        return dist.low + math.sqrt(u * span * (dist.mode - dist.low))
    return dist.high - math.sqrt((1.0 - u) * span * (dist.high - dist.mode))


def scalar_entry(inputs, scenario, stage):
    breakdown = project(scenario, stage).breakdown
    return SensitivityEntry(inputs, breakdown.t_total, breakdown.calendar_year,
                            breakdown.gating)


def columnar_report(entries, **fields):
    """The report holding per-row entries as columns: one per input path
    in first-seen order, None where a row does not set the path."""
    paths = dict.fromkeys(path for e in entries for path, _ in e.inputs)
    rows = [dict(e.inputs) for e in entries]
    return SensitivityReport(
        inputs=tuple((path, tuple(row.get(path) for row in rows)) for path in paths),
        t_total=tuple(e.t_total for e in entries),
        calendar_year=tuple(e.calendar_year for e in entries),
        gating=tuple(e.gating for e in entries),
        summary=_summarize([e.t_total for e in entries]) if entries else None,
        **fields,
    )


def scalar_monte_carlo(scenario, stage, distributions, sample_count, seed):
    for dist in distributions:
        for value in (dist.low, dist.high, dist.mode):
            if value is not None:
                set_parameter(scenario, dist.parameter_path, value)
    baseline = project(scenario, stage)
    entries = []
    for index in range(sample_count):
        key = np.array([seed, index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        modified, inputs = scenario, []
        for dist in distributions:
            value = scalar_inverse_cdf(dist, rng.random())
            modified = set_parameter(modified, dist.parameter_path, value)
            inputs.append((dist.parameter_path, value))
        entries.append(scalar_entry(tuple(inputs), modified, stage))
    t_totals = np.array([e.t_total for e in entries], dtype=np.float64)
    return columnar_report(
        entries, kind=AnalysisKind.MONTE_CARLO, category=scenario.name, stage=stage,
        baseline_t_total=baseline.breakdown.t_total,
        percentiles=tuple((p, float(np.percentile(t_totals, p))) for p in MC_PERCENTILES),
        seed=seed, sample_count=sample_count,
    )


def scalar_sweep(scenario, stage, sweep):
    path = sweep.parameter_path
    modified = [(v, set_parameter(scenario, path, v)) for v in sweep.values]
    baseline = project(scenario, stage)
    entries = tuple(scalar_entry(((path, v),), m, stage) for v, m in modified)
    return columnar_report(
        entries, kind=AnalysisKind.SWEEP, category=scenario.name, stage=stage,
        baseline_t_total=baseline.breakdown.t_total,
    )


def scalar_tornado(scenario, stage, bounds):
    probes = [(b, set_parameter(scenario, b.parameter_path, b.low),
               set_parameter(scenario, b.parameter_path, b.high)) for b in bounds]
    baseline = project(scenario, stage)
    evaluated = []
    for b, low_scenario, high_scenario in probes:
        low = scalar_entry(((b.parameter_path, b.low),), low_scenario, stage)
        high = scalar_entry(((b.parameter_path, b.high),), high_scenario, stage)
        evaluated.append((b, low, high, abs(high.t_total - low.t_total)))
    evaluated.sort(key=lambda item: item[3], reverse=True)
    entries = tuple(e for _, low, high, _ in evaluated for e in (low, high))
    return columnar_report(
        entries, kind=AnalysisKind.TORNADO, category=scenario.name, stage=stage,
        baseline_t_total=baseline.breakdown.t_total,
        tornado_spreads=tuple(
            TornadoSpread(b.parameter_path, b.low, b.high, low.t_total, high.t_total, spread)
            for b, low, high, spread in evaluated),
    )


def outcome(analysis, *args):
    """The report, or the type and text of the error raised."""
    try:
        return analysis(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


def assert_same(columnar, scalar):
    assert columnar == scalar
    if isinstance(scalar, SensitivityReport) and scalar.entries:
        for fmt in FORMATS:
            assert render_sensitivity(columnar, fmt) == render_sensitivity(scalar, fmt)


# ---------------------------------------------------------------------------
# project against the public functions
# ---------------------------------------------------------------------------


def public_chain(scenario, stage):
    """project's breakdown and intermediates, composed from the public
    functions of complexity, reliability and timeline."""
    naive = compute_demand(scenario.n_objects, scenario.cycle_time_s)
    effective = effective_demand(naive, getattr(scenario.chi, stage.value))
    t_comp = hpc_horizon_years(effective, scenario.compute_env)
    spec = StageSpec.for_stage(stage, getattr(scenario.prod_reg_years, stage.value))
    delta = scenario.base_delta * spec.delta_multiplier
    crow_miles = crow_required_miles(scenario.crow, scenario.crow_lambda_target)
    t_crow_total = demonstration_years(crow_miles, scenario.gamma_override, delta,
                                       scenario.annual_miles)
    poisson_miles = poisson_required_miles(scenario.poisson)
    t_poisson = demonstration_years(poisson_miles, scenario.gamma_override, delta,
                                    scenario.annual_miles)
    breakdown = compose_total(t_comp, t_crow_total, scenario.f, t_poisson, spec.prod_reg_years,
                              scenario.baseline_year)
    return breakdown, Intermediates(naive, effective, crow_miles, poisson_miles,
                                    scenario.gamma_override, delta)


@st.composite
def scenarios(draw):
    """A catalog scenario with up to six FLOAT_RANGES paths set, often to
    an end of their range, and sometimes an n_objects beyond float range."""
    scenario = draw(st.sampled_from(CATALOG))
    paths = draw(st.lists(st.sampled_from(sorted(FLOAT_RANGES)), max_size=6, unique=True))
    for path in paths:
        low, high = FLOAT_RANGES[path]
        value = draw(st.one_of(st.sampled_from([low, high]),
                               st.floats(low, high, allow_nan=False)))
        scenario = set_parameter(scenario, path, value)
    n_objects = draw(st.sampled_from([None, 1, 2**70, 2**1100]))
    if n_objects is not None:
        scenario = dataclasses.replace(scenario, n_objects=n_objects)
    return scenario


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenario=scenarios(), stage=st.sampled_from(PROJECTABLE_STAGES))
def test_project_equals_the_public_function_chain(scenario, stage):
    def projected(scenario, stage):
        result = project(scenario, stage)
        return result.breakdown, result.intermediate

    expected = outcome(public_chain, scenario, stage)
    actual = outcome(projected, scenario, stage)
    # repr tells -0.0 from 0.0 and an int from a float.
    assert actual == expected and repr(actual) == repr(expected)


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 2**53 + 1, 2**64 - 1])
@pytest.mark.parametrize("draws", range(1, 9))
def test_draws_equal_numpy_philox(seed, draws):
    # Draws 1-4 come from counter block 1, draws 5-8 from block 2.
    columns = _uniforms(seed, 300, draws)
    assert len(columns) == draws
    for index in range(300):
        key = np.array([seed, index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        assert [float(c[index]) for c in columns] == [rng.random() for _ in range(draws)]


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@st.composite
def distributions(draw):
    paths = draw(st.lists(st.sampled_from(sorted(FLOAT_RANGES)), min_size=1, max_size=6,
                          unique=True))
    specs = []
    for path in paths:
        low_limit, high_limit = FLOAT_RANGES[path]
        bound = st.floats(low_limit, high_limit, allow_nan=False, allow_infinity=False)
        low = draw(bound)
        high = draw(st.one_of(st.just(low), bound.filter(lambda v: v >= low)))
        kind = draw(st.sampled_from(DistributionKind))
        mode = None
        if kind is DistributionKind.TRIANGULAR:
            mode = draw(st.one_of(st.just(low), st.just(high),
                                  st.floats(low, high, allow_nan=False)))
        specs.append(DistributionSpec(path, kind, low, high, mode))
    return specs


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scenario=st.sampled_from(CATALOG), stage=st.sampled_from(PROJECTABLE_STAGES),
       dists=distributions(), sample_count=st.integers(1, 40),
       seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**53 + 1, 2**64 - 1])))
def test_monte_carlo_equals_scalar_loop(scenario, stage, dists, sample_count, seed):
    assert_same(outcome(monte_carlo, scenario, stage, dists, sample_count, seed),
                outcome(scalar_monte_carlo, scenario, stage, dists, sample_count, seed))


def one_span(scenario, span):
    """The scenario with every stage-3 span but one made negligible, so a
    last-bit difference in that span reaches t_total."""
    no_growth = dict(crow_lambda_target=1.0, prod_reg_years=dataclasses.replace(
        scenario.prod_reg_years, stage3=0.0))
    if span == "t_comp":
        return dataclasses.replace(scenario, poisson=dataclasses.replace(
            scenario.poisson, lambda_target=1.0), **no_growth)
    return dataclasses.replace(scenario, chi=dataclasses.replace(scenario.chi, stage3=1e-30),
                               **no_growth)


@pytest.mark.parametrize("path", sorted(FLOAT_RANGES))
def test_monte_carlo_each_path(path):
    # Enough samples that numpy's log10, log or ** would differ from
    # libm's in the last bit somewhere.
    low, high = FLOAT_RANGES[path]
    dists = [DistributionSpec(path, DistributionKind.TRIANGULAR, low, high, low + (high - low) / 3)]
    cases = [(CATALOG[0], S2), (CATALOG[0], S3),
             (one_span(CATALOG[0], "t_comp"), S3), (one_span(CATALOG[0], "t_poisson"), S3)]
    for scenario, stage in cases:
        assert_same(outcome(monte_carlo, scenario, stage, dists, 1000, 7),
                    outcome(scalar_monte_carlo, scenario, stage, dists, 1000, 7))


def test_zero_width_distribution_reports_bound_as_given():
    dists = [DistributionSpec("gamma_override", DistributionKind.UNIFORM, 1, 1),
             DistributionSpec("f", DistributionKind.TRIANGULAR, 0, 1, 1)]
    report = monte_carlo(CATALOG[1], S3, dists, 8, 3)
    assert all(type(dict(e.inputs)["gamma_override"]) is int for e in report.entries)
    assert_same(report, scalar_monte_carlo(CATALOG[1], S3, dists, 8, 3))


@pytest.fixture
def calls(monkeypatch):
    """How often sensitivity calls set_parameter and project."""
    counts = {"set_parameter": 0, "project": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name, fn in (("set_parameter", set_parameter), ("project", project)):
        monkeypatch.setattr(sensitivity, name, counted(name, fn))
    return counts


@pytest.mark.parametrize("scenario", CATALOG[:4])
@pytest.mark.parametrize("stage", PROJECTABLE_STAGES)
def test_no_generator_set_parameter_or_project_per_sample(monkeypatch, calls, scenario, stage):
    monkeypatch.setattr(np.random, "Philox", None)
    dists = [DistributionSpec("crow.beta", DistributionKind.TRIANGULAR, 0.3, 0.6, 0.4),
             DistributionSpec("f", DistributionKind.UNIFORM, 0.0, 1.0),
             DistributionSpec("cycle_time_s", DistributionKind.UNIFORM, 0.01, 1.0),
             DistributionSpec("chi.stage3", DistributionKind.TRIANGULAR, 1e-6, 1.0, 1.0),
             DistributionSpec("poisson.confidence", DistributionKind.UNIFORM, 0.5, 0.99),
             DistributionSpec("crow.severity", DistributionKind.TRIANGULAR, 1.0, 9.0, 1.0)]
    report = monte_carlo(scenario, stage, dists, 5000, 11)
    assert len(report.entries) == 5000
    # Each distribution's bounds (and mode) are validated; one baseline projection.
    assert calls == {"set_parameter": 15, "project": 1}


@pytest.mark.parametrize("low, mode, high", [
    (1e-300, 1e300, 1e300),  # below the branch point: the sqrt of inf
    (1e-300, 1e-300, 1e300),  # above it: 1e300 - inf
    (1e-300, 1e300, 1.7e308),  # both branches out of float range
])
def test_samples_beyond_float_range_raise_no_numpy_warning(low, mode, high):
    dists = [DistributionSpec("annual_miles", DistributionKind.TRIANGULAR, low, high, mode)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columnar = outcome(monte_carlo, CATALOG[0], S3, dists, 50, 3)
    assert columnar == outcome(scalar_monte_carlo, CATALOG[0], S3, dists, 50, 3)
    assert columnar[0] is ValidationError


def test_no_entry_object_while_analysing_or_rendering(monkeypatch):
    # Reports hold columns; SensitivityEntry is built only when a caller
    # reads report.entries.
    def no_entry(*args):
        raise AssertionError("SensitivityEntry built")

    monkeypatch.setattr(sensitivity, "SensitivityEntry", no_entry)
    reports = [
        monte_carlo(CATALOG[0], S3, [
            DistributionSpec("crow.beta", DistributionKind.TRIANGULAR, 0.3, 0.6, 0.4),
            DistributionSpec("f", DistributionKind.UNIFORM, 0, 0)], 500, 1),
        one_at_a_time(CATALOG[1], S2, SweepSpec("n_objects", (10, 20.0, 30))),
        tornado(CATALOG[2], S3, [ParameterBounds("crow.beta", 0.3, 0.5),
                                 ParameterBounds("n_objects", 10, 10),
                                 ParameterBounds("f", 0.2, 0.9)]),
    ]
    for report in reports:
        for fmt in FORMATS:
            render_sensitivity(report, fmt)
    with pytest.raises(AssertionError, match="SensitivityEntry built"):
        reports[0].entries[0]


def test_sample_outside_its_bounds_takes_the_scalar_path(monkeypatch):
    # u = 0 maps triangular(low, low, 1) to 1 - sqrt(1 * 1 * 1) = 0.0,
    # below a subnormal low: the scalar path rejects that gamma_override.
    monkeypatch.setattr(sensitivity, "_uniforms", lambda *_: [np.array([0.5, 0.0])])
    dist = DistributionSpec("gamma_override", DistributionKind.TRIANGULAR, 5e-324, 1.0, 5e-324)
    with pytest.raises(ValidationError) as expected:
        set_parameter(CATALOG[0], "gamma_override", 0.0)
    with pytest.raises(ValidationError) as raised:
        monte_carlo(CATALOG[0], S3, [dist], 2, 0)
    assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Sweep and tornado
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path, values", [
    ("n_objects", (1, 20, 35.0, 60, 120, 1000, 2**70)),
    ("baseline_year", (1, 2024, 2030.0, 9999)),
    ("crow.beta", (0.05, 0.3, 0.4, 0.5, 0.999)),
    ("compute_env.current_capacity", (1, 1e13, 3e13, 1e300)),
    ("f", (0, 0.25, 0.5, 0.7, 1)),
])
@pytest.mark.parametrize("stage", PROJECTABLE_STAGES)
def test_sweep_equals_scalar_loop(path, values, stage):
    for scenario in CATALOG:
        sweep = SweepSpec(path, values)
        assert_same(outcome(one_at_a_time, scenario, stage, sweep),
                    outcome(scalar_sweep, scenario, stage, sweep))


def every_path_bounds(scale, beta_low=0.3):
    """Bounds for all 20 registry paths, from baseline-like to wide.

    From crow.beta 0.3 every catalog scenario projects at every bound;
    from 0.005 the growth mileage overflows at the low bound.
    """
    ranges = {**FLOAT_RANGES, "crow.beta": (beta_low, FLOAT_RANGES["crow.beta"][1])}
    bounds = [ParameterBounds(path, low, low + (high - low) * scale)
              for path, (low, high) in ranges.items()]
    bounds.append(ParameterBounds("n_objects", 10, 10 + round(90 * scale)))
    bounds.append(ParameterBounds("baseline_year", 2000, 2000 + round(50 * scale)))
    assert sorted(b.parameter_path for b in bounds) == sorted(valid_parameter_paths())
    return bounds


@pytest.mark.parametrize("scale", [0.0, 1e-6, 0.01, 0.5])
@pytest.mark.parametrize("stage", PROJECTABLE_STAGES)
def test_tornado_over_every_path_equals_scalar_loop(scale, stage):
    bounds = every_path_bounds(scale)
    for scenario in CATALOG:
        columnar = outcome(tornado, scenario, stage, bounds)
        assert isinstance(columnar, SensitivityReport)
        assert_same(columnar, outcome(scalar_tornado, scenario, stage, bounds))


@pytest.mark.parametrize("scenario", CATALOG[:4])
@pytest.mark.parametrize("stage", PROJECTABLE_STAGES)
def test_tornado_builds_each_bound_once(calls, scenario, stage):
    bounds = every_path_bounds(0.5)
    assert len(tornado(scenario, stage, bounds).entries) == 2 * len(bounds)
    # Each bound's scenario is built to validate it, then projected; one
    # baseline projection.
    assert calls == {"set_parameter": 2 * len(bounds), "project": 2 * len(bounds) + 1}


@pytest.mark.parametrize("stage", PROJECTABLE_STAGES)
def test_scenarios_the_registry_does_not_build(stage):
    # JSON integers in float fields, some of them beyond float64's 53 bits.
    base = CATALOG[0]
    for scenario in (
        dataclasses.replace(base, compute_env=ComputeEnv(10**13, 2)),
        dataclasses.replace(base, compute_env=ComputeEnv(2**60 + 1, 2)),
        dataclasses.replace(base, annual_miles=10**9, gamma_override=1,
                            crow=dataclasses.replace(base.crow, alpha=1, severity=3)),
        dataclasses.replace(base, annual_miles=2**60 + 1),
        dataclasses.replace(base, crow=dataclasses.replace(base.crow, alpha=1, severity=2**60 + 1)),
    ):
        bounds = every_path_bounds(0.01)
        assert_same(outcome(tornado, scenario, stage, bounds),
                    outcome(scalar_tornado, scenario, stage, bounds))
        # 2.0**60 < 2**60 + 1 exactly, but not once the integer is a float.
        sweep = SweepSpec("crow_lambda_target", (1e-9, 1e-8, 0.9999999999999999, 1, 2.0**60))
        assert_same(outcome(one_at_a_time, scenario, stage, sweep),
                    outcome(scalar_sweep, scenario, stage, sweep))
        dists = [DistributionSpec("crow_lambda_target", DistributionKind.UNIFORM, 2.0**60, 2.0**60),
                 DistributionSpec("annual_miles", DistributionKind.UNIFORM, 1e8, 1e10)]
        assert_same(outcome(monte_carlo, scenario, stage, dists, 20, 3),
                    outcome(scalar_monte_carlo, scenario, stage, dists, 20, 3))


# ---------------------------------------------------------------------------
# Errors: the first failing row raises the scalar path's text
# ---------------------------------------------------------------------------


def test_monte_carlo_sample_whose_growth_mileage_overflows():
    dists = [DistributionSpec("crow.beta", DistributionKind.UNIFORM, 0.005, 0.5)]
    columnar = outcome(monte_carlo, CATALOG[0], S3, dists, 200, 1)
    assert columnar == outcome(scalar_monte_carlo, CATALOG[0], S3, dists, 200, 1)
    assert columnar[0] is ValidationError
    assert columnar[1].startswith("the growth mileage (crow.alpha=0.0001 * crow.severity=1.0 "
                                  "/ crow_lambda_target=1e-08) ** (1 / crow.beta=0.0")


@pytest.mark.parametrize("stage", PROJECTABLE_STAGES)
def test_tornado_row_whose_growth_mileage_overflows(stage):
    bounds = every_path_bounds(0.01, beta_low=0.005)
    for scenario in CATALOG:
        columnar = outcome(tornado, scenario, stage, bounds)
        assert columnar == outcome(scalar_tornado, scenario, stage, bounds)
        assert columnar[1].startswith("the growth mileage")


@pytest.mark.parametrize("path, values, stage, message", [
    # 5e-324 * 0.5 rounds to a zero stage delta.
    ("base_delta", (1.0, 5e-324), S2,
     "the stage delta base_delta=5e-324 * stage multiplier 0.5 underflows to 0.0"),
    ("annual_miles", (1e9, 1e-300), S3,
     "the demonstration years 56568542494.923805 miles * gamma_override=0.9 * "
     "stage delta=1.0 / annual_miles=1e-300 exceed float range"),
])
def test_sweep_row_that_fails_a_term_check(path, values, stage, message):
    sweep = SweepSpec(path, values)
    actual = outcome(one_at_a_time, CATALOG[1], stage, sweep)
    assert actual == outcome(scalar_sweep, CATALOG[1], stage, sweep)
    assert actual == (ValidationError, message)


def test_sweep_whose_total_overflows():
    sweep = SweepSpec("prod_reg_years.stage3", (1.0, 1e308, 5e307))
    scenario = set_parameter(CATALOG[0], "compute_env.doubling_period_years", 1e307)
    actual = outcome(one_at_a_time, scenario, S3, sweep)
    assert actual == outcome(scalar_sweep, scenario, S3, sweep)
    assert actual[1] == (
        "the total of the spans t_comp=1.4000000000000003e+308, t_crow_total=10.0 "
        "(f=0.7), t_poisson=0.8438682460715464 and t_prod_reg=1e+308 exceeds float range"
    )


@pytest.mark.parametrize("scenario, path, low, high, stage, start, end", [
    (CATALOG[1], "base_delta", 5e-324, 1e-323, S2,
     "the stage delta base_delta=5e-324 * stage multiplier 0.5", "underflows to 0.0"),
    (CATALOG[1], "annual_miles", 1e-300, 2e-300, S3,
     "the demonstration years 56568542494.923805 miles", "exceed float range"),
    (set_parameter(CATALOG[0], "compute_env.doubling_period_years", 1e307),
     "prod_reg_years.stage3", 1e308, 1.7e308, S3,
     "the total of the spans t_comp=1.4000000000000003e+308", "exceeds float range"),
])
def test_monte_carlo_sample_that_fails_a_term_check(scenario, path, low, high, stage, start,
                                                    end):
    # Each sample lies inside its bounds; only the term check sends the
    # failing ones to the scalar path.
    dists = [DistributionSpec(path, DistributionKind.UNIFORM, low, high)]
    columnar = outcome(monte_carlo, scenario, stage, dists, 50, 3)
    assert columnar == outcome(scalar_monte_carlo, scenario, stage, dists, 50, 3)
    assert columnar[0] is ValidationError
    assert columnar[1].startswith(start) and columnar[1].endswith(end)


# ---------------------------------------------------------------------------
# Calendar years as a column
# ---------------------------------------------------------------------------


# Half-year ties, a total just below a half year, odd whole totals past
# 2**52 (where t + 0.5 would round), and totals from 2**62 up.
CALENDAR_TOTALS = [0.0, 0.5, 1.5, 2.5, 4.49, 43.84, 228.94, 0.49999999999999994,
                   float(2**52 + 1), float(2**52 + 12345), float(2**53 - 1),
                   math.nextafter(2.0**62, 0.0), 2.0**62, 2.0**63, 2.0**64 + 2**12, 1e300]


@pytest.mark.parametrize("baseline_year", [1, 2024, 9999])
def test_calendar_years_of_a_column_equal_calendar_year(baseline_year):
    totals = np.array(CALENDAR_TOTALS)
    years = _calendar_years(baseline_year, totals)
    expected = [_calendar_year(baseline_year, t) for t in CALENDAR_TOTALS]
    assert years == expected and all(type(year) is int for year in years)


@pytest.mark.parametrize("path", ["prod_reg_years.stage3", "baseline_year"])
def test_sweep_calendar_years_equal_scalar_loop(path):
    # prod_reg_years.stage3 is the total on this scenario: no compute,
    # growth or Poisson span (the oracle's exact half-year case).
    scenario = next(s for s in CATALOG if s.name == "Geo-fenced Vans/Buses")
    for leaf, value in {"crow_lambda_target": 1.0, "annual_miles": 1e30,
                        "prod_reg_years.stage3": 2.5}.items():
        scenario = set_parameter(scenario, leaf, value)
    values = CALENDAR_TOTALS if path.startswith("prod") else (1, 2023, 2024.0, 9999)
    sweep = SweepSpec(path, tuple(values))
    assert_same(outcome(one_at_a_time, scenario, S3, sweep),
                outcome(scalar_sweep, scenario, S3, sweep))
