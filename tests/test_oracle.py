"""The whole model against an independent 50-significant-digit oracle.

``exact`` writes the closed form again, from the README and the module
docstrings of complexity, reliability and timeline, in mpmath at 50
significant digits, on the exact binary values of a scenario's leaves:

    naive demand       log10 D   = n_objects log10 2 - log10 cycle_time_s
    effective demand   log10 D'  = log10 D + log10 chi
    compute horizon    t_comp    = max(0, T_d log2(D' / C_c))
    growth miles       R_crow    = (alpha severity / lambda_crow) ** (1 / beta),
                                   0 when lambda_crow >= alpha severity
    Poisson miles      R_poisson = -ln(1 - C) safety_factor / lambda_poisson
    stage delta        delta     = base_delta * share (1/2 at stage 2, 1 at stage 3)
    years              t         = R gamma_override delta / annual_miles
    split              partial   = f t_crow, final = (1 - f) t_crow
    total              t_total   = max(partial, t_comp) + final + t_poisson + t_prod_reg
    gating             compute-gated when t_comp > partial
    calendar year      baseline_year + floor(t_total + 1/2)

The oracle imports no term function and never calls ``project``; the
package is only asked for the catalog, ``set_parameter`` and the
functions under test.

Error bounds
------------
Each computed float is compared with the exact value within a bound
derived from how the package evaluates the formula, never within one
global rtol.  With u = 2**-53 the unit roundoff and eps = 2u:

* every + - * / rounds with relative error at most u, or with absolute
  error at most 2**-1075 when the result is subnormal; ``rounding(v)``
  is u + 2**-1075/|v| for each exact intermediate v;
* libm's log, log10 and pow are within one ulp: relative error eps.

The bounds are first order; every comparison allows twice the bound
(``SAFETY``), which covers the second-order terms.

* Demands and t_comp, absolute.  The naive log10 is n * fl(log10 2) -
  log10(cycle): the constant and the product err by u each on
  n log10 2, log10 by eps, the subtraction by u, so its error is at
  most 3u (n log10 2 + |log10 cycle|).  Adding log10 chi and
  subtracting log10 C_c adds 3u per term the same way, and the final
  T_d * gap / fl(log10 2) rounds twice and divides by a constant off
  by u.  Together |error of t_comp| <= 8u T_d S / log10 2 with S =
  n log10 2 + |log10 cycle| + |log10 chi| + |log10 C_c|, i.e.
  4 eps T_d S / log10 2.  The gap is a difference of such terms and
  cancels near a zero gap, so the bound is absolute: a relative one
  fails there.  The clamp at 0 is 1-Lipschitz and keeps it.
* Growth miles, relative.  pow(r^, 1/beta^) with r^ = r (1 + theta)
  and 1/beta^ = (1 + phi)/beta has log error (phi ln r + theta)/beta
  plus pow's own eps: the power amplifies the rounding of its inputs
  by 1/beta and by |ln ratio|, giving eps (1 + |ln ratio|)/beta up to
  the constant.  A log error L is a relative error exp(L) - 1, which
  is about L except for a tiny beta with a ratio near 1.
* Poisson miles, relative.  fl(1 - C) errs by at most u (exactly 0 for
  C >= 1/2), which log turns into an absolute error u, i.e. a relative
  u/|ln(1 - C)|: large only for tiny C, where 1 - C rounds to 1.  Then
  eps for log and one rounding per product.
* Years: the miles' and the stage delta's relative error plus one
  rounding per product, left to right as the README writes the term.
* The split: the larger share is a product, the smaller an exact
  difference (Sterbenz), so each share errs by at most twice the
  error of t_crow_total plus 2u t_crow_total.
* t_total adds the errors of its four addends (max is 1-Lipschitz)
  and u t_total per addition.  The calendar year is the floor of the
  reported t_total + 1/2, that sum taken exactly: it must equal the
  exact year unless the exact t_total + 1/2 lies within the error of
  t_total of an integer.
* Gating must be exact unless |t_comp - f t_crow_total| is within the
  sum of the two errors.

Over four runs of 3000 cases drawn at random (not derandomized) from
``cases``, every error stayed within 0.97 of its first-order bound.
Relative errors meanwhile reached 50 eps for t_comp near a zero gap
and 1 for t_poisson and t_total (a tiny C, where 1 - C rounds to 1
and the Poisson span to 0), so no single rtol holds them.

Float range.  Where the exact value of a checked term, widened by its
error bound, lies beyond float range, ``project`` must raise the error
that names the term (matched on its leading words, in the order
``project`` checks); where it lies within, it must not.  A stage delta
below 2**-1075 rounds to 0 and must raise.  A case whose term lies
within its error bound of the edge, or where rounding alpha severity
to a float moves it across lambda_crow (and so flips the "target met"
branch), checks nothing.

Inputs.  A case is a catalog scenario at stage 2 or 3 with a random
subset of the 20 parameter paths set through ``set_parameter``.  A
bounded domain is drawn over its whole declared interval.  The
unbounded domains are drawn log-uniform over finite sub-ranges
(``LOG_UNIFORM``), and ``n_objects`` over 1..400, where ``t_comp``
reaches thousands of years.
"""

import math
import sys
from dataclasses import fields
from functools import reduce

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from avhorizon import (
    PROJECTABLE_STAGES,
    DistributionKind,
    DistributionSpec,
    Gating,
    Intermediates,
    Magnitude,
    Stage,
    SweepSpec,
    TimelineBreakdown,
    ValidationError,
    builtin_catalog,
    monte_carlo,
    one_at_a_time,
    project,
    set_parameter,
    valid_parameter_paths,
)

MP = mpmath.MPContext()
MP.dps = 50

U = MP.ldexp(1, -53)
EPS = 2 * U
TINY = MP.ldexp(1, -1075)  # half the least subnormal: what a subnormal result may be off by
MAX = MP.mpf(sys.float_info.max)
OVERFLOW = MP.ldexp(1, 1024)  # a computed value at least this large rounds to inf
LN_MAX = MP.log(MAX)
LOG10_2 = MP.log10(2)
SHARE = {Stage.REVENUE_SERVICE: MP.mpf(0.5), Stage.BROAD_COMMERCIAL: MP.mpf(1)}
SAFETY = 2

CATALOG = builtin_catalog()

# Log-uniform draws for the unbounded domains.
LOG_UNIFORM = {
    "annual_miles": (1e-3, 1e15),
    "compute_env.current_capacity": (1.0, 1e30),
    "compute_env.doubling_period_years": (1e-2, 1e2),
    "crow.severity": (1.0, 1e30),
    "crow_lambda_target": (1e-15, 1.0),
    "cycle_time_s": (1e-6, 1e6),
    "gamma_override": (1e-3, 1e3),
    "poisson.lambda_target": (1e-15, 1.0),
    "poisson.safety_factor": (1.0, 1e3),
    "prod_reg_years.stage2": (1e-3, 1e4),
    "prod_reg_years.stage3": (1e-3, 1e4),
}
# The bounded domains, as the README's range table declares them:
# (low, high, low open, high open).
BOUNDED = {
    "base_delta": (0.0, 1.0, True, False),
    "chi.stage2": (0.0, 1.0, True, False),
    "chi.stage3": (0.0, 1.0, True, False),
    "crow.alpha": (0.0, 1.0, True, False),
    "crow.beta": (0.0, 1.0, True, True),
    "f": (0.0, 1.0, False, False),
    "poisson.confidence": (0.0, 1.0, True, True),
}


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(
        lambda exponent: min(max(10.0 ** exponent, low), high))


VALUES = {
    "n_objects": st.integers(1, 400),
    "baseline_year": st.integers(1, 9999),
    **{path: log_uniform(*bounds) for path, bounds in LOG_UNIFORM.items()},
    **{path: st.floats(low, high, exclude_min=low_open, exclude_max=high_open)
       for path, (low, high, low_open, high_open) in BOUNDED.items()},
}
for _path in ("prod_reg_years.stage2", "prod_reg_years.stage3"):  # [0, inf) holds 0 too
    VALUES[_path] = st.one_of(st.just(0.0), VALUES[_path])
PATHS = tuple(sorted(VALUES))
FLOAT_PATHS = tuple(p for p in PATHS if p not in ("n_objects", "baseline_year"))


def test_the_draws_cover_every_parameter_path():
    assert PATHS == valid_parameter_paths()


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class ExpectedError(Exception):
    """``project`` must raise the float-range error whose message starts so."""

    def __init__(self, prefix):
        super().__init__(prefix)
        self.prefix = prefix


# The leading words of each float-range error, in the order project checks.
FLOAT_RANGE_CHECKS = ("the compute horizon", "the rate ratio", "the growth mileage",
                      "the stage delta", "the demonstration years", "poisson.safety_factor",
                      "the total of the spans")


def rounding(*values):
    """First-order relative error of rounding each exact value once."""
    return sum(U + TINY / abs(v) for v in values if v)


class _Undecided(Exception):
    """Rounding decides whether a float-range check fails."""


def guard(prefix, value, error):
    """Pass a float-range check whose term stays within float range;
    raise ExpectedError where it must overflow, _Undecided where it may."""
    if value + SAFETY * error < MAX:
        return
    if value - SAFETY * error >= OVERFLOW:
        raise ExpectedError(prefix)
    raise _Undecided


def years(miles, rel_miles, gamma, delta, rel_delta, annual_miles):
    """miles * gamma * delta / annual_miles and its absolute error."""
    first = miles * gamma
    second = first * delta
    value = second / annual_miles
    return value, (rel_miles + rel_delta + rounding(first, second, value)) * value


def exact(scenario, stage):
    """name -> (exact value, error bound) of the breakdown spans and the
    intermediates of ``scenario`` at ``stage``; None where rounding may
    decide the outcome.  Raises ExpectedError where project must fail."""
    try:
        return _exact(scenario, stage)
    except _Undecided:
        return None


def _exact(scenario, stage):
    key = stage.value

    def get(path):
        return MP.mpf(reduce(getattr, path.split("."), scenario))

    n_log10 = get("n_objects") * LOG10_2
    lg_cycle = MP.log10(get("cycle_time_s"))
    lg_chi = MP.log10(get(f"chi.{key}"))
    lg_capacity = MP.log10(get("compute_env.current_capacity"))
    doubling = get("compute_env.doubling_period_years")
    naive = n_log10 - lg_cycle
    effective = naive + lg_chi
    t_comp = max(doubling * (effective - lg_capacity) / LOG10_2, MP.zero)
    scale = n_log10 + abs(lg_cycle) + abs(lg_chi) + abs(lg_capacity)
    err_comp = 4 * EPS * doubling * scale / LOG10_2
    guard("the compute horizon", t_comp, err_comp)

    start = get("crow.alpha") * get("crow.severity")
    target = get("crow_lambda_target")
    ratio = start / target
    if (target >= start) != (target >= MP.mpf(float(start))):
        return None  # the product's rounding to a float flips the "target met" branch
    rel_ratio = rounding(start, ratio)
    guard("the rate ratio", ratio, rel_ratio * ratio)
    beta = get("crow.beta")
    crow_miles, rel_crow = MP.zero, MP.zero
    if ratio > 1:
        ln_ratio = MP.log(ratio)
        if ln_ratio / beta > 2 * LN_MAX:  # too large to build; far beyond float range
            raise ExpectedError("the growth mileage")
        crow_miles = MP.exp(ln_ratio / beta)
        rel_crow = MP.expm1((U * ln_ratio + rel_ratio) / beta + EPS)
        guard("the growth mileage", crow_miles, rel_crow * crow_miles)

    delta = get("base_delta") * SHARE[stage]
    if delta <= TINY:
        raise ExpectedError("the stage delta")
    rel_delta = rounding(delta)
    gamma, annual_miles = get("gamma_override"), get("annual_miles")
    t_crow, err_crow = years(crow_miles, rel_crow, gamma, delta, rel_delta, annual_miles)
    guard("the demonstration years", t_crow, err_crow)

    log_term = -MP.log1p(-get("poisson.confidence"))  # 1 - C would round at 50 digits
    first = log_term * get("poisson.safety_factor")
    poisson_miles = first / get("poisson.lambda_target")
    rel_poisson = U / log_term + EPS + rounding(first, poisson_miles)
    guard("poisson.safety_factor", poisson_miles, rel_poisson * poisson_miles)
    t_poisson, err_poisson = years(poisson_miles, rel_poisson, gamma, delta, rel_delta,
                                   annual_miles)
    guard("the demonstration years", t_poisson, err_poisson)

    f = get("f")
    partial = f * t_crow
    err_split = 2 * err_crow + 2 * U * t_crow + TINY
    t_prod_reg = get(f"prod_reg_years.{key}")
    t_total = max(partial, t_comp) + (t_crow - partial) + t_poisson + t_prod_reg
    err_total = max(err_comp, err_split) + err_split + err_poisson + 3 * U * t_total
    guard("the total of the spans", t_total, err_total)
    return {
        "t_comp": (t_comp, err_comp),
        "t_crow_total": (t_crow, err_crow),
        "t_crow_partial": (partial, err_split),
        "t_crow_final": (t_crow - partial, err_split),
        "t_poisson": (t_poisson, err_poisson),
        "t_prod_reg": (t_prod_reg, MP.zero),
        "f": (f, MP.zero),
        "t_total": (t_total, err_total),
        "naive_demand": (naive, 3 * U * (n_log10 + abs(lg_cycle))),
        "effective_demand": (effective, 4 * U * (n_log10 + abs(lg_cycle) + abs(lg_chi))),
        "crow_miles": (crow_miles, rel_crow * crow_miles),
        "poisson_miles": (poisson_miles, rel_poisson * poisson_miles),
        "delta_effective": (delta, rel_delta * delta),
        "baseline_year": (get("baseline_year"), MP.zero),
    }


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def assert_close(name, computed, expected):
    value, error = expected
    assert abs(MP.mpf(computed) - value) <= SAFETY * error, (
        f"{name}: {computed!r} vs exact {MP.nstr(value, 20)} (bound {MP.nstr(error, 3)})")


def assert_outputs(expected, t_total, calendar_year, gating):
    """t_total, the calendar year and gating against the exact values."""
    assert_close("t_total", t_total, expected["t_total"])
    # The exact year, unless the exact t_total + 1/2 lies within the error
    # of an integer ...
    total, error = expected["t_total"]
    half_up = total + MP.mpf(0.5)
    window = SAFETY * error
    years_after = calendar_year - int(expected["baseline_year"][0])
    assert int(MP.floor(half_up - window)) <= years_after <= int(MP.floor(half_up + window))
    # ... and always floor(t_total + 1/2) of the reported t_total, exactly.
    assert years_after == int(MP.floor(MP.mpf(t_total) + MP.mpf(0.5)))
    t_comp, err_comp = expected["t_comp"]
    partial, err_split = expected["t_crow_partial"]
    if abs(t_comp - partial) > SAFETY * (err_comp + err_split):
        assert (gating is Gating.COMPUTE) == (t_comp > partial)


def assert_matches_oracle(scenario, stage):
    """project against the oracle: every span, the intermediates, the
    calendar year and gating, or the float-range error."""
    try:
        expected = exact(scenario, stage)
    except ExpectedError as stop:
        with pytest.raises(ValidationError) as caught:
            project(scenario, stage)
        assert str(caught.value).startswith(stop.prefix)
        return
    if expected is None:
        return
    result = project(scenario, stage)
    breakdown, intermediate = result.breakdown, result.intermediate
    for name in ("t_comp", "t_crow_total", "t_crow_partial", "t_crow_final", "t_poisson",
                 "t_prod_reg", "f"):
        assert_close(name, getattr(breakdown, name), expected[name])
    assert_outputs(expected, breakdown.t_total, breakdown.calendar_year, breakdown.gating)
    assert_close("naive_demand", intermediate.naive_demand.log10_value,
                 expected["naive_demand"])
    assert_close("effective_demand", intermediate.effective_demand.log10_value,
                 expected["effective_demand"])
    for name in ("crow_miles", "poisson_miles", "delta_effective"):
        assert_close(name, getattr(intermediate, name), expected[name])


# ---------------------------------------------------------------------------
# Generated scenarios
# ---------------------------------------------------------------------------


@st.composite
def cases(draw):
    """A catalog scenario at a projectable stage with a random subset of
    the parameter paths set inside their domains."""
    scenario = draw(st.sampled_from(CATALOG))
    stage = draw(st.sampled_from(PROJECTABLE_STAGES))
    for path in PATHS:
        if draw(st.booleans()):
            scenario = set_parameter(scenario, path, draw(VALUES[path]))
    return scenario, stage


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=cases())
def test_project_matches_the_oracle(case):
    assert_matches_oracle(*case)


def assert_rebuilds(scenario, stage):
    """project builds its results without their constructors' checks; the
    same values through the public, checked constructors pass them and
    give equal results."""
    try:
        result = project(scenario, stage)
    except ValidationError:
        return
    b, m = result.breakdown, result.intermediate
    rebuilt = (TimelineBreakdown(*(getattr(b, spec.name) for spec in fields(b))),
               Intermediates(Magnitude(m.naive_demand.log10_value),
                             Magnitude(m.effective_demand.log10_value), m.crow_miles,
                             m.poisson_miles, m.gamma, m.delta_effective))
    # repr tells -0.0 from 0.0 and an int from a float.
    assert rebuilt == (b, m) and repr(rebuilt) == repr((b, m))


@pytest.mark.parametrize("stage", PROJECTABLE_STAGES)
@pytest.mark.parametrize("scenario", CATALOG, ids=lambda s: s.name)
def test_catalog_results_pass_the_public_constructors(scenario, stage):
    assert_rebuilds(scenario, stage)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=cases())
def test_results_pass_the_public_constructors(case):
    assert_rebuilds(*case)


def row_outcome(scenario, stage):
    """The oracle at one row: its values, None, or the ExpectedError."""
    try:
        return exact(scenario, stage)
    except ExpectedError as stop:
        return stop


def assert_rows_match(outcomes, report):
    """Each row of ``report`` against the oracle's outcome at its inputs."""
    assert not any(isinstance(o, ExpectedError) for o in outcomes)
    for expected, t_total, year, gating in zip(outcomes, report.t_total,
                                               report.calendar_year, report.gating):
        if expected is not None:
            assert_outputs(expected, t_total, year, gating)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=cases(), path=st.sampled_from(PATHS), data=st.data())
def test_sweep_rows_match_the_oracle(case, path, data):
    """one_at_a_time builds each row with set_parameter and projects it."""
    scenario, stage = case
    values = data.draw(st.lists(VALUES[path], min_size=1, max_size=8))
    outcomes = [row_outcome(set_parameter(scenario, path, v), stage) for v in values]
    try:
        report = one_at_a_time(scenario, stage, SweepSpec(path, values))
    except ValidationError as exc:
        # The first row the oracle does not pass decides the error.
        first = next((o for o in outcomes if not isinstance(o, dict)), None)
        if isinstance(first, ExpectedError):
            assert str(exc).startswith(first.prefix)
        else:
            assert first is None and None in outcomes, str(exc)
        return
    assert_rows_match(outcomes, report)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=cases(), paths=st.lists(st.sampled_from(FLOAT_PATHS), min_size=2, max_size=2,
                                    unique=True),
       seed=st.integers(0, 2**64 - 1), data=st.data())
def test_monte_carlo_rows_match_the_oracle(case, paths, seed, data):
    """monte_carlo evaluates its samples as columns, not through project."""
    scenario, stage = case
    distributions = []
    for path in paths:
        low, high = sorted(data.draw(st.tuples(VALUES[path], VALUES[path])))
        distributions.append(DistributionSpec(path, DistributionKind.UNIFORM, low, high))
    try:
        report = monte_carlo(scenario, stage, distributions, 64, seed)
    except ValidationError as exc:
        # The samples of a failed run are not reported; its error must
        # still be one of the float-range checks.
        assert str(exc).startswith(FLOAT_RANGE_CHECKS), str(exc)
        return
    outcomes = []
    for index in range(64):
        row = scenario
        for path, column in report.inputs:
            row = set_parameter(row, path, column[index])
        outcomes.append(row_outcome(row, stage))
    assert_rows_match(outcomes, report)


# ---------------------------------------------------------------------------
# Each float-range check, on each side of the edge
# ---------------------------------------------------------------------------

FLOAT_MAX = sys.float_info.max
LN_FLOAT_MAX = math.log(FLOAT_MAX)
SIDES = {"below": 1 - 1e-6, "above": 1 + 1e-6}  # exact term / float max, about
CONSUMER = next(s for s in CATALOG if s.name == "Consumer Automotive")
CROW_MILES = (1e-4 / 1e-8) ** (1 / 0.4)  # Consumer Automotive's growth miles, about 1e10
POISSON_MILES = -math.log(1 - 0.95) * 2.0 / 7.1e-9
# Growth miles 1e306 and gamma_override 1e3, whose product is past float max
# though the demonstration years are 1e300; and a Poisson mileage of 3e307
# whose leading product -ln(1 - C) * safety_factor is past float max.
LEADING_PRODUCT_PAST_FLOAT_MAX = {
    "years": {"crow.beta": math.log(1e4) / math.log(1e306), "gamma_override": 1e3},
    "poisson": {"poisson.lambda_target": 10.0, "poisson.safety_factor": 1e308},
}
# Edges where the leading product of the term is past float max on both
# sides: the label, then the check that must fail above the edge.
LEADING_PRODUCT_EDGES = {
    "the demonstration years after miles * gamma_override": "the demonstration years",
    "poisson.safety_factor after -ln(1 - C) * safety_factor": "poisson.safety_factor",
}


def edge_settings(check, k):
    """Settings that put the named term at about k * float max."""
    if check == "the demonstration years after miles * gamma_override":
        return {**LEADING_PRODUCT_PAST_FLOAT_MAX["years"], "poisson.lambda_target": 1e10,
                "annual_miles": 1e306 / FLOAT_MAX * 1e3 / k}
    if check == "poisson.safety_factor after -ln(1 - C) * safety_factor":
        return {"poisson.safety_factor": 1e308,
                "poisson.lambda_target": -math.log(1 - 0.95) / FLOAT_MAX * 1e308 / k}
    if check == "the rate ratio":
        # beta just below 1 keeps the growth miles within float range too.
        return {"crow.alpha": 1.0, "crow.severity": 1e300, "crow.beta": 1 - 2**-53,
                "crow_lambda_target": 1e300 / FLOAT_MAX / k}
    if check == "the growth mileage":
        return {"crow.beta": math.log(1e4) / (LN_FLOAT_MAX + math.log(k))}
    if check == "the compute horizon":  # stage 3 leaves a 14-doubling gap
        return {"compute_env.doubling_period_years": FLOAT_MAX / 14 * k}
    if check == "poisson.safety_factor":
        return {"poisson.safety_factor": FLOAT_MAX / -math.log(0.05) * 7.1e-9 * k}
    if check == "the demonstration years":  # a negligible Poisson span
        return {"annual_miles": CROW_MILES / FLOAT_MAX / k, "poisson.lambda_target": 1e10}
    assert check == "the total of the spans"
    return {"annual_miles": (CROW_MILES + POISSON_MILES) / FLOAT_MAX / k}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("check", [c for c in FLOAT_RANGE_CHECKS if c != "the stage delta"]
                         + list(LEADING_PRODUCT_EDGES))
def test_float_range_checks_raise_exactly_beyond_float_max(check, side):
    scenario = CONSUMER
    for path, value in edge_settings(check, SIDES[side]).items():
        scenario = set_parameter(scenario, path, value)
    outcome = row_outcome(scenario, Stage.BROAD_COMMERCIAL)
    assert outcome is not None
    stops_here = (isinstance(outcome, ExpectedError)
                  and outcome.prefix == LEADING_PRODUCT_EDGES.get(check, check))
    assert stops_here == (side == "above")
    if side == "below":
        assert isinstance(outcome, dict)
    assert_matches_oracle(scenario, Stage.BROAD_COMMERCIAL)


@pytest.mark.parametrize("case", LEADING_PRODUCT_PAST_FLOAT_MAX)
def test_a_leading_product_past_float_max_in_a_term_within_it(case):
    """project, and a sweep's rows, at the case and at a tenth of its
    last setting, where the leading product is within float max."""
    *settings, (path, value) = LEADING_PRODUCT_PAST_FLOAT_MAX[case].items()
    scenario = CONSUMER
    for setting in settings:
        scenario = set_parameter(scenario, *setting)
    values = (value, value / 10)
    outcomes = []
    for v in values:
        row = set_parameter(scenario, path, v)
        outcomes.append(row_outcome(row, Stage.BROAD_COMMERCIAL))
        assert isinstance(outcomes[-1], dict)
        assert_matches_oracle(row, Stage.BROAD_COMMERCIAL)
    assert_rows_match(outcomes, one_at_a_time(scenario, Stage.BROAD_COMMERCIAL,
                                              SweepSpec(path, values)))


@pytest.mark.parametrize("base_delta, underflows", [(5e-324, True), (1e-323, False)])
def test_stage_delta_raises_exactly_where_it_rounds_to_zero(base_delta, underflows):
    scenario = set_parameter(CONSUMER, "base_delta", base_delta)
    outcome = row_outcome(scenario, Stage.REVENUE_SERVICE)
    assert isinstance(outcome, ExpectedError) == underflows
    assert_matches_oracle(scenario, Stage.REVENUE_SERVICE)


def test_calendar_year_rounds_an_exact_half_year_up():
    """A total that is a half year to the last bit rounds forward."""
    scenario = next(s for s in CATALOG if s.name == "Geo-fenced Vans/Buses")  # t_comp is 0
    for path, value in {"crow_lambda_target": 1.0,  # the growth target is met: no growth miles
                        "annual_miles": 1e30,  # a Poisson span below half an ulp of 2.5
                        "prod_reg_years.stage3": 2.5}.items():
        scenario = set_parameter(scenario, path, value)
    breakdown = project(scenario, Stage.BROAD_COMMERCIAL).breakdown
    assert breakdown.t_total == 2.5
    assert breakdown.calendar_year == scenario.baseline_year + 3
    assert_matches_oracle(scenario, Stage.BROAD_COMMERCIAL)
