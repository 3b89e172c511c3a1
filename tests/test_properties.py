"""Property suites over the model's algebraic invariants.

Each suite runs at least 200 generated cases. Settings are
derandomized so a run is reproducible without a stored example
database.  The eighth suite, the whole model against a 50-digit
oracle, lives in ``test_oracle``.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from avhorizon.complexity import (
    LOG10_2,
    ComputeEnv,
    Magnitude,
    hpc_horizon_years,
)
from avhorizon.reliability import (
    CrowAmsaaParams,
    PoissonParams,
    crow_failure_rate,
    crow_required_miles,
    demonstration_years,
    poisson_required_miles,
)
from avhorizon.timeline import Gating, compose_total

import test_oracle

SUITE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

finite = dict(allow_nan=False, allow_infinity=False)


@SUITE_SETTINGS
@given(
    alpha=st.floats(1e-6, 1.0, **finite),
    beta=st.floats(0.05, 0.95, **finite),
    severity=st.floats(1.0, 10.0, **finite),
    ratio=st.floats(1.0001, 1e9, **finite),
)
def test_crow_round_trip_identity(alpha, beta, severity, ratio):
    """Required miles fed back through the rate law return the target."""
    params = CrowAmsaaParams(alpha=alpha, beta=beta, severity=severity)
    lam = alpha * severity / ratio
    miles = crow_required_miles(params, lam)
    assert miles > 0
    assert crow_failure_rate(params, miles) == pytest.approx(lam, rel=1e-9)


@SUITE_SETTINGS
@given(
    alpha=st.floats(1e-6, 0.5, **finite),
    beta=st.floats(0.1, 0.9, **finite),
    severity=st.floats(1.0, 5.0, **finite),
    ratio=st.floats(3.0, 1e6, **finite),
    bump=st.floats(1.01, 2.0, **finite),
    beta_step=st.floats(0.01, 1.0, **finite),
)
def test_crow_required_miles_monotonicities(alpha, beta, severity, ratio, bump, beta_step):
    """More failures or harsher targets require more miles; faster growth fewer."""
    lam = alpha * severity / ratio
    base = crow_required_miles(CrowAmsaaParams(alpha, beta, severity), lam)

    assert crow_required_miles(CrowAmsaaParams(alpha * bump, beta, severity), lam) > base
    assert crow_required_miles(CrowAmsaaParams(alpha, beta, severity * bump), lam) > base
    assert crow_required_miles(CrowAmsaaParams(alpha, beta, severity), lam * bump) < base

    beta_up = beta + (0.95 - beta) * beta_step
    assume(beta_up > beta)  # guard against rounding collapsing the step
    assert crow_required_miles(CrowAmsaaParams(alpha, beta_up, severity), lam) < base


@SUITE_SETTINGS
@given(
    confidence=st.floats(0.01, 0.99, **finite),
    safety_factor=st.floats(1.0, 10.0, **finite),
    lam=st.floats(1e-12, 1e-3, **finite),
    k=st.floats(1.1, 10.0, **finite),
)
def test_poisson_linearity(confidence, safety_factor, lam, k):
    """Demonstration miles scale linearly with margin and with 1/target."""
    base = poisson_required_miles(
        PoissonParams(confidence, safety_factor, lam))
    scaled_sf = poisson_required_miles(
        PoissonParams(confidence, safety_factor * k, lam))
    assert scaled_sf == pytest.approx(base * k, rel=1e-12)
    scaled_lam = poisson_required_miles(
        PoissonParams(confidence, safety_factor, lam / k))
    assert scaled_lam == pytest.approx(base * k, rel=1e-9)


@SUITE_SETTINGS
@given(
    capacity=st.floats(-5.0, 30.0, **finite),
    gap=st.floats(0.01, 300.0, **finite),
    doubling_period=st.floats(0.5, 10.0, **finite),
    k=st.integers(1, 30),
)
def test_hpc_horizon_doubling_law(capacity, gap, doubling_period, k):
    """Each factor-of-2^k demand increase adds exactly k doubling periods."""
    env = ComputeEnv(current_capacity=10.0 ** capacity,
                     doubling_period_years=doubling_period)
    base = hpc_horizon_years(Magnitude(capacity + gap), env)
    shifted = hpc_horizon_years(Magnitude(capacity + gap + k * LOG10_2), env)
    assert shifted - base == pytest.approx(k * doubling_period, rel=1e-9, abs=1e-9)


durations = st.floats(0.0, 1e4, **finite)


@SUITE_SETTINGS
@given(
    t_comp=durations, t_crow=durations, t_poisson=durations, t_prod=durations,
    f_lo=st.floats(0.0, 1.0, **finite), f_hi=st.floats(0.0, 1.0, **finite),
)
def test_compose_total_monotonicity_and_f_identities(
        t_comp, t_crow, t_poisson, t_prod, f_lo, f_hi):
    """f=0 is the serial sum, f=1 the max overlap, and more overlap never hurts."""
    serial = compose_total(t_comp, t_crow, 0.0, t_poisson, t_prod)
    assert serial.t_total == t_comp + t_crow + t_poisson + t_prod

    overlapped = compose_total(t_comp, t_crow, 1.0, 0.0, t_prod)
    assert overlapped.t_total == max(t_crow, t_comp) + t_prod

    lo, hi = min(f_lo, f_hi), max(f_lo, f_hi)
    total_lo = compose_total(t_comp, t_crow, lo, t_poisson, t_prod).t_total
    total_hi = compose_total(t_comp, t_crow, hi, t_poisson, t_prod).t_total
    assert total_hi <= total_lo + 1e-9 * max(1.0, total_lo)

    grown = compose_total(t_comp + 1.0, t_crow, lo, t_poisson, t_prod).t_total
    assert grown >= total_lo - 1e-9 * max(1.0, total_lo)


@SUITE_SETTINGS
@given(
    t_comp=durations, t_crow=durations, t_poisson=durations, t_prod=durations,
    f=st.floats(0.0, 1.0, **finite),
)
def test_gating_perturbation_invariance(t_comp, t_crow, t_poisson, t_prod, f):
    """Shrinking the non-binding phase cannot move the total."""
    b = compose_total(t_comp, t_crow, f, t_poisson, t_prod)
    if b.gating is Gating.COMPUTE:
        eps = (b.t_comp - b.t_crow_partial) / 2
        assume(eps > 0.0)
        recomposed = (max(b.t_crow_partial - eps, b.t_comp)
                      + b.t_crow_final + b.t_poisson + b.t_prod_reg)
    else:
        eps = b.t_comp / 2
        recomposed = (max(b.t_crow_partial, b.t_comp - eps)
                      + b.t_crow_final + b.t_poisson + b.t_prod_reg)
    assert recomposed == b.t_total


@SUITE_SETTINGS
@given(
    miles=st.floats(0.0, 1e15, **finite),
    gamma_value=st.floats(0.01, 3.0, **finite),
    delta=st.floats(0.01, 1.0, **finite),
    annual=st.floats(1e3, 1e12, **finite),
)
def test_tenfold_fleet_scaling(miles, gamma_value, delta, annual):
    """Ten times the annual mileage takes a tenth of the calendar time."""
    base = demonstration_years(miles, gamma_value, delta, annual)
    scaled = demonstration_years(miles, gamma_value, delta, annual * 10.0)
    assert scaled == pytest.approx(base / 10.0, rel=1e-12)


# Imported by the acceptance gate so the suites can be timed as a group.
PROPERTY_SUITES = (
    test_crow_round_trip_identity,
    test_crow_required_miles_monotonicities,
    test_poisson_linearity,
    test_hpc_horizon_doubling_law,
    test_compose_total_monotonicity_and_f_identities,
    test_gating_perturbation_invariance,
    test_oracle.test_project_matches_the_oracle,
    test_tenfold_fleet_scaling,
)
