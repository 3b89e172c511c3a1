"""Monte Carlo's two routes, and what they share.

Up to ``_MC_ROW_LIMIT`` samples, Monte Carlo draws with Philox on Python
ints and evaluates each sample on Python floats; past it, it draws and
evaluates numpy columns.  The cases here check:

- the Python Philox against numpy's ``Philox`` generator;
- the written-out percentile rule against ``numpy.percentile``;
- byte-identical CSV and JSON from both routes at the limit and one
  sample past it (``test_columnar`` runs its Monte Carlo cases, errors
  included, on both routes too);
- triangular draws whose plain product ``u * span * (mode - low)``
  leaves float range, against the inverse CDF in mpmath at 50 digits.
"""

import sys
import warnings

import mpmath
import numpy as np
import pytest

from avhorizon import sensitivity
from avhorizon.report import ReportFormat, render_sensitivity
from avhorizon.scenario import builtin_catalog
from avhorizon.sensitivity import (
    _MC_ROW_LIMIT,
    MC_PERCENTILES,
    DistributionKind,
    DistributionSpec,
    _draws_by_sample,
    _percentiles,
    monte_carlo,
)
from avhorizon.timeline import Stage

ROBO_TAXIS = next(s for s in builtin_catalog() if s.name == "Robo-Taxis")
S3 = Stage.BROAD_COMMERCIAL
FLOAT_MAX = sys.float_info.max
UNIFORM, TRIANGULAR = DistributionKind.UNIFORM, DistributionKind.TRIANGULAR


def on_route(monkeypatch, route, *args):
    """``monte_carlo(*args)`` on ``route``: "rows" or "columns"."""
    samples = args[3]
    monkeypatch.setattr(sensitivity, "_MC_ROW_LIMIT", samples if route == "rows" else samples - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy writes none
        return monte_carlo(*args)


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 2**53 + 1, 2**64 - 1])
@pytest.mark.parametrize("draws", range(1, 9))
def test_python_philox_equals_numpy_philox(seed, draws):
    # Draws 1-4 come from counter block 1, draws 5-8 from block 2.
    for index, sample in enumerate(_draws_by_sample(seed, 50, draws)):
        key = np.array([seed, index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        assert sample == [rng.random() for _ in range(draws)]


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def percentile_cases():
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 1000, 100_000):
        yield f"spread-{n}", rng.exponential(30.0, n)
        yield f"ties-{n}", rng.integers(0, 4, n).astype(np.float64) * 0.1
        yield f"near-max-{n}", FLOAT_MAX * rng.uniform(0.5, 1.0, n)
        yield f"mixed-{n}", np.where(rng.random(n) < 0.5, FLOAT_MAX, 5e-324) * rng.random(n)


@pytest.mark.parametrize("values", [pytest.param(v, id=name) for name, v in percentile_cases()])
def test_percentiles_equal_numpy_percentile(values):
    expected = np.percentile(values, MC_PERCENTILES).tolist()
    for ordered in (np.sort(values), sorted(values.tolist())):
        actual = [value for _, value in _percentiles(ordered)]
        assert list(map(float.hex, actual)) == list(map(float.hex, expected))
        assert [p for p, _ in _percentiles(ordered)] == list(MC_PERCENTILES)


# ---------------------------------------------------------------------------
# Both routes
# ---------------------------------------------------------------------------

# Zero-width (an int bound as given), triangular with its mode at either
# end and inside, and one whose plain product overflows (annual_miles).
DISTRIBUTIONS = [
    DistributionSpec("crow.beta", TRIANGULAR, 0.3, 0.6, 0.4),
    DistributionSpec("f", UNIFORM, 0.5, 0.9),
    DistributionSpec("gamma_override", UNIFORM, 1, 1),
    DistributionSpec("cycle_time_s", TRIANGULAR, 0.05, 0.2, 0.05),
    DistributionSpec("poisson.confidence", UNIFORM, 0.9, 0.99),
    DistributionSpec("annual_miles", TRIANGULAR, 1e5, 1e155, 1e150),
    DistributionSpec("chi.stage3", TRIANGULAR, 1e-6, 1.0, 1e-3),
    DistributionSpec("prod_reg_years.stage3", TRIANGULAR, 2, 5, 5),
]


@pytest.mark.parametrize("samples", [_MC_ROW_LIMIT, _MC_ROW_LIMIT + 1],
                         ids=["at-limit", "past-limit"])
@pytest.mark.parametrize("count", range(1, len(DISTRIBUTIONS) + 1))
def test_both_routes_write_the_same_bytes(monkeypatch, count, samples):
    args = (ROBO_TAXIS, S3, DISTRIBUTIONS[:count], samples, 2**64 - 1 - count)
    rows, columns = (on_route(monkeypatch, route, *args) for route in ("rows", "columns"))
    assert rows == columns
    for fmt in (ReportFormat.CSV, ReportFormat.JSON):
        assert render_sensitivity(rows, fmt) == render_sensitivity(columns, fmt)


# ---------------------------------------------------------------------------
# Triangular draws beyond float range
# ---------------------------------------------------------------------------

MP = mpmath.MPContext()
MP.dps = 50


def exact_inverse_cdf(u, low, mode, high):
    """The triangular inverse CDF of the float u at 50 digits."""
    u, low, mode, high = map(MP.mpf, (u, low, mode, high))
    if u < (mode - low) / (high - low):
        return low + MP.sqrt(u * (high - low) * (mode - low))
    return high - MP.sqrt((1 - u) * (high - low) * (high - mode))


# Wide bounds whose plain product overflows, tiny ones whose plain
# product underflows, on either branch or both.  (The command line's
# reproductions are in test_cli.)
EXTREME_BOUNDS = [
    ("annual_miles", 1e5, 1e150, 1e155),
    ("annual_miles", 1e-300, 1e300, 1e300),
    ("annual_miles", 1e-300, 1e-300, 1e300),
    ("annual_miles", 1.0, 1e308, FLOAT_MAX),
    ("cycle_time_s", 1e-300, 2e-300, 3e-300),
    ("cycle_time_s", 5e-324, 1e-320, 2e-320),
    ("annual_miles", 1e-160, 1e-155, 1e-150),
]


@pytest.mark.parametrize("path, low, mode, high", EXTREME_BOUNDS)
def test_extreme_triangular_samples_match_mpmath(monkeypatch, path, low, mode, high):
    """Each sample lies in [low, high], both routes give equal bits, and
    each is within 2**-51 * high, plus one subnormal step, of the exact
    inverse CDF: the span, the bound difference, two products and the
    square root each round once (3 * 2**-53 relative on the root, which
    is at most span <= high), the final sum or difference once more, and
    a subnormal root or result to a multiple of 5e-324."""
    dist = DistributionSpec(path, TRIANGULAR, low, high, mode)
    args = (ROBO_TAXIS, S3, [dist], 300, 9)
    rows, columns = (on_route(monkeypatch, route, *args) for route in ("rows", "columns"))
    assert rows == columns
    samples = rows.inputs[0][1]
    assert all(low <= x <= high for x in samples)
    assert len(set(samples)) > 1
    draws = [u for (u,) in _draws_by_sample(9, 300, 1)]
    bound = MP.mpf(2) ** -51 * high + MP.mpf(5e-324)
    assert max(abs(MP.mpf(x) - exact_inverse_cdf(u, low, mode, high))
               for x, u in zip(samples, draws)) <= bound
