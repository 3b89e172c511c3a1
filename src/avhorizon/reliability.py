"""Reliability-growth mileage demonstration math.

Two demonstration regimes feed the timeline model:

* Crow-AMSAA growth.  While the system is still being improved, the
  instantaneous failure rate after t accumulated miles follows the
  power law lambda(t) = alpha * t**(-beta) * severity, with alpha the
  rate at one mile, beta in (0, 1) the learning exponent and severity
  a multiplier >= 1 for harder duty cycles.  Inverting the law gives
  the miles required to grow reliability down to a target rate:

      R = (alpha * severity / lambda_target) ** (1 / beta)

  If the target is already met at one mile (lambda_target >= alpha *
  severity) no growth mileage is required.

* Poisson zero-failure demonstration.  Once mature, the final rate is
  demonstrated statistically: surviving R miles with zero failures
  bounds the rate at lambda <= -ln(1 - C) / R at confidence C, so

      R = -ln(1 - C) * safety_factor / lambda_target

Both regimes yield miles; calendar conversion applies the scenario's
operational-design-domain weighting gamma_override, the stage exposure
fraction delta and the fleet's annual mileage M:

      years = R * gamma_override * delta / M

Miles are the canonical demonstration unit throughout; years are
always derived, never stored upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import _FLOAT_OPS, _NONNEGATIVE, _POSITIVE, _check_fields, _check_number, _domain

__all__ = [
    "CrowAmsaaParams",
    "PoissonParams",
    "crow_required_miles",
    "crow_failure_rate",
    "poisson_required_miles",
    "demonstration_years",
]

_AT_LEAST_ONE = _domain(1, math.inf, high_open=True)

# Where the product of a term's first two factors overflows, though the
# whole term may lie in float range, the term is taken again with its first
# factor times _DOWN and the result divided by it.  A power of two changes
# no rounding unless a scaled value is subnormal: the first factor exceeds
# 1 wherever that product overflows, so it stays normal.
_DOWN = 2.0 ** -1022


@dataclass(frozen=True, slots=True)
class CrowAmsaaParams:
    """Power-law reliability growth curve parameters."""

    alpha: float = field(metadata=_domain(0, 1, low_open=True))  # failure rate per mile at mile 1
    beta: float = field(metadata=_domain(0, 1, low_open=True, high_open=True))  # learning exponent
    severity: float = field(default=1.0, metadata=_AT_LEAST_ONE)  # mean harm per failure event

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True, slots=True)
class PoissonParams:
    """Zero-failure demonstration parameters."""

    confidence: float = field(metadata=_domain(0, 1, low_open=True, high_open=True))  # e.g. 0.95
    safety_factor: float = field(metadata=_AT_LEAST_ONE)  # margin multiplier on the miles
    lambda_target: float = field(metadata=_POSITIVE)  # target failure rate per mile

    def __post_init__(self) -> None:
        _check_fields(self)


def _growth_miles(alpha: float, severity: float, lambda_target: float, beta: float,
                  ops) -> float:
    start_rate = alpha * severity
    ratio = start_rate / lambda_target
    ops.check(ratio < math.inf, lambda: (
        f"the rate ratio crow.alpha={alpha!r} * crow.severity="
        f"{severity!r} / crow_lambda_target={lambda_target!r} exceeds float range"
    ))
    # A subnormal beta makes 1 / beta inf without raising.
    miles = ops.power(ratio, 1.0 / beta)
    ops.check(miles < math.inf, lambda: (
        f"the growth mileage (crow.alpha={alpha!r} * crow.severity="
        f"{severity!r} / crow_lambda_target={lambda_target!r}) ** "
        f"(1 / crow.beta={beta!r}) exceeds float range"
    ))
    # A target already met has ratio <= 1, which passes both checks.
    return ops.where(lambda_target >= start_rate, 0.0, miles)


def crow_required_miles(params: CrowAmsaaParams, lambda_target: float) -> float:
    """Miles of growth testing to reach lambda_target, zero if already met."""
    _check_number("lambda_target", lambda_target, _POSITIVE)
    return _growth_miles(params.alpha, params.severity, lambda_target, params.beta, _FLOAT_OPS)


def crow_failure_rate(params: CrowAmsaaParams, miles: float) -> float:
    """Instantaneous failure rate per mile after the given growth miles."""
    _check_number("miles", miles, _POSITIVE)
    rate = params.alpha * _FLOAT_OPS.power(miles, -params.beta) * params.severity
    _FLOAT_OPS.check(rate < math.inf, lambda: (
        f"the failure rate after miles={miles!r} exceeds float range"))
    return rate


def _poisson_miles(confidence: float, safety_factor: float, lambda_target: float,
                   ops) -> float:
    # Not -log(...): where 1 - confidence rounds to 1.0, that is -0.0.
    log_term = 0.0 - ops.log(1.0 - confidence)
    first = log_term * safety_factor
    miles = ops.where(first < math.inf, first / lambda_target,
                      log_term * _DOWN * safety_factor / lambda_target / _DOWN)
    ops.check(miles < math.inf, lambda: (
        f"poisson.safety_factor={safety_factor!r} over poisson.lambda_target="
        f"{lambda_target!r}: the demonstration mileage exceeds float range"
    ))
    return miles


def poisson_required_miles(params: PoissonParams) -> float:
    """Zero-failure miles demonstrating lambda_target at the set confidence."""
    return _poisson_miles(params.confidence, params.safety_factor, params.lambda_target,
                          _FLOAT_OPS)


def _demonstration_years(required_miles: float, gamma_value: float, delta: float,
                         annual_miles: float, ops) -> float:
    first = required_miles * gamma_value
    years = ops.where(first < math.inf, first * delta / annual_miles,
                      required_miles * _DOWN * gamma_value * delta / annual_miles / _DOWN)
    ops.check(years < math.inf, lambda: (
        f"the demonstration years {required_miles!r} miles * gamma_override="
        f"{gamma_value!r} * stage delta={delta!r} / annual_miles={annual_miles!r} "
        "exceed float range"
    ))
    return years


def demonstration_years(
    required_miles: float,
    gamma_value: float,
    delta: float,
    annual_miles: float,
) -> float:
    """Calendar years to accumulate the demonstration mileage.

    years = required_miles * gamma_value * delta / annual_miles, with
    gamma_value a scenario's gamma_override, any positive number; delta
    cannot exceed 1.
    """
    _check_number("required_miles", required_miles, _NONNEGATIVE)
    _check_number("gamma_value", gamma_value, _POSITIVE)
    _check_number("delta", delta, _domain(0, 1, low_open=True))
    _check_number("annual_miles", annual_miles, _POSITIVE)
    return _demonstration_years(required_miles, gamma_value, delta, annual_miles, _FLOAT_OPS)
