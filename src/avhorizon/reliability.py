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

Both regimes yield miles; calendar conversion applies the operational
design domain (ODD) weighting gamma, the stage exposure fraction delta
and the fleet's annual mileage M:

      years = R * gamma * delta / M

Miles are the canonical demonstration unit throughout; years are
always derived, never stored upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import _FLOAT_OPS, _POSITIVE, ValidationError, _check_fields, _domain

__all__ = [
    "CrowAmsaaParams",
    "PoissonParams",
    "OddDimension",
    "OddProfile",
    "crow_required_miles",
    "crow_failure_rate",
    "poisson_required_miles",
    "gamma",
    "demonstration_years",
]

_WEIGHT_SUM_TOL = 1e-9
_AT_LEAST_ONE = _domain(1, math.inf, high_open=True)


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


@dataclass(frozen=True, slots=True)
class OddDimension:
    """One operational condition with its mix weight and difficulty score."""

    name: str
    weight: float = field(metadata=_domain(0, 1))
    score: float = field(metadata=_domain(0, 1))

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(f"dimension name must be a non-empty string, got {self.name!r}")
        _check_fields(self, "dimension")


@dataclass(frozen=True, slots=True)
class OddProfile:
    """Operational design domain: weighted condition mix plus exposure.

    delta is the fraction of full-domain demonstration mileage the
    profile actually requires (restricted domains need less).
    """

    dimensions: tuple[OddDimension, ...]
    delta: float = field(default=1.0, metadata=_domain(0, 1, low_open=True))

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        if not self.dimensions:
            raise ValidationError("OddProfile requires at least one dimension")
        for d in self.dimensions:
            if not isinstance(d, OddDimension):
                raise ValidationError(f"dimensions must be OddDimension items, got {d!r}")
        total = math.fsum(d.weight for d in self.dimensions)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValidationError(
                f"dimension weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}"
            )
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
    if not (math.isfinite(lambda_target) and lambda_target > 0.0):
        raise ValidationError(f"lambda_target must be positive, got {lambda_target!r}")
    return _growth_miles(params.alpha, params.severity, lambda_target, params.beta, _FLOAT_OPS)


def crow_failure_rate(params: CrowAmsaaParams, miles: float) -> float:
    """Instantaneous failure rate per mile after the given growth miles."""
    if not (math.isfinite(miles) and miles > 0.0):
        raise ValidationError(f"miles must be positive, got {miles!r}")
    return params.alpha * miles ** (-params.beta) * params.severity


def _poisson_miles(confidence: float, safety_factor: float, lambda_target: float,
                   ops) -> float:
    miles = -ops.log(1.0 - confidence) * safety_factor / lambda_target
    ops.check(miles < math.inf, lambda: (
        f"poisson.safety_factor={safety_factor!r} over poisson.lambda_target="
        f"{lambda_target!r}: the demonstration mileage exceeds float range"
    ))
    return miles


def poisson_required_miles(params: PoissonParams) -> float:
    """Zero-failure miles demonstrating lambda_target at the set confidence."""
    return _poisson_miles(params.confidence, params.safety_factor, params.lambda_target,
                          _FLOAT_OPS)


def gamma(profile: OddProfile) -> float:
    """Domain difficulty factor: the weight-averaged condition score.

    Permutation invariant in the dimensions; lies in [0, 1] because
    weights sum to one and scores are bounded by one.
    """
    return math.fsum(d.weight * d.score for d in profile.dimensions)


def _demonstration_years(required_miles: float, gamma_value: float, delta: float,
                         annual_miles: float, ops) -> float:
    years = required_miles * gamma_value * delta / annual_miles
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

    years = required_miles * gamma_value * delta / annual_miles.  The
    gamma factor may exceed 1 for domains harder than the reference mix
    (scenario overrides allow that); delta cannot exceed 1.
    """
    if not (math.isfinite(required_miles) and required_miles >= 0.0):
        raise ValidationError(
            f"required_miles must be >= 0, got {required_miles!r}"
        )
    if not (math.isfinite(gamma_value) and gamma_value > 0.0):
        raise ValidationError(f"gamma must be positive, got {gamma_value!r}")
    if not (math.isfinite(delta) and 0.0 < delta <= 1.0):
        raise ValidationError(f"delta must lie in (0, 1], got {delta!r}")
    if not (math.isfinite(annual_miles) and annual_miles > 0.0):
        raise ValidationError(f"annual_miles must be positive, got {annual_miles!r}")
    return _demonstration_years(required_miles, gamma_value, delta, annual_miles, _FLOAT_OPS)
