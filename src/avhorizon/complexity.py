"""Planning-complexity and compute-horizon math.

The quantities here get astronomically large: a scene with n objects,
d degrees of freedom each and m discretization levels per degree has
m**(d*n) joint states, and exhaustive multi-agent planning over n
objects costs on the order of 2**n operations per planning cycle.
Exponents in the thousands overflow any float, so demand counts and
rates are carried as :class:`Magnitude` values in the log10 domain, and
reports print the exponent.  Current capacity C_c,
about 1e13 ops/s, is an input well inside float range and is held as
the plain number given; the horizon takes its log10.

The compute side of a deployment timeline follows from three steps:

1. naive demand      D = 2**n / cycle_time          (ops per second)
2. effective demand  D' = D * chi                   (algorithmic savings)
3. horizon           t = T_d * log2(D' / C_c)       (capacity doublings)

where chi is the product of independent reduction factors (each in
(0, 1]), C_c is current fleet-scale compute capacity in ops/s and T_d
is the capacity doubling period in years.  The horizon clamps at zero
once effective demand is already within capacity.

All arithmetic is exact in the log domain; displayed values may be
rounded but computations never are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import _FINITE, _FLOAT_OPS, _NONNEGATIVE, _POSITIVE, ValidationError, _check_fields
from .errors import _check_number, _domain

__all__ = [
    "Magnitude",
    "ComputeEnv",
    "DEFAULT_FACTOR_RANGES",
    "compute_demand",
    "effective_demand",
    "hpc_horizon_years",
]

LOG10_2 = math.log10(2.0)


@dataclass(frozen=True, slots=True)
class Magnitude:
    """A positive quantity stored as its base-10 exponent.

    Products add exponents exactly (see effective_demand), so counts with
    exponents in the thousands never overflow.  The exponent may be
    negative (rates below one per second are legal); it must be finite.
    """

    log10_value: float = field(metadata=_FINITE)

    def __post_init__(self) -> None:
        _check_fields(self)

    @classmethod
    def from_value(cls, value: float) -> "Magnitude":
        """Build from a linear value, which must be positive and finite."""
        _check_number("value", value, _POSITIVE)
        return cls(math.log10(value))


@dataclass(frozen=True, slots=True)
class ComputeEnv:
    """Fleet-scale compute environment the planner runs against."""

    current_capacity: float = field(metadata=_POSITIVE)  # ops per second available today
    doubling_period_years: float = field(metadata=_POSITIVE)  # historical capacity doubling period

    def __post_init__(self) -> None:
        _check_fields(self)


# Credible ranges for the standard savings mechanisms.  Factors with
# these names may omit an explicit range; unknown names must state one.
DEFAULT_FACTOR_RANGES: dict[str, tuple[float, float]] = {
    "active_interaction": (0.2, 0.5),      # share of objects that actually couple
    "hierarchical_decomposition": (0.1, 0.3),
    "learned_heuristics": (0.1, 0.3),
    "precomputed_maneuvers": (0.1, 0.3),
    "specialized_hardware": (0.1, 1.0),
}


def _per_cycle_log10(n_objects: int) -> float:
    """log10(2**n_objects), of an int or of a float64 column."""
    try:
        return n_objects * LOG10_2
    except OverflowError:  # an int beyond float range
        raise ValidationError(
            f"n_objects is too large ({n_objects.bit_length()} bits): "
            "the exponent of 2**n_objects exceeds float range"
        ) from None


def _demand_log10(per_cycle_log10: float, cycle_time_s: float, ops) -> float:
    return per_cycle_log10 - ops.log10(cycle_time_s)


def compute_demand(n_objects: int, cycle_time_s: float) -> Magnitude:
    """Naive compute demand in ops/s: 2**n per cycle, replanned every cycle.

    n_objects may be zero (an empty scene costs one operation per
    cycle).  Doubling the cycle time halves the linear demand exactly
    (the exponent drops by log10(2)).
    """
    _check_number("cycle_time_s", cycle_time_s, _POSITIVE)
    _check_number("n_objects", n_objects, _NONNEGATIVE, int)
    return Magnitude(_demand_log10(_per_cycle_log10(n_objects), cycle_time_s, _FLOAT_OPS))


def _effective_log10(naive_log10: float, chi: float, ops) -> float:
    return naive_log10 + ops.log10(chi)


def effective_demand(naive: Magnitude, chi: float) -> Magnitude:
    """Demand after algorithmic savings: naive * chi, in the log domain."""
    if not isinstance(naive, Magnitude):
        raise ValidationError(f"naive demand must be a Magnitude, got {naive!r}")
    _check_number("chi", chi, _domain(0, 1, low_open=True))
    return Magnitude(_effective_log10(naive.log10_value, chi, _FLOAT_OPS))


def _horizon_years(effective_log10: float, doubling_period_years: float,
                   capacity: float, ops) -> float:
    capacity_log10 = ops.log10(capacity)
    years = doubling_period_years * (effective_log10 - capacity_log10) / LOG10_2
    years = ops.where(years > 0.0, years, 0.0)  # max(0.0, years)
    ops.check(years < math.inf, lambda: (
        f"the compute horizon compute_env.doubling_period_years="
        f"{doubling_period_years!r} * log2(effective demand / "
        "compute_env.current_capacity) exceeds float range: demand is "
        f"10**{effective_log10!r} from n_objects, cycle_time_s and chi, "
        f"capacity 10**{capacity_log10!r}"
    ))
    return years


def hpc_horizon_years(effective: Magnitude, env: ComputeEnv) -> float:
    """Years until capacity growth covers effective demand.

    t = T_d * log2(demand / capacity), clamped at zero when demand is
    already within capacity.  Raising demand by 2**k raises the horizon
    by exactly k * T_d years.
    """
    if not isinstance(effective, Magnitude):
        raise ValidationError(f"effective demand must be a Magnitude, got {effective!r}")
    return _horizon_years(effective.log10_value, env.doubling_period_years,
                          env.current_capacity, _FLOAT_OPS)
