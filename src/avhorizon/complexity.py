"""Planning-complexity and compute-horizon math.

The quantities here get astronomically large: a scene with n objects,
d degrees of freedom each and m discretization levels per degree has
m**(d*n) joint states, and exhaustive multi-agent planning over n
objects costs on the order of 2**n operations per planning cycle.
Exponents in the thousands overflow any float, so all counts and rates
are carried as :class:`Magnitude` values in the log10 domain and only
converted to linear floats for display or when the exponent is small.

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

from .errors import _FLOAT_OPS, _POSITIVE, ValidationError, _check_fields

__all__ = [
    "Magnitude",
    "ComputeEnv",
    "ReductionFactor",
    "ReductionFactors",
    "DEFAULT_FACTOR_RANGES",
    "naive_mapf_ops_per_cycle",
    "compute_demand",
    "chi_eff",
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
    ``given`` keeps the linear value passed to :meth:`from_value`, so a
    user's input reads back exactly; it takes no part in equality.
    """

    log10_value: float
    given: float | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.log10_value):
            raise ValidationError(
                f"Magnitude.log10_value must be finite, got {self.log10_value!r}"
            )

    @classmethod
    def from_value(cls, value: float) -> "Magnitude":
        """Build from a linear value, which must be positive and finite."""
        if not (isinstance(value, (int, float)) and not isinstance(value, bool)):
            raise ValidationError(f"Magnitude value must be numeric, got {value!r}")
        if not math.isfinite(value) or value <= 0:
            raise ValidationError(
                f"Magnitude value must be positive and finite, got {value!r}"
            )
        magnitude = cls(math.log10(value))
        object.__setattr__(magnitude, "given", float(value))
        return magnitude

    @property
    def value(self) -> float:
        """Linear value: as given to from_value, else derived from the
        exponent (inf beyond about 10**308)."""
        if self.given is not None:
            return self.given
        try:
            return 10.0 ** self.log10_value
        except OverflowError:
            return math.inf

    def ratio_log10(self, other: "Magnitude") -> float:
        """log10(self / other), exact in the log domain."""
        return self.log10_value - other.log10_value


@dataclass(frozen=True, slots=True)
class ComputeEnv:
    """Fleet-scale compute environment the planner runs against."""

    current_capacity: Magnitude = field(metadata=_POSITIVE)  # ops per second available today
    doubling_period_years: float = field(metadata=_POSITIVE)  # historical capacity doubling period

    def __post_init__(self) -> None:
        if not isinstance(self.current_capacity, Magnitude):
            raise ValidationError(
                f"current_capacity must be a Magnitude, got {self.current_capacity!r}"
            )
        _check_fields(self)


@dataclass(frozen=True, slots=True)
class ReductionFactor:
    """One independent source of algorithmic savings.

    The value is the fraction of work remaining after applying the
    technique, so smaller is better.  documented_range records the
    band of credible values for sensitivity work; the point value must
    lie inside it.
    """

    name: str
    value: float
    documented_range: tuple[float, float]

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(f"factor name must be a non-empty string, got {self.name!r}")
        low, high = self.documented_range
        if not (0.0 < low <= high <= 1.0):
            raise ValidationError(
                f"factor {self.name!r}: documented_range must satisfy "
                f"0 < low <= high <= 1, got ({low!r}, {high!r})"
            )
        if not (low <= self.value <= high):
            raise ValidationError(
                f"factor {self.name!r}: value {self.value!r} outside "
                f"documented_range [{low}, {high}]"
            )


@dataclass(frozen=True, slots=True)
class ReductionFactors:
    """Ordered collection of reduction factors; chi is their product."""

    factors: tuple[ReductionFactor, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if not isinstance(f, ReductionFactor):
                raise ValidationError(f"factors must be ReductionFactor items, got {f!r}")


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


def naive_mapf_ops_per_cycle(n_objects: int) -> Magnitude:
    """Operations per planning cycle for exhaustive joint planning, 2**n.

    n_objects may be zero (an empty scene costs one operation).
    """
    if not isinstance(n_objects, int) or isinstance(n_objects, bool) or n_objects < 0:
        raise ValidationError(f"n_objects must be an integer >= 0, got {n_objects!r}")
    return Magnitude(_per_cycle_log10(n_objects))


def _demand_log10(per_cycle_log10: float, cycle_time_s: float, ops) -> float:
    return per_cycle_log10 - ops.log10(cycle_time_s)


def compute_demand(n_objects: int, cycle_time_s: float) -> Magnitude:
    """Naive compute demand in ops/s: 2**n per cycle, replanned every cycle.

    Doubling the cycle time halves the linear demand exactly (the
    exponent drops by log10(2)).
    """
    if not (math.isfinite(cycle_time_s) and cycle_time_s > 0):
        raise ValidationError(f"cycle_time_s must be positive, got {cycle_time_s!r}")
    per_cycle = naive_mapf_ops_per_cycle(n_objects)
    return Magnitude(_demand_log10(per_cycle.log10_value, cycle_time_s, _FLOAT_OPS))


def chi_eff(factors: ReductionFactors) -> float:
    """Combined reduction factor: the plain product of all factor values.

    Order independent, never larger than the smallest factor, and in
    (0, 1] (an empty factor list means no savings, chi = 1).
    """
    if not isinstance(factors, ReductionFactors):
        raise ValidationError(f"chi_eff expects ReductionFactors, got {factors!r}")
    chi = 1.0
    for f in factors.factors:
        chi *= f.value
    if chi <= 0.0:  # underflow guard; factor validation already bounds each term
        raise ValidationError(
            f"combined reduction factor underflowed to {chi!r}; fewer or larger factors required"
        )
    return chi


def _effective_log10(naive_log10: float, chi: float, ops) -> float:
    return naive_log10 + ops.log10(chi)


def effective_demand(naive: Magnitude, chi: float) -> Magnitude:
    """Demand after algorithmic savings: naive * chi, in the log domain."""
    if not isinstance(naive, Magnitude):
        raise ValidationError(f"naive demand must be a Magnitude, got {naive!r}")
    if not (math.isfinite(chi) and 0.0 < chi <= 1.0):
        raise ValidationError(f"chi must lie in (0, 1], got {chi!r}")
    return Magnitude(_effective_log10(naive.log10_value, chi, _FLOAT_OPS))


def _horizon_years(effective_log10: float, doubling_period_years: float,
                   capacity_log10: float, ops) -> float:
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
                          env.current_capacity.log10_value, _FLOAT_OPS)
