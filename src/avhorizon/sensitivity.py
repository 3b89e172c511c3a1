"""Sensitivity analysis over scenario parameters.

Three analyses share one addressing scheme: a dotted parameter path
names a numeric scenario field ("crow.beta", "chi.stage3", "f", ...).
Scenarios are immutable, so setting a path produces a modified copy,
and every candidate value passes the target field's own validation
before any projection runs.

* one_at_a_time: project the scenario once per swept value.
* tornado: project at the low and high bound of each parameter with
  all others at baseline, ranked by descending output spread.
* monte_carlo: draw all distribution parameters jointly per sample.

Monte Carlo determinism contract: the generator is Philox4x64, keyed
per sample as (seed, sample_index), with exactly one uniform draw per
distribution per sample transformed through the distribution's inverse
CDF.  Sample i therefore never depends on how many samples run before
it or alongside it, which keeps results identical under any execution
order; aggregation always walks samples in index order.  Given the
same seed, distribution list and sample count, reports are
byte-for-byte reproducible on the same package version.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .complexity import Magnitude
from .errors import UnknownParameterError, ValidationError
from .scenario import _FIELDS, CategoryScenario, _is_finite_number, project
from .timeline import Gating, Stage

__all__ = [
    "AnalysisKind",
    "SweepSpec",
    "ParameterBounds",
    "DistributionKind",
    "DistributionSpec",
    "SensitivityEntry",
    "SensitivitySummary",
    "TornadoSpread",
    "SensitivityReport",
    "MC_PERCENTILES",
    "valid_parameter_paths",
    "get_parameter",
    "set_parameter",
    "one_at_a_time",
    "tornado",
    "monte_carlo",
]

MC_PERCENTILES = (5, 25, 50, 75, 95)

_Getter = Callable[[CategoryScenario], float]
_Setter = Callable[[CategoryScenario, float], CategoryScenario]


def _field_setter(owner: type, name: str, set_child: Callable) -> Callable:
    """Setter that rebuilds ``owner`` with field ``name`` replaced by
    ``set_child(old field value, value)``.

    The rebuild goes through the positional constructor, so the
    owner's own validation runs on every set.
    """
    names = tuple(field_name for field_name, _ in _FIELDS[owner])
    index = names.index(name)
    get_all = operator.attrgetter(*names)  # every scenario dataclass has 2+ fields

    def setter(obj, value):
        args = list(get_all(obj))
        args[index] = set_child(args[index], value)
        return owner(*args)

    return setter


def _numeric_leaves(owner: type):
    """(path, setter, leaf type) for every int, float or Magnitude field
    under ``owner``, nested dataclasses included, in declaration order."""
    for name, kind in _FIELDS[owner]:
        if kind is Magnitude:
            set_leaf = _field_setter(owner, name, lambda _, v: Magnitude.from_value(v))
            yield (name,), set_leaf, kind
        elif kind in (int, float):
            yield (name,), _field_setter(owner, name, lambda _, v: v), kind
        elif kind in _FIELDS:
            for path, set_child, leaf in _numeric_leaves(kind):
                yield (name, *path), _field_setter(owner, name, set_child), leaf


def _getter(dotted: str, kind: type) -> _Getter:
    if kind is Magnitude:  # swept and reported as the linear value
        return operator.attrgetter(dotted + ".value")
    get = operator.attrgetter(dotted)
    return (lambda s: float(get(s))) if kind is int else get


# path -> (getter, setter, is_integer_field), one entry per numeric
# scenario field, in dataclass field declaration order.
_PARAMETERS: dict[str, tuple[_Getter, _Setter, bool]] = {
    ".".join(path): (_getter(".".join(path), kind), setter, kind is int)
    for path, setter, kind in _numeric_leaves(CategoryScenario)
}


def valid_parameter_paths() -> tuple[str, ...]:
    """All sweepable dotted paths, sorted."""
    return tuple(sorted(_PARAMETERS))


def _lookup(path: str) -> tuple[_Getter, _Setter, bool]:
    if not isinstance(path, str) or path not in _PARAMETERS:
        raise UnknownParameterError(
            f"unknown parameter path {path!r}; valid paths: "
            + ", ".join(valid_parameter_paths())
        )
    return _PARAMETERS[path]


def get_parameter(scenario: CategoryScenario, path: str) -> float:
    getter, _, _ = _lookup(path)
    return getter(scenario)


def set_parameter(scenario: CategoryScenario, path: str, value: float) -> CategoryScenario:
    """Modified copy with the path set; the field's own validation applies."""
    _, setter, is_int = _lookup(path)
    if is_int:
        if not (_is_finite_number(value) and float(value).is_integer()):
            raise ValidationError(
                f"parameter {path!r} takes integer values, got {value!r}"
            )
        return setter(scenario, int(value))
    if not _is_finite_number(value):
        raise ValidationError(f"parameter {path!r} requires a finite number, got {value!r}")
    return setter(scenario, float(value))


# ---------------------------------------------------------------------------
# Analysis specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Explicit value list for one parameter."""

    parameter_path: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _lookup(self.parameter_path)
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValidationError(
                f"sweep over {self.parameter_path!r} needs at least one value"
            )
        for v in self.values:
            if not _is_finite_number(v):
                raise ValidationError(
                    f"sweep over {self.parameter_path!r}: value {v!r} is not a finite number"
                )

    @classmethod
    def from_grid(cls, parameter_path: str, low: float, high: float, steps: int) -> "SweepSpec":
        """Evenly spaced inclusive grid; endpoints land exactly on low and high."""
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 2:
            raise ValidationError(f"grid steps must be an integer >= 2, got {steps!r}")
        if not (_is_finite_number(low) and _is_finite_number(high) and low <= high):
            raise ValidationError(
                f"grid bounds must be finite with low <= high, got ({low!r}, {high!r})"
            )
        values = [low + (high - low) * i / (steps - 1) for i in range(steps)]
        values[-1] = high
        return cls(parameter_path, tuple(values))


@dataclass(frozen=True, slots=True)
class ParameterBounds:
    """Low/high excursion for one tornado parameter."""

    parameter_path: str
    low: float
    high: float

    def __post_init__(self) -> None:
        _lookup(self.parameter_path)
        if not (_is_finite_number(self.low) and _is_finite_number(self.high)
                and self.low <= self.high):
            raise ValidationError(
                f"bounds for {self.parameter_path!r} must be finite with "
                f"low <= high, got ({self.low!r}, {self.high!r})"
            )


class DistributionKind(enum.Enum):
    UNIFORM = "uniform"
    TRIANGULAR = "triangular"


@dataclass(frozen=True, slots=True)
class DistributionSpec:
    """Sampling distribution for one parameter."""

    parameter_path: str
    kind: DistributionKind
    low: float
    high: float
    mode: float | None = None  # triangular only

    def __post_init__(self) -> None:
        _lookup(self.parameter_path)
        if not isinstance(self.kind, DistributionKind):
            raise ValidationError(f"kind must be a DistributionKind, got {self.kind!r}")
        if not (_is_finite_number(self.low) and _is_finite_number(self.high)
                and self.low <= self.high):
            raise ValidationError(
                f"distribution for {self.parameter_path!r}: bounds must be finite "
                f"with low <= high, got ({self.low!r}, {self.high!r})"
            )
        if self.kind is DistributionKind.TRIANGULAR:
            if not _is_finite_number(self.mode):
                raise ValidationError(
                    f"triangular distribution for {self.parameter_path!r} requires a finite mode"
                )
            if not (self.low <= self.mode <= self.high):
                raise ValidationError(
                    f"distribution for {self.parameter_path!r}: mode {self.mode!r} "
                    f"outside [low, high] = [{self.low!r}, {self.high!r}]"
                )
        elif self.mode is not None:
            raise ValidationError(
                f"uniform distribution for {self.parameter_path!r} takes no mode"
            )


def _inverse_cdf(dist: DistributionSpec, u: float) -> float:
    """Map one uniform draw in [0, 1) through the distribution."""
    span = dist.high - dist.low
    if span == 0.0:
        return dist.low
    if dist.kind is DistributionKind.UNIFORM:
        return dist.low + span * u
    cut = (dist.mode - dist.low) / span
    if u < cut:
        return dist.low + math.sqrt(u * span * (dist.mode - dist.low))
    return dist.high - math.sqrt((1.0 - u) * span * (dist.high - dist.mode))


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SensitivityEntry:
    """One evaluated point: the swept inputs and the outputs that matter."""

    inputs: tuple[tuple[str, float], ...]
    t_total: float
    calendar_year: int
    gating: Gating


@dataclass(frozen=True, slots=True)
class SensitivitySummary:
    minimum: float
    maximum: float
    mean: float


@dataclass(frozen=True, slots=True)
class TornadoSpread:
    """Output excursion of one parameter between its bounds."""

    parameter_path: str
    low: float
    high: float
    t_total_low: float
    t_total_high: float
    spread: float


class AnalysisKind(enum.Enum):
    SWEEP = "sweep"
    TORNADO = "tornado"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True, slots=True)
class SensitivityReport:
    """Outcome of one analysis run.

    summary is None only for an empty report (tornado with no bounds).
    """

    kind: AnalysisKind
    category: str
    stage: Stage
    baseline_t_total: float
    entries: tuple[SensitivityEntry, ...]
    summary: SensitivitySummary | None
    tornado_spreads: tuple[TornadoSpread, ...] | None = None
    percentiles: tuple[tuple[int, float], ...] | None = None
    seed: int | None = None
    sample_count: int | None = None

    def __post_init__(self) -> None:
        if self.percentiles is not None:
            values = [v for _, v in self.percentiles]
            if sorted(values) != values:
                raise ValidationError(
                    f"percentile values must be nondecreasing, got {values!r}"
                )


def _summarize(t_totals: Sequence[float]) -> SensitivitySummary:
    try:
        mean = math.fsum(t_totals) / len(t_totals)
    except OverflowError:  # only the sum exceeds float range; power-of-two scaling is exact
        scale = 2.0 ** len(t_totals).bit_length()
        mean = math.fsum(t / scale for t in t_totals) / len(t_totals) * scale
    return SensitivitySummary(minimum=min(t_totals), maximum=max(t_totals), mean=mean)


def _entry(inputs: tuple[tuple[str, float], ...], result) -> SensitivityEntry:
    return SensitivityEntry(
        inputs=inputs,
        t_total=result.breakdown.t_total,
        calendar_year=result.breakdown.calendar_year,
        gating=result.breakdown.gating,
    )


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


def one_at_a_time(scenario: CategoryScenario, stage: Stage, sweep: SweepSpec) -> SensitivityReport:
    """Project once per swept value, all other parameters at baseline.

    Every value is validated (by constructing the modified scenario)
    before the first projection runs.
    """
    modified = [
        (v, set_parameter(scenario, sweep.parameter_path, v)) for v in sweep.values
    ]
    baseline = project(scenario, stage)
    entries = tuple(
        _entry(((sweep.parameter_path, v),), project(m, stage)) for v, m in modified
    )
    return SensitivityReport(
        kind=AnalysisKind.SWEEP,
        category=scenario.name,
        stage=stage,
        baseline_t_total=baseline.breakdown.t_total,
        entries=entries,
        summary=_summarize([e.t_total for e in entries]),
    )


def tornado(
    scenario: CategoryScenario,
    stage: Stage,
    bounds: Sequence[ParameterBounds],
) -> SensitivityReport:
    """Evaluate each parameter at its bounds, others at baseline.

    Parameters are ranked by descending |t_total(high) - t_total(low)|;
    ties keep their input order.  Entries hold the low then high point
    of each parameter in ranked order.  An empty bounds list yields an
    empty report.
    """
    seen: set[str] = set()
    for b in bounds:
        if b.parameter_path in seen:
            raise ValidationError(
                f"duplicate tornado bounds for parameter {b.parameter_path!r}"
            )
        seen.add(b.parameter_path)
    # Validate all excursions up front, before any projection.
    probes = [
        (b, set_parameter(scenario, b.parameter_path, b.low),
         set_parameter(scenario, b.parameter_path, b.high))
        for b in bounds
    ]
    baseline = project(scenario, stage)
    evaluated = []
    for b, low_scenario, high_scenario in probes:
        low_result = project(low_scenario, stage)
        high_result = project(high_scenario, stage)
        spread = abs(high_result.breakdown.t_total - low_result.breakdown.t_total)
        evaluated.append((b, low_result, high_result, spread))
    evaluated.sort(key=lambda item: item[3], reverse=True)  # stable: ties keep order
    spreads = tuple(
        TornadoSpread(
            parameter_path=b.parameter_path,
            low=b.low,
            high=b.high,
            t_total_low=low_result.breakdown.t_total,
            t_total_high=high_result.breakdown.t_total,
            spread=spread,
        )
        for b, low_result, high_result, spread in evaluated
    )
    entries = []
    for b, low_result, high_result, _ in evaluated:
        entries.append(_entry(((b.parameter_path, b.low),), low_result))
        entries.append(_entry(((b.parameter_path, b.high),), high_result))
    entries = tuple(entries)
    return SensitivityReport(
        kind=AnalysisKind.TORNADO,
        category=scenario.name,
        stage=stage,
        baseline_t_total=baseline.breakdown.t_total,
        entries=entries,
        summary=_summarize([e.t_total for e in entries]) if entries else None,
        tornado_spreads=spreads,
    )


def monte_carlo(
    scenario: CategoryScenario,
    stage: Stage,
    distributions: Sequence[DistributionSpec],
    sample_count: int,
    seed: int,
) -> SensitivityReport:
    """Jointly sample all distributions and project each sample.

    Deterministic for a given (seed, distributions, sample_count); see
    the module docstring for the exact generator contract.
    """
    if not distributions:
        raise ValidationError("monte_carlo requires at least one distribution")
    if not isinstance(sample_count, int) or isinstance(sample_count, bool) or sample_count < 1:
        raise ValidationError(f"sample_count must be an integer >= 1, got {sample_count!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2**64):
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    seen: set[str] = set()
    for dist in distributions:
        if dist.parameter_path in seen:
            raise ValidationError(
                f"duplicate distribution for parameter {dist.parameter_path!r}"
            )
        seen.add(dist.parameter_path)
        _, _, is_int = _lookup(dist.parameter_path)
        if is_int:
            raise ValidationError(
                f"parameter {dist.parameter_path!r} is integer-valued; continuous "
                "distributions cannot target it (sweep explicit integer values instead)"
            )
        # Bounds must already satisfy the target field's invariants.
        set_parameter(scenario, dist.parameter_path, dist.low)
        set_parameter(scenario, dist.parameter_path, dist.high)
        if dist.mode is not None:
            set_parameter(scenario, dist.parameter_path, dist.mode)

    baseline = project(scenario, stage)
    entries = []
    for index in range(sample_count):
        # Explicit uint64 keying: a plain list would round-trip through
        # float64 and corrupt seeds above 2**53.
        key = np.array([seed, index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        modified = scenario
        inputs = []
        for dist in distributions:
            value = _inverse_cdf(dist, rng.random())
            modified = set_parameter(modified, dist.parameter_path, value)
            inputs.append((dist.parameter_path, value))
        entries.append(_entry(tuple(inputs), project(modified, stage)))
    entries = tuple(entries)

    t_totals = np.array([e.t_total for e in entries], dtype=np.float64)
    percentiles = tuple(
        (p, float(np.percentile(t_totals, p))) for p in MC_PERCENTILES
    )
    return SensitivityReport(
        kind=AnalysisKind.MONTE_CARLO,
        category=scenario.name,
        stage=stage,
        baseline_t_total=baseline.breakdown.t_total,
        entries=entries,
        summary=_summarize([e.t_total for e in entries]),
        percentiles=percentiles,
        seed=seed,
        sample_count=sample_count,
    )
