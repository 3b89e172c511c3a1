"""Sensitivity analysis over scenario parameters.

Three analyses share one addressing scheme: a dotted parameter path
names a numeric scenario field ("crow.beta", "chi.stage3", "f", ...).
Scenarios are immutable, so setting a path produces a modified copy,
and every candidate value passes the target field's own validation
before any projection runs.  Every number an analysis takes (a value,
bound, mode, step or sample count, a seed) is checked as a scenario
document's field is (``errors._check_number``), and its error names it.

* one_at_a_time: project the scenario once per swept value.
* tornado: project at the low and high bound of each parameter with
  all others at baseline, ranked by descending output spread.
* monte_carlo: draw all distribution parameters jointly per sample.

A tornado builds each row with ``set_parameter`` and projects it with
``project``.  A sweep checks every value first, then builds and projects
one row at a time, holding only each row's outputs.

Monte Carlo takes one of two routes, with equal results.  Up to
``_MC_ROW_LIMIT`` samples it draws and evaluates one sample at a time
on Python floats (``_sample_rows``): the term functions ``project``
runs (``scenario._terms``) run on the scenario's leaves with the
sample's values put in.  Past the limit it evaluates its samples
together (``_sample_columns``, ``_evaluate``): the same term functions
run over numpy columns of the sampled inputs (``_column_ops``).  Either
way each row is bit-identical to ``project`` on the row's modified
scenario, and a sample that fails any of the terms' checks, or lies
outside its distribution's bounds, runs through ``set_parameter`` and
``project``, which raise the exact error.  numpy is imported by the
functions that build columns, so only an ``mc`` past the limit loads it.

Monte Carlo determinism contract: the generator is Philox4x64-10, keyed
per sample as (seed, sample_index), with exactly one uniform draw per
distribution per sample transformed through the distribution's inverse
CDF (``_inverse_cdf``, one definition for both routes).  The draws are
computed one sample at a time on Python ints (``_draws_by_sample``) or
for all samples at once in numpy arrays (``_uniforms``), and equal those
of ``np.random.Generator(np.random.Philox(key=[seed, i]))``.  Sample i
therefore never depends on how many samples run before it or alongside
it, and aggregation always walks samples in index order; the
percentiles follow ``numpy.percentile``'s linear rule, written out once
(``_percentiles``).  Given the same seed, distribution list and sample
count, reports are byte-for-byte reproducible on the same package
version.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial, reduce
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from .errors import _FINITE, _FLOAT_OPS, UnknownParameterError, ValidationError
from .errors import _check_number, _domain, _float_power
from .scenario import _FIELDS, _TERM_LEAVES, _TERM_PATHS, CategoryScenario, ProjectionResult
from .scenario import _terms, project
from .timeline import _GATING, Gating, Stage, TimelineBreakdown, _calendar_year

if TYPE_CHECKING:
    import numpy as np

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
    "MAX_ROWS",
    "valid_parameter_paths",
    "set_parameter",
    "one_at_a_time",
    "tornado",
    "monte_carlo",
]

MC_PERCENTILES = (5, 25, 50, 75, 95)

# The most rows one analysis evaluates: Monte Carlo samples or grid
# steps.  Larger counts are rejected before anything is allocated.
MAX_ROWS = 10_000_000

_Setter = Callable[[CategoryScenario, float], CategoryScenario]


def _field_setter(owner: type, name: str, set_child: Callable) -> Callable:
    """Setter that rebuilds ``owner`` with field ``name`` replaced by
    ``set_child(old field value, value)``.

    The rebuild goes through the positional constructor, so the
    owner's own validation runs on every set.
    """
    names = tuple(field_name for field_name, *_ in _FIELDS[owner])
    index = names.index(name)
    get_all = operator.attrgetter(*names)  # every scenario dataclass has 2+ fields

    def setter(obj, value):
        args = list(get_all(obj))
        args[index] = set_child(args[index], value)
        return owner(*args)

    return setter


def _numeric_leaves(owner: type, domain: tuple | None = None):
    """(path, setter, leaf type, interval) for every int or float field
    under ``owner``, nested dataclasses included, in declaration order;
    a field without a domain of its own takes ``domain``, its holder's."""
    for name, kind, declared in _FIELDS[owner]:
        interval = declared or domain
        if kind in (int, float):
            yield (name,), _field_setter(owner, name, lambda _, v: v), kind, interval
        elif kind in _FIELDS:
            for path, set_child, leaf, leaf_interval in _numeric_leaves(kind, interval):
                yield (name, *path), _field_setter(owner, name, set_child), leaf, leaf_interval


# path -> (setter, leaf type: int or float, interval),
# one entry per numeric scenario field, in dataclass field declaration order.
_PARAMETERS: dict[str, tuple[_Setter, type, tuple]] = {
    ".".join(path): (setter, kind, interval)
    for path, setter, kind, interval in _numeric_leaves(CategoryScenario)
}


def valid_parameter_paths() -> tuple[str, ...]:
    """All sweepable dotted paths, sorted."""
    return tuple(sorted(_PARAMETERS))


def _lookup(path: str) -> tuple[_Setter, type, tuple]:
    if not isinstance(path, str) or path not in _PARAMETERS:
        raise UnknownParameterError(
            f"unknown parameter path {path!r}; valid paths: "
            + ", ".join(valid_parameter_paths())
        )
    return _PARAMETERS[path]


def _checked(scenario: CategoryScenario, path: str, value: float) -> int | float:
    """``value`` as ``set_parameter`` sets it at ``path``, or the
    ValidationError ``set_parameter`` raises.  Each field's domain is one
    interval of its own, so the setter of ``path`` takes every value this
    returns."""
    _, kind, interval = _lookup(path)
    if kind is int and value.__class__ is float and value.is_integer():
        value = int(value)
    _check_number(path, value, {"domain": interval}, kind, f"scenario {scenario.name!r}: ")
    return value if kind is int else float(value)


def set_parameter(scenario: CategoryScenario, path: str, value: float) -> CategoryScenario:
    """Modified copy with the path set.  The value is checked as a scenario
    document's field is, and an error reads as it does for a document; an
    integral float sets an int path as that int, and a float path holds a
    float."""
    value = _checked(scenario, path, value)
    return _PARAMETERS[path][0](scenario, value)


# ---------------------------------------------------------------------------
# Analysis specifications
# ---------------------------------------------------------------------------


def _check_bounds(prefix: str, low: float, high: float) -> None:
    """Raise a ValidationError, ``prefix`` then a message naming the bound,
    unless ``low`` is a finite number and ``high`` lies in [low, inf)."""
    _check_number("low", low, _FINITE, prefix=prefix)
    _check_number("high", high, _domain(low, math.inf, high_open=True), prefix=prefix)


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
            _check_number("value", v, _FINITE, prefix=f"sweep over {self.parameter_path!r}: ")

    @classmethod
    def from_grid(cls, parameter_path: str, low: float, high: float, steps: int) -> "SweepSpec":
        """Evenly spaced inclusive grid; endpoints land exactly on low and high."""
        prefix = f"sweep over {parameter_path!r}: grid "
        _check_number("steps", steps, _domain(2, MAX_ROWS), int, prefix)
        _check_bounds(prefix, low, high)
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
        _check_bounds(f"bounds for {self.parameter_path!r}: ", self.low, self.high)


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
        prefix = f"distribution for {self.parameter_path!r}: "
        _check_bounds(prefix, self.low, self.high)
        if self.kind is DistributionKind.TRIANGULAR:
            _check_number("mode", self.mode, _domain(self.low, self.high), prefix=prefix)
        elif self.mode is not None:
            raise ValidationError(
                f"uniform distribution for {self.parameter_path!r} takes no mode"
            )


# The operations _inverse_cdf takes, on Python floats; _array_math gives
# numpy's over float64 columns.
_FLOAT_MATH = SimpleNamespace(sqrt=math.sqrt, frexp=math.frexp, ldexp=math.ldexp, any=bool,
                              where=lambda ok, yes, no: yes if ok else no,
                              full=lambda u, value: value)


def _array_math() -> SimpleNamespace:
    import numpy as np

    return SimpleNamespace(sqrt=np.sqrt, frexp=np.frexp, ldexp=np.ldexp, any=np.any,
                           where=np.where, full=lambda u, value: np.full(u.size, value))


def _inverse_cdf(dist: DistributionSpec, u, ops):
    """Map uniform draws in [0, 1) through the distribution: one float
    with ``_FLOAT_MATH``, or a float64 column with ``_array_math()``, by
    the same operations in the same order.

    uniform: ``low + span * u``.  triangular: ``low + sqrt(u * span *
    (mode - low))`` below the branch point, ``high - sqrt((1 - u) * span
    * (high - mode))`` above it, the square root taken by
    ``_scaled_sqrt``.  The differences of the bounds are taken in Python
    on the numbers as given.
    """
    span = dist.high - dist.low
    if span == 0.0:
        return ops.full(u, float(dist.low))
    if dist.kind is DistributionKind.UNIFORM:
        return float(dist.low) + float(span) * u
    below = u < (dist.mode - dist.low) / span
    root = _scaled_sqrt(ops.where(below, u, 1.0 - u), float(span),
                        ops.where(below, float(dist.mode - dist.low),
                                  float(dist.high - dist.mode)), ops)
    return ops.where(below, float(dist.low) + root, float(dist.high) - root)


_SMALLEST_NORMAL = 2.2250738585072014e-308  # sys.float_info.min


def _scaled_sqrt(a, span: float, b, ops):
    """``sqrt(a * span * b)`` for ``a`` in [0, 1] and ``b`` in [0, span].

    Where the product is a normal float, its plain square root.  Where it
    overflows, or underflows to 0 or a subnormal although no factor is 0,
    the factors' significands are multiplied instead and the exponent is
    halved apart: ``frexp`` and ``ldexp`` scale by exact powers of two, so
    the root is the plain one taken without bounds on the exponent.
    """
    product = a * span * b
    root = ops.sqrt(product)
    lost = (product == math.inf) | ((product < _SMALLEST_NORMAL) & (a != 0.0) & (b != 0.0))
    if not ops.any(lost):
        return root
    (a_digits, a_exp), (span_digits, span_exp), (b_digits, b_exp) = map(ops.frexp, (a, span, b))
    exponent = a_exp + span_exp + b_exp
    digits = ops.ldexp(a_digits * span_digits * b_digits, exponent & 1)  # an even exponent left
    return ops.where(lost, ops.ldexp(ops.sqrt(digits), exponent >> 1), root)


# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1,
# 2, 3", SC'11): round multipliers and key increments, as NumPy's
# Philox bit generator uses them.
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_KEY_STEPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _mulhilo(multiplier: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products multiplier * x,
    assembled from 32-bit halves."""
    import numpy as np

    low_32, shift_32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_low, m_high = np.uint64(multiplier & 0xFFFFFFFF), np.uint64(multiplier >> 32)
    x_low, x_high = x & low_32, x >> shift_32
    middle = x_high * m_low + ((x_low * m_low) >> shift_32)
    carry = x_low * m_high + (middle & low_32)
    high = x_high * m_high + (middle >> shift_32) + (carry >> shift_32)
    return high, x * np.uint64(multiplier)


def _philox_block(seed: int, index: np.ndarray, block: int) -> tuple[np.ndarray, ...]:
    """The four output words of Philox4x64-10 at counter (block, 0, 0, 0)
    under key (seed, index), for every index at once."""
    import numpy as np

    key0, key1 = seed, index
    zeros = np.zeros(index.size, dtype=np.uint64)
    x0, x1, x2, x3 = np.full(index.size, block, dtype=np.uint64), zeros, zeros, zeros
    for round_ in range(_PHILOX_ROUNDS):
        if round_:
            key0 = (key0 + _PHILOX_KEY_STEPS[0]) % 2**64
            key1 = key1 + np.uint64(_PHILOX_KEY_STEPS[1])  # arrays wrap modulo 2**64
        high0, low0 = _mulhilo(_PHILOX_MULTIPLIERS[0], x0)
        high1, low1 = _mulhilo(_PHILOX_MULTIPLIERS[1], x2)
        x0, x1, x2, x3 = high1 ^ x1 ^ np.uint64(key0), low1, high0 ^ x3 ^ key1, low0
    return x0, x1, x2, x3


def _uniforms(seed: int, sample_count: int, draws: int) -> list[np.ndarray]:
    """Draw j of every sample 0..sample_count-1, for j < draws.

    Sample i's generator is ``Generator(Philox(key=[seed, i]))``: its
    counter starts at zero and is incremented before each block, so
    draws 1-4 are the words of counter block 1, draws 5-8 of block 2,
    and ``random()`` keeps the top 53 bits of each word.
    """
    import numpy as np

    index = np.arange(sample_count, dtype=np.uint64)
    words: list[np.ndarray] = []
    for block in range(1, (draws + 3) // 4 + 1):
        words.extend(_philox_block(seed, index, block))
    return [(w >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
            for w in words[:draws]]


def _draws_by_sample(seed: int, sample_count: int, draws: int) -> Iterator[list[float]]:
    """The draws of each sample in turn, as ``_uniforms`` gives them,
    computed one sample at a time with Philox4x64-10 on Python ints.  The
    key words of round r are ``seed + r * step0`` and ``index + r * step1``
    modulo 2**64, and the high word of a product is the product >> 64."""
    mask = 2**64 - 1
    keys0 = [(seed + r * _PHILOX_KEY_STEPS[0]) & mask for r in range(_PHILOX_ROUNDS)]
    steps1 = [(r * _PHILOX_KEY_STEPS[1]) & mask for r in range(_PHILOX_ROUNDS)]
    multiplier0, multiplier1 = _PHILOX_MULTIPLIERS
    blocks = range(1, (draws + 3) // 4 + 1)
    for index in range(sample_count):
        words = []
        for block in blocks:
            x0, x1, x2, x3 = block, 0, 0, 0
            for key0, step1 in zip(keys0, steps1):
                product0, product1 = multiplier0 * x0, multiplier1 * x2
                x0, x1, x2, x3 = ((product1 >> 64) ^ x1 ^ key0, product1 & mask,
                                  (product0 >> 64) ^ x3 ^ ((index + step1) & mask),
                                  product0 & mask)
            words += x0, x1, x2, x3
        yield [(w >> 11) * (1.0 / 9007199254740992.0) for w in words[:draws]]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SensitivityEntry:
    """One evaluated point: the swept inputs and the outputs that matter.

    Built on demand from a report's columns by ``SensitivityReport.entries``.
    """

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


_InputColumns = tuple[tuple[str, tuple[float | None, ...]], ...]


@dataclass(frozen=True, slots=True)
class SensitivityReport:
    """Outcome of one analysis run, one column per evaluated quantity.

    ``inputs`` holds one (path, values) column per input path, in the
    order the rows first set them; a row that does not set a path (a
    tornado row varies one) holds None there.  Values are as given:
    a finite int or float.  ``t_total``, ``calendar_year`` and
    ``gating`` hold each row's outputs.  summary is None only for an
    empty report (tornado with no bounds).
    """

    kind: AnalysisKind
    category: str
    stage: Stage
    baseline_t_total: float
    inputs: _InputColumns
    t_total: tuple[float, ...]
    calendar_year: tuple[int, ...]
    gating: tuple[Gating, ...]
    summary: SensitivitySummary | None
    tornado_spreads: tuple[TornadoSpread, ...] | None = None
    percentiles: tuple[tuple[int, float], ...] | None = None
    seed: int | None = None
    sample_count: int | None = None

    def __post_init__(self) -> None:
        rows = len(self.t_total)
        lengths = {len(c) for _, c in self.inputs} | {len(self.calendar_year), len(self.gating)}
        if lengths - {rows}:
            raise ValidationError(
                f"report columns must all hold {rows} rows, got lengths {sorted(lengths)}"
            )
        paths = [path for path, _ in self.inputs]
        if len(set(paths)) < len(paths):
            raise ValidationError(f"report input paths must be distinct, got {paths!r}")
        if self.percentiles is not None:
            values = [v for _, v in self.percentiles]
            if sorted(values) != values:
                raise ValidationError(
                    f"percentile values must be nondecreasing, got {values!r}"
                )

    @property
    def entries(self) -> "_Entries":
        """The rows as a read-only sequence of ``SensitivityEntry``."""
        return _Entries(self)


class _Entries(Sequence):
    """Read-only row view of a report's columns; each ``SensitivityEntry``
    is built when a row is read.  Equal to another view or a tuple with
    equal entries."""

    __slots__ = ("_report",)

    def __init__(self, report: SensitivityReport) -> None:
        self._report = report

    def __len__(self) -> int:
        return len(self._report.t_total)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        report = self._report
        t_total = report.t_total[index]  # IndexError ends iteration
        inputs = tuple((path, column[index]) for path, column in report.inputs
                       if column[index] is not None)
        return SensitivityEntry(inputs, t_total, report.calendar_year[index],
                                report.gating[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (_Entries, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def _summarize(t_totals: Sequence[float]) -> SensitivitySummary:
    try:
        mean = math.fsum(t_totals) / len(t_totals)
    except OverflowError:  # only the sum exceeds float range; power-of-two scaling is exact
        scale = 2.0 ** len(t_totals).bit_length()
        mean = math.fsum(t / scale for t in t_totals) / len(t_totals) * scale
    return SensitivitySummary(minimum=min(t_totals), maximum=max(t_totals), mean=mean)


def _percentiles(ordered: Sequence[float]) -> tuple[tuple[int, float], ...]:
    """``MC_PERCENTILES`` of the sorted totals ``ordered``, a list or a
    float64 array, bit for bit as ``numpy.percentile``'s default linear
    rule gives them: at virtual index ``i = (n - 1) * (p / 100)``, with
    ``a``, ``b`` the values at ``floor(i)`` and the next index and ``g``
    the fraction of ``i``, ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)``
    where ``g >= 0.5``.  An index at or past the last element takes the
    last element as both ``a`` and ``b``, with ``g = i + 1``."""
    last = len(ordered) - 1
    values = []
    for p in MC_PERCENTILES:
        index = last * (p / 100)
        if index >= last:
            below = above = last
            weight = index + 1.0
        else:
            below = math.floor(index)
            above, weight = below + 1, index - below
        a, b = float(ordered[below]), float(ordered[above])
        difference = b - a
        values.append(b - difference * (1 - weight) if weight >= 0.5
                      else a + difference * weight)
    return tuple(zip(MC_PERCENTILES, values))


def _per_row(fn: Callable[..., float], *args):
    """``fn`` on Python floats, once per row of the arguments that are
    columns, or once if none is.  libm's log and pow, which this runs,
    can differ from numpy's in the last bit."""
    import numpy as np

    if all(np.ndim(a) == 0 for a in args):
        return fn(*map(float, args))
    columns = np.broadcast_arrays(*args)
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), dtype=np.float64,
                       count=columns[0].size)


def _column_ops(masks: list):
    """``errors._FLOAT_OPS`` over float64 columns: libm runs per row
    (``_per_row``), and each check's mask is appended to ``masks``."""
    import numpy as np

    return SimpleNamespace(log10=partial(_per_row, math.log10), log=partial(_per_row, math.log),
                           power=partial(_per_row, _float_power), where=np.where,
                           check=lambda ok, _message: masks.append(ok))


def _evaluate(
    scenario: CategoryScenario,
    stage: Stage,
    columns: dict[str, np.ndarray],
    outside: np.ndarray,
) -> tuple[np.ndarray, list[int], list[Gating]]:
    """The t_total (float64), calendar year and gating columns of Monte
    Carlo's samples: each row equal to ``project`` on the scenario with
    the row's values applied by ``set_parameter``.

    ``columns`` maps each sampled path to its float64 column; every other
    path keeps the scenario's value.  ``project``'s own ``_terms`` runs on
    the columns with ``_column_ops``, so a term none of whose inputs vary
    is computed once.  A row that fails one of its checks, or that
    ``outside`` marks, runs through ``set_parameter`` and ``project``
    instead, in row order, so the first invalid row raises the scalar
    path's error.
    """
    import numpy as np

    masks: list = []
    held = _TERM_LEAVES[stage](scenario)  # the leaves as the scenario holds them
    leaves = [columns[path] if path in columns else float(value)
              for path, value in zip(_TERM_PATHS[stage], held)]
    with np.errstate(all="ignore"):
        spans, compute_gated, _ = _terms(stage, _column_ops(masks), *leaves)

    rows = outside.shape
    fallback = ~np.broadcast_to(reduce(operator.and_, masks), rows) | outside
    if any(type(v) is int and float(v) != v for v in held):  # an int float64 does not hold
        fallback = np.ones(rows, dtype=bool)
    totals = np.array(np.broadcast_to(spans[-1], rows), dtype=np.float64)
    gating = list(map(_GATING.__getitem__, np.broadcast_to(compute_gated, rows).tolist()))
    for row in np.flatnonzero(fallback).tolist():
        # .item(): set_parameter takes no numpy scalar
        breakdown = _sample_breakdown(scenario, stage, zip(
            columns, (column[row].item() for column in columns.values())))
        totals[row], gating[row] = breakdown.t_total, breakdown.gating
    return totals, _calendar_years(scenario.baseline_year, totals), gating


def _sample_breakdown(scenario: CategoryScenario, stage: Stage,
                      values: Iterable[tuple[str, float]]) -> TimelineBreakdown:
    """The breakdown of a sample the terms did not evaluate: each (path,
    value) set by ``set_parameter``, then projected by ``project``, either
    of which raises the exact error of an invalid sample."""
    for path, value in values:
        scenario = set_parameter(scenario, path, value)
    return project(scenario, stage).breakdown


def _calendar_years(baseline_year: int, totals: np.ndarray) -> list[int]:
    """``timeline._calendar_year`` of ``baseline_year`` and each row of a
    float64 column at once: ``t - floor(t)`` is exact, so one comparison
    with 0.5 rounds half up as it does.  A total of 2**62 or more, whose
    floor an int64 may not hold, takes the Python path."""
    import numpy as np

    large = totals >= 2.0**62
    whole = np.floor(np.where(large, 0.0, totals))
    years = (baseline_year + whole.astype(np.int64) + (totals - whole >= 0.5)).tolist()
    for row in np.flatnonzero(large).tolist():
        years[row] = _calendar_year(baseline_year, float(totals[row]))
    return years


def _outputs(rows: Iterable[TimelineBreakdown]) -> tuple[list[float], list[int], list[Gating]]:
    """The t_total, calendar year and gating columns of projected rows,
    read in one pass, so that ``rows`` may be a generator."""
    t_total, calendar_year, gating = [], [], []
    for row in rows:
        t_total.append(row.t_total)
        calendar_year.append(row.calendar_year)
        gating.append(row.gating)
    return t_total, calendar_year, gating


def _report(
    kind: AnalysisKind,
    scenario: CategoryScenario,
    stage: Stage,
    baseline: ProjectionResult,
    inputs: dict[str, Sequence],
    outputs: tuple[list[float], list[int], list[Gating]],
    **fields,
) -> SensitivityReport:
    """The report of rows whose inputs and outputs are given."""
    t_total, calendar_year, gating = outputs
    return SensitivityReport(
        kind=kind,
        category=scenario.name,
        stage=stage,
        baseline_t_total=baseline.breakdown.t_total,
        inputs=tuple((path, tuple(values)) for path, values in inputs.items()),
        t_total=tuple(t_total),
        calendar_year=tuple(calendar_year),
        gating=tuple(gating),
        summary=_summarize(t_total) if t_total else None,
        **fields,
    )


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


def _check_specs(scenario: CategoryScenario,
                 specs: Sequence[ParameterBounds | DistributionSpec],
                 what: str) -> list[list[CategoryScenario]]:
    """Raise a ValidationError, before any projection, for a second spec of
    one path or a bound or mode that ``set_parameter`` rejects.  Return,
    for each spec, the scenario at its low bound, its high bound and its
    mode if it has one."""
    seen: set[str] = set()
    for spec in specs:
        if spec.parameter_path in seen:
            raise ValidationError(f"duplicate {what} for parameter {spec.parameter_path!r}")
        seen.add(spec.parameter_path)
    return [[set_parameter(scenario, spec.parameter_path, value)
             for value in (spec.low, spec.high, getattr(spec, "mode", None)) if value is not None]
            for spec in specs]


def one_at_a_time(scenario: CategoryScenario, stage: Stage, sweep: SweepSpec) -> SensitivityReport:
    """Project once per swept value, all other parameters at baseline.

    Every value is checked before the first projection runs.  Then each
    row's scenario is built and projected in turn, and only its outputs
    are kept, so memory grows by a few columns' worth per value.
    """
    path = sweep.parameter_path
    values = [_checked(scenario, path, v) for v in sweep.values]
    baseline = project(scenario, stage)
    setter = _PARAMETERS[path][0]
    return _report(AnalysisKind.SWEEP, scenario, stage, baseline, {path: sweep.values},
                   _outputs(project(setter(scenario, v), stage).breakdown for v in values))


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
    built = _check_specs(scenario, bounds, "tornado bounds")
    baseline = project(scenario, stage)
    # Each bound's (low, high) rows.
    pairs = [tuple(project(row, stage).breakdown for row in rows) for rows in built]
    spread = [abs(high.t_total - low.t_total) for low, high in pairs]
    ranked = sorted(range(len(bounds)), key=spread.__getitem__, reverse=True)  # stable
    # The report lists each bound's low and high row in ranked order; a
    # row holds None under every other bound's path.
    inputs = {}
    for position, i in enumerate(ranked):
        inputs[bounds[i].parameter_path] = column = [None] * (2 * len(bounds))
        column[2 * position:2 * position + 2] = bounds[i].low, bounds[i].high
    outputs = _outputs([row for i in ranked for row in pairs[i]])
    spreads = tuple(
        TornadoSpread(
            parameter_path=bounds[i].parameter_path,
            low=bounds[i].low,
            high=bounds[i].high,
            t_total_low=pairs[i][0].t_total,
            t_total_high=pairs[i][1].t_total,
            spread=spread[i],
        )
        for i in ranked
    )
    return _report(AnalysisKind.TORNADO, scenario, stage, baseline, inputs, outputs,
                   tornado_spreads=spreads)


# The most samples Monte Carlo draws and evaluates one at a time on Python
# floats (_sample_rows); a larger run evaluates numpy columns
# (_sample_columns).  Rows cost 12-17 us a sample and no numpy import;
# columns cost numpy's import, about 0.06 s, and little a sample.  Fresh
# `mc` processes, 2 distributions to JSON, medians of 9-11 interleaved
# runs in each of three rounds on a 2-vCPU host (Python 3.11.7, numpy
# 2.4.6), wall seconds, rows against columns: 1000 samples 0.116-0.134
# against 0.162-0.170; 2000 0.125-0.138 against 0.156-0.171; 4000
# 0.170-0.183 against 0.176-0.190; 5000 0.195-0.213 against 0.184-0.198;
# 8000 0.233-0.242 against 0.184-0.193.  The crossover lies between 4000
# and 5000 samples.
_MC_ROW_LIMIT = 4000


def _sample_rows(scenario: CategoryScenario, stage: Stage,
                 distributions: Sequence[DistributionSpec], sample_count: int, seed: int):
    """Monte Carlo's input columns, output columns and percentiles, drawn
    (``_draws_by_sample``) and evaluated one sample at a time on Python
    floats.  A sample inside its distributions' bounds runs ``_terms`` on
    the scenario's leaves with its values put in, as ``project`` runs them
    on the sample's scenario; any other sample runs through
    ``set_parameter`` and ``project``.  The first failing sample raises."""
    paths_drawn = [dist.parameter_path for dist in distributions]
    leaves = list(_TERM_LEAVES[stage](scenario))
    slots = [(i, _TERM_PATHS[stage].index(path)) for i, path in enumerate(paths_drawn)
             if path in _TERM_PATHS[stage]]
    bounds = [(float(dist.low), float(dist.high)) for dist in distributions]
    columns: list[list[float]] = [[] for _ in distributions]
    totals, years, gating = [], [], []
    for draws in _draws_by_sample(seed, sample_count, len(distributions)):
        values = [_inverse_cdf(dist, u, _FLOAT_MATH) for dist, u in zip(distributions, draws)]
        for column, value in zip(columns, values):
            column.append(value)
        if all(low <= value <= high for (low, high), value in zip(bounds, values)):
            for i, slot in slots:
                leaves[slot] = values[i]
            spans, compute_gated, _ = _terms(stage, _FLOAT_OPS, *leaves)
            totals.append(spans[-1])
            years.append(_calendar_year(scenario.baseline_year, spans[-1]))
            gating.append(_GATING[compute_gated])
            continue
        breakdown = _sample_breakdown(scenario, stage, zip(paths_drawn, values))
        totals.append(breakdown.t_total)
        years.append(breakdown.calendar_year)
        gating.append(breakdown.gating)
    return columns, (totals, years, gating), _percentiles(sorted(totals))


def _sample_columns(scenario: CategoryScenario, stage: Stage,
                    distributions: Sequence[DistributionSpec], sample_count: int, seed: int):
    """Monte Carlo's input columns, output columns and percentiles, each
    distribution drawn for all samples at once (``_uniforms``) and the
    samples evaluated together by ``_evaluate``."""
    import numpy as np

    columns, outside = {}, np.zeros(sample_count, dtype=bool)
    array_math = _array_math()
    with np.errstate(all="ignore"):  # a sample out of float range is the scalar path's to reject
        for dist, u in zip(distributions, _uniforms(seed, sample_count, len(distributions))):
            column = columns[dist.parameter_path] = _inverse_cdf(dist, u, array_math)
            outside |= (column < float(dist.low)) | (column > float(dist.high))
    totals, years, gating = _evaluate(scenario, stage, columns, outside)
    return ([column.tolist() for column in columns.values()], (totals.tolist(), years, gating),
            _percentiles(np.sort(totals)))


def monte_carlo(
    scenario: CategoryScenario,
    stage: Stage,
    distributions: Sequence[DistributionSpec],
    sample_count: int,
    seed: int,
) -> SensitivityReport:
    """Jointly sample all distributions and project each sample.

    Deterministic for a given (seed, distributions, sample_count); see
    the module docstring for the exact generator contract.  Up to
    ``_MC_ROW_LIMIT`` samples are evaluated one at a time on Python
    floats, and more as numpy columns, with equal results.
    """
    if not distributions:
        raise ValidationError("monte_carlo requires at least one distribution")
    _check_number("sample_count", sample_count, _domain(1, MAX_ROWS), int)
    _check_number("seed", seed, _domain(0, 2**64, high_open=True), int)
    for dist in distributions:
        if _lookup(dist.parameter_path)[1] is int:
            raise ValidationError(
                f"parameter {dist.parameter_path!r} is integer-valued; continuous "
                "distributions cannot target it (sweep explicit integer values instead)"
            )
    _check_specs(scenario, distributions, "distribution")

    baseline = project(scenario, stage)
    # Every field's domain is one interval (its dataclass field's metadata),
    # so a sample inside the validated [low, high] is valid; one outside is
    # checked by the scalar path.
    sample = _sample_rows if sample_count <= _MC_ROW_LIMIT else _sample_columns
    columns, outputs, percentiles = sample(scenario, stage, distributions, sample_count, seed)
    # A zero-width distribution reports its bound as given.
    inputs = {dist.parameter_path: [dist.low] * sample_count if dist.high - dist.low == 0.0
              else column for dist, column in zip(distributions, columns)}
    return _report(AnalysisKind.MONTE_CARLO, scenario, stage, baseline, inputs, outputs,
                   percentiles=percentiles, seed=seed, sample_count=sample_count)
