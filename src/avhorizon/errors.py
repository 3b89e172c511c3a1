"""Exception types, field-domain checks and the float operations of the
model's term functions, shared across the package.

Everything user-facing derives from ValidationError so callers (and the
CLI) can catch one type for anything that should map to a clean
"error: ..." line rather than a traceback.
"""

import math
from dataclasses import fields, is_dataclass
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, get_type_hints

__all__ = [
    "ValidationError",
    "ScenarioFormatError",
    "UnsupportedStageError",
    "UnknownParameterError",
    "EmptyResultsError",
]


class ValidationError(ValueError):
    """A value or document failed validation.

    Messages name the offending field and the permitted range so the
    error is actionable without reading source.
    """


class ScenarioFormatError(ValidationError):
    """A scenario document or spec file could not be parsed or has the wrong shape."""


class UnsupportedStageError(ValidationError):
    """Projection was requested for a stage the model does not compute."""


class UnknownParameterError(ValidationError):
    """A sensitivity parameter path does not name a sweepable field."""


class EmptyResultsError(ValidationError):
    """A report was requested for an empty result list."""


def _domain(low: float, high: float, *, low_open: bool = False,
            high_open: bool = False) -> dict[str, tuple]:
    """Metadata declaring a numeric dataclass field's permitted interval,
    which ``_check_fields`` checks."""
    return {"domain": (low, high, low_open, high_open)}


_POSITIVE = _domain(0, math.inf, low_open=True, high_open=True)
_NONNEGATIVE = _domain(0, math.inf, high_open=True)
_FINITE = _domain(-math.inf, math.inf, low_open=True, high_open=True)


def _in_interval(value: Any, interval: tuple) -> bool:
    """Whether a number lies in the interval; nan lies in none."""
    low, high, low_open, high_open = interval
    return ((low < value if low_open else low <= value)
            and (value < high if high_open else value <= high))


def _interval_text(interval: tuple) -> str:
    low, high, low_open, high_open = interval
    return f"{'(' if low_open else '['}{low!r}, {high!r}{')' if high_open else ']'}"


def _outside(path: str, value: Any, interval: tuple) -> str:
    return f"{path}={value!r} outside permitted range {_interval_text(interval)}"


def _is_finite_number(value: object) -> bool:
    """An int or float, not a bool, that is neither infinite nor NaN; an
    int beyond float range is not finite here."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _checks_of(owner: type) -> tuple[tuple, ...]:
    """(path, getter, leaf type, low, high, metadata) of each int or float
    field of ``owner`` with a declared domain; one on a field holding a
    dataclass of numbers (a StageMap) holds for each of its fields.
    ``low <= value <= high`` is a fast test, never looser than the interval
    and exact for floats: each open bound moves to the next float inside."""
    checks = []
    hints = get_type_hints(owner)
    for spec in fields(owner):
        if "domain" not in spec.metadata:
            continue
        leaves = {spec.name: hints[spec.name]}
        if is_dataclass(hints[spec.name]):
            nested = get_type_hints(hints[spec.name])
            if all(leaf in (int, float) for leaf in nested.values()):
                leaves = {f"{spec.name}.{name}": leaf for name, leaf in nested.items()}
        low, high, low_open, high_open = spec.metadata["domain"]
        low = math.nextafter(low, math.inf) if low_open else float(low)
        high = math.nextafter(high, -math.inf) if high_open else float(high)
        checks += [(path, attrgetter(path), leaf, low, high, spec.metadata)
                   for path, leaf in leaves.items() if leaf in (int, float)]
    return tuple(checks)


_CHECKS: dict[type, tuple[tuple, ...]] = {}  # _checks_of of each class, on first use


def _check_fields(obj: Any, what: str = "") -> None:
    """Raise a ValidationError for the first declared field of the dataclass
    ``obj`` that is not a number of its type inside its interval; ``what``
    ("scenario") prefixes the message with ``<what> <obj.name>: ``."""
    checks = _CHECKS.get(obj.__class__)
    if checks is None:
        checks = _CHECKS[obj.__class__] = _checks_of(obj.__class__)
    for path, get, kind, low, high, domain in checks:
        value = get(obj)
        if value.__class__ is kind and low <= value <= high:
            continue
        _check_number(path, value, domain, kind, f"{what} {obj.name!r}: " if what else "")


def _check_number(name: str, value: Any, domain: dict, kind: type = float,
                  prefix: str = "") -> None:
    """Raise a ValidationError, ``prefix`` then a message naming ``name``,
    unless ``value`` is a number of ``kind`` (int or float) inside the
    interval that the field metadata ``domain`` declares.  A float also
    takes an int within float range.  The type must be exactly int or
    float: a bool or a numpy scalar is not taken.  An int beyond float
    range is named by its bit length, never printed."""
    number = value.__class__ is kind or (
        kind is float and value.__class__ is int and _is_finite_number(value))
    if number and _in_interval(value, domain["domain"]):
        return
    if value.__class__ is int and not _is_finite_number(value):
        message = f"{name} is an integer beyond float range ({value.bit_length()} bits)"
    elif number:
        message = _outside(name, value, domain["domain"])
    else:
        message = (f"{name} must be {'an integer' if kind is int else 'a finite number'}, "
                   f"got {value!r}")
    raise ValidationError(prefix + message)


def _float_power(base: float, exponent: float) -> float:
    """``base ** exponent``, inf where it overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _raise_unless(ok: bool, message: Callable[[], str]) -> None:
    if not ok:
        raise ValidationError(message())


# The operations of the model's term functions (complexity, reliability,
# timeline) beyond + - * / and comparisons, on Python floats, where a failed
# check raises at once; sensitivity._column_ops is their form over columns.
_FLOAT_OPS = SimpleNamespace(log10=math.log10, log=math.log, power=_float_power,
                             where=lambda condition, a, b: a if condition else b,
                             check=_raise_unless)
