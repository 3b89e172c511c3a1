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
    """(path, getter, leaf type, low, high, interval) of each int or float
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
        low, high, low_open, high_open = interval = spec.metadata["domain"]
        low = math.nextafter(low, math.inf) if low_open else float(low)
        high = math.nextafter(high, -math.inf) if high_open else float(high)
        checks += [(path, attrgetter(path), leaf, low, high, interval)
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
    for path, get, kind, low, high, interval in checks:
        value = get(obj)
        if value.__class__ is kind and low <= value <= high:
            continue
        # A float field also takes an int within float range; no field takes a bool.
        if not (value.__class__ is kind or kind is float and (
                isinstance(value, float) or _is_finite_number(value))):
            message = (f"{path} must be {'an integer' if kind is int else 'a finite number'}, "
                       f"got {value!r}")
        elif _in_interval(value, interval):
            continue
        else:
            message = _outside(path, value, interval)
        raise ValidationError(f"{what} {obj.name!r}: {message}" if what else message)


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
