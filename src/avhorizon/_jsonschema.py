"""Validation against the JSON Schema Draft 2020-12 keywords avhorizon uses.

The scenario schema and the ``--spec-file`` schemas use twelve keywords
of the 2020-12 validation vocabulary: ``type`` (a name or a list of
names), ``properties``, ``additionalProperties: false``, ``required``,
``items``, ``prefixItems``, ``minItems``, ``maxItems``, ``minLength``,
``minimum``, ``pattern`` and ``oneOf``.  Each schema is compiled once
into nested checks that append ``(path, message)`` pairs to a list;
``$schema`` and ``title`` are skipped, and any other keyword makes
compilation fail, so a schema edit cannot silently drop a check.

The reported errors are those of the ``jsonschema`` package's
``Draft202012Validator`` for documents that ``json.loads`` produces:
the same messages, paths and order (the schema's key order at each
node, properties in schema order).  Draft 2020-12 counts ``1.0`` as an
integer, and no number type includes ``bool``.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterator, NamedTuple

Path = tuple  # object keys and array indexes from the document root
Check = Callable[[Any, Path, list], None]

__all__ = ["Draft202012Validator", "Violation", "compile_schema"]


class Violation(NamedTuple):
    """One schema violation: where in the document, and jsonschema's text."""

    absolute_path: Path
    message: str


class Draft202012Validator:
    """The violations of one schema, in ``jsonschema``'s interface.

    A schema is compiled the first time a validator is made for it;
    schemas are treated as constants and not watched for changes.
    """

    _compiled: dict[int, tuple[dict, Check]] = {}

    def __init__(self, schema: dict) -> None:
        cached = self._compiled.get(id(schema))
        if cached is None or cached[0] is not schema:
            cached = self._compiled[id(schema)] = (schema, compile_schema(schema))
        self._check = cached[1]

    def iter_errors(self, instance: Any) -> Iterator[Violation]:
        errors: list = []
        self._check(instance, (), errors)
        return map(Violation._make, errors)


def _is_integer(value: Any) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES: dict[str, Callable[[Any], bool]] = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": _is_integer,
    "number": _is_number,
    "null": lambda value: value is None,
}


def _type(types: str | list[str], schema: dict) -> Check:
    names = [types] if isinstance(types, str) else list(types)
    unknown = [name for name in names if name not in _TYPES]
    if unknown:
        raise ValueError(f"unknown JSON type(s) {unknown} in {schema!r}")
    tests = tuple(_TYPES[name] for name in names)
    expected = ", ".join(map(repr, names))

    def check(instance, path, errors):
        for test in tests:
            if test(instance):
                return
        errors.append((path, f"{instance!r} is not of type {expected}"))

    return check


def _properties(properties: dict, schema: dict) -> Check:
    children = tuple((name, compile_schema(child)) for name, child in properties.items())

    def check(instance, path, errors):
        if isinstance(instance, dict):
            for name, child in children:
                if name in instance:
                    child(instance[name], (*path, name), errors)

    return check


def _additional_properties(allowed: Any, schema: dict) -> Check:
    if allowed is not False:
        raise ValueError(f"only additionalProperties: false is supported, in {schema!r}")
    known = frozenset(schema.get("properties", ()))

    def check(instance, path, errors):
        if isinstance(instance, dict) and not known.issuperset(instance):
            extras = sorted(key for key in instance if key not in known)
            verb = "was" if len(extras) == 1 else "were"
            errors.append((path, "Additional properties are not allowed "
                                 f"({', '.join(map(repr, extras))} {verb} unexpected)"))

    return check


def _required(names: list[str], schema: dict) -> Check:
    def check(instance, path, errors):
        if isinstance(instance, dict):
            for name in names:
                if name not in instance:
                    errors.append((path, f"{name!r} is a required property"))

    return check


def _items(items: dict, schema: dict) -> Check:
    child = compile_schema(items)
    start = len(schema.get("prefixItems", ()))

    def check(instance, path, errors):
        if isinstance(instance, list):
            for index in range(start, len(instance)):
                child(instance[index], (*path, index), errors)

    return check


def _prefix_items(prefix: list[dict], schema: dict) -> Check:
    children = tuple(map(compile_schema, prefix))

    def check(instance, path, errors):
        if isinstance(instance, list):
            for index, (item, child) in enumerate(zip(instance, children)):
                child(item, (*path, index), errors)

    return check


def _min_items(least: int, schema: dict) -> Check:
    complaint = "should be non-empty" if least == 1 else "is too short"

    def check(instance, path, errors):
        if isinstance(instance, list) and len(instance) < least:
            errors.append((path, f"{instance!r} {complaint}"))

    return check


def _max_items(most: int, schema: dict) -> Check:
    complaint = "is expected to be empty" if most == 0 else "is too long"

    def check(instance, path, errors):
        if isinstance(instance, list) and len(instance) > most:
            errors.append((path, f"{instance!r} {complaint}"))

    return check


def _min_length(least: int, schema: dict) -> Check:
    complaint = "should be non-empty" if least == 1 else "is too short"

    def check(instance, path, errors):
        if isinstance(instance, str) and len(instance) < least:
            errors.append((path, f"{instance!r} {complaint}"))

    return check


def _minimum(least: float, schema: dict) -> Check:
    def check(instance, path, errors):
        if _is_number(instance) and instance < least:
            errors.append((path, f"{instance!r} is less than the minimum of {least!r}"))

    return check


def _pattern(pattern: str, schema: dict) -> Check:
    search = re.compile(pattern).search

    def check(instance, path, errors):
        if isinstance(instance, str) and not search(instance):
            errors.append((path, f"{instance!r} does not match {pattern!r}"))

    return check


def _one_of(alternatives: list[dict], schema: dict) -> Check:
    children = tuple((compile_schema(child), child) for child in alternatives)

    def check(instance, path, errors):
        matches = []
        for child, child_schema in children:
            scratch: list = []
            child(instance, path, scratch)
            if not scratch:
                matches.append(child_schema)
        if not matches:
            errors.append((path, f"{instance!r} is not valid under any of the given schemas"))
        elif len(matches) > 1:
            # jsonschema names the later matches first and the first one last.
            listed = ", ".join(map(repr, matches[1:] + matches[:1]))
            errors.append((path, f"{instance!r} is valid under each of {listed}"))

    return check


_KEYWORDS: dict[str, Callable[[Any, dict], Check]] = {
    "type": _type,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "required": _required,
    "items": _items,
    "prefixItems": _prefix_items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minLength": _min_length,
    "minimum": _minimum,
    "pattern": _pattern,
    "oneOf": _one_of,
}
_ANNOTATIONS = frozenset({"$schema", "title"})


def compile_schema(schema: dict) -> Check:
    """One check running every keyword of ``schema`` in its key order;
    a keyword outside the supported subset raises ValueError."""
    if not isinstance(schema, dict):
        raise ValueError(f"a schema must be an object here, got {schema!r}")
    checks = []
    for keyword, value in schema.items():
        if keyword in _ANNOTATIONS:
            continue
        if keyword not in _KEYWORDS:
            raise ValueError(f"unsupported JSON Schema keyword {keyword!r}")
        checks.append(_KEYWORDS[keyword](value, schema))
    if len(checks) == 1:
        return checks[0]
    checks = tuple(checks)

    def check(instance, path, errors):
        for keyword_check in checks:
            keyword_check(instance, path, errors)

    return check
