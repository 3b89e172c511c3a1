"""Validation against the JSON Schema Draft 2020-12 keywords avhorizon uses.

The scenario schema and the ``--spec-file`` schemas use twelve keywords
of the 2020-12 validation vocabulary: ``type`` (a name or a list of
names), ``properties``, ``additionalProperties: false``, ``required``,
``items``, ``prefixItems``, ``minItems``, ``maxItems``, ``minLength``,
``minimum``, ``pattern`` and ``oneOf``.  ``$schema`` and ``title`` are
skipped, and any other keyword makes compilation fail, so a schema edit
cannot silently drop a check.

Each schema is compiled to Python source the first time a validator is
made for it, and the source is executed once per process.  Every
distinct subschema object that holds subschemas of its own (through
``properties``, ``items``, ``prefixItems`` or ``oneOf``) becomes one
function, however often the schema refers to it; the checks of every
other subschema are written inline where it is used.  Schema values
(property names, bounds, patterns, messages) reach the source only as
names bound in the namespace it runs in, never as text.  A function
receives the instance's path as a ``(parent, key)`` chain and spells the
path tuple only when it reports an error.

The reported errors are those of the ``jsonschema`` package's
``Draft202012Validator`` for documents that ``json.loads`` produces:
the same messages, paths and order (the schema's key order at each
node, properties in schema order).  Draft 2020-12 counts ``1.0`` as an
integer, and no number type includes ``bool``.

The schemas' shared shapes are written by ``_schema_shapes``, which
loads without this compiler.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import Any, Callable, Iterator, NamedTuple

Path = tuple  # object keys and array indexes from the document root
# check(instance, chain, errors): appends a (path, message) pair per
# violation; chain is () at the document root.
Check = Callable[[Any, tuple, list], None]

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


def _path(chain: tuple, *tail) -> Path:
    """The keys of ``chain`` from the root, then ``tail``."""
    keys = []
    while chain:
        chain, key = chain
        keys.append(key)
    keys.reverse()
    return (*keys, *tail)


def _extras_message(instance: dict, known: frozenset) -> str:
    extras = sorted(key for key in instance if key not in known)
    listed = ", ".join(map(repr, extras))
    verb = "was" if len(extras) == 1 else "were"
    return f"Additional properties are not allowed ({listed} {verb} unexpected)"


def _one_of_message(instance: Any, matches: list) -> str:
    # jsonschema names the later matches first and the first one last.
    listed = ", ".join(map(repr, matches[1:] + matches[:1]))
    return f"{instance!r} is valid under each of {listed}"


# Source of each type's test on the instance named {0}; the exact types
# json.loads produces are tested first.
_TYPE_TESTS = {
    "object": "isinstance({0}, dict)",
    "array": "isinstance({0}, list)",
    "string": "isinstance({0}, str)",
    "integer": "(type({0}) is int or _is_integer({0}))",
    "number": "(type({0}) in _NUMERIC or _is_number({0}))",
    "null": "{0} is None",
}
# Keywords that hold subschemas; a subschema using one becomes a function.
_STRUCTURAL = frozenset({"properties", "items", "prefixItems", "oneOf"})
_KEYWORDS = _STRUCTURAL | {"type", "additionalProperties", "required", "minItems", "maxItems",
                           "minLength", "minimum", "pattern"}
_ANNOTATIONS = frozenset({"$schema", "title"})


def _keywords(schema: Any) -> list[tuple[str, Any]]:
    """The checked (keyword, value) pairs of ``schema``, in its key order."""
    if not isinstance(schema, dict):
        raise ValueError(f"a schema must be an object here, got {schema!r}")
    for keyword in schema:
        if keyword not in _KEYWORDS and keyword not in _ANNOTATIONS:
            raise ValueError(f"unsupported JSON Schema keyword {keyword!r}")
    return [(k, v) for k, v in schema.items() if k not in _ANNOTATIONS]


def _has_subschemas(schema: Any) -> bool:
    return any(keyword in _STRUCTURAL for keyword, _ in _keywords(schema))


def _indent(lines: list[str], depth: int = 1) -> list[str]:
    return ["    " * depth + line for line in lines]


class _Compiler:
    """The source of one schema's functions and the namespace they run in."""

    def __init__(self) -> None:
        self.namespace: dict[str, Any] = {
            "_path": _path, "_is_integer": _is_integer, "_is_number": _is_number,
            "_NUMERIC": frozenset({int, float}),
            "_extras_message": _extras_message, "_one_of_message": _one_of_message,
        }
        self.lines: list[str] = []
        self.functions: dict[int, tuple[dict, str]] = {}  # id(subschema) -> (it, name)
        self.pending: list[dict] = []

    def constant(self, value: Any) -> str:
        name = f"_c{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def message(self, x: str, text: str) -> str:
        """Source of the message ``repr(x) + " " + text``."""
        return f'f"{{{x}!r}} {{{self.constant(text)}}}"'

    def function(self, schema: dict) -> str:
        """The name of the function checking ``schema``, queued for writing
        the first time ``schema`` is seen."""
        entry = self.functions.get(id(schema))
        if entry is None:
            entry = self.functions[id(schema)] = (schema, f"_check{len(self.functions)}")
            self.pending.append(schema)
        return entry[1]

    def compile(self, schema: dict) -> Check:
        root = self.function(schema)
        while self.pending:
            self.write_function(self.pending.pop())
        exec(compile("\n".join(self.lines), "<avhorizon._jsonschema>", "exec"), self.namespace)
        return self.namespace[root]

    def write_function(self, schema: dict) -> None:
        """``def f(v, path, errors)`` running every keyword of ``schema``
        on ``v`` in key order."""
        body = []
        for keyword, value in _keywords(schema):
            if keyword in _STRUCTURAL:
                body += getattr(self, "_" + keyword)(value, schema)
            else:
                for fail, message in self.keyword_tests(keyword, value, schema, "v"):
                    body += [f"if {fail}:", f"    errors.append((_path(path), {message}))"]
        name = self.functions[id(schema)][1]
        self.lines += [f"def {name}(v, path, errors):", *_indent(body or ["pass"])]

    def tests(self, schema: dict, x: str) -> list[tuple[str, str]]:
        """(failure condition, message) source of each check of ``schema``
        that holds no subschema, on the instance named ``x``."""
        return [test for keyword, value in _keywords(schema) if keyword not in _STRUCTURAL
                for test in self.keyword_tests(keyword, value, schema, x)]

    def keyword_tests(self, keyword: str, value: Any, schema: dict,
                      x: str) -> list[tuple[str, str]]:
        if keyword == "type":
            names = [value] if isinstance(value, str) else list(value)
            unknown = [name for name in names if name not in _TYPE_TESTS]
            if unknown:
                raise ValueError(f"unknown JSON type(s) {unknown} in {schema!r}")
            passes = " or ".join(_TYPE_TESTS[name].format(x) for name in names)
            expected = ", ".join(map(repr, names))
            return [(f"not ({passes})", self.message(x, f"is not of type {expected}"))]
        if keyword == "additionalProperties":
            if value is not False:
                raise ValueError(f"only additionalProperties: false is supported, in {schema!r}")
            known = self.constant(frozenset(schema.get("properties", ())))
            return [(f"isinstance({x}, dict) and not {known}.issuperset({x})",
                     f"_extras_message({x}, {known})")]
        if keyword == "required":
            return [(f"isinstance({x}, dict) and {self.constant(name)} not in {x}",
                     self.constant(f"{name!r} is a required property")) for name in value]
        if keyword in ("minItems", "maxItems", "minLength"):
            kind = "str" if keyword == "minLength" else "list"
            if keyword == "maxItems":
                compare = ">"
                complaint = "is expected to be empty" if value == 0 else "is too long"
            else:
                compare = "<"
                complaint = "should be non-empty" if value == 1 else "is too short"
            return [(f"isinstance({x}, {kind}) and len({x}) {compare} {self.constant(value)}",
                     self.message(x, complaint))]
        if keyword == "minimum":
            return [(f"{_TYPE_TESTS['number'].format(x)} and {x} < {self.constant(value)}",
                     self.message(x, f"is less than the minimum of {value!r}"))]
        # pattern
        search = self.constant(re.compile(value).search)
        return [(f"isinstance({x}, str) and not {search}({x})",
                 self.message(x, f"does not match {value!r}"))]

    def child(self, schema: dict, value: str, key: str) -> list[str]:
        """Source checking the instance ``value`` found under ``key`` of ``v``."""
        if _has_subschemas(schema):
            return [f"{self.function(schema)}({value}, (path, {key}), errors)"]
        lines = []
        for fail, message in self.tests(schema, "x"):
            lines += [f"if {fail}:", f"    errors.append((_path(path, {key}), {message}))"]
        return lines and [f"x = {value}", *lines]

    def _properties(self, properties: dict, schema: dict) -> list[str]:
        # Consecutive properties sharing one subschema object share one loop.
        lines = []
        for _, run in groupby(properties.items(), key=lambda item: id(item[1])):
            names, children = zip(*run)
            if len(names) == 1:
                key = self.constant(names[0])
                checks = self.child(children[0], f"v[{key}]", key)
                lines += checks and [f"if {key} in v:", *_indent(checks)]
            else:
                checks = self.child(children[0], "v[k]", "k")
                lines += checks and [f"for k in {self.constant(names)}:", "    if k in v:",
                                     *_indent(checks, 2)]
        return lines and ["if isinstance(v, dict):", *_indent(lines)]

    def _items(self, items: dict, schema: dict) -> list[str]:
        start = len(schema.get("prefixItems", ()))
        checks = self.child(items, "v[i]", "i")
        return checks and ["if isinstance(v, list):", f"    for i in range({start}, len(v)):",
                           *_indent(checks, 2)]

    def _prefixItems(self, prefix: list[dict], schema: dict) -> list[str]:  # noqa: N802
        lines = []
        for index, child in enumerate(prefix):
            checks = self.child(child, f"v[{index}]", str(index))
            if checks:
                lines += [f"if len(v) > {index}:", *_indent(checks)]
        return lines and ["if isinstance(v, list):", *_indent(lines)]

    def _oneOf(self, alternatives: list[dict], schema: dict) -> list[str]:  # noqa: N802
        # An alternative failing one of its own checks is not run further.
        lines = ["m = []"]
        for alternative in alternatives:
            name = self.constant(alternative)
            fails = " or ".join(f"({fail})" for fail, _ in self.tests(alternative, "v"))
            match = [f"m.append({name})"]
            if _has_subschemas(alternative):
                match = ["s = []", f"{self.function(alternative)}(v, path, s)",
                         "if not s:", *_indent(match)]
            lines += [f"if not ({fails}):", *_indent(match)] if fails else match
        none = self.message("v", "is not valid under any of the given schemas")
        return lines + ["if not m:", f"    errors.append((_path(path), {none}))",
                        "elif len(m) > 1:",
                        "    errors.append((_path(path), _one_of_message(v, m)))"]


def compile_schema(schema: dict) -> Check:
    """One check running every keyword of ``schema`` in its key order;
    a keyword outside the supported subset raises ValueError."""
    return _Compiler().compile(schema)

