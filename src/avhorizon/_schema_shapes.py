"""The shared shapes of avhorizon's JSON schemas.

``closed_object`` and ``NUMBER`` write them, so each schema module states
only its properties.  They live apart from the schema compiler
(``_jsonschema``), so that building a schema loads no compiler: only a
command that validates a document compiles one.
"""

from __future__ import annotations

__all__ = ["NUMBER", "closed_object"]

NUMBER = {"type": "number"}


def closed_object(properties: dict, required: list | None = None) -> dict:
    """Schema of an object with no keys but those of ``properties``: all of
    them required when ``required`` is None, and no ``required`` keyword
    when it is empty.  The key order fixes the published schema bytes."""
    schema: dict = {"type": "object", "additionalProperties": False}
    required = list(properties) if required is None else required
    if required:
        schema["required"] = required
    schema["properties"] = properties
    return schema
