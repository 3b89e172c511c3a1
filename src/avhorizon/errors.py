"""Exception types shared across the package.

Everything user-facing derives from ValidationError so callers (and the
CLI) can catch one type for anything that should map to a clean
"error: ..." line rather than a traceback.
"""


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
