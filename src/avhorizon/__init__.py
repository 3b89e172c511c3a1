"""Deployment-timeline projection for autonomous-vehicle categories.

Couples two constraints into one calendar projection per vehicle
category and deployment stage: the wait for compute capacity to cover
the category's effective planning demand, and the fleet-miles needed to
grow and then statistically demonstrate the required failure rate.
Includes a builtin eight-category reference catalog, JSON scenario
documents, sensitivity analyses (sweep, tornado, Monte Carlo) and
report rendering in table, CSV, JSON and Markdown form.

The package exports the ``__all__`` of each of its library modules.
``import avhorizon`` loads none of them: they are imported the first
time an exported name, or ``__all__``, is read from the package.
"""

__version__ = "0.1.0"

# The library modules whose exports the package re-exports, in order.
_MODULES = ("complexity", "errors", "reliability", "report", "scenario", "sensitivity",
            "timeline")


def __getattr__(name: str):
    # A private name or a submodule's own name is left to the import
    # system, so that ``from avhorizon import cli`` loads cli alone.
    if name.startswith("_") and name != "__all__" or name in _MODULES or name == "cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    modules = [importlib.import_module(f"{__name__}.{module}") for module in _MODULES]
    names = globals()
    names["__all__"] = [export for module in modules for export in module.__all__]
    names.update({export: getattr(module, export)
                  for module in modules for export in module.__all__})
    if name not in names:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return names[name]
