"""Traced CLI process: record spans around calls into avhorizon's layers.

Usage:  PYTHONPATH=src python3 perfbench/trace_driver.py SPANS_FILE -- [avhorizon arguments]

Installs timing wrappers on the names each caller bound, then runs
``avhorizon.cli.main`` with the given arguments, exactly as the
``avhorizon`` entry point would.  The program itself is unchanged:
``cli`` and ``sensitivity`` import ``project`` by name, and ``scenario``
imports the complexity, reliability and timeline functions by name,
so each of those module attributes is replaced with a wrapper.

A span is (name, parent, start, end, raised); spans stay in memory in
flat arrays and are written to SPANS_FILE when the command finishes.
Spans that return reports or rendered text also record a count
(entries or bytes).  See ``layers.py`` for the reader.
"""

from __future__ import annotations

import array
import json
import sys
import time
from functools import wraps
from types import SimpleNamespace


class Recorder:
    """Span storage: one slot per call in each flat array."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.raised = array.array("B")
        self.counts: dict[int, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped in a span; ``count(result)`` is stored if given."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack = self._stack
        name_append, parent_append = self.name_id.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        raised_append, end, raised = self.raised.append, self.end, self.raised
        counts, clock = self.counts, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(end)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            raised_append(0)
            stack.append(index)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[index] = clock()
                raised[index] = 1
                raise
            else:
                end[index] = clock()
            finally:
                stack.pop()
            if count is not None:
                counts[index] = count(result)
            return result

        return traced

    def write(self, path: str) -> None:
        header = json.dumps({
            "names": self.names,
            "spans": len(self.end),
            "counts": {str(k): v for k, v in self.counts.items()},
        }).encode()
        with open(path, "wb") as out:
            out.write(len(header).to_bytes(8, "little"))
            out.write(header)
            for column in (self.name_id, self.parent, self.start, self.end, self.raised):
                column.tofile(out)


class _TracedValidation:
    """Stand-in for the ``jsonschema`` module as ``scenario`` sees it:
    validator construction and the full error scan each run in a
    ``scenario.validate`` span."""

    def __init__(self, module, recorder: Recorder) -> None:
        self._module = module
        self._construct = recorder.wrap("scenario.validate", module.Draft202012Validator)
        self._scan = recorder.wrap("scenario.validate", lambda v, doc: list(v.iter_errors(doc)))

    def __getattr__(self, name):
        return getattr(self._module, name)

    def Draft202012Validator(self, schema):  # noqa: N802 - mirrors jsonschema
        validator = self._construct(schema)
        scan = self._scan
        return SimpleNamespace(iter_errors=lambda doc: scan(validator, doc))


def _entries(report) -> int:
    return len(report.entries)


def _utf8_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


def install(recorder: Recorder):
    """Wrap every traced name where its caller bound it; returns the
    wrapped ``cli.main``."""
    from avhorizon import cli, scenario, sensitivity, timeline

    def site(module, name, count=None):
        fn = getattr(module, name)
        layer = fn.__module__.rsplit(".", 1)[-1]
        setattr(module, name, recorder.wrap(f"{layer}.{fn.__qualname__}", fn, count))

    for name in ("build_parser", "load_scenarios", "builtin_catalog", "project",
                 "schema_json"):
        site(cli, name)
    site(cli, "render", count=_utf8_bytes)
    site(cli, "render_sensitivity", count=_utf8_bytes)
    for name in ("one_at_a_time", "tornado", "monte_carlo"):
        site(cli, name, count=_entries)
    for name in ("parse_scenarios", "builtin_catalog", "compute_demand", "effective_demand",
                 "hpc_horizon_years", "crow_required_miles", "poisson_required_miles",
                 "demonstration_years", "compose_total"):
        site(scenario, name)
    scenario.jsonschema = _TracedValidation(scenario.jsonschema, recorder)
    for_stage = timeline.StageSpec.for_stage.__func__
    timeline.StageSpec.for_stage = classmethod(
        recorder.wrap("timeline.StageSpec.for_stage", for_stage)
    )
    site(sensitivity, "set_parameter")
    site(sensitivity, "project")
    return recorder.wrap("cli.main", cli.main)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_driver.py SPANS_FILE -- [avhorizon arguments]", file=sys.stderr)
        return 2
    recorder = Recorder()
    cli_main = install(recorder)
    try:
        return cli_main(argv[2:])
    finally:
        sys.stdout.flush()
        recorder.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
