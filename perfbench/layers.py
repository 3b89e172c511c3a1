"""Per-layer metrics: span files from ``trace_driver.py`` and the
import breakdown from ``python -X importtime``.

Span totals are summed over every traced process of one pass of the
workload; ratios are taken from those totals.  A layer's self time is
its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "scenario", "complexity", "reliability", "timeline", "sensitivity", "report")
_ANALYSES = ("sensitivity.monte_carlo", "sensitivity.one_at_a_time", "sensitivity.tornado")
_RENDERERS = ("report.render", "report.render_sensitivity")

# Per-layer metric names and units, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("import.total_s", "s"),
    ("import.numpy_s", "s"),
    ("import.jsonschema_s", "s"),
    ("import.avhorizon_self_s", "s"),
    ("cli.build_parser.s", "s"),
    ("cli.main.self_s", "s"),
    ("scenario.parse_scenarios.calls", "count"),
    ("scenario.parse_scenarios.s", "s"),
    ("scenario.validate_s", "s"),
    ("scenario.builtin_catalog.calls", "count"),
    ("scenario.builtin_catalog.s", "s"),
    ("scenario.builtin_catalog.per_parse", "ratio"),
    ("scenario.project.calls", "count"),
    ("scenario.project.s", "s"),
    ("scenario.project.self_s", "s"),
    ("scenario.project.us_per_call", "us"),
    ("complexity.calls", "count"),
    ("complexity.s", "s"),
    ("reliability.calls", "count"),
    ("reliability.s", "s"),
    ("timeline.calls", "count"),
    ("timeline.s", "s"),
    ("sensitivity.set_parameter.calls", "count"),
    ("sensitivity.set_parameter.s", "s"),
    ("sensitivity.set_parameter.per_eval", "ratio"),
    ("sensitivity.project.per_eval", "ratio"),
    ("sensitivity.monte_carlo.self_s", "s"),
    ("sensitivity.one_at_a_time.self_s", "s"),
    ("sensitivity.tornado.self_s", "s"),
    ("report.render.s", "s"),
    ("report.render_sensitivity.s", "s"),
    ("report.bytes", "B"),
    ("report.mb_per_s", "MB/s"),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    ("trace.overhead_s", "s"),
)


def read_spans(path: Path) -> dict:
    """Load one span file written by ``Recorder.write``."""
    data = path.read_bytes()
    size = int.from_bytes(data[:8], "little")
    header = json.loads(data[8:8 + size])
    n = header["spans"]
    offset = 8 + size
    columns = {}
    # Array type codes as written by the recorder's array.array columns.
    for column, code in (("name_id", "H"), ("parent", "i"), ("start", "d"), ("end", "d"),
                         ("raised", "B")):
        columns[column] = np.frombuffer(data, dtype=np.dtype(code), count=n, offset=offset)
        offset += columns[column].nbytes
    columns["names"] = header["names"]
    columns["counts"] = {int(k): v for k, v in header["counts"].items()}
    return columns


def span_totals(paths: list[Path]) -> dict[str, float]:
    """Calls, time, self time, errors and counts per span name and per
    layer, summed over the span files of one pass."""
    totals: dict[str, float] = defaultdict(float)
    for path in paths:
        spans = read_spans(path)
        names, name_id, parent = spans["names"], spans["name_id"], spans["parent"]
        duration = spans["end"] - spans["start"]
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested],
                                 minlength=len(duration))
        self_time = duration - child_time
        parent_name = np.where(nested, name_id[np.where(nested, parent, 0)], -1)
        ids = {name: i for i, name in enumerate(names)}

        def under(parent_names):
            wanted = [ids[n] for n in parent_names if n in ids]
            return np.isin(parent_name, wanted)

        for i, name in enumerate(names):
            mask = name_id == i
            totals[f"{name}.calls"] += int(mask.sum())
            totals[f"{name}.s"] += float(duration[mask].sum())
            totals[f"{name}.self_s"] += float(self_time[mask].sum())
            totals[f"{name.split('.')[0]}.errors"] += int(spans["raised"][mask].sum())
        from_project = under(["scenario.project"])
        for layer in ("complexity", "reliability", "timeline"):
            layer_ids = [i for i, name in enumerate(names) if name.split(".")[0] == layer]
            mask = np.isin(name_id, layer_ids) & from_project
            totals[f"{layer}.calls"] += int(mask.sum())
            totals[f"{layer}.s"] += float(duration[mask].sum())
        if "scenario.builtin_catalog" in ids:
            mask = (name_id == ids["scenario.builtin_catalog"]) & under(["scenario.parse_scenarios"])
            totals["catalog_in_parse"] += int(mask.sum())
        if "scenario.project" in ids:
            mask = (name_id == ids["scenario.project"]) & under(_ANALYSES)
            totals["project_in_analyses"] += int(mask.sum())
        for index, count in spans["counts"].items():
            name = names[name_id[index]]
            totals["sensitivity_evals" if name in _ANALYSES else "render_bytes"] += count
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: dict[str, float], imports: dict[str, float],
                  overhead_s: float) -> dict[str, float]:
    """The PER_LAYER metrics of one traced pass."""
    t = defaultdict(float, totals)
    evals = t["sensitivity_evals"]
    render_s = sum(t[f"{name}.s"] for name in _RENDERERS)
    values = dict(imports)
    values.update({
        "cli.build_parser.s": t["cli.build_parser.s"],
        "cli.main.self_s": t["cli.main.self_s"],
        "scenario.parse_scenarios.calls": t["scenario.parse_scenarios.calls"],
        "scenario.parse_scenarios.s": t["scenario.parse_scenarios.s"],
        "scenario.validate_s": t["scenario.validate.s"],
        "scenario.builtin_catalog.calls": t["scenario.builtin_catalog.calls"],
        "scenario.builtin_catalog.s": t["scenario.builtin_catalog.s"],
        "scenario.builtin_catalog.per_parse": _ratio(
            t["catalog_in_parse"], t["scenario.parse_scenarios.calls"]),
        "scenario.project.calls": t["scenario.project.calls"],
        "scenario.project.s": t["scenario.project.s"],
        "scenario.project.self_s": t["scenario.project.self_s"],
        "scenario.project.us_per_call": 1e6 * _ratio(
            t["scenario.project.s"], t["scenario.project.calls"]),
        "sensitivity.set_parameter.calls": t["sensitivity.set_parameter.calls"],
        "sensitivity.set_parameter.s": t["sensitivity.set_parameter.s"],
        "sensitivity.set_parameter.per_eval": _ratio(
            t["sensitivity.set_parameter.calls"], evals),
        "sensitivity.project.per_eval": _ratio(t["project_in_analyses"], evals),
        "report.bytes": t["render_bytes"],
        "report.mb_per_s": _ratio(t["render_bytes"] / 1e6, render_s),
        "trace.overhead_s": overhead_s,
    })
    for layer in ("complexity", "reliability", "timeline"):
        values[f"{layer}.calls"] = t[f"{layer}.calls"]
        values[f"{layer}.s"] = t[f"{layer}.s"]
    for name in _ANALYSES:
        values[f"{name}.self_s"] = t[f"{name}.self_s"]
    for name in _RENDERERS:
        values[f"{name}.s"] = t[f"{name}.s"]
    for layer in LAYERS:
        values[f"{layer}.errors"] = t[f"{layer}.errors"]
    return {name: values[name] for name, _ in PER_LAYER}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)\s*$")


def import_breakdown(stderr: str) -> dict[str, float]:
    """``import.*`` metrics from the stderr of
    ``python -X importtime -c "import avhorizon.cli"``.

    total is the cumulative time of the top-level avhorizon imports;
    numpy and jsonschema are the cumulative times of their first
    import; avhorizon_self is the self time of avhorizon's own modules.
    """
    rows = [
        (int(m[1]) / 1e6, int(m[2]) / 1e6, len(m[3]), m[4])
        for m in map(_IMPORT_LINE.match, stderr.splitlines()) if m
    ]
    if not rows:
        raise ValueError("no -X importtime lines in the output")
    top = min(depth for _, _, depth, _ in rows)
    own = [r for r in rows if r[3].split(".")[0] == "avhorizon"]
    cumulative = {name: cum for _, cum, _, name in rows}
    return {
        "import.total_s": sum(cum for _, cum, depth, _ in own if depth == top),
        "import.numpy_s": cumulative.get("numpy", 0.0),
        "import.jsonschema_s": cumulative.get("jsonschema", 0.0),
        "import.avhorizon_self_s": sum(self_s for self_s, _, _, _ in own),
    }
