"""Rendering of projection and sensitivity results.

Four formats: an aligned text table for terminals, RFC 4180 CSV with a
header row (comma delimiter, quoting only where a value needs it, LF
newlines), JSON mirroring the result field names with full float
precision, and Markdown with a two-column stage summary plus a
per-category breakdown section.

Rendering is pure: the optional generated_at timestamp is injected by
the caller, never read from a clock here, so identical inputs always
produce identical bytes.  When no timestamp is supplied none is
printed, which keeps repeated runs byte-for-byte comparable.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from datetime import datetime, timezone
from typing import Sequence

from .errors import EmptyResultsError, ValidationError
from .scenario import ProjectionResult
from .sensitivity import AnalysisKind, SensitivityReport
from .timeline import Stage

__all__ = [
    "ReportFormat",
    "REPORT_SCHEMA",
    "render",
    "render_sensitivity",
]

_STAGE_ORDER = (Stage.REVENUE_SERVICE, Stage.BROAD_COMMERCIAL)

_BREAKDOWN_FIELDS = (
    "t_comp",
    "t_crow_total",
    "t_crow_partial",
    "t_crow_final",
    "t_poisson",
    "t_prod_reg",
    "f",
    "t_total",
    "gating",
    "calendar_year",
)


# Formal shape of the JSON render of projection results.  Shipped under
# docs/ and asserted in tests; render output always validates.
_JSON_NUMBER = {"type": "number"}
_MAGNITUDE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["log10"],
    "properties": {"log10": _JSON_NUMBER},
}
REPORT_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Projection report document",
    "type": "object",
    "additionalProperties": False,
    "required": ["title", "results"],
    "properties": {
        "title": {"type": "string", "minLength": 1},
        "generated_at": {"type": "string"},
        "results": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["category", "stage", "breakdown", "intermediate"],
                "properties": {
                    "category": {"type": "string", "minLength": 1},
                    "stage": {"enum": ["stage2", "stage3"]},
                    "breakdown": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": list(_BREAKDOWN_FIELDS),
                        "properties": {
                            "t_comp": _JSON_NUMBER,
                            "t_crow_total": _JSON_NUMBER,
                            "t_crow_partial": _JSON_NUMBER,
                            "t_crow_final": _JSON_NUMBER,
                            "t_poisson": _JSON_NUMBER,
                            "t_prod_reg": _JSON_NUMBER,
                            "f": _JSON_NUMBER,
                            "t_total": _JSON_NUMBER,
                            "gating": {"enum": ["compute-gated", "reliability-gated"]},
                            "calendar_year": {"type": "integer"},
                        },
                    },
                    "intermediate": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": [
                            "naive_demand", "effective_demand", "crow_miles",
                            "poisson_miles", "gamma", "delta_effective",
                        ],
                        "properties": {
                            "naive_demand": _MAGNITUDE_SCHEMA,
                            "effective_demand": _MAGNITUDE_SCHEMA,
                            "crow_miles": _JSON_NUMBER,
                            "poisson_miles": _JSON_NUMBER,
                            "gamma": _JSON_NUMBER,
                            "delta_effective": _JSON_NUMBER,
                        },
                    },
                },
            },
        },
    },
}


class ReportFormat(enum.Enum):
    TABLE = "table"
    CSV = "csv"
    JSON = "json"
    MARKDOWN = "markdown"

    @classmethod
    def from_key(cls, key: str) -> "ReportFormat":
        normalized = str(key).strip().lower()
        for fmt in cls:
            if fmt.value == normalized:
                return fmt
        raise ValidationError(
            f"unknown report format {key!r}; expected one of "
            + ", ".join(f.value for f in cls)
        )


def _format_timestamp(generated_at: datetime | str | None) -> str | None:
    if generated_at is None:
        return None
    if isinstance(generated_at, str):
        return generated_at
    if generated_at.tzinfo is None:
        raise ValidationError("generated_at must be timezone-aware")
    return generated_at.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def render(
    results: Sequence[ProjectionResult],
    fmt: ReportFormat,
    *,
    title: str = "Deployment timeline projections",
    generated_at: datetime | str | None = None,
) -> str:
    """Render projection results; row order follows input order."""
    results = tuple(results)
    timestamp = _format_timestamp(generated_at)
    if not title or not isinstance(title, str):
        raise ValidationError(f"title must be a non-empty string, got {title!r}")
    if not results:
        raise EmptyResultsError("cannot render a report with no results")
    if fmt is ReportFormat.TABLE:
        return _render_table(results, title, timestamp)
    if fmt is ReportFormat.CSV:
        return _render_csv(results)
    if fmt is ReportFormat.JSON:
        return _render_json(results, title, timestamp)
    if fmt is ReportFormat.MARKDOWN:
        return _render_markdown(results, title, timestamp)
    raise ValidationError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# Projection renderers
# ---------------------------------------------------------------------------


def _aligned_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                   right_aligned: set[int]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in (headers, *rows):
        cells = [
            cell.rjust(widths[i]) if i in right_aligned else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    lines.insert(1, "  ".join("-" * w for w in widths))
    return lines


def _render_table(results: Sequence[ProjectionResult], title: str,
                  timestamp: str | None) -> str:
    headers = ["Category", "Stage", "T_comp", "T_crow", "T_poisson",
               "T_prod_reg", "T_total", "Gating", "Year"]
    rows = []
    for r in results:
        b = r.breakdown
        rows.append([
            r.category,
            r.stage.value,
            f"{b.t_comp:.2f}",
            f"{b.t_crow_total:.2f}",
            f"{b.t_poisson:.2f}",
            f"{b.t_prod_reg:.2f}",
            f"{b.t_total:.2f}",
            b.gating.value,
            str(b.calendar_year),
        ])
    lines = [title]
    if timestamp:
        lines.append(f"Generated: {timestamp}")
    lines.append("")
    lines.extend(_aligned_table(headers, rows, right_aligned={2, 3, 4, 5, 6, 8}))
    return "\n".join(lines) + "\n"


_CSV_COLUMNS = (
    "category", "stage",
    "t_comp_years", "t_crow_total_years", "t_crow_partial_years",
    "t_crow_final_years", "t_poisson_years", "t_prod_reg_years", "f",
    "t_total_years", "gating", "calendar_year",
    "naive_demand_log10", "effective_demand_log10",
    "crow_miles", "poisson_miles", "gamma", "delta_effective",
)


def _render_csv(results: Sequence[ProjectionResult]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(_CSV_COLUMNS)
    for r in results:
        b, m = r.breakdown, r.intermediate
        writer.writerow([
            r.category, r.stage.value,
            repr(b.t_comp), repr(b.t_crow_total), repr(b.t_crow_partial),
            repr(b.t_crow_final), repr(b.t_poisson), repr(b.t_prod_reg),
            repr(b.f), repr(b.t_total), b.gating.value, b.calendar_year,
            repr(m.naive_demand.log10_value), repr(m.effective_demand.log10_value),
            repr(m.crow_miles), repr(m.poisson_miles), repr(m.gamma),
            repr(m.delta_effective),
        ])
    return buffer.getvalue()


def _result_to_json_object(r: ProjectionResult) -> dict:
    b, m = r.breakdown, r.intermediate
    return {
        "category": r.category,
        "stage": r.stage.value,
        "breakdown": {
            "t_comp": b.t_comp,
            "t_crow_total": b.t_crow_total,
            "t_crow_partial": b.t_crow_partial,
            "t_crow_final": b.t_crow_final,
            "t_poisson": b.t_poisson,
            "t_prod_reg": b.t_prod_reg,
            "f": b.f,
            "t_total": b.t_total,
            "gating": b.gating.value,
            "calendar_year": b.calendar_year,
        },
        "intermediate": {
            "naive_demand": {"log10": m.naive_demand.log10_value},
            "effective_demand": {"log10": m.effective_demand.log10_value},
            "crow_miles": m.crow_miles,
            "poisson_miles": m.poisson_miles,
            "gamma": m.gamma,
            "delta_effective": m.delta_effective,
        },
    }


def _render_json(results: Sequence[ProjectionResult], title: str,
                 timestamp: str | None) -> str:
    payload: dict = {"title": title}
    if timestamp:
        payload["generated_at"] = timestamp
    payload["results"] = [_result_to_json_object(r) for r in results]
    return json.dumps(payload, indent=2) + "\n"


def _render_markdown(results: Sequence[ProjectionResult], title: str,
                     timestamp: str | None) -> str:
    lines = [f"# {title}", ""]
    if timestamp:
        lines.extend([f"Generated: {timestamp}", ""])

    # Stage summary: one row per category in first-seen order, the
    # projected calendar year per stage column, n/a where not computed.
    categories: list[str] = []
    by_key: dict[tuple[str, Stage], ProjectionResult] = {}
    for r in results:
        if r.category not in categories:
            categories.append(r.category)
        by_key[(r.category, r.stage)] = r
    header_cells = ["Category"] + [s.display_name for s in _STAGE_ORDER]
    lines.append("| " + " | ".join(header_cells) + " |")
    lines.append("| " + " | ".join("---" for _ in header_cells) + " |")
    for category in categories:
        cells = [category]
        for stage in _STAGE_ORDER:
            result = by_key.get((category, stage))
            cells.append(str(result.breakdown.calendar_year) if result else "n/a")
        lines.append("| " + " | ".join(cells) + " |")

    # Breakdown sections show calendar years as integers and fractional
    # year spans to two decimals.
    for r in results:
        b = r.breakdown
        lines.extend(["", f"## {r.category}: {r.stage.display_name}", ""])
        for field_name in _BREAKDOWN_FIELDS:
            value = getattr(b, field_name)
            if field_name == "gating":
                rendered = value.value
            elif field_name == "calendar_year":
                rendered = str(value)
            elif field_name == "f":
                rendered = f"{value:g}"
            else:
                rendered = f"{value:.2f} years"
            lines.append(f"- {field_name}: {rendered}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sensitivity renderers
# ---------------------------------------------------------------------------


def render_sensitivity(
    report: SensitivityReport,
    fmt: ReportFormat,
    *,
    title: str | None = None,
    generated_at: datetime | str | None = None,
) -> str:
    """Render a sensitivity report; entry order follows the report."""
    if not report.entries:
        raise EmptyResultsError("cannot render a sensitivity report with no entries")
    resolved_title = title or (
        f"{report.kind.value} sensitivity: {report.category} ({report.stage.value})"
    )
    timestamp = _format_timestamp(generated_at)
    if fmt is ReportFormat.TABLE:
        return _render_sensitivity_table(report, resolved_title, timestamp)
    if fmt is ReportFormat.CSV:
        return _render_sensitivity_csv(report)
    if fmt is ReportFormat.JSON:
        return _render_sensitivity_json(report, resolved_title, timestamp)
    if fmt is ReportFormat.MARKDOWN:
        return _render_sensitivity_markdown(report, resolved_title, timestamp)
    raise ValidationError(f"unknown report format {fmt!r}")


def _input_columns(report: SensitivityReport) -> list[str]:
    columns: list[str] = []
    for entry in report.entries:
        for path, _ in entry.inputs:
            if path not in columns:
                columns.append(path)
    return columns


def _render_sensitivity_table(report: SensitivityReport, title: str,
                              timestamp: str | None) -> str:
    lines = [title]
    if timestamp:
        lines.append(f"Generated: {timestamp}")
    lines.append(f"baseline t_total: {report.baseline_t_total:.4f} years")
    lines.append(
        f"t_total min/mean/max: {report.summary.minimum:.4f} / "
        f"{report.summary.mean:.4f} / {report.summary.maximum:.4f}"
    )
    if report.kind is AnalysisKind.MONTE_CARLO:
        lines.append(f"samples: {report.sample_count}  seed: {report.seed}")
        percentile_text = "  ".join(
            f"p{p}={v:.4f}" for p, v in report.percentiles
        )
        lines.append(f"t_total percentiles: {percentile_text}")
    lines.append("")
    if report.tornado_spreads:
        headers = ["Parameter", "Low", "High", "T_total(low)", "T_total(high)", "Spread"]
        rows = [
            [s.parameter_path, f"{s.low:g}", f"{s.high:g}",
             f"{s.t_total_low:.4f}", f"{s.t_total_high:.4f}", f"{s.spread:.4f}"]
            for s in report.tornado_spreads
        ]
        lines.extend(_aligned_table(headers, rows, right_aligned={1, 2, 3, 4, 5}))
        lines.append("")
    columns = _input_columns(report)
    headers = columns + ["t_total", "year", "gating"]
    rows = []
    for entry in report.entries:
        inputs = dict(entry.inputs)
        row = [f"{inputs[c]:g}" if c in inputs else "" for c in columns]
        row.extend([f"{entry.t_total:.4f}", str(entry.calendar_year), entry.gating.value])
        rows.append(row)
    right = set(range(len(columns) + 2))
    lines.extend(_aligned_table(headers, rows, right_aligned=right))
    return "\n".join(lines) + "\n"


def _render_sensitivity_csv(report: SensitivityReport) -> str:
    columns = _input_columns(report)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(columns + ["t_total_years", "calendar_year", "gating"])
    for entry in report.entries:
        inputs = dict(entry.inputs)
        row = [repr(inputs[c]) if c in inputs else "" for c in columns]
        row.extend([repr(entry.t_total), entry.calendar_year, entry.gating.value])
        writer.writerow(row)
    return buffer.getvalue()


def _render_sensitivity_json(report: SensitivityReport, title: str,
                             timestamp: str | None) -> str:
    payload: dict = {"title": title}
    if timestamp:
        payload["generated_at"] = timestamp
    payload.update({
        "kind": report.kind.value,
        "category": report.category,
        "stage": report.stage.value,
        "baseline_t_total": report.baseline_t_total,
        "summary": {
            "minimum": report.summary.minimum,
            "maximum": report.summary.maximum,
            "mean": report.summary.mean,
        },
    })
    if report.seed is not None:
        payload["seed"] = report.seed
    if report.sample_count is not None:
        payload["sample_count"] = report.sample_count
    if report.percentiles is not None:
        payload["percentiles"] = {f"p{p}": v for p, v in report.percentiles}
    if report.tornado_spreads is not None:
        payload["tornado_spreads"] = [
            {
                "parameter_path": s.parameter_path,
                "low": s.low,
                "high": s.high,
                "t_total_low": s.t_total_low,
                "t_total_high": s.t_total_high,
                "spread": s.spread,
            }
            for s in report.tornado_spreads
        ]
    payload["entries"] = [
        {
            "inputs": {path: value for path, value in entry.inputs},
            "t_total": entry.t_total,
            "calendar_year": entry.calendar_year,
            "gating": entry.gating.value,
        }
        for entry in report.entries
    ]
    return json.dumps(payload, indent=2) + "\n"


def _render_sensitivity_markdown(report: SensitivityReport, title: str,
                                 timestamp: str | None) -> str:
    lines = [f"# {title}", ""]
    if timestamp:
        lines.extend([f"Generated: {timestamp}", ""])
    lines.append(f"- baseline t_total: {report.baseline_t_total:.4f} years")
    lines.append(f"- t_total minimum: {report.summary.minimum:.4f} years")
    lines.append(f"- t_total mean: {report.summary.mean:.4f} years")
    lines.append(f"- t_total maximum: {report.summary.maximum:.4f} years")
    if report.kind is AnalysisKind.MONTE_CARLO:
        lines.append(f"- samples: {report.sample_count}")
        lines.append(f"- seed: {report.seed}")
    lines.append("")
    if report.percentiles is not None:
        lines.append("| Percentile | t_total (years) |")
        lines.append("| --- | --- |")
        for p, v in report.percentiles:
            lines.append(f"| p{p} | {v:.4f} |")
        lines.append("")
    if report.tornado_spreads is not None:
        lines.append("| Parameter | Low | High | T_total(low) | T_total(high) | Spread |")
        lines.append("| --- | --- | --- | --- | --- | --- |")
        for s in report.tornado_spreads:
            lines.append(
                f"| {s.parameter_path} | {s.low:g} | {s.high:g} "
                f"| {s.t_total_low:.4f} | {s.t_total_high:.4f} | {s.spread:.4f} |"
            )
        lines.append("")
    columns = _input_columns(report)
    lines.append("| " + " | ".join(columns + ["t_total", "year", "gating"]) + " |")
    lines.append("| " + " | ".join("---" for _ in range(len(columns) + 3)) + " |")
    for entry in report.entries:
        inputs = dict(entry.inputs)
        cells = [f"{inputs[c]:g}" if c in inputs else "" for c in columns]
        cells.extend([f"{entry.t_total:.4f}", str(entry.calendar_year), entry.gating.value])
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
