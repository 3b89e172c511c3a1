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
from dataclasses import asdict, fields
from datetime import datetime, timezone
from operator import attrgetter, itemgetter
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Sequence, get_type_hints

from .complexity import Magnitude
from .errors import EmptyResultsError, ValidationError
from .scenario import Intermediates, ProjectionResult
from .sensitivity import AnalysisKind, SensitivityReport
from .timeline import Gating, Stage, TimelineBreakdown

__all__ = [
    "ReportFormat",
    "REPORT_SCHEMA",
    "render",
    "render_sensitivity",
]

_STAGE_ORDER = (Stage.REVENUE_SERVICE, Stage.BROAD_COMMERCIAL)

# The JSON schema and JSON value of each type a result field holds.
_JSON_NUMBER = {"type": "number"}
_JSON_TYPES: dict[type, tuple[dict, Callable | None]] = {
    float: (_JSON_NUMBER, None),
    int: ({"type": "integer"}, None),
    Gating: ({"enum": [g.value for g in Gating]}, attrgetter("value")),
    Magnitude: ({"type": "object", "additionalProperties": False, "required": ["log10"],
                 "properties": {"log10": _JSON_NUMBER}},
                lambda m: {"log10": m.log10_value}),
}


def _json_fields(owner: type) -> tuple[tuple[str, dict, Callable | None], ...]:
    """(name, JSON schema, JSON value or None for the value itself) of
    each field of ``owner``, in declaration order."""
    hints = get_type_hints(owner)
    return tuple((f.name, *_JSON_TYPES[hints[f.name]]) for f in fields(owner))


_BREAKDOWN_JSON = _json_fields(TimelineBreakdown)
_INTERMEDIATE_JSON = _json_fields(Intermediates)


def _object_schema(json_fields: tuple) -> dict:
    return {
        "type": "object",
        "additionalProperties": False,
        "required": [name for name, _, _ in json_fields],
        "properties": {name: schema for name, schema, _ in json_fields},
    }


def _json_object(obj, json_fields: tuple) -> dict:
    return {name: getattr(obj, name) if to_json is None else to_json(getattr(obj, name))
            for name, _, to_json in json_fields}


# Formal shape of the JSON render of projection results.  Shipped under
# docs/ and asserted in tests; render output always validates.
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
                    "breakdown": _object_schema(_BREAKDOWN_JSON),
                    "intermediate": _object_schema(_INTERMEDIATE_JSON),
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
        return _page(fmt, title, timestamp, [], [_projection_table(results)])
    if fmt is ReportFormat.CSV:
        return _csv_text(_projection_csv_table(results))
    if fmt is ReportFormat.JSON:
        return _render_json(results, title, timestamp)
    if fmt is ReportFormat.MARKDOWN:
        return _page(fmt, title, timestamp, [], [_stage_summary_table(results)],
                     sections=_breakdown_sections(results))
    raise ValidationError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# Table model and its writers
# ---------------------------------------------------------------------------


class _Table(NamedTuple):
    """Column headers and rows of already formatted cells.

    ``rows`` may be a generator and is read once.  ``right_aligned``
    holds the column indexes the aligned text writer right-justifies.
    """

    headers: Sequence[str]
    rows: Iterable[Sequence[str]]
    right_aligned: Container[int] = ()


def _aligned_lines(table: _Table) -> list[str]:
    rows = [table.headers, *table.rows]
    widths = [max(map(len, map(itemgetter(i), rows))) for i in range(len(table.headers))]
    # "%10s" pads like str.rjust(10), "%-10s" like str.ljust(10).
    template = "  ".join(f"%{'' if i in table.right_aligned else '-'}{width}s"
                         for i, width in enumerate(widths))
    lines = [(template % tuple(row)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return lines


def _markdown_lines(table: _Table) -> Iterator[str]:
    yield "| " + " | ".join(table.headers) + " |"
    yield "| " + " | ".join("---" for _ in table.headers) + " |"
    for row in table.rows:
        yield "| " + " | ".join(row) + " |"


def _csv_text(table: _Table) -> str:
    """The table as ``csv.writer`` writes it with minimal quoting.

    Cells are joined directly when none needs quoting, that is when the
    joined text holds one comma fewer than cells in each row, one
    newline per row, and no quote or carriage return.  A row of one
    empty cell is written quoted, so one-column tables always go
    through the writer."""
    rows = [table.headers, *table.rows]
    text = "\n".join(map(",".join, rows)) + "\n"
    if (len(table.headers) > 1 and '"' not in text and "\r" not in text
            and text.count("\n") == len(rows)
            and text.count(",") == sum(map(len, rows)) - len(rows)):
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_MINIMAL).writerows(rows)
    return buffer.getvalue()


def _page(fmt: ReportFormat, title: str, timestamp: str | None, facts: list[str],
          tables: Sequence[_Table], sections: Iterable[str] = ()) -> str:
    """Text or Markdown page: title, optional timestamp, fact lines (bullets
    in Markdown), the tables separated by blank lines, then any sections."""
    if fmt is ReportFormat.MARKDOWN:
        lines = [f"# {title}", ""]
        if timestamp:
            lines.extend([f"Generated: {timestamp}", ""])
        if facts:
            lines.extend(f"- {fact}" for fact in facts)
            lines.append("")
        write_table = _markdown_lines
    else:
        lines = [title]
        if timestamp:
            lines.append(f"Generated: {timestamp}")
        lines.extend(facts)
        lines.append("")
        write_table = _aligned_lines
    for i, table in enumerate(tables):
        if i:
            lines.append("")
        lines.extend(write_table(table))
    lines.extend(sections)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Projection tables
# ---------------------------------------------------------------------------


def _projection_table(results: Sequence[ProjectionResult]) -> _Table:
    def rows() -> Iterator[list[str]]:
        for r in results:
            b = r.breakdown
            yield [r.category, r.stage.value, f"{b.t_comp:.2f}", f"{b.t_crow_total:.2f}",
                   f"{b.t_poisson:.2f}", f"{b.t_prod_reg:.2f}", f"{b.t_total:.2f}",
                   b.gating.value, str(b.calendar_year)]

    headers = ["Category", "Stage", "T_comp", "T_crow", "T_poisson",
               "T_prod_reg", "T_total", "Gating", "Year"]
    return _Table(headers, rows(), right_aligned={2, 3, 4, 5, 6, 8})


_CSV_COLUMNS = (
    "category", "stage",
    "t_comp_years", "t_crow_total_years", "t_crow_partial_years",
    "t_crow_final_years", "t_poisson_years", "t_prod_reg_years", "f",
    "t_total_years", "gating", "calendar_year",
    "naive_demand_log10", "effective_demand_log10",
    "crow_miles", "poisson_miles", "gamma", "delta_effective",
)


def _projection_csv_table(results: Sequence[ProjectionResult]) -> _Table:
    def rows() -> Iterator[list[str]]:
        for r in results:
            b, m = r.breakdown, r.intermediate
            yield [
                r.category, r.stage.value,
                repr(b.t_comp), repr(b.t_crow_total), repr(b.t_crow_partial),
                repr(b.t_crow_final), repr(b.t_poisson), repr(b.t_prod_reg),
                repr(b.f), repr(b.t_total), b.gating.value, str(b.calendar_year),
                repr(m.naive_demand.log10_value), repr(m.effective_demand.log10_value),
                repr(m.crow_miles), repr(m.poisson_miles), repr(m.gamma),
                repr(m.delta_effective),
            ]

    return _Table(_CSV_COLUMNS, rows())


def _stage_summary_table(results: Sequence[ProjectionResult]) -> _Table:
    """One row per category in first-seen order, the projected calendar
    year per stage column, n/a where not computed."""
    by_key = {(r.category, r.stage): r for r in results}
    categories = dict.fromkeys(r.category for r in results)
    rows = (
        [category] + [
            str(by_key[(category, stage)].breakdown.calendar_year)
            if (category, stage) in by_key else "n/a"
            for stage in _STAGE_ORDER
        ]
        for category in categories
    )
    return _Table(["Category"] + [s.display_name for s in _STAGE_ORDER], rows)


def _breakdown_sections(results: Sequence[ProjectionResult]) -> Iterator[str]:
    """Markdown lines of one section per result: calendar years as
    integers, fractional year spans to two decimals."""
    for r in results:
        b = r.breakdown
        yield from (
            "", f"## {r.category}: {r.stage.display_name}", "",
            f"- t_comp: {b.t_comp:.2f} years",
            f"- t_crow_total: {b.t_crow_total:.2f} years",
            f"- t_crow_partial: {b.t_crow_partial:.2f} years",
            f"- t_crow_final: {b.t_crow_final:.2f} years",
            f"- t_poisson: {b.t_poisson:.2f} years",
            f"- t_prod_reg: {b.t_prod_reg:.2f} years",
            f"- f: {b.f:g}",
            f"- t_total: {b.t_total:.2f} years",
            f"- gating: {b.gating.value}",
            f"- calendar_year: {b.calendar_year}",
        )


def _result_to_json_object(r: ProjectionResult) -> dict:
    return {
        "category": r.category,
        "stage": r.stage.value,
        "breakdown": _json_object(r.breakdown, _BREAKDOWN_JSON),
        "intermediate": _json_object(r.intermediate, _INTERMEDIATE_JSON),
    }


def _render_json(results: Sequence[ProjectionResult], title: str,
                 timestamp: str | None) -> str:
    payload: dict = {"title": title}
    if timestamp:
        payload["generated_at"] = timestamp
    payload["results"] = [_result_to_json_object(r) for r in results]
    return json.dumps(payload, indent=2) + "\n"


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
    if fmt is ReportFormat.CSV:
        return _csv_text(_entries_table(report, for_csv=True))
    if fmt is ReportFormat.JSON:
        return _render_sensitivity_json(report, resolved_title, timestamp)
    if fmt not in (ReportFormat.TABLE, ReportFormat.MARKDOWN):
        raise ValidationError(f"unknown report format {fmt!r}")
    summary = report.summary
    facts = [f"baseline t_total: {report.baseline_t_total:.4f} years"]
    tables = []
    if fmt is ReportFormat.MARKDOWN:
        facts.extend(f"t_total {name}: {value:.4f} years" for name, value in (
            ("minimum", summary.minimum), ("mean", summary.mean),
            ("maximum", summary.maximum)))
        if report.kind is AnalysisKind.MONTE_CARLO:
            facts.extend([f"samples: {report.sample_count}", f"seed: {report.seed}"])
        if report.percentiles is not None:
            tables.append(_Table(["Percentile", "t_total (years)"],
                                 [[f"p{p}", f"{v:.4f}"] for p, v in report.percentiles]))
    else:
        facts.append(f"t_total min/mean/max: {summary.minimum:.4f} / "
                     f"{summary.mean:.4f} / {summary.maximum:.4f}")
        if report.kind is AnalysisKind.MONTE_CARLO:
            facts.append(f"samples: {report.sample_count}  seed: {report.seed}")
            facts.append("t_total percentiles: " + "  ".join(
                f"p{p}={v:.4f}" for p, v in report.percentiles))
    if report.tornado_spreads:
        tables.append(_Table(
            ["Parameter", "Low", "High", "T_total(low)", "T_total(high)", "Spread"],
            [[s.parameter_path, f"{s.low:g}", f"{s.high:g}", f"{s.t_total_low:.4f}",
              f"{s.t_total_high:.4f}", f"{s.spread:.4f}"] for s in report.tornado_spreads],
            right_aligned={1, 2, 3, 4, 5},
        ))
    tables.append(_entries_table(report))
    return _page(fmt, resolved_title, timestamp, facts, tables)


def _gating_texts(report: SensitivityReport, compute: str, reliability: str) -> list[str]:
    return [compute if g is Gating.COMPUTE else reliability for g in report.gating]


def _entries_table(report: SensitivityReport, for_csv: bool = False) -> _Table:
    """One row per entry: a column per input path in first-seen order
    (blank where an entry does not set it), then t_total, year, gating.
    CSV cells carry full precision; text and Markdown cells are rounded."""
    paths = [path for path, _ in report.inputs]
    if for_csv:
        tail, value_text, total_text = ["t_total_years", "calendar_year"], repr, repr
    else:
        tail, value_text, total_text = ["t_total", "year"], "{:g}".format, "{:.4f}".format
    cells = [["" if v is None else value_text(v) for v in column]
             for _, column in report.inputs]
    cells.append(list(map(total_text, report.t_total)))
    cells.append(list(map(str, report.calendar_year)))
    cells.append(_gating_texts(report, Gating.COMPUTE.value, Gating.RELIABILITY.value))
    return _Table(paths + tail + ["gating"], zip(*cells), right_aligned=range(len(paths) + 2))


_PLAIN_TYPES = {int, float, type(None)}


def _json_values(column: Sequence) -> Sequence:
    """The column with every number as a value whose ``str`` is its
    ``json.dumps`` text.

    ``str`` of an exact int, or of an exact finite float, is the text
    the JSON encoder writes, and report values are finite, so a column
    holding only those (and None) is returned as it is.  Any other
    value, such as a float subclass with its own repr, is mapped
    through ``json.dumps``.
    """
    if set(map(type, column)) <= _PLAIN_TYPES:
        return column
    return [None if v is None else json.dumps(v) for v in column]


def _entry_template(paths: Sequence[str]) -> str:
    """``%``-template of one entry as ``json.dumps(indent=2)`` writes it
    inside the top-level ``entries`` list: a slot per input path, then
    t_total, calendar_year and gating."""
    slots = ",\n".join(f"        {json.dumps(path).replace('%', '%%')}: %s" for path in paths)
    inputs = f"{{\n{slots}\n      }}" if paths else "{}"
    return ("    {\n"
            f'      "inputs": {inputs},\n'
            '      "t_total": %s,\n'
            '      "calendar_year": %s,\n'
            '      "gating": %s\n'
            "    }")


def _json_entries(report: SensitivityReport) -> list[str]:
    """The JSON text of every entry, from one template per distinct set
    of input paths the rows set."""
    paths = [path for path, _ in report.inputs]
    columns = [_json_values(column) for _, column in report.inputs]
    gating = _gating_texts(report, json.dumps(Gating.COMPUTE.value),
                           json.dumps(Gating.RELIABILITY.value))
    rows = zip(*columns, _json_values(report.t_total), _json_values(report.calendar_year),
               gating)
    if not any(None in column for column in columns):
        return list(map(_entry_template(paths).__mod__, rows))
    templates: dict[tuple[bool, ...], str] = {}
    texts = []
    for row in rows:
        present = tuple(v is not None for v in row[:len(paths)])
        if present not in templates:
            templates[present] = _entry_template(
                [path for path, here in zip(paths, present) if here])
        texts.append(templates[present] % tuple(v for v in row if v is not None))
    return texts


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
        "summary": asdict(report.summary),
    })
    if report.seed is not None:
        payload["seed"] = report.seed
    if report.sample_count is not None:
        payload["sample_count"] = report.sample_count
    if report.percentiles is not None:
        payload["percentiles"] = {f"p{p}": v for p, v in report.percentiles}
    if report.tornado_spreads is not None:
        payload["tornado_spreads"] = list(map(asdict, report.tornado_spreads))
    # The entries list is the last member: the rest of the document as
    # json.dumps writes it, without its closing brace, then the entries.
    head = json.dumps(payload, indent=2)
    return (head[:-2] + ',\n  "entries": [\n' + ",\n".join(_json_entries(report))
            + "\n  ]\n}\n")
