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
import re
from dataclasses import asdict, fields
from datetime import datetime, timezone
from itertools import chain, islice
from operator import attrgetter, itemgetter
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Sequence, get_type_hints

from ._jsonschema import NUMBER, closed_object
from .complexity import Magnitude
from .errors import EmptyResultsError, ValidationError
from .scenario import Intermediates, ProjectionResult
from .sensitivity import AnalysisKind, SensitivityReport
from .timeline import PROJECTABLE_STAGES, Gating, TimelineBreakdown

__all__ = [
    "ReportFormat",
    "REPORT_SCHEMA",
    "render",
    "render_sensitivity",
]

# Rows per chunk of a CSV or JSON sensitivity render.  The bytes do not
# depend on it; it bounds the text a render holds at once.
_CHUNK_ROWS = 4096

# The JSON schema and JSON value of each type a result field holds.
_JSON_TYPES: dict[type, tuple[dict, Callable | None]] = {
    float: (NUMBER, None),
    int: ({"type": "integer"}, None),
    Gating: ({"enum": [g.value for g in Gating]}, attrgetter("value")),
    Magnitude: (closed_object({"log10": NUMBER}), lambda m: {"log10": m.log10_value}),
}


def _json_fields(owner: type) -> tuple[tuple[str, dict, Callable | None], ...]:
    """(name, JSON schema, JSON value or None for the value itself) of
    each field of ``owner``, in declaration order."""
    hints = get_type_hints(owner)
    return tuple((f.name, *_JSON_TYPES[hints[f.name]]) for f in fields(owner))


_BREAKDOWN_JSON = _json_fields(TimelineBreakdown)
_INTERMEDIATE_JSON = _json_fields(Intermediates)


def _json_object(obj, json_fields: tuple) -> dict:
    return {name: getattr(obj, name) if to_json is None else to_json(getattr(obj, name))
            for name, _, to_json in json_fields}


# Formal shape of the JSON render of projection results.  Shipped under
# docs/ and asserted in tests; render output always validates.
REPORT_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Projection report document",
    **closed_object({
        "title": {"type": "string", "minLength": 1},
        "generated_at": {"type": "string"},
        "results": {
            "type": "array",
            "minItems": 1,
            "items": closed_object({
                "category": {"type": "string", "minLength": 1},
                "stage": {"enum": [stage.value for stage in PROJECTABLE_STAGES]},
                "breakdown": closed_object({n: schema for n, schema, _ in _BREAKDOWN_JSON}),
                "intermediate": closed_object({n: schema for n, schema, _ in _INTERMEDIATE_JSON}),
            }),
        },
    }, required=["title", "results"]),
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


def _markdown_row(cells: Sequence[str]) -> str:
    """One Markdown table row, each ``|`` in a cell written ``\\|``."""
    return "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"


def _markdown_lines(table: _Table) -> Iterator[str]:
    yield _markdown_row(table.headers)
    yield _markdown_row(["---"] * len(table.headers))
    yield from map(_markdown_row, table.rows)


def _csv_text(table: _Table, with_headers: bool = True) -> str:
    """The table as ``csv.writer`` writes it with minimal quoting; without
    the header row when ``with_headers`` is false.

    Cells are joined directly when none needs quoting, that is when the
    joined text holds one comma fewer than cells in each row, one
    newline per row, and no quote or carriage return.  A row of one
    empty cell is written quoted, so one-column tables always go
    through the writer."""
    rows = [table.headers, *table.rows] if with_headers else list(table.rows)
    text = "\n".join(map(",".join, rows)) + "\n"
    if (len(table.headers) > 1 and '"' not in text and "\r" not in text
            and text.count("\n") == len(rows)
            and text.count(",") == sum(map(len, rows)) - len(rows)):
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_MINIMAL).writerows(rows)
    return buffer.getvalue()


def _csv_chunks(table: _Table) -> Iterator[str]:
    """``_csv_text`` of the table in chunks: the header row with the first
    ``_CHUNK_ROWS`` rows, then ``_CHUNK_ROWS`` rows at a time.  Quoting is
    decided row by row, so the chunks join to the text of the whole table."""
    rows = iter(table.rows)
    yield _csv_text(table._replace(rows=islice(rows, _CHUNK_ROWS)))
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield _csv_text(table._replace(rows=chunk), with_headers=False)


def _page(fmt: ReportFormat, title: str, timestamp: str | None, facts: list[str],
          tables: Sequence[_Table], sections: Iterable[str] = ()) -> str:
    """Text or Markdown page: title, optional timestamp, fact lines (bullets
    in Markdown), the tables separated by blank lines, then any sections."""
    title = _escape_controls(title)
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


# A C0 or C1 control character, or DEL.
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def _escape_controls(text: str) -> str:
    """A name or title as the text and Markdown pages print it: each control
    character written as ``json.dumps`` escapes it, so that a name holding
    a newline keeps its row or heading on one line."""
    # No control character is printable, and this test is far cheaper.
    if text.isprintable():
        return text
    return _CONTROL.sub(lambda match: json.dumps(match.group())[1:-1], text)


# ---------------------------------------------------------------------------
# Projection tables
# ---------------------------------------------------------------------------


def _projection_table(results: Sequence[ProjectionResult]) -> _Table:
    def rows() -> Iterator[list[str]]:
        for r in results:
            b = r.breakdown
            yield [_escape_controls(r.category), r.stage.value, f"{b.t_comp:.2f}",
                   f"{b.t_crow_total:.2f}", f"{b.t_poisson:.2f}", f"{b.t_prod_reg:.2f}",
                   f"{b.t_total:.2f}", b.gating.value, str(b.calendar_year)]

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
        [_escape_controls(category)] + [
            str(by_key[(category, stage)].breakdown.calendar_year)
            if (category, stage) in by_key else "n/a"
            for stage in PROJECTABLE_STAGES
        ]
        for category in categories
    )
    return _Table(["Category"] + [s.display_name for s in PROJECTABLE_STAGES], rows)


def _breakdown_sections(results: Sequence[ProjectionResult]) -> Iterator[str]:
    """Markdown lines of one section per result: calendar years as
    integers, fractional year spans to two decimals."""
    for r in results:
        b = r.breakdown
        yield from (
            "", f"## {_escape_controls(r.category)}: {r.stage.display_name}", "",
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


# The formats whose sensitivity render is made, and can be written, in
# row chunks.  An aligned text or Markdown table needs every row first.
_CHUNKED_FORMATS = (ReportFormat.CSV, ReportFormat.JSON)


def render_sensitivity(
    report: SensitivityReport,
    fmt: ReportFormat,
    *,
    title: str | None = None,
    generated_at: datetime | str | None = None,
) -> str:
    """Render a sensitivity report; entry order follows the report."""
    if fmt in _CHUNKED_FORMATS:
        return "".join(_sensitivity_chunks(report, fmt, title=title, generated_at=generated_at))
    resolved_title, timestamp = _sensitivity_heading(report, title, generated_at)
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


def _sensitivity_heading(report: SensitivityReport, title: str | None,
                         generated_at: datetime | str | None) -> tuple[str, str | None]:
    """The title and timestamp of a render, once the report is known to
    have entries and the timestamp to be valid."""
    if not report.entries:
        raise EmptyResultsError("cannot render a sensitivity report with no entries")
    resolved_title = title or (
        f"{report.kind.value} sensitivity: {report.category} ({report.stage.value})"
    )
    return resolved_title, _format_timestamp(generated_at)


def _sensitivity_chunks(
    report: SensitivityReport,
    fmt: ReportFormat,
    *,
    title: str | None = None,
    generated_at: datetime | str | None = None,
) -> Iterable[str]:
    """The CSV or JSON render of a report as text chunks of at most
    ``_CHUNK_ROWS`` entries each, which join to ``render_sensitivity``'s
    text.  Every check runs before this returns, so reading the chunks
    raises no validation error."""
    resolved_title, timestamp = _sensitivity_heading(report, title, generated_at)
    if fmt is ReportFormat.CSV:
        return _csv_chunks(_entries_table(report, for_csv=True))
    if fmt is ReportFormat.JSON:
        return _sensitivity_json_chunks(report, resolved_title, timestamp)
    raise ValidationError(f"the {fmt.value} format is not rendered in chunks")


def _row_blocks(count: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_CHUNK_ROWS`` of ``count`` rows."""
    return (slice(start, start + _CHUNK_ROWS) for start in range(0, count, _CHUNK_ROWS))


def _gating_texts(gating: Sequence[Gating], compute: str, reliability: str) -> list[str]:
    # Bound once: looking the member up on the enum class in every row
    # costs several times what the rest of the row does.
    compute_gated = Gating.COMPUTE
    return [compute if g is compute_gated else reliability for g in gating]


def _cells(values: Sequence, text: Callable[..., str]) -> list[str]:
    """``text`` of each value; a blank cell for None."""
    if None in values:
        return ["" if v is None else text(v) for v in values]
    return list(map(text, values))


def _entries_table(report: SensitivityReport, for_csv: bool = False) -> _Table:
    """One row per entry: a column per input path in first-seen order
    (blank where an entry does not set it), then t_total, year, gating.
    CSV cells carry full precision; text and Markdown cells are rounded.
    The cells are made a column at a time, ``_CHUNK_ROWS`` rows at a
    time, as the rows are read."""
    paths = [path for path, _ in report.inputs]
    if for_csv:
        tail, value_text, total_text = ["t_total_years", "calendar_year"], repr, repr
    else:
        tail, value_text, total_text = ["t_total", "year"], "{:g}".format, "{:.4f}".format

    def block(rows: slice) -> Iterator[tuple[str, ...]]:
        cells = [_cells(column[rows], value_text) for _, column in report.inputs]
        cells.append(list(map(total_text, report.t_total[rows])))
        cells.append(list(map(str, report.calendar_year[rows])))
        cells.append(_gating_texts(report.gating[rows], Gating.COMPUTE.value,
                                   Gating.RELIABILITY.value))
        return zip(*cells)

    rows = chain.from_iterable(map(block, _row_blocks(len(report.t_total))))
    return _Table(paths + tail + ["gating"], rows, right_aligned=range(len(paths) + 2))


_PLAIN_NUMBERS = {int, float}


def _json_texts(values: Sequence) -> list[str | None]:
    """The ``json.dumps`` text of each number; None stays None.

    ``repr`` of an exact int, or of an exact finite float, is the text
    the JSON encoder writes, and report values are finite, so a column
    holding only those is mapped through ``repr``.  Any other value,
    such as a float subclass with its own repr, goes through
    ``json.dumps``.
    """
    if set(map(type, values)) <= _PLAIN_NUMBERS:
        return list(map(repr, values))
    return [None if v is None else json.dumps(v) for v in values]


def _entry_pieces(paths: Sequence[str]) -> list[str]:
    """The text around the values of one entry as ``json.dumps(indent=2)``
    writes it inside the top-level ``entries`` list: a value per input
    path, then t_total, calendar_year and gating.  ``json.dumps`` escapes
    every control character, so a NUL marks each value's place."""
    slots = ",\n".join(f"        {json.dumps(path)}: \0" for path in paths)
    inputs = f"{{\n{slots}\n      }}" if paths else "{}"
    return ("    {\n"
            f'      "inputs": {inputs},\n'
            '      "t_total": \0,\n'
            '      "calendar_year": \0,\n'
            '      "gating": \0\n'
            "    }").split("\0")


def _weave(pieces: Sequence[str], columns: Sequence[Sequence[str]], joiner: str) -> str:
    """Rows joined by ``joiner``, row i being ``pieces[0] + columns[0][i] +
    pieces[1] + ... + columns[-1][i] + pieces[-1]``: the parts are laid
    out a column at a time, then joined once."""
    count, step = len(columns[0]), 2 * len(columns)
    parts = [pieces[-1] + joiner + pieces[0]] * (step * count + 1)
    parts[0], parts[-1] = pieces[0], pieces[-1]
    for i, column in enumerate(columns):
        parts[2 * i + 1::step] = column
    for i in range(1, len(columns)):
        parts[2 * i::step] = [pieces[i]] * count
    return "".join(parts)


def _json_entries(report: SensitivityReport) -> Iterator[str]:
    """The JSON text of the entries, joined by ``",\n"``, in chunks of
    ``_CHUNK_ROWS``.  A chunk whose rows all set every input path is
    woven from one set of pieces; otherwise each row is written from a
    ``%``-template for the paths it sets."""
    paths = [path for path, _ in report.inputs]
    pieces = _entry_pieces(paths)
    gating = json.dumps(Gating.COMPUTE.value), json.dumps(Gating.RELIABILITY.value)
    templates: dict[tuple[bool, ...], str] = {}
    for rows in _row_blocks(len(report.t_total)):
        inputs = [_json_texts(column[rows]) for _, column in report.inputs]
        outputs = [_json_texts(report.t_total[rows]), _json_texts(report.calendar_year[rows]),
                   _gating_texts(report.gating[rows], *gating)]
        if rows.start:
            yield ",\n"
        if not any(None in column for column in inputs):
            yield _weave(pieces, inputs + outputs, ",\n")
            continue
        texts = []
        for row in zip(*inputs, *outputs):
            present = tuple(v is not None for v in row[:len(paths)])
            if present not in templates:
                templates[present] = "%s".join(piece.replace("%", "%%") for piece in
                                               _entry_pieces([path for path, here
                                                              in zip(paths, present) if here]))
            texts.append(templates[present] % tuple(v for v in row if v is not None))
        yield ",\n".join(texts)


def _sensitivity_json_chunks(report: SensitivityReport, title: str,
                             timestamp: str | None) -> Iterator[str]:
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
    yield json.dumps(payload, indent=2)[:-2] + ',\n  "entries": [\n'
    yield from _json_entries(report)
    yield "\n  ]\n}\n"
