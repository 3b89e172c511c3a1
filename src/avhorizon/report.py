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
import math
import re
from dataclasses import asdict, fields, is_dataclass
from datetime import datetime, timezone
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Sequence, get_type_hints

from ._jsonschema import NUMBER, closed_object
from .complexity import Magnitude
from .errors import _FINITE, EmptyResultsError, ValidationError, _check_number
from .scenario import ProjectionResult
from .sensitivity import AnalysisKind, SensitivityReport
from .timeline import PROJECTABLE_STAGES, Gating

__all__ = [
    "ReportFormat",
    "REPORT_SCHEMA",
    "render",
    "render_sensitivity",
]

# Rows per chunk of a CSV or JSON sensitivity render.  The bytes do not
# depend on it; it bounds the text a render holds at once.
_CHUNK_ROWS = 4096

_SLOT = "\0"  # a value's place in the skeleton of a JSON item (_json_chunks)


def _json_texts(values: Sequence) -> list[str | None]:
    """The ``json.dumps`` text of each value; None stays None.  ``repr`` of
    an exact int, or of an exact finite float, is the encoder's text, so a
    column of those whose sum is finite (so no value is inf or nan) is mapped
    through ``repr``, and a column of exact strs through the encoder's string
    function.  Any other, such as a float subclass, takes ``json.dumps``."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds <= {int, float}:
        try:
            if math.isfinite(sum(values)):
                return list(map(repr, values))
        except OverflowError:  # an int beyond float range
            pass
    return [None if v is None else json.dumps(v) for v in values]


class _Field(NamedTuple):
    """A breakdown or intermediate field as reports write it: ``path`` reads the
    written value (a number, a gating's text), ``csv`` names its cell function."""

    name: str
    path: str
    schema: dict
    slot: object  # its value in the skeleton of a JSON item
    csv_header: str
    csv: str
    markdown: str
    unit: str  # of a span, from its metadata: in its CSV header and after its Markdown value


# Per field type: schema, attribute of the written value, slot, CSV cell function, CSV suffix.
_KINDS: dict[type, tuple] = {
    float: (NUMBER, "", _SLOT, "repr", ""),
    int: ({"type": "integer"}, "", _SLOT, "repr", ""),
    Gating: ({"enum": [g.value for g in Gating]}, ".value", _SLOT, "", ""),
    Magnitude: (closed_object({"log10": NUMBER}), ".log10_value", {"log10": _SLOT}, "repr", "_log10"),
}


def _report_fields(owner: type) -> tuple[_Field, ...]:
    """Each field of ``owner`` as a _Field; in Markdown a span has two decimals."""
    hints = get_type_hints(owner)
    table = []
    for spec in fields(owner):
        schema, attribute, slot, csv, suffix = _KINDS[hints[spec.name]]
        unit = spec.metadata.get("unit", "")
        table.append(_Field(spec.name, spec.name + attribute, schema, slot,
                            spec.name + (f"_{unit}" if unit else suffix), csv,
                            ".2f" if unit else "g" if hints[spec.name] is float else "", unit))
    return tuple(table)


# The fields of each dataclass member of ProjectionResult: what the CSV, JSON
# and Markdown renders of projections hold, and REPORT_SCHEMA's result objects.
_FIELDS: dict[str, tuple[_Field, ...]] = {
    name: _report_fields(kind)
    for name, kind in get_type_hints(ProjectionResult).items() if is_dataclass(kind)
}


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
                **{member: closed_object({f.name: f.schema for f in table})
                   for member, table in _FIELDS.items()},
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
        return "".join(_projection_json_chunks(results, title, timestamp))
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


def _json_chunks(title: str, timestamp: str | None, head: dict, key: str,
                 runs: Iterable[tuple[dict, Sequence[Sequence[str]]]]) -> Iterator[str]:
    """A report's JSON text and a newline, in chunks, as ``json.dumps(indent=2)``
    writes the title, any timestamp, the members of ``head`` that are not None,
    then the list ``key``: for each run, a skeleton of its items whose values
    are ``_SLOT``, their values' JSON texts, a column per value and an item per
    row.  The encoder writes ``_SLOT`` as ``"\\u0000"``, never a raw NUL, and
    never ``: "`` inside a string, so ``: "\\u0000"`` marks each value's place."""
    head = {"title": title, "generated_at": timestamp or None, **head}
    head = {name: value for name, value in head.items() if value is not None}
    yield json.dumps(head, indent=2)[:-2] + f",\n  {json.dumps(key)}: [\n"
    for i, (skeleton, columns) in enumerate(runs):
        text = json.dumps(skeleton, indent=2).replace(': "\\u0000"', ": \0")
        pieces = ("    " + text.replace("\n", "\n    ")).split("\0")  # an item of the list
        if i:
            yield ",\n"
        yield _weave(pieces, columns, ",\n")
    yield "\n  ]\n}\n"


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


def _columns(results: Sequence[ProjectionResult], members: Iterable[str]) -> list[tuple]:
    """(field, column of written values) of each field of the results' ``members``."""
    columns = []
    for member in members:
        owners = list(map(attrgetter(member), results))
        columns += [(f, list(map(attrgetter(f.path), owners))) for f in _FIELDS[member]]
    return columns


# The CSV header, and the cells of a result as one expression compiled from the
# fields: as fast as a hand-written row, where cells made a column at a time are not.
_CSV_HEADERS = ["category", "stage", *(f.csv_header for t in _FIELDS.values() for f in t)]
_csv_row = eval("lambda r: [r.category, r.stage.value, " + ", ".join(
    f"{f.csv}(r.{member}.{f.path})" for member, table in _FIELDS.items() for f in table) + "]")


def _projection_csv_table(results: Sequence[ProjectionResult]) -> _Table:
    return _Table(_CSV_HEADERS, map(_csv_row, results))


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


def _breakdown_sections(results: Sequence[ProjectionResult]) -> list[str]:
    """The Markdown of one section per result, as one text: a heading,
    then a line per breakdown field."""
    columns = _columns(results, ["breakdown"])
    pieces = ["\n## ", ": ", "\n"]
    for f, _ in columns:
        pieces[-1] += f"\n- {f.name}: "
        pieces.append(f" {f.unit}" if f.unit else "")
    return [_weave(pieces, [[_escape_controls(r.category) for r in results],
                            [r.stage.display_name for r in results],
                            *(list(map(format, values, repeat(f.markdown)))
                              for f, values in columns)], "\n")]


def _projection_json_chunks(results: Sequence[ProjectionResult], title: str,
                            timestamp: str | None) -> Iterator[str]:
    skeleton = {"category": _SLOT, "stage": _SLOT, **{
        member: {f.name: f.slot for f in table} for member, table in _FIELDS.items()}}
    columns = [[r.category for r in results], [r.stage.value for r in results],
               *(values for _, values in _columns(results, _FIELDS))]
    return _json_chunks(title, timestamp, {}, "results",
                        [(skeleton, list(map(_json_texts, columns)))])


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
    if not report.t_total:
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
        try:
            cells = [_cells(column[rows], value_text) for _, column in report.inputs]
            cells.append(list(map(total_text, report.t_total[rows])))
        except OverflowError:  # an int beyond float range has no float text
            for path, column in (*report.inputs, ("t_total", report.t_total)):
                for value in column[rows]:
                    if value.__class__ is int:
                        _check_number(path, value, _FINITE)
            raise
        cells.append(list(map(str, report.calendar_year[rows])))
        cells.append(_gating_texts(report.gating[rows], Gating.COMPUTE.value,
                                   Gating.RELIABILITY.value))
        return zip(*cells)

    rows = chain.from_iterable(map(block, _row_blocks(len(report.t_total))))
    return _Table(paths + tail + ["gating"], rows, right_aligned=range(len(paths) + 2))


def _entry_runs(report: SensitivityReport) -> Iterator[tuple[dict, list[list[str]]]]:
    """The skeleton and value columns of the entries, ``_CHUNK_ROWS`` at a
    time: a block whose entries all set every input path is one run, and
    otherwise each entry is one, with the paths it sets."""
    gating = json.dumps(Gating.COMPUTE.value), json.dumps(Gating.RELIABILITY.value)
    for rows in _row_blocks(len(report.t_total)):
        inputs = {path: _json_texts(column[rows]) for path, column in report.inputs}
        outputs = {"t_total": _json_texts(report.t_total[rows]),
                   "calendar_year": _json_texts(report.calendar_year[rows]),
                   "gating": _gating_texts(report.gating[rows], *gating)}
        runs = [(inputs, outputs)]
        if any(None in texts for texts in inputs.values()):
            runs = [({path: [t[row]] for path, t in inputs.items() if t[row] is not None},
                     {name: [t[row]] for name, t in outputs.items()})
                    for row in range(len(outputs["t_total"]))]
        for here, out in runs:
            yield ({"inputs": dict.fromkeys(here, _SLOT), **dict.fromkeys(out, _SLOT)},
                   [*here.values(), *out.values()])


def _sensitivity_json_chunks(report: SensitivityReport, title: str,
                             timestamp: str | None) -> Iterator[str]:
    percentiles, spreads = report.percentiles, report.tornado_spreads
    return _json_chunks(title, timestamp, {
        "kind": report.kind.value, "category": report.category, "stage": report.stage.value,
        "baseline_t_total": report.baseline_t_total, "summary": asdict(report.summary),
        "seed": report.seed, "sample_count": report.sample_count,
        "percentiles": None if percentiles is None else {f"p{p}": v for p, v in percentiles},
        "tornado_spreads": None if spreads is None else list(map(asdict, spreads)),
    }, "entries", _entry_runs(report))
