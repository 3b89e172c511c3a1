"""The column writers of sensitivity reports against the row writers
they replaced.

``render_sensitivity`` writes a report's entries straight from its
columns, in chunks of ``_CHUNK_ROWS`` entries: JSON woven a column at a
time around the text of one entry (a row that leaves a path unset on its
own, around the text of the paths it sets), and the CSV, text and
Markdown tables from column-wise cells.  Every case here renders the same report
a second time with test-local copies of the per-entry writers that came
before (``json.dumps`` over entry dicts, one table row per
``SensitivityEntry``) patched in, and requires byte-identical output in
all four formats.  The generated reports (1-12 entries) are rendered
with chunks of 3 entries, so that they cross chunk boundaries.
"""

import datetime
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from avhorizon import report as report_module
from avhorizon.errors import ValidationError
from avhorizon.report import ReportFormat, render_sensitivity
from avhorizon.scenario import builtin_catalog
from avhorizon.sensitivity import (
    AnalysisKind,
    DistributionKind,
    DistributionSpec,
    ParameterBounds,
    SensitivityReport,
    SweepSpec,
    TornadoSpread,
    _summarize,
    monte_carlo,
    one_at_a_time,
    tornado,
    valid_parameter_paths,
)
from avhorizon.timeline import PROJECTABLE_STAGES, Gating, Stage

CATALOG = builtin_catalog()
S2, S3 = Stage.REVENUE_SERVICE, Stage.BROAD_COMMERCIAL


# ---------------------------------------------------------------------------
# The per-entry writers the column writers replaced
# ---------------------------------------------------------------------------


def row_entries_table(report, for_csv=False):
    columns = list(dict.fromkeys(path for e in report.entries for path, _ in e.inputs))
    if for_csv:
        tail, value_text, total_text = ["t_total_years", "calendar_year"], repr, repr
    else:
        tail, value_text, total_text = ["t_total", "year"], "{:g}".format, "{:.4f}".format

    def rows():
        for entry in report.entries:
            inputs = dict(entry.inputs)
            yield ([value_text(inputs[c]) if c in inputs else "" for c in columns]
                   + [total_text(entry.t_total), str(entry.calendar_year),
                      entry.gating.value])

    return report_module._Table(columns + tail + ["gating"], rows(),
                                right_aligned=range(len(columns) + 2))


def row_render_json(report, title, timestamp):
    payload = {"title": title}
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
            {"parameter_path": s.parameter_path, "low": s.low, "high": s.high,
             "t_total_low": s.t_total_low, "t_total_high": s.t_total_high,
             "spread": s.spread}
            for s in report.tornado_spreads
        ]
    payload["entries"] = [
        {"inputs": {path: value for path, value in entry.inputs},
         "t_total": entry.t_total, "calendar_year": entry.calendar_year,
         "gating": entry.gating.value}
        for entry in report.entries
    ]
    return json.dumps(payload, indent=2) + "\n"


def assert_renders_match(report, chunk_rows=3, **kwargs):
    """Render with chunks of ``chunk_rows`` entries, then through the row
    writers; the JSON one returns the whole text, which as a str is also
    an iterable of chunks."""
    for fmt in ReportFormat:
        with mock.patch.object(report_module, "_CHUNK_ROWS", chunk_rows):
            text = render_sensitivity(report, fmt, **kwargs)
        with mock.patch.object(report_module, "_entries_table", row_entries_table), \
                mock.patch.object(report_module, "_sensitivity_json_chunks", row_render_json):
            assert text == render_sensitivity(report, fmt, **kwargs), fmt


# ---------------------------------------------------------------------------
# Reports the analyses build
# ---------------------------------------------------------------------------


ANALYSES = {
    "zero-width integer bounds": lambda: tornado(CATALOG[1], S3, [
        ParameterBounds("n_objects", 40, 40), ParameterBounds("baseline_year", 2030, 2030),
        ParameterBounds("crow.beta", 0.3, 0.5), ParameterBounds("f", 0, 1)]),
    "n_objects sweep": lambda: one_at_a_time(
        CATALOG[2], S3, SweepSpec("n_objects", (1, 20, 35.0, 2**70))),
    "baseline_year sweep": lambda: one_at_a_time(
        CATALOG[0], S2, SweepSpec("baseline_year", (1, 2024, 9999))),
    "mixed int and float sweep": lambda: one_at_a_time(
        CATALOG[3], S3, SweepSpec("gamma_override", (1, 0.5, 1e-3))),
    "single entry": lambda: one_at_a_time(CATALOG[4], S3, SweepSpec("f", (0.7,))),
    "zero-width integer distribution": lambda: monte_carlo(CATALOG[5], S3, [
        DistributionSpec("gamma_override", DistributionKind.UNIFORM, 1, 1),
        DistributionSpec("crow.beta", DistributionKind.TRIANGULAR, 0.3, 0.5, 0.4)], 50, 4),
    "every path": lambda: tornado(CATALOG[6], S2, [
        ParameterBounds(path, *{"n_objects": (20, 60), "baseline_year": (2000, 2040)}
                        .get(path, (0.5, 0.6)))
        for path in valid_parameter_paths()
        if not path.startswith(("compute_env.current", "poisson.safety", "crow.severity"))]),
}


@pytest.mark.parametrize("name", sorted(ANALYSES))
@pytest.mark.parametrize("stamp", [None, datetime.datetime(
    2026, 8, 19, 12, 30, tzinfo=datetime.timezone.utc)])
def test_analysis_reports_render_as_before(name, stamp):
    assert_renders_match(ANALYSES[name](), generated_at=stamp)


CHUNK = report_module._CHUNK_ROWS


@pytest.mark.parametrize("samples", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_monte_carlo_renders_as_before_across_chunk_boundaries(samples):
    report = monte_carlo(CATALOG[1], S3, [
        DistributionSpec("crow.beta", DistributionKind.UNIFORM, 0.35, 0.55),
        DistributionSpec("gamma_override", DistributionKind.UNIFORM, 1, 1),
        DistributionSpec("f", DistributionKind.TRIANGULAR, 0.6, 0.8, 0.7)], samples, 11)
    assert_renders_match(report, chunk_rows=CHUNK)


# ---------------------------------------------------------------------------
# Reports built from generated columns
# ---------------------------------------------------------------------------


SPECIAL_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, 1.5e22, 2.0**53 + 2, 1e-7,
                  0.1, 2**53 + 1, 0, -1, 10**20)
PATHS = (*valid_parameter_paths(), 'quote"d', "back\\slash", "per%cent", "%s", "comma,path",
         "naïve")


class TaggedFloat(float):
    """A float subclass whose repr is not the float's; JSON writes the float."""

    def __repr__(self):
        return f"TaggedFloat({float(self)!r})"

    __str__ = __repr__


finite = st.floats(allow_nan=False, allow_infinity=False)
value = st.one_of(finite, st.integers(-2**70, 2**70), st.sampled_from(SPECIAL_VALUES),
                  finite.map(np.float64), finite.map(TaggedFloat))


@st.composite
def column_reports(draw):
    rows = draw(st.integers(1, 12))
    paths = draw(st.lists(st.sampled_from(PATHS), max_size=5, unique=True))
    every_row = draw(st.booleans())  # sweep and Monte Carlo; else tornado-like gaps
    set_paths = [[True] * len(paths) if every_row
                 else draw(st.lists(st.booleans(), min_size=len(paths), max_size=len(paths)))
                 for _ in range(rows)]
    columns = [[draw(value) if set_paths[r][c] else None for r in range(rows)]
               for c in range(len(paths))]
    # A report's columns are in the order the rows first set them.
    first_set = sorted((next(r for r, v in enumerate(col) if v is not None), c)
                       for c, col in enumerate(columns) if any(v is not None for v in col))
    inputs = tuple((paths[c], tuple(columns[c])) for _, c in first_set)
    t_total = draw(st.lists(st.one_of(finite, st.sampled_from(SPECIAL_VALUES[:8])),
                            min_size=rows, max_size=rows))
    kind = draw(st.sampled_from(AnalysisKind))
    extra = {}
    if kind is AnalysisKind.MONTE_CARLO:
        levels = sorted(draw(st.lists(finite, min_size=5, max_size=5)))
        extra = dict(percentiles=tuple(zip((5, 25, 50, 75, 95), levels)),
                     seed=draw(st.integers(0, 2**64 - 1)), sample_count=rows)
    elif kind is AnalysisKind.TORNADO:
        extra = dict(tornado_spreads=tuple(
            TornadoSpread(path, *draw(st.lists(finite, min_size=5, max_size=5)))
            for path, _ in inputs))
    return SensitivityReport(
        kind=kind,
        category=draw(st.sampled_from([s.name for s in CATALOG])),
        stage=draw(st.sampled_from(PROJECTABLE_STAGES)),
        baseline_t_total=draw(finite),
        inputs=inputs,
        t_total=tuple(t_total),
        calendar_year=tuple(draw(st.lists(st.integers(-10**6, 10**6), min_size=rows,
                                          max_size=rows))),
        gating=tuple(draw(st.lists(st.sampled_from(Gating), min_size=rows, max_size=rows))),
        summary=_summarize(t_total),
        **extra,
    )


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(report=column_reports(),
       title=st.one_of(st.none(), st.sampled_from(["Pinned title", 'a "quoted" title', "é"])),
       generated_at=st.one_of(st.none(), st.just("2026-08-19T12:30:00Z"),
                              st.just(datetime.datetime(2026, 8, 19, 12, 30,
                                                        tzinfo=datetime.timezone.utc))))
def test_column_reports_render_as_before(report, title, generated_at):
    assert_renders_match(report, title=title, generated_at=generated_at)


def hand_report(inputs, t_total):
    rows = len(t_total)
    return SensitivityReport(kind=AnalysisKind.SWEEP, category="Robo-Taxis", stage=S3,
                             baseline_t_total=40.0, inputs=inputs, t_total=t_total,
                             calendar_year=(2050,) * rows, gating=(Gating.COMPUTE,) * rows,
                             summary=_summarize(t_total))


def test_a_report_holds_one_column_per_input_path():
    """A JSON entry holds one member per path, so a second column of a path
    has no place there."""
    with pytest.raises(ValidationError, match=r"input paths must be distinct, got \['f', 'f'\]"):
        hand_report((("f", (0.5,)), ("f", (0.7,))), (1.0,))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("column", ["inputs", "t_total"])
def test_non_finite_numbers_render_as_before(value, column):
    """json.dumps writes NaN, Infinity and -Infinity, which json.loads reads."""
    values = (0.5, value, 2)
    report = hand_report((("f", values if column == "inputs" else (0.5, 0.6, 0.7)),),
                         values if column == "t_total" else (1.0, 2.0, 3.0))
    assert_renders_match(report, title="t")
    entry = json.loads(render_sensitivity(report, ReportFormat.JSON, title="t"))["entries"][1]
    assert repr(entry["inputs"]["f"] if column == "inputs" else entry["t_total"]) == repr(value)


@pytest.mark.parametrize("values", [(10**400, 2.5), (2.5, 10**400), (10**400, 1)], ids=str)
def test_an_int_beyond_float_range_renders_as_json_dumps_writes_it(values):
    report = hand_report((("n_objects", values),), (1.0, 2.0))
    for fmt in (ReportFormat.JSON, ReportFormat.CSV):
        with mock.patch.object(report_module, "_CHUNK_ROWS", 1):
            text = render_sensitivity(report, fmt, title="t")
        with mock.patch.object(report_module, "_entries_table", row_entries_table), \
                mock.patch.object(report_module, "_sensitivity_json_chunks", row_render_json):
            assert text == render_sensitivity(report, fmt, title="t")
