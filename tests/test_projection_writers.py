"""The field-table writers of projection reports against the hand-written
writers they replaced.

``render`` writes the CSV, Markdown and JSON renders of projection results
from one table of the fields of ``TimelineBreakdown`` and ``Intermediates``:
CSV rows from one expression compiled from it, Markdown sections and JSON
items woven a column at a time around the text of one item.  Every case
here renders the same results a second time with test-local copies of the
writers that came before (a CSV row and ten Markdown lines per result
written out field by field, ``json.dumps(indent=2)`` of the whole document,
and the text table) patched in, and requires byte-identical output in all
four formats.
"""

import dataclasses
import datetime
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from avhorizon import report as report_module
from avhorizon.errors import ValidationError
from avhorizon.report import ReportFormat, render
from avhorizon.scenario import builtin_catalog, project
from avhorizon.timeline import PROJECTABLE_STAGES

from test_columnar import scenarios

CATALOG = builtin_catalog()
STAMP = datetime.datetime(2026, 8, 19, 12, 30, tzinfo=datetime.timezone.utc)
NAMES = ("Robo-Taxis", "Robo, Taxis", 'Robo "Taxi"', "Robo|Taxis", "Robo\nTaxis",
         "Robo\rTaxis", "Robo\tTaxis", "Robo\u0085Taxis", "Robo-Taxïs é")


# ---------------------------------------------------------------------------
# The writers the field table replaced
# ---------------------------------------------------------------------------


CSV_COLUMNS = (
    "category", "stage",
    "t_comp_years", "t_crow_total_years", "t_crow_partial_years",
    "t_crow_final_years", "t_poisson_years", "t_prod_reg_years", "f",
    "t_total_years", "gating", "calendar_year",
    "naive_demand_log10", "effective_demand_log10",
    "crow_miles", "poisson_miles", "gamma", "delta_effective",
)


def row_csv_table(results):
    def rows():
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

    return report_module._Table(CSV_COLUMNS, rows())


def row_breakdown_sections(results):
    for r in results:
        b = r.breakdown
        yield from (
            "", f"## {report_module._escape_controls(r.category)}: {r.stage.display_name}", "",
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


def payload_json(results, title, timestamp):
    payload = {"title": title}
    if timestamp:
        payload["generated_at"] = timestamp
    payload["results"] = [{
        "category": r.category,
        "stage": r.stage.value,
        "breakdown": {
            "t_comp": r.breakdown.t_comp,
            "t_crow_total": r.breakdown.t_crow_total,
            "t_crow_partial": r.breakdown.t_crow_partial,
            "t_crow_final": r.breakdown.t_crow_final,
            "t_poisson": r.breakdown.t_poisson,
            "t_prod_reg": r.breakdown.t_prod_reg,
            "f": r.breakdown.f,
            "t_total": r.breakdown.t_total,
            "gating": r.breakdown.gating.value,
            "calendar_year": r.breakdown.calendar_year,
        },
        "intermediate": {
            "naive_demand": {"log10": r.intermediate.naive_demand.log10_value},
            "effective_demand": {"log10": r.intermediate.effective_demand.log10_value},
            "crow_miles": r.intermediate.crow_miles,
            "poisson_miles": r.intermediate.poisson_miles,
            "gamma": r.intermediate.gamma,
            "delta_effective": r.intermediate.delta_effective,
        },
    } for r in results]
    return json.dumps(payload, indent=2) + "\n"


def row_projection_table(results):
    def rows():
        for r in results:
            b = r.breakdown
            yield [report_module._escape_controls(r.category), r.stage.value,
                   f"{b.t_comp:.2f}", f"{b.t_crow_total:.2f}", f"{b.t_poisson:.2f}",
                   f"{b.t_prod_reg:.2f}", f"{b.t_total:.2f}", b.gating.value,
                   str(b.calendar_year)]

    headers = ["Category", "Stage", "T_comp", "T_crow", "T_poisson",
               "T_prod_reg", "T_total", "Gating", "Year"]
    return report_module._Table(headers, rows(), right_aligned={2, 3, 4, 5, 6, 8})


def assert_renders_match(results, **kwargs):
    """Render through the field table, then through the writers it replaced;
    the JSON one returns the whole text, which as a str is also an iterable
    of chunks."""
    for fmt in ReportFormat:
        text = render(results, fmt, **kwargs)
        with mock.patch.object(report_module, "_projection_csv_table", row_csv_table), \
                mock.patch.object(report_module, "_breakdown_sections", row_breakdown_sections), \
                mock.patch.object(report_module, "_projection_json_chunks", payload_json), \
                mock.patch.object(report_module, "_projection_table", row_projection_table):
            assert text == render(results, fmt, **kwargs), fmt


TITLES = [{}, {"title": "Pinned title", "generated_at": STAMP},
          {"title": 'a "quoted"\ntitle é', "generated_at": "2026-08-19T12:30:00Z"},
          {"generated_at": ""}]


@pytest.mark.parametrize("kwargs", TITLES)
def test_catalog_renders_as_before(catalog_results, kwargs):
    assert_renders_match(catalog_results, **kwargs)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("kwargs", TITLES[:2])
def test_names_render_as_before(name, kwargs):
    scenario = dataclasses.replace(CATALOG[5], name=name)
    assert_renders_match([project(scenario, stage) for stage in PROJECTABLE_STAGES], **kwargs)


@st.composite
def result_lists(draw):
    """1-6 projections of generated scenarios, each under one of NAMES."""
    results = []
    for _ in range(draw(st.integers(1, 6))):
        scenario = dataclasses.replace(draw(scenarios()), name=draw(st.sampled_from(NAMES)))
        try:
            results.append(project(scenario, draw(st.sampled_from(PROJECTABLE_STAGES))))
        except ValidationError:
            pass
    assume(results)
    return results


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(results=result_lists(), kwargs=st.sampled_from(TITLES))
def test_generated_results_render_as_before(results, kwargs):
    assert_renders_match(results, **kwargs)
