"""Tests for the table, CSV, JSON, and Markdown renderers."""

import csv
import dataclasses
import datetime
import hashlib
import io
import json
import pathlib
import re

import jsonschema
import pytest

from avhorizon import report as report_module
from avhorizon.errors import EmptyResultsError, ValidationError
from avhorizon.report import REPORT_SCHEMA, ReportFormat, render, render_sensitivity
from avhorizon.scenario import builtin_catalog, project
from avhorizon.sensitivity import (
    DistributionKind,
    DistributionSpec,
    ParameterBounds,
    SweepSpec,
    monte_carlo,
    one_at_a_time,
    set_parameter,
    tornado,
)
from avhorizon.timeline import PROJECTABLE_STAGES, Stage


@pytest.fixture(scope="module")
def single_result(catalog):
    return project(catalog["Industrial/Mining"], Stage.BROAD_COMMERCIAL)


class TestFormats:
    def test_format_from_key(self):
        assert ReportFormat.from_key("table") is ReportFormat.TABLE
        assert ReportFormat.from_key("csv") is ReportFormat.CSV
        assert ReportFormat.from_key("json") is ReportFormat.JSON
        assert ReportFormat.from_key("markdown") is ReportFormat.MARKDOWN
        with pytest.raises(ValidationError):
            ReportFormat.from_key("pdf")

    def test_empty_results_rejected_in_every_format(self):
        for fmt in ReportFormat:
            with pytest.raises(EmptyResultsError):
                render([], fmt, title="empty")


class TestTable:
    def test_columns_align_and_round_to_two_decimals(self, catalog_results):
        text = render(catalog_results, ReportFormat.TABLE, title="Catalog")
        lines = text.splitlines()
        assert lines[0] == "Catalog"
        header = next(l for l in lines if l.startswith("Category"))
        assert "T_total" in header and "Gating" in header and "Year" in header
        industrial = [l for l in lines if l.startswith("Industrial/Mining")]
        assert len(industrial) == 2
        assert "4.67" in industrial[1]
        assert "2029" in industrial[1]

    def test_row_order_matches_input_order(self, catalog_results):
        text = render(catalog_results, ReportFormat.TABLE, title="x")
        names = [l.split("  ")[0] for l in text.splitlines()
                 if l.startswith(("Consumer", "Robo", "Geo", "Highway",
                                  "Delivery", "Bespoke", "Military", "Industrial"))]
        expected = [r.category for r in catalog_results]
        assert names == expected


class TestCsv:
    def test_single_result_is_header_plus_one_row(self, single_result):
        text = render([single_result], ReportFormat.CSV, title="x")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("category,stage,")

    def test_line_count_is_rows_plus_one(self, catalog_results):
        text = render(catalog_results, ReportFormat.CSV, title="x")
        assert len(text.splitlines()) == len(catalog_results) + 1

    def test_values_round_trip_through_csv(self, single_result):
        text = render([single_result], ReportFormat.CSV, title="x")
        (row,) = list(csv.DictReader(io.StringIO(text)))
        b = single_result.breakdown
        assert row["category"] == "Industrial/Mining"
        assert row["stage"] == "stage3"
        assert float(row["t_total_years"]) == b.t_total
        assert float(row["t_crow_total_years"]) == b.t_crow_total
        assert int(row["calendar_year"]) == b.calendar_year
        assert row["gating"] == "reliability-gated"
        assert float(row["poisson_miles"]) == single_result.intermediate.poisson_miles

    def test_category_names_need_no_quoting(self, catalog_results):
        text = render(catalog_results, ReportFormat.CSV, title="x")
        assert '"' not in text

    @pytest.mark.parametrize("name", ["Robo-Taxis", "Robo, Taxis", 'Robo "Taxi"',
                                      "Robo\nTaxis", "Robo\rTaxis", " Robo-Taxis "])
    def test_csv_bytes_match_csv_writer(self, catalog, name):
        # Cells are joined directly unless one needs quoting; either way the
        # bytes are those csv.writer writes.
        scenario = dataclasses.replace(catalog["Robo-Taxis"], name=name)
        results = [project(scenario, stage) for stage in (Stage.REVENUE_SERVICE,
                                                          Stage.BROAD_COMMERCIAL)]
        table = report_module._projection_csv_table(results)
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([table.headers, *table.rows])
        assert render(results, ReportFormat.CSV, title="x") == expected.getvalue()

    @pytest.mark.parametrize("headers, rows", [
        (["a"], [[""], ["b"]]),
        (["a", "b"], [["", ""], ["1", "2,3"]]),
        (["a", "b"], []),
    ])
    def test_small_csv_tables_match_csv_writer(self, headers, rows):
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([headers, *rows])
        text = report_module._csv_text(report_module._Table(headers, rows))
        assert text == expected.getvalue()


class TestJson:
    def test_round_trip_accuracy(self, catalog_results):
        text = render(catalog_results, ReportFormat.JSON, title="Catalog")
        doc = json.loads(text)
        assert doc["title"] == "Catalog"
        assert len(doc["results"]) == len(catalog_results)
        for obj, r in zip(doc["results"], catalog_results):
            assert obj["category"] == r.category
            assert obj["stage"] == r.stage.value
            b = obj["breakdown"]
            assert b["t_total"] == pytest.approx(r.breakdown.t_total, rel=1e-12)
            assert b["t_comp"] == pytest.approx(r.breakdown.t_comp, abs=1e-12)
            assert b["calendar_year"] == r.breakdown.calendar_year
            assert b["gating"] == r.breakdown.gating.value
            inter = obj["intermediate"]
            assert inter["naive_demand"]["log10"] == pytest.approx(
                r.intermediate.naive_demand.log10_value, rel=1e-12)
            assert inter["crow_miles"] == pytest.approx(
                r.intermediate.crow_miles, rel=1e-12)

    def test_validates_against_documented_schema(self, catalog_results):
        doc = json.loads(render(catalog_results, ReportFormat.JSON, title="x"))
        jsonschema.validate(doc, REPORT_SCHEMA, cls=jsonschema.Draft202012Validator)

    def test_docs_copy_matches_module_schema(self):
        docs = pathlib.Path(__file__).resolve().parent.parent / "docs" / "report_schema.json"
        assert json.loads(docs.read_text()) == REPORT_SCHEMA


class TestSignedZero:
    """A confidence so small that 1 - confidence rounds to 1.0 needs zero
    demonstration miles, printed as 0.0 and never as -0.0."""

    @pytest.fixture(scope="class")
    def result(self, catalog):
        scenario = set_parameter(catalog["Robo-Taxis"], "poisson.confidence", 1e-17)
        return project(scenario, Stage.BROAD_COMMERCIAL)

    def test_csv_prints_zero_poisson_span_and_miles(self, result):
        (row,) = csv.DictReader(io.StringIO(render([result], ReportFormat.CSV)))
        assert (row["t_poisson_years"], row["poisson_miles"]) == ("0.0", "0.0")

    def test_json_prints_zero_poisson_span_and_miles(self, result):
        text = render([result], ReportFormat.JSON)
        assert '"t_poisson": 0.0,' in text and '"poisson_miles": 0.0,' in text
        assert "-0.0" not in text


class TestMarkdown:
    def test_stage_table_shape(self, catalog_results):
        text = render(catalog_results, ReportFormat.MARKDOWN, title="Catalog")
        lines = text.splitlines()
        assert lines[0] == "# Catalog"
        assert "| Category | Revenue Service (Stage 2) | Broad Commercialization (Stage 3) |" in lines
        row = next(l for l in lines if l.startswith("| Industrial/Mining"))
        cells = [c.strip() for c in row.strip("|").split("|")]
        # within the documented tolerances of the reference years 2026 / 2029
        assert abs(int(cells[1]) - 2026) <= 2
        assert abs(int(cells[2]) - 2029) <= 1

    def test_breakdown_sections_list_every_field(self, single_result):
        text = render([single_result], ReportFormat.MARKDOWN, title="x")
        assert "## Industrial/Mining: Broad Commercialization (Stage 3)" in text
        for label in ("t_comp", "t_crow_total", "t_crow_partial", "t_crow_final",
                      "t_poisson", "t_prod_reg", "f", "t_total", "gating",
                      "calendar_year"):
            assert label in text

    def test_missing_stage_cell_rendered_as_na(self, single_result):
        text = render([single_result], ReportFormat.MARKDOWN, title="x")
        row = next(l for l in text.splitlines() if l.startswith("| Industrial/Mining"))
        assert "n/a" in row

    def test_each_row_has_as_many_cells_as_its_header(self, catalog):
        scenario = dataclasses.replace(catalog["Geo-fenced Vans/Buses"], name="Vans | Buses")
        text = render([project(scenario, stage) for stage in PROJECTABLE_STAGES],
                      ReportFormat.MARKDOWN, title="x")
        rows = [line for line in text.splitlines() if line.startswith("|")]
        assert len(rows) == 3 and "| Vans \\| Buses |" in rows[2]
        assert {len(re.split(r"(?<!\\)\|", row)) for row in rows} == {5}

    def test_fractional_years_shown_to_two_decimals(self, single_result):
        text = render([single_result], ReportFormat.MARKDOWN, title="x")
        assert "4.67" in text


class TestControlCharacters:
    """Text and Markdown write a control character as JSON escapes it, so
    a name holding a newline keeps its row and its heading on one line;
    CSV and JSON carry the name as it is."""

    NAME = "Vans\nBuses\t\x00\x7f\x85"
    ESCAPED = "Vans\\nBuses\\t\\u0000\\u007f\\u0085"

    @pytest.fixture
    def results(self, catalog):
        scenario = dataclasses.replace(catalog["Geo-fenced Vans/Buses"], name=self.NAME)
        return [project(scenario, stage) for stage in PROJECTABLE_STAGES]

    def test_table_rows_keep_to_one_line_and_align(self, results):
        lines = render(results, ReportFormat.TABLE, title="x").splitlines()
        assert len(lines) == 4 + len(results)  # title, blank line, header, rule, rows
        assert [line.split("  ")[0] for line in lines[4:]] == [self.ESCAPED] * 2
        assert lines[3].startswith("-" * len(self.ESCAPED) + "  ")

    def test_markdown_rows_and_headings_keep_to_one_line(self, results):
        lines = render(results, ReportFormat.MARKDOWN, title="x").splitlines()
        rows = [line for line in lines if line.startswith("|")]
        assert len(rows) == 3 and rows[2].startswith(f"| {self.ESCAPED} | ")
        assert [line for line in lines if line.startswith("## ")] == [
            f"## {self.ESCAPED}: {stage.display_name}" for stage in PROJECTABLE_STAGES]

    @pytest.mark.parametrize("fmt, heading", [(ReportFormat.TABLE, "Line\\nbreak"),
                                              (ReportFormat.MARKDOWN, "# Line\\nbreak")])
    def test_title_keeps_to_one_line(self, results, fmt, heading):
        assert render(results, fmt, title="Line\nbreak").splitlines()[0] == heading

    @pytest.mark.parametrize("fmt", [ReportFormat.TABLE, ReportFormat.MARKDOWN])
    def test_sensitivity_heading_keeps_to_one_line(self, catalog, fmt):
        scenario = dataclasses.replace(catalog["Robo-Taxis"], name=self.NAME)
        report = one_at_a_time(scenario, Stage.BROAD_COMMERCIAL, SweepSpec("f", (0.2, 0.9)))
        first = render_sensitivity(report, fmt).splitlines()[0]
        assert first.endswith(f"sensitivity: {self.ESCAPED} (stage3)")

    def test_csv_and_json_hold_the_name_as_it_is(self, results):
        rows = list(csv.reader(io.StringIO(render(results, ReportFormat.CSV), newline="")))
        assert [row[0] for row in rows[1:]] == [self.NAME] * 2
        document = json.loads(render(results, ReportFormat.JSON))
        assert [r["category"] for r in document["results"]] == [self.NAME] * 2


class TestTimestamps:
    def test_render_without_timestamp_is_reproducible(self, single_result):
        a = render([single_result], ReportFormat.JSON, title="x")
        b = render([single_result], ReportFormat.JSON, title="x")
        assert a == b
        assert "generated_at" not in json.loads(a)

    def test_injected_timestamp_is_rfc3339_utc(self, single_result):
        stamp = datetime.datetime(2026, 8, 19, 12, 30, tzinfo=datetime.timezone.utc)
        text = render([single_result], ReportFormat.JSON, title="x",
                      generated_at=stamp)
        assert json.loads(text)["generated_at"] == "2026-08-19T12:30:00Z"

    def test_naive_timestamp_rejected(self, single_result):
        with pytest.raises(ValidationError):
            render([single_result], ReportFormat.JSON, title="x",
                   generated_at=datetime.datetime(2026, 8, 19, 12, 30))


@pytest.fixture(scope="module")
def sweep_report(catalog):
    return one_at_a_time(catalog["Robo-Taxis"], Stage.BROAD_COMMERCIAL,
                         SweepSpec("crow.beta", (0.35, 0.4, 0.45)))


@pytest.fixture(scope="module")
def tornado_report(catalog):
    return tornado(catalog["Robo-Taxis"], Stage.BROAD_COMMERCIAL, [
        ParameterBounds("crow.beta", 0.35, 0.45),
        ParameterBounds("crow.severity", 1.0, 3.0),
    ])


@pytest.fixture(scope="module")
def mc_report(catalog):
    dist = DistributionSpec("crow.beta", DistributionKind.UNIFORM,
                            low=0.35, high=0.45)
    return monte_carlo(catalog["Robo-Taxis"], Stage.BROAD_COMMERCIAL,
                       [dist], sample_count=64, seed=9)


class TestSensitivityRendering:
    def test_sweep_render_all_formats(self, sweep_report):
        for fmt in ReportFormat:
            text = render_sensitivity(sweep_report, fmt, title="sweep")
            assert "crow.beta" in text

    def test_tornado_render_mentions_spreads(self, tornado_report):
        text = render_sensitivity(tornado_report, ReportFormat.TABLE, title="t")
        assert "crow.severity" in text and "crow.beta" in text
        doc = json.loads(render_sensitivity(tornado_report, ReportFormat.JSON, title="t"))
        assert doc["kind"] == "tornado"
        assert len(doc["tornado_spreads"]) == 2

    def test_mc_render_includes_percentiles_and_seed(self, mc_report):
        doc = json.loads(render_sensitivity(mc_report, ReportFormat.JSON, title="m"))
        assert doc["seed"] == 9
        assert doc["sample_count"] == 64
        assert list(doc["percentiles"]) == ["p5", "p25", "p50", "p75", "p95"]
        values = list(doc["percentiles"].values())
        assert values == sorted(values)
        table = render_sensitivity(mc_report, ReportFormat.TABLE, title="m")
        assert "p50" in table

    def test_mc_csv_line_count(self, mc_report):
        text = render_sensitivity(mc_report, ReportFormat.CSV, title="m")
        assert len(text.splitlines()) == 64 + 1

    @pytest.mark.parametrize("path", ["crow.beta", "t_total"])
    @pytest.mark.parametrize("fmt", ReportFormat)
    def test_an_integer_beyond_float_range(self, sweep_report, path, fmt):
        """The text and Markdown renders, which round every number, name the
        column of an int beyond float range; CSV and JSON write it as given."""
        if path == "t_total":
            huge = dataclasses.replace(sweep_report, t_total=(0.5, 10**400, 1.5))
        else:
            huge = dataclasses.replace(sweep_report, inputs=((path, (0.35, 10**400, 0.45)),))
        if fmt in (ReportFormat.CSV, ReportFormat.JSON):
            assert str(10**400) in render_sensitivity(huge, fmt)
        else:
            with pytest.raises(ValidationError) as caught:
                render_sensitivity(huge, fmt)
            assert str(caught.value) == f"{path} is an integer beyond float range (1329 bits)"

    def test_empty_sensitivity_rejected(self, catalog):
        empty = tornado(catalog["Robo-Taxis"], Stage.BROAD_COMMERCIAL, [])
        with pytest.raises(EmptyResultsError):
            render_sensitivity(empty, ReportFormat.TABLE, title="t")


@pytest.fixture(scope="module")
def integer_sweep_report(catalog):
    return one_at_a_time(catalog["Robo-Taxis"], Stage.BROAD_COMMERCIAL,
                         SweepSpec("n_objects", (40, 45, 50)))


@pytest.fixture(scope="module")
def two_distribution_mc_report(catalog):
    return monte_carlo(catalog["Robo-Taxis"], Stage.BROAD_COMMERCIAL, [
        DistributionSpec("crow.beta", DistributionKind.UNIFORM, low=0.35, high=0.45),
        DistributionSpec("f", DistributionKind.TRIANGULAR, low=0.5, mode=0.7, high=0.9),
    ], sample_count=32, seed=3)


# SHA-256 of every render below, recorded from the per-format renderers
# that preceded the shared table model.  Unstamped renders use the
# default title; stamped renders use a custom title and _STAMP.
_STAMP = datetime.datetime(2026, 8, 19, 12, 30, tzinfo=datetime.timezone.utc)
_RENDER_DIGESTS = {
    ("integer_sweep_report", "table", False):
        "ea1f48bbb30303d113660bb8e33b0c92952651ce7d06146ae3f475b1255473f9",
    ("integer_sweep_report", "table", True):
        "41d05c78e6712b68ae7a9bc20fa9845ae07c1c514578be902ac7a6544234f683",
    ("integer_sweep_report", "csv", False):
        "dab85f93bb69215420e8a61de34b91eba68cfdac5ae00a7f3a3985a4a1d9cb97",
    ("integer_sweep_report", "csv", True):
        "dab85f93bb69215420e8a61de34b91eba68cfdac5ae00a7f3a3985a4a1d9cb97",
    ("integer_sweep_report", "json", False):
        "0d7dee02bccceaeefad1138dbca7773185d27328c7bc405cd197bc318591f5cc",
    ("integer_sweep_report", "json", True):
        "7b0a046fd9dfe3d1e7b9bddca9d9d8935763e3d5c2edc1258d6fc5b667f52485",
    ("integer_sweep_report", "markdown", False):
        "07ce9881f55c45f3741aca7430be05be3bbd4a464c8d0a7bddf319409a3099f6",
    ("integer_sweep_report", "markdown", True):
        "d7b62a1f8839bc58be8c63f0130af01885e5f1c76957de22b29fc5981de37c94",
    ("mc_report", "table", False):
        "e1f15b01639df35ad4782c60621bf44e9a67db514bf7ae45e0c842c0da3f44fb",
    ("mc_report", "table", True):
        "ab53130f2f499b0c94130ec6a055840b39bc1ac0d298bf7d45244edb602d3dfc",
    ("mc_report", "csv", False):
        "8ce6e60852e8b17a3cce5a7c31fc2dc1d6aeae4a0247529f749b4f5986b87fcd",
    ("mc_report", "csv", True):
        "8ce6e60852e8b17a3cce5a7c31fc2dc1d6aeae4a0247529f749b4f5986b87fcd",
    ("mc_report", "json", False):
        "b97e43c50bdb37ec876909ab9457b8ec36f09223460d16ec9aae525ab89e85bf",
    ("mc_report", "json", True):
        "b0309e242ee1eea9687d477e459c3b1a5c3c6ac4598d1de8250bffdc774cec5e",
    ("mc_report", "markdown", False):
        "c7f28da4648e565bfee2115de3a11355ad6c70f36821d126c5c3e6cbafd182ae",
    ("mc_report", "markdown", True):
        "68312f53f085d88fd670214a7718f5ca16470dd9643bfff16ab80a76acb0e2c2",
    ("projections", "table", False):
        "7f8c9c3b07d35f542986464fca66c5576dd5b478c7fbda1e7be328f7ab078076",
    ("projections", "table", True):
        "a404ebe6da75598c3f742800583ce3fbb3cd715bb31af84d7c18a101ca1673ff",
    ("projections", "csv", False):
        "c593738c06fc826d23cad0b5090952d3e76c7a381f4026cfdf9cb8aa6e1c1c23",
    ("projections", "csv", True):
        "c593738c06fc826d23cad0b5090952d3e76c7a381f4026cfdf9cb8aa6e1c1c23",
    ("projections", "json", False):
        "b0e4ddd8523e2cf4188e42e6ae75ba1e15719dbe6118172ee8e570741e524df0",
    ("projections", "json", True):
        "c88c43b6d2f56b08a10151150e2cedcaddc3d57c327f1d4e5ecd031d19a12f2e",
    ("projections", "markdown", False):
        "6c3186a780924d2fa76e42342eb3abe614c5d955d44e97954ef125748a7cc7a4",
    ("projections", "markdown", True):
        "bb9a29de279002ec36d10f6a8c344f19c04360d05677a35a7fd1a35401a26b39",
    ("sweep_report", "table", False):
        "8299bdc7ec400a8ce8c62e6a4ff9413fd15a79f17ad8ec1b6594f43e88c79771",
    ("sweep_report", "table", True):
        "2b896c120ed99449d804cfd7715367a8f3359b9b3c112043c53132b75cb9c1a3",
    ("sweep_report", "csv", False):
        "b7d3311e9012283f0802256968fdbfc853886e56fb3c23179a011554472e597d",
    ("sweep_report", "csv", True):
        "b7d3311e9012283f0802256968fdbfc853886e56fb3c23179a011554472e597d",
    ("sweep_report", "json", False):
        "85f31fc29843724ca8cdbe3bb9d7b546130f531a41d8bd62c736668bc762b128",
    ("sweep_report", "json", True):
        "25976222437facc29e48a9ccf31a6d99e171aa2c218d627f7a64ba472fa3af4b",
    ("sweep_report", "markdown", False):
        "f44ceb6c5ce8221f0ccca0155f50b31f4ae8dc80ce070e8ee5583431af434056",
    ("sweep_report", "markdown", True):
        "174b00ab251c9fccc5f15c39aed87435f3322e60de09308b4aca17b57f5d1d9a",
    ("tornado_report", "table", False):
        "00cc4babdb946b8e079751cd178aca50cdfcd88a0c9536be0bb710bfbf424a91",
    ("tornado_report", "table", True):
        "b95d2e2c2bc391a1d5200c1c53644b3abf84f34165341574cb17edf1db390873",
    ("tornado_report", "csv", False):
        "9fdfcae018521521cf56a2cd95d1b6108ece03afc8114a11bcf8285cdc8b21a8",
    ("tornado_report", "csv", True):
        "9fdfcae018521521cf56a2cd95d1b6108ece03afc8114a11bcf8285cdc8b21a8",
    ("tornado_report", "json", False):
        "19a64f6232736dbc48a06bf21ef23005fc3d43e152b0de5f8390927246530df0",
    ("tornado_report", "json", True):
        "cedd27ccfbe168c170d99f307746e8c5227dc471b284ccfead538dbbbc75e694",
    ("tornado_report", "markdown", False):
        "6f5ead985af55fcc1a6b189a51c35abcc91906517c12d438b1ab8433687fc481",
    ("tornado_report", "markdown", True):
        "f28b33fb70111805c8d6aeded77aa80244bd6890a86706ec10489b2b1cc78806",
    ("two_distribution_mc_report", "table", False):
        "586240a8f0aff65eca8368df53764afd3663ce0eaaa8487eefdbb4d827e56c7e",
    ("two_distribution_mc_report", "table", True):
        "270222597bc6b035669099cdbb6c1acb42d74c930c17ca3a3ae9a1f9eeb57e27",
    ("two_distribution_mc_report", "csv", False):
        "9e525eaeb5dd6c0e97f365150965d71cb295b982f6ae4c6ae32bf4049060f3f6",
    ("two_distribution_mc_report", "csv", True):
        "9e525eaeb5dd6c0e97f365150965d71cb295b982f6ae4c6ae32bf4049060f3f6",
    ("two_distribution_mc_report", "json", False):
        "060ee6b71fde5e360d39f3713eb6e76b29f84c85c6fb86407fdbf93532a904a5",
    ("two_distribution_mc_report", "json", True):
        "6064fd58c48509bab4aab728a558a6f764d9a518a159ace5dab98ed8b3b54a65",
    ("two_distribution_mc_report", "markdown", False):
        "4bffc6ec40428d3a1f266a499a6469c0e06a3fe2af5bf1356680f654517dcd53",
    ("two_distribution_mc_report", "markdown", True):
        "6cab70dc31862a35c48c6eb4462aaac544bc3755ad248a949270c33f0a97342f",
}


class TestRenderBytes:
    @pytest.mark.parametrize("report, fmt, stamped", sorted(_RENDER_DIGESTS))
    def test_output_bytes_are_pinned(self, request, report, fmt, stamped):
        kwargs = {"title": "Pinned title", "generated_at": _STAMP} if stamped else {}
        if report == "projections":
            text = render(request.getfixturevalue("catalog_results"),
                          ReportFormat(fmt), **kwargs)
        else:
            text = render_sensitivity(request.getfixturevalue(report),
                                      ReportFormat(fmt), **kwargs)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == _RENDER_DIGESTS[(report, fmt, stamped)]
