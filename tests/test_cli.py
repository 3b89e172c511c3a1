"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from avhorizon import cli, report, sensitivity
from avhorizon.errors import _in_interval
from avhorizon.report import ReportFormat, render_sensitivity
from avhorizon.scenario import SCENARIO_SCHEMA, builtin_catalog, serialize_scenarios
from avhorizon.sensitivity import (
    DistributionKind,
    DistributionSpec,
    monte_carlo,
    valid_parameter_paths,
)
from avhorizon.timeline import Stage


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "avhorizon", *args],
        capture_output=True, text=True, **kwargs,
    )


def _stack_depth() -> int:
    """Frames on the caller's stack."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def assert_single_error_line(capsys, *args):
    """cli.main exits 1 with one "error:" line; a traceback escapes as an exception."""
    assert cli.main(list(args)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    return err


class TestCatalogCommand:
    def test_markdown_catalog_covers_all_categories(self):
        proc = run_cli("catalog", "--stage", "all", "--format", "markdown")
        assert proc.returncode == 0
        for name in ("Consumer Automotive", "Robo-Taxis", "Geo-fenced Vans/Buses",
                     "Highway Trucking", "Delivery Vans", "Bespoke Shuttles",
                     "Military/Defense", "Industrial/Mining"):
            assert name in proc.stdout
        assert "| Category | Revenue Service (Stage 2) | Broad Commercialization (Stage 3) |" in proc.stdout

    def test_default_table_output(self):
        proc = run_cli("catalog")
        assert proc.returncode == 0
        assert "Industrial/Mining" in proc.stdout
        assert "2029" in proc.stdout

    def test_single_category_filter(self):
        proc = run_cli("catalog", "--category", "Robo-Taxis", "--stage", "3",
                       "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert len(doc["results"]) == 1
        assert doc["results"][0]["category"] == "Robo-Taxis"
        assert doc["results"][0]["breakdown"]["calendar_year"] == 2081

    def test_unknown_category_lists_valid_names(self):
        proc = run_cli("catalog", "--category", "Unknown Cat")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
        assert "Robo-Taxis" in proc.stderr

    def test_stage_one_is_unsupported(self):
        proc = run_cli("catalog", "--stage", "1")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_output_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.csv"
        proc = run_cli("catalog", "--format", "csv", "--output", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 17  # header + 8 categories x 2 stages


class TestProjectCommand:
    def test_project_from_file(self, tmp_path):
        doc = tmp_path / "custom.json"
        doc.write_text(serialize_scenarios(builtin_catalog()))
        proc = run_cli("project", "--file", str(doc), "--category", "Robo-Taxis",
                       "--stage", "3", "--format", "json")
        assert proc.returncode == 0
        results = json.loads(proc.stdout)["results"]
        assert len(results) == 1
        assert results[0]["breakdown"]["calendar_year"] == 2081

    def test_missing_file_reports_path(self):
        proc = run_cli("project", "--file", "/no/such/file.json")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "/no/such/file.json" in proc.stderr

    def test_invalid_document_is_a_validation_error(self, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_text('{"scenarios": [{"name": "Consumer Automotive", "crow": {"beta": 1.2}}]}')
        proc = run_cli("project", "--file", str(doc))
        assert proc.returncode == 1
        assert "beta" in proc.stderr


    @pytest.mark.parametrize("fmt", ["table", "csv", "markdown"])
    def test_a_name_utf8_cannot_encode_fails_before_creating_the_output(self, tmp_path,
                                                                       capsys, fmt):
        doc = tmp_path / "doc.json"
        doc.write_text(renamed_document("Bad \ud800 name"))
        output = tmp_path / "out"
        err = assert_single_error_line(capsys, "project", "--file", str(doc), "--format", fmt,
                                       "--output", str(output))
        assert err == ("error: scenario name must be text that UTF-8 can encode, "
                       "got 'Bad \\ud800 name'\n")
        assert not output.exists()

    def test_output_the_stream_cannot_encode_is_one_error_line(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(renamed_document("Café shuttles"))
        proc = run_cli("project", "--file", str(doc), "--format", "csv",
                       env={**os.environ, "PYTHONIOENCODING": "ascii"})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: 'ascii' codec can't encode character '\\xe9'")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


def renamed_document(name: str) -> str:
    """A document of the first catalog category, named ``name``."""
    (entry,) = json.loads(serialize_scenarios(builtin_catalog()[:1]))["scenarios"]
    return json.dumps({"scenarios": [{**entry, "name": name}]})


class TestSweepCommand:
    def test_inline_values(self):
        proc = run_cli("sweep", "--category", "Consumer Automotive",
                       "--param", "crow.beta", "--values", "0.3,0.4,0.5",
                       "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["kind"] == "sweep"
        assert [e["inputs"]["crow.beta"] for e in doc["entries"]] == [0.3, 0.4, 0.5]

    def test_grid_flag(self):
        proc = run_cli("sweep", "--category", "Consumer Automotive",
                       "--param", "crow.beta", "--grid", "0.3:0.5:5",
                       "--format", "json")
        assert proc.returncode == 0
        entries = json.loads(proc.stdout)["entries"]
        betas = [e["inputs"]["crow.beta"] for e in entries]
        assert betas[0] == 0.3 and betas[-1] == 0.5 and len(betas) == 5

    def test_spec_file_matches_inline(self, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"parameter_path": "crow.beta",
                                    "values": [0.3, 0.4, 0.5]}))
        a = run_cli("sweep", "--category", "Consumer Automotive",
                    "--spec-file", str(spec), "--format", "json")
        b = run_cli("sweep", "--category", "Consumer Automotive",
                    "--param", "crow.beta", "--values", "0.3,0.4,0.5",
                    "--format", "json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_non_integer_values_stay_floats(self, capsys):
        assert cli.main(["sweep", "--category", "Robo-Taxis", "--param", "crow.severity",
                         "--values", "2,2.5,3e0", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert [e["inputs"]["crow.severity"] for e in entries] == [2, 2.5, 3.0]
        assert [type(e["inputs"]["crow.severity"]) for e in entries] == [int, float, float]

    def test_integer_token_past_the_digit_limit_reads_as_a_float(self, capsys):
        err = assert_single_error_line(capsys, "sweep", "--category", "Robo-Taxis",
                                       "--param", "crow.beta", "--values", "1" + "0" * 5000)
        assert err == ("error: sweep over 'crow.beta': value=inf outside permitted range "
                       "(-inf, inf)\n")

    def test_values_and_grid_conflict_is_usage_error(self):
        proc = run_cli("sweep", "--category", "Consumer Automotive",
                       "--param", "crow.beta", "--values", "0.3",
                       "--grid", "0.3:0.5:3")
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_missing_param_is_usage_error(self):
        proc = run_cli("sweep", "--category", "Consumer Automotive",
                       "--values", "0.3")
        assert proc.returncode == 2

    def test_unknown_parameter_lists_paths(self):
        proc = run_cli("sweep", "--category", "Consumer Automotive",
                       "--param", "bogus.path", "--values", "1")
        assert proc.returncode == 1
        assert "crow.beta" in proc.stderr

    def test_beta_whose_mileage_overflows_is_a_validation_error(self, capsys):
        err = assert_single_error_line(capsys, "sweep", "--category", "Robo-Taxis",
                                       "--param", "crow.beta", "--values", "0.01")
        assert "crow.beta" in err

    def test_stage_all_invalid_for_sensitivity(self):
        proc = run_cli("sweep", "--category", "Consumer Automotive",
                       "--param", "crow.beta", "--values", "0.4",
                       "--stage", "all")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")


class TestTornadoCommand:
    def test_inline_bounds(self):
        proc = run_cli("tornado", "--category", "Highway Trucking",
                       "--bound", "crow.severity=1,5",
                       "--bound", "crow.alpha=0.00009,0.00011",
                       "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["kind"] == "tornado"
        assert doc["tornado_spreads"][0]["parameter_path"] == "crow.severity"

    def test_no_bounds_is_usage_error(self):
        proc = run_cli("tornado", "--category", "Highway Trucking")
        assert proc.returncode == 2

    def test_spec_file_and_inline_conflict(self, tmp_path):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps(
            {"bounds": [{"parameter_path": "crow.beta", "low": 0.35, "high": 0.45}]}))
        proc = run_cli("tornado", "--category", "Highway Trucking",
                       "--spec-file", str(spec),
                       "--bound", "crow.severity=1,5")
        assert proc.returncode == 2

    def test_spec_file_alone_works(self, tmp_path):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps(
            {"bounds": [{"parameter_path": "crow.beta", "low": 0.35, "high": 0.45}]}))
        proc = run_cli("tornado", "--category", "Highway Trucking",
                       "--spec-file", str(spec), "--format", "json")
        assert proc.returncode == 0
        (spread,) = json.loads(proc.stdout)["tornado_spreads"]
        assert spread["parameter_path"] == "crow.beta"


class TestMonteCarloCommand:
    ARGS = ("mc", "--category", "Consumer Automotive", "--stage", "3",
            "--dist", "crow.beta=uniform:0.3,0.5", "--samples", "1000",
            "--seed", "42", "--format", "json")

    def test_two_runs_are_byte_identical(self):
        a = run_cli(*self.ARGS)
        b = run_cli(*self.ARGS)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("paths", [("crow.beta",), (
        "crow.beta", "f", "crow.severity", "annual_miles", "gamma_override",
        "poisson.confidence")], ids=["one-philox-block", "two-philox-blocks"])
    def test_bytes_do_not_depend_on_blas_threads(self, paths):
        bounds = {"crow.beta": "0.3,0.5", "f": "0.5,0.9", "crow.severity": "1,3",
                  "annual_miles": "5e8,2e9", "gamma_override": "0.2,1.2",
                  "poisson.confidence": "0.9,0.99"}
        dists = [arg for path in paths for arg in ("--dist", f"{path}=uniform:{bounds[path]}")]
        unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        for fmt in ("csv", "json"):
            args = ("mc", "--category", "Robo-Taxis", *dists, "--samples", "2000",
                    "--seed", "11", "--format", fmt)
            one = run_cli(*args, env=unset)
            two = run_cli(*args, env={**unset, "OPENBLAS_NUM_THREADS": "2"})
            assert one.returncode == two.returncode == 0, one.stderr + two.stderr
            assert one.stdout == two.stdout

    def test_triangular_dist_flag(self):
        proc = run_cli("mc", "--category", "Robo-Taxis",
                       "--dist", "crow.beta=triangular:0.3,0.4,0.5",
                       "--samples", "16", "--seed", "1", "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["sample_count"] == 16

    def test_missing_dist_is_usage_error(self):
        proc = run_cli("mc", "--category", "Robo-Taxis")
        assert proc.returncode == 2

    def test_malformed_dist_flag(self):
        proc = run_cli("mc", "--category", "Robo-Taxis",
                       "--dist", "crow.beta=gaussian:0.3,0.5")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("samples", [3, sensitivity._MC_ROW_LIMIT + 1],
                             ids=["rows", "columns"])
    @pytest.mark.parametrize("path, low, mode, high", [
        # The plain product u * span * (mode - low) overflowed: a sample of
        # -inf was rejected (exit 1).
        ("annual_miles", 1e5, 1e150, 1e155),
        # It underflowed to 0: every sample was the low bound.
        ("cycle_time_s", 1e-300, 2e-300, 3e-300),
    ])
    def test_triangular_product_out_of_float_range(self, samples, path, low, mode, high):
        proc = run_cli("mc", "--category", "Robo-Taxis", "--format", "json", "--seed", "1",
                       "--dist", f"{path}=triangular:{low!r},{mode!r},{high!r}",
                       "--samples", str(samples))
        assert proc.returncode == 0 and proc.stderr == ""  # and no numpy warning
        values = [entry["inputs"][path] for entry in json.loads(proc.stdout)["entries"]]
        assert len(values) == samples and all(low < value <= high for value in values)


class TestStreamedOutput:
    """CSV and JSON analysis output is written chunk by chunk as it is made."""

    SAMPLES = report._CHUNK_ROWS + 5  # two chunks of entries
    MC = ("mc", "--category", "Robo-Taxis", "--dist", "crow.beta=uniform:0.35,0.55",
          "--seed", "3")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_and_output_file_hold_the_render(self, tmp_path, fmt):
        args = [sys.executable, "-m", "avhorizon", *self.MC, "--samples", str(self.SAMPLES),
                "--format", fmt]
        piped = subprocess.run(args, capture_output=True, check=True).stdout
        path = tmp_path / f"mc.{fmt}"
        subprocess.run([*args, "--output", str(path)], check=True)
        analysis = monte_carlo(
            builtin_catalog()[1], Stage.BROAD_COMMERCIAL,
            [DistributionSpec("crow.beta", DistributionKind.UNIFORM, 0.35, 0.55)],
            self.SAMPLES, 3)
        expected = render_sensitivity(analysis, ReportFormat(fmt)).encode("utf-8")
        assert piped == path.read_bytes() == expected

    @pytest.mark.parametrize("fmt", ["table", "csv", "json", "markdown"])
    def test_empty_tornado_fails_before_creating_the_output(self, tmp_path, capsys, fmt):
        spec = tmp_path / "spec.json"
        spec.write_text('{"bounds": []}')
        output = tmp_path / "out"
        err = assert_single_error_line(capsys, "tornado", "--category", "Robo-Taxis",
                                       "--spec-file", str(spec), "--format", fmt,
                                       "--output", str(output))
        assert err == "error: cannot render a sensitivity report with no entries\n"
        assert not output.exists()

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_output_into_a_missing_directory(self, tmp_path, capsys, fmt):
        err = assert_single_error_line(capsys, *self.MC, "--samples", "10", "--format", fmt,
                                       "--output", str(tmp_path / "missing" / "out"))
        assert "No such file or directory" in err


# Starts the command given as arguments and prints its exit code and peak
# resident size in KiB.
PEAK_RSS_HELPER = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads wait4's ru_maxrss in KiB")
def test_large_json_report_is_written_in_bounded_memory(tmp_path):
    # The command starts from a small helper process: a child that this
    # (larger) process started with vfork would report this process's
    # resident high-water mark as its own.
    def peak_mib(samples):
        command = [sys.executable, "-m", "avhorizon", "mc", "--category", "Robo-Taxis",
                   "--dist", "crow.beta=uniform:0.35,0.55", "--dist", "f=uniform:0.6,0.8",
                   "--samples", str(samples), "--format", "json",
                   "--output", str(tmp_path / "mc.json")]
        helper = subprocess.run([sys.executable, "-c", PEAK_RSS_HELPER, *command],
                                capture_output=True, text=True, check=True)
        code, kib = map(int, helper.stdout.split())
        assert code == 0
        return kib / 1024

    # About 25 MiB, of which the report's columns are most; holding the
    # whole 21 MB document as text and bytes made it over 70.
    assert peak_mib(100_000) - peak_mib(1000) < 45


# Per flag: the command, a spec file with JSON integers, the same numbers as
# flags, and a line of the JSON report that shows an integer kept as given.
INTEGER_FLAG_CASES = {
    "values": (["sweep"], '{"parameter_path": "n_objects", "values": [30, 9007199254740993]}',
               ["--param", "n_objects", "--values", "30,9007199254740993"],
               '"n_objects": 9007199254740993\n'),
    "grid": (["sweep"], '{"parameter_path": "n_objects", '
                        '"grid": {"low": 20, "high": 60, "steps": 3}}',
             ["--param", "n_objects", "--grid", "20:60:3"], '"n_objects": 60\n'),
    "bound": (["tornado"], '{"bounds": [{"parameter_path": "n_objects", "low": 20, "high": 60},'
                           ' {"parameter_path": "crow.severity", "low": 1, "high": 4.5}]}',
              ["--bound", "n_objects=20,60", "--bound", "crow.severity=1,4.5"],
              '"low": 20,\n'),
    "dist": (["mc", "--samples", "8"],
             '{"distributions": [{"parameter_path": "f", "kind": "uniform", "low": 1, "high": 1},'
             ' {"parameter_path": "crow.severity", "kind": "triangular",'
             ' "low": 1, "mode": 2, "high": 4}]}',
             ["--dist", "f=uniform:1,1", "--dist", "crow.severity=triangular:1,2,4"],
             '"f": 1,\n'),
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json", "markdown"])
@pytest.mark.parametrize("case", sorted(INTEGER_FLAG_CASES))
def test_integer_flag_tokens_serialize_as_in_a_spec_file(tmp_path, capsys, case, fmt):
    command, spec_text, flags, json_line = INTEGER_FLAG_CASES[case]
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    args = [*command, "--category", "Robo-Taxis", "--format", fmt]
    assert cli.main(args + ["--spec-file", str(spec)]) == 0
    from_file = capsys.readouterr().out
    assert cli.main(args + flags) == 0
    assert capsys.readouterr().out == from_file
    if fmt == "json":
        assert json_line in from_file


class TestSchemaCommand:
    def test_schema_validates_catalog_serialization(self):
        proc = run_cli("schema")
        assert proc.returncode == 0
        schema = json.loads(proc.stdout)
        assert schema == SCENARIO_SCHEMA
        doc = json.loads(serialize_scenarios(builtin_catalog()))
        jsonschema.validate(doc, schema, cls=jsonschema.Draft202012Validator)


class TestUsageErrors:
    def test_unknown_command(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_no_command_prints_usage(self):
        proc = run_cli()
        assert proc.returncode == 2
        assert "usage" in proc.stderr

    def test_unknown_format_is_validation_error(self):
        proc = run_cli("catalog", "--format", "pdf")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")


class TestMalformedInput:
    def test_non_utf8_file_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        for args in (("project", "--file", str(bad)),
                     ("mc", "--category", "Robo-Taxis", "--spec-file", str(bad))):
            err = assert_single_error_line(capsys, *args)
            assert str(bad) in err and "not UTF-8" in err

    @pytest.mark.parametrize("command, body", [
        ("tornado", {"bounds": [{"parameter_path": "f", "low": "a", "high": 0.8}]}),
        ("tornado", {"bounds": [{"parameter_path": ["f"], "low": 0.6, "high": 0.8}]}),
        ("mc", {"distributions": [
            {"parameter_path": "f", "kind": "uniform", "low": None, "high": 0.8}]}),
        ("mc", {"distributions": [
            {"parameter_path": "f", "kind": "triangular", "low": 0.6, "mode": "x",
             "high": 0.8}]}),
        ("mc", {"distributions": [
            {"parameter_path": {"a": 1}, "kind": "uniform", "low": 0.6, "high": 0.8}]}),
        ("sweep", {"parameter_path": "f", "grid": {"low": "a", "high": 0.8, "steps": 3}}),
        ("sweep", {"parameter_path": ["f"], "values": [0.6]}),
    ])
    def test_malformed_spec_file_values(self, tmp_path, capsys, command, body):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(body))
        err = assert_single_error_line(capsys, command, "--category", "Robo-Taxis",
                                       "--spec-file", str(spec))
        assert str(spec) in err

    @pytest.mark.parametrize("command, body, where", [
        ("sweep", [0.6], "top level"),
        ("tornado", "bounds", "top level"),
        ("mc", None, "top level"),
        ("sweep", {"parameter_path": "f", "values": [0.6], "step": 1}, "top level"),
        ("sweep", {"parameter_path": "f", "grid": {"low": 0.6, "high": 0.8, "steps": 3,
                                                   "log": True}}, "grid"),
        ("tornado", {"bounds": [], "sort": "spread"}, "top level"),
        ("mc", {"distributions": [{"parameter_path": "f", "kind": "uniform", "low": 0.6,
                                   "high": 0.8, "seed": 1}]}, "distributions/0"),
        ("sweep", {"values": [0.6]}, "top level"),
        ("tornado", {}, "top level"),
        ("mc", {}, "top level"),
        ("sweep", {"parameter_path": "f", "values": [0.6],
                   "grid": {"low": 0.6, "high": 0.8, "steps": 3}}, "top level"),
        ("sweep", {"parameter_path": "f"}, "top level"),
        ("sweep", {"parameter_path": "f", "values": 0.6}, "values"),
        ("sweep", {"parameter_path": "f", "grid": [0.6, 0.8, 3]}, "grid"),
        ("tornado", {"bounds": {"f": [0.6, 0.8]}}, "bounds"),
        ("tornado", {"bounds": [["f", 0.6, 0.8]]}, "bounds/0"),
        ("tornado", {"bounds": [{"parameter_path": "f", "low": 0.6}]}, "bounds/0"),
        ("mc", {"distributions": ["f"]}, "distributions/0"),
        ("mc", {"distributions": [
            {"parameter_path": "f", "low": 0.6, "high": 0.8}]}, "distributions/0"),
        ("mc", {"distributions": [
            {"parameter_path": "f", "kind": "gaussian", "low": 0.6, "high": 0.8}]},
         "distributions/0/kind"),
        ("mc", {"distributions": [
            {"parameter_path": "f", "kind": 1, "low": 0.6, "high": 0.8}]},
         "distributions/0/kind"),
    ])
    def test_malformed_spec_file_shapes(self, tmp_path, capsys, command, body, where):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(body))
        err = assert_single_error_line(capsys, command, "--category", "Robo-Taxis",
                                       "--spec-file", str(spec))
        assert err.startswith(f"error: {spec}: invalid {command} spec at {where}: ")
        # The full text is jsonschema's own first error under the path sort.
        errors = sorted(jsonschema.Draft202012Validator(cli._SPEC_SCHEMAS[command])
                        .iter_errors(body), key=lambda e: list(e.absolute_path))
        assert err == f"error: {spec}: invalid {command} spec at {where}: {errors[0].message}\n"

    def test_distribution_kind_is_case_insensitive(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"distributions": [
            {"parameter_path": "f", "kind": "Triangular", "low": 0.6, "mode": 0.7,
             "high": 0.8}]}))
        args = ["mc", "--category", "Robo-Taxis", "--samples", "8", "--format", "json"]
        assert cli.main(args + ["--spec-file", str(spec)]) == 0
        from_file = capsys.readouterr().out
        assert cli.main(args + ["--dist", "f=triangular:0.6,0.7,0.8"]) == 0
        assert capsys.readouterr().out == from_file

    @pytest.mark.parametrize("args, spec, message", [
        (["mc", "--dist", "f=uniform:0.6,0.8", "--samples", str(10**30)], None,
         f"sample_count={10**30} outside permitted range [1, 10000000]"),
        (["sweep", "--param", "f", "--grid", f"0.6:0.8:{10**30}"], None,
         f"sweep over 'f': grid steps={10**30} outside permitted range [2, 10000000]"),
        (["sweep"], {"parameter_path": "f", "grid": {"low": 0.6, "high": 0.8, "steps": 2**63}},
         f"sweep over 'f': grid steps={2**63} outside permitted range [2, 10000000]"),
    ])
    def test_row_count_beyond_the_maximum(self, tmp_path, capsys, monkeypatch, args, spec,
                                          message):
        # Were the check missing, building the grid would still fail at once.
        def bounded_range(*range_args):
            assert max(range_args) <= sensitivity.MAX_ROWS
            return range(*range_args)

        monkeypatch.setattr(sensitivity, "range", bounded_range, raising=False)
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            args = args + ["--spec-file", str(path)]
        err = assert_single_error_line(capsys, *args, "--category", "Robo-Taxis")
        assert err == f"error: {message}\n"

    def test_integer_beyond_float_range_in_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"parameter_path": "f", "values": [10**400]}))
        err = assert_single_error_line(capsys, "sweep", "--category", "Robo-Taxis",
                                       "--spec-file", str(spec))
        assert err == ("error: sweep over 'f': value is an integer beyond float range "
                       "(1329 bits)\n")

    def test_integer_literal_beyond_digit_limit_names_the_file(self, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text('{"scenarios": [{"name": "Robo-Taxis", "n_objects": '
                       + "9" * 5000 + "}]}")
        err = assert_single_error_line(capsys, "project", "--file", str(doc))
        assert f"{doc}: not valid JSON" in err

    @pytest.mark.parametrize("kind", ["document", "spec file"])
    def test_deeply_nested_json(self, tmp_path, capsys, kind):
        # json.loads, or the repr of the value in a schema error, overruns
        # the recursion limit at a depth that depends on the caller's
        # stack: about 985 in a fresh CLI process, the band below here.
        room = sys.getrecursionlimit() - _stack_depth()
        depths = sorted({900, *range(980, 1001), 100_000, *range(room - 60, room + 5)})
        path = tmp_path / "nested.json"
        for depth in depths:
            nested = "[" * depth + "]" * depth
            if kind == "document":
                path.write_text('{"scenarios": [{"name": "Robo-Taxis", "chi": ' + nested + "}]}")
                args = ("project", "--file", str(path))
            else:
                path.write_text('{"bounds": ' + nested + "}")
                args = ("tornado", "--category", "Robo-Taxis", "--spec-file", str(path))
            err = assert_single_error_line(capsys, *args)
            assert err.startswith(f"error: {path}: "), depth
        assert err == f"error: {path}: not valid JSON: nested too deeply\n"

    @pytest.mark.parametrize("kind", ["document", "spec file"])
    def test_long_violation_message_is_cut(self, tmp_path, capsys, kind):
        # The message reprs the offending value: here a 200,000-element array.
        values = [0] * 200_000
        path = tmp_path / "long.json"
        if kind == "document":
            path.write_text(json.dumps({"scenarios": [{"name": "Robo-Taxis",
                                                       "chi": {"stage2": values}}]}))
            args = ("project", "--file", str(path))
            where = "invalid scenario document at scenarios/0/chi/stage2"
            tail = "is not valid under any of the given schemas"
        else:
            path.write_text(json.dumps({"parameter_path": values, "values": [0.6]}))
            args = ("sweep", "--category", "Robo-Taxis", "--spec-file", str(path))
            where = "invalid sweep spec at parameter_path"
            tail = "is not of type 'string'"
        message = f"{values!r} {tail}"
        err = assert_single_error_line(capsys, *args)
        assert err == (f"error: {path}: {where}: {message[:300]}… "
                       f"({len(message)} characters)\n")

    def test_n_objects_whose_demand_overflows(self, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"scenarios": [{"name": "Robo-Taxis",
                                                  "n_objects": 10**400}]}))
        err = assert_single_error_line(capsys, "project", "--file", str(doc))
        assert "n_objects" in err

    @pytest.mark.parametrize("document, where", [
        ({"scenarios": [{"name": "Robo-Taxis", "annual_miles": 10**400}]}, "annual_miles"),
        ({"scenarios": [{"name": "Robo-Taxis", "crow": {"alpha": 10**400}}]}, "crow.alpha"),
        ({"scenarios": [{"name": "Robo-Taxis", "compute_env": {"current_capacity": 10**400}}]},
         "compute_env.current_capacity"),
        ({"defaults": {"annual_miles": 10**400}, "scenarios": [{"name": "Robo-Taxis"}]},
         "annual_miles"),
    ])
    def test_integer_beyond_float_range_in_document(self, tmp_path, capsys, document, where):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(document))
        err = assert_single_error_line(capsys, "project", "--file", str(doc))
        assert err == (f"error: scenario 'Robo-Taxis': {where} is an integer beyond "
                       "float range (1329 bits)\n")

    def test_baseline_year_beyond_calendar_range(self, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"scenarios": [{"name": "Robo-Taxis",
                                                  "baseline_year": 10000}]}))
        for args in (("project", "--file", str(doc)),
                     ("sweep", "--category", "Robo-Taxis", "--param", "baseline_year",
                      "--values", "10000")):
            err = assert_single_error_line(capsys, *args)
            assert err == ("error: scenario 'Robo-Taxis': baseline_year=10000 outside "
                           "permitted range [1, 9999]\n")

    @pytest.mark.parametrize("entry, field", [
        ({"crow_lambda_target": 5e-324}, "crow_lambda_target=5e-324"),
        ({"crow": {"severity": 1e308}}, "crow.severity=1e+308"),
        ({"poisson": {"lambda_target": 5e-324}}, "poisson.lambda_target=5e-324"),
        ({"compute_env": {"doubling_period_years": 1e308}},
         "compute_env.doubling_period_years=1e+308"),
        ({"n_objects": 10**308}, "n_objects"),
    ])
    def test_terms_that_overflow_name_their_input(self, tmp_path, capsys, entry, field):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"scenarios": [{"name": "Robo-Taxis", **entry}]}))
        err = assert_single_error_line(capsys, "project", "--file", str(doc))
        assert field in err and "float range" in err

    @pytest.mark.parametrize("entry, stage, message", [
        # The growth mileage stays finite; gamma_override overflows the years.
        ({"gamma_override": 1e307}, "3",
         "the demonstration years 56568542494.923805 miles * gamma_override=1e+307 * "
         "stage delta=1.0 / annual_miles=1000000000.0 exceed float range"),
        # The rate ratio stays finite; its power overflows.
        ({"crow": {"severity": 1e300}}, "3",
         "the growth mileage (crow.alpha=0.0001 * crow.severity=1e+300 / "
         "crow_lambda_target=1e-08) ** (1 / crow.beta=0.4) exceeds float range"),
        # Every span is finite; their sum is not.
        ({"prod_reg_years": {"stage3": 1e308}, "compute_env": {"doubling_period_years": 1e307}},
         "3",
         "the total of the spans t_comp=8.000000000000002e+307, "
         "t_crow_total=50.91168824543143 (f=0.7), t_poisson=0.7594814214643918 and "
         "t_prod_reg=1e+308 exceeds float range"),
        # 5e-324 * 0.5 rounds to a zero stage delta.
        ({"base_delta": 5e-324}, "2",
         "the stage delta base_delta=5e-324 * stage multiplier 0.5 underflows to 0.0"),
    ])
    def test_overflow_names_every_input_of_the_term(self, tmp_path, capsys, entry, stage,
                                                    message):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"scenarios": [{"name": "Robo-Taxis", **entry}]}))
        err = assert_single_error_line(capsys, "project", "--file", str(doc), "--stage", stage)
        assert err == f"error: {message}\n"

    def test_annual_miles_whose_years_overflow(self, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"scenarios": [{"name": "Robo-Taxis",
                                                  "annual_miles": 1e-300}]}))
        for args in (("project", "--file", str(doc)),
                     ("sweep", "--category", "Robo-Taxis", "--param", "annual_miles",
                      "--values", "1e-300")):
            err = assert_single_error_line(capsys, *args)
            assert "annual_miles" in err


# One value outside each parameter path's permitted range, and the range
# as its error prints it.
OUT_OF_RANGE = {
    "annual_miles": (0.0, "(0, inf)"),
    "base_delta": (1.5, "(0, 1]"),
    "baseline_year": (10000, "[1, 9999]"),
    "chi.stage2": (0.0, "(0, 1]"),
    "chi.stage3": (1.5, "(0, 1]"),
    "compute_env.current_capacity": (-1.0, "(0, inf)"),
    "compute_env.doubling_period_years": (0.0, "(0, inf)"),
    "crow.alpha": (2.0, "(0, 1]"),
    "crow.beta": (1.0, "(0, 1)"),
    "crow.severity": (0.5, "[1, inf)"),
    "crow_lambda_target": (-1e-08, "(0, inf)"),
    "cycle_time_s": (0.0, "(0, inf)"),
    "f": (1.25, "[0, 1]"),
    "gamma_override": (-0.5, "(0, inf)"),
    "n_objects": (0, "[1, inf)"),
    "poisson.confidence": (1.0, "(0, 1)"),
    "poisson.lambda_target": (0.0, "(0, inf)"),
    "poisson.safety_factor": (0.99, "[1, inf)"),
    "prod_reg_years.stage2": (-1.0, "[0, inf)"),
    "prod_reg_years.stage3": (-0.5, "[0, inf)"),
}


def set_path(entry, path, value):
    """Set the dotted parameter path in a document entry."""
    *parents, leaf = path.split(".")
    for parent in parents:
        entry = entry.setdefault(parent, {})
    entry[leaf] = value


def test_out_of_range_table_covers_every_path():
    assert tuple(OUT_OF_RANGE) == valid_parameter_paths()


class TestOutOfRangeValues:
    """A value outside its field's range reads the same from a scenario
    document and from ``sweep --param``."""

    @pytest.mark.parametrize("path", valid_parameter_paths())
    def test_document_and_sweep_print_the_same_line(self, tmp_path, capsys, path):
        value, interval = OUT_OF_RANGE[path]
        entry = {"name": "Robo-Taxis"}
        set_path(entry, path, value)
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"scenarios": [entry]}))
        expected = (f"error: scenario 'Robo-Taxis': {path}={value!r} outside permitted "
                    f"range {interval}\n")

        swept = assert_single_error_line(capsys, "sweep", "--category", "Robo-Taxis",
                                         "--param", path, f"--values={value!r}")
        from_file = assert_single_error_line(capsys, "project", "--file", str(doc))
        assert swept == expected
        if path == "n_objects":  # the schema's minimum reports first
            assert from_file == (f"error: {doc}: invalid scenario document at "
                                 "scenarios/0/n_objects: 0 is less than the minimum of 1\n")
        else:
            assert from_file == expected


# ---------------------------------------------------------------------------
# Generated input: no document or flag combination may end in a traceback
# ---------------------------------------------------------------------------

CATEGORY_NAMES = tuple(s.name for s in builtin_catalog())
# The first branch lies inside most fields' ranges, so that generated
# cases also reach projection, the analyses and the renderers.
EXTREME_NUMBERS = st.one_of(
    st.floats(0.01, 0.99),
    st.sampled_from([0, 1, -1, 0.0, -0.0, 2, 2.5, 1e-8, 1e13, 2024, 5e-324,
                     2.2250738585072014e-308, 1e308, -1e308, 10**400, -(10**400),
                     float("inf"), float("nan")]),
    st.floats(),
    st.integers(),
)
PARAMETER_PATHS = st.sampled_from(valid_parameter_paths() + ("bogus",))


def strategy_for(schema, path=""):
    """Documents with the shape of a SCENARIO_SCHEMA node, ``path`` its
    dotted property names, with extreme numbers and the edges of each
    parameter path's range."""
    if "oneOf" in schema:
        return st.one_of(*(strategy_for(branch, path) for branch in schema["oneOf"]))
    kind = schema.get("type")
    if kind == "object":
        required = schema.get("required", [])
        children = {k: strategy_for(v, f"{path}.{k}" if path else k)
                    for k, v in schema["properties"].items()}
        return st.fixed_dictionaries(
            {k: children[k] for k in required},
            optional={k: v for k, v in children.items() if k not in required},
        )
    if kind == "array":
        if "prefixItems" in schema:
            items = (strategy_for(item, path) for item in schema["prefixItems"])
            return st.tuples(*items).map(list)
        return st.lists(strategy_for(schema["items"], path), min_size=schema.get("minItems", 0),
                        max_size=3)
    if kind == "string":  # every string is a scenario or factor name
        return st.sampled_from(CATEGORY_NAMES + ("New", "active_interaction", "mystery"))
    return numbers_near(path.partition(".")[2])  # the path below "scenarios" or "defaults"


def number_text(value):
    return repr(float(value)) if isinstance(value, float) else str(value)


def edge_values(path):
    """Each bound of the path's permitted range, the floats next to it on
    either side and a value past it; none for an unknown path."""
    if path not in valid_parameter_paths():
        return []
    low, high, _, _ = sensitivity._lookup(path)[2]
    values = []
    for bound, outward in ((low, -math.inf), (high, math.inf)):
        values += [bound, math.nextafter(bound, -outward), math.nextafter(bound, outward),
                   bound + math.copysign(max(1.0, abs(bound)), outward)]
    return values


def numbers_near(path):
    """Extreme numbers, and the edges of the range of ``path`` if it is a
    parameter path."""
    edges = edge_values(path)
    return st.one_of(st.sampled_from(edges), EXTREME_NUMBERS) if edges else EXTREME_NUMBERS


def numbers_for(path):
    """One number and a comma-separated list of numbers for a flag that
    sets ``path``."""
    number = numbers_near(path).map(number_text)
    return number, st.lists(number, min_size=1, max_size=3).map(",".join)


@st.composite
def cli_arguments(draw, category):
    command = draw(st.sampled_from(["project", "catalog", "sweep", "tornado", "mc"]))
    args = [command, "--category", category,
            "--stage", draw(st.sampled_from(["1", "2", "3", "all"])),
            "--format", draw(st.sampled_from(["table", "csv", "json", "markdown", "xml"]))]
    if command == "sweep":
        path = draw(PARAMETER_PATHS)
        number, numbers = numbers_for(path)
        args += ["--param", path]
        if draw(st.booleans()):
            args += ["--values", draw(numbers)]
        else:
            args += ["--grid", f"{draw(number)}:{draw(number)}:{draw(st.integers(-1, 50))}"]
    elif command == "tornado":
        for _ in range(draw(st.integers(1, 3))):
            path = draw(PARAMETER_PATHS)
            args += ["--bound", f"{path}={draw(numbers_for(path)[1])}"]
    elif command == "mc":
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["uniform", "triangular"]))
            path = draw(PARAMETER_PATHS)
            args += ["--dist", f"{path}={kind}:{draw(numbers_for(path)[1])}"]
        args += ["--samples", str(draw(st.integers(-1, 20))),
                 "--seed", str(draw(st.sampled_from([0, 7, -1, 2**64 - 1, 2**64])))]
    return args


@st.composite
def documents_and_arguments(draw):
    document = draw(strategy_for(SCENARIO_SCHEMA))
    category = document["scenarios"][0]["name"]
    return document, draw(cli_arguments(category))


def set_paths(document, args):
    """The parameter paths a case gives values, each drawn from that path's
    extreme or edge values (``numbers_near``): in the document's defaults
    or entries (a factor-product chi stage as one path), or by a flag."""
    paths = set()

    def walk(node, prefix):
        for key, value in node.items():
            path = prefix + key
            if isinstance(value, dict) and path not in ("chi.stage2", "chi.stage3"):
                walk(value, path + ".")
            else:
                paths.add(path)

    for node in (document.get("defaults", {}), *document["scenarios"]):
        walk(node, "")
    for flag, value in zip(args, args[1:]):
        if flag == "--param":
            paths.add(value)
        elif flag in ("--bound", "--dist"):
            paths.add(value.partition("=")[0])
    return paths


def named_paths(message):
    """The parameter paths an error message names; the total of the spans
    names t_prod_reg, the stage's prod_reg_years."""
    named = {path for path in valid_parameter_paths()
             if re.search(rf"(?<![\w.]){re.escape(path)}(?![\w.])", message)}
    if "t_prod_reg=" in message:
        named |= {"prod_reg_years.stage2", "prod_reg_years.stage3"}
    return named


# Generated cases seldom reach a term check, so these cases pin one of each
# kind of message: the years, the stage delta and the total.  The factor
# product case underflows to 0.0, which fails chi's own range check.
TERM_CASES = (
    ({"scenarios": [{"name": "Robo-Taxis", "gamma_override": 1e300}]},
     ["project", "--category", "Robo-Taxis", "--stage", "3", "--format", "table"]),
    ({"scenarios": [{"name": "Robo-Taxis"}]},
     ["sweep", "--category", "Robo-Taxis", "--stage", "2", "--format", "csv",
      "--param", "base_delta", "--values", "1,5e-324"]),
    ({"scenarios": [{"name": "Robo-Taxis", "chi": {"stage2": {"factors": [
        {"name": "mystery", "value": 1e-200, "documented_range": [1e-300, 1.0]}] * 2}}}]},
     ["project", "--category", "Robo-Taxis", "--stage", "all", "--format", "json"]),
    ({"scenarios": [{"name": "Robo-Taxis", "prod_reg_years": {"stage3": 1e308},
                     "compute_env": {"doubling_period_years": 1e307}}]},
     ["project", "--category", "Robo-Taxis", "--stage", "3", "--format", "markdown"]),
)


def in_domain_extremes(path):
    """The values next to the bounds of the path's permitted range that lie
    inside it (the subnormal 5e-324, the largest float, ...)."""
    _, kind, interval = sensitivity._lookup(path)
    return list(dict.fromkeys(int(v) if kind is int else v for v in edge_values(path)
                              if _in_interval(v, interval)))


@st.composite
def catalog_entries_at_extremes(draw):
    """A catalog entry with 1-3 parameter paths set to in-range extremes,
    and the arguments that project it, so that most cases get past the
    document checks to the model's term checks."""
    name = draw(st.sampled_from(CATEGORY_NAMES))
    entry = {"name": name}
    paths = st.lists(st.sampled_from(valid_parameter_paths()), min_size=1, max_size=3,
                     unique=True)
    for path in draw(paths):
        set_path(entry, path, draw(st.sampled_from(in_domain_extremes(path))))
    args = ["project", "--category", name,
            "--stage", draw(st.sampled_from(["2", "3", "all"])),
            "--format", draw(st.sampled_from(["table", "csv", "json", "markdown"]))]
    return {"scenarios": [entry]}, args


def reaches_a_term_check(message):
    return "float range" in message or "underflow" in message


def run_generated_case(document, args):
    """Run one generated case through ``cli.main`` and check its outcome: an
    exit code of 0, 1 or 2, one ``error:`` line on failure, and an overflow
    or underflow blaming a value the case set.  Returns the error text."""
    with tempfile.TemporaryDirectory() as work:
        doc = Path(work) / "doc.json"
        doc.write_text(json.dumps(document), encoding="utf-8")
        if args[0] != "catalog":
            args = [args[0], "--file", str(doc), *args[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse usage error
                code = exc.code
    message = err.getvalue()
    assert code in (0, 1, 2), (args, message)
    if code == 1:
        assert message.startswith("error:") and message.count("\n") == 1
        if reaches_a_term_check(message):
            assert named_paths(message) & set_paths(document, args), (args, message)
    return message


class TestGeneratedInput:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(documents_and_arguments())
    @example(TERM_CASES[0])
    @example(TERM_CASES[1])
    @example(TERM_CASES[2])
    @example(TERM_CASES[3])
    def test_cli_never_prints_a_traceback(self, case):
        run_generated_case(*case)

    def test_extremes_inside_the_ranges_reach_the_term_checks(self):
        messages = []

        @settings(max_examples=100, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(catalog_entries_at_extremes())
        def check(case):
            messages.append(run_generated_case(*case))

        check()
        reached = sum(map(reaches_a_term_check, messages))
        # At least a fifth of the cases end in a float-range or underflow
        # message, so the blame assertion above keeps being exercised.
        assert reached >= 20, (reached, len(messages))


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/trace_driver.py replaces functions where the cli, scenario,
    # sensitivity and timeline modules bind them; a refactor that drops
    # one of those names fails here as well as in a traced benchmark run.
    # The analyses also run its count of report entries.
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from trace_driver import Recorder, install\n"
        "sys.exit(install(Recorder())(sys.argv[1:]))\n"
    )
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    for args in (["catalog", "--format", "csv"],
                 ["tornado", "--category", "Robo-Taxis", "--bound", "crow.beta=0.35,0.45",
                  "--bound", "f=0.5,0.9", "--format", "csv"],
                 ["mc", "--category", "Robo-Taxis", "--dist", "crow.beta=uniform:0.35,0.55",
                  "--samples", "20", "--seed", "7", "--format", "json"]):
        proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(*args, env=env).stdout, args[0]


def test_cli_binds_the_sensitivity_names_it_loads_on_first_use():
    # cli imports sensitivity only when an analysis runs; the names it binds
    # then are sensitivity's own, and its spec-file schema lists the kinds.
    for name in cli._ANALYSIS_NAMES:
        assert getattr(cli, name) is getattr(sensitivity, name)
    assert tuple(cli._DIST_PARAMETERS) == tuple(kind.value for kind in DistributionKind)
