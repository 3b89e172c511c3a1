"""Tests for the builtin catalog, projection pipeline, and scenario files."""

import dataclasses
import json
import math

import jsonschema
import numpy as np
import pytest

from avhorizon import cli

from avhorizon.complexity import DEFAULT_FACTOR_RANGES, LOG10_2, hpc_horizon_years
from avhorizon.errors import (
    ScenarioFormatError,
    UnsupportedStageError,
    ValidationError,
)
from avhorizon.reliability import crow_required_miles, poisson_required_miles
from avhorizon.scenario import (
    CHI_PROVENANCE,
    SCENARIO_SCHEMA,
    builtin_catalog,
    load_scenarios,
    parse_scenarios,
    project,
    schema_json,
    serialize_scenarios,
)
from avhorizon.timeline import Gating, Stage

CANONICAL_ORDER = [
    "Consumer Automotive",
    "Robo-Taxis",
    "Geo-fenced Vans/Buses",
    "Highway Trucking",
    "Delivery Vans",
    "Bespoke Shuttles",
    "Military/Defense",
    "Industrial/Mining",
]

# Per-category knobs: n_objects, severity, gamma, stage-3 prod+reg years.
CATEGORY_KNOBS = {
    "Consumer Automotive": (60, 1.0, 1.0, 5.0),
    "Robo-Taxis": (55, 2.0, 0.9, 5.0),
    "Geo-fenced Vans/Buses": (35, 1.0, 0.5, 2.5),
    "Highway Trucking": (25, 5.0, 0.4, 5.0),
    "Delivery Vans": (35, 1.0, 0.5, 2.5),
    "Bespoke Shuttles": (35, 2.0, 0.5, 7.0),
    "Military/Defense": (35, 1.0, 0.3, 2.5),
    "Industrial/Mining": (25, 1.0, 0.2, 2.5),
}

# Compute horizons in years implied by the catalog chi calibration.
T_COMP_YEARS = {
    "Consumer Automotive": {Stage.REVENUE_SERVICE: 25.0, Stage.BROAD_COMMERCIAL: 35.0},
    "Robo-Taxis": {Stage.REVENUE_SERVICE: 15.0, Stage.BROAD_COMMERCIAL: 20.0},
}


def expected_breakdown(name, stage):
    """Closed-form reference projection, independent of the pipeline code."""
    n, severity, gam, prod_reg3 = CATEGORY_KNOBS[name]
    crow_miles = (1e4 * severity) ** 2.5  # (alpha*s/lambda)^(1/beta)
    poisson_miles = -math.log(1 - 0.95) * 2.0 / 7.1e-9
    delta = 1.0 if stage is Stage.BROAD_COMMERCIAL else 0.5
    t_crow = crow_miles * gam * delta / 1e9
    t_poisson = poisson_miles * gam * delta / 1e9
    t_comp = T_COMP_YEARS.get(name, {}).get(stage, 0.0)
    if stage is Stage.BROAD_COMMERCIAL:
        prod_reg = prod_reg3
    else:
        prod_reg = 3.75 if name == "Bespoke Shuttles" else 1.5
    f = 0.7
    t_total = max(f * t_crow, t_comp) + (1 - f) * t_crow + t_poisson + prod_reg
    year = 2024 + math.floor(t_total + 0.5)
    return t_comp, t_crow, t_poisson, prod_reg, t_total, year


class TestCatalog:
    def test_contains_eight_categories_in_order(self):
        assert [s.name for s in builtin_catalog()] == CANONICAL_ORDER

    def test_shared_constants(self):
        for s in builtin_catalog():
            assert s.cycle_time_s == 0.1
            assert s.compute_env.current_capacity == 1e13
            assert s.compute_env.doubling_period_years == 2.5
            assert s.crow.alpha == 1e-4
            assert s.crow.beta == 0.4
            assert s.crow_lambda_target == 1e-8
            assert s.poisson.confidence == 0.95
            assert s.poisson.safety_factor == 2.0
            assert s.poisson.lambda_target == 7.1e-9
            assert s.annual_miles == 1e9
            assert s.f == 0.7
            assert s.base_delta == 1.0
            assert s.baseline_year == 2024

    def test_per_category_knobs(self):
        for s in builtin_catalog():
            n, severity, gam, prod_reg3 = CATEGORY_KNOBS[s.name]
            assert s.n_objects == n
            assert s.crow.severity == severity
            assert s.gamma_override == gam
            assert s.prod_reg_years.stage3 == prod_reg3

    def test_trucking_severity_five(self, catalog):
        assert catalog["Highway Trucking"].crow.severity == 5.0

    def test_industrial_gamma(self, catalog):
        assert catalog["Industrial/Mining"].gamma_override == 0.2

    def test_chi_calibration_closes_stated_horizons(self, catalog):
        # chi values must land the compute horizon on the calibrated
        # doubling gaps, e.g. 14 doublings = 35 years for Consumer Stage 3.
        for name, horizons in T_COMP_YEARS.items():
            s = catalog[name]
            for stage, years in horizons.items():
                naive = s.n_objects * LOG10_2 - math.log10(s.cycle_time_s)
                chi = getattr(s.chi, stage.value)
                eff = naive + math.log10(chi)
                got = 2.5 * (eff - 13.0) / LOG10_2
                assert got == pytest.approx(years, abs=1e-9)

    def test_chi_unity_when_capacity_already_covers_demand(self, catalog):
        for name in CANONICAL_ORDER:
            if name in T_COMP_YEARS:
                continue
            s = catalog[name]
            assert s.chi.stage2 == 1.0
            assert s.chi.stage3 == 1.0
            naive = s.n_objects * LOG10_2 - math.log10(s.cycle_time_s)
            assert naive <= 13.0  # no savings needed

    def test_provenance_notes_cover_every_entry(self):
        assert set(CHI_PROVENANCE) == set(CANONICAL_ORDER)
        for note in CHI_PROVENANCE.values():
            assert note.strip()


class TestProjection:
    @pytest.mark.parametrize("name", CANONICAL_ORDER)
    @pytest.mark.parametrize("stage", [Stage.REVENUE_SERVICE, Stage.BROAD_COMMERCIAL])
    def test_matches_closed_form_reference(self, catalog, name, stage):
        t_comp, t_crow, t_poisson, prod_reg, t_total, year = expected_breakdown(name, stage)
        r = project(catalog[name], stage)
        b = r.breakdown
        assert b.t_comp == pytest.approx(t_comp, abs=1e-9)
        assert b.t_crow_total == pytest.approx(t_crow, rel=1e-9)
        assert b.t_poisson == pytest.approx(t_poisson, rel=1e-9)
        assert b.t_prod_reg == prod_reg
        assert b.t_total == pytest.approx(t_total, rel=1e-9)
        assert b.calendar_year == year
        assert b.f == 0.7

    def test_gating_flags(self, catalog):
        for name in CANONICAL_ORDER:
            for stage in (Stage.REVENUE_SERVICE, Stage.BROAD_COMMERCIAL):
                gating = project(catalog[name], stage).breakdown.gating
                if name == "Consumer Automotive":
                    assert gating is Gating.COMPUTE
                else:
                    # Robo-Taxis overlaps enough growth mileage to cover
                    # its compute wait; everything else has no wait at all.
                    assert gating is Gating.RELIABILITY

    def test_compute_horizon_zero_outside_compute_bound_categories(self, catalog):
        for name in CANONICAL_ORDER:
            if name in T_COMP_YEARS:
                continue
            for stage in (Stage.REVENUE_SERVICE, Stage.BROAD_COMMERCIAL):
                assert project(catalog[name], stage).breakdown.t_comp == 0.0

    def test_intermediates_reproduce_breakdown(self, catalog_results):
        for r in catalog_results:
            i, b = r.intermediate, r.breakdown
            redone = hpc_horizon_years(
                i.effective_demand,
                dataclasses.replace(
                    builtin_catalog()[0].compute_env,
                ),
            )
            assert redone == pytest.approx(b.t_comp, abs=1e-9)
            assert i.crow_miles * i.gamma * i.delta_effective / 1e9 == pytest.approx(
                b.t_crow_total, rel=1e-9)
            assert i.poisson_miles * i.gamma * i.delta_effective / 1e9 == pytest.approx(
                b.t_poisson, rel=1e-9)

    def test_intermediate_miles_match_reliability_module(self, catalog):
        s = catalog["Highway Trucking"]
        r = project(s, Stage.BROAD_COMMERCIAL)
        assert r.intermediate.crow_miles == pytest.approx(
            crow_required_miles(s.crow, s.crow_lambda_target), rel=1e-12)
        assert r.intermediate.poisson_miles == pytest.approx(
            poisson_required_miles(s.poisson), rel=1e-12)

    @pytest.mark.parametrize("field, value, message", [
        ("crow_miles", math.inf, r"crow_miles=inf outside permitted range \[0, inf\)"),
        ("poisson_miles", -1.0, r"poisson_miles=-1.0 outside permitted range \[0, inf\)"),
        ("gamma", 0.0, r"gamma=0.0 outside permitted range \(0, inf\)"),
        ("gamma", np.float64(0.9), r"gamma must be a finite number, got np.float64\(0.9\)"),
        ("delta_effective", 1.5, r"delta_effective=1.5 outside permitted range \(0, 1\]"),
        ("delta_effective", math.nan, "delta_effective=nan outside permitted range"),
        ("naive_demand", 12.0, "naive_demand must be a Magnitude, got 12.0"),
        ("effective_demand", None, "effective_demand must be a Magnitude, got None"),
    ])
    def test_intermediates_check_their_numbers(self, catalog_results, field, value, message):
        checked = catalog_results[0].intermediate
        with pytest.raises(ValidationError, match=message):
            dataclasses.replace(checked, **{field: value})

    def test_pilot_stage_rejected(self, catalog):
        with pytest.raises(UnsupportedStageError):
            project(catalog["Industrial/Mining"], Stage.PILOT)

    def test_tenfold_fleet_scales_demonstration_times(self, catalog):
        base = project(catalog["Highway Trucking"], Stage.BROAD_COMMERCIAL).breakdown
        scaled_scenario = dataclasses.replace(
            catalog["Highway Trucking"], annual_miles=1e10)
        scaled = project(scaled_scenario, Stage.BROAD_COMMERCIAL).breakdown
        assert scaled.t_crow_total == pytest.approx(base.t_crow_total / 10, rel=1e-12)
        assert scaled.t_poisson == pytest.approx(base.t_poisson / 10, rel=1e-12)


class TestSerialization:
    def test_round_trip_is_exact(self):
        text = serialize_scenarios(builtin_catalog())
        reloaded = parse_scenarios(text)
        assert reloaded == builtin_catalog()

    def test_serialized_document_validates_against_schema(self):
        doc = json.loads(serialize_scenarios(builtin_catalog()))
        jsonschema.validate(doc, SCENARIO_SCHEMA,
                            cls=jsonschema.Draft202012Validator)

    def test_schema_json_parses_to_the_schema(self):
        assert json.loads(schema_json()) == SCENARIO_SCHEMA

    def test_docs_copy_matches_module_schema(self):
        # Byte for byte: the schema's key order follows the dataclass
        # field declaration order, which dict equality would not check.
        import pathlib
        docs = pathlib.Path(__file__).resolve().parent.parent / "docs" / "scenario_schema.json"
        assert docs.read_bytes() == schema_json().encode("utf-8")

    def test_user_values_serialize_back_as_given(self):
        document = json.loads(serialize_scenarios(builtin_catalog()))
        for entry in document["scenarios"]:
            entry["compute_env"]["current_capacity"] = 3e13
        text = json.dumps(document, indent=2) + "\n"
        assert serialize_scenarios(parse_scenarios(text)) == text

    @pytest.mark.parametrize("given, written", [
        ("10000000000000", "10000000000000"),  # a JSON integer stays one
        ("3e13", "30000000000000.0"),  # not 10 ** log10(3e13) = 30000000000000.01
    ])
    def test_capacity_serializes_back_as_given(self, given, written):
        text = ('{"scenarios": [{"name": "Robo-Taxis", '
                f'"compute_env": {{"current_capacity": {given}}}}}]}}')
        out = serialize_scenarios(parse_scenarios(text))
        assert f'"current_capacity": {written},' in out


class TestScenarioDocuments:
    def test_single_field_override_inherits_the_rest(self, catalog):
        doc = '{"scenarios": [{"name": "Consumer Automotive", "crow": {"beta": 0.5}}]}'
        (s,) = parse_scenarios(doc)
        ref = catalog["Consumer Automotive"]
        assert s.crow.beta == 0.5
        assert s.crow.alpha == ref.crow.alpha
        assert s.crow.severity == ref.crow.severity
        assert s.n_objects == ref.n_objects
        assert s.chi == ref.chi
        assert s.prod_reg_years == ref.prod_reg_years

    def test_out_of_range_beta_names_field_and_range(self):
        doc = '{"scenarios": [{"name": "Consumer Automotive", "crow": {"beta": 1.2}}]}'
        with pytest.raises(ValidationError) as err:
            parse_scenarios(doc)
        assert str(err.value) == ("scenario 'Consumer Automotive': crow.beta=1.2 outside "
                                  "permitted range (0, 1)")

    def test_document_defaults_fill_new_categories(self):
        doc = json.dumps({
            "defaults": {"gamma_override": 0.5, "prod_reg_years": {"stage2": 1.0, "stage3": 2.0}},
            "scenarios": [
                {"name": "Campus Shuttle", "n_objects": 20,
                 "chi": {"stage2": 1.0, "stage3": 1.0}},
            ],
        })
        (s,) = parse_scenarios(doc)
        assert s.gamma_override == 0.5
        assert s.prod_reg_years.stage2 == 1.0
        assert s.prod_reg_years.stage3 == 2.0
        # shared constants still apply underneath
        assert s.crow.beta == 0.4
        assert s.annual_miles == 1e9

    def test_entry_beats_document_defaults(self):
        doc = json.dumps({
            "defaults": {"gamma_override": 0.5},
            "scenarios": [
                {"name": "Campus Shuttle", "n_objects": 20, "gamma_override": 0.9,
                 "chi": {"stage2": 1.0, "stage3": 1.0},
                 "prod_reg_years": {"stage2": 1.0, "stage3": 2.0}},
            ],
        })
        (s,) = parse_scenarios(doc)
        assert s.gamma_override == 0.9

    @pytest.mark.parametrize("year, ok", [
        (1, True), (9999, True), (0, False), (10000, False), (-2024, False), (10**400, False),
    ])
    def test_baseline_year_is_a_calendar_year(self, year, ok):
        doc = json.dumps({"scenarios": [{"name": "Robo-Taxis", "baseline_year": year}]})
        if ok:
            assert parse_scenarios(doc)[0].baseline_year == year
        else:
            with pytest.raises(ValidationError) as err:
                parse_scenarios(doc)
            assert str(err.value) == "scenario 'Robo-Taxis': baseline_year" + (
                " is an integer beyond float range (1329 bits)" if year == 10**400
                else f"={year!r} outside permitted range [1, 9999]")

    @pytest.mark.parametrize("entry, message", [
        ({"n_objects": 55.0}, "n_objects must be an integer, got 55.0"),
        ({"baseline_year": 2024.0}, "baseline_year must be an integer, got 2024.0"),
        ({"f": math.nan}, "f=nan outside permitted range [0, 1]"),
        ({"chi": {"stage3": -math.inf}}, "chi.stage3=-inf outside permitted range (0, 1]"),
        ({"poisson": {"confidence": math.inf}},
         "poisson.confidence=inf outside permitted range (0, 1)"),
    ])
    def test_field_type_and_range_errors_name_the_path(self, entry, message):
        doc = json.dumps({"scenarios": [{"name": "Robo-Taxis", **entry}]})
        with pytest.raises(ValidationError) as err:
            parse_scenarios(doc)
        assert str(err.value) == f"scenario 'Robo-Taxis': {message}"

    def test_a_numpy_scalar_is_rejected_at_the_input(self, catalog):
        # np.float64 subclasses float; taken for one, it would make the
        # calendar year an np.int64 and fail there, naming an output.
        with pytest.raises(ValidationError) as err:
            project(dataclasses.replace(catalog["Robo-Taxis"], f=np.float64(0.7)),
                    Stage.BROAD_COMMERCIAL)
        assert str(err.value) == (
            "scenario 'Robo-Taxis': f must be a finite number, got np.float64(0.7)")

    @pytest.mark.parametrize("field, kind", [
        ("chi", "StageMap"), ("compute_env", "ComputeEnv"), ("crow", "CrowAmsaaParams"),
        ("poisson", "PoissonParams"), ("prod_reg_years", "StageMap"),
    ])
    def test_a_nested_field_of_the_wrong_type_names_its_type(self, catalog, field, kind):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(catalog["Robo-Taxis"], **{field: {"stage2": 0.5}})
        assert str(err.value) == (
            f"scenario 'Robo-Taxis': {field} must be a {kind}, got {{'stage2': 0.5}}")

    def test_a_nested_error_comes_before_a_top_level_one(self):
        # The nested blocks are built first; the top-level fields are
        # checked once the scenario is constructed.
        doc = json.dumps({"scenarios": [{"name": "Robo-Taxis", "cycle_time_s": 10**400,
                                         "crow": {"beta": 2.0}}]})
        with pytest.raises(ValidationError) as err:
            parse_scenarios(doc)
        assert str(err.value) == ("scenario 'Robo-Taxis': crow.beta=2.0 outside permitted "
                                  "range (0, 1)")

    def test_a_name_utf8_cannot_encode_is_rejected(self, catalog):
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(catalog["Robo-Taxis"], name="Bad \ud800 name")
        assert str(err.value) == (
            "scenario name must be text that UTF-8 can encode, got 'Bad \\ud800 name'")

    def test_new_category_must_state_core_fields(self):
        with pytest.raises(ValidationError, match="n_objects"):
            parse_scenarios('{"scenarios": [{"name": "New Cat"}]}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="bogus_key"):
            parse_scenarios('{"scenarios": [{"name": "X", "bogus_key": 1}]}')
        with pytest.raises(ValidationError):
            parse_scenarios('{"scenarios": [], "extra": 1}')

    def test_duplicate_names_rejected(self):
        doc = ('{"scenarios": [{"name": "Consumer Automotive"},'
               ' {"name": "Consumer Automotive"}]}')
        with pytest.raises(ValidationError, match="duplicate"):
            parse_scenarios(doc)

    def test_parse_error_reports_position(self):
        with pytest.raises(ScenarioFormatError, match="line"):
            parse_scenarios('{"scenarios": [}')

    def test_load_scenarios_missing_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ValidationError, match="nope.json"):
            load_scenarios(missing)

    def test_load_scenarios_from_file(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(serialize_scenarios(builtin_catalog()))
        assert load_scenarios(path) == builtin_catalog()

    def test_shared_nested_objects_parse_as_each_entry_alone(self):
        # Entries alternate between overriding and inheriting crow, poisson
        # and prod_reg_years, so a parse both shares the nested dicts merged
        # from its defaults and builds, then frees, one merged dict per
        # override.  Each scenario must equal the one its entry parses to alone.
        defaults = {"n_objects": 30, "gamma_override": 0.7,
                    "chi": {"stage2": 0.5, "stage3": 0.25},
                    "crow": {"beta": 0.45}, "poisson": {"confidence": 0.9},
                    "prod_reg_years": {"stage2": 2.0, "stage3": 4.0}}
        entries = []
        for i in range(200):
            name = CANONICAL_ORDER[i // 25] if i % 25 == 0 else f"New {i:03d}"
            entry = {"name": name}
            if i % 2:
                entry["crow"] = {"severity": 1.0 + i / 100}
            if i // 2 % 2:
                entry["poisson"] = {"safety_factor": 1.0 + i / 100}
            if i // 4 % 2:
                entry["prod_reg_years"] = {"stage3": 3.0 + i / 100}
            entries.append(entry)
        scenarios = parse_scenarios(json.dumps({"defaults": defaults, "scenarios": entries}))
        assert len(scenarios) == len(entries)
        for entry, scenario in zip(entries, scenarios):
            alone = parse_scenarios(json.dumps({"defaults": defaults, "scenarios": [entry]}))
            assert scenario == alone[0], entry["name"]


def chi_stage2_document(factors) -> str:
    return json.dumps({"scenarios": [{"name": "Consumer Automotive",
                                      "chi": {"stage2": {"factors": factors}}}]})


class TestChiFactorProduct:
    """A chi stage given in a document as a product of reduction factors."""

    def test_chi_is_the_left_to_right_float_product(self):
        factors = [{"name": "site", "value": 0.77, "documented_range": [0.1, 0.9]},
                   {"name": "active_interaction", "value": 0.48},
                   {"name": "route", "value": 0.61, "documented_range": [0.61, 0.61]},
                   {"name": "learned_heuristics", "value": 0.22}]
        (s,) = parse_scenarios(chi_stage2_document(factors))
        assert s.chi.stage2.hex() == (1.0 * 0.77 * 0.48 * 0.61 * 0.22).hex()
        # The order is what pins the bits: right to left rounds differently.
        assert s.chi.stage2 != 1.0 * 0.22 * 0.61 * 0.48 * 0.77

    @pytest.mark.parametrize("factors, message", [
        ([{"name": "x", "value": 0.5, "documented_range": [0.6, 0.4]}],
         "factor 'x': documented_range high=0.4 outside permitted range [0.6, 1]"),
        ([{"name": "x", "value": 0.5, "documented_range": [0, 1]}],
         "factor 'x': documented_range low=0 outside permitted range (0, 1]"),
        ([{"name": "x", "value": 1.5, "documented_range": [0.1, 2.0]}],
         "factor 'x': documented_range high=2.0 outside permitted range [0.1, 1]"),
        ([{"name": "active_interaction", "value": 0.9}],
         "factor 'active_interaction': value=0.9 outside permitted range [0.2, 0.5]"),
        ([{"name": "learned_heuristics", "value": math.nan}],
         "factor 'learned_heuristics': value=nan outside permitted range [0.1, 0.3]"),
        ([{"name": "x", "value": 0.5, "documented_range": [math.inf, 1.0]}],
         "factor 'x': documented_range low=inf outside permitted range (0, 1]"),
        ([{"name": "x", "value": 0.5, "documented_range": [0.1, 10**400]}],
         "factor 'x': documented_range high is an integer beyond float range (1329 bits)"),
        ([{"name": "mystery", "value": 0.4}],
         "factor 'mystery': documented_range is required, as no default range is known "
         f"for that name (known: {sorted(DEFAULT_FACTOR_RANGES)})"),
    ])
    def test_a_factor_error_names_the_scenario_stage_and_factor(self, factors, message):
        # The first factor is valid, so the error is the second's.
        factors = [{"name": "specialized_hardware", "value": 0.5}, *factors]
        with pytest.raises(ValidationError) as err:
            parse_scenarios(chi_stage2_document(factors))
        assert str(err.value) == f"scenario 'Consumer Automotive': chi.stage2: {message}"

    def test_a_product_that_underflows_fails_the_chi_range(self):
        factors = [{"name": "x", "value": 1e-200, "documented_range": [1e-300, 1.0]}] * 2
        with pytest.raises(ValidationError) as err:
            parse_scenarios(chi_stage2_document(factors))
        assert str(err.value) == ("scenario 'Consumer Automotive': chi.stage2=0.0 outside "
                                  "permitted range (0, 1]")

    def test_the_cli_reports_a_factor_error_on_one_line(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(chi_stage2_document([{"name": "mystery", "value": 0.4}]))
        assert cli.main(["project", "--file", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: scenario 'Consumer Automotive': chi.stage2: "
                              "factor 'mystery': documented_range is required")
