"""Vehicle-category scenarios and the projection pipeline.

A :class:`CategoryScenario` bundles every input the timeline model
needs for one autonomous-vehicle category: scene complexity, the
algorithmic-savings factor per stage, the compute environment,
reliability-growth and final-demonstration parameters, the operating
domain weighting and the productization spans.  ``project`` runs the
full pipeline for one scenario and stage:

    compute_demand -> effective_demand -> hpc_horizon_years
    crow_required_miles / poisson_required_miles -> demonstration_years
    compose_total -> calendar year

The builtin catalog holds eight reference categories spanning the
spectrum from constrained industrial sites to unrestricted consumer
driving.  Catalog scenarios share one set of demonstration economics
(growth curve, final demonstration, fleet mileage, overlap fraction,
compute environment) and differ in scene size, duty severity, domain
weighting and productization effort.

Scenario documents are JSON: a top-level object with a ``scenarios``
array and an optional ``defaults`` object.  Field names mirror the
CategoryScenario attributes exactly.  Omitted fields fall back first
to the document defaults, then to the builtin catalog entry with the
same name (if any), then to the catalog-wide shared values.  Unknown
keys anywhere are hard errors; the formal JSON schema is exported as
``SCENARIO_SCHEMA``, shipped under ``docs/`` and enforced on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from datetime import MAXYEAR, MINYEAR
from pathlib import Path
from typing import Any, Mapping, get_type_hints

from . import _jsonschema as jsonschema
from .complexity import (
    LOG10_2,
    ComputeEnv,
    DEFAULT_FACTOR_RANGES,
    Magnitude,
    ReductionFactor,
    ReductionFactors,
    chi_eff,
    compute_demand,
    effective_demand,
    hpc_horizon_years,
)
from .errors import ScenarioFormatError, UnsupportedStageError, ValidationError
from .errors import _NONNEGATIVE, _POSITIVE, _check_fields, _domain, _in_interval
from .errors import _is_finite_number, _outside
from .reliability import (
    CrowAmsaaParams,
    PoissonParams,
    crow_required_miles,
    demonstration_years,
    poisson_required_miles,
)
from .timeline import (
    PROJECTABLE_STAGES,
    Stage,
    StageSpec,
    TimelineBreakdown,
    compose_total,
)

__all__ = [
    "StageMap",
    "CategoryScenario",
    "Intermediates",
    "ProjectionResult",
    "SCENARIO_SCHEMA",
    "builtin_catalog",
    "project",
    "load_scenarios",
    "parse_scenarios",
    "serialize_scenarios",
    "scenario_to_document",
    "schema_json",
]


@dataclass(frozen=True, slots=True)
class StageMap:
    """A value carried separately for each projectable stage."""

    stage2: float
    stage3: float

    def for_stage(self, stage: Stage) -> float:
        if stage is Stage.REVENUE_SERVICE:
            return self.stage2
        if stage is Stage.BROAD_COMMERCIAL:
            return self.stage3
        raise UnsupportedStageError(
            f"no per-stage value is defined for {stage.display_name}"
        )


@dataclass(frozen=True, slots=True)
class CategoryScenario:
    """Complete model inputs for one vehicle category.

    chi is carried as data per stage rather than derived from factor
    lists at projection time; document loading accepts a factor-product
    form and resolves it to the scalar before construction.
    gamma_override is the domain weighting applied directly (values
    above 1 are legal for domains harder than the reference mix).
    """

    name: str
    n_objects: int = field(metadata=_domain(1, math.inf, high_open=True))
    cycle_time_s: float = field(metadata=_POSITIVE)
    chi: StageMap = field(metadata=_domain(0, 1, low_open=True))
    compute_env: ComputeEnv
    crow: CrowAmsaaParams
    crow_lambda_target: float = field(metadata=_POSITIVE)
    poisson: PoissonParams
    annual_miles: float = field(metadata=_POSITIVE)
    gamma_override: float = field(metadata=_POSITIVE)
    base_delta: float = field(metadata=_domain(0, 1, low_open=True))
    f: float = field(metadata=_domain(0, 1))
    prod_reg_years: StageMap = field(metadata=_NONNEGATIVE)
    baseline_year: int = field(metadata=_domain(MINYEAR, MAXYEAR))

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(f"scenario name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.chi, StageMap):
            raise ValidationError(f"scenario {self.name!r}: chi must be a StageMap")
        if not isinstance(self.compute_env, ComputeEnv):
            raise ValidationError(f"scenario {self.name!r}: compute_env must be a ComputeEnv")
        if not isinstance(self.crow, CrowAmsaaParams):
            raise ValidationError(f"scenario {self.name!r}: crow must be CrowAmsaaParams")
        if not isinstance(self.poisson, PoissonParams):
            raise ValidationError(f"scenario {self.name!r}: poisson must be PoissonParams")
        if not isinstance(self.prod_reg_years, StageMap):
            raise ValidationError(f"scenario {self.name!r}: prod_reg_years must be a StageMap")
        _check_fields(self, "scenario")


def _field_triples(owner: type) -> tuple[tuple[str, type, tuple | None], ...]:
    hints = get_type_hints(owner)
    return tuple((f.name, hints[f.name], f.metadata.get("domain")) for f in fields(owner))


# (field name, type, declared domain or None) of every field of every
# scenario dataclass, in declaration order.  Documents, the document
# schema and the sensitivity parameter registry are all derived from this
# one table; a type found in it is a nested object, any other type a leaf.
_FIELDS: dict[type, tuple[tuple[str, type, tuple | None], ...]] = {
    owner: _field_triples(owner)
    for owner in (CategoryScenario, StageMap, ComputeEnv, CrowAmsaaParams, PoissonParams)
}


@dataclass(frozen=True, slots=True)
class Intermediates:
    """Intermediate pipeline values retained for reporting and checks."""

    naive_demand: Magnitude
    effective_demand: Magnitude
    crow_miles: float
    poisson_miles: float
    gamma: float
    delta_effective: float


@dataclass(frozen=True, slots=True)
class ProjectionResult:
    """One (category, stage) projection with its full breakdown."""

    category: str
    stage: Stage
    breakdown: TimelineBreakdown
    intermediate: Intermediates


# ---------------------------------------------------------------------------
# Builtin catalog
# ---------------------------------------------------------------------------

# Demonstration economics shared by every catalog category; also the
# outermost defaulting layer of scenario documents.
_SHARED_DEFAULTS: dict[str, Any] = {
    "cycle_time_s": 0.1,  # 10 Hz replanning
    "compute_env": {
        "current_capacity": 1e13,  # fleet-scale compute available today, ops/s
        "doubling_period_years": 2.5,
    },
    "crow": {"alpha": 1e-4, "beta": 0.4, "severity": 1.0},  # alpha: rate at one mile
    "crow_lambda_target": 1e-8,  # per-mile target closing the growth phase
    "poisson": {
        "confidence": 0.95,
        "safety_factor": 2.0,
        "lambda_target": 7.1e-9,  # per-mile rate demonstrated at the end
    },
    "annual_miles": 1e9,  # fleet accumulation rate
    "base_delta": 1.0,
    "f": 0.7,  # growth share overlappable with compute wait
    "baseline_year": 2024,
}


def _deep_merge(base: dict[str, Any], override: dict[str, Any]) -> dict[str, Any]:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _chi_closing_gap(n_objects: int, doublings: float) -> float:
    """Reduction factor leaving demand the given number of capacity
    doublings above today's capacity.

    Compute-bound catalog categories are calibrated this way: the
    factor absorbs the rest of the naive 2**n demand so the remaining
    gap closes in doublings * doubling_period years.
    """
    naive = compute_demand(n_objects, _SHARED_DEFAULTS["cycle_time_s"])
    log10_chi = (
        math.log10(_SHARED_DEFAULTS["compute_env"]["current_capacity"])
        + doublings * LOG10_2
        - naive.log10_value
    )
    return 10.0 ** log10_chi


# name, n_objects, severity, gamma, chi per stage, prod/reg years per stage.
# Categories whose naive demand already fits current capacity carry chi = 1
# (no savings are needed for the compute side; their horizon is zero).
_CATALOG_ROWS: tuple[tuple[str, int, float, float, tuple[float, float], tuple[float, float]], ...] = (
    ("Consumer Automotive", 60, 1.0, 1.0,
     (_chi_closing_gap(60, 10.0), _chi_closing_gap(60, 14.0)), (1.5, 5.0)),
    ("Robo-Taxis", 55, 2.0, 0.9,
     (_chi_closing_gap(55, 6.0), _chi_closing_gap(55, 8.0)), (1.5, 5.0)),
    ("Geo-fenced Vans/Buses", 35, 1.0, 0.5, (1.0, 1.0), (1.5, 2.5)),
    ("Highway Trucking", 25, 5.0, 0.4, (1.0, 1.0), (1.5, 5.0)),
    ("Delivery Vans", 35, 1.0, 0.5, (1.0, 1.0), (1.5, 2.5)),
    ("Bespoke Shuttles", 35, 2.0, 0.5, (1.0, 1.0), (3.75, 7.0)),
    ("Military/Defense", 35, 1.0, 0.3, (1.0, 1.0), (1.5, 2.5)),
    ("Industrial/Mining", 25, 1.0, 0.2, (1.0, 1.0), (1.5, 2.5)),
)

# Each catalog category as a resolved scenario document, by name.
_CATALOG_DOCUMENTS: dict[str, dict[str, Any]] = {
    name: _deep_merge(_SHARED_DEFAULTS, {
        "name": name,
        "n_objects": n,
        "chi": {"stage2": chi2, "stage3": chi3},
        "crow": {"severity": severity},
        "gamma_override": gamma_value,
        "prod_reg_years": {"stage2": pr2, "stage3": pr3},
    })
    for name, n, severity, gamma_value, (chi2, chi3), (pr2, pr3) in _CATALOG_ROWS
}


# Provenance of the catalog chi values, keyed by category name.  The
# compute-bound categories are calibrated backward from their stated
# compute horizons; every other category needs no savings at all.
CHI_PROVENANCE: dict[str, str] = {
    "Consumer Automotive": (
        "chi back-derived from the category's compute horizons at n=60: "
        "stage2 leaves a 10-doubling gap (25 years at 2.5-year doublings), "
        "stage3 a 14-doubling gap (35 years)."
    ),
    "Robo-Taxis": (
        "chi back-derived from the category's compute horizons at n=55: "
        "stage2 leaves a 6-doubling gap (15 years), stage3 an 8-doubling "
        "gap (20 years)."
    ),
    **{
        name: (
            f"naive demand 2**{n}/{_SHARED_DEFAULTS['cycle_time_s']} ops/s is already below "
            "current capacity; chi = 1 (no savings needed), compute horizon 0 at both stages."
        )
        for name, n, _, _, chi, _ in _CATALOG_ROWS
        if chi == (1.0, 1.0)
    },
}


def builtin_catalog() -> tuple[CategoryScenario, ...]:
    """The eight reference categories, in canonical order."""
    return tuple(_scenario_from_document(doc) for doc in _CATALOG_DOCUMENTS.values())


# ---------------------------------------------------------------------------
# Projection pipeline
# ---------------------------------------------------------------------------


def project(scenario: CategoryScenario, stage: Stage) -> ProjectionResult:
    """Run the full pipeline for one scenario at one stage."""
    if stage not in PROJECTABLE_STAGES:
        raise UnsupportedStageError(
            f"cannot project {scenario.name!r} at {stage.display_name}: "
            "timelines are computed for revenue service and broad "
            "commercialization only (pilots are assumed achievable with "
            "current technology; stage thresholds are reporting metadata)"
        )
    naive = compute_demand(scenario.n_objects, scenario.cycle_time_s)
    chi = scenario.chi.for_stage(stage)
    effective = effective_demand(naive, chi)
    t_comp = hpc_horizon_years(effective, scenario.compute_env)

    stage_spec = StageSpec.for_stage(stage, scenario.prod_reg_years.for_stage(stage))
    delta_effective = scenario.base_delta * stage_spec.delta_multiplier
    gamma_value = scenario.gamma_override

    crow_miles = crow_required_miles(scenario.crow, scenario.crow_lambda_target)
    t_crow_total = demonstration_years(
        crow_miles, gamma_value, delta_effective, scenario.annual_miles
    )
    poisson_miles = poisson_required_miles(scenario.poisson)
    t_poisson = demonstration_years(
        poisson_miles, gamma_value, delta_effective, scenario.annual_miles
    )

    breakdown = compose_total(
        t_comp,
        t_crow_total,
        scenario.f,
        t_poisson,
        stage_spec.prod_reg_years,
        baseline_year=scenario.baseline_year,
    )
    return ProjectionResult(
        category=scenario.name,
        stage=stage,
        breakdown=breakdown,
        intermediate=Intermediates(
            naive_demand=naive,
            effective_demand=effective,
            crow_miles=crow_miles,
            poisson_miles=poisson_miles,
            gamma=gamma_value,
            delta_effective=delta_effective,
        ),
    )


# ---------------------------------------------------------------------------
# Scenario documents
# ---------------------------------------------------------------------------

_NUMBER = {"type": "number"}
_FACTOR_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "value"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "value": _NUMBER,
        "documented_range": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "prefixItems": [_NUMBER, _NUMBER],
        },
    },
}
_CHI_VALUE_SCHEMA = {
    "oneOf": [
        _NUMBER,
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["factors"],
            "properties": {
                "factors": {"type": "array", "minItems": 1, "items": _FACTOR_SCHEMA},
            },
        },
    ]
}
_LEAF_SCHEMAS = {
    str: {"type": "string", "minLength": 1},
    int: {"type": "integer"},
    float: _NUMBER,
    Magnitude: _NUMBER,
}


def _field_schemas(owner: type) -> dict[str, Any]:
    """Schema of each field of ``owner``; a nested dataclass is a closed object."""
    return {
        name: {"type": "object", "additionalProperties": False,
               "properties": _field_schemas(kind)}
        if kind in _FIELDS else _LEAF_SCHEMAS[kind]
        for name, kind, _ in _FIELDS[owner]
    }


# Two constraints the field types do not carry: a scene has at least one
# object, and each chi stage may be given in factor-product form.
_SCENARIO_FIELD_SCHEMAS = _field_schemas(CategoryScenario)
_SCENARIO_FIELD_SCHEMAS["n_objects"] = {**_SCENARIO_FIELD_SCHEMAS["n_objects"], "minimum": 1}
_SCENARIO_FIELD_SCHEMAS["chi"]["properties"] = dict.fromkeys(
    _SCENARIO_FIELD_SCHEMAS["chi"]["properties"], _CHI_VALUE_SCHEMA
)

SCENARIO_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "Vehicle-category scenario document",
    "type": "object",
    "additionalProperties": False,
    "required": ["scenarios"],
    "properties": {
        "defaults": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                key: schema for key, schema in _SCENARIO_FIELD_SCHEMAS.items() if key != "name"
            },
        },
        "scenarios": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name"],
                "properties": _SCENARIO_FIELD_SCHEMAS,
            },
        },
    },
}


def schema_json() -> str:
    """The scenario-document schema as formatted JSON."""
    return json.dumps(SCENARIO_SCHEMA, indent=2) + "\n"


def scenario_to_document(scenario: CategoryScenario) -> dict[str, Any]:
    """Plain-JSON form of a scenario (or of a dataclass nested in one),
    keys in field declaration order."""
    document = {}
    for name, kind, _ in _FIELDS[type(scenario)]:
        value = getattr(scenario, name)
        if kind is Magnitude:
            value = value.value
        elif kind in _FIELDS:
            value = scenario_to_document(value)
        document[name] = value
    return document


def serialize_scenarios(scenarios: tuple[CategoryScenario, ...] | list[CategoryScenario]) -> str:
    """Serialize scenarios to a loadable JSON document string."""
    document = {"scenarios": [scenario_to_document(s) for s in scenarios]}
    return json.dumps(document, indent=2) + "\n"


def _resolve_chi_value(name: str, stage_key: str, value: Any) -> float:
    """Scalar chi, resolving the factor-product form if given."""
    if isinstance(value, dict):
        factors = []
        for item in value["factors"]:
            rng = item.get("documented_range")
            if rng is None:
                if item["name"] not in DEFAULT_FACTOR_RANGES:
                    raise ValidationError(
                        f"scenario {name!r}: chi.{stage_key} factor {item['name']!r} "
                        "has no documented_range and no default range is known "
                        f"for that name (known: {sorted(DEFAULT_FACTOR_RANGES)})"
                    )
                rng = DEFAULT_FACTOR_RANGES[item["name"]]
            factors.append(
                ReductionFactor(item["name"], item["value"], (rng[0], rng[1]))
            )
        return chi_eff(ReductionFactors(tuple(factors)))
    return value


def _from_document(owner: type, document: Mapping[str, Any], where: str):
    """``owner`` built through its positional constructor, nested
    dataclasses first, so every ``__post_init__`` check runs.

    ``where`` prefixes leaf errors ("scenario 'X': " at the top level);
    a nested dataclass's errors are prefixed with ``where`` and its field
    name and a dot, so every error spells the dotted parameter path.
    """
    args = []
    for name, kind, interval in _FIELDS[owner]:
        value = document[name]
        if kind in _FIELDS:
            try:
                value = _from_document(kind, value, "")
            except ValidationError as exc:
                raise ValidationError(f"{where}{name}.{exc}") from None
        elif kind is float or kind is Magnitude:
            # JSON allows integers of any size.
            if type(value) is int and not _is_finite_number(value):
                raise ValidationError(
                    f"{where}{name} is an integer beyond float range ({value.bit_length()} bits)"
                )
            if kind is Magnitude:  # checked on the linear value, as given
                if not _in_interval(value, interval):
                    raise ValidationError(_outside(f"{where}{name}", value, interval))
                value = Magnitude.from_value(value)
        args.append(value)
    return owner(*args)


def _scenario_from_document(entry: Mapping[str, Any]) -> CategoryScenario:
    """Scenario from a fully merged document entry."""
    name = entry["name"]
    # Only the fields without a shared default can be missing after the merge.
    missing = [key for key, *_ in _FIELDS[CategoryScenario] if key not in entry]
    if missing:
        raise ValidationError(
            f"scenario {name!r}: missing required field(s) {missing}; new "
            "categories must state them (catalog categories inherit theirs by name)"
        )
    stage_keys = [stage_key for stage_key, *_ in _FIELDS[StageMap]]
    for key in ("chi", "prod_reg_years"):
        for stage_key in stage_keys:
            if stage_key not in entry[key]:
                raise ValidationError(f"scenario {name!r}: {key}.{stage_key} is required")
    chi = {key: _resolve_chi_value(name, key, entry["chi"][key]) for key in stage_keys}
    return _from_document(CategoryScenario, {**entry, "chi": chi}, f"scenario {name!r}: ")


def parse_scenarios(text: str, origin: str = "<string>") -> tuple[CategoryScenario, ...]:
    """Parse and validate a scenario document from a JSON string.

    Layered defaulting, outermost first: catalog shared values, the
    builtin entry with the same name (if any), the document defaults,
    then the entry itself.
    """
    document = _validated_json(text, SCENARIO_SCHEMA, origin, "scenario document")
    doc_defaults = document.get("defaults", {})

    scenarios: list[CategoryScenario] = []
    seen: set[str] = set()
    for entry in document["scenarios"]:
        name = entry["name"]
        if name in seen:
            raise ValidationError(
                f"{origin}: duplicate scenario name {name!r}; names must be unique"
            )
        seen.add(name)
        base = _CATALOG_DOCUMENTS.get(name, _SHARED_DEFAULTS)
        merged = _deep_merge(_deep_merge(base, doc_defaults), entry)
        scenarios.append(_scenario_from_document(merged))
    return tuple(scenarios)


def _validated_json(text: str, schema: dict, origin: str, what: str) -> Any:
    """JSON text parsed and checked against ``schema``; a syntax error or
    the first schema violation in document order is a ScenarioFormatError
    naming ``origin``, ``what`` and the JSON path."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{origin}: not valid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal beyond the int-to-str digit limit
        raise ScenarioFormatError(
            f"{origin}: not valid JSON: {str(exc).partition(';')[0]}"
        ) from None
    except RecursionError:  # arrays or objects nested past the recursion limit
        raise ScenarioFormatError(f"{origin}: not valid JSON: nested too deeply") from None
    validator = jsonschema.Draft202012Validator(schema)
    try:
        errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    except RecursionError:  # parsed, but too deep to repr in the error message
        raise ScenarioFormatError(f"{origin}: invalid {what}: nested too deeply") from None
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.absolute_path) or "top level"
        raise ScenarioFormatError(f"{origin}: invalid {what} at {where}: {first.message}")
    return document


def read_utf8_file(path: str | Path, what: str) -> str:
    """Text of a UTF-8 file; a missing, unreadable or undecodable file is
    a ValidationError that names ``what`` and the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{what} {path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from None


def load_scenarios(path: str | Path) -> tuple[CategoryScenario, ...]:
    """Load a scenario document from a file path."""
    file_path = Path(path)
    text = read_utf8_file(file_path, "scenario file")
    return parse_scenarios(text, origin=str(file_path))
