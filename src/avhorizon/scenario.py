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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import jsonschema

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


def _check_number(scenario: str, field_name: str, value: Any, *,
                  low: float | None = None, high: float | None = None,
                  low_open: bool = False, high_open: bool = False) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ValidationError(
            f"scenario {scenario!r}: {field_name} must be a finite number, got {value!r}"
        )
    if low is not None and (value <= low if low_open else value < low):
        bound = "(" if low_open else "["
        raise ValidationError(
            f"scenario {scenario!r}: {field_name}={value!r} below permitted range "
            f"{bound}{low}, ...]"
        )
    if high is not None and (value >= high if high_open else value > high):
        raise ValidationError(
            f"scenario {scenario!r}: {field_name}={value!r} above permitted range "
            f"[..., {high}{')' if high_open else ']'}"
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
    n_objects: int
    cycle_time_s: float
    chi: StageMap
    compute_env: ComputeEnv
    crow: CrowAmsaaParams
    crow_lambda_target: float
    poisson: PoissonParams
    annual_miles: float
    gamma_override: float
    base_delta: float
    f: float
    prod_reg_years: StageMap
    baseline_year: int

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(f"scenario name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.n_objects, int) or isinstance(self.n_objects, bool) or self.n_objects < 1:
            raise ValidationError(
                f"scenario {self.name!r}: n_objects must be an integer >= 1, "
                f"got {self.n_objects!r}"
            )
        _check_number(self.name, "cycle_time_s", self.cycle_time_s, low=0.0, low_open=True)
        if not isinstance(self.chi, StageMap):
            raise ValidationError(f"scenario {self.name!r}: chi must be a StageMap")
        _check_number(self.name, "chi.stage2", self.chi.stage2, low=0.0, low_open=True, high=1.0)
        _check_number(self.name, "chi.stage3", self.chi.stage3, low=0.0, low_open=True, high=1.0)
        if not isinstance(self.compute_env, ComputeEnv):
            raise ValidationError(f"scenario {self.name!r}: compute_env must be a ComputeEnv")
        if not isinstance(self.crow, CrowAmsaaParams):
            raise ValidationError(f"scenario {self.name!r}: crow must be CrowAmsaaParams")
        _check_number(self.name, "crow_lambda_target", self.crow_lambda_target, low=0.0, low_open=True)
        if not isinstance(self.poisson, PoissonParams):
            raise ValidationError(f"scenario {self.name!r}: poisson must be PoissonParams")
        _check_number(self.name, "annual_miles", self.annual_miles, low=0.0, low_open=True)
        _check_number(self.name, "gamma_override", self.gamma_override, low=0.0, low_open=True)
        _check_number(self.name, "base_delta", self.base_delta, low=0.0, low_open=True, high=1.0)
        _check_number(self.name, "f", self.f, low=0.0, high=1.0)
        if not isinstance(self.prod_reg_years, StageMap):
            raise ValidationError(f"scenario {self.name!r}: prod_reg_years must be a StageMap")
        _check_number(self.name, "prod_reg_years.stage2", self.prod_reg_years.stage2, low=0.0)
        _check_number(self.name, "prod_reg_years.stage3", self.prod_reg_years.stage3, low=0.0)
        if not isinstance(self.baseline_year, int) or isinstance(self.baseline_year, bool):
            raise ValidationError(
                f"scenario {self.name!r}: baseline_year must be an integer, "
                f"got {self.baseline_year!r}"
            )


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

# Demonstration economics shared by every catalog category.
_SHARED_CYCLE_TIME_S = 0.1          # 10 Hz replanning
_SHARED_CAPACITY_OPS_PER_S = 1e13   # fleet-scale compute available today
_SHARED_DOUBLING_YEARS = 2.5        # capacity doubling period
_SHARED_CROW_ALPHA = 1e-4           # growth-curve rate at one mile
_SHARED_CROW_BETA = 0.4
_SHARED_CROW_LAMBDA_TARGET = 1e-8   # per-mile target closing the growth phase
_SHARED_POISSON_CONFIDENCE = 0.95
_SHARED_POISSON_SAFETY_FACTOR = 2.0
_SHARED_POISSON_LAMBDA_TARGET = 7.1e-9  # per-mile rate demonstrated at the end
_SHARED_ANNUAL_MILES = 1e9          # fleet accumulation rate
_SHARED_OVERLAP_F = 0.7             # growth share overlappable with compute wait
_SHARED_BASE_DELTA = 1.0
_SHARED_BASELINE_YEAR = 2024


def _chi_closing_gap(n_objects: int, doublings: float) -> float:
    """Reduction factor leaving demand the given number of capacity
    doublings above today's capacity.

    Compute-bound catalog categories are calibrated this way: the
    factor absorbs the rest of the naive 2**n demand so the remaining
    gap closes in doublings * doubling_period years.
    """
    naive = compute_demand(n_objects, _SHARED_CYCLE_TIME_S)
    log10_chi = (
        math.log10(_SHARED_CAPACITY_OPS_PER_S)
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
    "Geo-fenced Vans/Buses": (
        "naive demand 2**35/0.1 ops/s is already below current capacity; "
        "chi = 1 (no savings needed), compute horizon 0 at both stages."
    ),
    "Highway Trucking": (
        "naive demand 2**25/0.1 ops/s is already below current capacity; "
        "chi = 1 (no savings needed), compute horizon 0 at both stages."
    ),
    "Delivery Vans": (
        "naive demand 2**35/0.1 ops/s is already below current capacity; "
        "chi = 1 (no savings needed), compute horizon 0 at both stages."
    ),
    "Bespoke Shuttles": (
        "naive demand 2**35/0.1 ops/s is already below current capacity; "
        "chi = 1 (no savings needed), compute horizon 0 at both stages."
    ),
    "Military/Defense": (
        "naive demand 2**35/0.1 ops/s is already below current capacity; "
        "chi = 1 (no savings needed), compute horizon 0 at both stages."
    ),
    "Industrial/Mining": (
        "naive demand 2**25/0.1 ops/s is already below current capacity; "
        "chi = 1 (no savings needed), compute horizon 0 at both stages."
    ),
}


def builtin_catalog() -> tuple[CategoryScenario, ...]:
    """The eight reference categories, in canonical order."""
    env = ComputeEnv(
        current_capacity=Magnitude.from_value(_SHARED_CAPACITY_OPS_PER_S),
        doubling_period_years=_SHARED_DOUBLING_YEARS,
    )
    scenarios = []
    for name, n, severity, gamma_value, (chi2, chi3), (pr2, pr3) in _CATALOG_ROWS:
        scenarios.append(
            CategoryScenario(
                name=name,
                n_objects=n,
                cycle_time_s=_SHARED_CYCLE_TIME_S,
                chi=StageMap(stage2=chi2, stage3=chi3),
                compute_env=env,
                crow=CrowAmsaaParams(
                    alpha=_SHARED_CROW_ALPHA,
                    beta=_SHARED_CROW_BETA,
                    severity=severity,
                ),
                crow_lambda_target=_SHARED_CROW_LAMBDA_TARGET,
                poisson=PoissonParams(
                    confidence=_SHARED_POISSON_CONFIDENCE,
                    safety_factor=_SHARED_POISSON_SAFETY_FACTOR,
                    lambda_target=_SHARED_POISSON_LAMBDA_TARGET,
                ),
                annual_miles=_SHARED_ANNUAL_MILES,
                gamma_override=gamma_value,
                base_delta=_SHARED_BASE_DELTA,
                f=_SHARED_OVERLAP_F,
                prod_reg_years=StageMap(stage2=pr2, stage3=pr3),
                baseline_year=_SHARED_BASELINE_YEAR,
            )
        )
    return tuple(scenarios)


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
_SCENARIO_FIELD_PROPERTIES = {
    "n_objects": {"type": "integer", "minimum": 1},
    "cycle_time_s": _NUMBER,
    "chi": {
        "type": "object",
        "additionalProperties": False,
        "properties": {"stage2": _CHI_VALUE_SCHEMA, "stage3": _CHI_VALUE_SCHEMA},
    },
    "compute_env": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "current_capacity": _NUMBER,
            "doubling_period_years": _NUMBER,
        },
    },
    "crow": {
        "type": "object",
        "additionalProperties": False,
        "properties": {"alpha": _NUMBER, "beta": _NUMBER, "severity": _NUMBER},
    },
    "crow_lambda_target": _NUMBER,
    "poisson": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "confidence": _NUMBER,
            "safety_factor": _NUMBER,
            "lambda_target": _NUMBER,
        },
    },
    "annual_miles": _NUMBER,
    "gamma_override": _NUMBER,
    "base_delta": _NUMBER,
    "f": _NUMBER,
    "prod_reg_years": {
        "type": "object",
        "additionalProperties": False,
        "properties": {"stage2": _NUMBER, "stage3": _NUMBER},
    },
    "baseline_year": {"type": "integer"},
}

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
            "properties": _SCENARIO_FIELD_PROPERTIES,
        },
        "scenarios": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    **_SCENARIO_FIELD_PROPERTIES,
                },
            },
        },
    },
}


def schema_json() -> str:
    """The scenario-document schema as formatted JSON."""
    return json.dumps(SCENARIO_SCHEMA, indent=2) + "\n"


def scenario_to_document(scenario: CategoryScenario) -> dict[str, Any]:
    """Plain-JSON form of a scenario, canonical key order."""
    return {
        "name": scenario.name,
        "n_objects": scenario.n_objects,
        "cycle_time_s": scenario.cycle_time_s,
        "chi": {"stage2": scenario.chi.stage2, "stage3": scenario.chi.stage3},
        "compute_env": {
            "current_capacity": scenario.compute_env.current_capacity.value,
            "doubling_period_years": scenario.compute_env.doubling_period_years,
        },
        "crow": {
            "alpha": scenario.crow.alpha,
            "beta": scenario.crow.beta,
            "severity": scenario.crow.severity,
        },
        "crow_lambda_target": scenario.crow_lambda_target,
        "poisson": {
            "confidence": scenario.poisson.confidence,
            "safety_factor": scenario.poisson.safety_factor,
            "lambda_target": scenario.poisson.lambda_target,
        },
        "annual_miles": scenario.annual_miles,
        "gamma_override": scenario.gamma_override,
        "base_delta": scenario.base_delta,
        "f": scenario.f,
        "prod_reg_years": {
            "stage2": scenario.prod_reg_years.stage2,
            "stage3": scenario.prod_reg_years.stage3,
        },
        "baseline_year": scenario.baseline_year,
    }


def serialize_scenarios(scenarios: tuple[CategoryScenario, ...] | list[CategoryScenario]) -> str:
    """Serialize scenarios to a loadable JSON document string."""
    document = {"scenarios": [scenario_to_document(s) for s in scenarios]}
    return json.dumps(document, indent=2) + "\n"


def _shared_defaults_document() -> dict[str, Any]:
    """Catalog-wide shared values, the outermost defaulting layer."""
    return {
        "cycle_time_s": _SHARED_CYCLE_TIME_S,
        "compute_env": {
            "current_capacity": _SHARED_CAPACITY_OPS_PER_S,
            "doubling_period_years": _SHARED_DOUBLING_YEARS,
        },
        "crow": {
            "alpha": _SHARED_CROW_ALPHA,
            "beta": _SHARED_CROW_BETA,
            "severity": 1.0,
        },
        "crow_lambda_target": _SHARED_CROW_LAMBDA_TARGET,
        "poisson": {
            "confidence": _SHARED_POISSON_CONFIDENCE,
            "safety_factor": _SHARED_POISSON_SAFETY_FACTOR,
            "lambda_target": _SHARED_POISSON_LAMBDA_TARGET,
        },
        "annual_miles": _SHARED_ANNUAL_MILES,
        "base_delta": _SHARED_BASE_DELTA,
        "f": _SHARED_OVERLAP_F,
        "baseline_year": _SHARED_BASELINE_YEAR,
    }


def _deep_merge(base: Mapping[str, Any], override: Mapping[str, Any]) -> dict[str, Any]:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), Mapping):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _resolve_chi_value(name: str, stage_key: str, value: Any) -> float:
    """Scalar chi, resolving the factor-product form if given."""
    if isinstance(value, Mapping):
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


_REQUIRED_AFTER_MERGE = (
    "n_objects",
    "chi",
    "gamma_override",
    "prod_reg_years",
)


def _scenario_from_document(entry: dict[str, Any]) -> CategoryScenario:
    name = entry["name"]
    missing = [key for key in _REQUIRED_AFTER_MERGE if key not in entry]
    if missing:
        raise ValidationError(
            f"scenario {name!r}: missing required field(s) {missing}; new "
            "categories must state them (catalog categories inherit theirs by name)"
        )
    for key in ("chi", "prod_reg_years"):
        for stage_key in ("stage2", "stage3"):
            if stage_key not in entry[key]:
                raise ValidationError(f"scenario {name!r}: {key}.{stage_key} is required")
    chi_doc, prod_reg_doc = entry["chi"], entry["prod_reg_years"]
    env_doc = entry["compute_env"]

    def _build(field_name: str, builder):
        # Nested parameter objects validate themselves; prefix their
        # messages with the scenario so errors stay attributable.
        try:
            return builder()
        except ValidationError as exc:
            raise ValidationError(f"scenario {name!r}: {field_name}: {exc}") from None

    compute_env = _build(
        "compute_env",
        lambda: ComputeEnv(
            current_capacity=Magnitude.from_value(env_doc["current_capacity"]),
            doubling_period_years=env_doc["doubling_period_years"],
        ),
    )
    crow = _build(
        "crow",
        lambda: CrowAmsaaParams(
            alpha=entry["crow"]["alpha"],
            beta=entry["crow"]["beta"],
            severity=entry["crow"]["severity"],
        ),
    )
    poisson = _build(
        "poisson",
        lambda: PoissonParams(
            confidence=entry["poisson"]["confidence"],
            safety_factor=entry["poisson"]["safety_factor"],
            lambda_target=entry["poisson"]["lambda_target"],
        ),
    )
    return CategoryScenario(
        name=name,
        n_objects=entry["n_objects"],
        cycle_time_s=entry["cycle_time_s"],
        chi=StageMap(
            stage2=_resolve_chi_value(name, "stage2", chi_doc["stage2"]),
            stage3=_resolve_chi_value(name, "stage3", chi_doc["stage3"]),
        ),
        compute_env=compute_env,
        crow=crow,
        crow_lambda_target=entry["crow_lambda_target"],
        poisson=poisson,
        annual_miles=entry["annual_miles"],
        gamma_override=entry["gamma_override"],
        base_delta=entry["base_delta"],
        f=entry["f"],
        prod_reg_years=StageMap(
            stage2=prod_reg_doc["stage2"], stage3=prod_reg_doc["stage3"]
        ),
        baseline_year=entry["baseline_year"],
    )


def parse_scenarios(text: str, origin: str = "<string>") -> tuple[CategoryScenario, ...]:
    """Parse and validate a scenario document from a JSON string.

    Layered defaulting, outermost first: catalog shared values, the
    builtin entry with the same name (if any), the document defaults,
    then the entry itself.
    """
    document = _validated_json(text, SCENARIO_SCHEMA, origin, "scenario document")
    doc_defaults = document.get("defaults", {})
    catalog_docs = {s.name: scenario_to_document(s) for s in builtin_catalog()}
    shared = _shared_defaults_document()

    scenarios: list[CategoryScenario] = []
    seen: set[str] = set()
    for entry in document["scenarios"]:
        name = entry["name"]
        if name in seen:
            raise ValidationError(
                f"{origin}: duplicate scenario name {name!r}; names must be unique"
            )
        seen.add(name)
        base = catalog_docs.get(name, shared)
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
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
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
