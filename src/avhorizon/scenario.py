"""Vehicle-category scenarios and the projection pipeline.

A :class:`CategoryScenario` bundles every input the timeline model
needs for one autonomous-vehicle category: scene complexity, the
algorithmic-savings factor per stage, the compute environment,
reliability-growth and final-demonstration parameters, the operating
domain weighting and the productization spans.  ``project`` runs the
full pipeline for one scenario and stage through ``_terms``, which
composes the term functions behind the public functions of complexity,
reliability and timeline:

    demand -> effective demand -> compute horizon
    growth / Poisson mileage -> stage delta -> demonstration years
    split by f -> total -> calendar year

Monte Carlo runs the same ``_terms`` on each sample's floats, or over
numpy columns of its samples.

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
from operator import attrgetter
from pathlib import Path
from typing import Any, Mapping, get_type_hints

from ._schema_shapes import NUMBER, closed_object
# project runs the term functions (_demand_log10 ...), not the public
# functions that own them.  The benchmark's tracer (perfbench/) wraps seven
# of those in this module (compute_demand ... compose_total), so they stay
# imported.
from .complexity import (
    LOG10_2,
    ComputeEnv,
    DEFAULT_FACTOR_RANGES,
    Magnitude,
    _demand_log10,
    _effective_log10,
    _horizon_years,
    _per_cycle_log10,
    compute_demand,
    effective_demand,
    hpc_horizon_years,
)
from .errors import _FLOAT_OPS, ScenarioFormatError, UnsupportedStageError, ValidationError
from .errors import _NONNEGATIVE, _POSITIVE, _check_fields, _check_number, _domain
from .reliability import (
    CrowAmsaaParams,
    PoissonParams,
    _demonstration_years,
    _growth_miles,
    _poisson_miles,
    crow_required_miles,
    demonstration_years,
    poisson_required_miles,
)
from .timeline import (
    _GATING,
    PROJECTABLE_STAGES,
    STAGE_DELTA_MULTIPLIERS,
    Stage,
    TimelineBreakdown,
    _calendar_year,
    _split_crow,
    _total_years,
    compose_total,
)

__all__ = [
    "CHI_PROVENANCE",
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


@dataclass(frozen=True, slots=True)
class CategoryScenario:
    """Complete model inputs for one vehicle category.

    chi is carried as data per stage rather than derived from factor
    lists at projection time; document loading accepts a factor-product
    form and resolves it to the scalar before construction.
    gamma_override is the domain weighting of the demonstration miles,
    any positive number.
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
    baseline_year: int = field(metadata=_domain(1, 9999))  # datetime.MINYEAR..MAXYEAR

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(f"scenario name must be a non-empty string, got {self.name!r}")
        try:
            self.name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"scenario name must be text that UTF-8 can encode, "
                                  f"got {self.name!r}") from None
        for name, kind in _NESTED:
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValidationError(f"scenario {self.name!r}: {name} must be a "
                                      f"{kind.__name__}, got {value!r}")
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
# (name, type) of each nested dataclass field of CategoryScenario.
_NESTED = tuple((name, kind) for name, kind, _ in _FIELDS[CategoryScenario] if kind in _FIELDS)


@dataclass(frozen=True, slots=True)
class Intermediates:
    """Intermediate pipeline values retained for reporting and checks."""

    naive_demand: Magnitude
    effective_demand: Magnitude
    crow_miles: float = field(metadata=_NONNEGATIVE)
    poisson_miles: float = field(metadata=_NONNEGATIVE)
    gamma: float = field(metadata=_POSITIVE)
    delta_effective: float = field(metadata=_domain(0, 1, low_open=True))

    def __post_init__(self) -> None:
        for name in ("naive_demand", "effective_demand"):
            if not isinstance(getattr(self, name), Magnitude):
                raise ValidationError(f"{name} must be a Magnitude, got {getattr(self, name)!r}")
        _check_fields(self)


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
    built: dict = {}
    return tuple(_scenario_from_document(doc, built) for doc in _CATALOG_DOCUMENTS.values())


# ---------------------------------------------------------------------------
# Projection pipeline
# ---------------------------------------------------------------------------


# The scenario fields _terms reads after its first two arguments, in its
# parameter order, for each stage.
_TERM_PATHS: dict[Stage, tuple[str, ...]] = {
    stage: ("n_objects", "cycle_time_s", f"chi.{stage.value}",
            "compute_env.doubling_period_years", "compute_env.current_capacity",
            "crow.alpha", "crow.severity", "crow_lambda_target", "crow.beta",
            "poisson.confidence", "poisson.safety_factor", "poisson.lambda_target",
            "gamma_override", "annual_miles", "base_delta", "f", f"prod_reg_years.{stage.value}")
    for stage in PROJECTABLE_STAGES
}
_TERM_LEAVES = {stage: attrgetter(*paths) for stage, paths in _TERM_PATHS.items()}


def _terms(stage: Stage, ops, n_objects, cycle_time_s, chi, doubling_period_years,
           capacity, alpha, severity, crow_lambda_target, beta, confidence,
           safety_factor, poisson_lambda_target, gamma_value, annual_miles, base_delta, f,
           prod_reg_years):
    """The terms at ``stage`` of the leaves ``_TERM_PATHS`` names, on floats
    or float64 columns as ``ops`` (``errors._FLOAT_OPS``) takes them, checked
    in project's order: the TimelineBreakdown fields up to t_total, whether
    it is compute-gated, and the Intermediates fields (demands as log10)."""
    naive = _demand_log10(_per_cycle_log10(n_objects), cycle_time_s, ops)
    effective = _effective_log10(naive, chi, ops)
    t_comp = _horizon_years(effective, doubling_period_years, capacity, ops)
    crow_miles = _growth_miles(alpha, severity, crow_lambda_target, beta, ops)
    multiplier = STAGE_DELTA_MULTIPLIERS[stage]
    delta = base_delta * multiplier
    ops.check(delta > 0.0, lambda: (
        f"the stage delta base_delta={base_delta!r} * stage multiplier {multiplier!r} "
        "underflows to 0.0"
    ))
    t_crow_total = _demonstration_years(crow_miles, gamma_value, delta, annual_miles, ops)
    poisson_miles = _poisson_miles(confidence, safety_factor, poisson_lambda_target, ops)
    t_poisson = _demonstration_years(poisson_miles, gamma_value, delta, annual_miles, ops)
    partial, final = _split_crow(t_crow_total, f, ops)
    t_total, compute_gated = _total_years(t_comp, t_crow_total, f, partial, final, t_poisson,
                                          prod_reg_years, ops)
    return ((t_comp, t_crow_total, partial, final, t_poisson, prod_reg_years, f, t_total),
            compute_gated,
            (naive, effective, crow_miles, poisson_miles, gamma_value, delta))


# The slot setter of each field, in declaration order, of the classes whose
# checks _terms has already passed on the values project gives them.
_SLOT_SETTERS = {cls: tuple(getattr(cls, spec.name).__set__ for spec in fields(cls))
                 for cls in (TimelineBreakdown, Magnitude, Intermediates)}


def _proven(cls: type, *values):
    """An instance of ``cls`` holding ``values`` in field order, built
    without ``__post_init__``.  ``project`` builds its results this way:
    ``_terms`` has checked that every span and mileage is finite and not
    negative, every demand finite and the stage delta above zero (gamma
    is the scenario's checked gamma_override), and the split, total and
    gating are what the public constructor recomputes from the same term
    functions, so checking them again proves nothing new."""
    obj = object.__new__(cls)
    for set_slot, value in zip(_SLOT_SETTERS[cls], values):
        set_slot(obj, value)
    return obj


def project(scenario: CategoryScenario, stage: Stage) -> ProjectionResult:
    """Run the full pipeline for one scenario at one stage."""
    if stage not in PROJECTABLE_STAGES:
        raise UnsupportedStageError(
            f"cannot project {scenario.name!r} at {stage.display_name}: "
            "timelines are computed for revenue service and broad "
            "commercialization only (pilots are assumed achievable with "
            "current technology; stage thresholds are reporting metadata)"
        )
    spans, compute_gated, (naive, effective, *intermediate) = _terms(
        stage, _FLOAT_OPS, *_TERM_LEAVES[stage](scenario))
    breakdown = _proven(TimelineBreakdown, *spans, _GATING[compute_gated],
                        _calendar_year(scenario.baseline_year, spans[-1]))
    return ProjectionResult(scenario.name, stage, breakdown,
                            _proven(Intermediates, _proven(Magnitude, naive),
                                    _proven(Magnitude, effective), *intermediate))


# ---------------------------------------------------------------------------
# Scenario documents
# ---------------------------------------------------------------------------

_FACTOR_SCHEMA = closed_object({
    "name": {"type": "string", "minLength": 1},
    "value": NUMBER,
    "documented_range": {
        "type": "array",
        "minItems": 2,
        "maxItems": 2,
        "prefixItems": [NUMBER, NUMBER],
    },
}, required=["name", "value"])
_CHI_VALUE_SCHEMA = {
    "oneOf": [
        NUMBER,
        closed_object({
            "factors": {"type": "array", "minItems": 1, "items": _FACTOR_SCHEMA},
        }),
    ]
}
_LEAF_SCHEMAS = {
    str: {"type": "string", "minLength": 1},
    int: {"type": "integer"},
    float: NUMBER,
}


def _field_schemas(owner: type) -> dict[str, Any]:
    """Schema of each field of ``owner``; a nested dataclass is a closed object."""
    return {
        name: closed_object(_field_schemas(kind), required=[])
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
    **closed_object({
        "defaults": closed_object({
            key: schema for key, schema in _SCENARIO_FIELD_SCHEMAS.items() if key != "name"
        }, required=[]),
        "scenarios": {
            "type": "array",
            "minItems": 1,
            "items": closed_object(_SCENARIO_FIELD_SCHEMAS, required=["name"]),
        },
    }, required=["scenarios"]),
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
        if kind in _FIELDS:
            value = scenario_to_document(value)
        document[name] = value
    return document


def serialize_scenarios(scenarios: tuple[CategoryScenario, ...] | list[CategoryScenario]) -> str:
    """Serialize scenarios to a loadable JSON document string."""
    document = {"scenarios": [scenario_to_document(s) for s in scenarios]}
    return json.dumps(document, indent=2) + "\n"


def _resolve_chi_value(name: str, stage_key: str, value: Any) -> float:
    """Scalar chi, or the product of a factor-product form's values taken
    left to right.  Each factor's documented range lies in (0, 1] and its
    value in that range; an error names the scenario, ``chi.<stage_key>``
    and the factor.  A product that underflows to 0.0 is left to the chi
    field's own check."""
    if not isinstance(value, dict):
        return value
    chi = 1.0
    for item in value["factors"]:
        documented = item.get("documented_range", DEFAULT_FACTOR_RANGES.get(item["name"]))
        factor = item["value"]
        if documented is not None:
            low, high = documented  # JSON numbers: the schema admits no other type
            if 0 < low <= high <= 1 and low <= factor <= high:
                chi *= factor
                continue
        _reject_factor(f"scenario {name!r}: chi.{stage_key}: factor {item['name']!r}: ",
                       documented, factor)
    return chi


def _reject_factor(prefix: str, documented: Any, factor: Any) -> None:
    """Raise the ValidationError, ``prefix`` first, of the first check a
    factor fails: a documented range is known, its low end lies in (0, 1],
    its high end in [low, 1], and the factor's value in [low, high]."""
    if documented is None:
        raise ValidationError(
            f"{prefix}documented_range is required, as no default range is known for "
            f"that name (known: {sorted(DEFAULT_FACTOR_RANGES)})"
        )
    low, high = documented
    _check_number("documented_range low", low, _domain(0, 1, low_open=True), prefix=prefix)
    _check_number("documented_range high", high, _domain(low, 1), prefix=prefix)
    _check_number("value", factor, _domain(low, high), prefix=prefix)


# Per scenario dataclass, how each field is read from a merged document:
# (name, nested dataclass or None), in declaration order.
_PLANS: dict[type, tuple[tuple[str, type | None], ...]] = {
    owner: tuple((name, kind if kind in _FIELDS else None) for name, kind, _ in triples)
    for owner, triples in _FIELDS.items()
}
_SCENARIO_KEYS = frozenset(name for name, _, _ in _FIELDS[CategoryScenario])
_STAGE_KEYS = tuple(name for name, _, _ in _FIELDS[StageMap])


def _from_document(owner: type, document: Mapping[str, Any], where: str, built: dict):
    """``owner`` built through its positional constructor, nested
    dataclasses first, so every ``__post_init__`` check runs.

    A nested dataclass's errors are prefixed with ``where`` ("scenario
    'X': " at the top level), its field name and a dot, so every error
    spells the dotted parameter path; the leaves are checked by the
    constructors, after every nested dataclass is built.

    ``built`` maps ``id(d)`` to ``(d, what d was built into)`` for the
    nested dicts of one parse: merged entries share the dicts they
    inherit, and each is built once.  Holding ``d`` keeps its id from
    being reused by another dict, and each dict sits under one field.
    """
    args = []
    for name, nested in _PLANS[owner]:
        value = document[name]
        if nested is not None:
            cached = built.get(id(value))
            if cached is None:
                try:
                    cached = built[id(value)] = (value, _from_document(nested, value, "", built))
                except ValidationError as exc:
                    raise ValidationError(f"{where}{name}.{exc}") from None
            value = cached[1]
        args.append(value)
    return owner(*args)


def _scenario_from_document(entry: Mapping[str, Any], built: dict) -> CategoryScenario:
    """Scenario from a fully merged document entry; ``built`` is the
    parse's cache of ``_from_document``."""
    name = entry["name"]
    # Only the fields without a shared default can be missing after the merge.
    if not _SCENARIO_KEYS <= entry.keys():
        missing = [key for key, _, _ in _FIELDS[CategoryScenario] if key not in entry]
        raise ValidationError(
            f"scenario {name!r}: missing required field(s) {missing}; new "
            "categories must state them (catalog categories inherit theirs by name)"
        )
    for key in ("chi", "prod_reg_years"):
        for stage_key in _STAGE_KEYS:
            if stage_key not in entry[key]:
                raise ValidationError(f"scenario {name!r}: {key}.{stage_key} is required")
    chi = entry["chi"]  # resolved once per dict too, so its StageMap is shared as well
    resolved = built.get(id(chi))
    if resolved is None:
        resolved = built[id(chi)] = (
            chi, {key: _resolve_chi_value(name, key, chi[key]) for key in _STAGE_KEYS})
    return _from_document(CategoryScenario, {**entry, "chi": resolved[1]},
                          f"scenario {name!r}: ", built)


def parse_scenarios(text: str, origin: str = "<string>") -> tuple[CategoryScenario, ...]:
    """Parse and validate a scenario document from a JSON string.

    Layered defaulting, outermost first: catalog shared values, the
    builtin entry with the same name (if any), the document defaults,
    then the entry itself.
    """
    document = _validated_json(text, SCENARIO_SCHEMA, origin, "scenario document")
    doc_defaults = document.get("defaults", {})
    shared = _deep_merge(_SHARED_DEFAULTS, doc_defaults)

    scenarios: list[CategoryScenario] = []
    seen: set[str] = set()
    built: dict = {}
    for entry in document["scenarios"]:
        name = entry["name"]
        if name in seen:
            raise ValidationError(
                f"{origin}: duplicate scenario name {name!r}; names must be unique"
            )
        seen.add(name)
        # A catalog name occurs once per document, so its base is merged once.
        base = (_deep_merge(_CATALOG_DOCUMENTS[name], doc_defaults)
                if name in _CATALOG_DOCUMENTS else shared)
        scenarios.append(_scenario_from_document(_deep_merge(base, entry), built))
    return tuple(scenarios)


# The most characters of a schema violation's message an error shows; the
# message reprs the offending value, which can be a document's whole array.
_MESSAGE_LIMIT = 300


def _validated_json(text: str, schema: dict, origin: str, what: str) -> Any:
    """JSON text parsed and checked against ``schema``; a syntax error or
    the first schema violation in document order is a ScenarioFormatError
    naming ``origin``, ``what`` and the JSON path.  A message longer than
    ``_MESSAGE_LIMIT`` is cut there and ends with its full length."""
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
    validator = _compiler().Draft202012Validator(schema)
    try:
        errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    except RecursionError:  # parsed, but too deep to repr in the error message
        raise ScenarioFormatError(f"{origin}: invalid {what}: nested too deeply") from None
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.absolute_path) or "top level"
        message = first.message
        if len(message) > _MESSAGE_LIMIT:
            message = f"{message[:_MESSAGE_LIMIT]}… ({len(message)} characters)"
        raise ScenarioFormatError(f"{origin}: invalid {what} at {where}: {message}")
    return document


def _compiler():
    """The schema compiler (``_jsonschema``), imported at the first
    validation, so that a command which validates nothing never loads it.
    It is bound as this module's ``jsonschema``; a value bound there first
    (the benchmark tracer's stand-in) is kept and used."""
    from . import _jsonschema

    return globals().setdefault("jsonschema", _jsonschema)


def __getattr__(name: str):
    if name == "jsonschema":
        return _compiler()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
