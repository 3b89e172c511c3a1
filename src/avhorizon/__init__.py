"""Deployment-timeline projection for autonomous-vehicle categories.

Couples two constraints into one calendar projection per vehicle
category and deployment stage: the wait for compute capacity to cover
the category's effective planning demand, and the fleet-miles needed to
grow and then statistically demonstrate the required failure rate.
Includes a builtin eight-category reference catalog, JSON scenario
documents, sensitivity analyses (sweep, tornado, Monte Carlo) and
report rendering in table, CSV, JSON and Markdown form.
"""

from .complexity import (
    ComputeEnv,
    Magnitude,
    ReductionFactor,
    ReductionFactors,
    chi_eff,
    compute_demand,
    effective_demand,
    hpc_horizon_years,
    naive_mapf_ops_per_cycle,
)
from .errors import (
    EmptyResultsError,
    ScenarioFormatError,
    UnknownParameterError,
    UnsupportedStageError,
    ValidationError,
)
from .reliability import (
    CrowAmsaaParams,
    PoissonParams,
    crow_failure_rate,
    crow_required_miles,
    demonstration_years,
    poisson_required_miles,
)
from .report import ReportFormat, render, render_sensitivity
from .scenario import (
    CHI_PROVENANCE,
    CategoryScenario,
    Intermediates,
    ProjectionResult,
    SCENARIO_SCHEMA,
    StageMap,
    builtin_catalog,
    load_scenarios,
    parse_scenarios,
    project,
    schema_json,
    serialize_scenarios,
)
from .sensitivity import (
    AnalysisKind,
    DistributionKind,
    DistributionSpec,
    MC_PERCENTILES,
    ParameterBounds,
    SensitivityReport,
    SensitivitySummary,
    SweepSpec,
    TornadoSpread,
    get_parameter,
    monte_carlo,
    one_at_a_time,
    set_parameter,
    tornado,
    valid_parameter_paths,
)
from .timeline import (
    Gating,
    PROJECTABLE_STAGES,
    STAGE_DELTA_MULTIPLIERS,
    Stage,
    StageSpec,
    TimelineBreakdown,
    calendar_date,
    compose_total,
    split_crow,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisKind",
    "CHI_PROVENANCE",
    "CategoryScenario",
    "ComputeEnv",
    "CrowAmsaaParams",
    "DistributionKind",
    "DistributionSpec",
    "EmptyResultsError",
    "Gating",
    "Intermediates",
    "MC_PERCENTILES",
    "Magnitude",
    "PROJECTABLE_STAGES",
    "ParameterBounds",
    "PoissonParams",
    "ProjectionResult",
    "ReductionFactor",
    "ReductionFactors",
    "ReportFormat",
    "SCENARIO_SCHEMA",
    "STAGE_DELTA_MULTIPLIERS",
    "ScenarioFormatError",
    "SensitivityReport",
    "SensitivitySummary",
    "Stage",
    "StageMap",
    "StageSpec",
    "SweepSpec",
    "TimelineBreakdown",
    "TornadoSpread",
    "UnknownParameterError",
    "UnsupportedStageError",
    "ValidationError",
    "builtin_catalog",
    "calendar_date",
    "chi_eff",
    "compose_total",
    "compute_demand",
    "crow_failure_rate",
    "crow_required_miles",
    "demonstration_years",
    "effective_demand",
    "get_parameter",
    "hpc_horizon_years",
    "load_scenarios",
    "monte_carlo",
    "naive_mapf_ops_per_cycle",
    "one_at_a_time",
    "parse_scenarios",
    "poisson_required_miles",
    "project",
    "render",
    "render_sensitivity",
    "schema_json",
    "serialize_scenarios",
    "set_parameter",
    "split_crow",
    "tornado",
    "valid_parameter_paths",
]
