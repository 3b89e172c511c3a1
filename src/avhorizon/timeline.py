"""Deployment-stage timeline composition.

A category's time to a given deployment stage combines four spans:

* t_comp      years until compute capacity covers effective demand
* t_crow      years of reliability-growth mileage (Crow-AMSAA)
* t_poisson   years of final zero-failure demonstration mileage
* t_prod_reg  years of productization and regulatory clearance

A fraction f of growth mileage can be accumulated on test fleets
while waiting for compute, so the total overlaps that part with the
compute horizon:

    t_total = max(f * t_crow, t_comp) + (1 - f) * t_crow
              + t_poisson + t_prod_reg

The schedule is compute-gated when t_comp exceeds the overlappable
growth span f * t_crow, reliability-gated otherwise.

Stages form a ladder: pilot, revenue service, broad commercialization.
Demonstration math runs entirely on the per-mile targets carried by the
reliability parameters; no per-hour threshold or hour-to-mile
conversion is modelled.  Pilot timelines are not projected (pilots are
assumed achievable with current technology), so projection is defined
for the two commercial stages only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields

from .errors import _FLOAT_OPS, _NONNEGATIVE, UnsupportedStageError, ValidationError
from .errors import _check_fields, _check_number, _domain

__all__ = [
    "Stage",
    "Gating",
    "StageSpec",
    "TimelineBreakdown",
    "PROJECTABLE_STAGES",
    "STAGE_DELTA_MULTIPLIERS",
    "compose_total",
]


class Stage(enum.Enum):
    """Deployment stage ladder."""

    PILOT = "pilot"
    REVENUE_SERVICE = "stage2"
    BROAD_COMMERCIAL = "stage3"

    @property
    def display_name(self) -> str:
        return _STAGE_DISPLAY[self]

    @classmethod
    def from_key(cls, key: str) -> "Stage":
        """Parse a stage selector: 'stage2'/'stage3'/'pilot' or '1'/'2'/'3'."""
        normalized = str(key).strip().lower()
        aliases = {
            "1": cls.PILOT,
            "pilot": cls.PILOT,
            "2": cls.REVENUE_SERVICE,
            "stage2": cls.REVENUE_SERVICE,
            "3": cls.BROAD_COMMERCIAL,
            "stage3": cls.BROAD_COMMERCIAL,
        }
        if normalized not in aliases:
            raise ValidationError(
                f"unknown stage {key!r}; expected one of 1, 2, 3, pilot, stage2, stage3"
            )
        return aliases[normalized]


_STAGE_DISPLAY = {
    Stage.PILOT: "Pilot (Stage 1)",
    Stage.REVENUE_SERVICE: "Revenue Service (Stage 2)",
    Stage.BROAD_COMMERCIAL: "Broad Commercialization (Stage 3)",
}

# Share of full-domain demonstration mileage each stage must cover.
STAGE_DELTA_MULTIPLIERS = {
    Stage.REVENUE_SERVICE: 0.5,
    Stage.BROAD_COMMERCIAL: 1.0,
}

PROJECTABLE_STAGES = (Stage.REVENUE_SERVICE, Stage.BROAD_COMMERCIAL)


class Gating(enum.Enum):
    """Which constraint pins the start of the serial demonstration tail."""

    COMPUTE = "compute-gated"
    RELIABILITY = "reliability-gated"


_GATING = {True: Gating.COMPUTE, False: Gating.RELIABILITY}  # by t_comp > t_crow_partial

_YEARS = {**_NONNEGATIVE, "unit": "years"}  # a span; reports name its unit


@dataclass(frozen=True, slots=True)
class StageSpec:
    """Stage plus the scenario-dependent knobs the timeline needs."""

    stage: Stage
    delta_multiplier: float = field(metadata=_domain(0, 1, low_open=True))
    prod_reg_years: float = field(metadata=_NONNEGATIVE)

    def __post_init__(self) -> None:
        if not isinstance(self.stage, Stage):
            raise ValidationError(f"stage must be a Stage, got {self.stage!r}")
        _check_fields(self)

    @classmethod
    def for_stage(cls, stage: Stage, prod_reg_years: float) -> "StageSpec":
        """Standard spec for a projectable stage."""
        if stage not in STAGE_DELTA_MULTIPLIERS:
            raise UnsupportedStageError(
                f"no timeline is projected for {stage.display_name}; "
                "pilots are assumed achievable with current technology"
            )
        return cls(
            stage=stage,
            delta_multiplier=STAGE_DELTA_MULTIPLIERS[stage],
            prod_reg_years=prod_reg_years,
        )


def _split_crow(t_crow_total: float, f: float, ops) -> tuple[float, float]:
    # Compute the larger share by multiplication and the smaller by
    # subtraction: the product then lies in [t/2, t], where Sterbenz's
    # lemma makes the subtraction exact, so the parts always sum back
    # to t_crow_total bit for bit (a plain t - f*t does not).
    final_below = (1.0 - f) * t_crow_total
    partial = ops.where(f >= 0.5, f * t_crow_total, t_crow_total - final_below)
    return partial, ops.where(f >= 0.5, t_crow_total - partial, final_below)


@dataclass(frozen=True, slots=True)
class TimelineBreakdown:
    """All spans of one projected timeline, plus the composed result.

    Built by compose_total and scenario.project; direct construction must
    satisfy the same identities (the split reconstructs t_crow_total
    exactly and t_total equals the composition formula term for term).
    """

    t_comp: float = field(metadata=_YEARS)
    t_crow_total: float = field(metadata=_YEARS)
    t_crow_partial: float = field(metadata=_YEARS)
    t_crow_final: float = field(metadata=_YEARS)
    t_poisson: float = field(metadata=_YEARS)
    t_prod_reg: float = field(metadata=_YEARS)
    f: float = field(metadata=_domain(0, 1))
    t_total: float = field(metadata=_YEARS)
    gating: Gating
    calendar_year: int = field(metadata=_domain(-math.inf, math.inf))  # any integer

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.t_crow_partial + self.t_crow_final != self.t_crow_total:
            raise ValidationError(
                "t_crow_partial + t_crow_final must reconstruct t_crow_total "
                f"exactly, got {self.t_crow_partial!r} + {self.t_crow_final!r} "
                f"!= {self.t_crow_total!r}"
            )
        recomposed, compute_gated = _total_years(
            self.t_comp, self.t_crow_total, self.f, self.t_crow_partial, self.t_crow_final,
            self.t_poisson, self.t_prod_reg, _FLOAT_OPS)
        if recomposed != self.t_total:
            raise ValidationError(
                f"t_total must equal the composition formula, got {self.t_total!r} "
                f"vs recomposed {recomposed!r}"
            )
        expected_gating = _GATING[compute_gated]
        if self.gating is not expected_gating:
            raise ValidationError(
                f"gating must be {expected_gating.value!r} when t_comp={self.t_comp!r} "
                f"and t_crow_partial={self.t_crow_partial!r}"
            )


_DOMAIN = {spec.name: spec.metadata for spec in fields(TimelineBreakdown)}  # each field's interval


def _total_years(t_comp: float, t_crow_total: float, f: float, partial: float, final: float,
                 t_poisson: float, t_prod_reg: float, ops) -> tuple[float, bool]:
    """t_total and whether the schedule is compute-gated."""
    compute_gated = t_comp > partial
    # Python's max(partial, t_comp); np.maximum can differ on signed zeros.
    t_total = ops.where(compute_gated, t_comp, partial) + final + t_poisson + t_prod_reg
    ops.check(t_total < math.inf, lambda: (
        f"the total of the spans t_comp={t_comp!r}, t_crow_total={t_crow_total!r} "
        f"(f={f!r}), t_poisson={t_poisson!r} and t_prod_reg={t_prod_reg!r} "
        "exceeds float range"
    ))
    return t_total, compute_gated


def compose_total(
    t_comp: float,
    t_crow_total: float,
    f: float,
    t_poisson: float,
    t_prod_reg: float,
    baseline_year: int = 2024,
) -> TimelineBreakdown:
    """Compose the total timeline from its spans.

    The overlappable share f of growth mileage runs concurrently with
    the compute wait; whichever finishes later gates the serial tail of
    remaining growth, final demonstration and productization:

        t_total = max(f * t_crow, t_comp) + (1 - f) * t_crow
                  + t_poisson + t_prod_reg

    Setting f = 0 degenerates to the fully serial sum; f = 1 overlaps
    all growth mileage with the compute wait.  The growth span splits
    into partial = f * t_crow_total and the exact remainder, so the two
    parts reconstruct t_crow_total bit for bit.  The calendar year is
    the baseline year plus the total rounded half up: 0.5 always rounds
    forward, unlike bankers' rounding, so projected dates never round
    toward optimism on ties.
    """
    for name, value in (("t_comp", t_comp), ("t_poisson", t_poisson), ("t_prod_reg", t_prod_reg),
                        ("t_crow_total", t_crow_total), ("f", f)):
        _check_number(name, value, _DOMAIN[name])
    partial, final = _split_crow(t_crow_total, f, _FLOAT_OPS)
    t_total, compute_gated = _total_years(t_comp, t_crow_total, f, partial, final, t_poisson,
                                          t_prod_reg, _FLOAT_OPS)
    _check_number("baseline_year", baseline_year, _DOMAIN["calendar_year"], int)
    return TimelineBreakdown(t_comp, t_crow_total, partial, final, t_poisson, t_prod_reg, f,
                             t_total, _GATING[compute_gated],
                             _calendar_year(baseline_year, t_total))


def _calendar_year(baseline_year: int, t_total_years: float) -> int:
    # Half up without rounding the sum t + 0.5: t - floor(t) is exact.
    whole = math.floor(t_total_years)
    return baseline_year + whole + (t_total_years - whole >= 0.5)
