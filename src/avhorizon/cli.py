"""Command-line interface.

Commands:

* catalog: project the builtin category catalog
* project: project scenarios from a JSON document
* sweep:   one-at-a-time parameter sweep for one scenario
* tornado: ranked low/high excursions for several parameters
* mc:      seeded Monte Carlo over parameter distributions
* schema:  print the scenario-document JSON schema

Exit codes: 0 on success, 1 on validation errors (reported as a single
"error: ..." line on standard error), 2 on usage errors (argparse).
All flags are long-form.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterable, Sequence

from ._schema_shapes import NUMBER, closed_object
from .errors import ValidationError
from .report import (
    _CHUNKED_FORMATS,
    ReportFormat,
    _sensitivity_chunks,
    render,
    render_sensitivity,
)
from .scenario import (
    CategoryScenario,
    _validated_json,
    builtin_catalog,
    load_scenarios,
    project,
    read_utf8_file,
    schema_json,
)
from .timeline import PROJECTABLE_STAGES, Stage

if TYPE_CHECKING:
    from .sensitivity import (
        DistributionKind,
        DistributionSpec,
        ParameterBounds,
        SweepSpec,
        monte_carlo,
        one_at_a_time,
        tornado,
    )

__all__ = ["main", "build_parser"]

# The names cli takes from sensitivity, which only the analysis commands
# load: ``_bind_analyses`` binds them into this module, the first time an
# analysis runs or one of them is read as an attribute of the module.
_ANALYSIS_NAMES = ("DistributionKind", "DistributionSpec", "ParameterBounds", "SweepSpec",
                   "monte_carlo", "one_at_a_time", "tornado")


def _bind_analyses() -> None:
    """Bind each of ``_ANALYSIS_NAMES`` that is not bound yet; a name
    rebound before (perfbench's tracer wraps the analyses) is kept."""
    from . import sensitivity

    names = globals()
    for name in _ANALYSIS_NAMES:
        names.setdefault(name, getattr(sensitivity, name))


def __getattr__(name: str):
    if name in _ANALYSIS_NAMES:
        _bind_analyses()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avhorizon",
        description="Deployment-timeline projection for autonomous-vehicle categories.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    catalog_parser = subparsers.add_parser(
        "catalog", help="project the builtin category catalog"
    )
    catalog_parser.add_argument(
        "--category", action="append",
        help="restrict to this category name (repeatable)",
    )
    _add_stage_flag(catalog_parser, default="all")
    _add_output_flags(catalog_parser)

    project_parser = subparsers.add_parser(
        "project", help="project scenarios from a JSON document"
    )
    project_parser.add_argument(
        "--file", required=True, help="scenario document path (JSON)"
    )
    project_parser.add_argument(
        "--category", action="append",
        help="restrict to this category name (repeatable)",
    )
    _add_stage_flag(project_parser, default="all")
    _add_output_flags(project_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="one-at-a-time parameter sweep for one scenario"
    )
    _add_scenario_selection_flags(sweep_parser)
    sweep_parser.add_argument("--param", help="dotted parameter path, e.g. crow.beta")
    sweep_parser.add_argument(
        "--values", help="comma-separated values, e.g. 0.3,0.4,0.5"
    )
    sweep_parser.add_argument(
        "--grid", help="inclusive grid low:high:steps, e.g. 0.3:0.5:5"
    )
    sweep_parser.add_argument(
        "--spec-file", help="JSON sweep spec: {\"parameter_path\", \"values\"|\"grid\"}"
    )
    _add_stage_flag(sweep_parser, default="3")
    _add_output_flags(sweep_parser)

    tornado_parser = subparsers.add_parser(
        "tornado", help="ranked low/high excursions for several parameters"
    )
    _add_scenario_selection_flags(tornado_parser)
    tornado_parser.add_argument(
        "--bound", action="append",
        help="parameter bounds path=low,high (repeatable), e.g. crow.severity=1,5",
    )
    tornado_parser.add_argument(
        "--spec-file", help="JSON tornado spec: {\"bounds\": [...]}"
    )
    _add_stage_flag(tornado_parser, default="3")
    _add_output_flags(tornado_parser)

    mc_parser = subparsers.add_parser(
        "mc", help="seeded Monte Carlo over parameter distributions"
    )
    _add_scenario_selection_flags(mc_parser)
    mc_parser.add_argument(
        "--dist", action="append",
        help="distribution path=uniform:low,high or path=triangular:low,mode,high "
             "(repeatable)",
    )
    mc_parser.add_argument(
        "--spec-file", help="JSON distribution spec: {\"distributions\": [...]}"
    )
    mc_parser.add_argument(
        "--samples", type=int, default=1000, help="sample count (default 1000)"
    )
    mc_parser.add_argument(
        "--seed", type=int, default=0, help="64-bit generator seed (default 0)"
    )
    _add_stage_flag(mc_parser, default="3")
    _add_output_flags(mc_parser)

    schema_parser = subparsers.add_parser(
        "schema", help="print the scenario-document JSON schema"
    )
    _add_output_flags(schema_parser, with_format=False)

    return parser


def _add_stage_flag(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--stage", default=default, choices=["1", "2", "3", "all"],
        help=f"deployment stage selector (default {default})",
    )


def _add_output_flags(parser: argparse.ArgumentParser, with_format: bool = True) -> None:
    if with_format:
        parser.add_argument(
            "--format", default="table",
            help="output format: table, csv, json, markdown (default table)",
        )
    parser.add_argument(
        "--output", help="write output to this path instead of standard output"
    )


def _add_scenario_selection_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--file", help="scenario document path (JSON); builtin catalog if omitted"
    )
    parser.add_argument(
        "--category", action="append",
        help="scenario to analyze (required when the source has several)",
    )


# ---------------------------------------------------------------------------
# Argument interpretation
# ---------------------------------------------------------------------------


def _select_scenarios(args: argparse.Namespace) -> tuple[CategoryScenario, ...]:
    source = getattr(args, "file", None)
    scenarios = load_scenarios(source) if source else builtin_catalog()
    if not args.category:
        return scenarios
    by_name = {s.name: s for s in scenarios}
    selected = []
    for name in args.category:
        if name not in by_name:
            raise ValidationError(
                f"unknown category {name!r}; valid categories: "
                + ", ".join(s.name for s in scenarios)
            )
        selected.append(by_name[name])
    return tuple(selected)


def _select_single_scenario(args: argparse.Namespace) -> CategoryScenario:
    selected = _select_scenarios(args)
    if len(selected) != 1:
        raise ValidationError(
            "sensitivity analyses need exactly one scenario; select it with "
            f"--category (got {len(selected)})"
        )
    return selected[0]


def _stages_for(selector: str) -> tuple[Stage, ...]:
    if selector == "all":
        return PROJECTABLE_STAGES
    return (Stage.from_key(selector),)


def _single_stage(selector: str) -> Stage:
    if selector == "all":
        raise ValidationError(
            "sensitivity analyses run at a single stage; pass --stage 2 or --stage 3"
        )
    return Stage.from_key(selector)


def _parse_number(text: str, context: str) -> int | float:
    """An integer token as an int, so it serializes back as given, like a
    JSON integer in a spec file; any other number as a float."""
    try:
        return int(text)
    except ValueError:  # not an integer, or past the int-to-str digit limit
        pass
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{context}: {text!r} is not a number") from None


def _parse_values_flag(text: str) -> tuple[int | float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValidationError(f"--values needs at least one number, got {text!r}")
    return tuple(_parse_number(p, "--values") for p in parts)


def _parse_grid_flag(text: str) -> tuple[int | float, int | float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--grid must be low:high:steps, got {text!r}")
    low = _parse_number(parts[0], "--grid low")
    high = _parse_number(parts[1], "--grid high")
    try:
        steps = int(parts[2])
    except ValueError:
        raise ValidationError(f"--grid steps must be an integer, got {parts[2]!r}") from None
    return low, high, steps


def _parse_bound_flag(text: str) -> ParameterBounds:
    path, sep, bounds_text = text.partition("=")
    parts = bounds_text.split(",")
    if not sep or len(parts) != 2:
        raise ValidationError(f"--bound must be path=low,high, got {text!r}")
    return ParameterBounds(
        parameter_path=path.strip(),
        low=_parse_number(parts[0], "--bound low"),
        high=_parse_number(parts[1], "--bound high"),
    )


_DIST_PARAMETERS = {"uniform": ("low", "high"), "triangular": ("low", "mode", "high")}


def _parse_dist_flag(text: str) -> DistributionSpec:
    if "=" not in text:
        raise ValidationError(
            f"--dist must be path=uniform:low,high or path=triangular:low,mode,high, "
            f"got {text!r}"
        )
    path, _, spec_text = text.partition("=")
    kind_text, _, params_text = spec_text.partition(":")
    kind_text = kind_text.strip().lower()
    parts = [p.strip() for p in params_text.split(",") if p.strip()]
    if kind_text not in _DIST_PARAMETERS:
        raise ValidationError(
            f"unknown distribution kind {kind_text!r}; expected uniform or triangular"
        )
    names = _DIST_PARAMETERS[kind_text]
    if len(parts) != len(names):
        raise ValidationError(f"--dist {kind_text} takes {','.join(names)}; got {text!r}")
    return DistributionSpec(
        parameter_path=path.strip(),
        kind=DistributionKind(kind_text),
        **{name: _parse_number(part, f"--dist {name}") for name, part in zip(names, parts)},
    )


def _reject_flag_conflicts(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Mutually exclusive or missing flag structure is a usage error (exit 2)."""
    if args.command == "sweep":
        inline = [flag for flag, value in (("--param", args.param),
                                           ("--values", args.values),
                                           ("--grid", args.grid)) if value is not None]
        if args.spec_file and inline:
            parser.error(f"--spec-file cannot be combined with {', '.join(inline)}")
        if not args.spec_file:
            if args.param is None:
                parser.error("sweep requires --param with --values or --grid (or --spec-file)")
            if (args.values is None) == (args.grid is None):
                parser.error("sweep requires exactly one of --values or --grid")
    elif args.command == "tornado":
        if args.spec_file and args.bound:
            parser.error("--spec-file cannot be combined with --bound")
        if not args.spec_file and not args.bound:
            parser.error("tornado requires at least one --bound (or --spec-file)")
    elif args.command == "mc":
        if args.spec_file and args.dist:
            parser.error("--spec-file cannot be combined with --dist")
        if not args.spec_file and not args.dist:
            parser.error("mc requires at least one --dist (or --spec-file)")


# Shapes of the --spec-file documents, keyed by command.  The value
# checks (finite numbers, low <= high, grid steps >= 2, known parameter
# paths) stay with the sensitivity specs built from them.
_PATH = {"type": "string"}
_KINDS = "|".join(_DIST_PARAMETERS)  # the DistributionKind values
_SPEC_SCHEMAS = {
    "sweep": {
        **closed_object({
            "parameter_path": _PATH,
            "values": {"type": "array", "items": NUMBER},
            "grid": closed_object({"low": NUMBER, "high": NUMBER, "steps": {"type": "integer"}}),
        }, required=["parameter_path"]),
        "oneOf": [{"required": ["values"]}, {"required": ["grid"]}],
    },
    "tornado": closed_object({"bounds": {
        "type": "array",
        "items": closed_object({"parameter_path": _PATH, "low": NUMBER, "high": NUMBER}),
    }}),
    "mc": closed_object({"distributions": {
        "type": "array",
        "items": closed_object({
            "parameter_path": _PATH,
            "kind": {"type": "string", "pattern": f"^(?i:{_KINDS})$"},
            "low": NUMBER,
            "high": NUMBER,
            "mode": {"type": ["number", "null"]},
        }, required=["parameter_path", "kind", "low", "high"]),
    }}),
}


def _spec_document(args: argparse.Namespace) -> dict:
    """The --spec-file document, checked against the command's schema."""
    text = read_utf8_file(args.spec_file, f"{args.command} spec file")
    return _validated_json(text, _SPEC_SCHEMAS[args.command], args.spec_file,
                           f"{args.command} spec")


def _sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    if args.spec_file:
        document = _spec_document(args)
        path = document["parameter_path"]
        if "values" in document:
            return SweepSpec(path, tuple(document["values"]))
        grid = document["grid"]
        return SweepSpec.from_grid(path, grid["low"], grid["high"], grid["steps"])
    if args.values is not None:
        return SweepSpec(args.param, _parse_values_flag(args.values))
    low, high, steps = _parse_grid_flag(args.grid)
    return SweepSpec.from_grid(args.param, low, high, steps)


def _bounds_from_args(args: argparse.Namespace) -> list[ParameterBounds]:
    if args.spec_file:
        return [ParameterBounds(**item) for item in _spec_document(args)["bounds"]]
    return [_parse_bound_flag(text) for text in args.bound]


def _distributions_from_args(args: argparse.Namespace) -> list[DistributionSpec]:
    if args.spec_file:
        return [
            DistributionSpec(**{**item, "kind": DistributionKind(item["kind"].lower())})
            for item in _spec_document(args)["distributions"]
        ]
    return [_parse_dist_flag(text) for text in args.dist]


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def _run_projection_command(args: argparse.Namespace) -> str:
    scenarios = _select_scenarios(args)
    stages = _stages_for(args.stage)
    results = [project(s, stage) for s in scenarios for stage in stages]
    return render(results, ReportFormat.from_key(args.format))


def _run_analysis(args: argparse.Namespace) -> str | Iterable[str]:
    _bind_analyses()
    scenario = _select_single_scenario(args)
    stage = _single_stage(args.stage)
    if args.command == "sweep":
        report = one_at_a_time(scenario, stage, _sweep_spec_from_args(args))
    elif args.command == "tornado":
        report = tornado(scenario, stage, _bounds_from_args(args))
    else:
        report = monte_carlo(
            scenario, stage, _distributions_from_args(args),
            sample_count=args.samples, seed=args.seed,
        )
    fmt = ReportFormat.from_key(args.format)
    if fmt in _CHUNKED_FORMATS:
        return _sensitivity_chunks(report, fmt)
    return render_sensitivity(report, fmt)


_COMMANDS = {
    "catalog": _run_projection_command,
    "project": _run_projection_command,
    "sweep": _run_analysis,
    "tornado": _run_analysis,
    "mc": _run_analysis,
    "schema": lambda args: schema_json(),
}


def _write(output: str | Iterable[str], path: str | None) -> None:
    """Write a command's text, whole or as chunks, to ``path`` (created or
    truncated only now, once every check has passed) or standard output.
    Text the stream's encoding cannot hold raises ``OSError``."""
    chunks = (output,) if isinstance(output, str) else output
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as stream:
        for chunk in chunks:
            try:
                stream.write(chunk)
            except UnicodeEncodeError as exc:
                raise OSError(str(exc)) from exc


def main(argv: Sequence[str] | None = None) -> int:
    # numpy's OpenBLAS starts os.cpu_count() - 1 worker threads when it
    # loads (an mc past sensitivity._MC_ROW_LIMIT samples), and they spin
    # before they sleep; avhorizon calls no BLAS routine (elementwise
    # ufuncs, libm per row, np.sort), so the pool only burns CPU.  On a
    # 2-vCPU host its one worker cost 0.07 s of CPU per `import numpy`
    # (0.18 s against 0.11 s, wall unchanged) and 0.13 s per mc of 20k or
    # 100k samples.  A value the caller set
    # wins; library callers of monte_carlo keep their own setting.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    _reject_flag_conflicts(parser, args)
    try:
        _write(_COMMANDS[args.command](args), args.output)
    except ValidationError as exc:
        message = " ".join(str(exc).split())  # single line, collapsed whitespace
        print(f"error: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
