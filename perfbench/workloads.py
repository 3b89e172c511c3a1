"""Seeded workload generators for the avhorizon benchmark.

A workload is one pass: a fixed list of CLI operations whose arguments
and input documents are drawn from a ``random.Random`` seeded by the
benchmark's ``--seed``.  The same seed always yields the same
arguments and the same input bytes.  The benchmark repeats the pass
until its measuring time is spent.

Each operation records what its output must contain (``check``,
``fmt``, ``evals``) so the checker can verify it, and a content key
(arguments plus input digests, with the work directory masked) under
which its output digest is recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# The builtin catalog, in canonical order.  Its names and years are
# fixed by the project's acceptance gate.
CATALOG = (
    "Consumer Automotive",
    "Robo-Taxis",
    "Geo-fenced Vans/Buses",
    "Highway Trucking",
    "Delivery Vans",
    "Bespoke Shuttles",
    "Military/Defense",
    "Industrial/Mining",
)

# Continuous scenario parameters and a range inside which every value
# passes the field's validation and keeps the closed form finite.
PARAMETERS: dict[str, tuple[float, float]] = {
    "cycle_time_s": (0.05, 0.2),
    "chi.stage2": (0.01, 1.0),
    "chi.stage3": (0.01, 1.0),
    "compute_env.current_capacity": (5e12, 5e13),
    "compute_env.doubling_period_years": (2.0, 3.0),
    "crow.alpha": (5e-5, 5e-4),
    "crow.beta": (0.3, 0.6),
    "crow.severity": (1.0, 5.0),
    "crow_lambda_target": (5e-9, 2e-8),
    "poisson.confidence": (0.9, 0.99),
    "poisson.safety_factor": (1.0, 3.0),
    "poisson.lambda_target": (5e-9, 1e-8),
    "annual_miles": (5e8, 2e9),
    "gamma_override": (0.2, 1.2),
    "base_delta": (0.5, 1.0),
    "f": (0.5, 0.9),
    "prod_reg_years.stage2": (1.0, 4.0),
    "prod_reg_years.stage3": (2.0, 7.0),
}

# Savings mechanisms with a default documented range, and the range a
# factor-product chi may use for them.
FACTOR_RANGES = {
    "active_interaction": (0.2, 0.5),
    "hierarchical_decomposition": (0.1, 0.3),
    "learned_heuristics": (0.1, 0.3),
    "precomputed_maneuvers": (0.1, 0.3),
    "specialized_hardware": (0.1, 1.0),
}

# Monte Carlo targets.  The paths are fixed so that the per-sample cost
# does not depend on the seed; the seed draws their bounds.
MC_PATHS = ("crow.beta", "f", "crow.severity", "annual_miles", "gamma_override",
            "poisson.confidence")

WORK_TOKEN = "<work>"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must hold."""

    args: tuple[str, ...]  # arguments after the program name
    check: str  # "projection", "sweep", "tornado", "mc" or "schema"
    fmt: str  # table, csv, json or markdown
    evals: int  # projection results or sensitivity entries expected
    key: str  # content key for the recorded output digest
    output: str | None = None  # --output path; None means standard output


def _num(value: float) -> str:
    """Short, exact decimal text for a generated value."""
    return repr(float(f"{value:.4g}"))


def _interval(rng: random.Random, path: str) -> tuple[float, float]:
    """A random sub-interval of the parameter's safe range."""
    low, high = PARAMETERS[path]
    span = high - low
    a = float(_num(low + span * 0.45 * rng.random()))
    b = float(_num(high - span * 0.45 * rng.random()))
    return a, b


def _make_op(work: Path, args: list[str], check: str, fmt: str, evals: int,
             inputs: tuple[Path, ...] = (), output: Path | None = None) -> Op:
    masked = [a.replace(str(work), WORK_TOKEN) for a in args]
    content = {
        "args": masked,
        "inputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs},
    }
    key = hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()
    return Op(tuple(args), check, fmt, evals, key, str(output) if output else None)


def _stage_args(stage: str) -> tuple[list[str], int]:
    return ["--stage", stage], (2 if stage == "all" else 1)


# ---------------------------------------------------------------------------
# Scenario documents
# ---------------------------------------------------------------------------


def _chi_value(rng: random.Random):
    """A scalar chi or a factor-product chi."""
    if rng.random() < 0.5:
        return float(_num(10.0 ** rng.uniform(-3.0, 0.0)))
    names = rng.sample(sorted(FACTOR_RANGES), rng.randint(1, 3))
    factors = []
    for name in names:
        low, high = FACTOR_RANGES[name]
        factors.append({"name": name, "value": float(_num(rng.uniform(low, high)))})
    if rng.random() < 0.5:
        factors.append({
            "name": "site_specific_pruning",
            "value": 0.5,
            "documented_range": [0.25, 1.0],
        })
    return {"factors": factors}


def _new_category(rng: random.Random, name: str) -> dict:
    entry = {
        "name": name,
        "n_objects": rng.randint(20, 60),
        "chi": {"stage2": _chi_value(rng), "stage3": _chi_value(rng)},
        "gamma_override": float(_num(rng.uniform(*PARAMETERS["gamma_override"]))),
        "prod_reg_years": {
            "stage2": float(_num(rng.uniform(*PARAMETERS["prod_reg_years.stage2"]))),
            "stage3": float(_num(rng.uniform(*PARAMETERS["prod_reg_years.stage3"]))),
        },
    }
    if rng.random() < 0.3:
        entry["crow"] = {"severity": float(_num(rng.uniform(*PARAMETERS["crow.severity"])))}
    if rng.random() < 0.2:
        entry["poisson"] = {
            "confidence": float(_num(rng.uniform(*PARAMETERS["poisson.confidence"])))
        }
    return entry


def _catalog_override(rng: random.Random, name: str) -> dict:
    entry: dict = {"name": name}
    choice = rng.randrange(3)
    if choice == 0:
        entry["crow"] = {"severity": float(_num(rng.uniform(*PARAMETERS["crow.severity"])))}
    elif choice == 1:
        entry["gamma_override"] = float(_num(rng.uniform(*PARAMETERS["gamma_override"])))
    else:
        entry["prod_reg_years"] = {
            "stage3": float(_num(rng.uniform(*PARAMETERS["prod_reg_years.stage3"])))
        }
    return entry


def scenario_document(rng: random.Random, entries: int) -> tuple[dict, list[str]]:
    """A document with catalog-name overrides, new categories and a
    defaults block; returns it with its scenario names in order."""
    overrides = rng.sample(CATALOG, min(len(CATALOG), max(1, entries // 4)))
    scenarios = [_catalog_override(rng, name) for name in overrides]
    scenarios += [
        _new_category(rng, f"Generated {i:05d}") for i in range(entries - len(scenarios))
    ]
    rng.shuffle(scenarios)
    document = {
        "defaults": {
            "crow": {"beta": float(_num(rng.uniform(0.35, 0.5)))},
            "annual_miles": float(_num(rng.uniform(*PARAMETERS["annual_miles"]))),
            "f": float(_num(rng.uniform(*PARAMETERS["f"]))),
        },
        "scenarios": scenarios,
    }
    return document, [s["name"] for s in scenarios]


def _write_json(path: Path, document: dict) -> Path:
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _bound_args(rng: random.Random, paths) -> list[str]:
    args = []
    for path in paths:
        low, high = _interval(rng, path)
        args += ["--bound", f"{path}={_num(low)},{_num(high)}"]
    return args


def _dist_args(rng: random.Random, paths: tuple[str, ...]) -> list[str]:
    args = []
    for i, path in enumerate(paths):
        low, high = _interval(rng, path)
        if i % 2 == 0:
            mode = float(_num(rng.uniform(low, high)))
            mode = min(max(mode, low), high)
            spec = f"triangular:{_num(low)},{_num(mode)},{_num(high)}"
        else:
            spec = f"uniform:{_num(low)},{_num(high)}"
        args += ["--dist", f"{path}={spec}"]
    return args


def cli_small(rng: random.Random, work: Path, scale: float) -> list[Op]:
    """Short invocations: every command once, on small inputs."""
    ops = []
    ops.append(_make_op(work, ["catalog", "--format", "table"], "projection", "table", 16))
    stage_flag, per = _stage_args(rng.choice(["2", "3"]))
    ops.append(_make_op(work, ["catalog", "--format", "csv", *stage_flag],
                        "projection", "csv", 8 * per))
    picked = rng.sample(CATALOG, 2)
    ops.append(_make_op(
        work,
        ["catalog", "--format", "json", "--category", picked[0], "--category", picked[1]],
        "projection", "json", 4,
    ))
    stage_flag, per = _stage_args(rng.choice(["2", "3", "all"]))
    ops.append(_make_op(
        work, ["catalog", "--format", "markdown", "--category", rng.choice(CATALOG), *stage_flag],
        "projection", "markdown", per,
    ))
    ops.append(_make_op(work, ["schema"], "schema", "json", 0))

    document, names = scenario_document(rng, rng.randint(4, 10))
    small = _write_json(work / "small.json", document)
    ops.append(_make_op(
        work, ["project", "--file", str(small), "--stage", "all", "--format", "json"],
        "projection", "json", 2 * len(names), inputs=(small,),
    ))

    path = rng.choice(sorted(PARAMETERS))
    low, high = _interval(rng, path)
    count = rng.randint(3, 10)
    values = ",".join(_num(low + (high - low) * i / (count - 1)) for i in range(count))
    ops.append(_make_op(
        work,
        ["sweep", "--category", rng.choice(CATALOG), "--param", path, "--values", values,
         "--stage", rng.choice(["2", "3"]), "--format", "json"],
        "sweep", "json", count,
    ))

    paths = rng.sample(sorted(PARAMETERS), rng.randint(2, 5))
    ops.append(_make_op(
        work,
        ["tornado", "--category", rng.choice(CATALOG), *_bound_args(rng, paths),
         "--stage", rng.choice(["2", "3"]), "--format", "json"],
        "tornado", "json", 2 * len(paths),
    ))

    samples = max(20, round(1000 * scale))
    ops.append(_make_op(
        work,
        ["mc", "--category", rng.choice(CATALOG), *_dist_args(rng, MC_PATHS[:2]),
         "--samples", str(samples), "--seed", str(rng.getrandbits(64)),
         "--stage", "3", "--format", "json"],
        "mc", "json", samples,
    ))
    return ops


def mc_large(rng: random.Random, work: Path, scale: float) -> list[Op]:
    """Monte Carlo at 100k samples over 2 distributions to JSON, and a
    6-distribution run (more than one Philox block of draws) to CSV."""
    ops = []
    for paths, samples, fmt in ((MC_PATHS[:2], 100_000, "json"), (MC_PATHS, 20_000, "csv")):
        samples = max(20, round(samples * scale))
        output = work / f"mc{len(paths)}.{fmt}"
        ops.append(_make_op(
            work,
            ["mc", "--category", rng.choice(CATALOG), *_dist_args(rng, paths),
             "--samples", str(samples), "--seed", str(rng.getrandbits(64)),
             "--stage", rng.choice(["2", "3"]), "--format", fmt, "--output", str(output)],
            "mc", fmt, samples, output=output,
        ))
    return ops


def doc_batch(rng: random.Random, work: Path, scale: float) -> list[Op]:
    """A document with thousands of scenarios, projected and analysed."""
    entries = max(10, round(2000 * scale))
    document, names = scenario_document(rng, entries)
    doc = _write_json(work / "doc.json", document)
    source = ["--file", str(doc)]
    ops = [
        _make_op(work, ["project", *source, "--stage", "all", "--format", fmt],
                 "projection", fmt, 2 * entries, inputs=(doc,))
        for fmt in ("csv", "markdown")
    ]
    path = rng.choice(sorted(PARAMETERS))
    low, high = _interval(rng, path)
    steps = max(5, round(1000 * scale))
    ops.append(_make_op(
        work,
        ["sweep", *source, "--category", rng.choice(names), "--param", path,
         "--grid", f"{_num(low)}:{_num(high)}:{steps}", "--stage", "3", "--format", "table"],
        "sweep", "table", steps, inputs=(doc,),
    ))
    ops.append(_make_op(
        work,
        ["tornado", *source, "--category", rng.choice(names), *_bound_args(rng, PARAMETERS),
         "--stage", "2", "--format", "table"],
        "tornado", "table", 2 * len(PARAMETERS), inputs=(doc,),
    ))
    return ops


WORKLOADS = {
    "cli-small": cli_small,
    "mc-large": mc_large,
    "doc-batch": doc_batch,
}
