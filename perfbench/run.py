"""avhorizon benchmark: CLI end-to-end metrics, or per-layer metrics
from a traced run, on one seeded workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Load is one closed-loop client: each operation is one ``avhorizon``
invocation in a fresh process, run from this checkout's ``src/``, and
the next starts only after the previous one has exited.  Passes over
the workload's operations repeat until ``--seconds`` have elapsed
(always at least one pass).  Every output is checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics
(``layers.py``) of the traced ones; the traced processes run the same
command through ``trace_driver.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import DIGESTS_PATH, Checker, load_digests  # noqa: E402
from layers import PER_LAYER, import_breakdown, layer_metrics, span_totals  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

# End-to-end metric names and units, in report order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("evals_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

SETUP_FIRST = 4  # setup_s samples before the first pass; one more follows each pass
IMPORT_REPEATS = 5  # -X importtime runs for the import.* metrics
OP_TIMEOUT_S = 150.0
IMPORT_CLI = "import avhorizon.cli"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


@dataclass
class Child:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    max_rss_mb: float
    returncode: int
    stderr: bytes


@dataclass
class Pass:
    """One pass over the workload's operations."""

    op_walls: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    evals: int = 0
    failed: int = 0
    span_files: list[Path] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return math.fsum(self.op_walls)


def run_child(cmd: list[str], env: dict[str, str], cwd: Path, stdout_path: Path) -> Child:
    """Run one process to completion; times and rusage come from wait4."""
    with open(stdout_path, "wb") as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, err.read())


class Bench:
    """Runs a workload's operations against one checkout's ``src/``."""

    def __init__(self, root: Path, work: Path, checker: Checker):
        self.root, self.work, self.checker = root, work, checker
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.failures: list[str] = []
        self.recorded: dict[str, str] = {}

    def run_pass(self, ops: list[Op], traced: bool = False, label: str = "") -> Pass:
        result = Pass()
        for i, op in enumerate(ops):
            stdout_path = self.work / "stdout"
            if traced:
                spans = self.work / f"spans-{label}-{i}.bin"
                cmd = [sys.executable, str(HERE / "trace_driver.py"), str(spans), "--", *op.args]
                result.span_files.append(spans)
            else:
                cmd = [sys.executable, "-m", "avhorizon", *op.args]
            child = run_child(cmd, self.env, self.work, stdout_path)
            result.op_walls.append(child.wall_s)
            result.cpu_s += child.cpu_s
            result.peak_rss_mb = max(result.peak_rss_mb, child.max_rss_mb)
            output_path = Path(op.output) if op.output else stdout_path
            output = output_path.read_bytes() if output_path.exists() else b""
            problems = self.checker.check(op, child.returncode, child.stderr, output)
            if problems:
                result.failed += 1
                self.failures.append(f"{' '.join(op.args)[:120]}: {'; '.join(problems)}")
            else:
                result.evals += op.evals
                self.recorded[op.key] = hashlib.sha256(output).hexdigest()
            output_path.unlink(missing_ok=True)
        return result

    def import_child(self, *flags: str) -> Child:
        return run_child([sys.executable, *flags, "-c", IMPORT_CLI], self.env, self.work,
                         self.work / "stdout")

    def setup_sample(self) -> float:
        """Wall time of one fresh interpreter importing avhorizon.cli."""
        child = self.import_child()
        if child.returncode != 0:
            raise RuntimeError(f"importing avhorizon.cli failed: {child.stderr.decode()}")
        return child.wall_s

    def imports(self) -> dict[str, float]:
        """Median of each import.* metric over fresh -X importtime runs."""
        runs = [import_breakdown(self.import_child("-X", "importtime").stderr.decode())
                for _ in range(IMPORT_REPEATS)]
        return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def tail(values: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with at least ten values
    beyond it (nearest rank), and that percentile.  With fewer than 20
    values it lies at or below the median; with ten or fewer none
    exists, and the maximum (p100) is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    p = 100 * (n - 10) // n
    if p < 1:
        return ordered[-1], 100
    return ordered[math.ceil(p * n / 100) - 1], p


def end_to_end(setup: list[float], passes: list[Pass]) -> tuple[dict[str, float], str]:
    walls = [w for p in passes for w in p.op_walls]
    attempted = len(walls)
    failed = sum(p.failed for p in passes)
    tail_s, percentile = tail(walls)
    wall_s = statistics.median(p.wall_s for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "evals_per_s": statistics.median(p.evals / p.wall_s for p in passes),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "success_rate": 1.0 - failed / attempted,
    }
    note = (f"samples: {len(passes)} passes, {attempted} operations, "
            f"{len(setup)} set-ups; "
            f"op_tail_s is p{percentile}; error_rate {failed / attempted:.4f}")
    return metrics, note


def per_layer(bench: Bench, ops: list[Op], deadline: float) -> tuple[dict[str, float],
                                                                   list[Pass], str]:
    imports = bench.imports()
    plain, traced = [], []
    while True:
        plain.append(bench.run_pass(ops))
        traced.append(bench.run_pass(ops, traced=True, label=str(len(traced))))
        if time.perf_counter() >= deadline:
            break
    overhead = (statistics.median(p.wall_s for p in traced)
                - statistics.median(p.wall_s for p in plain))
    runs = [layer_metrics(span_totals(p.span_files), imports, overhead) for p in traced]
    metrics = {name: statistics.median(r[name] for r in runs) for name, _ in PER_LAYER}
    note = f"samples: {len(plain)} untraced and {len(traced)} traced passes"
    return metrics, plain + traced, note


def provenance(root: Path) -> dict:
    """Where and on what this result was measured."""
    commit = None  # an exported checkout has no git metadata
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu_model = platform.processor() or None
    versions = {}
    for package in ("numpy", "jsonschema"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the smoke test")
    parser.add_argument("--record-digests", action="store_true",
                        help="run one untimed pass and add its output digests to digests.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "avhorizon" / "cli.py").is_file():
        print(f"error: no avhorizon sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    (root / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    try:
        return _run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args: argparse.Namespace, root: Path, work: Path) -> int:
    digests = {} if args.record_digests else load_digests()
    bench = Bench(root, work, Checker(root, digests))
    located = subprocess.run(
        [sys.executable, "-c", "import avhorizon.cli, avhorizon.__main__; print(avhorizon.__file__)"],
        env=bench.env, cwd=work, capture_output=True, text=True,
    )
    if located.returncode != 0 or not Path(located.stdout.strip()).is_relative_to(root / "src"):
        print(f"error: avhorizon does not import from {root / 'src'}: "
              f"{located.stdout.strip() or located.stderr.strip()}", file=sys.stderr)
        return 2
    ops = WORKLOADS[args.workload](random.Random(args.seed), work, args.scale)

    if args.record_digests:
        bench.run_pass(ops)
        if bench.failures:
            print("\n".join(bench.failures), file=sys.stderr)
            return 1
        merged = {**load_digests(), **bench.recorded}
        DIGESTS_PATH.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(bench.recorded)} digests ({len(merged)} in total)")
        return 0

    print(f"provenance: {json.dumps(provenance(root), sort_keys=True)}")
    if args.trace:
        metrics, passes, note = per_layer(bench, ops, time.perf_counter() + args.seconds)
        units = dict(PER_LAYER)
    else:
        # Set-up samples are spread over the run, one after each pass, so
        # that their median sees the same machine as the passes do.
        setup = [bench.setup_sample() for _ in range(SETUP_FIRST)]
        deadline = time.perf_counter() + args.seconds
        passes = []
        while not passes or time.perf_counter() < deadline:
            passes.append(bench.run_pass(ops))
            setup.append(bench.setup_sample())
        metrics, note = end_to_end(setup, passes)
        units = dict(END_TO_END)
    attempted = sum(len(p.op_walls) for p in passes)
    failed = sum(p.failed for p in passes)
    unrecorded = sum(op.key not in bench.checker.digests for op in ops)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {note}; "
          f"{len(ops)} operations per pass, {unrecorded} without a recorded digest")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
