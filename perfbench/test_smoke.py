"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

It runs every workload with and without tracing, checks that each
metric named in BENCHMARK.json is printed with its unit, that the
output checker flags an output with one byte flipped, and that the
benchmark refuses to run where there are no sources.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import Checker  # noqa: E402
from run import END_TO_END, Bench  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "0.005"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class MetricsArePrinted(unittest.TestCase):
    def test_spec_matches_the_code(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]], list(PER_LAYER))

    def test_every_metric_with_its_unit(self):
        for workload in sorted(WORKLOADS):
            for trace, metrics in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_benchmark(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {m["name"]: m["unit"] for m in metrics}
                    self.assertEqual(
                        {name: v["unit"] for name, v in result["metrics"].items()}, printed)
                    for name, unit in printed.items():
                        self.assertTrue(
                            any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                                for line in lines),
                            f"{name} not printed with unit {unit}")


class CheckerFlagsCorruption(unittest.TestCase):
    def test_one_flipped_byte(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".perfbench"))
        try:
            bench = Bench(ROOT, work, Checker(ROOT, {}))
            ops = WORKLOADS["cli-small"](random.Random(7), work, 0.005)
            self.assertEqual(bench.run_pass(ops).failed, 0, bench.failures)
            checker = Checker(ROOT, bench.recorded)
            # Run each operation (all write to standard output) once more
            # for its bytes, then corrupt them.
            for op in ops:
                proc = subprocess.run([sys.executable, "-m", "avhorizon", *op.args],
                                      env=bench.env, cwd=work, capture_output=True)
                output = proc.stdout
                self.assertEqual(checker.check(op, 0, proc.stderr, output), [])
                for position in (0, len(output) // 2, len(output) - 2):
                    flipped = bytearray(output)
                    flipped[position] ^= 0x01
                    with self.subTest(op=op.args[0], position=position):
                        self.assertNotEqual(checker.check(op, 0, b"", bytes(flipped)), [])
                self.assertEqual(hashlib.sha256(output).hexdigest(), bench.recorded[op.key])
        finally:
            shutil.rmtree(work, ignore_errors=True)


class RefusesWithoutSources(unittest.TestCase):
    def test_benchmark_files_alone(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_benchmark("cli-small", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
