"""Output checks for benchmark operations.

Every operation must exit 0 with no traceback on standard error, and
its output must have the structure its command and format promise:

* JSON parses; projection JSON validates against
  ``docs/report_schema.json``;
* the number of projection results or sensitivity entries is the
  number the operation asked for (for ``mc``, the sample count);
* Monte Carlo percentiles are nondecreasing.

Where ``digests.json`` holds a SHA-256 for the operation's content
key, the output bytes must match it.  The digests were recorded from
the program as it stood when the benchmark was defined, for seeds 0
to 39 of every workload; other seeds get the structural checks only.
A change that alters output bytes must name and justify the
difference and record the new digests, one workload and seed at a
time:

    python3 perfbench/run.py --workload doc-batch --seed 0 --seconds 1 --record-digests
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import jsonschema

from workloads import Op

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, str]:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


class Checker:
    """Checks one operation's exit status, standard error and output."""

    def __init__(self, root: Path, digests: dict[str, str]):
        schema = json.loads((root / "docs" / "report_schema.json").read_text(encoding="utf-8"))
        self._report_validator = jsonschema.Draft202012Validator(schema)
        self.digests = digests

    def check(self, op: Op, returncode: int, stderr: bytes, output: bytes) -> list[str]:
        """Problems found; an empty list means the operation passed."""
        problems = []
        if returncode != 0:
            problems.append(f"exit code {returncode}")
        if b"Traceback" in stderr:
            problems.append("traceback on standard error")
        expected = self.digests.get(op.key)
        if expected is not None and hashlib.sha256(output).hexdigest() != expected:
            problems.append("output differs from the recorded SHA-256")
        try:
            text = output.decode("utf-8")
        except UnicodeDecodeError:
            return problems + ["output is not UTF-8"]
        try:
            problems += self._structure(op, text)
        except (ValueError, KeyError, TypeError, AttributeError, csv.Error) as exc:
            problems.append(f"malformed {op.fmt} output: {exc!r}")
        return problems

    def _structure(self, op: Op, text: str) -> list[str]:
        if op.fmt == "json":
            document = json.loads(text)
            if op.check == "schema":
                return [] if "$schema" in document else ["schema output lacks $schema"]
            if op.check == "projection":
                errors = list(self._report_validator.iter_errors(document))
                if errors:
                    return [f"report schema violation: {errors[0].message}"]
                return _count("results", len(document["results"]), op.evals)
            problems = _count("entries", len(document["entries"]), op.evals)
            if op.check == "mc":
                if document.get("sample_count") != op.evals:
                    problems.append(
                        f"sample_count {document.get('sample_count')} != {op.evals}"
                    )
                values = list(document["percentiles"].values())
                if values != sorted(values):
                    problems.append(f"percentiles decrease: {values}")
            return problems
        if op.fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            return _count("csv rows", len(rows) - 1, op.evals)
        if op.fmt == "markdown" and op.check == "projection":
            sections = sum(1 for line in text.splitlines() if line.startswith("## "))
            return _count("markdown sections", sections, op.evals)
        if op.fmt == "table":
            lines = text.splitlines()
            rules = [i for i, line in enumerate(lines) if line and set(line) <= {"-", " "}]
            if not rules:
                return ["table has no header rule"]
            return _count("table rows", len(lines) - rules[-1] - 1, op.evals)
        return [f"no check for {op.check} in {op.fmt}"]


def _count(what: str, found: int, expected: int) -> list[str]:
    return [] if found == expected else [f"{what}: {found}, expected {expected}"]
