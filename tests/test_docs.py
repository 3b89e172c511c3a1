"""The README's library surface, export lists and range table match the
code, and numbers are checked in one place."""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

import avhorizon
from avhorizon import errors, sensitivity
from avhorizon.errors import ValidationError, _interval_text
from avhorizon.scenario import parse_scenarios

README = Path(__file__).resolve().parents[1] / "README.md"

SRC = README.parent / "src" / "avhorizon"

MODULES = ("complexity", "errors", "reliability", "timeline", "scenario", "sensitivity", "report")


def library_surface_bullets() -> dict[str, list[str]]:
    """Module name -> names listed in its "## Library surface" bullet.

    A listed name is the leading identifier of each backticked span, so
    a call such as `ComputeEnv(current_capacity, ...)` lists ComputeEnv.
    """
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets: dict[str, list[str]] = {}
    for bullet in re.split(r"\n(?=\S)", section):
        head = re.match(r"- `(avhorizon\.\w+)`:", bullet)
        if head:
            spans = re.findall(r"`([^`]+)`", bullet[head.end():])
            bullets[head.group(1)] = [re.match(r"\w*", span).group() for span in spans]
    return bullets


def test_readme_library_surface_has_one_bullet_per_module():
    assert sorted(library_surface_bullets()) == sorted(f"avhorizon.{m}" for m in MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_readme_library_surface_lists_exactly_the_module_export_list(module):
    names = library_surface_bullets()[f"avhorizon.{module}"]
    assert len(names) == len(set(names))
    assert set(names) == set(importlib.import_module(f"avhorizon.{module}").__all__)


def test_the_package_exports_the_module_export_lists_once():
    modules = [importlib.import_module(f"avhorizon.{m}") for m in MODULES]
    assert len(avhorizon.__all__) == len(set(avhorizon.__all__))
    assert set(avhorizon.__all__) == {name for module in modules for name in module.__all__}


@pytest.mark.parametrize("module", MODULES)
def test_the_package_exports_the_module_objects(module):
    module = importlib.import_module(f"avhorizon.{module}")
    for name in module.__all__:
        assert getattr(avhorizon, name) is getattr(module, name), name


def test_readme_range_table_matches_the_field_declarations():
    section = README.read_text(encoding="utf-8").split("| Path | Permitted range |", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|$", section.split("\n\n", 1)[0], re.M)
    assert rows == [(path, _interval_text(sensitivity._lookup(path)[2]))
                    for path in sensitivity.valid_parameter_paths()]


# The parts of errors._check_number, the one check of a number a module takes.
NUMBER_CHECK_PARTS = {"_is_finite_number", "_in_interval", "_outside"}


def test_only_errors_uses_the_parts_of_the_number_check():
    users = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id in NUMBER_CHECK_PARTS
        or isinstance(node, ast.Attribute) and node.attr in NUMBER_CHECK_PARTS
        or isinstance(node, ast.alias) and node.name in NUMBER_CHECK_PARTS
    }
    assert users == {"errors.py"}


# Every ValidationError class; a call of one builds an error.
ERROR_CLASSES = {name for name, value in vars(errors).items()
                 if isinstance(value, type) and issubclass(value, ValidationError)}


def range_messages(path: Path) -> list[str]:
    """The string parts of each error built in ``path`` that reads as a
    range check: ``outside`` or ``must satisfy``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ERROR_CLASSES:
            text = "".join(part.value for arg in node.args for part in ast.walk(arg)
                           if isinstance(part, ast.Constant) and isinstance(part.value, str))
            if "outside" in text or "must satisfy" in text:
                found.append(text)
    return found


def test_only_errors_writes_a_range_message():
    # A range is checked by errors._check_number against a declared
    # interval, not by a hand-written comparison with its own message.
    found = {path.name: range_messages(path) for path in SRC.glob("*.py")
             if path.name != "errors.py"}
    assert {name: texts for name, texts in found.items() if texts} == {}


def readme_json_blocks() -> list[str]:
    return re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_scenario_document_parses():
    document = readme_json_blocks()[0]
    assert [s.name for s in parse_scenarios(document)] == ["Robo-Taxis"]


def test_readme_chi_fragment_is_the_factor_product():
    fragment = json.loads("{" + readme_json_blocks()[1] + "}")
    (scenario,) = parse_scenarios(json.dumps({"scenarios": [{"name": "Robo-Taxis", **fragment}]}))
    assert scenario.chi.stage3 == 0.2 * 0.4


# Imports that nothing in scenario reads: perfbench/trace_driver.py wraps
# them where scenario binds them, so they stay until the tracer wraps the
# term functions instead (ROADMAP item 1), which deletes this allowlist too.
TRACER_ONLY_IMPORTS = {
    "scenario.py": {"effective_demand", "hpc_horizon_years", "crow_required_miles",
                    "poisson_required_miles", "demonstration_years", "compose_total"},
}


def unused_imports(path: Path) -> set[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
                and isinstance(node.value, ast.List)):
            exported = set(ast.literal_eval(node.value))
    return imported - read - exported


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path) == TRACER_ONLY_IMPORTS.get(path.name, set())


def test_package_version_matches_pyproject():
    pyproject = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]*)"$', project, re.M).group(1) == avhorizon.__version__
