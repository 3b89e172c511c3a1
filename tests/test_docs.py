"""The README's library surface, export lists and range table match the
code, and numbers are checked in one place."""

import ast
import importlib
import re
from pathlib import Path

import avhorizon
from avhorizon import sensitivity
from avhorizon.errors import _interval_text

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ("complexity", "reliability", "timeline", "scenario", "sensitivity", "report")


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


def test_readme_library_surface_names_exist():
    bullets = library_surface_bullets()
    assert sorted(bullets) == sorted(f"avhorizon.{m}" for m in MODULES)
    missing = [
        f"{module}.{name}"
        for module, names in bullets.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_every_exported_name_imports():
    for module in (avhorizon, *(importlib.import_module(f"avhorizon.{m}") for m in MODULES)):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_readme_range_table_matches_the_field_declarations():
    section = README.read_text(encoding="utf-8").split("| Path | Permitted range |", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|$", section.split("\n\n", 1)[0], re.M)
    assert rows == [(path, _interval_text(sensitivity._lookup(path)[3]))
                    for path in sensitivity.valid_parameter_paths()]


# The parts of errors._check_number, the one check of a number a module takes.
NUMBER_CHECK_PARTS = {"_is_finite_number", "_in_interval", "_outside"}


def test_only_errors_uses_the_parts_of_the_number_check():
    users = {
        path.name
        for path in (README.parent / "src" / "avhorizon").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id in NUMBER_CHECK_PARTS
        or isinstance(node, ast.Attribute) and node.attr in NUMBER_CHECK_PARTS
        or isinstance(node, ast.alias) and node.name in NUMBER_CHECK_PARTS
    }
    assert users == {"errors.py"}


def test_package_version_matches_pyproject():
    pyproject = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]*)"$', project, re.M).group(1) == avhorizon.__version__
