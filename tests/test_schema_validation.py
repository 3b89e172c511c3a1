"""The in-house Draft 2020-12 validator against the jsonschema package.

``avhorizon._jsonschema`` replaces jsonschema at run time; jsonschema
stays the oracle here.  Every case compares the full list of errors
(paths and messages, in the order they are produced) and the first
error under ``_validated_json``'s rule: a stable sort by path.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import avhorizon
from avhorizon import _jsonschema
from avhorizon.cli import _SPEC_SCHEMAS
from avhorizon.errors import ScenarioFormatError
from avhorizon.scenario import (
    SCENARIO_SCHEMA,
    _validated_json,
    builtin_catalog,
    scenario_to_document,
)


def errors_of(module, schema, document):
    return [(list(e.absolute_path), e.message)
            for e in module.Draft202012Validator(schema).iter_errors(document)]


def assert_same_errors(schema, document):
    expected = errors_of(jsonschema, schema, document)
    assert errors_of(_jsonschema, schema, document) == expected
    expected.sort(key=lambda error: error[0])
    try:
        _validated_json(json.dumps(document), schema, "doc.json", "document")
    except ScenarioFormatError as exc:
        path, message = expected[0]
        where = "/".join(map(str, path)) or "top level"
        assert str(exc) == f"doc.json: invalid document at {where}: {message}"
    else:
        assert expected == []


# ---------------------------------------------------------------------------
# Each edge of the keyword semantics, one case at a time
# ---------------------------------------------------------------------------

NUMBER_OR_NULL = {"type": ["number", "null"]}
CLOSED = {"type": "object", "additionalProperties": False, "required": ["b", "a"],
          "properties": {"a": {"type": "integer", "minimum": 1},
                         "b": {"type": "string", "minLength": 1, "pattern": "^(?i:x|y)$"}}}
PAIR = {"type": "array", "minItems": 2, "maxItems": 2,
        "prefixItems": [{"type": "number"}, {"type": "number"}]}
TAIL = {"type": "array", "minItems": 1, "maxItems": 0, "prefixItems": [{"type": "string"}],
        "items": {"type": "integer"}}
EITHER = {"oneOf": [{"type": "number"}, {"required": ["a"]}, {"required": ["b"]}]}


@pytest.mark.parametrize("schema, document", [
    ({"type": "integer"}, 1.0),
    ({"type": "integer"}, 1.5),
    ({"type": "integer"}, True),
    ({"type": "integer"}, float("inf")),
    ({"type": "number"}, False),
    ({"type": "number"}, None),
    (NUMBER_OR_NULL, "x"),
    (NUMBER_OR_NULL, None),
    (NUMBER_OR_NULL, True),
    ({"minimum": 1}, "0"),
    ({"minimum": 1}, 0.5),
    ({"minimum": 1}, True),
    ({"minimum": 1}, 10**400),
    ({"minItems": 1}, ""),
    ({"minLength": 1}, []),
    ({"pattern": "x"}, 1),
    ({"pattern": "^(?i:uniform)$"}, "uniform\n"),
    ({"pattern": "^(?i:uniform)$"}, "Uniform "),
    (CLOSED, {}),
    (CLOSED, {"a": 0, "b": "", "zeta": 1, "Alpha": 2, "a1": 3}),
    (CLOSED, {"a": 0.0, "b": "Y", "c": None}),
    (CLOSED, {"b": 1, "a": True}),
    (CLOSED, []),
    (PAIR, []),
    (PAIR, [1]),
    (PAIR, [1, "2", None]),
    (PAIR, {"0": 1}),
    (TAIL, []),
    (TAIL, [1, 2.0, 2.5, "x"]),
    (TAIL, ["x", 1, "y"]),
    (EITHER, "x"),
    (EITHER, 1),
    (EITHER, {"a": 1}),
    (EITHER, {"a": 1, "b": 2}),
    (EITHER, [1]),
])
def test_keyword_edges_match_jsonschema(schema, document):
    assert_same_errors(schema, document)


def test_unknown_keyword_does_not_compile():
    with pytest.raises(ValueError, match="'maxLength'"):
        _jsonschema.compile_schema({"type": "string", "maxLength": 3})
    with pytest.raises(ValueError, match="'uniqueItems'"):
        _jsonschema.compile_schema(
            {"properties": {"a": {"type": "array", "items": {"uniqueItems": True}}}})
    with pytest.raises(ValueError, match="additionalProperties"):
        _jsonschema.compile_schema({"additionalProperties": {"type": "number"}})
    with pytest.raises(ValueError, match="unknown JSON type"):
        _jsonschema.compile_schema({"type": "float"})


# ---------------------------------------------------------------------------
# Generated faults in valid scenario documents and spec files
# ---------------------------------------------------------------------------

FACTORS = {"factors": [{"name": "active_interaction", "value": 0.4},
                       {"name": "mystery", "value": 0.5, "documented_range": [0.25, 1.0]}]}
CATALOG = [scenario_to_document(s) for s in builtin_catalog()]
# Shaped like perfbench's doc-batch document: catalog overrides, new
# categories with factor-product chi, and a defaults block.
DOC_BATCH = {
    "defaults": {"crow": {"beta": 0.42}, "annual_miles": 1.2e9, "f": 0.75},
    "scenarios": [
        {"name": "Highway Trucking", "crow": {"severity": 3.5}},
        {"name": "Generated 00000", "n_objects": 42,
         "chi": {"stage2": 0.05, "stage3": {"factors": [
             {"name": "learned_heuristics", "value": 0.2},
             {"name": "site_specific_pruning", "value": 0.5, "documented_range": [0.25, 1.0]}]}},
         "gamma_override": 0.8, "prod_reg_years": {"stage2": 2.5, "stage3": 4.0},
         "poisson": {"confidence": 0.93}},
        {"name": "Robo-Taxis", "prod_reg_years": {"stage3": 6.0}},
        {"name": "Generated 00001", "n_objects": 30,
         "chi": {"stage2": {"factors": [
             {"name": "active_interaction", "value": 0.3},
             {"name": "site_specific_pruning", "value": 0.5, "documented_range": [0.25, 1.0]}]},
             "stage3": 0.2},
         "gamma_override": 1.1, "prod_reg_years": {"stage2": 1.5, "stage3": 3.0},
         "crow": {"severity": 2.0}},
    ],
}
SCENARIO_DOCUMENTS = [
    {"scenarios": CATALOG[:2]},
    {"scenarios": [{"name": "Robo-Taxis"}]},
    {"defaults": {"annual_miles": 2e9, "crow": {"beta": 0.5}, "chi": {"stage3": 0.5}},
     "scenarios": [{"name": "Delivery Vans", "n_objects": 40},
                   {**CATALOG[0], "name": "New", "chi": {"stage2": FACTORS, "stage3": 0.3}}]},
    DOC_BATCH,
]
SPEC_DOCUMENTS = [
    ("sweep", {"parameter_path": "f", "values": [0.6, 0.7]}),
    ("sweep", {"parameter_path": "crow.beta", "grid": {"low": 0.3, "high": 0.5, "steps": 3}}),
    ("tornado", {"bounds": [{"parameter_path": "f", "low": 0.6, "high": 0.8},
                            {"parameter_path": "crow.beta", "low": 0.3, "high": 0.5}]}),
    ("mc", {"distributions": [
        {"parameter_path": "f", "kind": "uniform", "low": 0.6, "high": 0.8},
        {"parameter_path": "crow.beta", "kind": "Triangular", "low": 0.3, "mode": 0.4,
         "high": 0.5}]}),
]
CASES = [(SCENARIO_SCHEMA, document) for document in SCENARIO_DOCUMENTS] + [
    (_SPEC_SCHEMAS[command], document) for command, document in SPEC_DOCUMENTS]

WRONG_VALUES = st.sampled_from([
    True, False, None, 0, 1, -1, 1.0, 0.5, -2.5, 2**70, "", "x", "uniform", "gaussian",
    "UNIFORM", "uniform\n", [], [0.5], [0.5, 1.0, 2.0], {}, {"name": "x"}, {"factors": []},
    FACTORS, {"low": 0.6, "high": 0.8, "steps": 3},
]).map(copy.deepcopy)
EXTRA_KEYS = st.sampled_from(["extra", "Zeta", "aaa", "values", "grid", "factors", "name"])


def mutate(draw, node):
    """``node`` with one fault at or below it: a replaced value, a missing
    or extra key, or a shortened or lengthened array."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) \
        if isinstance(node, list) else []
    if keys and draw(st.integers(0, 2)):
        key = draw(st.sampled_from(keys))
        node[key] = mutate(draw, node[key])
        return node
    ops = ["replace"]
    if isinstance(node, dict):
        ops += ["extra"] + ["delete"] * bool(node)
    elif isinstance(node, list):
        ops += ["empty", "append"] + ["drop"] * bool(node)
    op = draw(st.sampled_from(ops))
    if op == "extra":
        node[draw(EXTRA_KEYS)] = draw(WRONG_VALUES)
    elif op == "delete":
        del node[draw(st.sampled_from(list(node)))]
    elif op == "empty":
        node.clear()
    elif op == "append":
        node.append(copy.deepcopy(node[-1]) if node and draw(st.booleans())
                    else draw(WRONG_VALUES))
    elif op == "drop":
        node.pop(draw(st.integers(0, len(node) - 1)))
    else:
        return draw(WRONG_VALUES)
    return node


@st.composite
def faulty_documents(draw):
    schema, base = draw(st.sampled_from(CASES))
    document = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        document = mutate(draw, document)
    return schema, document


@settings(max_examples=1500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(faulty_documents())
def test_generated_faults_match_jsonschema(case):
    assert_same_errors(*case)


TARGETED = [
    (SCENARIO_SCHEMA, {"scenarios": [{"name": "New", "n_objects": n}]})
    for n in (0, -1, 0.5, 1.0, True, "1", None)
] + [
    (SCENARIO_SCHEMA, {"scenarios": [{"name": "Robo-Taxis", "chi": {"stage2": chi}}]})
    for chi in (0.5, True, "x", None, FACTORS, {"factors": []}, {**FACTORS, "extra": 1},
                {"factors": [{"name": "", "value": "1"}]}, {"factors": [{"value": 1}]},
                {"factors": [{"name": "a", "value": 1, "documented_range": [1]}]},
                {"factors": [{"name": "a", "value": 1, "documented_range": [1, 2, 3]}]},
                {"stage2": 0.5})
] + [
    (_SPEC_SCHEMAS["sweep"], {"parameter_path": "f", "values": [0.6],
                              "grid": {"low": 0.6, "high": 0.8, "steps": 3}}),
    (_SPEC_SCHEMAS["sweep"], {"parameter_path": "f", "values": [0.6],
                              "grid": {"low": 0.6, "high": 0.8, "steps": 1.5}, "step": 1}),
    (_SPEC_SCHEMAS["sweep"], [0.6]),
    (_SPEC_SCHEMAS["sweep"], {"parameter_path": 1}),
] + [
    (_SPEC_SCHEMAS["mc"], {"distributions": [
        {"parameter_path": "f", "kind": kind, "low": 0.6, "high": 0.8, "mode": mode}]})
    for kind, mode in (("gaussian", None), ("uniform\n", 0.7), ("Uniform ", "x"),
                       ("", True), (1, 1.0), ("TRIANGULAR", []))
]


@pytest.mark.parametrize("schema, document", TARGETED)
def test_targeted_faults_match_jsonschema(schema, document):
    assert_same_errors(schema, document)


# ---------------------------------------------------------------------------
# jsonschema and numpy stay out of the program
# ---------------------------------------------------------------------------


def test_cli_runs_without_importing_jsonschema_or_numpy(tmp_path):
    """jsonschema never loads; numpy loads only for mc, however long a
    sweep is."""
    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps({"scenarios": [{"name": "Robo-Taxis"}]}))
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"scenarios": [{"name": "Robo-Taxis", "f": "x"}]}))
    script = (
        "import contextlib, io, sys\n"
        "from avhorizon import cli\n"
        "def run(args, code):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(args) == code, args\n"
        "    assert 'jsonschema' not in sys.modules, args\n"
        "valid, malformed = sys.argv[1:]\n"
        "assert not {'jsonschema', 'numpy'} & sys.modules.keys(), 'import'\n"
        "for args, code in ((['catalog'], 0), (['project', '--file', valid], 0),\n"
        "                   (['project', '--file', malformed], 1), (['schema'], 0),\n"
        "                   (['tornado', '--category', 'Robo-Taxis', '--bound', 'f=0.6,0.8',\n"
        "                     '--bound', 'crow.beta=0.3,0.5'], 0),\n"
        "                   (['sweep', '--category', 'Robo-Taxis', '--param', 'f',\n"
        "                     '--values', '0.2,0.6,0.9'], 0),\n"
        "                   (['sweep', '--category', 'Robo-Taxis', '--param', 'crow.beta',\n"
        "                     '--grid', '0.3:0.5:20000'], 0)):\n"
        "    run(args, code)\n"
        "    assert 'numpy' not in sys.modules, args\n"
        "run(['mc', '--category', 'Robo-Taxis', '--dist', 'f=uniform:0.6,0.8',\n"
        "     '--samples', '5', '--seed', '1'], 0)\n"
        "assert 'numpy' in sys.modules, 'mc'\n"
    )
    src = str(Path(avhorizon.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script, str(valid), str(malformed)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "invalid scenario document at scenarios/0/f: 'x' is not of type 'number'" \
        in proc.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="counts threads in /proc/self/task; OpenBLAS starts none on 1 CPU")
@pytest.mark.parametrize("caller, given, variable", [
    ("cli", None, "1"), ("cli", "2", "2"), ("library", None, "None")])
def test_mc_loads_numpy_with_one_blas_thread_from_the_cli_only(caller, given, variable):
    """The CLI loads numpy's OpenBLAS with one thread unless the caller set
    OPENBLAS_NUM_THREADS; a library caller of monte_carlo keeps its own."""
    script = (
        "import contextlib, io, os, sys\n"
        "from avhorizon import cli, sensitivity\n"
        "from avhorizon.scenario import builtin_catalog\n"
        "from avhorizon.timeline import Stage\n"
        "if sys.argv[1] == 'library':\n"
        "    dist = sensitivity.DistributionSpec('f', sensitivity.DistributionKind.UNIFORM,"
        " 0.6, 0.8)\n"
        "    sensitivity.monte_carlo(builtin_catalog()[1], Stage.BROAD_COMMERCIAL, [dist], 5, 1)\n"
        "else:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['mc', '--category', 'Robo-Taxis', '--dist',"
        " 'f=uniform:0.6,0.8', '--samples', '5', '--seed', '1']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))\n"
    )
    src = str(Path(avhorizon.__file__).parents[1])
    # OpenBLAS also reads GOTO_NUM_THREADS and OMP_NUM_THREADS when
    # OPENBLAS_NUM_THREADS is unset.
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    if given:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", script, caller],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    read, tasks = proc.stdout.split()
    assert read == variable
    if variable == "1":
        assert tasks == "1"  # no OpenBLAS worker beside the main thread
