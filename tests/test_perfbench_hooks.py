"""The benchmark harness under perfbench/ reaches into hyperbin by name: its
tracer wraps module attributes and methods, and its scripts import from the
package. A renamed hook would only zero a per-layer metric there, so these
tests resolve every such name. They read perfbench/ and never import it."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing_constant(name):
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/tracing.py defines no {name}")


def _hyperbin_imports():
    # (script, module, name) for every `from hyperbin... import name`
    out = []
    for script in ("checks.py", "run.py", "workloads.py"):
        tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hyperbin":
                out += [(script, node.module, alias.name) for alias in node.names]
    return out


@pytest.mark.parametrize("module, attr, _name, _layer", _tracing_constant("SPAN_TARGETS"))
def test_span_targets_exist(module, attr, _name, _layer):
    assert attr in vars(importlib.import_module(module))


@pytest.mark.parametrize("module, cls, attr, _name, _layer", _tracing_constant("LEAF_TARGETS"))
def test_leaf_targets_exist(module, cls, attr, _name, _layer):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = vars(owner)[cls]
    assert attr in vars(owner)


def test_cli_json_is_the_module_the_tracer_swaps():
    assert isinstance(vars(importlib.import_module("hyperbin.cli"))["json"], types.ModuleType)


def test_the_scripts_import_hyperbin():
    assert len(_hyperbin_imports()) >= 5


@pytest.mark.parametrize("script, module, name", _hyperbin_imports())
def test_imported_names_exist(script, module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}") is not None
