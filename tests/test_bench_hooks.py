"""Every name the benchmark harness reaches in the package must resolve:
the span targets it wraps and the names its sweep and set-up probe import.
The harness files are read as source, not imported, so this runs without
its environment set-up."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_ast(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _span_targets():
    """(module, attribute path) of every TARGETS and POOL_TARGETS entry."""
    targets = []
    for node in _module_ast("spans.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("TARGETS", "POOL_TARGETS")
                for t in node.targets):
            targets += [(module, path) for _, module, path in ast.literal_eval(node.value)]
    return targets


def _imported_names():
    """(module, name) of every ``from timsr... import name`` in the sweep
    definitions and the set-up probe."""
    names = []
    for file in ("sweeps.py", "setup_probe.py"):
        for node in ast.walk(_module_ast(file)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "timsr":
                names += [(node.module, alias.name) for alias in node.names]
    return names


def test_hook_lists_are_found():
    assert len(_span_targets()) >= 19
    assert ("timsr.sim", "run_block_trial") in _imported_names()


@pytest.mark.parametrize("module, path", _span_targets())
def test_span_target_resolves(module, path):
    # the tracer patches the attribute in place, so it must be the owner's own
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module}.{path}"


@pytest.mark.parametrize("module, name", _imported_names())
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
