"""Rules over every protolab module: import hygiene, checked on their
syntax trees, and frozen checked or cached dataclasses."""

import ast
import dataclasses
import importlib
from functools import cached_property
from pathlib import Path

import protolab

MODULES = sorted(
    path for path in Path(protolab.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def _protolab_imports(tree: ast.Module):
    """(bound name, imported name) for every name a module imports from
    another protolab module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "protolab":
            continue
        for alias in node.names:
            yield alias.asname or alias.name, alias.name


def test_protolab_imports_are_used_and_public():
    problems = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        for bound, name in _protolab_imports(tree):
            if bound not in used:
                problems.append(f"{path.name}: {name} is imported but unused")
            if name.startswith("_"):
                problems.append(f"{path.name}: private {name} is imported")
    assert problems == []


def test_checked_or_cached_dataclasses_are_frozen():
    # A constructor check or a cached property holds only while the fields
    # it read stay put, so a dataclass that has one is frozen.
    checked, unfrozen = set(), []
    for path in MODULES:
        module = importlib.import_module(f"protolab.{path.stem}")
        for cls in vars(module).values():
            if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)
                    and cls.__module__ == module.__name__):
                continue
            body = vars(cls)
            if "__post_init__" in body or any(
                    isinstance(a, cached_property) for a in body.values()):
                checked.add(cls.__name__)
                if not cls.__dataclass_params__.frozen:
                    unfrozen.append(f"{path.name}: {cls.__name__}")
    assert unfrozen == []
    assert {"LcpBox", "ExecutionTable", "ObliviousStructure",
            "MeasureReport", "ProtocolDef"} <= checked
