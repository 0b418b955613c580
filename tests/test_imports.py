"""Import hygiene of the protolab modules, checked on their syntax trees."""

import ast
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
