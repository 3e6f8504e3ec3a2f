"""Every name a demo imports from ``ehpolicy`` exists; the demos themselves are not run."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def ehpolicy_imports(path):
    """(module, name) for each ``from ehpolicy... import name`` in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "ehpolicy"
            for alias in node.names]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = ehpolicy_imports(path)
    assert imports, f"{path.name} imports nothing from ehpolicy"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports names that do not exist: {missing}"
