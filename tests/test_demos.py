"""Every demo runs to exit code 0 in a fresh interpreter, every name a demo
imports from ``ehpolicy`` exists, and every name the package exports is used
by the package or a demo."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "ehpolicy"


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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, f"{path.name} failed:\n{done.stderr[-2000:]}"


def test_every_export_is_used():
    # an export that only tests call is code kept alive by its tests: a use is
    # a name or attribute read in another module of the package or in a demo,
    # so neither its own definition nor a docstring counts
    init = PACKAGE / "__init__.py"
    exports = {alias.asname or alias.name
               for node in ast.parse(init.read_text(encoding="utf-8")).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in [*DEMOS, *sorted(set(PACKAGE.glob("*.py")) - {init})]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert not exports - used, f"exported but never used: {sorted(exports - used)}"
