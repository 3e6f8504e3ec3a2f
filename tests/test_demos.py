"""Every demo runs to exit code 0 in a fresh interpreter, every name a demo
imports from ``ehpolicy`` exists, every name the package exports is used by
the package or a demo, every report field is read outside the tests, and
the package's modules import each other without a cycle."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ehpolicy import BoundReport, SearchResult, SimulationReport

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "ehpolicy"


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def ehpolicy_imports(path):
    """(module, name) for each ``from ehpolicy... import name`` in the file."""
    tree = parsed(path)
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
               for node in parsed(init).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in [*DEMOS, *sorted(set(PACKAGE.glob("*.py")) - {init})]:
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert not exports - used, f"exported but never used: {sorted(exports - used)}"


def test_every_report_field_is_read():
    # a field that only tests read is code kept alive by its tests: a read is
    # an attribute load in the package, a demo, a tool or the benchmark
    read = set()
    sources = [*PACKAGE.glob("*.py"), *DEMOS, *(ROOT / "tools").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    for path in (path for path in sources if not path.name.startswith("test_")):
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f"{report.__name__}.{f.name}"
              for report in (SimulationReport, SearchResult, BoundReport)
              for f in dataclasses.fields(report) if f.name not in read]
    assert not unread, f"report fields never read: {unread}"


def test_package_imports_have_no_cycle():
    # every relative import, at module level or inside a function, is an edge
    imports = {}
    for path in set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}:
        imports[path.stem] = {target for node in ast.walk(parsed(path))
                              if isinstance(node, ast.ImportFrom) and node.level
                              for target in ([node.module] if node.module
                                             else [alias.name for alias in node.names])}

    def reached(module):
        seen, todo = set(), [module]
        while todo:
            for target in imports.get(todo.pop(), ()):
                if target not in seen:
                    seen.add(target)
                    todo.append(target)
        return seen

    cyclic = sorted(module for module in imports if module in reached(module))
    assert not cyclic, f"modules on an import cycle: {cyclic}"
