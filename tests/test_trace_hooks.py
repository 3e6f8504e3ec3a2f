"""The benchmark's traced run sees every layer the harness calls.

``perfbench/child.py --trace`` rebinds the harness's and the CLI's module
names for the policy makers, the evaluator, the bound, the simulation and
the ``run_*`` drivers, and the library's names for the cached charge band.
A harness that called those functions by another route would silently
report zero time for their layers, and a band built past its cached name
zero builds; these runs catch both.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from test_config_cli import SMALL_YAML

ROOT = Path(__file__).resolve().parents[1]


COMMON = {"harness", "chain.charge_matrix", "optimize.search", "optimize.upper_bound"}


# the charge band is built once per battery: the sweep searches the real and
# the ideal battery
BUILDS = {"search": 1, "sweep": 2, "simulate": 1}


@pytest.mark.parametrize("command,spans", [
    ("search", COMMON),
    ("sweep", COMMON | {"chain.evaluate_policy", "optimize.solve_perfect_soc"}),
    ("simulate", COMMON | {"chain.evaluate_policy", "chain.simulate"})])
def test_traced_run_records_each_layer(tmp_path, command, spans):
    config = tmp_path / "small.yaml"
    config.write_text(SMALL_YAML, encoding="utf-8")
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--src", str(ROOT / "src"),
         "--result", str(result_path), "--trace", "--",
         command, "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["exit_code"] == 0
    assert spans <= {name for name, *_ in result["spans"]}
    assert result["counts"]["chain.reducible_route"] > 0
    assert result["builds"]["chain.charge_matrix"] == BUILDS[command]
    # SMALL_YAML searches actions 0, 2, ..., 10 on 2 subsets: 6^2 candidates
    # per search, reported as a plain int that JSON can write
    counts = [attrs["candidates"] for name, *_, attrs in result["spans"]
              if name == "optimize.search"]
    assert counts and all(type(c) is int and c == 6 ** 2 for c in counts)
