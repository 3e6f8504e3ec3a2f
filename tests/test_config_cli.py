import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from conftest import to_yaml

import ehpolicy
from ehpolicy import Partition, ScenarioConfig, get_preset, harness, preset_names
from ehpolicy.cli import main
from ehpolicy.config import (
    _POLICY_SOURCES,
    ActionConfig,
    PartitionConfig,
    device_consumption_table,
)
from ehpolicy.core import DeviceTableConsumption, IdentityConsumption
from ehpolicy.errors import ConfigurationError
from ehpolicy.harness import RESULT_COLUMNS, build_models
from ehpolicy.optimize import refine_partition_search, search_partition_policy

ROOT = Path(__file__).resolve().parents[1]
SMALL_YAML = """\
scenario: small
battery:
  e_max: 20
  profile: quadratic
  beta_nl: 1.2
arrivals:
  family: geometric
  mean: 5.0
  b_max: 12
reward:
  family: log_snr
  snr_scale: 0.01
actions:
  max_power: 10
  step: 2
partition:
  n_subsets: 2
policy_source: search
seed: 7
frames: 20000
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_YAML, encoding="utf-8")
    return path


class TestConfig:
    def test_yaml_round_trip(self):
        cfg = get_preset("baseline")
        again = ScenarioConfig.from_yaml(to_yaml(cfg))
        assert again.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("name", [*preset_names(), "large_battery.yaml"])
    def test_json_round_trip(self, name):
        # the manifest's config_sha256 hashes this JSON text
        cfg = (get_preset(name) if name in preset_names()
               else ScenarioConfig.load(ROOT / "perfbench" / name))
        text = json.dumps(cfg.to_dict(), sort_keys=True)
        assert ScenarioConfig.from_dict(json.loads(text)) == cfg

    def test_small_round_trip(self, small_config):
        cfg = ScenarioConfig.load(small_config)
        assert cfg.scenario == "small"
        assert cfg.battery.e_max == 20
        again = ScenarioConfig.from_yaml(to_yaml(cfg))
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"scenario": "x", "bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigurationError, match=r"battery: unknown keys \['volts'\]"):
            ScenarioConfig.from_dict({"battery": {"e_max": 10, "volts": 3}})
        # keys of mixed types are listed too, not compared with each other
        with pytest.raises(ConfigurationError, match=r"battery: unknown keys \[1, 'volts'\]"):
            ScenarioConfig.from_dict({"battery": {1: 2, "volts": 3}})

    def test_integration_steps_key_is_gone(self):
        # the charging flow is exact, so the old RK4 step count is an unknown key
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"battery": {"e_max": 10, "integration_steps": 256}})

    @pytest.mark.parametrize("section,key,value", [("actions", "from_device", True),
                                                   ("search", "coarse_step", 4),
                                                   ("search", "refine_above", 2)])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, section, key, value):
        # a device table fixes the tx levels by itself, the two-stage search's
        # coarse step is a constant, and search.budget alone decides when the
        # search runs in two stages, so a config that still sets a key fails
        with pytest.raises(ConfigurationError, match=rf"{section}: unknown keys \['{key}'\]"):
            ScenarioConfig.from_dict({section: {key: value}})
        data = yaml.safe_load(SMALL_YAML)
        data.setdefault(section, {})[key] = value
        path = tmp_path / "old.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    def test_bad_policy_source(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"policy_source": "magic"})
        with pytest.raises(ConfigurationError, match="policy_source"):
            dataclasses.replace(get_preset("baseline"), policy_source="magic")

    def test_action_range_includes_zero(self):
        acts = ActionConfig(max_power=10, step=3).build(100, IdentityConsumption())
        assert acts.actions == (0, 3, 6, 9)

    def test_action_values_deduplicated(self):
        acts = ActionConfig(values=[5, 1, 5]).build(100, IdentityConsumption())
        assert acts.actions == (0, 1, 5)

    def test_explicit_partition_boundaries(self):
        part = PartitionConfig(boundaries=[0, 4, 9]).build(e_max=12)
        subsets = part.subsets()
        assert [s[0] for s in subsets] == [0, 4, 9]

    def test_ideal_battery_override(self):
        cfg = get_preset("baseline")
        models = build_models(cfg, ideal=True)
        from ehpolicy import ConstantEfficiency
        assert models.battery.efficiency == ConstantEfficiency(eta=1.0)


class TestPresets:
    def test_required_presets_exist(self):
        for name in ("baseline", "fig2", "fig3", "fig4", "fig5"):
            assert name in preset_names()

    def test_presets_build(self):
        for name in preset_names():
            cfg = get_preset(name)
            band = (cfg.sweep.bands or [None])[0]
            models = build_models(cfg, band=band)
            assert models.battery.e_max >= 1
            assert 0 in models.actions.actions

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            get_preset("fig99")


class TestDeviceTable:
    def test_quantization_315mhz(self):
        # 14 mW for 5 ms at a 10 uJ quantum is 7 quanta; 79.2 mW rounds to 40
        rows = device_consumption_table("315MHz", 1e-5, 0.005)
        assert rows == ((1, 22), (5, 38), (7, 40))

    def test_quantization_868mhz(self):
        rows = device_consumption_table("868MHz", 1e-5, 0.005)
        assert (7, 53) in rows

    def test_sub_quantum_level_dropped(self):
        # the 0.25 mW level quantizes below one transmit quantum
        for band in ("315MHz", "433MHz", "868MHz", "915MHz"):
            rows = device_consumption_table(band, 1e-5, 0.005)
            assert all(tx >= 1 for tx, _ in rows)

    def test_unknown_band(self):
        with pytest.raises(ConfigurationError):
            device_consumption_table("2.4GHz", 1e-5, 0.005)

    @pytest.mark.parametrize("band", ["315MHz", "433MHz", "868MHz", "915MHz"])
    def test_no_level_left_is_refused(self, band):
        with pytest.raises(ConfigurationError, match="battery.quantum_joules"):
            device_consumption_table(band, 1.0, 0.005)

    def test_fig5_actions_follow_device(self):
        cfg = get_preset("fig5")
        models = build_models(cfg, band="315MHz")
        assert isinstance(models.cons, DeviceTableConsumption)
        assert models.actions.actions == (0, 1, 5, 7)


def _read_results(out_dir):
    with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == RESULT_COLUMNS
        return list(reader)


def _stable_rows(out_dir):
    """Result rows minus the wall-clock column, which varies run to run."""
    return [{k: v for k, v in row.items() if k != "wall_time_s"}
            for row in _read_results(out_dir)]


def out_flags(command, out):
    """``--out out`` for every command but validate, which writes nothing."""
    return [] if command == "validate" else ["--out", str(out)]


def assert_refused(argv, message, capsys):
    """``argv`` is refused by argparse, with exit code 2 and ``message`` on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr()
    assert message in err.err
    assert err.out == ""


class TestCli:
    def test_validate_ok(self, small_config, capsys):
        assert main(["validate", "--config", str(small_config)]) == 0
        assert "recharge hypothesis holds" in capsys.readouterr().out

    def test_validate_failure_exit_code(self, tmp_path):
        # arrivals always zero: no state can ever recharge
        bad = tmp_path / "bad.yaml"
        bad.write_text(SMALL_YAML.replace(
            "  family: geometric\n  mean: 5.0\n  b_max: 12",
            "  family: explicit\n  pmf: [1.0]"), encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("preset,message", [
        ("fig5", "consumption.band required for device tables"),
        (None, "mean must be in"),  # a geometric mean at b_max
    ])
    def test_validate_config_error_exit_code(self, tmp_path, capsys, preset, message):
        # models the config cannot build fail as under every other subcommand:
        # exit code 2 with the message on stderr, not the recharge check's 1
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_YAML.replace("mean: 5.0", "mean: 12.0"), encoding="utf-8")
        flags = ["--preset", preset] if preset else ["--config", str(path)]
        assert main(["validate", *flags]) == 2
        err = capsys.readouterr()
        assert message in err.err
        assert err.out == ""

    @pytest.mark.parametrize("section,bad", [
        ("battery", 5), ("sweep", 3), ("battery", None), ("search", [1, 2])])
    def test_section_that_is_not_a_mapping(self, tmp_path, capsys, section, bad):
        data = yaml.safe_load(SMALL_YAML)
        data[section] = bad
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        assert f"{section} must be a mapping" in capsys.readouterr().err

    def test_config_and_preset_conflict(self, small_config, capsys):
        assert_refused(["solve", "--config", str(small_config), "--preset", "baseline"],
                       "argument --preset: not allowed with argument --config", capsys)

    def test_missing_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert_refused(["solve", "--out", str(out)],
                       "one of the arguments --config --preset is required", capsys)
        assert not out.exists()

    @pytest.mark.parametrize("case,message", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("malformed", "at line 2, column 1"),
    ])
    def test_unreadable_config(self, tmp_path, capsys, case, message):
        # exit code 2 and one line naming the path, not a traceback with the
        # exit code 1 that validate gives a violated recharge hypothesis
        path = {"missing": tmp_path / "none.yaml", "directory": tmp_path,
                "malformed": tmp_path / "bad.yaml"}[case]
        if case == "malformed":
            path.write_text("battery: [1,\n", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr()
        assert err.err.startswith("error: ") and err.err.count("\n") == 1
        assert str(path) in err.err and message in err.err
        assert err.out == ""

    @pytest.mark.parametrize("below", [False, True])
    def test_out_that_is_a_file(self, tmp_path, capsys, below):
        # refused before the run starts: nothing is written beside the file
        blocker = tmp_path / "results"
        blocker.write_text("kept\n", encoding="utf-8")
        out = blocker / "run" if below else blocker
        assert main(["bound", "--preset", "baseline", "--out", str(out)]) == 2
        err = capsys.readouterr()
        assert err.err == f"error: --out {out}: {blocker} exists and is not a directory\n"
        assert err.out == ""
        assert blocker.read_text(encoding="utf-8") == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["results"]

    def test_solve_outputs(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(small_config),
                     "--out", str(out)]) == 0
        rows = _read_results(out)
        assert rows[0]["policy"] == "optimal_perfect_real"
        assert float(rows[0]["g_analytic"]) > 0
        assert float(rows[0]["g_upper_bound"]) >= float(rows[0]["g_analytic"])
        assert (out / "policy_small_perfect_real.csv").exists()
        assert "results written" in capsys.readouterr().out

    def test_manifest_records_seed_and_hash(self, small_config, tmp_path):
        out = tmp_path / "out"
        main(["search", "--config", str(small_config), "--out", str(out),
              "--seed", "99"])
        lines = (out / "run_manifest.txt").read_text(encoding="utf-8").splitlines()
        # the digest is of the resolved config, the --seed override included
        cfg = dataclasses.replace(ScenarioConfig.load(small_config), seed=99)
        text = json.dumps(cfg.to_dict(), sort_keys=True)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert "seed: 99" in lines
        assert f"config_sha256: {digest}" in lines
        assert any(line.startswith("numpy_version: ") for line in lines)
        assert not any(line.startswith("scipy_version") for line in lines)

    def test_search_deterministic(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["search", "--config", str(small_config),
                         "--out", str(out)]) == 0
        assert _stable_rows(out1) == _stable_rows(out2)
        rows = _read_results(out1)
        assert rows[0]["policy"] == "optimal_partition_N2"
        assert (out1 / "policy_small_N2.csv").exists()

    def test_simulate_close_to_analytic(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(small_config),
                     "--out", str(out)]) == 0
        row = _read_results(out)[0]
        gap = abs(float(row["g_simulated"]) - float(row["g_analytic"]))
        assert gap <= 5 * float(row["std_error"])

    def test_bound_table(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["bound", "--config", str(small_config),
                     "--out", str(out)]) == 0
        with open(out / "bound_small.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["arrival_quanta", "best_start_level", "max_stored_quanta"]
        assert len(rows) == 1 + 13  # header plus arrivals 0..b_max
        assert float(rows[1][2]) == 0.0

    def test_sweep_covers_axes_and_policies(self, small_config, tmp_path):
        cfg = ScenarioConfig.load(small_config)
        cfg.sweep.e_max = [10, 20]
        swept = tmp_path / "sweep.yaml"
        swept.write_text(to_yaml(cfg), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(swept), "--out", str(out)]) == 0
        rows = _read_results(out)
        assert len(rows) == 2 * 5
        names = {r["policy"] for r in rows}
        assert names == {"optimal_partition_N2", "optimal_perfect",
                         "low_complexity", "balanced", "ideal_policy_crossapplied"}
        assert all(r["error"] == "" for r in rows)

    def test_sweep_threads_match_serial(self, small_config, tmp_path):
        cfg = ScenarioConfig.load(small_config)
        cfg.sweep.e_max = [10, 20]
        swept = tmp_path / "sweep.yaml"
        swept.write_text(to_yaml(cfg), encoding="utf-8")
        serial, parallel = tmp_path / "s", tmp_path / "p"
        main(["sweep", "--config", str(swept), "--out", str(serial)])
        main(["sweep", "--config", str(swept), "--out", str(parallel),
              "--threads", "2"])
        assert _stable_rows(serial) == _stable_rows(parallel)

    @pytest.mark.parametrize("threads", [0, -1, (os.cpu_count() or 1) + 1])
    def test_sweep_threads_checked_before_pool(self, small_config, tmp_path, capsys,
                                               monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(small_config), "--out", str(out),
                     "--threads", str(threads)]) == 2
        assert "worker processes" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("threads", [0, -3, (os.cpu_count() or 1) + 1])
    @pytest.mark.parametrize("command", ["solve", "search", "sweep", "simulate", "bound",
                                         "validate"])
    def test_threads_checked_for_every_command(self, small_config, tmp_path, capsys,
                                               monkeypatch, command, threads):
        # sweep checks the count before any pool starts; every other command
        # takes no --threads, so argparse refuses it
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "out"
        argv = [command, "--config", str(small_config), *out_flags(command, out),
                "--threads", str(threads)]
        if command == "sweep":
            assert main(argv) == 2
            err = capsys.readouterr()
            assert "worker processes" in err.err
            assert err.out == ""
        else:
            assert_refused(argv, "unrecognized arguments: --threads", capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--out", "out"), ("--seed", "3")])
    def test_validate_refuses_out_and_seed(self, small_config, tmp_path, capsys, monkeypatch,
                                           flag, value):
        # validate writes and draws nothing
        monkeypatch.chdir(tmp_path)
        assert_refused(["validate", "--config", str(small_config), flag, value],
                       f"unrecognized arguments: {flag}", capsys)
        assert list(tmp_path.iterdir()) == [small_config]  # no output directory

    @pytest.mark.parametrize("bad,flags", [
        ("frames: 1.5", []), ("frames: abc", []), ("frames: true", []),
        ("frames: 0", []), ("frames: -3", []), ("seed: 1.5", []), ("seed: abc", []),
        ("seed: true", []), ("seed: -1", []), ("seed: 7", ["--seed", "-1"]),
        ("frames: 100000001", [])])
    def test_bad_frames_or_seed_fails_before_solving(self, tmp_path, capsys, monkeypatch,
                                                     bad, flags):
        def no_solve(*args, **kwargs):
            raise AssertionError("a policy was solved")

        monkeypatch.setattr(harness, "solve_perfect_soc", no_solve)
        monkeypatch.setattr(harness, "search_partition_policy", no_solve)
        key = bad.split(":")[0]
        good = {"frames": "frames: 20000", "seed": "seed: 7"}[key]
        path = tmp_path / "bad.yaml"
        path.write_text(SMALL_YAML.replace("policy_source: search", "policy_source: solve")
                        .replace(good, bad), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)] + flags) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,key,bad", [
        ("battery", "e_max", 1.5), ("battery", "e_max", "abc"), ("battery", "e_max", 0),
        ("actions", "step", 0.5), ("actions", "step", 0), ("actions", "step", True),
        ("actions", "max_power", 2.5), ("actions", "max_power", -1),
        ("partition", "n_subsets", 1.5), ("partition", "n_subsets", 0),
        ("search", "budget", "abc"), ("search", "budget", 1.5), ("search", "budget", 0),
        ("battery", "beta_nl", float("inf")), ("reward", "snr_scale", float("inf")),
        ("reward", "bandwidth", float("inf")), ("search", "budget", True),
        ("sweep", "e_max", [10.5]), ("sweep", "e_max", [20, 0]), ("sweep", "e_max", 20),
        ("sweep", "n_subsets", [1.5]), ("sweep", "n_subsets", [0]),
        ("sweep", "n_subsets", 2), ("sweep", "bands", "868MHz"),
        (None, "policy_source", "fixed"), (None, "fixed_actions", [1.5, 2.9]),
        (None, "fixed_actions", [2, -1]), (None, "fixed_actions", ["abc"]),
        (None, "fixed_actions", [True]), (None, "fixed_actions", 3),
        ("search", "budget", 10 ** 8 + 1), ("search", "budget", 10 ** 30),
        ("arrivals", "mean", "x"), ("arrivals", "b_max", "abc"), ("arrivals", "b_max", 2.5),
        ("arrivals", "pmf", ["a", "b"]), ("arrivals", "pmf", 0.5),
        ("battery", "beta_nl", "x"), ("battery", "slot_length", "x"),
        ("battery", "frame_length", True), ("battery", "values", ["x", 1]),
        ("reward", "snr_scale", "x"), ("actions", "values", [0, "x"]),
        ("actions", "values", [0, 2.5]), ("partition", "boundaries", [0, "x"]),
        ("battery", "quantum_joules", 0), ("battery", "quantum_joules", -1e-5),
        ("battery", "quantum_joules", float("inf")), ("battery", "frame_length", 0),
        ("battery", "frame_length", 0.001), ("battery", "slot_length", -0.005),
        ("battery", "slot_length", 1.0), ("battery", "slot_length", float("nan")),
        ("arrivals", "pmf", [float("nan"), 1.0]), ("arrivals", "pmf", [float("inf"), 1.0]),
        ("battery", "beta_nl", float("nan")), ("battery", "eta", float("-inf")),
        ("arrivals", "mean", float("nan")), ("reward", "noise_density", float("nan")),
        ("battery", "values", [0.5, float("inf")]),
        pytest.param("battery", "beta_nl", 10 ** 400, id="battery-beta_nl-huge_int"),
        pytest.param("reward", "snr_scale", 10 ** 400, id="reward-snr_scale-huge_int")])
    def test_bad_numeric_field_fails_before_searching(self, tmp_path, capsys, monkeypatch,
                                                      section, key, bad):
        # a section of None is a top-level field
        def no_solve(*args, **kwargs):
            raise AssertionError("a policy was solved")

        monkeypatch.setattr(harness, "solve_perfect_soc", no_solve)
        monkeypatch.setattr(harness, "search_partition_policy", no_solve)
        monkeypatch.setattr(harness, "refine_partition_search", no_solve)
        data = yaml.safe_load(SMALL_YAML)
        (data if section is None else data.setdefault(section, {}))[key] = bad
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["search", "--config", str(path), "--out", str(out)]) == 2
        assert (key if section is None else f"{section}.{key}") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "search"])
    @pytest.mark.parametrize("quantum", [0, -1e-5])
    def test_device_quantum_is_checked(self, tmp_path, capsys, command, quantum):
        # the device table divides by the quantum: 0 used to end in a bare
        # ZeroDivisionError, and -1e-5 to leave only the idle action
        data = yaml.safe_load(SMALL_YAML)
        data["battery"]["quantum_joules"] = quantum
        data["consumption"] = {"kind": "device", "band": "315MHz"}
        path = tmp_path / "device.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), *out_flags(command, out)]) == 2
        assert "battery.quantum_joules must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "search"])
    def test_device_quantum_above_every_level_is_refused(self, tmp_path, capsys, command):
        # at 1 J a quantum no 315MHz transmit level reaches one quantum, which
        # used to leave only the idle action: validate passed and search gave G=0
        data = yaml.safe_load(SMALL_YAML)
        data["battery"]["quantum_joules"] = 1.0
        data["consumption"] = {"kind": "device", "band": "315MHz"}
        path = tmp_path / "device.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), *out_flags(command, out)]) == 2
        err = capsys.readouterr().err
        assert "315MHz" in err and "battery.quantum_joules" in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "search", "simulate", "bound"])
    def test_failed_run_leaves_no_manifest(self, tmp_path, capsys, command):
        # the empty device table fails only when the models are built; the
        # manifest used to be written before that, and stayed behind alone
        data = yaml.safe_load(SMALL_YAML)
        data["battery"]["quantum_joules"] = 1.0
        data["consumption"] = {"kind": "device", "band": "315MHz"}
        path = tmp_path / "device.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "battery.quantum_joules" in capsys.readouterr().err
        assert not out.exists()

    def test_policy_sources_match_sweep_rows(self, small_config, tmp_path):
        assert set(harness.POLICY_MAKERS) == set(_POLICY_SOURCES)
        base = yaml.safe_load(SMALL_YAML)

        def run(command, name, **fields):
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump({**base, **fields}), encoding="utf-8")
            out = tmp_path / name
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            return out

        swept = _read_results(run("sweep", "sweep"))
        simulated = [_read_results(run("simulate", source, policy_source=source))[0]
                     for source in ("search", "solve", "lcp", "bp", "cross_apply")]
        assert ([(r["policy"], r["g_analytic"]) for r in simulated]
                == [(r["policy"], r["g_analytic"]) for r in swept])
        twins = {r["policy"]: r for r in swept}
        # fixed_actions of either length: the searched policy (one action per
        # subset) and the solved one (one per level) earn their sweep rows' gains
        for command, policy_csv, twin, n_subsets in (
                ("search", "policy_small_N2.csv", "optimal_partition_N2", "2"),
                ("solve", "policy_small_perfect_real.csv", "optimal_perfect", "")):
            with open(run(command, command) / policy_csv, newline="", encoding="utf-8") as fh:
                acts = [int(r["action"]) for r in csv.DictReader(fh)]
            out = run("simulate", f"fixed_{command}", policy_source="fixed",
                      fixed_actions=acts)
            row = _read_results(out)[0]
            assert (row["policy"], row["n_subsets"]) == ("fixed", n_subsets)
            assert row["g_analytic"] == twins[twin]["g_analytic"]
        # any other length fails when the config loads
        path = tmp_path / "fixed_bad.yaml"
        path.write_text(yaml.safe_dump({**base, "policy_source": "fixed",
                                        "fixed_actions": [0, 2, 4]}), encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "bad")]) == 2
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("fields,stray", [
        ({"fixed_actions": [0, 500]}, [500]),  # the actions are 0..10 in steps of 2
        ({"fixed_actions": [0, 3]}, [3]),
        ({"fixed_actions": [0, 3], "consumption": {"kind": "device", "band": "315MHz"}}, [3])])
    def test_fixed_actions_outside_the_action_set_fail_at_load(self, tmp_path, capsys,
                                                               fields, stray):
        # an action the scenario does not offer used to run silently with G=0, or
        # fail only after run_manifest.txt was written
        data = {**yaml.safe_load(SMALL_YAML), "policy_source": "fixed", **fields}
        path = tmp_path / "fixed.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert f"fixed_actions {stray}" in capsys.readouterr().err
        assert not out.exists()

    def test_search_honours_partition_boundaries(self, tmp_path):
        # with no sweep axis, search takes the config's partition as simulate
        # does; it used to search the uniform split whatever the boundaries said
        base = yaml.safe_load(SMALL_YAML)
        gains = set()
        for starts in ((0, 3), (0, 16)):
            path = tmp_path / f"from{starts[1]}.yaml"
            path.write_text(yaml.safe_dump({**base, "partition": {"boundaries": list(starts)}}),
                            encoding="utf-8")
            out = tmp_path / f"out{starts[1]}"
            assert main(["search", "--config", str(path), "--out", str(out)]) == 0
            m = build_models(ScenarioConfig.load(path))
            want = search_partition_policy(m.battery, m.arrivals, m.cons, m.reward, m.actions,
                                           Partition(e_max=20, starts=starts))
            (row,) = _read_results(out)
            assert row["g_analytic"] == f"{want.best_reward:.12g}"
            gains.add(row["g_analytic"])
        assert len(gains) == 2

    @pytest.mark.parametrize("budget,called", [
        (35, "two-stage"), (36, "exhaustive"), (37, "exhaustive")])
    def test_grid_over_the_budget_runs_in_two_stages(self, small_config, monkeypatch,
                                                     budget, called):
        # the small config's grid is 6 actions on 2 subsets, 36 candidates
        calls = []
        for name, route in (("refine_partition_search", "two-stage"),
                            ("search_partition_policy", "exhaustive")):
            monkeypatch.setattr(harness, name, lambda *a, route=route, **k: calls.append(route))
        cfg = ScenarioConfig.load(small_config)
        cfg.search.budget = budget
        models = build_models(cfg)
        harness._run_search(cfg, models, cfg.partition.build(models.battery.e_max))
        assert calls == [called]

    def test_search_over_the_budget_whose_stages_fit_it(self, tmp_path):
        # 21 actions on 2 subsets are 441 candidates, over a budget of 400; the
        # coarse stage scores 6^2 and the fine one at most 19^2
        data = yaml.safe_load(SMALL_YAML)
        data["actions"] = {"max_power": 20}
        data["search"] = {"budget": 400}
        path = tmp_path / "over.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["search", "--config", str(path), "--out", str(out)]) == 0
        m = build_models(ScenarioConfig.load(path))
        want = refine_partition_search(m.battery, m.arrivals, m.cons, m.reward, m.actions,
                                       Partition.uniform(20, 2), budget=400)
        (row,) = _read_results(out)
        assert row["g_analytic"] == f"{want.best_reward:.12g}"

    def test_cli_import_leaves_out_scipy_sparse(self, small_config, tmp_path):
        # the graph kernels are NumPy; importing scipy.sparse roughly doubles set-up
        src = Path(ehpolicy.__file__).resolve().parents[1]
        code = ("import sys, ehpolicy.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "[]"
        # a preset run needs none of scipy, PyYAML or hashlib (whose _hashlib
        # maps OpenSSL's libcrypto), and only simulate needs numpy.random: with
        # each blocked, so that importing it raises, it still runs and writes
        # the same CSVs as an unblocked run
        blocked = ("scipy", "yaml", "hashlib", "_hashlib", "numpy.random")
        run = ("import sys\n"
               f"for name in {blocked!r}: sys.modules[name] = None\n"
               "from ehpolicy.cli import main\n"
               "sys.exit(main(sys.argv[1:]))")
        for argv in (["search", "--preset", "fig3"], ["bound", "--preset", "baseline"],
                     ["solve", "--preset", "fig2"]):
            want, got = tmp_path / f"{argv[0]}_free", tmp_path / f"{argv[0]}_blocked"
            assert main([*argv, "--out", str(want)]) == 0
            done = subprocess.run([sys.executable, "-c", run, *argv, "--out", str(got)],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            names = sorted(p.name for p in want.glob("*.csv"))
            assert names == sorted(p.name for p in got.glob("*.csv")) and names
            assert _stable_rows(got) == _stable_rows(want)
            for name in set(names) - {"results.csv"}:
                assert ((got / name).read_text(encoding="utf-8")
                        == (want / name).read_text(encoding="utf-8"))
        # a config file needs PyYAML, but still neither scipy nor OpenSSL
        code = ("import sys\n"
                "from ehpolicy.cli import main\n"
                f"assert main(['search', '--config', {str(small_config)!r}, "
                f"'--out', {str(tmp_path / 'config')!r}]) == 0\n"
                f"print(sorted(m for m in {blocked!r} if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.splitlines()[-1] == "['yaml']"

    def test_preset_runs_without_config_file(self, tmp_path):
        out = tmp_path / "out"
        assert main(["bound", "--preset", "baseline", "--out", str(out)]) == 0
        assert (out / "bound_baseline.csv").exists()
