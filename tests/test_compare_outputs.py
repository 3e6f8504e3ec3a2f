"""``tools/compare_outputs.py``'s reading and diffing of two output trees, the
identity check that every output-preserving change is verified with."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

RESULTS = ("policy,G,wall_time_s\n"
           "optimal_partition_N2,0.160159105424,0.071\n"
           "balanced,0.151911015074,0.002\n")
MANIFEST = "preset: fig3\nseed: 1\n"


def output_tree(root: Path, results=RESULTS, manifest=MANIFEST) -> Path:
    """A run's output directory under ``root``: results.csv and run_manifest.txt."""
    run = root / "search_--preset_fig3_seed1"
    run.mkdir(parents=True)
    (run / "results.csv").write_text(results, encoding="utf-8")
    (run / "run_manifest.txt").write_text(manifest, encoding="utf-8")
    return root


@pytest.fixture
def want(tmp_path):
    return output_tree(tmp_path / "rev")


def test_read_csv_drops_the_wall_time_column(want):
    rows = compare_outputs.read_csv(want / "search_--preset_fig3_seed1" / "results.csv")
    assert rows == [["policy", "G"], ["optimal_partition_N2", "0.160159105424"],
                    ["balanced", "0.151911015074"]]


def test_wall_time_is_ignored(tmp_path, want):
    got = output_tree(tmp_path / "tree", RESULTS.replace("0.071", "9.5"))
    assert compare_outputs.differences(want, got) == []


def test_changed_cell_is_reported_with_its_row(tmp_path, want):
    got = output_tree(tmp_path / "tree", RESULTS.replace("0.151911015074", "0.151911015075"))
    found = compare_outputs.differences(want, got)
    assert len(found) == 1
    assert found[0].startswith("search_--preset_fig3_seed1/results.csv row 2: ")
    assert "0.151911015074" in found[0] and "0.151911015075" in found[0]


def test_missing_row_is_reported(tmp_path, want):
    got = output_tree(tmp_path / "tree", RESULTS.rsplit("balanced", 1)[0])
    assert compare_outputs.differences(want, got) == [
        "search_--preset_fig3_seed1/results.csv: 3 rows against 2"]


@pytest.mark.parametrize("side", ["rev", "tree"])
def test_file_on_one_side_only_is_reported(tmp_path, want, side):
    got = output_tree(tmp_path / "tree")
    extra = (want if side == "rev" else got) / "search_--preset_fig3_seed1" / "table.csv"
    extra.write_text("a,b\n1,2\n", encoding="utf-8")
    where = "the revision" if side == "rev" else "this tree"
    assert compare_outputs.differences(want, got) == [
        f"search_--preset_fig3_seed1/table.csv: only in {where}"]


def test_changed_manifest_is_reported(tmp_path, want):
    got = output_tree(tmp_path / "tree", manifest=MANIFEST.replace("seed: 1", "seed: 3"))
    assert compare_outputs.differences(want, got) == [
        "search_--preset_fig3_seed1/run_manifest.txt line 2: 'seed: 1\\n' -> 'seed: 3\\n'"]


def test_changed_line_end_is_reported(tmp_path, want):
    got = output_tree(tmp_path / "tree", manifest=MANIFEST.rstrip("\n"))
    assert compare_outputs.differences(want, got) == [
        "search_--preset_fig3_seed1/run_manifest.txt line 2: 'seed: 1\\n' -> 'seed: 1'"]


@pytest.mark.parametrize("side", ["rev", "tree"])
def test_missing_manifest_line_is_reported(tmp_path, side):
    short = MANIFEST.replace("seed: 1\n", "")
    want = output_tree(tmp_path / "rev", manifest=short if side == "rev" else MANIFEST)
    got = output_tree(tmp_path / "tree", manifest=short if side == "tree" else MANIFEST)
    shown = "missing -> 'seed: 1\\n'" if side == "rev" else "'seed: 1\\n' -> missing"
    assert compare_outputs.differences(want, got) == [
        f"search_--preset_fig3_seed1/run_manifest.txt line 2: {shown}"]
