"""Run the CLI's reference commands on this tree and on a git revision, and
diff their outputs.

    python tools/compare_outputs.py <rev>

<rev> is unpacked with `git archive <rev> | tar -x` into a temporary
directory, so nothing is written under `.git`. Each command below
runs on both trees at seeds 1 and 3, `sweep` with `--threads 1`, and
`validate` runs once on each preset, each in a fresh interpreter with
BLAS, OpenMP and MKL on one thread. Every file the commands write is
compared, and so is what `validate` prints, with its exit code, since it
writes no file; the `wall_time_s` column is ignored. The script prints
each run's peak RSS and wall time on both trees, then each difference (a
CSV row, or a line of any other file), and exits 1 if there is any, 0 if
the outputs are identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
import time
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 3)
COMMANDS = (
    ("solve", "--preset", "fig2"),
    ("solve", "--config", "perfbench/large_battery.yaml"),
    ("search", "--preset", "fig3"),
    ("sweep", "--preset", "fig4"),
    ("sweep", "--preset", "fig5"),
    ("bound", "--preset", "baseline"),
    ("simulate", "--preset", "baseline"),
    ("simulate", "--config", "perfbench/large_battery.yaml"),
)
VALIDATED_PRESETS = ("baseline", "fig2", "fig3", "fig4", "fig5")
IGNORED_COLUMNS = {"wall_time_s"}
ONE_THREAD = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _run(argv, tree: Path, env: dict):
    """Run ``argv`` in ``tree``; returns its exit code, standard output and
    standard error, peak RSS in MiB and wall time in seconds."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        child = subprocess.Popen(argv, cwd=tree, env=env, stdout=out, stderr=err)
        # wait4 reaps the child and returns the resource usage of that child alone
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
        out.seek(0)
        err.seek(0)
        # ru_maxrss is in KiB on Linux
        return (os.waitstatus_to_exitcode(status), out.read().decode(),
                err.read().decode(errors="replace"), usage.ru_maxrss / 1024, wall)


def run_all(tree: Path, out: Path) -> dict:
    """Run every command at every seed, and `validate` on every preset, on
    ``tree``, each into its own directory of ``out``; returns each run's peak
    RSS in MiB and wall time in seconds, keyed by that directory's name."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    cli = [sys.executable, "-m", "ehpolicy.cli"]
    usages = {}
    for command in COMMANDS:
        for seed in SEEDS:
            name = f"{'_'.join(command).replace('/', '_')}_seed{seed}"
            argv = [*cli, *command, "--out", str(out / name), "--seed", str(seed)]
            argv += ["--threads", "1"] if command[0] == "sweep" else []
            code, _, err, peak, wall = _run(argv, tree, env)
            if code:
                raise SystemExit(f"{' '.join(argv)} failed in {tree}:\n{err}")
            usages[name] = (peak, wall)
    for preset in VALIDATED_PRESETS:
        name = f"validate_{preset}"
        code, stdout, stderr, peak, wall = _run(
            [*cli, "validate", "--preset", preset], tree, env)
        (out / name).mkdir(parents=True)
        (out / name / "validate.txt").write_text(f"exit code: {code}\n{stdout}{stderr}",
                                                 encoding="utf-8")
        usages[name] = (peak, wall)
    return usages


def read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return rows
    keep = [i for i, name in enumerate(rows[0]) if name not in IGNORED_COLUMNS]
    return [[row[i] for i in keep] for row in rows]


def _shown(line) -> str:
    """A line of a text output as a difference shows it; None if the file ended."""
    return "missing" if line is None else repr(line)


def differences(want: Path, got: Path) -> list:
    """One line per file, CSV row or line of other text that differs between
    two output trees; text lines are counted from 1."""
    names = {p.relative_to(want) for p in want.rglob("*") if p.is_file()}
    names |= {p.relative_to(got) for p in got.rglob("*") if p.is_file()}
    found = []
    for name in sorted(names):
        a, b = want / name, got / name
        if not (a.exists() and b.exists()):
            found.append(f"{name}: only in {'the revision' if a.exists() else 'this tree'}")
        elif name.suffix == ".csv":
            rows_a, rows_b = read_csv(a), read_csv(b)
            if len(rows_a) != len(rows_b):
                found.append(f"{name}: {len(rows_a)} rows against {len(rows_b)}")
            for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
                if row_a != row_b:
                    found.append(f"{name} row {i}: {row_a} -> {row_b}")
        else:
            # with their line ends, so that a changed or missing end also shows
            lines = zip_longest(a.read_text(encoding="utf-8").splitlines(keepends=True),
                                b.read_text(encoding="utf-8").splitlines(keepends=True))
            for i, (line_a, line_b) in enumerate(lines, 1):
                if line_a != line_b:
                    found.append(f"{name} line {i}: {_shown(line_a)} -> {_shown(line_b)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff the CLI outputs of this tree against those of a git revision.")
    parser.add_argument("rev", help="git revision to compare this tree against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as scratch:
        out = Path(scratch)
        checkout = out / "checkout"
        checkout.mkdir()
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", args.rev],
                                   stdout=subprocess.PIPE)
        unpacked = subprocess.run(["tar", "-x", "-C", str(checkout)], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() or unpacked.returncode:
            raise SystemExit(f"could not unpack {args.rev}")
        usage_rev = run_all(checkout, out / "rev")
        usage_tree = run_all(ROOT, out / "tree")
        found = differences(out / "rev", out / "tree")
    print(f"peak RSS and wall time: {args.rev} -> this tree")
    for name, (peak, wall) in usage_rev.items():
        peak_tree, wall_tree = usage_tree[name]
        print(f"  {name}: {peak:.1f} -> {peak_tree:.1f} MiB, {wall:.2f} -> {wall_tree:.2f} s")
    for line in found:
        print(line)
    runs = len(COMMANDS) * len(SEEDS) + len(VALIDATED_PRESETS)
    print(f"{len(found)} differences over {runs} runs against {args.rev}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
