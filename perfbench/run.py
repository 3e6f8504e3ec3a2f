"""Benchmark of the ehpolicy pipeline, end to end and per module.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload partition-search --seed 1 --seconds 55 --trace 0

Each repetition is one ``ehpolicy`` command line run through
``ehpolicy.cli.main`` in a fresh single-threaded interpreter
(``child.py``). ``--trace 0`` repeats the workload while the next
repetition fits in ``--seconds`` and reports the medians of set-up time,
wall time, CPU time and peak RSS. ``--trace 1`` runs one untraced and one
traced repetition, prints the tracing overhead and reports per-module
metrics from the spans. Every repetition's outputs are checked against the
oracles (``checks.py``) after timing. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in children

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_SAMPLES = 5          # set-up-only interpreters per untraced run
CHILD_TIMEOUT_S = 150

# name: (ehpolicy command line, output check). BENCHMARK.json lists
# partition-search and large-battery; device-sweep runs by name only, since
# its 20 s repetitions leave too few per run for a steady median.
WORKLOADS = {
    "partition-search": (["search", "--preset", "fig3"], checks.check_partition_search),
    "device-sweep": (["sweep", "--preset", "fig5", "--threads", "1"],
                     checks.check_device_sweep),
    "large-battery": (["simulate", "--config", str(BENCH / "large_battery.yaml")],
                      checks.check_large_battery),
}



class ChildFailed(RuntimeError):
    pass


def run_child(work, tag, cli_args, setup_only=False, trace=False):
    """Run one fresh interpreter; returns its result with ``setup_s`` added."""
    result_path = work / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
           "--result", str(result_path)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    cmd += ["--", *cli_args]
    with open(work / f"{tag}.log", "w", encoding="utf-8") as log:
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=work, stdout=log, stderr=subprocess.STDOUT,
                              timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / f"{tag}.log").read_text(encoding="utf-8")[-2000:]
        raise ChildFailed(f"{tag} exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - start
    if not setup_only and result["exit_code"] != 0:
        raise ChildFailed(f"{tag}: ehpolicy exited with {result['exit_code']}")
    return result


def layer_metrics(result):
    """Per-module metrics from one traced repetition's spans."""
    spans = result["spans"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own, calls, attrs = {}, {}, {}
    for (name, _, start, end, attributes), inner in zip(spans, child_time):
        own[name] = own.get(name, 0.0) + (end - start - inner)
        calls[name] = calls.get(name, 0) + 1
        attrs.setdefault(name, []).append(attributes)

    def total(name, key):
        return sum(a.get(key, 0) for a in attrs.get(name, []))

    def per_second(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    bound_calls = calls.get("optimize.upper_bound", 0)
    distinct = len({a["model"] for a in attrs.get("optimize.upper_bound", [])})
    candidates = total("optimize.search", "candidates")
    frames = total("chain.simulate", "frames")
    return {
        "core.next_state_table.s": own.get("core.next_state_table", 0.0),
        "core.next_state_table.builds": result["builds"]["core.next_state_table"],
        "chain.charge_matrix.s": own.get("chain.charge_matrix", 0.0),
        "chain.charge_matrix.builds": result["builds"]["chain.charge_matrix"],
        "chain.evaluate_policy.s": own.get("chain.evaluate_policy", 0.0),
        "chain.evaluate_policy.calls": calls.get("chain.evaluate_policy", 0),
        "chain.reducible_route.calls": result["counts"]["chain.reducible_route"],
        "chain.simulate.s": own.get("chain.simulate", 0.0),
        "chain.simulate.frames_per_s": per_second(frames, own.get("chain.simulate", 0.0)),
        "optimize.search.s": own.get("optimize.search", 0.0),
        "optimize.search.candidates": candidates,
        "optimize.search.candidates_per_s": per_second(
            candidates, own.get("optimize.search", 0.0)),
        "optimize.solve_perfect_soc.s": own.get("optimize.solve_perfect_soc", 0.0),
        "optimize.solve_perfect_soc.calls": calls.get("optimize.solve_perfect_soc", 0),
        "optimize.upper_bound.s": own.get("optimize.upper_bound", 0.0),
        "optimize.upper_bound.calls": bound_calls,
        "optimize.upper_bound.distinct_ratio": distinct / bound_calls if bound_calls else 0.0,
        "harness.self.s": own.get("harness", 0.0),
        "harness.rows": total("harness", "rows"),
    }


def load_config(cli_args):
    sys.path.insert(0, str(SRC))
    from ehpolicy.config import ScenarioConfig
    from ehpolicy.presets import get_preset

    if "--preset" in cli_args:
        return get_preset(cli_args[cli_args.index("--preset") + 1])
    return ScenarioConfig.load(cli_args[cli_args.index("--config") + 1])


def measure(work, workload, seed, seconds, trace):
    """Run the repetitions; returns (output directories, metric values)."""
    base, _ = WORKLOADS[workload]

    def cli_args(tag):
        return [*base, "--out", str(work / tag), "--seed", str(seed)]

    run_child(work, "warmup", cli_args("warmup"), setup_only=True)  # untimed: bytecode, file cache
    if trace:
        plain = run_child(work, "untraced", cli_args("untraced"))
        traced = run_child(work, "traced", cli_args("traced"), trace=True)
        print(f"tracing overhead on {workload}: "
              f"{traced['wall_s'] - plain['wall_s']:+.3f} s wall "
              f"(traced {traced['wall_s']:.3f} s, untraced {plain['wall_s']:.3f} s)")
        return [work / "untraced", work / "traced"], layer_metrics(traced)

    setups = [run_child(work, f"setup{i}", cli_args(f"setup{i}"), setup_only=True)["setup_s"]
              for i in range(SETUP_SAMPLES)]
    reps, longest, spent = [], 0.0, 0.0
    while not reps or spent + longest <= seconds:
        started = time.monotonic()
        reps.append(run_child(work, f"rep{len(reps)}", cli_args(f"rep{len(reps)}")))
        took = time.monotonic() - started
        spent += took
        longest = max(longest, took)
    setups += [rep["setup_s"] for rep in reps]
    print(f"{workload}: {len(reps)} repetitions in {spent:.1f} s; wall_s "
          + " ".join(f"{r['wall_s']:.3f}" for r in reps)
          + "; setup_s " + " ".join(f"{s:.3f}" for s in setups))
    medians = {"setup_s": statistics.median(setups)}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        medians[name] = statistics.median(rep[name] for rep in reps)
    return [work / f"rep{i}" for i in range(len(reps))], medians


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ehpolicy" / "__init__.py").is_file():
        print(f"error: no ehpolicy sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        try:
            dirs, values = measure(work, args.workload, args.seed, args.seconds,
                                   bool(args.trace))
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        base, check = WORKLOADS[args.workload]
        attempted, failed, problems = check(load_config(base), dirs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
