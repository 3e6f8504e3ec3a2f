"""Experiment runners: build models from a scenario config, compute policies,
and emit machine-readable CSV results plus a run manifest."""

from __future__ import annotations

import csv
import hashlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .chain import Partition, PartitionPolicy, StatePolicy, evaluate_policy, simulate
from .config import ScenarioConfig
from .core import validate_recharge_hypothesis
from .errors import EHPolicyError
from .optimize import (
    derive_bp,
    derive_lcp,
    refine_partition_search,
    search_partition_policy,
    solve_perfect_soc,
    upper_bound,
)

RESULT_COLUMNS = (
    "scenario", "band", "e_max", "n_subsets", "policy",
    "g_analytic", "g_simulated", "std_error",
    "g_upper_bound", "g_ideal_bound", "wall_time_s", "error",
)


@dataclass
class ResultRow:
    scenario: str
    policy: str
    e_max: int
    n_subsets: int | None = None
    band: str = ""
    g_analytic: float | None = None
    g_simulated: float | None = None
    std_error: float | None = None
    g_upper_bound: float | None = None
    g_ideal_bound: float | None = None
    wall_time_s: float | None = None
    error: str = ""

    def as_record(self) -> dict:
        def num(x):
            return "" if x is None else f"{x:.12g}"

        return {
            "scenario": self.scenario,
            "band": self.band,
            "e_max": str(self.e_max),
            "n_subsets": "" if self.n_subsets is None else str(self.n_subsets),
            "policy": self.policy,
            "g_analytic": num(self.g_analytic),
            "g_simulated": num(self.g_simulated),
            "std_error": num(self.std_error),
            "g_upper_bound": num(self.g_upper_bound),
            "g_ideal_bound": num(self.g_ideal_bound),
            "wall_time_s": "" if self.wall_time_s is None else f"{self.wall_time_s:.3f}",
            "error": self.error,
        }


def write_results(rows, out_dir, name: str = "results.csv") -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row.as_record())
    return path


def write_policy_file(path, entries) -> Path:
    """Policy CSV: one row per state or subset with its action and consumption."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "action", "consumption"])
        for idx, action, cons in entries:
            writer.writerow([idx, action, cons])
    return path


def write_manifest(cfg: ScenarioConfig, out_dir, command: str) -> Path:
    import numpy
    import scipy

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(cfg.to_yaml().encode("utf-8")).hexdigest()
    lines = [
        f"command: {command}",
        f"scenario: {cfg.scenario}",
        f"config_sha256: {digest}",
        f"seed: {cfg.seed}",
        f"ehpolicy_version: {__version__}",
        f"python_version: {sys.version.split()[0]}",
        f"numpy_version: {numpy.__version__}",
        f"scipy_version: {scipy.__version__}",
    ]
    path = out_dir / "run_manifest.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------

@dataclass
class BuiltScenario:
    battery: object
    arrivals: object
    cons: object
    reward: object
    actions: object


def build_models(cfg: ScenarioConfig, e_max: int | None = None,
                 band: str | None = None, ideal: bool = False) -> BuiltScenario:
    battery = cfg.battery.build(e_max=e_max, ideal=ideal)
    arrivals = cfg.arrivals.build()
    cons = cfg.consumption.build(cfg.battery, band=band)
    reward = cfg.reward.build(cfg.battery)
    actions = cfg.actions.build(battery.e_max, cons)
    return BuiltScenario(battery, arrivals, cons, reward, actions)


def _run_search(cfg: ScenarioConfig, models: BuiltScenario, partition: Partition):
    use_refine = (cfg.search.refine_above is not None
                  and partition.n_subsets > cfg.search.refine_above)
    if use_refine:
        return refine_partition_search(
            models.battery, models.arrivals, models.cons, models.reward,
            models.actions, partition,
            coarse_step=cfg.search.coarse_step, budget=cfg.search.budget)
    return search_partition_policy(
        models.battery, models.arrivals, models.cons, models.reward,
        models.actions, partition, budget=cfg.search.budget)


def resolve_policy(cfg: ScenarioConfig, models: BuiltScenario,
                   partition: Partition):
    """Build the policy requested by ``policy_source``; returns (name, policy)."""
    source = cfg.policy_source
    if source == "solve":
        return "optimal_perfect", solve_perfect_soc(
            models.battery, models.arrivals, models.cons, models.reward, models.actions)
    if source == "search":
        return f"optimal_partition_N{partition.n_subsets}", _run_search(
            cfg, models, partition).best_policy
    if source == "lcp":
        perfect = solve_perfect_soc(
            models.battery, models.arrivals, models.cons, models.reward, models.actions)
        return "low_complexity", derive_lcp(perfect, models.cons, partition, models.actions)
    if source == "bp":
        bound = upper_bound(models.battery, models.arrivals, models.reward)
        return "balanced", derive_bp(partition, bound, models.actions, models.cons)
    if source == "cross_apply":
        ideal_cfg_models = build_models(cfg, e_max=models.battery.e_max,
                                        band=None, ideal=True)
        ideal_cfg_models = BuiltScenario(
            ideal_cfg_models.battery, models.arrivals, models.cons,
            models.reward, models.actions)
        result = _run_search(cfg, ideal_cfg_models, partition)
        return "ideal_policy_crossapplied", result.best_policy
    if source == "fixed":
        if cfg.fixed_actions is None:
            raise EHPolicyError("policy_source=fixed requires fixed_actions")
        acts = tuple(int(a) for a in cfg.fixed_actions)
        if len(acts) == partition.n_subsets:
            return "fixed", PartitionPolicy(partition=partition, actions=acts)
        if len(acts) == models.battery.e_max + 1:
            return "fixed", StatePolicy(actions=acts)
        raise EHPolicyError(
            "fixed_actions length must match the partition or the state space")
    raise EHPolicyError(f"unknown policy_source {source!r}")


def _policy_entries(policy, cons, e_max):
    if isinstance(policy, StatePolicy):
        return [(e, a, cons.consumption(a)) for e, a in enumerate(policy.actions)]
    return [(i, a, cons.consumption(a)) for i, a in enumerate(policy.actions)]


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------

def run_solve(cfg: ScenarioConfig, out_dir) -> list:
    rows = []
    variants = [("real", False)] + ([("ideal", True)] if cfg.include_ideal else [])
    for tag, ideal in variants:
        t0 = time.perf_counter()
        models = build_models(cfg, ideal=ideal)
        policy = solve_perfect_soc(
            models.battery, models.arrivals, models.cons, models.reward, models.actions)
        analysis = evaluate_policy(
            models.battery, models.arrivals, models.cons, models.reward, policy)
        bound = upper_bound(models.battery, models.arrivals, models.reward)
        write_policy_file(
            Path(out_dir) / f"policy_{cfg.scenario}_perfect_{tag}.csv",
            _policy_entries(policy, models.cons, models.battery.e_max))
        rows.append(ResultRow(
            scenario=cfg.scenario,
            policy=f"optimal_perfect_{tag}",
            e_max=models.battery.e_max,
            n_subsets=models.battery.e_max + 1,
            g_analytic=analysis.long_run_reward,
            g_upper_bound=bound.g_ub,
            g_ideal_bound=bound.g_ideal,
            wall_time_s=time.perf_counter() - t0,
        ))
    write_results(rows, out_dir)
    return rows


def run_search(cfg: ScenarioConfig, out_dir) -> list:
    rows = []
    n_list = cfg.sweep.n_subsets or [cfg.partition.n_subsets]
    models = build_models(cfg)
    bound = upper_bound(models.battery, models.arrivals, models.reward)
    for n in n_list:
        t0 = time.perf_counter()
        partition = cfg.partition.build(models.battery.e_max, n_subsets=n)
        result = _run_search(cfg, models, partition)
        write_policy_file(
            Path(out_dir) / f"policy_{cfg.scenario}_N{n}.csv",
            _policy_entries(result.best_policy, models.cons, models.battery.e_max))
        rows.append(ResultRow(
            scenario=cfg.scenario,
            policy=f"optimal_partition_N{n}",
            e_max=models.battery.e_max,
            n_subsets=n,
            g_analytic=result.best_reward,
            g_upper_bound=bound.g_ub,
            g_ideal_bound=bound.g_ideal,
            wall_time_s=time.perf_counter() - t0,
        ))
    write_results(rows, out_dir)
    return rows


def _sweep_point(args):
    cfg, e_max, band = args
    rows = []
    try:
        models = build_models(cfg, e_max=e_max, band=band)
        partition = cfg.partition.build(models.battery.e_max)
        bound = upper_bound(models.battery, models.arrivals, models.reward)
    except EHPolicyError as exc:
        return [ResultRow(scenario=cfg.scenario, policy="(setup)", e_max=e_max,
                          band=band or "", error=str(exc))]

    def evaluate(name, maker):
        t0 = time.perf_counter()
        try:
            policy = maker()
            analysis = evaluate_policy(
                models.battery, models.arrivals, models.cons, models.reward, policy)
            return ResultRow(
                scenario=cfg.scenario, policy=name, band=band or "",
                e_max=models.battery.e_max, n_subsets=partition.n_subsets,
                g_analytic=analysis.long_run_reward,
                g_upper_bound=bound.g_ub, g_ideal_bound=bound.g_ideal,
                wall_time_s=time.perf_counter() - t0)
        except EHPolicyError as exc:
            return ResultRow(
                scenario=cfg.scenario, policy=name, band=band or "",
                e_max=models.battery.e_max, n_subsets=partition.n_subsets,
                g_upper_bound=bound.g_ub, g_ideal_bound=bound.g_ideal,
                wall_time_s=time.perf_counter() - t0, error=str(exc))

    solved = []  # one solve serves optimal_perfect and low_complexity

    def perfect():
        if not solved:
            solved.append(solve_perfect_soc(
                models.battery, models.arrivals, models.cons, models.reward, models.actions))
        return solved[0]

    def searched():
        return _run_search(cfg, models, partition).best_policy

    def low_complexity():
        return derive_lcp(perfect(), models.cons, partition, models.actions)

    def balanced():
        return derive_bp(partition, bound, models.actions, models.cons)

    def cross_applied():
        ideal = build_models(cfg, e_max=e_max, band=band, ideal=True)
        return _run_search(cfg, ideal, partition).best_policy

    rows.append(evaluate(f"optimal_partition_N{partition.n_subsets}", searched))
    rows.append(evaluate("optimal_perfect", perfect))
    rows.append(evaluate("low_complexity", low_complexity))
    rows.append(evaluate("balanced", balanced))
    rows.append(evaluate("ideal_policy_crossapplied", cross_applied))
    return rows


def run_sweep(cfg: ScenarioConfig, out_dir, threads: int = 1) -> list:
    import os

    limit = os.cpu_count() or 1
    if not 1 <= threads <= limit:
        raise EHPolicyError(f"--threads counts worker processes, 1 to {limit}; got {threads}")
    e_values = cfg.sweep.e_max or [cfg.battery.e_max]
    bands = cfg.sweep.bands or [cfg.consumption.band]
    points = [(cfg, e, band) for band in bands for e in e_values]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_sweep_point, points))
    else:
        results = [_sweep_point(p) for p in points]
    rows = [row for point_rows in results for row in point_rows]
    write_results(rows, out_dir)
    return rows


def run_simulate(cfg: ScenarioConfig, out_dir) -> list:
    t0 = time.perf_counter()
    models = build_models(cfg)
    partition = cfg.partition.build(models.battery.e_max)
    name, policy = resolve_policy(cfg, models, partition)
    analysis = evaluate_policy(
        models.battery, models.arrivals, models.cons, models.reward, policy)
    report = simulate(
        models.battery, models.arrivals, models.cons, models.reward, policy,
        frames=cfg.frames, seed=cfg.seed)
    bound = upper_bound(models.battery, models.arrivals, models.reward)
    rows = [ResultRow(
        scenario=cfg.scenario, policy=name,
        e_max=models.battery.e_max,
        n_subsets=partition.n_subsets if isinstance(policy, PartitionPolicy) else None,
        g_analytic=analysis.long_run_reward,
        g_simulated=report.empirical_reward,
        std_error=report.std_error,
        g_upper_bound=bound.g_ub,
        g_ideal_bound=bound.g_ideal,
        wall_time_s=time.perf_counter() - t0,
    )]
    write_results(rows, out_dir)
    return rows


def run_bound(cfg: ScenarioConfig, out_dir) -> list:
    t0 = time.perf_counter()
    models = build_models(cfg)
    bound = upper_bound(models.battery, models.arrivals, models.reward)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"bound_{cfg.scenario}.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["arrival_quanta", "best_start_level", "max_stored_quanta"])
        for b, (a_star, beta) in enumerate(zip(bound.a_star_table, bound.beta_star_table)):
            writer.writerow([b, f"{a_star:.12g}", f"{beta:.12g}"])
    rows = [ResultRow(
        scenario=cfg.scenario, policy="upper_bound",
        e_max=models.battery.e_max,
        g_analytic=bound.g_ub,
        g_upper_bound=bound.g_ub,
        g_ideal_bound=bound.g_ideal,
        wall_time_s=time.perf_counter() - t0,
    )]
    write_results(rows, out_dir)
    return rows


def run_validate(cfg: ScenarioConfig):
    """Config sanity plus the recharge-hypothesis check; returns (ok, messages)."""
    messages = []
    try:
        models = build_models(cfg)
    except EHPolicyError as exc:
        return False, [f"config error: {exc}"]
    ok, violators = validate_recharge_hypothesis(models.battery, models.arrivals)
    if ok:
        messages.append("recharge hypothesis holds: every non-full state stores "
                        "at least one quantum at maximal arrivals")
    else:
        messages.append(f"recharge hypothesis VIOLATED at states {violators[:20]}"
                        + (" ..." if len(violators) > 20 else ""))
    messages.append(f"action set size: {len(models.actions)}")
    messages.append(f"arrival mean: {models.arrivals.mean_b:.6g} "
                    f"(b_max {models.arrivals.b_max})")
    return ok, messages
