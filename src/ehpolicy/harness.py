"""Experiment runners: build models from a scenario config, compute policies,
and emit machine-readable CSV results plus a run manifest."""

from __future__ import annotations

import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy

try:
    # CPython's own SHA-256; hashlib would map OpenSSL's libcrypto, about 4 MiB
    from _sha256 import sha256
except ImportError:  # Python 3.12+ has no _sha256 module
    from hashlib import sha256

from . import __version__
from .chain import Partition, PartitionPolicy, StatePolicy, evaluate_policy, simulate
from .config import ScenarioConfig
from .core import validate_recharge_hypothesis
from .errors import EHPolicyError
from .optimize import (
    BoundReport,
    derive_bp,
    derive_lcp,
    refine_partition_search,
    search_partition_policy,
    solve_perfect_soc,
    upper_bound,
)

@dataclass(kw_only=True)
class ResultRow:
    """One row of ``results.csv``; its fields, in order, are the columns."""
    scenario: str
    band: str = ""
    e_max: int
    n_subsets: int | None = None
    policy: str
    g_analytic: float | None = None
    g_simulated: float | None = None
    std_error: float | None = None
    g_upper_bound: float | None = None
    g_ideal_bound: float | None = None
    wall_time_s: float | None = None
    error: str = ""

    def as_record(self) -> dict:
        def cell(name, x):
            if x is None:
                return ""
            if name == "wall_time_s":
                return f"{x:.3f}"
            return f"{x:.12g}" if isinstance(x, float) else str(x)

        return {f.name: cell(f.name, getattr(self, f.name)) for f in fields(self)}


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _write_csv(path, header, rows) -> Path:
    """Write ``header`` and then ``rows``, each a sequence of cells, to a CSV at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_results(rows, out_dir, name: str = "results.csv") -> Path:
    return _write_csv(Path(out_dir) / name, RESULT_COLUMNS,
                      (row.as_record().values() for row in rows))


def write_policy_file(path, policy, cons) -> Path:
    """Policy CSV: one row per state or subset with its action and consumption."""
    return _write_csv(path, ["index", "action", "consumption"],
                      ([idx, action, cons.consumption(action)]
                       for idx, action in enumerate(policy.actions)))


def write_manifest(cfg: ScenarioConfig, out_dir, command: str) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the resolved config, any --seed override included
    digest = sha256(json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")).hexdigest()
    lines = [
        f"command: {command}",
        f"scenario: {cfg.scenario}",
        f"config_sha256: {digest}",
        f"seed: {cfg.seed}",
        f"ehpolicy_version: {__version__}",
        f"python_version: {sys.version.split()[0]}",
        f"numpy_version: {numpy.__version__}",
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
    """The exhaustive search, or the two-stage one if its |A|^N candidates
    exceed ``search.budget``."""
    m, budget = models, cfg.search.budget
    args = (m.battery, m.arrivals, m.cons, m.reward, m.actions, partition)
    if len(m.actions) ** partition.n_subsets > budget:
        return refine_partition_search(*args, budget=budget)
    return search_partition_policy(*args, budget=budget)


@dataclass
class _Point:
    """One scenario point: the models, bound and partition its policies and rows share."""
    cfg: ScenarioConfig
    models: BuiltScenario
    partition: Partition | None = None
    band: str | None = None
    perfect: StatePolicy | None = field(default=None, init=False)  # serves solve and lcp
    bound: BoundReport = field(init=False)

    def __post_init__(self):
        m = self.models
        self.bound = upper_bound(m.battery, m.arrivals, m.reward)

    def row(self, policy: str, t0: float, **values) -> ResultRow:
        """The result row of ``policy`` at this point, timed from ``t0``."""
        return ResultRow(
            scenario=self.cfg.scenario, policy=policy, band=self.band or "",
            e_max=self.models.battery.e_max,
            g_upper_bound=self.bound.g_ub, g_ideal_bound=self.bound.g_ideal,
            wall_time_s=time.perf_counter() - t0, **values)

    def evaluate(self, policy) -> float:
        m = self.models
        return evaluate_policy(m.battery, m.arrivals, m.cons, m.reward, policy)


def _perfect(point: _Point) -> StatePolicy:
    if point.perfect is None:
        m = point.models
        point.perfect = solve_perfect_soc(m.battery, m.arrivals, m.cons, m.reward, m.actions)
    return point.perfect


def _searched(point: _Point) -> PartitionPolicy:
    return _run_search(point.cfg, point.models, point.partition).best_policy


def _low_complexity(point: _Point) -> PartitionPolicy:
    return derive_lcp(_perfect(point), point.models.cons, point.partition,
                      point.models.actions)


def _balanced(point: _Point) -> PartitionPolicy:
    return derive_bp(point.partition, point.bound, point.models.actions, point.models.cons)


def _cross_applied(point: _Point) -> PartitionPolicy:
    """The policy searched on a lossless battery, to be applied to the real one."""
    ideal = build_models(point.cfg, point.models.battery.e_max, point.band, ideal=True)
    return _run_search(point.cfg, ideal, point.partition).best_policy


def _fixed(point: _Point):
    acts = tuple(point.cfg.fixed_actions)
    if len(acts) == point.partition.n_subsets:
        return PartitionPolicy(partition=point.partition, actions=acts)
    return StatePolicy(actions=acts)  # one per level, as the config checks


# policy_source -> (row name, maker); {n} is the partition's subset count
POLICY_MAKERS = {
    "search": ("optimal_partition_N{n}", _searched),
    "solve": ("optimal_perfect", _perfect),
    "lcp": ("low_complexity", _low_complexity),
    "bp": ("balanced", _balanced),
    "cross_apply": ("ideal_policy_crossapplied", _cross_applied),
    "fixed": ("fixed", _fixed),
}
SWEPT_SOURCES = ("search", "solve", "lcp", "bp", "cross_apply")  # in row order


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------

def run_solve(cfg: ScenarioConfig, out_dir) -> list:
    rows = []
    variants = [("real", False)] + ([("ideal", True)] if cfg.include_ideal else [])
    for tag, ideal in variants:
        t0 = time.perf_counter()
        models = build_models(cfg, ideal=ideal)
        point = _Point(cfg, models)
        policy = _perfect(point)
        write_policy_file(Path(out_dir) / f"policy_{cfg.scenario}_perfect_{tag}.csv",
                          policy, models.cons)
        rows.append(point.row(f"optimal_perfect_{tag}", t0,
                              n_subsets=models.battery.e_max + 1,
                              g_analytic=point.evaluate(policy)))
    write_results(rows, out_dir)
    return rows


def run_search(cfg: ScenarioConfig, out_dir) -> list:
    rows = []
    models = build_models(cfg)
    point = _Point(cfg, models)
    e_max = models.battery.e_max
    # without a sweep axis the config's partition, boundaries included, is searched
    partitions = ([cfg.partition.build(e_max, n) for n in cfg.sweep.n_subsets]
                  or [cfg.partition.build(e_max)])
    for partition in partitions:
        t0 = time.perf_counter()
        n = partition.n_subsets
        result = _run_search(cfg, models, partition)
        write_policy_file(Path(out_dir) / f"policy_{cfg.scenario}_N{n}.csv",
                          result.best_policy, models.cons)
        rows.append(point.row(f"optimal_partition_N{n}", t0, n_subsets=n,
                              g_analytic=result.best_reward))
    write_results(rows, out_dir)
    return rows


def _sweep_point(args):
    cfg, e_max, band = args
    try:
        models = build_models(cfg, e_max=e_max, band=band)
        point = _Point(cfg, models, cfg.partition.build(models.battery.e_max), band)
    except EHPolicyError as exc:
        return [ResultRow(scenario=cfg.scenario, policy="(setup)", e_max=e_max,
                          band=band or "", error=str(exc))]
    rows = []
    n = point.partition.n_subsets
    for source in SWEPT_SOURCES:
        t0 = time.perf_counter()
        name, maker = POLICY_MAKERS[source]
        try:
            values = {"g_analytic": point.evaluate(maker(point))}
        except EHPolicyError as exc:
            values = {"error": str(exc)}
        rows.append(point.row(name.format(n=n), t0, n_subsets=n, **values))
    return rows


def run_sweep(cfg: ScenarioConfig, out_dir, threads: int = 1) -> list:
    limit = os.cpu_count() or 1
    if not 1 <= threads <= limit:
        raise EHPolicyError(f"--threads counts worker processes, 1 to {limit}; got {threads}")
    e_values = cfg.sweep.e_max or [cfg.battery.e_max]
    bands = cfg.sweep.bands or [cfg.consumption.band]
    points = [(cfg, e, band) for band in bands for e in e_values]
    if threads > 1:
        # imported here: concurrent.futures.process adds 8-19 ms to every CLI start
        from concurrent.futures import ProcessPoolExecutor

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
    point = _Point(cfg, models, cfg.partition.build(models.battery.e_max))
    name, maker = POLICY_MAKERS[cfg.policy_source]
    policy = maker(point)
    report = simulate(
        models.battery, models.arrivals, models.cons, models.reward, policy,
        frames=cfg.frames, seed=cfg.seed)
    n = point.partition.n_subsets
    rows = [point.row(
        name.format(n=n), t0, n_subsets=n if isinstance(policy, PartitionPolicy) else None,
        g_analytic=point.evaluate(policy),
        g_simulated=report.empirical_reward, std_error=report.std_error)]
    write_results(rows, out_dir)
    return rows


def run_bound(cfg: ScenarioConfig, out_dir) -> list:
    t0 = time.perf_counter()
    models = build_models(cfg)
    point = _Point(cfg, models)
    bound = point.bound
    _write_csv(Path(out_dir) / f"bound_{cfg.scenario}.csv",
               ["arrival_quanta", "best_start_level", "max_stored_quanta"],
               ([b, f"{a_star:.12g}", f"{beta:.12g}"] for b, (a_star, beta)
                in enumerate(zip(bound.a_star_table, bound.beta_star_table))))
    rows = [point.row("upper_bound", t0, g_analytic=bound.g_ub)]
    write_results(rows, out_dir)
    return rows


def run_validate(cfg: ScenarioConfig):
    """Config sanity plus the recharge-hypothesis check; returns (ok, messages).

    A config that cannot build its models raises ``EHPolicyError``, as it
    does for every other subcommand."""
    messages = []
    models = build_models(cfg)
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
