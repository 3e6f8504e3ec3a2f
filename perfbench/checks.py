"""Output checks of each workload, made outside the timed region.

Every check compares the files a repetition wrote with the independent
oracles in ``oracles.py`` or with a property the method must have; none
compares with a stored copy of earlier output. The scenario inputs (arrival
pmf, action set, device consumption, reward parameters) come from the
program's config builders; everything computed from them comes from the
oracles.

Each ``check_*`` function takes the scenario config and the output
directories of the repetitions and returns (rows attempted, rows failed,
problems), where a failed row is one with a non-empty ``error``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

import oracles

GAIN_TOL = 1e-9      # relative: the gain of one policy, computed two ways
OPTIMUM_TOL = 1e-8   # relative: RVI's optimum against policy iteration
BOUND_TOL = 1e-8     # relative: the storage bound, closed form against search
ORDER_TOL = 1e-9     # relative slack on inequalities between gains
SWEEP_POLICIES = ("optimal_partition_N2", "optimal_perfect", "low_complexity",
                  "balanced", "ideal_policy_crossapplied")


def _close(value, expected, tol):
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def _at_most(value, limit, tol=ORDER_TOL):
    return value <= limit + tol * max(1.0, abs(limit))


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _stable(rows):
    """Rows without the timing column, for comparing repetitions."""
    return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]


def _read_repetitions(out_dirs, expected_rows, problems):
    """Result rows of every repetition, and the (attempted, failed) row counts.

    Flags a repetition with another number of rows than ``expected_rows``, or
    whose results differ from the first repetition's.
    """
    runs = [(out, _read_csv(Path(out) / "results.csv")) for out in out_dirs]
    for out, rows in runs:
        if len(rows) != expected_rows:
            problems.append(f"{out}: {len(rows)} result rows, expected {expected_rows}")
        if _stable(rows) != _stable(runs[0][1]):
            problems.append(f"{out}: results differ from the first repetition")
    failed = sum(1 for _, rows in runs for row in rows if row["error"])
    return runs, expected_rows * len(runs), failed


class _Scenario:
    """Oracle views of one scenario config at a given capacity."""

    def __init__(self, cfg, e_max=None):
        self.cfg = cfg
        self.e_max = int(e_max if e_max is not None else cfg.battery.e_max)
        if cfg.battery.profile != "quadratic":
            raise ValueError("the oracles cover the quadratic capacitor only")
        self.beta_nl = float(cfg.battery.beta_nl)
        self.pmf = np.asarray(cfg.arrivals.build().pmf, dtype=float)
        reward, battery = cfg.reward, cfg.battery
        if reward.family == "log_snr":
            self.rate = lambda rho: oracles.log_snr_rate(rho, reward.snr_scale)
        else:
            self.rate = lambda rho: oracles.shannon_rate(
                rho, reward.bandwidth, reward.noise_density, reward.channel_gain,
                battery.slot_length, battery.frame_length, battery.quantum_joules)

    def table(self):
        return oracles.next_state_table(self.e_max, self.beta_nl, len(self.pmf) - 1)

    def g_upper_bound(self):
        return float(self.rate(oracles.storage_bound(self.pmf, self.e_max, self.beta_nl)))

    def actions_and_consumption(self, band=None):
        cons = self.cfg.consumption.build(self.cfg.battery, band=band)
        actions = self.cfg.actions.build(self.e_max, cons).actions
        return (np.asarray(actions, dtype=np.int64),
                np.asarray([cons.consumption(a) for a in actions], dtype=np.int64))

    def g_star(self, band=None):
        actions, consumption = self.actions_and_consumption(band)
        return oracles.perfect_knowledge_optimum(
            self.table(), self.pmf, actions, consumption, self.rate)[0]


def check_partition_search(cfg, out_dirs):
    """Fig. 3: exhaustive N=1, N=2 and two-stage N=3 searches at one capacity."""
    sc = _Scenario(cfg)
    table = sc.table()
    actions, consumption = sc.actions_and_consumption()
    cons_of = dict(zip(actions.tolist(), consumption.tolist()))
    g_star = sc.g_star()
    bound = sc.g_upper_bound()
    levels = np.arange(sc.e_max + 1)
    n_list = list(cfg.sweep.n_subsets)
    problems = []
    if not _at_most(g_star, bound):
        problems.append(f"oracle G*={g_star!r} exceeds the closed-form bound {bound!r}")

    gains = {}

    def gain(subset_actions):
        key = tuple(subset_actions)
        if key not in gains:
            state_actions = np.empty(len(levels), dtype=np.int64)
            for a, subset in zip(key, np.array_split(levels, len(key))):
                state_actions[subset] = a
            state_cons = np.asarray([cons_of[a] for a in state_actions])
            transition, reward = oracles.policy_chain(
                table, sc.pmf, state_actions, state_cons, sc.rate)
            gains[key] = oracles.gain_from(transition, reward, 0)
        return gains[key]

    runs, attempted, failed = _read_repetitions(out_dirs, len(n_list), problems)
    for out, rows in runs:
        by_n = {int(row["n_subsets"]): row for row in rows}
        for n in n_list:
            row = by_n.get(n)
            if row is None or row["error"]:
                continue
            g = float(row["g_analytic"])
            policy = [int(r["action"]) for r in
                      _read_csv(Path(out) / f"policy_{cfg.scenario}_N{n}.csv")]
            if len(policy) != n:
                problems.append(f"N={n}: policy file has {len(policy)} subsets")
                continue
            if not _close(g, gain(policy), GAIN_TOL):
                problems.append(f"N={n}: G={g!r}, oracle gain of its policy {gain(policy)!r}")
            if not _at_most(g, g_star):
                problems.append(f"N={n}: G={g!r} exceeds the oracle G*={g_star!r}")
            if not _close(float(row["g_upper_bound"]), bound, BOUND_TOL):
                problems.append(f"N={n}: g_upper_bound {row['g_upper_bound']}, "
                                f"closed form {bound!r}")
            if n <= 2:  # the exhaustive searches: no one-step neighbour is better
                for i, a in enumerate(policy):
                    k = int(np.searchsorted(actions, a))
                    for j in (k - 1, k + 1):
                        if 0 <= j < len(actions):
                            other = list(policy)
                            other[i] = int(actions[j])
                            if not _at_most(gain(other), g):
                                problems.append(f"N={n}: neighbour {other} scores "
                                                f"{gain(other)!r} > {g!r}")
        if 1 in by_n and 2 in by_n and not _at_most(
                float(by_n[1]["g_analytic"]), float(by_n[2]["g_analytic"])):
            problems.append("G(N=1) exceeds G(N=2)")
    return attempted, failed, problems


def check_device_sweep(cfg, out_dirs):
    """Fig. 5: five policies at every (band, capacity) point."""
    bands, capacities = list(cfg.sweep.bands), list(cfg.sweep.e_max)
    bounds = {e: _Scenario(cfg, e).g_upper_bound() for e in capacities}
    g_star = {(band, e): _Scenario(cfg, e).g_star(band)
              for band in bands for e in capacities}
    expected = len(bands) * len(capacities) * len(SWEEP_POLICIES)
    problems = []
    runs, attempted, failed = _read_repetitions(out_dirs, expected, problems)
    for _, rows in runs:
        points = {}
        for row in rows:
            points.setdefault((row["band"], int(row["e_max"])), {})[row["policy"]] = row
        for band in bands:
            for e in capacities:
                point = points.get((band, e), {})
                where = f"{band} e_max={e}"
                if sorted(point) != sorted(SWEEP_POLICIES):
                    problems.append(f"{where}: policies {sorted(point)}")
                    continue
                if any(point[p]["error"] for p in SWEEP_POLICIES):
                    continue
                g = {p: float(point[p]["g_analytic"]) for p in SWEEP_POLICIES}
                if {point[p]["n_subsets"] for p in SWEEP_POLICIES} != {"2"}:
                    problems.append(f"{where}: not every policy ran on N=2")
                for other in ("low_complexity", "balanced", "ideal_policy_crossapplied"):
                    if not _at_most(g[other], g["optimal_partition_N2"]):
                        problems.append(f"{where}: {other} {g[other]!r} beats the "
                                        f"searched N=2 policy {g['optimal_partition_N2']!r}")
                if not _at_most(g["optimal_partition_N2"], g["optimal_perfect"]):
                    problems.append(f"{where}: the N=2 policy beats optimal_perfect")
                if not _close(g["optimal_perfect"], g_star[band, e], OPTIMUM_TOL):
                    problems.append(f"{where}: optimal_perfect {g['optimal_perfect']!r}, "
                                    f"oracle G* {g_star[band, e]!r}")
                for p in SWEEP_POLICIES:
                    ub = float(point[p]["g_upper_bound"])
                    if not _close(ub, bounds[e], BOUND_TOL):
                        problems.append(f"{where} {p}: g_upper_bound {ub!r}, "
                                        f"closed form {bounds[e]!r}")
                    if not _at_most(g[p], ub):
                        problems.append(f"{where} {p}: G={g[p]!r} exceeds the bound {ub!r}")
    return attempted, failed, problems


def check_large_battery(cfg, out_dirs):
    """Perfect-knowledge solve at a large capacity, cross-checked by Monte Carlo."""
    sc = _Scenario(cfg)
    g_star = sc.g_star()
    bound = sc.g_upper_bound()
    problems = []
    if not _at_most(g_star, bound):
        problems.append(f"oracle G*={g_star!r} exceeds the closed-form bound {bound!r}")
    runs, attempted, failed = _read_repetitions(out_dirs, 1, problems)
    for _, rows in runs:
        for row in rows:
            if row["error"]:
                continue
            g, g_sim, se = (float(row[k]) for k in ("g_analytic", "g_simulated", "std_error"))
            if not abs(g_sim - g) <= 3.0 * se:
                problems.append(f"Monte Carlo {g_sim!r} is more than 3 SE ({se!r}) "
                                f"from the analytic {g!r}")
            if not _close(g, g_star, OPTIMUM_TOL):
                problems.append(f"g_analytic {g!r}, oracle G* {g_star!r}")
            if not _close(float(row["g_upper_bound"]), bound, BOUND_TOL):
                problems.append(f"g_upper_bound {row['g_upper_bound']}, closed form {bound!r}")
    return attempted, failed, problems
