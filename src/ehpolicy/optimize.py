"""Optimal and heuristic transmission policies, and the storage-aware throughput bound."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import (
    Partition,
    PartitionPolicy,
    StatePolicy,
    _fast_gain,
    build_chain,
    charge_matrix,
    consumption_vector,
)
from .core import (
    ActionSet,
    ArrivalModel,
    BatteryModel,
    ConsumptionMap,
    RewardModel,
    _charge_flow,
    validate_recharge_hypothesis,
)
from .errors import BudgetExceededError, ConvergenceError, UnsupportedPartitionError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Perfect-SoC optimum (average-reward MDP)
# ---------------------------------------------------------------------------

def solve_perfect_soc(battery: BatteryModel, arrivals: ArrivalModel, cons: ConsumptionMap,
                      reward: RewardModel, actions: ActionSet,
                      span_tol: float = 1e-9, max_sweeps: int = 10 ** 5) -> StatePolicy:
    """Gain-optimal deterministic per-state policy via relative value iteration.

    Iterates the Bellman operator of the half-lazy kernel (I + P)/2, which
    preserves average-reward optimal policies while guaranteeing aperiodicity,
    and stops on the span seminorm of the value update.
    """
    ok, _ = validate_recharge_hypothesis(battery, arrivals)
    if not ok:
        warnings.warn("recharge hypothesis violated: some states cannot store a quantum "
                      "at maximal arrivals; the solver may not be reliable", stacklevel=2)

    n = battery.e_max + 1
    acts = actions.as_array()
    dcons = np.array([cons.consumption(int(a)) for a in acts], dtype=np.int64)
    states = np.arange(n)
    start_of = np.maximum(states[:, None] - dcons[None, :], 0)  # (state, action)
    feasible = dcons[None, :] <= states[:, None]
    rates = np.asarray(reward.rate(acts), dtype=float)
    j = np.where(feasible, rates[None, :], 0.0)

    rows = charge_matrix(battery, arrivals)
    h = np.zeros(n)
    # every sweep writes into these, so no (state, action) temporary is allocated
    z = np.empty(n)
    h_new = np.empty(n)
    buf = np.empty(start_of.shape)
    span = math.inf
    for _ in range(max_sweeps):
        np.matmul(rows, h, out=z)
        z *= 0.5
        np.take(z, start_of, out=buf)
        buf += j
        buf.max(axis=1, out=h_new)
        # the idle half of the lazy kernel is the same for every action
        h_new += 0.5 * h
        h_new -= h_new[0]
        delta = h_new - h
        span = float(delta.max() - delta.min())
        h, h_new = h_new, h
        if span < span_tol:
            break
    else:
        raise ConvergenceError(
            f"relative value iteration did not converge in {max_sweeps} sweeps",
            residual=span)

    z = rows @ h
    q = j + 0.5 * h[:, None] + 0.5 * z[start_of]
    # argmax picks the first (lowest-power) maximizer; snap near-ties down too
    best = q.max(axis=1)
    greedy = (q >= best[:, None] - 1e-12).argmax(axis=1)
    return StatePolicy(actions=tuple(int(acts[i]) for i in greedy))


# ---------------------------------------------------------------------------
# Imperfect-SoC optimum (exhaustive search over per-subset actions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    best_policy: PartitionPolicy
    best_reward: float
    evaluated_count: int
    reward_by_policy: tuple | None = None


def search_partition_policy(battery: BatteryModel, arrivals: ArrivalModel,
                            cons: ConsumptionMap, reward: RewardModel,
                            actions: ActionSet, partition: Partition, e0: int = 0,
                            budget: int = 10 ** 7,
                            keep_table: bool = False) -> SearchResult:
    """Enumerate every deterministic per-subset action assignment and return the best.

    Ties (within strict float comparison) resolve to the lexicographically
    smallest action vector because enumeration is in lexicographic order.
    """
    n_subsets = partition.n_subsets
    n_policies = len(actions) ** n_subsets
    if n_policies > budget:
        raise BudgetExceededError(
            f"{len(actions)}^{n_subsets} = {n_policies} policies exceeds budget {budget}; "
            "coarsen the action grid or reduce the number of subsets")

    n = battery.e_max + 1
    rows = charge_matrix(battery, arrivals)
    labels = partition.labels()
    states = np.arange(n)
    acts = actions.as_array()
    dcons = np.array([cons.consumption(int(a)) for a in acts], dtype=np.int64)
    rates = np.asarray(reward.rate(acts), dtype=float)

    # per candidate subset-action: consumption and per-state reward contribution
    start_by_action = np.maximum(states[:, None] - dcons[None, :], 0)
    j_by_action = np.where(dcons[None, :] <= states[:, None], rates[None, :], 0.0)

    best_gain = -math.inf
    best_combo = None
    table = [] if keep_table else None
    count = 0
    for combo in itertools.product(range(len(acts)), repeat=n_subsets):
        choice = np.asarray(combo, dtype=np.int64)[labels]
        transition = rows[start_by_action[states, choice]]
        state_reward = j_by_action[states, choice]
        gain = _fast_gain(transition, state_reward, e0)
        count += 1
        if table is not None:
            table.append((tuple(int(acts[i]) for i in combo), gain))
        if gain > best_gain:
            best_gain = gain
            best_combo = combo

    policy = PartitionPolicy(
        partition=partition,
        actions=tuple(int(acts[i]) for i in best_combo))
    return SearchResult(
        best_policy=policy,
        best_reward=float(best_gain),
        evaluated_count=count,
        reward_by_policy=tuple(table) if keep_table else None,
    )


def refine_partition_search(battery, arrivals, cons, reward, actions, partition,
                            e0: int = 0, coarse_step: int = 4, halo: int = 3,
                            budget: int = 10 ** 7) -> SearchResult:
    """Two-stage exhaustive search: coarse action grid, then an exhaustive pass over
    the union of neighborhoods of the coarse optimum. Keeps large-N searches
    within the enumeration budget."""
    acts = actions.as_array()
    coarse = ActionSet(actions=tuple(int(a) for a in acts[::coarse_step]))
    stage1 = search_partition_policy(
        battery, arrivals, cons, reward, coarse, partition, e0, budget)
    radius = max(halo, coarse_step)
    near = {0}
    for a in stage1.best_policy.actions:
        near.update(int(x) for x in acts[np.abs(acts - a) <= radius])
    refined = ActionSet(actions=tuple(sorted(near)))
    stage2 = search_partition_policy(
        battery, arrivals, cons, reward, refined, partition, e0, budget)
    best = stage2 if stage2.best_reward >= stage1.best_reward else stage1
    return SearchResult(
        best_policy=best.best_policy,
        best_reward=best.best_reward,
        evaluated_count=stage1.evaluated_count + stage2.evaluated_count,
    )


# ---------------------------------------------------------------------------
# Storage-aware throughput upper bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    beta_star_table: np.ndarray  # max storable increment per arrival size
    a_star_table: np.ndarray     # maximizing charge level per arrival size
    b_bar_s: float               # arrival-averaged max storable increment
    g_ub: float                  # reward at b_bar_s (storage-aware bound)
    g_ideal: float               # reward at the raw mean arrival (lossless bound)


def beta_star(battery: BatteryModel, b: int):
    """Maximum storable increment for an arrival of ``b`` quanta, over continuous
    start levels in [0, e_max]; returns (a_star, beta).

    The increment is evaluated on the exact charging flow without the
    capacity clip, so overflow is not conflated with storage loss. Coarse
    grid seeding plus golden-section refinement.
    """
    a_star, beta = _beta_star_vec(battery, [b])
    return float(a_star[0]), float(beta[0])


def _beta_star_vec(battery: BatteryModel, bs):
    """Vectorized beta-star over a list of arrival sizes."""
    b_arr = np.asarray(list(bs), dtype=float)
    e_max = battery.e_max
    grid = np.linspace(0.0, e_max, 257)

    inc = _charge_flow(battery, grid, b_arr[:, None], saturate=False) - grid
    k = inc.argmax(axis=1)
    a_lo = grid[np.maximum(k - 1, 0)]
    a_hi = grid[np.minimum(k + 1, len(grid) - 1)]

    def f(a):
        return _charge_flow(battery, a, b_arr, saturate=False) - a

    # golden-section over all arrival sizes in lockstep
    c = a_hi - _GOLDEN * (a_hi - a_lo)
    d = a_lo + _GOLDEN * (a_hi - a_lo)
    fc = f(c)
    fd = f(d)
    while np.max(a_hi - a_lo) > 1e-10 * max(1.0, e_max):
        take_c = fc > fd
        a_hi = np.where(take_c, d, a_hi)
        a_lo = np.where(take_c, a_lo, c)
        c = a_hi - _GOLDEN * (a_hi - a_lo)
        d = a_lo + _GOLDEN * (a_hi - a_lo)
        fc = f(c)
        fd = f(d)
    a_best = np.where(b_arr == 0.0, 0.0, 0.5 * (a_lo + a_hi))
    beta = np.where(b_arr == 0.0, 0.0, np.maximum(np.maximum(fc, fd), 0.0))
    return a_best, beta


def upper_bound(battery: BatteryModel, arrivals: ArrivalModel,
                reward: RewardModel) -> BoundReport:
    """Storage-aware throughput bound: reward of the mean of max storable increments."""
    bs = list(range(arrivals.b_max + 1))
    a_star, beta = _beta_star_vec(battery, bs)
    pmf = arrivals.pmf_array()
    b_bar_s = float(pmf @ beta)
    return BoundReport(
        beta_star_table=beta,
        a_star_table=a_star,
        b_bar_s=b_bar_s,
        g_ub=float(reward.rate(b_bar_s)),
        g_ideal=float(reward.rate(arrivals.mean_b)),
    )


# ---------------------------------------------------------------------------
# Heuristic policies
# ---------------------------------------------------------------------------

def _nearest_action_by_consumption(target: float, actions: ActionSet,
                                   cons: ConsumptionMap) -> int:
    """Action whose consumption is nearest the target; ties go to the lower power."""
    best = None
    best_key = None
    for a in actions.actions:
        key = (abs(cons.consumption(a) - target), a)
        if best_key is None or key < best_key:
            best_key = key
            best = a
    return int(best)


def derive_lcp(op_rp: StatePolicy, cons: ConsumptionMap, partition: Partition,
               actions: ActionSet) -> PartitionPolicy:
    """Low-complexity policy: per subset, the action whose consumption is nearest the
    unweighted mean consumption of the perfect-knowledge policy over that subset."""
    dvec = consumption_vector(op_rp, cons, partition.e_max)
    chosen = []
    for sub in partition.subsets():
        avg = float(dvec[sub].mean())
        chosen.append(_nearest_action_by_consumption(avg, actions, cons))
    return PartitionPolicy(partition=partition, actions=tuple(chosen))


def derive_bp(partition: Partition, bound: BoundReport,
              actions: ActionSet, cons: ConsumptionMap) -> PartitionPolicy:
    """Balanced policy: idle when LOW, consume nearest the mean storable increment when HIGH.

    Defined only for two-subset partitions.
    """
    if partition.n_subsets != 2:
        raise UnsupportedPartitionError("balanced policy requires exactly 2 subsets")
    high = _nearest_action_by_consumption(bound.b_bar_s, actions, cons)
    return PartitionPolicy(partition=partition, actions=(0, high))
