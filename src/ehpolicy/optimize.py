"""Optimal and heuristic transmission policies, and the storage-aware throughput bound."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from . import chain
from .chain import (
    _EDGE_EPS,
    Partition,
    PartitionPolicy,
    StatePolicy,
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
_STACK_ENTRIES = 1 << 14  # entries per stacked temporary in the censored-chain solves


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

    The levels split into E, every subset but the last, and K, the last
    subset. Each prefix of actions on E is eliminated once, and every last
    action is then scored on the censored chain on K (the stochastic
    complement) by the renewal-reward theorem. Candidates whose gain the
    complement cannot give (``e0`` never reaches K, some E state never
    reaches K, or the censored chain is not unichain) take the class route,
    ``chain.exact_occupation``.
    """
    n_subsets = partition.n_subsets
    n_policies = len(actions) ** n_subsets
    if n_policies > budget:
        raise BudgetExceededError(
            f"{len(actions)}^{n_subsets} = {n_policies} policies exceeds budget {budget}; "
            "coarsen the action grid or reduce the number of subsets")

    n = battery.e_max + 1
    rows = charge_matrix(battery, arrivals)
    states = np.arange(n)
    acts = actions.as_array()
    dcons = np.array([cons.consumption(int(a)) for a in acts], dtype=np.int64)
    rates = np.asarray(reward.rate(acts), dtype=float)

    # per candidate subset-action: consumption and per-state reward contribution
    start_by_action = np.maximum(states[:, None] - dcons[None, :], 0)
    j_by_action = np.where(dcons[None, :] <= states[:, None], rates[None, :], 0.0)

    k0 = partition.starts[-1]
    prefix_labels = partition.labels()[:k0]
    best_gain = -math.inf
    best_combo = None
    table = [] if keep_table else None
    count = 0
    for prefix in itertools.product(range(len(acts)), repeat=n_subsets - 1):
        choice_e = np.asarray(prefix, dtype=np.int64)[prefix_labels]
        gains = _last_subset_gains(rows, start_by_action, j_by_action, choice_e, e0)
        for a, gain in enumerate(gains.tolist()):
            combo = prefix + (a,)
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


def _last_subset_gains(rows, start_by_action, j_by_action, choice_e, e0) -> np.ndarray:
    """Gain from e0 of every last-subset action, given the actions ``choice_e`` on E.

    E holds the levels below k0 = len(choice_e); K holds the rest.
    """
    n, n_acts = start_by_action.shape
    k0 = len(choice_e)
    nk = n - k0

    def class_route(a):
        levels = np.arange(n)
        choice = np.concatenate([choice_e, np.full(nk, a, dtype=np.int64)])
        transition = rows[start_by_action[levels, choice]]
        # looked up at call time, so a rebinding of chain.exact_occupation is seen
        occupation = chain.exact_occupation(transition, e0)
        return float(occupation @ j_by_action[levels, choice])

    p_e = rows[start_by_action[np.arange(k0), choice_e]]
    reach = _reaches_last_subset(p_e > _EDGE_EPS, k0)
    if e0 < k0 and not reach[e0]:
        # the chain from e0 never enters K, so no last action changes its gain
        return np.full(n_acts, class_route(0))
    if not reach.all():
        # E holds a closed class, so I - P_EE is singular
        return np.array([class_route(a) for a in range(n_acts)])

    # eliminate E once: (I - P_EE)[Y | u | t] = [P_EK | r_E | 1], folded into every charge row
    r_e = j_by_action[np.arange(k0), choice_e]
    w = np.linalg.solve(np.eye(k0) - p_e[:, :k0],
                        np.column_stack([p_e[:, k0:], r_e, np.ones(k0)]))
    folded = rows[:, :k0] @ w
    folded[:, :nk] += rows[:, k0:]
    m, mu, tau = folded[:, :nk], folded[:, nk], folded[:, nk + 1]

    s_k = start_by_action[k0:].T  # (action, K state): start level after spending
    r_k = j_by_action[k0:].T
    gains = np.empty(n_acts)
    batch = max(1, _STACK_ENTRIES // (nk * nk))
    for lo in range(0, n_acts, batch):
        starts = s_k[lo:lo + batch]
        pi, ok = _censored_stationary(m[starts])
        num = np.einsum("ck,ck->c", pi, r_k[lo:lo + batch] + mu[starts])
        den = np.einsum("ck,ck->c", pi, 1.0 + tau[starts])
        for i in range(len(starts)):
            gains[lo + i] = num[i] / den[i] if ok[i] else class_route(lo + i)
    return gains


def _reaches_last_subset(support_e: np.ndarray, k0: int) -> np.ndarray:
    """Which E states can reach K, given the support of their rows (E x all levels)."""
    into_k = support_e[:, k0:].any(axis=1)
    src, dst = np.nonzero(support_e[:, :k0])
    # reversed edges over E, plus node k0 standing for K with an edge into
    # every state that steps into K directly
    tail = np.concatenate([dst, np.full(int(into_k.sum()), k0)])
    head = np.concatenate([src, np.flatnonzero(into_k)])
    graph = csr_matrix((np.ones(len(tail), dtype=bool), (tail, head)),
                       shape=(k0 + 1, k0 + 1))
    order = breadth_first_order(graph, k0, directed=True, return_predecessors=False)
    reach = np.zeros(k0 + 1, dtype=bool)
    reach[order] = True
    return reach[:k0]


def _censored_stationary(censored: np.ndarray):
    """Stationary laws of a stack of censored chains, and which of them to trust.

    A law is trusted only if its chain's support has exactly one closed
    class and the solve passes a residual check: with two closed classes
    the system is singular, and a mixture of the class laws would pass the
    residual check alone.
    """
    c, k, _ = censored.shape
    ok = _single_closed_class(censored > _EDGE_EPS)
    pi = np.zeros((c, k))
    if not ok.any():
        return pi, ok
    a = censored[ok].transpose(0, 2, 1) - np.eye(k)
    a[:, -1, :] = 1.0
    rhs = np.zeros((len(a), k, 1))
    rhs[:, -1] = 1.0
    try:
        sol = np.linalg.solve(a, rhs)[..., 0]
    except np.linalg.LinAlgError:
        # an exactly singular system: the whole batch takes the class route
        return pi, np.zeros(c, dtype=bool)
    residual = np.abs(np.einsum("ck,ckj->cj", sol, censored[ok]) - sol).max(axis=1)
    good = ((sol.min(axis=1) > -1e-10) & (np.abs(sol.sum(axis=1) - 1.0) < 1e-8)
            & (residual < 1e-10))
    ok[ok] = good
    pi[ok] = np.maximum(sol[good], 0.0)
    return pi, ok


def _single_closed_class(support: np.ndarray) -> np.ndarray:
    """Whether each graph of a stack of supports (c, k, k) has exactly one closed class."""
    c, k, _ = support.shape
    blk, i, j = np.nonzero(support)
    tail = (blk * k + i).astype(np.int32)
    head = (blk * k + j).astype(np.int32)
    # one block-diagonal graph, built straight in CSR form: nonzero is row-major
    indptr = np.zeros(c * k + 1, dtype=np.int32)
    np.cumsum(support.sum(axis=2).ravel(), out=indptr[1:])
    graph = csr_matrix((np.ones(len(head)), head, indptr), shape=(c * k, c * k))
    n_comp, comp = connected_components(graph, directed=True, connection="strong")
    closed = np.ones(n_comp, dtype=bool)
    closed[comp[tail[comp[tail] != comp[head]]]] = False
    block = np.empty(n_comp, dtype=np.int64)
    block[comp] = np.arange(c * k) // k
    return np.bincount(block[closed], minlength=c) == 1


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
