"""Optimal and heuristic transmission policies, and the storage-aware throughput bound."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import chain
from .chain import (
    _EDGE_EPS,
    Partition,
    PartitionPolicy,
    StatePolicy,
    _band_product,
    _closed_classes,
    _gather_band,
    _reach,
    _stack_reach,
    _stationary_laws,
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
    _efficiency_unchecked,
    _is_int,
    _spend_tables,
    validate_recharge_hypothesis,
)
from .errors import (
    BudgetExceededError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    UnsupportedPartitionError,
)

# entries per stacked temporary in the censored-chain solves, and per block
# of policy iteration's (state, action) tables
_STACK_ENTRIES = 1 << 14
_GROUP_BYTES = 1 << 19  # folds and reach supports of a group of last-depth prefixes
_START_SWEEPS = 10  # value-iteration sweeps whose greedy policy starts policy iteration
_BOUND_SWEEPS = 5  # value-iteration sweeps of each search bound; 0 for no bound and no pruning
_MAX_ITERATIONS = 500  # policy-iteration steps before a cycle is reported
_KEEP_RTOL = 1e-10  # a state's action changes only if beaten by more, relative to max |Q|
_MAX_BUDGET = 10 ** 8  # candidates per partition search at most; it holds 8 bytes a candidate
_COARSE_STEP = 4  # the two-stage search's first pass takes every this many actions


# ---------------------------------------------------------------------------
# Perfect-SoC optimum (average-reward MDP)
# ---------------------------------------------------------------------------

def solve_perfect_soc(battery: BatteryModel, arrivals: ArrivalModel, cons: ConsumptionMap,
                      reward: RewardModel, actions: ActionSet) -> StatePolicy:
    """Gain-optimal deterministic per-state policy by Howard policy iteration.

    It starts from the greedy policy of a few value-iteration sweeps. Each
    step evaluates the current policy on the charge band and improves it
    greedily, first on the gain P·g and then on r + P·h (multichain policy
    iteration, Puterman, *Markov Decision Processes*, 1994, §9.2). A state
    keeps its action unless another beats it by more than a relative
    round-off, and the iteration stops when no state changes. The policy
    returned takes, in each state, the lowest-power action whose value is
    within that round-off of the best, ``_KEEP_RTOL`` times max |Q|.

    The sweeps and the greedy steps read the (state, action) values block by
    block (``_action_blocks``), each block trimmed to the actions its states
    can pay for; no table over every state and action is formed.
    """
    ok, _ = validate_recharge_hypothesis(battery, arrivals)
    if not ok:
        warnings.warn("recharge hypothesis violated: some states cannot store a quantum "
                      "at maximal arrivals; the solver may not be reliable", stacklevel=2)

    n = battery.e_max + 1
    states = np.arange(n)
    # the band is cached: built before the block tables, it does not sit above
    # them on the heap and keep their pages once they are freed
    band = charge_matrix(battery, arrivals)
    edges = band > _EDGE_EPS
    dcons, rates = _action_costs(cons, reward, actions)
    blocks = _action_blocks(dcons, rates, n)
    buf = np.empty(max(start.size for _, start, _, _ in blocks))
    h = np.zeros(n)
    choice = np.empty(n, dtype=np.intp)
    for _ in range(_START_SWEEPS):
        for at, _, q in _block_values(blocks, _band_product(band, h), buf):
            _row_best(q, choice[at], h[at])
    for _ in range(_MAX_ITERATIONS):
        start, earned = _spend_tables(states, dcons[choice], rates[choice])
        gain, bias = _policy_values(band, edges, start, earned)
        allowed = None
        if gain.min() < gain.max():
            # closed classes with different gains: improve on P·g first
            v = _band_product(band, gain)
            improved, floor = _improve(blocks, v, buf, choice, v[start], with_reward=False)
            if not np.array_equal(improved, choice):
                choice = improved
                continue
            allowed = (v, floor)
        # each state's action is allowed, since it kept its place in the step on P·g
        v = _band_product(band, bias)
        improved, floor = _improve(blocks, v, buf, choice, v[start] + earned, allowed=allowed)
        if np.array_equal(improved, choice):
            break
        choice = improved
    else:
        raise ConvergenceError(
            f"policy iteration did not settle in {_MAX_ITERATIONS} iterations")

    # the lowest-power action among those within round-off of the best
    lowest = _first_reaching(blocks, v, buf, floor, allowed)
    return StatePolicy(actions=tuple(actions.as_array()[lowest].tolist()))


def _action_costs(cons: ConsumptionMap, reward: RewardModel, actions: ActionSet):
    """Consumption and reward rate of each action."""
    acts = actions.as_array()
    dcons = np.array([cons.consumption(int(a)) for a in acts], dtype=np.int64)
    return dcons, np.asarray(reward.rate(acts), dtype=float)


def _action_tables(battery: BatteryModel, cons: ConsumptionMap, reward: RewardModel,
                   actions: ActionSet):
    """(state, action) tables: the level each state charges from after spending
    on each action, and the reward that action earns there (0 if the state
    cannot pay for it)."""
    dcons, rates = _action_costs(cons, reward, actions)
    return _spend_tables(np.arange(battery.e_max + 1)[:, None], dcons, rates)


def _action_blocks(dcons, rates, n):
    """The (state, action) tables of states 0..n-1 as ``(levels, start, paid,
    rate)`` blocks: ``levels`` is a slice of consecutive states, ``start``
    holds their rows of ``_action_tables``' start table for the actions
    [0, cols), in the smallest unsigned type that holds a level, ``paid``
    marks the entries whose state can pay for the action, and ``rate`` is
    ``rates[:cols]``. An entry earns its rate where it is paid and nothing
    elsewhere, so no float table is stored.

    The prefix holds every action that some state of the block can pay for,
    and the first action that none of them can. Every later action is
    unpayable in the whole block too, so it charges from level 0 and earns
    nothing, as that first one does: it repeats a column of lower index, and
    no row maximum, minimum, first maximiser or first entry above a floor
    changes without it, whether or not consumption rises with power. A
    block holds at most ``_STACK_ENTRIES`` entries, or one state.
    """
    levels = np.arange(n)
    # the first action each level cannot pay for, and the last one it can
    first_unpaid = np.searchsorted(np.maximum.accumulate(dcons), levels, side="right")
    last_paid = np.searchsorted(np.minimum.accumulate(dcons[::-1])[::-1], levels,
                                side="right") - 1
    cols = np.minimum(np.maximum(first_unpaid, last_paid) + 1, len(dcons))
    level_type = np.min_scalar_type(n - 1)
    blocks = []
    lo = 0
    while lo < n:
        # a block is as wide as its top state's prefix, which never narrows going up
        size = np.arange(1, n - lo + 1) * cols[lo:]
        hi = lo + max(1, int(np.searchsorted(size, _STACK_ENTRIES, side="right")))
        width = cols[hi - 1]
        left = levels[lo:hi, None] - dcons[:width]
        paid = left >= 0
        start = np.maximum(left, 0, out=left).astype(level_type)
        blocks.append((slice(lo, hi), start, paid, rates[:width]))
        lo = hi
    return blocks


def _block_values(blocks, v, buf, with_reward=True):
    """Yield each block's levels, start table and action values v[start], plus
    the rate where it is paid if ``with_reward``; the values are a view of
    ``buf``, valid until the next block."""
    for at, start, paid, rate in blocks:
        # mode "raise", the default, would buffer the output
        q = np.take(v, start, out=buf[:start.size].reshape(start.shape), mode="clip")
        if with_reward:
            np.add(q, rate, out=q, where=paid)
        yield at, start, q


def _row_best(q, top, best):
    """First maximiser and maximum of each row of ``q``, into ``top`` and ``best``."""
    q.argmax(axis=1, out=top)
    best[:] = q[np.arange(len(q)), top]


def _disallow(q, start, at, allowed):
    """Set to -inf the values in ``q`` of the block's actions that a step on P·g
    did not allow: ``allowed`` is its (v, floor) pair, or None for no step."""
    if allowed is not None:
        v, floor = allowed
        np.copyto(q, -np.inf, where=v[start] < floor[at, None])


def _improve(blocks, v, buf, choice, value, with_reward=True, allowed=None):
    """Greedy step on the action values v[start], plus the reward if ``with_reward``.

    ``value`` holds each state's value under its action in ``choice``. A
    state keeps that action unless another beats it by more than the
    round-off tol = ``_KEEP_RTOL`` times the largest magnitude among all
    the values. Only ``allowed`` actions compete (see ``_disallow``).
    Returns the new choice and each state's floor, its best value less tol.
    """
    n = len(choice)
    top = np.empty(n, dtype=np.intp)
    best = np.empty(n)
    big = 0.0
    for at, start, q in _block_values(blocks, v, buf, with_reward):
        big = max(big, q.max(), -q.min())
        _disallow(q, start, at, allowed)
        _row_best(q, top[at], best[at])
    floor = best - _KEEP_RTOL * big
    return np.where(value >= floor, choice, top), floor


def _first_reaching(blocks, v, buf, floor, allowed=None):
    """Each state's first allowed action whose value v[start] + reward reaches
    its ``floor``."""
    first = np.empty(len(floor), dtype=np.intp)
    for at, start, q in _block_values(blocks, v, buf):
        _disallow(q, start, at, allowed)
        np.argmax(q >= floor[at, None], axis=1, out=first[at])
    return first


def _policy_values(band, edges, starts, reward):
    """Gain and bias vectors of the policy whose state e charges from ``starts[e]``,
    on the charge band ``band``; ``edges`` is ``band > _EDGE_EPS``.

    They solve g = P·g and g + h = r + P·h, with h = 0 at the lowest state
    of each closed class.

    The chain is solved block by block, never as a whole, and no row of P
    is gathered whole. Each closed class gets its own solve for its gain
    and bias. The transient levels split into components, the maximal sets
    joined by an edge in either direction, and each component gets one
    solve from the values of the classes it drains into; the levels joined
    to no other transient level share one diagonal block. With one closed
    class every level takes the class gain as it is; with more, the
    absorption law averages the class gains first.
    """
    n = len(starts)
    support = _gather_band(edges, starts, np.arange(n))
    blocks = _closed_classes(support)
    n_classes = len(blocks)
    recurrent = np.zeros(n, dtype=bool)
    for levels in blocks:
        recurrent[levels] = True
    trans = np.flatnonzero(~recurrent)
    if len(trans):
        joined = support[trans][:, trans]
        joined |= joined.T
        np.fill_diagonal(joined, False)
        alone = ~joined.any(axis=1)
        left = ~alone
        while left.any():
            component = _reach(joined, int(left.argmax()))
            blocks.append(trans[component])
            left &= ~component
        if alone.any():
            blocks.append(trans[alone])
    del support  # n x n; the block solves below do not read it

    gain = np.zeros(n)
    bias = np.zeros(n)
    for i, levels in enumerate(blocks):
        a = _identity_minus(_gather_band(band, starts, levels))
        if i < n_classes:
            # column 0 carries the class gain in place of h = 0 at its lowest level
            a[:, 0] = 1.0
            x = np.linalg.solve(a, reward[levels])
            gain[levels] = x[0]
            x[0] = 0.0
            bias[levels] = x
        else:
            # what flows into the blocks solved so far: gain and bias are still 0
            # on this block, and no edge joins it to another transient block
            at = starts[levels]
            gain[levels] = (np.linalg.solve(a, _band_product(band, gain, at)) if n_classes > 1
                            else gain[blocks[0][0]])
            bias[levels] = np.linalg.solve(
                a, reward[levels] - gain[levels] + _band_product(band, bias, at))
    return gain, bias


def _identity_minus(block: np.ndarray) -> np.ndarray:
    """I - block, formed in place of the square array ``block``."""
    np.negative(block, out=block)
    block.flat[::len(block) + 1] += 1.0
    return block


# ---------------------------------------------------------------------------
# Imperfect-SoC optimum (exhaustive search over per-subset actions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    best_policy: PartitionPolicy
    best_reward: float
    evaluated_count: int  # every candidate, scored or pruned
    pruned: int  # candidates skipped because a gain bound lost: their own or their prefix's


def search_partition_policy(battery: BatteryModel, arrivals: ArrivalModel,
                            cons: ConsumptionMap, reward: RewardModel,
                            actions: ActionSet, partition: Partition, e0: int = 0,
                            budget: int = 10 ** 7) -> SearchResult:
    """Score every deterministic per-subset action assignment and return the best.

    ``_candidate_gains`` scores all |A|^N candidates at once, as one array
    whose C order is the lexicographic order of the action vectors, and
    ``np.argmax`` picks the winner. It takes the first maximum, so ties
    (within strict float comparison) go to the lexicographically smallest
    action vector; a NaN gain never wins. The array holds 8 bytes per
    candidate, at most ``8 * budget``, and ``budget`` itself may not exceed
    ``_MAX_BUDGET``.
    """
    if partition.e_max != battery.e_max:
        raise ConfigurationError(
            f"policy partition has e_max={partition.e_max}, scenario has {battery.e_max}")
    if budget > _MAX_BUDGET:
        raise BudgetExceededError(f"budget {budget} exceeds the largest budget {_MAX_BUDGET}")
    if not _is_int(e0) or not 0 <= e0 <= battery.e_max:
        raise DomainError(
            f"initial state must be an integer in [0, {battery.e_max}], got {e0!r}")
    n_policies = len(actions) ** partition.n_subsets
    if n_policies > budget:
        raise BudgetExceededError(
            f"{len(actions)}^{partition.n_subsets} = {n_policies} policies exceeds budget "
            f"{budget}; coarsen the action grid or reduce the number of subsets")

    # one action makes one candidate whatever the partition: it is scored on
    # one subset, since NumPy arrays have at most 64 axes, and every subset
    # takes that subset's action
    scored = partition if len(actions) > 1 else Partition(e_max=battery.e_max, starts=(0,))
    gains = _candidate_gains(battery, arrivals, cons, reward, actions, scored, e0)
    pruned = int(np.count_nonzero(np.isneginf(gains)))
    np.copyto(gains, -np.inf, where=np.isnan(gains))
    best = int(np.argmax(gains))
    combo = np.unravel_index(best, gains.shape) * (partition.n_subsets // scored.n_subsets)
    policy = PartitionPolicy(
        partition=partition,
        actions=tuple(actions.actions[i] for i in combo))
    return SearchResult(best_policy=policy, best_reward=float(gains.flat[best]),
                        evaluated_count=n_policies, pruned=pruned)


def _candidate_gains(battery: BatteryModel, arrivals: ArrivalModel, cons: ConsumptionMap,
                     reward: RewardModel, actions: ActionSet, partition: Partition,
                     e0: int) -> np.ndarray:
    """Long-run reward from ``e0`` of every per-subset action assignment, as an
    array of shape (|A|,) * N: ``gains[combo]`` is the gain of the candidate
    that takes action ``actions.actions[combo[i]]`` on subset i, so the
    array's C order is the lexicographic order of the candidates.

    The candidates form a prefix tree over the subsets, and one recursive
    walk fills the array, one subarray per prefix. The incumbent is the
    largest gain the array holds so far; queued prefixes do not count
    towards it. Every bound is one ``_ratio_bounds`` kernel on its own step,
    and a bound that ``_loses`` to the incumbent sets what it bounds to -inf,
    unsolved. With ``_BOUND_SWEEPS`` = 0 nothing is bounded.

    A prefix that fixes the actions of E, the levels below the next subset
    (the last subset at the last depth), gathers E's actions, charge starts,
    rewards and rows once. If ``e0`` lies in E, a graph search on E's rows
    finds whether the chain from ``e0`` ever climbs above E. If it cannot,
    no later action changes the gain, so the prefix's whole subarray holds
    one gain. The trap bound, on the closed set of levels that ``e0``
    reaches, comes first; the gain is computed only if it does not lose,
    once, by the class route, ``chain.exact_occupation``.

    At the last depth, K is the last subset. The row bound, on the MDP in
    which E keeps its actions and each level of K takes its best one, first
    bounds the prefix's whole row; it starts from the last row bound's v,
    less its value at level 0. If some E state never reaches K, every last
    action then takes the class route. Otherwise E is eliminated once,
    folded into every charge row, and the prefix is queued; ``_score_group``
    scores the queue whenever it holds as many prefixes as fit in
    ``_GROUP_BYTES`` (one at least), and at the end of the walk, and bounds
    each of its chains before it solves them.
    """
    n_subsets = partition.n_subsets
    n = battery.e_max + 1
    states = np.arange(n)
    # the dense charge rows beside the band, since E's elimination reads whole rows
    band = charge_matrix(battery, arrivals)
    rows = _gather_band(band, states, states)
    start_by_action, j_by_action = _action_tables(battery, cons, reward, actions)
    labels = partition.labels()
    n_acts = len(actions)
    gains = np.empty((n_acts,) * n_subsets)
    nk = n - partition.starts[-1]
    # bytes per queued prefix: its fold and its |A| censored supports
    group = max(1, _GROUP_BYTES // (8 * n * (nk + 2) + n_acts * nk * nk))
    queued = []  # (prefix, actions on E, fold)
    best = -np.inf  # the largest gain the array holds so far
    v = np.zeros(n)  # where the next prefix's bound starts

    def keep(prefix, values):
        nonlocal best
        gains[prefix] = values
        best = np.fmax.reduce(gains[prefix], axis=None, initial=best)  # fmax skips NaN

    def score_queue():
        prefixes, choices, folds = zip(*queued)
        queued.clear()
        folds = np.stack(folds)  # frees the per-prefix folds
        scored = _score_group(band, start_by_action, j_by_action, folds, choices, e0, best)
        for prefix, row in zip(prefixes, scored):
            keep(prefix, row)

    def fill(prefix):
        nonlocal v
        depth = len(prefix)
        k = partition.starts[depth]
        if e0 < k or depth == n_subsets - 1:
            # E, the levels below k: their actions, charge starts, rewards and rows
            choice_e = np.asarray(prefix, dtype=np.int64)[labels[:k]]
            start_e = start_by_action[states[:k], choice_e]
            j_e = j_by_action[states[:k], choice_e]
            p_e = rows[start_e]
            support_e = p_e[:, :k] > _EDGE_EPS
            # which levels of E reach level k or above: backward from those that step there
            reach = _reach(np.ascontiguousarray(support_e.T), (p_e[:, k:] > _EDGE_EPS).any(axis=1))
        if e0 < k and not reach[e0]:
            # the chain from e0 never climbs to level k: one gain for the whole subtree
            if _BOUND_SWEEPS:
                # the trap bound, on the closed set of levels that e0 reaches
                trap = np.flatnonzero(_reach(support_e, e0))
                p_trap, j_trap = p_e[np.ix_(trap, trap)], j_e[trap]
                _, upper, _ = _ratio_bounds(lambda u: j_trap + p_trap @ u, 1.0,
                                            np.zeros(len(trap)))
                if _loses(upper, best):
                    gains[prefix] = -np.inf
                    return
            keep(prefix, _class_gain(band, start_by_action, j_by_action, choice_e, 0, e0))
        elif depth < n_subsets - 1:
            for a in range(n_acts):
                fill(prefix + (a,))
        else:
            if _BOUND_SWEEPS:
                # the row bound: E keeps its actions and each level of K takes its best
                def step(u):
                    w = rows @ u
                    best_k = (w[start_by_action[k:]] + j_by_action[k:]).max(axis=1)
                    return np.concatenate((w[start_e] + j_e, best_k))

                _, upper, v = _ratio_bounds(step, 1.0, v - v[0])
                if _loses(upper, best):
                    gains[prefix] = -np.inf
                    return
            if not reach.all():
                # E holds a closed class, so I - P_EE is singular
                keep(prefix, [_class_gain(band, start_by_action, j_by_action, choice_e, a, e0)
                              for a in range(n_acts)])
                return
            # eliminate E: (I - P_EE)[Y | u | t] = [P_EK | r_E | 1], folded into every
            # charge row, gives its law on K and the reward and frames spent in E
            w = np.linalg.solve(np.eye(k) - p_e[:, :k],
                                np.column_stack([p_e[:, k:], j_e, np.ones(k)]))
            fold = rows[:, :k] @ w
            fold[:, :nk] += rows[:, k:]
            queued.append((prefix, choice_e, fold))
            if len(queued) == group:
                score_queue()

    fill(())
    if queued:
        score_queue()
    # fill refers to itself, so its closure, dense rows included, would
    # otherwise outlive the call until a garbage-collection pass
    del fill
    return gains


def _class_gain(band, start_by_action, j_by_action, choice_e, a, e0) -> float:
    """Gain from e0, by the class route on the charge band ``band``, when each
    level e below len(choice_e) takes action ``choice_e[e]`` and every level
    above takes action ``a``."""
    levels = np.arange(len(band))
    choice = np.concatenate([choice_e, np.full(len(band) - len(choice_e), a, dtype=np.int64)])
    # looked up at call time, so a rebinding of chain.exact_occupation is seen
    occupation = chain.exact_occupation(band, start_by_action[levels, choice], e0)
    return float(occupation @ j_by_action[levels, choice])


def _score_group(band, start_by_action, j_by_action, folds, choices, e0, best) -> np.ndarray:
    """Gain from e0 of every last action of a group of prefixes, (G, |A|).

    Prefix g takes actions ``choices[g]`` on E, and ``folds[g]`` is its fold.
    Chain c of the group is the censored chain on K of one last action. With
    ``_BOUND_SWEEPS`` set, ``_ratio_bounds`` first brackets every chain's
    gain, from v = 0; the incumbent is the larger of ``best`` and the
    largest lower bound, and a chain whose upper bound ``_loses`` to it gets
    -inf and no solve. The laws of the other chains are
    solved in chunks of ``_STACK_ENTRIES`` entries, and then checked at once.
    A chain whose law is not trusted takes the class route.
    """
    n_groups, n, width = folds.shape
    nk = width - 2
    n_acts = start_by_action.shape[1]
    m, mu, tau = folds[..., :nk], folds[..., nk], folds[..., nk + 1]
    # chain c is prefix which[c] with last action act[c]; K charges from starts[c]
    which, act = np.divmod(np.arange(n_groups * n_acts), n_acts)
    starts = start_by_action[n - nk:].T[act]
    # each level's reward and frames until the chain is back in K, that level's included
    earned = mu[which[:, None], starts] + j_by_action[n - nk:].T[act]
    frames = tau[which[:, None], starts] + 1.0
    gains = np.full(n_groups * n_acts, np.nan)  # NaN until the chain is pruned or scored
    if _BOUND_SWEEPS:
        def step(v):
            # P_c v_c is (m[which[c]] @ v_c)[starts[c]]: one product per prefix
            w = m @ v.reshape(n_groups, n_acts, nk).transpose(0, 2, 1)
            return earned + w[which[:, None], starts, act[:, None]]

        lower, upper, _ = _ratio_bounds(step, frames, np.zeros_like(earned))
        gains[_loses(upper, np.fmax.reduce(lower, initial=best))] = -np.inf
    live = np.flatnonzero(np.isnan(gains))
    which, starts = which[live], starts[live]
    pi, residual = np.empty((len(live), nk)), np.empty(len(live))
    batch = max(1, _STACK_ENTRIES // (nk * nk))
    for lo in range(0, len(live), batch):
        censored = m[which[lo:lo + batch, None], starts[lo:lo + batch]]
        law = pi[lo:lo + batch] = _stationary_laws(censored)
        residual[lo:lo + batch] = np.abs(np.einsum("ck,ckj->cj", law, censored) - law).max(axis=1)
    # trusted if every level reaches the law's heaviest level a, so that the chain has
    # one closed class and a lies in it, and the law sums to 1, is not negative, solves
    # its chain and puts no mass off the levels that a reaches, that class (a law on a
    # nearly closed transient set passes the rest). A law that passes the other checks
    # on the one closed class has its heaviest level there, so the same chains are
    # trusted as when that class is found first.
    support = (m > _EDGE_EPS)[which[:, None], starts]
    heaviest = pi.argmax(axis=1)
    stray = np.where(_stack_reach(support, heaviest), 0.0, np.abs(pi)).max(axis=1)
    good = (_stack_reach(support.transpose(0, 2, 1), heaviest).all(axis=1)
            & (pi.min(axis=1) > -1e-10) & (np.abs(pi.sum(axis=1) - 1.0) < 1e-8)
            & (residual < 1e-10) & (stray < 1e-10))
    c, pi = live[good], np.maximum(pi[good], 0.0)
    gains[c] = np.einsum("ck,ck->c", pi, earned[c]) / np.einsum("ck,ck->c", pi, frames[c])
    for i in live[~good]:
        gains[i] = _class_gain(band, start_by_action, j_by_action, choices[i // n_acts],
                               i % n_acts, e0)
    return gains.reshape(n_groups, n_acts)


def _ratio_bounds(step, frames, v):
    """Lower and upper bounds on the gain, from any start, of each chain of a
    stack, and the last v: chain c earns R_c[i] over ``frames[c, i]`` >= 1
    frames at level i, then moves by P_c, and ``step(v)`` gives R_c + P_c v_c
    for each c. A chain may also be an MDP, whose step takes the best action
    at each level.

    Each of the ``_BOUND_SWEEPS`` sweeps, at least one, takes
    d = (step(v) - v) / T and then v + d, from the ``v`` given. That is value
    iteration on Schweitzer's transformed chain, I + (P - I) / T, which
    earns R / T a frame and whose closed classes have the gains of this
    one's (Schweitzer, *J. Math. Anal. Appl.* 34, 1971). So min d and max d
    bracket the gain of every closed class, and so every gain from a start,
    of a multichain chain too; for an MDP, max d bounds the gain of every
    stationary policy (Odoni, *Oper. Res.* 17, 1969; Puterman, *Markov
    Decision Processes*, 1994, §8.5). In exact arithmetic, more sweeps never
    widen the bracket.
    """
    for _ in range(_BOUND_SWEEPS):
        d = (step(v) - v) / frames
        v = v + d
    return d.min(axis=-1), d.max(axis=-1), v


def _loses(bound, incumbent):
    """Whether a gain bound loses to ``incumbent``: it lies below it less a
    relative margin of 1e-9, strictly, so no candidate that ties the winner
    is skipped."""
    return bound < incumbent - 1e-9 * abs(incumbent)


def refine_partition_search(battery, arrivals, cons, reward, actions, partition,
                            e0: int = 0, budget: int = 10 ** 7) -> SearchResult:
    """Two-stage heuristic search: an exhaustive pass over every
    ``_COARSE_STEP``-th action, then one over the actions within
    ``_COARSE_STEP`` of the coarse optimum's, and 0. Keeps
    large-N searches within the enumeration budget, but nothing guarantees
    that it finds the exhaustive search's optimum."""
    acts = actions.as_array()
    coarse = ActionSet(actions=tuple(int(a) for a in acts[::_COARSE_STEP]))
    stage1 = search_partition_policy(
        battery, arrivals, cons, reward, coarse, partition, e0, budget)
    near = {0}
    for a in stage1.best_policy.actions:
        near.update(int(x) for x in acts[np.abs(acts - a) <= _COARSE_STEP])
    refined = ActionSet(actions=tuple(sorted(near)))
    stage2 = search_partition_policy(
        battery, arrivals, cons, reward, refined, partition, e0, budget)
    best = stage2 if stage2.best_reward >= stage1.best_reward else stage1
    return SearchResult(
        best_policy=best.best_policy,
        best_reward=best.best_reward,
        evaluated_count=stage1.evaluated_count + stage2.evaluated_count,
        pruned=stage1.pruned + stage2.pruned,
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


def _beta_star_vec(battery: BatteryModel, bs):
    """Maximum storable increment for arrivals of each of ``bs`` quanta, over
    continuous start levels in [0, e_max]; returns the arrays (a_star, beta).

    The increment is evaluated on the exact charging flow without the
    capacity clip, so overflow is not conflated with storage loss. Coarse
    grid seeding plus bisection on the sign of the increment's slope.
    """
    b_arr = np.asarray(list(bs), dtype=float)
    e_max = battery.e_max
    grid = np.linspace(0.0, e_max, 257)

    inc = _charge_flow(battery, grid, b_arr[:, None], saturate=False) - grid
    k = inc.argmax(axis=1)
    a_lo = grid[np.maximum(k - 1, 0)]
    a_hi = grid[np.minimum(k + 1, len(grid) - 1)]

    def eta(y):
        return _efficiency_unchecked(battery.efficiency, y, e_max)

    # the flow is autonomous, so dy_T/da = eta(y_T(a)) / eta(a) and the increment
    # rises exactly while eta(y_T(a)) > eta(a); bisecting on that sign needs no
    # comparison of increments, whose round-off hides their flat maximum
    while np.max(a_hi - a_lo) > 1e-14 * max(1.0, e_max):
        mid = 0.5 * (a_lo + a_hi)
        end = _charge_flow(battery, mid, b_arr, saturate=False)
        rising = eta(end) > eta(mid)
        a_lo = np.where(rising, mid, a_lo)
        a_hi = np.where(rising, a_hi, mid)
    a_best = np.where(b_arr == 0.0, 0.0, 0.5 * (a_lo + a_hi))
    inc = _charge_flow(battery, a_best, b_arr, saturate=False) - a_best
    beta = np.where(b_arr == 0.0, 0.0, np.maximum(inc, 0.0))
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
