"""Independent oracles for the benchmark's output checks.

NumPy only. Nothing here imports ``ehpolicy``: each quantity is computed by
a different method from the program's, so a fault in the program cannot
hide in the check.

- ``next_state_table``: the tanh closed form of dy/dt = (b/T)·eta(y) for the
  quadratic capacitor, floored with the program's 1e-9 snap (the program
  integrates the same ODE with RK4).
- ``storage_bound``: the closed-form storable increment 2s·tanh(b/2s) with
  s = (e_max/2)·sqrt(beta_nl) (the program runs a grid plus golden-section
  search over start levels).
- ``gain_from``: the Cesaro-limit gain from ``e0`` by transitive closure,
  least-squares class laws and absorption weights (the program uses graph
  search, a unichain guess and dense solves).
- ``perfect_knowledge_optimum``: Howard policy iteration (the program runs
  relative value iteration).
"""

from __future__ import annotations

import numpy as np

FLOOR_EPS = 1e-9  # snap before flooring, so exact integer levels stay put


# ---------------------------------------------------------------------------
# Charging flow and storage bound (quadratic capacitor)
# ---------------------------------------------------------------------------

def _tanh_scale(e_max: int, beta_nl: float) -> float:
    return 0.5 * e_max * np.sqrt(beta_nl)


def charge_level(y0, b, e_max: int, beta_nl: float):
    """Unsaturated end-of-frame level from ``y0`` after ``b`` quanta arrive.

    With u = y - e_max/2 and s = (e_max/2)·sqrt(beta_nl), the flow over one
    frame is du/dtau = b·(1 - u²/s²), whose solution is
    u(1) = s·tanh(b/s + artanh(u0/s)).
    """
    half = 0.5 * e_max
    s = _tanh_scale(e_max, beta_nl)
    u0 = np.asarray(y0, dtype=float) - half
    return half + s * np.tanh(np.asarray(b, dtype=float) / s + np.arctanh(u0 / s))


def next_state_table(e_max: int, beta_nl: float, b_max: int) -> np.ndarray:
    """Table[e, b]: whole quanta after charging ``b`` from level ``e``, capped at e_max.

    The flow is increasing, so saturating at e_max equals capping the
    unsaturated end level.
    """
    starts = np.arange(e_max + 1, dtype=float)[:, None]
    arrivals = np.arange(b_max + 1, dtype=float)[None, :]
    y = np.minimum(charge_level(starts, arrivals, e_max, beta_nl), e_max)
    return np.minimum(np.floor(y + FLOOR_EPS), e_max).astype(np.int64)


def storable_increments(e_max: int, beta_nl: float, b_max: int) -> np.ndarray:
    """Largest increment an arrival of b quanta can store, b = 0..b_max.

    The increment s·tanh(b/s + artanh(u0/s)) - u0 peaks where the start and
    end levels sit symmetrically about e_max/2, at u0 = -s·tanh(b/2s), which
    gives 2s·tanh(b/2s). The peak must lie inside [0, e_max].
    """
    s = _tanh_scale(e_max, beta_nl)
    arrivals = np.arange(b_max + 1, dtype=float)
    if s * np.tanh(arrivals[-1] / (2.0 * s)) > 0.5 * e_max:
        raise ValueError("the storable-increment peak lies outside [0, e_max]")
    return 2.0 * s * np.tanh(arrivals / (2.0 * s))


def storage_bound(pmf, e_max: int, beta_nl: float) -> float:
    """Arrival-averaged largest storable increment, b̄_s = Σ_b p_b·2s·tanh(b/2s)."""
    pmf = np.asarray(pmf, dtype=float)
    return float(pmf @ storable_increments(e_max, beta_nl, len(pmf) - 1))


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------

def log_snr_rate(rho, snr_scale: float):
    """ln(1 + snr_scale·rho) nats per frame."""
    return np.log(1.0 + snr_scale * np.asarray(rho, dtype=float))


def shannon_rate(rho, bandwidth: float, noise_density: float, channel_gain: float,
                 slot_length: float, frame_length: float, quantum_joules: float):
    """Duty-cycled Shannon rate in bit/s for ``rho`` quanta spent over the slot."""
    watts = np.asarray(rho, dtype=float) * quantum_joules / slot_length
    snr = channel_gain * watts / (bandwidth * noise_density)
    return (slot_length / frame_length) * bandwidth * np.log2(1.0 + snr)


# ---------------------------------------------------------------------------
# Markov chain of a policy
# ---------------------------------------------------------------------------

def charge_rows(table: np.ndarray, pmf) -> np.ndarray:
    """Row a: distribution of the level after charging from level a."""
    pmf = np.asarray(pmf, dtype=float)
    n = table.shape[0]
    rows = np.zeros((n, n))
    levels = np.arange(n)
    for b, p in enumerate(pmf):
        rows[levels, table[:, b]] += p  # one entry per row for each b
    return rows


def policy_chain(table, pmf, state_actions, state_consumption, rate):
    """Transition matrix and per-state reward of a deterministic per-state policy.

    Every frame drains the consumption (clipped at empty) before charging;
    the reward ``rate(action)`` is earned only when the level covers the
    consumption, and idling (action 0) earns nothing.
    """
    acts = np.asarray(state_actions, dtype=np.int64)
    cons = np.asarray(state_consumption, dtype=np.int64)
    levels = np.arange(len(acts))
    transition = charge_rows(table, pmf)[np.maximum(levels - cons, 0)]
    paid = (acts > 0) & (cons <= levels)
    reward = np.where(paid, np.asarray(rate(acts), dtype=float), 0.0)
    return transition, reward


def _reachable(adjacent: np.ndarray, start: int) -> np.ndarray:
    seen = np.zeros(len(adjacent), dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = np.flatnonzero(adjacent[frontier].any(axis=0) & ~seen)
        seen[nxt] = True
        frontier = list(nxt)
    return np.flatnonzero(seen)


def _closure(adjacent: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by repeated squaring."""
    reach = adjacent | np.eye(len(adjacent), dtype=bool)
    while True:
        as_float = reach.astype(float)
        nxt = (as_float @ as_float) > 0.0
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


def occupation_from(transition, e0: int) -> np.ndarray:
    """Cesaro-limit state occupation of a finite chain started at ``e0``.

    The limit mixes the stationary law of each closed class reachable from
    ``e0`` with the probability of being absorbed into that class.
    """
    p = np.asarray(transition, dtype=float)
    n = len(p)
    idx = _reachable(p > 0.0, e0)
    sub = p[np.ix_(idx, idx)]
    reach = _closure(sub > 0.0)
    recurrent = ~np.any(reach & ~reach.T, axis=1)
    start = int(np.searchsorted(idx, e0))

    classes = []
    unassigned = recurrent.copy()
    while unassigned.any():
        i = int(np.flatnonzero(unassigned)[0])
        members = reach[i] & reach[:, i]
        classes.append(np.flatnonzero(members))
        unassigned &= ~members

    transient = np.flatnonzero(~recurrent)
    pi = np.zeros(n)
    for members in classes:
        k = len(members)
        block = sub[np.ix_(members, members)]
        system = np.vstack([block.T - np.eye(k), np.ones((1, k))])
        rhs = np.zeros(k + 1)
        rhs[-1] = 1.0
        law = np.linalg.lstsq(system, rhs, rcond=None)[0]
        if recurrent[start]:
            weight = 1.0 if start in members else 0.0
        else:
            q = sub[np.ix_(transient, transient)]
            into = sub[np.ix_(transient, members)].sum(axis=1)
            absorbed = np.linalg.solve(np.eye(len(transient)) - q, into)
            weight = float(absorbed[int(np.flatnonzero(transient == start)[0])])
        pi[idx[members]] += weight * law
    return pi


def gain_from(transition, reward, e0: int = 0) -> float:
    """Long-run average reward of the chain started at ``e0``."""
    return float(occupation_from(transition, e0) @ np.asarray(reward, dtype=float))


# ---------------------------------------------------------------------------
# Perfect-knowledge optimum
# ---------------------------------------------------------------------------

def perfect_knowledge_optimum(table, pmf, actions, consumption, rate,
                              max_iterations: int = 200):
    """Howard policy iteration for the average-reward optimum over per-state actions.

    Each policy is evaluated from g + h = r + P·h with h(0) = 0, which needs
    a single recurrent class: an iterate with more raises LinAlgError rather
    than report a wrong gain. The first policy spends the whole level every
    frame; the improvement step keeps the current action unless another is
    better by more than round-off. Returns (gain, state_actions, iterations).
    """
    acts = np.asarray(actions, dtype=np.int64)
    cons = np.asarray(consumption, dtype=np.int64)
    rows = charge_rows(table, pmf)
    n = rows.shape[0]
    levels = np.arange(n)
    start_of = np.maximum(levels[:, None] - cons[None, :], 0)
    paid = (acts[None, :] > 0) & (cons[None, :] <= levels[:, None])
    frame_reward = np.where(paid, np.asarray(rate(acts), dtype=float)[None, :], 0.0)

    choice = frame_reward.argmax(axis=1)
    for iteration in range(1, max_iterations + 1):
        transition = rows[start_of[levels, choice]]
        reward = frame_reward[levels, choice]
        system = np.eye(n) - transition
        system[:, 0] = 1.0  # h(0) = 0, so column 0 carries the gain instead
        solution = np.linalg.solve(system, reward)
        if not np.allclose(system @ solution, reward, rtol=0.0, atol=1e-9):
            raise np.linalg.LinAlgError("policy evaluation needs a unichain policy")
        gain = float(solution[0])
        bias = np.concatenate([[0.0], solution[1:]])
        q = frame_reward + (rows @ bias)[start_of]
        best = q.max(axis=1)
        keep = q[levels, choice] >= best - 1e-10 * max(1.0, float(np.abs(q).max()))
        improved = np.where(keep, choice, q.argmax(axis=1))
        if np.array_equal(improved, choice):
            return gain, acts[choice], iteration
        choice = improved
    raise RuntimeError(f"policy iteration did not settle in {max_iterations} iterations")
