"""Shared oracles: independent second methods for what the library computes.

- ``rk4_levels``: a plain fixed-step RK4 of the charging ODE; the library
  charges with the exact flow of each efficiency profile.
- ``long_run_average``: power iteration by squaring for the limiting
  occupation; the library finds recurrent classes by graph search and
  solves them directly.
- ``walk_reference``: the levels a walk visits one frame at a time; the
  library steps lanes of frames at once, coupling each lane to the previous
  lane's end.
- ``simulate_reference``: the Monte Carlo run by that walk on draws searched
  in the arrival CDF; the library samples by bucketed inverse CDF.
- ``rvi_reference``: relative value iteration on the half-lazy kernel; the
  library runs Howard policy iteration.
- ``dense_charge_rows``: the charge matrix as a dense (e_max+1)^2 array,
  scattered from the next-state table; the library stores its band of
  b_max+1 offsets per level.
- ``build_chain``: a policy's whole chain as a dense transition matrix; the
  library gathers only the block reachable from ``e0``.
- ``attained_reward``: the reward rule for one level and one power; the
  library applies it to whole arrays at once.
- ``gth_gain``: Grassmann-Taksar-Heyman elimination on the closed class
  reached from ``e0``, which subtracts nothing; the library solves its
  laws by LU, which loses the tiny leaks of nearly decomposable chains.

Also ``to_yaml``, a config written back as YAML for the round-trip and
config-file tests; the library only reads YAML.
"""

import numpy as np
import pytest
import yaml

from ehpolicy.chain import (
    SimulationReport,
    StatePolicy,
    _check_stochastic,
    _level_tables,
    consumption_vector,
)
from ehpolicy.core import _efficiency_unchecked, next_state_table
from ehpolicy.errors import ConvergenceError, DomainError, NumericError


def to_yaml(cfg) -> str:
    """A scenario config as the YAML text that ``ScenarioConfig.from_yaml`` reads back."""
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True)


def dense_charge_rows(battery, arrivals):
    """Dense charge matrix: row s is the law of the level a frame that charges
    from level s ends at, each arrival b adding its chance at its next state."""
    table = next_state_table(battery, arrivals.b_max)
    pmf = arrivals.pmf_array()
    n = battery.e_max + 1
    rows = np.zeros((n, n))
    levels = np.arange(n)
    for b in range(arrivals.b_max + 1):
        np.add.at(rows, (levels, table[:, b]), pmf[b])
    return rows


def square_stochastic(transition):
    """``transition`` as a float matrix, refused unless it is square and each
    row is a law; the library's check takes the rows of a band too."""
    p = _check_stochastic(transition)
    if p.shape[0] != p.shape[1]:
        raise NumericError("transition matrix must be square")
    return p


def build_chain(battery, arrivals, cons, reward, policy):
    """Dense transition matrix of a policy's whole chain, and its per-state
    reward vector: row e is the charge row of the level e charges from.

    Returns (transition, state_reward); rows of ``transition`` sum to 1.
    """
    starts, state_reward = _level_tables(cons, reward, policy, battery.e_max)
    return dense_charge_rows(battery, arrivals)[starts], state_reward


def attained_reward(reward, cons, rho, e, actions=None):
    """Reward earned in a frame: r(rho) on success, 0 if the battery cannot cover it."""
    if actions is not None and rho not in actions:
        raise DomainError(f"tx power {rho} not in action set")
    if rho < 0:
        raise DomainError("tx power must be nonnegative")
    if rho == 0:
        return 0.0
    if cons.consumption(rho) <= e:
        return float(reward.rate(rho))
    return 0.0


def gth_gain(transition, state_reward, e0):
    """Gain from ``e0`` by Grassmann-Taksar-Heyman elimination (*Oper. Res.*
    33(5), 1985) on the one closed class that ``e0`` reaches.

    Every positive entry is an edge. Eliminating from the top level down,
    each pivot is the row's remaining mass to the levels below it, so
    nothing is subtracted and a leak of 1e-200 between two nearly closed
    halves keeps its digits. Raises unless ``e0`` reaches exactly one
    closed class.
    """
    p = square_stochastic(transition)
    n = len(p)
    if not 0 <= e0 < n:
        raise DomainError(f"initial state {e0} out of range")
    # transitive closure by squaring: paths of up to 2^n.bit_length() >= n steps
    reach = (p > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    # a level is in a closed class iff every level it reaches reaches it back
    levels = np.flatnonzero(reach[e0] & (reach <= reach.T).all(axis=1))
    if not reach[np.ix_(levels, levels)].all():
        raise DomainError(f"level {e0} reaches more than one closed class")
    a = p[np.ix_(levels, levels)].copy()
    for k in range(len(a) - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(len(a))
    pi[0] = 1.0
    for k in range(1, len(a)):
        pi[k] = pi[:k] @ a[:k, k]
    pi /= pi.sum()
    return float(pi @ np.asarray(state_reward, dtype=float)[levels])


def rk4_levels(battery, y0, b, steps):
    """Unclipped end-of-frame level of dy/dt = (b/T) eta(y), broadcast over ``y0``, ``b``.

    Time is normalized to the frame, so this integrates dy/ds = eta(y) up to s = b.
    """
    y = np.asarray(y0, dtype=float)
    h = np.asarray(b, dtype=float) / steps

    def f(yy):
        return _efficiency_unchecked(battery.efficiency, yy, battery.e_max)

    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def long_run_average(transition, state_reward, e0, max_squarings=128):
    """Limiting occupation from a point mass at ``e0`` and the induced average reward.

    Power iteration by repeated squaring on the lazy kernel (P + I)/2, which
    has the same recurrent classes, per-class stationary laws and absorption
    weights as P but is aperiodic, so its powers converge and periodic
    chains do not stall. After k squarings, row ``e0`` is the law after 2^k
    lazy frames, and each squaring renormalizes the rows against round-off.
    The iteration stops once a squaring moves that row by less than 1e-14
    in L1 norm: the row has reached the lazy chain's fixed point, which is
    the Cesaro limit. A leak too slow to move the row that much in one
    squaring goes unseen, as with any stop on the step. Returns (g, pi).
    """
    p = square_stochastic(transition)
    r = np.asarray(state_reward, dtype=float)
    n = p.shape[0]
    if not 0 <= e0 < n:
        raise DomainError(f"initial state {e0} out of range")

    power = 0.5 * (p + np.eye(n))
    power /= power.sum(axis=1, keepdims=True)
    for _ in range(max_squarings):
        row = power[e0].copy()
        power = power @ power
        power /= power.sum(axis=1, keepdims=True)
        step = np.abs(power[e0] - row).sum()
        if step < 1e-14:
            break
    else:
        raise ConvergenceError(f"occupation did not converge in {max_squarings} squarings")

    pi = np.maximum(power[e0], 0.0)
    pi /= pi.sum()
    return float(pi @ r), pi


def walk_reference(next_level, draws, e0):
    """Levels visited one frame at a time from ``e0``: a frame that starts at
    level e and draws b arrivals ends at ``next_level[e, b]``."""
    rows = np.asarray(next_level).tolist()
    states = np.empty(len(draws), dtype=np.int64)
    e = int(e0)
    for k, b in enumerate(np.asarray(draws).tolist()):
        states[k] = e
        e = rows[e][b]
    return states


def simulate_reference(battery, arrivals, cons, reward, policy, frames, seed, e0=0):
    """Monte Carlo run searching every arrival in the CDF up front and stepping frame by frame."""
    rng = np.random.default_rng(seed)
    table = next_state_table(battery, arrivals.b_max)
    acts = policy.action_vector(battery.e_max)
    dvec = consumption_vector(policy, cons, battery.e_max)
    jvec = np.array([
        attained_reward(reward, cons, int(a), e) for e, a in enumerate(acts)
    ])
    next_level = [table[max(0, e - dvec[e])] for e in range(battery.e_max + 1)]

    draws = np.searchsorted(arrivals.cdf_array(), rng.random(frames), side="right")
    rewards = jvec[walk_reference(next_level, draws, e0)]
    n_batches = min(200, frames)
    batch = frames // n_batches
    means = rewards[: n_batches * batch].reshape(n_batches, batch).mean(axis=1)
    se = float(means.std(ddof=1) / np.sqrt(n_batches)) if n_batches > 1 else float("nan")
    return SimulationReport(frames=frames, empirical_reward=float(rewards.mean()), std_error=se)


def rvi_reference(battery, arrivals, cons, reward, actions,
                  span_tol=1e-9, max_sweeps=10 ** 5):
    """Relative value iteration on the half-lazy kernel, one fresh Q array per sweep."""
    n = battery.e_max + 1
    acts = actions.as_array()
    dcons = np.array([cons.consumption(int(a)) for a in acts], dtype=np.int64)
    states = np.arange(n)
    start_of = np.maximum(states[:, None] - dcons[None, :], 0)
    feasible = dcons[None, :] <= states[:, None]
    rates = np.asarray(reward.rate(acts), dtype=float)
    j = np.where(feasible, rates[None, :], 0.0)

    rows = dense_charge_rows(battery, arrivals)
    h = np.zeros(n)
    for _ in range(max_sweeps):
        z = rows @ h
        q = j + 0.5 * h[:, None] + 0.5 * z[start_of]
        h_new = q.max(axis=1)
        h_new -= h_new[0]
        delta = h_new - h
        span = float(delta.max() - delta.min())
        h = h_new
        if span < span_tol:
            break
    else:
        raise ConvergenceError(
            f"relative value iteration did not converge in {max_sweeps} sweeps")

    z = rows @ h
    q = j + 0.5 * h[:, None] + 0.5 * z[start_of]
    best = q.max(axis=1)
    greedy = (q >= best[:, None] - 1e-12).argmax(axis=1)
    return StatePolicy(actions=tuple(int(acts[i]) for i in greedy))


@pytest.fixture
def rk4_charge():
    return rk4_levels


@pytest.fixture
def power_iteration():
    return long_run_average


@pytest.fixture
def simulate_oracle():
    return simulate_reference


@pytest.fixture
def rvi_oracle():
    return rvi_reference
