"""Finite Markov chain induced by a transmission policy.

Builds the policy-independent charge matrix over battery levels, evaluates
the long-run average reward from a given initial charge (robust to reducible
chains, e.g. the failed-transmission trap), and cross-validates the
analytic value with Monte Carlo simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .core import (
    ArrivalModel,
    BatteryModel,
    ConsumptionMap,
    RewardModel,
    _is_int,
    _spend_tables,
    next_state_table,
    sample_arrivals,
)
from .errors import ConfigurationError, DomainError, NumericError

_EDGE_EPS = 1e-15  # probabilities below this do not count as edges
_MIN_LANE = 256  # frames per lane of simulate at least; shorter runs are one lane
_MAX_FRAMES = 10 ** 8  # frames per simulate run at most; it peaks at 10-13 bytes a frame


# ---------------------------------------------------------------------------
# Graph kernels on dense boolean supports
# ---------------------------------------------------------------------------

def _reach(support: np.ndarray, sources) -> np.ndarray:
    """Mask of the levels reachable from ``sources`` (a level, index array or
    mask) along the boolean ``support``, the sources included.

    Each step adds every successor of the last step's new levels. Pass the
    transposed support to find the levels that reach ``sources``.
    """
    seen = np.zeros(len(support), dtype=bool)
    seen[sources] = True
    frontier = seen
    while frontier.any():
        frontier = support[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def _closed_classes(support: np.ndarray) -> list:
    """Closed classes of the chain with boolean ``support``, each as its sorted
    levels, in order of their lowest level.

    From an unresolved level u, R = reach(u). If some levels of R cannot
    reach u, u and every level that reaches it are transient; the search
    moves to the middle one of those levels, whose reach set lies among them.
    Taking the middle one halves a transient path of levels in a few moves,
    where the lowest one would step along it level by level. Once every
    level of R reaches u, R is a closed class, and every level that reaches
    it is resolved.
    """
    back = np.ascontiguousarray(support.T)
    resolved = np.zeros(len(support), dtype=bool)
    classes = []
    for start in range(len(support)):
        if resolved[start]:
            continue
        u = start
        ahead = _reach(support, u)
        while True:
            behind = _reach(back, u)
            escape = ahead & ~behind
            if not escape.any():
                break
            resolved |= behind
            escape = np.flatnonzero(escape)
            u = int(escape[len(escape) // 2])
            ahead = _reach(support, u)
        classes.append(np.flatnonzero(ahead))
        resolved |= _reach(back, ahead)
    return sorted(classes, key=lambda levels: levels[0])


def _stack_reach(support: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Mask (c, k) of the levels that chain i of a stack of boolean supports
    (c, k, k) reaches from level ``sources[i]``, the source included.

    Every chain steps as ``_reach`` does, by the rows of the levels that its
    last step found, so a chain whose last step found none is done. Pass the
    transposed stack to find the levels that reach each source.
    """
    seen = np.zeros(support.shape[:2], dtype=bool)
    chains, levels = np.arange(len(seen)), np.asarray(sources)
    seen[chains, levels] = True
    while len(chains):
        # the last step's new levels, in order of their chain
        first = np.flatnonzero(np.diff(chains, prepend=-1))
        live = chains[first]
        found = np.logical_or.reduceat(support[chains, levels], first, axis=0) & ~seen[live]
        seen[live] |= found
        chains, levels = np.nonzero(found)
        chains = live[chains]
    return seen


# ---------------------------------------------------------------------------
# Stationary laws
# ---------------------------------------------------------------------------

def _stationary_laws(p: np.ndarray) -> np.ndarray:
    """Stationary law of each chain of a stack (..., k, k): the solution of
    pi P = pi with its last equation replaced by sum(pi) = 1.

    The system is regular iff the chain has one closed class; no check is
    made here. An exactly singular chain gets a NaN law, and only that one.
    """
    k = p.shape[-1]
    a = np.swapaxes(p, -1, -2) - np.eye(k)
    a[..., -1, :] = 1.0
    rhs = np.zeros((k, 1))
    rhs[-1] = 1.0
    try:
        return np.linalg.solve(a, np.broadcast_to(rhs, a.shape[:-1] + (1,)))[..., 0]
    except np.linalg.LinAlgError:
        # one by one, so that only an exactly singular chain fails, by its NaN law
        laws = np.full(a.shape[:-1], np.nan)
        for at in np.ndindex(a.shape[:-2]):
            try:
                laws[at] = np.linalg.solve(a[at], rhs)[:, 0]
            except np.linalg.LinAlgError:
                pass
        return laws


# ---------------------------------------------------------------------------
# Observation partition and policies
# ---------------------------------------------------------------------------

def _integers(what: str, values) -> tuple:
    """``values`` as a tuple of ints; ConfigurationError unless each is an
    integer, since ``int()`` would truncate 2.7 to 2 and count True as 1."""
    values = tuple(values)
    if not all(_is_int(v) for v in values):
        raise ConfigurationError(f"{what} must be integers, got {values!r}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class Partition:
    """Contiguous partition of the battery levels {0..e_max} into N observable subsets.

    ``starts[i]`` is the lowest level of subset i; subsets cover the range
    exactly and in order.
    """

    e_max: int
    starts: tuple

    def __post_init__(self):
        starts = _integers("subset starts", self.starts)
        object.__setattr__(self, "starts", starts)
        if not starts or starts[0] != 0:
            raise ConfigurationError("first subset must start at level 0")
        if list(starts) != sorted(set(starts)):
            raise ConfigurationError("subset starts must be strictly increasing")
        if starts[-1] > self.e_max:
            raise ConfigurationError("subset start beyond e_max")

    @classmethod
    def uniform(cls, e_max: int, n_subsets: int) -> "Partition":
        """Near-equal contiguous split; earlier subsets take the extra state.

        For N=2 this yields LOW = {0..floor(e_max/2)} and HIGH above it.
        """
        if not 1 <= n_subsets <= e_max + 1:
            raise ConfigurationError(f"n_subsets must be in [1, {e_max + 1}]")
        pieces = np.array_split(np.arange(e_max + 1), n_subsets)
        return cls(e_max=e_max, starts=tuple(int(p[0]) for p in pieces))

    @property
    def n_subsets(self) -> int:
        return len(self.starts)

    def subsets(self):
        """List of integer arrays, one per subset."""
        bounds = list(self.starts) + [self.e_max + 1]
        return [np.arange(bounds[i], bounds[i + 1]) for i in range(self.n_subsets)]

    def labels(self) -> np.ndarray:
        """Observation map psi: level -> subset index, as an array over {0..e_max}."""
        out = np.empty(self.e_max + 1, dtype=np.int64)
        for i, sub in enumerate(self.subsets()):
            out[sub] = i
        return out


@dataclass(frozen=True)
class StatePolicy:
    """Deterministic tx power per battery level (perfect SoC knowledge)."""

    actions: tuple

    def __post_init__(self):
        object.__setattr__(self, "actions", _integers("policy actions", self.actions))

    @property
    def e_max(self) -> int:
        return len(self.actions) - 1

    def action_vector(self, e_max: int) -> np.ndarray:
        if e_max != self.e_max:
            raise ConfigurationError(
                f"policy defined for e_max={self.e_max}, scenario has {e_max}")
        return np.asarray(self.actions, dtype=np.int64)


@dataclass(frozen=True)
class PartitionPolicy:
    """Deterministic tx power per observable subset (imperfect SoC knowledge)."""

    partition: Partition
    actions: tuple

    def __post_init__(self):
        object.__setattr__(self, "actions", _integers("policy actions", self.actions))
        if len(self.actions) != self.partition.n_subsets:
            raise ConfigurationError("one action per subset required")

    def action_vector(self, e_max: int) -> np.ndarray:
        if e_max != self.partition.e_max:
            raise ConfigurationError(
                f"policy partition has e_max={self.partition.e_max}, scenario has {e_max}")
        return np.asarray(self.actions, dtype=np.int64)[self.partition.labels()]


Policy = Union[StatePolicy, PartitionPolicy]


# ---------------------------------------------------------------------------
# Chain construction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def charge_matrix(battery: BatteryModel, arrivals: ArrivalModel) -> np.ndarray:
    """The charge rows as a band: ``band[s, d]`` is the chance that a frame
    charging from level ``s`` ends at level ``s + d``, for d = 0..b_max.

    Any policy's transition row for state e under consumption D is the
    charge row at max(0, e - D), so the band is policy-independent. A frame
    stores at most the quanta that arrive (no efficiency exceeds 1) and
    loses none, so the dense row at s is zero outside [s, s + b_max], and
    the band holds (e_max + 1) x (b_max + 1) entries where the dense matrix
    holds (e_max + 1)^2. ``_gather_band`` on every level expands it.
    """
    table = next_state_table(battery, arrivals.b_max)
    pmf = arrivals.pmf_array()
    n, width = table.shape
    starts = np.arange(n)
    offsets = table - starts[:, None]
    if offsets.min() < 0 or offsets.max() >= width:
        raise NumericError("a frame's charge fell or rose by more than its arrivals")
    band = np.zeros((n, width))
    for b in range(width):
        np.add.at(band, (starts, offsets[:, b]), pmf[b])
    return _check_stochastic(band, square=False)


def _band_product(band: np.ndarray, v: np.ndarray, at=None) -> np.ndarray:
    """P v for the dense charge matrix P that ``band`` stores, or its entries
    at the levels ``at`` alone: entry s is the sum over d of band[s, d] v[s + d]."""
    n, width = band.shape
    padded = np.zeros(n + width - 1)
    padded[:n] = v
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)
    if at is not None:
        band, windows = band[at], windows[at]
    return np.einsum("sd,sd->s", band, windows)


def consumption_vector(policy: Policy, cons: ConsumptionMap, e_max: int) -> np.ndarray:
    acts = policy.action_vector(e_max)
    return np.asarray([cons.consumption(int(a)) for a in acts], dtype=np.int64)


def _level_tables(cons: ConsumptionMap, reward: RewardModel, policy: Policy, e_max: int):
    """Per level under ``policy``: the level it charges from after spending,
    and the reward it earns in the frame."""
    rates = np.asarray(reward.rate(policy.action_vector(e_max)), dtype=float)
    return _spend_tables(np.arange(e_max + 1), consumption_vector(policy, cons, e_max), rates)


def _gather_block(rows: np.ndarray, starts: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The block on the sorted ``levels`` of the chain whose level e charges
    from ``starts[e]``, gathered at block size: entry (i, j) is
    ``rows[starts[levels[i]], levels[j]]``."""
    if levels[-1] - levels[0] < len(levels):
        # a run of consecutive levels is gathered by a slice, several times
        # faster than by a pair of index arrays
        at = slice(levels[0], levels[-1] + 1)
        return rows[starts[at], at]
    return rows[np.ix_(starts[levels], levels)]


def _gather_band(band: np.ndarray, starts: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``_gather_block`` on the dense rows that ``band`` stores, gathered from
    the band: entry (i, j) is ``band[s, levels[j] - s]`` with s =
    ``starts[levels[i]]``, and 0 where that offset lies outside the band. A
    boolean band gives the block's boolean support."""
    src = starts[levels]
    # row i's entries lie on the levels lo[i]..hi[i]-1 of ``levels``
    lo = np.searchsorted(levels, src)
    hi = np.searchsorted(levels, src + band.shape[1] - 1, side="right")
    counts = hi - lo
    i = np.repeat(np.arange(len(levels)), counts)
    j = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    block = np.zeros((len(levels), len(levels)), dtype=band.dtype)
    block[i, j] = band[src[i], levels[j] - src[i]]
    return block


# ---------------------------------------------------------------------------
# Long-run average reward
# ---------------------------------------------------------------------------

def _check_stochastic(rows: np.ndarray, square: bool = True) -> np.ndarray:
    """``rows`` as a float array, refused unless each row is a law: finite,
    nonnegative and summing to 1; ``square`` also requires a square matrix."""
    p = np.asarray(rows, dtype=float)
    if square and (p.ndim != 2 or p.shape[0] != p.shape[1]):
        raise NumericError("transition matrix must be square")
    # NaN fails every comparison below, so it is refused on its own
    if not np.isfinite(p).all():
        raise NumericError("transition matrix has a non-finite entry")
    if np.any(p < -1e-12) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-10):
        raise NumericError("transition matrix is not row-stochastic")
    return p


def _check_start(e0, n: int) -> None:
    """Refuse an initial state ``e0`` that is not one of the n levels."""
    if not _is_int(e0) or not 0 <= e0 < n:
        raise DomainError(f"initial state must be an integer in [0, {n}), got {e0!r}")


def exact_occupation(rows: np.ndarray, starts, e0: int) -> np.ndarray:
    """Algebraic limiting occupation from ``e0`` of the chain whose level e
    charges from ``starts[e]``, so that its transition row at e is
    ``rows[starts[e]]``: absorption weights into each recurrent class
    reachable from e0, times the class stationary laws. A dense transition
    matrix is the case ``starts = np.arange(n)``.

    This is the Cesaro limit of the state distribution started at e0, found
    by graph search and dense solves rather than by iterating the chain.
    Only the block on the levels reachable from e0 is gathered and solved,
    by ``_block_occupation``.
    """
    rows = _check_stochastic(rows)
    n = len(rows)
    starts = np.asarray(starts)
    if (starts.shape != (n,) or not np.issubdtype(starts.dtype, np.integer)
            or not np.all((0 <= starts) & (starts < n))):
        raise DomainError(f"starts must be {n} levels in [0, {n})")
    _check_start(e0, n)
    levels = np.flatnonzero(_reach(np.take(rows > _EDGE_EPS, starts, axis=0), e0))
    return _block_occupation(_gather_block(rows, starts, levels), levels, e0, n)


def _block_occupation(p: np.ndarray, levels: np.ndarray, e0: int, n: int) -> np.ndarray:
    """Limiting occupation from ``e0``, over all n levels, of a chain whose
    block on the sorted ``levels`` that e0 reaches is ``p``."""
    e0 = int(np.searchsorted(levels, e0))
    classes = _closed_classes(p > _EDGE_EPS)

    if len(classes) == 1:
        # absorption is certain, so the lone reachable recurrent class gets
        # weight 1 without solving the (possibly ill-conditioned) transient block;
        # so does a class holding e0, since every level reached lies in it
        weights = [(classes[0], 1.0)]
    else:
        trans = np.setdiff1d(np.arange(len(p)), np.concatenate(classes))
        q = p[np.ix_(trans, trans)]
        lhs = np.eye(len(trans)) - q
        start = int(np.searchsorted(trans, e0))
        weights = [(c, float(np.linalg.solve(lhs, p[np.ix_(trans, c)].sum(axis=1))[start]))
                   for c in classes]
        total = sum(max(w, 0.0) for _, w in weights)
        if not math.isfinite(total) or total <= 0.0:
            raise NumericError("absorption-weight solve failed on an "
                               "ill-conditioned transient block")
        weights = [(c, max(w, 0.0) / total) for c, w in weights]

    pi = np.zeros(n)
    for c, w in weights:
        pi[levels[c]] += w * _stationary_laws(p[np.ix_(c, c)])
    if np.isnan(pi).any():
        raise NumericError("stationary solve failed: a closed class is exactly singular")
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    return pi


def evaluate_policy(battery: BatteryModel, arrivals: ArrivalModel, cons: ConsumptionMap,
                    reward: RewardModel, policy: Policy, e0: int = 0) -> float:
    """Long-run average reward per frame of a policy's chain from ``e0``: the
    limiting occupation that ``exact_occupation`` finds, times the reward of
    each level. The block reachable from e0 is gathered from the charge band
    and solved by ``_block_occupation``; no n x n float array is formed."""
    n = battery.e_max + 1
    _check_start(e0, n)
    band = charge_matrix(battery, arrivals)
    starts, state_reward = _level_tables(cons, reward, policy, battery.e_max)
    levels = np.flatnonzero(_reach(_gather_band(band > _EDGE_EPS, starts, np.arange(n)), e0))
    occupation = _block_occupation(_gather_band(band, starts, levels), levels, e0, n)
    return float(occupation @ state_reward)


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationReport:
    frames: int
    empirical_reward: float
    std_error: float


def simulate(battery: BatteryModel, arrivals: ArrivalModel, cons: ConsumptionMap,
             reward: RewardModel, policy: Policy, frames: int, seed: int,
             e0: int = 0) -> SimulationReport:
    """Run ``frames`` frames of the battery recursion from E_0 = e0 with sampled arrivals.

    The standard error of the mean reward uses batch means (the reward
    series is Markov-correlated, so the i.i.d. formula would be too tight).

    The frames are laid out as lanes of about sqrt(frames) frames each, and
    all lanes step at once, lane 0 from e0 and the others from an empty
    battery. A lane whose guessed start was wrong is stepped again from the
    previous lane's end until it meets its first path: from there on the
    two paths see the same arrivals, so they are the same (the grand
    coupling of Propp and Wilson, 1996). A lane that never meets its first
    path changes its end, so its true path is stepped on into the next lanes
    until it meets a recorded one, which bounds that walk by the coupling
    time rather than the rest of the run. The visited levels equal those of
    a walk one frame at a time.
    """
    if not _is_int(frames) or not 1 <= frames <= _MAX_FRAMES:
        raise DomainError(f"frames must be an integer in [1, {_MAX_FRAMES}], got {frames!r}")
    if not _is_int(seed) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    if not _is_int(e0) or not 0 <= e0 <= battery.e_max:
        raise DomainError(
            f"initial state must be an integer in [0, {battery.e_max}], got {e0!r}")
    rng = np.random.default_rng(seed)
    table = next_state_table(battery, arrivals.b_max)
    starts, jvec = _level_tables(cons, reward, policy, battery.e_max)

    # a level e is stepped as its offset e·width in the flat table step:
    # step[e·width + b] is the offset after a frame that starts at e and
    # harvests b quanta
    width = arrivals.b_max + 1
    step = (table[starts] * width).astype(np.min_scalar_type(table.size)).ravel()

    # the draws, the lanes and their paths are freed before the rewards exist
    states = _walk_lanes(step, sample_arrivals(arrivals, rng, frames), e0 * width)
    states //= width
    rewards = jvec[states]
    mean = float(rewards.mean())

    n_batches = min(200, frames)
    batch = frames // n_batches
    means = rewards[: n_batches * batch].reshape(n_batches, batch).mean(axis=1)
    se = float(means.std(ddof=1) / np.sqrt(n_batches)) if n_batches > 1 else float("nan")
    return SimulationReport(frames=frames, empirical_reward=mean, std_error=se)


def _walk_lanes(step: np.ndarray, draws: np.ndarray, start: int) -> np.ndarray:
    """Offsets visited frame by frame, from offset ``start``, on the flat table
    ``step`` under the arrivals ``draws``, found by the coupled lanes that
    ``simulate`` describes."""
    frames = len(draws)
    length = max(math.isqrt(frames), _MIN_LANE)
    n_lanes = -(-frames // length)
    # (frame, lane): lane i draws frames i·length onwards, and the last is
    # padded; written in place, with no lane-major copy
    lanes = np.zeros((length, n_lanes), dtype=draws.dtype)
    whole = frames // length
    lanes[:, :whole] = draws[:whole * length].reshape(whole, length).T
    lanes[:frames - whole * length, n_lanes - 1] = draws[whole * length:]

    # pass 1: every lane from its guessed start; path[j] holds the offsets at frame j
    path = np.zeros((length + 1, n_lanes), dtype=step.dtype)
    path[0, 0] = start
    at = np.empty(n_lanes, dtype=np.intp)
    for j in range(length):
        np.add(path[j], lanes[j], out=at)
        step.take(at, out=path[j + 1], mode="clip")  # "raise" would buffer out

    # pass 2: the lanes whose true start, the previous lane's end, was not
    # their guess, each until it meets its first path
    ends = path[length]
    redo = np.flatnonzero(ends[:-1] != path[0, 1:]) + 1
    level = ends[redo - 1]
    for j in range(length):
        apart = level != path[j, redo]
        redo, level = redo[apart], level[apart]
        if not len(redo):
            break
        path[j, redo] = level
        level = step[level + lanes[j, redo]]

    # a lane that never met its first path ends elsewhere than the next lane
    # was started from: step its true path on, lane after lane, until it
    # meets a recorded path, from where on the recorded path is the true one
    path[length, redo] = level
    lane = 0
    while True:
        wrong = path[length, lane:-1] != path[0, lane + 1:]
        if not wrong.any():
            break
        lane += int(wrong.argmax()) + 1
        e = int(path[length, lane - 1])
        recorded = path[:length, lane].tolist()
        for j, b in enumerate(lanes[:, lane].tolist()):
            if e == recorded[j]:
                break
            recorded[j] = e
            e = step.item(e + b)
        else:
            path[length, lane] = e
        path[:length, lane] = recorded

    return path[:length].T.ravel()[:frames]
