"""Physical model of an energy-harvesting device with a lossy battery.

Energy is quantized: the battery holds an integer number of quanta in
{0..e_max}. Charging during a frame follows the continuous dynamics
dy/dt = (b/T) * eta(y), solved exactly for each efficiency profile, after
which the level is floored back onto the quantum grid (flooring never
creates energy, which keeps the discrete chain consistent with the
continuous throughput bound).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import DomainError

# Snap tolerance before flooring: absorbs the flow's floating-point round-off
# so exact integer levels (e.g. lossless charging) are not floored down a quantum.
_FLOOR_EPS = 1e-9
# Buckets of the arrival sampler's inverse CDF. A uniform draw is a multiple
# of 2^-53, so scaling it by this power of two and flooring is exact; the
# bucket index is int16, so at most 1 << 15.
_BUCKETS = 1 << 12
_CHUNK = 1 << 16  # frames per chunk of the per-frame temporaries


def _is_int(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _to_float(value) -> float:
    """``float(value)``, but an integer too large for a float is ±inf, so that
    a range check refuses it as it refuses infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# ---------------------------------------------------------------------------
# Storage efficiency profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantEfficiency:
    """A fixed fraction eta of incoming power is stored, at any level."""

    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise DomainError(f"eta must be in (0, 1], got {self.eta}")


@dataclass(frozen=True)
class QuadraticCapacitor:
    """Capacitor-like losses: efficiency peaks at half charge.

    eta(e) = 1 - (e - e_max/2)^2 / (beta_nl * (e_max/2)^2); beta_nl > 1
    guarantees eta(0) = 1 - 1/beta_nl > 0 so charging is always possible.
    """

    beta_nl: float

    def __post_init__(self):
        if not 1.0 < _to_float(self.beta_nl) < math.inf:
            raise DomainError(f"beta_nl must be finite and > 1, got {self.beta_nl}")


@dataclass(frozen=True)
class TabulatedEfficiency:
    """Efficiency given on evenly spaced knots over [0, e_max], interpolated linearly."""

    values: tuple

    def __post_init__(self):
        vals = tuple(_to_float(v) for v in self.values)
        if len(vals) < 2:
            raise DomainError("tabulated profile needs at least 2 knots")
        if any(not 0.0 < v <= 1.0 for v in vals):
            raise DomainError("tabulated efficiencies must be in (0, 1]")
        object.__setattr__(self, "values", vals)


EfficiencyProfile = Union[ConstantEfficiency, QuadraticCapacitor, TabulatedEfficiency]


def efficiency_at(profile: EfficiencyProfile, e, e_max: int):
    """Storage efficiency at (possibly fractional) charge level ``e``.

    Accepts scalars or arrays; raises DomainError outside [0, e_max].
    """
    arr = np.asarray(e, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > e_max):
        raise DomainError(f"charge level outside [0, {e_max}]")
    out = _efficiency_unchecked(profile, arr, e_max)
    return float(out) if np.isscalar(e) or arr.ndim == 0 else out


def _efficiency_unchecked(profile, y, e_max):
    """Efficiency evaluated without the domain check; past [0, e_max] the quadratic
    profile extends its parabola and the tabulated one holds its end values."""
    if isinstance(profile, ConstantEfficiency):
        return np.full_like(np.asarray(y, dtype=float), profile.eta)
    if isinstance(profile, QuadraticCapacitor):
        half = e_max / 2.0
        return 1.0 - (np.asarray(y, dtype=float) - half) ** 2 / (profile.beta_nl * half * half)
    if isinstance(profile, TabulatedEfficiency):
        knots = np.linspace(0.0, e_max, len(profile.values))
        return np.interp(np.asarray(y, dtype=float), knots, profile.values)
    raise TypeError(f"unknown efficiency profile: {profile!r}")


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatteryModel:
    """Finite quantized battery with state-dependent storage efficiency."""

    e_max: int
    efficiency: EfficiencyProfile

    def __post_init__(self):
        if self.e_max < 1:
            raise DomainError(f"e_max must be >= 1, got {self.e_max}")
        # eta must be strictly positive everywhere so recharge never stalls
        grid = np.linspace(0.0, self.e_max, 101)
        eff = _efficiency_unchecked(self.efficiency, grid, self.e_max)
        if np.any(eff <= 0.0) or np.any(eff > 1.0 + 1e-12):
            raise DomainError("efficiency profile must map [0, e_max] into (0, 1]")


def _over_slope(fn, m, x):
    """fn(m * x) / m, with its limit x at slope m = 0."""
    safe = np.where(m == 0.0, 1.0, m)
    return np.where(m == 0.0, x, fn(m * x) / safe)


def _tabulated_flow(values, e_max, y0, s):
    """Flow of dy/ds = eta(y) for eta linear between evenly spaced knots. On a segment
    of slope m entered at efficiency v, the level rises by v expm1(m t) / m in time t,
    and a rise dy takes t = log1p(m dy / v) / m. Past the last knot eta stays at its
    last value, as np.interp does."""
    vals = np.asarray(values)
    n_seg = len(vals) - 1
    width = e_max / n_seg
    knots = np.linspace(0.0, e_max, n_seg + 1)
    slope = np.append(np.diff(vals) / width, 0.0)
    # flow time from level 0 to each knot, then to y0 and to the frame's end
    t_knot = np.cumsum(np.append(0.0, _over_slope(np.log1p, slope[:-1], width / vals[:-1])))
    k = np.clip(np.searchsorted(knots, y0, side="right") - 1, 0, n_seg - 1)
    t_end = t_knot[k] + _over_slope(np.log1p, slope[k], (y0 - knots[k]) / vals[k]) + s
    k = np.searchsorted(t_knot, t_end, side="right") - 1
    return knots[k] + vals[k] * _over_slope(np.expm1, slope[k], t_end - t_knot[k])


def _charge_flow(battery: BatteryModel, y0, b, saturate: bool) -> np.ndarray:
    """Exact solution of dy/dt = (b/T) eta(y) over one frame, broadcast over ``y0``, ``b``.

    Time is normalized to the frame, so the level follows dy/ds = eta(y) for s = b.
    The flow only rises, so ``saturate`` (a full battery stops charging) caps it at
    e_max; the storage bound needs the raw, unclipped solution."""
    e_max = battery.e_max
    prof = battery.efficiency
    y0, s = np.broadcast_arrays(np.asarray(y0, dtype=float), np.asarray(b, dtype=float))
    if isinstance(prof, ConstantEfficiency):
        y = y0 + prof.eta * s
    elif isinstance(prof, QuadraticCapacitor):
        # u = (y - e_max/2) / scale obeys du/ds = (1 - u^2) / scale
        half = e_max / 2.0
        scale = half * math.sqrt(prof.beta_nl)
        y = half + scale * np.tanh(np.arctanh((y0 - half) / scale) + s / scale)
    elif isinstance(prof, TabulatedEfficiency):
        y = _tabulated_flow(prof.values, e_max, y0, s)
    else:
        raise TypeError(f"unknown efficiency profile: {prof!r}")
    y = np.where(s == 0.0, y0, y)  # tanh(artanh(u)) can miss u by an ulp
    return np.minimum(y, e_max) if saturate else y


def integrate_frame(battery: BatteryModel, e_start: float, b: int, *, saturate: bool = True) -> float:
    """Continuous end-of-frame level after charging from ``e_start`` with ``b`` quanta.

    Pre-rounding and (with ``saturate=False``) pre-clipping.
    """
    if not 0.0 <= e_start <= battery.e_max:
        raise DomainError(f"e_start {e_start} outside [0, {battery.e_max}]")
    if b < 0:
        raise DomainError(f"arrivals must be nonnegative, got {b}")
    return float(_charge_flow(battery, e_start, b, saturate))


def _floor_level(y):
    """Quantize a continuous level down to whole quanta (never creates energy)."""
    return np.floor(np.asarray(y) + _FLOOR_EPS).astype(int)


def battery_step(battery: BatteryModel, e: int, d: int, b: int) -> int:
    """Battery state after one frame: drain ``d`` (clipped at empty), charge ``b``, quantize."""
    if not 0 <= e <= battery.e_max:
        raise DomainError(f"state {e} outside battery range")
    if d < 0:
        raise DomainError("consumption must be nonnegative")
    if b < 0:
        raise DomainError("arrivals must be nonnegative")
    y = integrate_frame(battery, max(0, e - d), b)
    return int(min(_floor_level(y), battery.e_max))


@lru_cache(maxsize=64)
def next_state_table(battery: BatteryModel, b_max: int) -> np.ndarray:
    """Table[e_start, b] of post-frame integer states for e_start in 0..e_max, b in 0..b_max."""
    starts = np.arange(battery.e_max + 1, dtype=float)[:, None]
    y = _charge_flow(battery, starts, np.arange(b_max + 1), saturate=True)
    return np.minimum(_floor_level(y), battery.e_max).astype(np.int64)


# ---------------------------------------------------------------------------
# Energy arrivals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrivalModel:
    """I.i.d. per-frame energy arrivals on {0..b_max}, where ``pmf[b]`` is the
    chance of b quanta; ``b_max`` and ``mean_b`` follow from the pmf."""

    pmf: tuple

    def __post_init__(self):
        pmf = tuple(_to_float(p) for p in self.pmf)
        object.__setattr__(self, "pmf", pmf)
        if not all(0.0 <= p < math.inf for p in pmf):
            raise DomainError("pmf entries must be finite and nonnegative")
        if abs(sum(pmf) - 1.0) > 1e-12:
            raise DomainError("pmf must sum to 1 within 1e-12")

    @property
    def b_max(self) -> int:
        return len(self.pmf) - 1

    @property
    def mean_b(self) -> float:
        return float(np.arange(len(self.pmf), dtype=float) @ self.pmf)

    def pmf_array(self) -> np.ndarray:
        return np.asarray(self.pmf, dtype=float)

    def cdf_array(self) -> np.ndarray:
        return np.cumsum(self.pmf)


def arrival_model_from_pmf(pmf) -> ArrivalModel:
    pmf = np.array([_to_float(p) for p in pmf])
    if not np.isfinite(pmf).all():
        raise DomainError("pmf entries must be finite")
    total = pmf.sum()
    if not 0 < total < math.inf:
        raise DomainError("pmf must have positive, finite mass")
    return ArrivalModel(pmf=tuple(pmf / total))


def _fit_mean_by_bisection(log_weight, mean_target, b_max):
    """Find theta such that the normalized pmf exp(log_weight(b, theta)) has the target mean.

    log_weight must be increasing in theta in the mean sense.
    """
    bs = np.arange(b_max + 1, dtype=float)

    def mean_at(theta):
        lw = log_weight(bs, theta)
        lw = lw - lw.max()
        w = np.exp(lw)
        w /= w.sum()
        return float(bs @ w), w

    lo, hi = 1e-12, 1.0
    while mean_at(hi)[0] < mean_target:
        hi *= 2.0
        if hi > 1e9:
            raise DomainError("mean target unreachable for this family")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_at(mid)[0] < mean_target:
            lo = mid
        else:
            hi = mid
    mean, w = mean_at(0.5 * (lo + hi))
    if abs(mean - mean_target) > 1e-9:
        raise DomainError(f"bisection failed to match mean (got {mean})")
    return ArrivalModel(pmf=tuple(w))


def make_truncated_geometric(mean_target: float, b_max: int) -> ArrivalModel:
    """Geometric-shaped pmf on {0..b_max}, renormalized, mean fitted by bisection."""
    if not 0.0 < mean_target < b_max:
        raise DomainError(f"mean must be in (0, {b_max})")
    return _fit_mean_by_bisection(lambda bs, p: bs * math.log(p), mean_target, b_max)


def make_truncated_poisson(mean_target: float, b_max: int) -> ArrivalModel:
    """Poisson-shaped pmf on {0..b_max}, renormalized, rate fitted by bisection."""
    if not 0.0 < mean_target < b_max:
        raise DomainError(f"mean must be in (0, {b_max})")
    from scipy.special import gammaln

    return _fit_mean_by_bisection(
        lambda bs, lam: bs * math.log(lam) - gammaln(bs + 1.0), mean_target, b_max
    )


def sample_arrivals(model: ArrivalModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vector of i.i.d. arrival draws, in the smallest unsigned dtype that holds b_max.

    The draws equal ``np.searchsorted(cdf, u, side="right")`` on ``size``
    uniforms ``u`` from ``rng``, except that the last knot is left out: a
    CDF whose sum rounds below 1 still draws b_max at the largest u. Each u
    falls in one of ``_BUCKETS`` equal buckets of [0, 1). A bucket with no
    knot strictly inside it gives the draw directly; only the few u in a
    bucket with a knot are searched. The uniforms are drawn ``_CHUNK``
    at a time, which yields the same stream as one call for all of them.
    """
    knots = model.cdf_array()[:-1] * _BUCKETS  # scaled as the uniforms are, both exactly
    edges = np.arange(_BUCKETS + 1, dtype=float)
    # every u in bucket k draws below[k], the number of knots at or under its
    # lower edge, unless a knot lies strictly inside the bucket
    below = np.searchsorted(knots, edges, side="right")
    knotted = np.searchsorted(knots, edges[1:], side="left") > below[:-1]
    below = below[:-1].astype(np.min_scalar_type(model.b_max))
    draws = np.empty(size, dtype=below.dtype)
    for lo in range(0, size, _CHUNK):
        u = rng.random(min(_CHUNK, size - lo))
        u *= _BUCKETS
        bucket = u.astype(np.int16)
        out = draws[lo:lo + len(u)]
        out[:] = below[bucket]
        hit = np.flatnonzero(knotted[bucket])
        out[hit] = np.searchsorted(knots, u[hit], side="right")
    return draws


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogSnrReward:
    """r(rho) = ln(1 + snr_scale * rho); rate in nats per transmission."""

    snr_scale: float

    def __post_init__(self):
        if not 0 < _to_float(self.snr_scale) < math.inf:
            raise DomainError("snr_scale must be positive and finite")

    def rate(self, rho):
        return np.log1p(self.snr_scale * np.asarray(rho, dtype=float))


@dataclass(frozen=True)
class ShannonReward:
    """Shannon-rate reward in bits per second, duty-cycled over the frame.

    Quanta convert to watts assuming the transmit energy is spent uniformly
    over the slot: rho_watts = rho_quanta * quantum_joules / slot_length.
    """

    bandwidth_w: float
    noise_density_n0: float
    channel_h: float
    slot_length_delta: float
    frame_length_t: float
    quantum_joules: float

    def __post_init__(self):
        for name in ("bandwidth_w", "noise_density_n0", "channel_h",
                     "slot_length_delta", "frame_length_t", "quantum_joules"):
            if not 0 < _to_float(getattr(self, name)) < math.inf:
                raise DomainError(f"{name} must be positive and finite")

    @property
    def duty(self) -> float:
        return self.slot_length_delta / self.frame_length_t

    def rate(self, rho):
        watts = np.asarray(rho, dtype=float) * self.quantum_joules / self.slot_length_delta
        snr = self.channel_h * watts / (self.bandwidth_w * self.noise_density_n0)
        return self.duty * self.bandwidth_w * np.log2(1.0 + snr)


RewardModel = Union[LogSnrReward, ShannonReward]


def check_reward_shape(reward: RewardModel, rho_max: float, points: int = 200) -> None:
    """Numeric sanity check: r(0) = 0, strictly increasing, concave on [0, rho_max]."""
    grid = np.linspace(0.0, rho_max, points)
    r = np.asarray(reward.rate(grid), dtype=float)
    if abs(r[0]) > 1e-12:
        raise DomainError("reward must vanish at zero power")
    if np.any(np.diff(r) <= 0):
        raise DomainError("reward must be strictly increasing")
    if np.any(np.diff(r, 2) > 1e-9 * max(1.0, r[-1])):
        raise DomainError("reward must be concave")


# ---------------------------------------------------------------------------
# Consumption
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityConsumption:
    """No circuitry overhead: consumed quanta equal transmitted quanta."""

    def consumption(self, rho: int) -> int:
        if rho < 0:
            raise DomainError("tx power must be nonnegative")
        return int(rho)


@dataclass(frozen=True)
class DeviceTableConsumption:
    """Measured device profile: (tx quanta -> consumed quanta), plus free idling."""

    rows: tuple  # of (tx_power_quanta, consumption_quanta)

    def __post_init__(self):
        rows = tuple((int(t), int(c)) for t, c in self.rows)
        object.__setattr__(self, "rows", rows)
        txs = [t for t, _ in rows]
        if txs != sorted(txs) or len(set(txs)) != len(txs):
            raise DomainError("rows must be sorted with strictly increasing tx power")
        if any(c < t for t, c in rows):
            raise DomainError("consumption cannot be below tx power")
        if any(t < 0 for t, _ in rows):
            raise DomainError("tx powers must be nonnegative")

    def consumption(self, rho: int) -> int:
        if rho == 0:
            return 0
        for t, c in self.rows:
            if t == rho:
                return c
        raise DomainError(f"tx power {rho} not in device table")


ConsumptionMap = Union[IdentityConsumption, DeviceTableConsumption]


@dataclass(frozen=True)
class ActionSet:
    """Sorted distinct nonnegative transmit powers (quanta), always containing 0."""

    actions: tuple

    def __post_init__(self):
        if not all(_is_int(a) for a in self.actions):
            raise DomainError(f"actions must be integers, got {self.actions!r}")
        acts = tuple(int(a) for a in self.actions)
        if sorted(set(acts)) != list(acts):
            raise DomainError("actions must be sorted and distinct")
        if not acts or acts[0] != 0:
            raise DomainError("action set must contain 0 (idle)")
        object.__setattr__(self, "actions", acts)

    def __contains__(self, rho) -> bool:
        return _is_int(rho) and int(rho) in self.actions

    def __len__(self) -> int:
        return len(self.actions)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.actions, dtype=np.int64)


def _spend_tables(levels, dcons, rates):
    """The level each frame charges from and the reward it earns, over
    broadcast arrays of levels, consumptions and rates: ``(start, earned)``,
    where start is the level after spending (0 if it cannot pay) and earned
    is the rate if the level can pay, else 0."""
    left = levels - dcons
    earned = np.where(left >= 0, rates, 0.0)
    return np.maximum(left, 0, out=left), earned


# ---------------------------------------------------------------------------
# Recharge hypothesis
# ---------------------------------------------------------------------------

def validate_recharge_hypothesis(battery: BatteryModel, arrivals: ArrivalModel):
    """Check that a maximal arrival stores at least one quantum from every non-full state.

    The maximal arrival is the largest size with positive probability.
    Returns (ok, violating_states).
    """
    b_top = int(np.flatnonzero(arrivals.pmf_array())[-1])
    table = next_state_table(battery, b_top)
    states = np.arange(battery.e_max)
    bad = states[table[:-1, b_top] < states + 1]
    return len(bad) == 0, [int(e) for e in bad]
