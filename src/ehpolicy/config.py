"""Scenario configuration: YAML schema, validation, model builders, and the
measured device consumption table that the device builder quantizes."""

from __future__ import annotations

import numbers
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

from .chain import _MAX_FRAMES, Partition
from .core import (
    ActionSet,
    ArrivalModel,
    BatteryModel,
    ConstantEfficiency,
    DeviceTableConsumption,
    IdentityConsumption,
    LogSnrReward,
    QuadraticCapacitor,
    ShannonReward,
    TabulatedEfficiency,
    _is_int,
    arrival_model_from_pmf,
    check_reward_shape,
    make_truncated_geometric,
    make_truncated_poisson,
)
from .errors import ConfigurationError
from .optimize import _MAX_BUDGET

_POLICY_SOURCES = ("solve", "search", "lcp", "bp", "fixed", "cross_apply")


def _check_int(name: str, value, lowest: int, optional: bool = False):
    """Raise ConfigurationError unless ``value`` is an integer >= ``lowest`` (or None, if optional)."""
    if optional and value is None:
        return
    if not _is_int(value) or value < lowest:
        raise ConfigurationError(f"{name} must be an integer >= {lowest}, got {value!r}")


def _check_number(name: str, value, optional: bool = False):
    """Raise ConfigurationError unless ``value`` is a real number that a float
    holds finitely (or None, if optional): NaN, ±inf and an integer too large
    for a float all fail."""
    if optional and value is None:
        return
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not abs(value) <= sys.float_info.max):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")


def _check_entries(name: str, values, check, *args):
    """Raise ConfigurationError unless ``values`` is None or a list whose every
    entry passes ``check(name, entry, *args)``."""
    if values is None:
        return
    if not isinstance(values, list):
        raise ConfigurationError(f"{name} must be a list, got {values!r}")
    for value in values:
        check(name, value, *args)


def _take(d: dict, section: str, allowed: set):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(f"{section}: unknown keys {sorted(unknown, key=str)}")


@dataclass
class BatteryConfig:
    e_max: int = 100
    profile: str = "quadratic"       # quadratic | constant | tabulated
    beta_nl: float | None = 1.05
    eta: float | None = None
    values: list | None = None
    frame_length: float = 1.0
    slot_length: float = 0.005
    quantum_joules: float = 1e-5

    def __post_init__(self):
        _check_int("battery.e_max", self.e_max, 1)
        for name in ("beta_nl", "eta"):
            _check_number(f"battery.{name}", getattr(self, name), optional=True)
        # the reward and the device table read these; the charging flow, normalised
        # to the frame, does not
        for name in ("frame_length", "slot_length", "quantum_joules"):
            value = getattr(self, name)
            _check_number(f"battery.{name}", value)
            if value <= 0:
                raise ConfigurationError(f"battery.{name} must be positive, got {value!r}")
        if self.slot_length >= self.frame_length:
            raise ConfigurationError(
                f"battery.slot_length must be shorter than battery.frame_length, "
                f"got {self.slot_length!r} >= {self.frame_length!r}")
        _check_entries("battery.values", self.values, _check_number)

    def build(self, e_max: int | None = None, ideal: bool = False) -> BatteryModel:
        if ideal:
            profile = ConstantEfficiency(eta=1.0)
        elif self.profile == "quadratic":
            if self.beta_nl is None:
                raise ConfigurationError("battery.beta_nl required for quadratic profile")
            profile = QuadraticCapacitor(beta_nl=self.beta_nl)
        elif self.profile == "constant":
            if self.eta is None:
                raise ConfigurationError("battery.eta required for constant profile")
            profile = ConstantEfficiency(eta=self.eta)
        elif self.profile == "tabulated":
            if not self.values:
                raise ConfigurationError("battery.values required for tabulated profile")
            profile = TabulatedEfficiency(values=tuple(self.values))
        else:
            raise ConfigurationError(f"battery.profile: unknown profile {self.profile!r}")
        return BatteryModel(e_max=int(e_max if e_max is not None else self.e_max),
                            efficiency=profile)


@dataclass
class ArrivalConfig:
    family: str = "geometric"        # geometric | poisson | explicit
    mean: float | None = 20.0
    b_max: int | None = 50
    pmf: list | None = None

    def __post_init__(self):
        _check_number("arrivals.mean", self.mean, optional=True)
        _check_int("arrivals.b_max", self.b_max, 0, optional=True)
        _check_entries("arrivals.pmf", self.pmf, _check_number)

    def build(self) -> ArrivalModel:
        if self.family == "explicit":
            if not self.pmf:
                raise ConfigurationError("arrivals.pmf required for explicit family")
            return arrival_model_from_pmf(self.pmf)
        if self.mean is None or self.b_max is None:
            raise ConfigurationError("arrivals.mean and arrivals.b_max are required")
        if self.family == "geometric":
            return make_truncated_geometric(self.mean, self.b_max)
        if self.family == "poisson":
            return make_truncated_poisson(self.mean, self.b_max)
        raise ConfigurationError(f"arrivals.family: unknown family {self.family!r}")


@dataclass
class RewardConfig:
    family: str = "log_snr"          # log_snr | shannon
    snr_scale: float | None = 0.01
    bandwidth: float | None = None
    noise_density: float | None = None
    channel_gain: float | None = None

    def __post_init__(self):
        for name in ("snr_scale", "bandwidth", "noise_density", "channel_gain"):
            _check_number(f"reward.{name}", getattr(self, name), optional=True)

    def build(self, battery_cfg: BatteryConfig):
        if self.family == "log_snr":
            if self.snr_scale is None:
                raise ConfigurationError("reward.snr_scale required for log_snr")
            model = LogSnrReward(snr_scale=self.snr_scale)
        elif self.family == "shannon":
            for name in ("bandwidth", "noise_density", "channel_gain"):
                if getattr(self, name) is None:
                    raise ConfigurationError(f"reward.{name} required for shannon")
            model = ShannonReward(
                bandwidth_w=self.bandwidth,
                noise_density_n0=self.noise_density,
                channel_h=self.channel_gain,
                slot_length_delta=battery_cfg.slot_length,
                frame_length_t=battery_cfg.frame_length,
                quantum_joules=battery_cfg.quantum_joules,
            )
        else:
            raise ConfigurationError(f"reward.family: unknown family {self.family!r}")
        check_reward_shape(model, rho_max=max(1, battery_cfg.e_max))
        return model


# (tx power mW, consumption mW) per band of an MSP430-class microcontroller with an
# RF core; powers convert to energy quanta via the quantum size and slot length
DEVICE_BANDS_MW = {
    "315MHz": ((14.0, 79.2), (10.0, 75.6), (1.0, 43.8), (0.25, 44.1)),
    "433MHz": ((14.0, 100.2), (10.0, 86.4), (1.0, 50.4), (0.25, 52.5)),
    "868MHz": ((14.0, 106.5), (10.0, 99.0), (1.0, 53.4), (0.25, 53.4)),
    "915MHz": ((14.0, 104.4), (10.0, 96.3), (1.0, 52.8), (0.25, 52.8)),
}


def _to_quanta(power_mw: float, slot_length: float, quantum_joules: float) -> int:
    """Energy spent at ``power_mw`` during the slot, in whole quanta (nearest)."""
    joules = power_mw * 1e-3 * slot_length
    q = joules / quantum_joules
    return int(q + 0.5)


def device_consumption_table(band: str, quantum_joules: float, slot_length: float):
    """Quantized (tx, consumption) rows for a band, sorted by tx power.

    Levels whose transmit power quantizes below one quantum are dropped:
    they cost battery but cannot carry signal on the quantum grid. If every
    level is dropped, only idling would be left, so that is an error.
    """
    if band not in DEVICE_BANDS_MW:
        raise ConfigurationError(f"unknown device band {band!r}; "
                                 f"known: {sorted(DEVICE_BANDS_MW)}")
    rows = {}
    for tx_mw, cons_mw in DEVICE_BANDS_MW[band]:
        tx_q = _to_quanta(tx_mw, slot_length, quantum_joules)
        cons_q = _to_quanta(cons_mw, slot_length, quantum_joules)
        if tx_q < 1:
            continue
        if tx_q not in rows or cons_q < rows[tx_q]:
            rows[tx_q] = cons_q
    if not rows:
        raise ConfigurationError(
            f"device band {band!r}: no transmit level reaches one quantum of "
            f"battery.quantum_joules = {quantum_joules:g} J; use a smaller quantum")
    return tuple(sorted((t, max(c, t)) for t, c in rows.items()))


@dataclass
class ConsumptionConfig:
    kind: str = "identity"           # identity | device
    band: str | None = None

    def build(self, battery_cfg: BatteryConfig, band: str | None = None):
        if self.kind == "identity":
            return IdentityConsumption()
        if self.kind == "device":
            chosen = band or self.band
            if chosen is None:
                raise ConfigurationError("consumption.band required for device tables")
            rows = device_consumption_table(
                chosen, battery_cfg.quantum_joules, battery_cfg.slot_length)
            return DeviceTableConsumption(rows=rows)
        raise ConfigurationError(f"consumption.kind: unknown kind {self.kind!r}")


@dataclass
class ActionConfig:
    values: list | None = None       # explicit tx powers
    max_power: int | None = None     # or a 0..max_power range
    step: int = 1

    def __post_init__(self):
        _check_int("actions.max_power", self.max_power, 0, optional=True)
        _check_int("actions.step", self.step, 1)
        _check_entries("actions.values", self.values, _check_int, 0)

    def build(self, e_max: int, cons) -> ActionSet:
        if isinstance(cons, DeviceTableConsumption):
            # a device table fixes the tx levels
            return ActionSet(actions=(0,) + tuple(t for t, _ in cons.rows if t >= 1))
        if self.values is not None:
            acts = sorted(set(int(a) for a in self.values) | {0})
            return ActionSet(actions=tuple(acts))
        stop = self.max_power if self.max_power is not None else e_max
        acts = sorted(set(range(0, stop + 1, max(1, self.step))) | {0})
        return ActionSet(actions=tuple(acts))


@dataclass
class PartitionConfig:
    n_subsets: int = 2
    boundaries: list | None = None   # explicit subset start levels

    def __post_init__(self):
        _check_int("partition.n_subsets", self.n_subsets, 1)
        _check_entries("partition.boundaries", self.boundaries, _check_int, 0)

    def build(self, e_max: int, n_subsets: int | None = None) -> Partition:
        if self.boundaries is not None and n_subsets is None:
            return Partition(e_max=e_max, starts=tuple(self.boundaries))
        n = n_subsets if n_subsets is not None else self.n_subsets
        return Partition.uniform(e_max, n)


@dataclass
class SweepConfig:
    e_max: list = field(default_factory=list)
    n_subsets: list = field(default_factory=list)
    bands: list = field(default_factory=list)

    def __post_init__(self):
        for name in ("e_max", "n_subsets", "bands"):
            if not isinstance(getattr(self, name), list):
                raise ConfigurationError(
                    f"sweep.{name} must be a list, got {getattr(self, name)!r}")
        for name in ("e_max", "n_subsets"):
            for value in getattr(self, name):
                _check_int(f"sweep.{name}", value, 1)


@dataclass
class SearchConfig:
    budget: int = 10 ** 7  # candidates of one exhaustive search; larger grids run in two stages

    def __post_init__(self):
        _check_int("search.budget", self.budget, 1)
        if self.budget > _MAX_BUDGET:
            raise ConfigurationError(
                f"search.budget must be at most {_MAX_BUDGET}, got {self.budget}")


@dataclass
class ScenarioConfig:
    """Complete experiment description; see README for the YAML schema."""

    scenario: str = "scenario"
    battery: BatteryConfig = field(default_factory=BatteryConfig)
    arrivals: ArrivalConfig = field(default_factory=ArrivalConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    consumption: ConsumptionConfig = field(default_factory=ConsumptionConfig)
    actions: ActionConfig = field(default_factory=ActionConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    policy_source: str = "search"
    fixed_actions: list | None = None
    seed: int = 1
    frames: int = 10 ** 6
    include_ideal: bool = False      # also run the lossless-battery twin (solve)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    search: SearchConfig = field(default_factory=SearchConfig)

    def __post_init__(self):
        # checked here so that a bad value fails before any policy is solved;
        # each section checks its own numeric fields the same way
        _check_int("frames", self.frames, 1)
        if self.frames > _MAX_FRAMES:
            raise ConfigurationError(f"frames must be at most {_MAX_FRAMES}, got {self.frames}")
        _check_int("seed", self.seed, 0)
        if self.policy_source not in _POLICY_SOURCES:
            raise ConfigurationError(
                f"policy_source must be one of {_POLICY_SOURCES}, got {self.policy_source!r}")
        _check_entries("fixed_actions", self.fixed_actions, _check_int, 0)
        if self.policy_source == "fixed":
            subsets = (self.partition.n_subsets if self.partition.boundaries is None
                       else len(self.partition.boundaries))
            lengths = (subsets, self.battery.e_max + 1)
            if self.fixed_actions is None or len(self.fixed_actions) not in lengths:
                raise ConfigurationError(
                    f"policy_source: fixed requires fixed_actions of {subsets} actions "
                    f"(one per subset) or {lengths[1]} (one per level)")
            allowed = self.actions.build(self.battery.e_max, self.consumption.build(self.battery))
            stray = sorted(set(self.fixed_actions) - set(allowed.actions))
            if stray:
                raise ConfigurationError(
                    f"fixed_actions {stray} are not among the scenario's actions")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        _take(d, "config", set(cls.__dataclass_fields__))
        kwargs = dict(d)
        # a section is a field whose default factory is its config class
        for f in fields(cls):
            if f.name not in kwargs or f.default_factory is MISSING:
                continue
            section = kwargs[f.name]
            if not isinstance(section, dict):
                raise ConfigurationError(f"{f.name} must be a mapping, got {section!r}")
            _take(section, f.name, set(f.default_factory.__dataclass_fields__))
            kwargs[f.name] = f.default_factory(**section)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        import yaml  # here, so that a preset run never loads PyYAML

        data = yaml.safe_load(text)
        if not isinstance(data, dict):
            raise ConfigurationError("config file must contain a mapping")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = (exc.strerror or exc) if isinstance(exc, OSError) else "not UTF-8 text"
            raise ConfigurationError(f"cannot read config {path}: {reason}") from exc
        import yaml  # for its error type

        try:
            return cls.from_yaml(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or "not YAML"
            raise ConfigurationError(f"config {path}{where}: {problem}") from exc
