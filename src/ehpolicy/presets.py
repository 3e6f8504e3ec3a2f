"""Named scenario presets: the baseline scenario and one per figure."""

from __future__ import annotations

from .config import (
    ActionConfig,
    ArrivalConfig,
    BatteryConfig,
    ConsumptionConfig,
    PartitionConfig,
    RewardConfig,
    ScenarioConfig,
    SearchConfig,
    SweepConfig,
)
from .errors import ConfigurationError

def _baseline() -> ScenarioConfig:
    return ScenarioConfig(
        scenario="baseline",
        battery=BatteryConfig(e_max=100, profile="quadratic", beta_nl=1.05),
        arrivals=ArrivalConfig(family="geometric", mean=20.0, b_max=50),
        reward=RewardConfig(family="log_snr", snr_scale=0.01),
        consumption=ConsumptionConfig(kind="identity"),
        actions=ActionConfig(),
        partition=PartitionConfig(n_subsets=2),
        policy_source="search",
        seed=20260823,
    )


def _fig2() -> ScenarioConfig:
    cfg = _baseline()
    cfg.scenario = "fig2"
    cfg.policy_source = "solve"
    cfg.include_ideal = True
    return cfg


def _fig3() -> ScenarioConfig:
    cfg = _baseline()
    cfg.scenario = "fig3"
    cfg.sweep = SweepConfig(n_subsets=[1, 2, 3])
    cfg.search = SearchConfig(budget=10 ** 6)  # so the N=3 grid, 101^3, runs in two stages
    return cfg


def _fig4() -> ScenarioConfig:
    cfg = _baseline()
    cfg.scenario = "fig4"
    cfg.actions = ActionConfig(step=2)
    cfg.sweep = SweepConfig(e_max=[10, 20, 30, 50, 100, 150, 200, 300])
    return cfg


def _fig5() -> ScenarioConfig:
    return ScenarioConfig(
        scenario="fig5",
        battery=BatteryConfig(
            e_max=100, profile="quadratic", beta_nl=1.05,
            frame_length=1.0, slot_length=0.005, quantum_joules=1e-5),
        arrivals=ArrivalConfig(family="poisson", mean=30.0, b_max=50),
        reward=RewardConfig(
            family="shannon", snr_scale=None,
            bandwidth=2e6, noise_density=10 ** (-20.4), channel_gain=3e-13),
        consumption=ConsumptionConfig(kind="device"),
        partition=PartitionConfig(n_subsets=2),
        policy_source="search",
        seed=20260823,
        sweep=SweepConfig(
            e_max=[50, 100, 150, 200, 300],
            bands=["315MHz", "433MHz", "868MHz", "915MHz"]),
    )


_PRESETS = {
    "baseline": _baseline,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
}


def preset_names():
    return sorted(_PRESETS)


def get_preset(name: str) -> ScenarioConfig:
    if name not in _PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; known: {preset_names()}")
    return _PRESETS[name]()
