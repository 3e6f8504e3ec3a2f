"""Named scenario presets and the measured device consumption profile.

The device profile is an MSP430-class microcontroller with an RF core:
four transmit levels, with total consumption depending on the RF band.
Powers are in mW and convert to energy quanta via the configured quantum
size and slot length.
"""

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

# (tx power mW, consumption mW) per band
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
