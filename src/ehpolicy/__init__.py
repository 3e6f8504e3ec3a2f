"""Transmission-policy optimization for energy-harvesting devices whose
batteries have state-dependent storage losses and whose state of charge is
observed only through a coarse partition."""

__version__ = "0.1.0"

from .chain import (  # noqa: F401
    Partition,
    PartitionPolicy,
    SimulationReport,
    StatePolicy,
    evaluate_policy,
    exact_occupation,
    simulate,
)
from .core import (  # noqa: F401
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
    battery_step,
    efficiency_at,
    integrate_frame,
    make_truncated_geometric,
    make_truncated_poisson,
    sample_arrivals,
    validate_recharge_hypothesis,
)
from .config import ScenarioConfig  # noqa: F401
from .optimize import (  # noqa: F401
    BoundReport,
    SearchResult,
    derive_bp,
    derive_lcp,
    refine_partition_search,
    search_partition_policy,
    solve_perfect_soc,
    upper_bound,
)
from .presets import get_preset, preset_names  # noqa: F401
