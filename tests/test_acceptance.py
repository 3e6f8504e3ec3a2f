"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline; pytest shows captured output for failures either way).
"""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import build_chain

from ehpolicy import (
    ActionSet,
    BatteryModel,
    ConstantEfficiency,
    IdentityConsumption,
    LogSnrReward,
    Partition,
    PartitionPolicy,
    QuadraticCapacitor,
    StatePolicy,
    battery_step,
    derive_bp,
    derive_lcp,
    evaluate_policy,
    get_preset,
    integrate_frame,
    make_truncated_geometric,
    refine_partition_search,
    search_partition_policy,
    simulate,
    solve_perfect_soc,
    upper_bound,
    validate_recharge_hypothesis,
)
from ehpolicy.core import arrival_model_from_pmf
from ehpolicy.harness import build_models

BASELINE = BatteryModel(e_max=100, efficiency=QuadraticCapacitor(1.05))
GEOM20 = make_truncated_geometric(20.0, 50)
REWARD = LogSnrReward(0.01)
CONS = IdentityConsumption()
FULL_GRID = ActionSet(tuple(range(101)))
GRID51 = ActionSet(tuple(range(51)))


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n} [{label}]: FAIL")
                raise
            print(f"criterion {n} [{label}]: PASS")
        return wrapper
    return deco


def quad_closed_form(e_start, b, e_max, beta_nl):
    half = e_max / 2.0
    scale = half * math.sqrt(beta_nl)
    u0 = (e_start - half) / scale
    u = math.tanh(math.atanh(u0) + b / scale)
    return half + scale * u


def random_scenario(rng, e_max_hi=300):
    """Scenario satisfying the recharge hypothesis, by rejection sampling."""
    while True:
        e_max = int(rng.integers(10, e_max_hi + 1))
        beta_nl = float(rng.uniform(1.05, 3.0))
        b_max = int(rng.integers(8, 51))
        mean = float(rng.uniform(0.2, 0.6) * b_max)
        snr_scale = float(rng.uniform(0.003, 0.05))
        battery = BatteryModel(e_max=e_max, efficiency=QuadraticCapacitor(beta_nl))
        arrivals = make_truncated_geometric(mean, b_max)
        ok, _ = validate_recharge_hypothesis(battery, arrivals)
        if ok:
            return battery, arrivals, LogSnrReward(snr_scale)


@criterion(1, "storage curve regression")
def test_criterion_1_storage_curve():
    assert battery_step(BASELINE, 0, 0, 50) == 6
    got = integrate_frame(BASELINE, 0.0, 50)
    # The old reference 6.3 is a coarse-Euler value (~20 steps), not the documented ODE.
    assert got == pytest.approx(quad_closed_form(0.0, 50, 100, 1.05), abs=1e-6)
    assert got == pytest.approx(6.8696, abs=1e-4)


@criterion(2, "baseline reward regression")
def test_criterion_2_baseline_rewards():
    op_rp = solve_perfect_soc(BASELINE, GEOM20, CONS, REWARD, FULL_GRID)
    g_rp = evaluate_policy(BASELINE, GEOM20, CONS, REWARD, op_rp)
    g1 = search_partition_policy(BASELINE, GEOM20, CONS, REWARD, GRID51,
                                 Partition.uniform(100, 1)).best_reward
    g2 = search_partition_policy(BASELINE, GEOM20, CONS, REWARD, FULL_GRID,
                                 Partition.uniform(100, 2)).best_reward
    g3 = refine_partition_search(BASELINE, GEOM20, CONS, REWARD, GRID51,
                                 Partition.uniform(100, 3)).best_reward
    assert g_rp == pytest.approx(0.1714, rel=0.05)
    assert g3 == pytest.approx(0.1670, rel=0.05)
    assert g2 == pytest.approx(0.1655, rel=0.05)
    assert g1 == pytest.approx(0.0488, rel=0.05)
    assert g1 < g2 <= g3 <= g_rp


@criterion(3, "zero-reward trap")
def test_criterion_3_cross_applied_trap(power_iteration):
    # best two-subset policy for a lossless battery, applied to the real one
    ideal = BatteryModel(e_max=100, efficiency=ConstantEfficiency(1.0))
    part = Partition.uniform(100, 2)
    trap = search_partition_policy(ideal, GEOM20, CONS, REWARD, GRID51,
                                   part).best_policy
    transition, state_reward = build_chain(BASELINE, GEOM20, CONS, REWARD, trap)
    g, _ = power_iteration(transition, state_reward, 0)
    assert g == 0.0
    report = simulate(BASELINE, GEOM20, CONS, REWARD, trap,
                      frames=10 ** 5, seed=3)
    assert report.empirical_reward == 0.0


@criterion(4, "bound dominance suite")
def test_criterion_4_bound_dominance():
    rng = np.random.default_rng(20260823)
    part_n = 2
    for _ in range(50):
        battery, arrivals, reward = random_scenario(rng)
        step = max(1, arrivals.b_max // 8)
        acts = ActionSet(tuple(range(0, arrivals.b_max + 1, step)))
        part = Partition.uniform(battery.e_max, part_n)

        perfect = solve_perfect_soc(battery, arrivals, CONS, reward, acts)
        g_perfect = evaluate_policy(battery, arrivals, CONS, reward,
                                    perfect)
        bound = upper_bound(battery, arrivals, reward)
        g_ideal = float(reward.rate(arrivals.mean_b))

        candidates = [
            search_partition_policy(battery, arrivals, CONS, reward, acts,
                                    part).best_policy,
            derive_lcp(perfect, CONS, part, acts),
            derive_bp(part, bound, acts, CONS),
        ]
        for policy in candidates:
            g = evaluate_policy(battery, arrivals, CONS, reward,
                                policy)
            assert g <= g_perfect + 1e-8
        assert g_perfect <= bound.g_ub + 1e-8
        assert bound.g_ub <= g_ideal + 1e-8


@criterion(5, "constant-efficiency analytics")
def test_criterion_5_constant_efficiency():
    eta = 0.7
    battery = BatteryModel(e_max=100, efficiency=ConstantEfficiency(eta))
    report = upper_bound(battery, GEOM20, REWARD)
    for b in range(51):
        assert report.beta_star_table[b] == pytest.approx(eta * b, abs=1e-9)
    assert report.g_ub == pytest.approx(float(REWARD.rate(eta * 20.0)), abs=1e-9)


@criterion(6, "asymptotic bound collapse")
def test_criterion_6_large_battery_bound():
    battery = BatteryModel(e_max=1000, efficiency=QuadraticCapacitor(1.05))
    report = upper_bound(battery, GEOM20, REWARD)
    assert report.g_ub == pytest.approx(report.g_ideal, rel=0.01)


@criterion(7, "oracle equivalence")
def test_criterion_7_oracles():
    # (a) full-resolution partition search vs the perfect-knowledge solver
    instances = [
        (BatteryModel(e_max=10, efficiency=QuadraticCapacitor(1.3)),
         make_truncated_geometric(3.0, 8), ActionSet((0, 2))),
        (BatteryModel(e_max=6, efficiency=ConstantEfficiency(0.8)),
         arrival_model_from_pmf([0.3, 0.4, 0.3]), ActionSet((0, 1, 3))),
    ]
    for battery, arrivals, acts in instances:
        policy = solve_perfect_soc(battery, arrivals, CONS, REWARD, acts)
        g_rvi = evaluate_policy(battery, arrivals, CONS, REWARD,
                                policy)
        g_search = search_partition_policy(
            battery, arrivals, CONS, REWARD, acts,
            Partition(battery.e_max, tuple(range(battery.e_max + 1)))).best_reward
        assert g_search == pytest.approx(g_rvi, abs=1e-8)

    # (b) tiny chain vs brute force over all deterministic state policies
    bat = BatteryModel(e_max=2, efficiency=ConstantEfficiency(1.0))
    arr = arrival_model_from_pmf([0.4, 0.6])
    acts = ActionSet((0, 1))
    best = max(
        evaluate_policy(bat, arr, CONS, REWARD,
                        StatePolicy(actions=combo))
        for combo in itertools.product((0, 1), repeat=3))
    policy = solve_perfect_soc(bat, arr, CONS, REWARD, acts)
    got = evaluate_policy(bat, arr, CONS, REWARD, policy)
    assert got == pytest.approx(best, abs=1e-9)

    # (c) integrator vs the separable-ODE closed form on a 100-point grid
    for e_start in np.linspace(0.0, 99.0, 100):
        got = integrate_frame(BASELINE, float(e_start), 20, saturate=False)
        want = quad_closed_form(float(e_start), 20, 100, 1.05)
        assert got == pytest.approx(want, abs=1e-6)


@criterion(8, "Monte Carlo consistency")
def test_criterion_8_monte_carlo():
    rng = np.random.default_rng(7)
    for k in range(10):
        battery, arrivals, reward = random_scenario(rng, e_max_hi=100)
        part = Partition.uniform(battery.e_max, 2)
        low = int(rng.integers(0, arrivals.b_max // 2 + 1))
        high = int(rng.integers(low, arrivals.b_max + 1))
        policy = PartitionPolicy(partition=part, actions=(low, high))
        analytic = evaluate_policy(battery, arrivals, CONS, reward, policy)
        report = simulate(battery, arrivals, CONS, reward, policy,
                          frames=10 ** 6, seed=1000 + k)
        gap = abs(report.empirical_reward - analytic)
        assert gap <= 3 * max(report.std_error, 1e-12)


@criterion(9, "sweep orderings")
def test_criterion_9_sweep_shapes():
    # capacity sweep: heuristics vs the best two-subset policy
    acts = ActionSet(tuple(range(0, 51, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny batteries trip the recharge warning
        for e_max in (10, 20, 30, 50, 100, 150, 200, 300):
            battery = BatteryModel(e_max=e_max,
                                   efficiency=QuadraticCapacitor(1.05))
            part = Partition.uniform(e_max, 2)
            g_ri = search_partition_policy(battery, GEOM20, CONS, REWARD, acts,
                                           part).best_reward
            perfect = solve_perfect_soc(battery, GEOM20, CONS, REWARD, acts)
            bound = upper_bound(battery, GEOM20, REWARD)
            g_lcp = evaluate_policy(
                battery, GEOM20, CONS, REWARD,
                derive_lcp(perfect, CONS, part, acts))
            g_bp = evaluate_policy(
                battery, GEOM20, CONS, REWARD,
                derive_bp(part, bound, acts, CONS))
            if e_max >= 200:
                assert g_lcp < 0.25 * g_ri
            if e_max <= 30:
                assert g_lcp >= 0.75 * g_ri
            assert g_bp >= 0.85 * g_ri

    # device-profile sweep: the cheapest band wins at every capacity
    cfg = get_preset("fig5")
    for e_max in cfg.sweep.e_max:
        by_band = {}
        for band in cfg.sweep.bands:
            models = build_models(cfg, e_max=e_max, band=band)
            part = Partition.uniform(models.battery.e_max, 2)
            by_band[band] = search_partition_policy(
                models.battery, models.arrivals, models.cons, models.reward,
                models.actions, part).best_reward
        for band in ("433MHz", "868MHz", "915MHz"):
            assert by_band["315MHz"] >= by_band[band] - 1e-12
