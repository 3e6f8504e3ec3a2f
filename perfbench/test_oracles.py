"""Tests of the benchmark's oracles against hand-solved chains, a fine RK4
written here, and brute-force maxima. Nothing here reads program output.

Run with: python3 -m pytest perfbench -q
"""

import itertools
import math

import numpy as np
import pytest

import oracles


def rk4_level(y0, b, e_max, beta_nl, steps=4000):
    """Fine fixed-step RK4 of dy/dtau = b·eta(y) over one frame."""
    half = e_max / 2.0

    def f(y):
        return b * (1.0 - (y - half) ** 2 / (beta_nl * half * half))

    y, h = float(y0), 1.0 / steps
    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def brute_occupation(transition, e0, power=2 ** 24):
    """Cesaro limit by powering the lazy kernel (P + I)/2, which converges to it."""
    p = np.asarray(transition, dtype=float)
    lazy = 0.5 * (p + np.eye(len(p)))
    return np.linalg.matrix_power(lazy, power)[e0]


@pytest.mark.parametrize("y0,b,e_max", [(0.0, 50, 100), (37.0, 13, 100),
                                        (80.0, 5, 100), (0.0, 50, 50), (499.0, 40, 1000)])
def test_charge_level_matches_fine_rk4(y0, b, e_max):
    assert oracles.charge_level(y0, b, e_max, 1.05) == pytest.approx(
        rk4_level(y0, b, e_max, 1.05), abs=1e-9)


def test_full_frame_charge_from_empty():
    # the storage-curve figure: 50 quanta from empty at e_max=100 store 6.8696
    assert oracles.charge_level(0.0, 50, 100, 1.05) == pytest.approx(6.8696, abs=1e-4)


def test_table_keeps_levels_without_arrivals_and_saturates():
    table = oracles.next_state_table(100, 1.05, 50)
    assert table.shape == (101, 51)
    assert np.array_equal(table[:, 0], np.arange(101))
    assert table.max() == 100 and table[100].tolist() == [100] * 51
    assert np.all(np.diff(table, axis=0) >= 0) and np.all(np.diff(table, axis=1) >= 0)
    for e, b in [(0, 50), (37, 13), (80, 5), (99, 50)]:
        assert table[e, b] == min(math.floor(rk4_level(e, b, 100, 1.05) + 1e-9), 100)


@pytest.mark.parametrize("e_max", [50, 100, 300])
def test_storable_increment_is_the_brute_force_maximum(e_max):
    starts = np.linspace(0.0, e_max, 200001)
    closed = oracles.storable_increments(e_max, 1.05, 50)
    for b in (1, 10, 25, 50):
        brute = float(np.max(oracles.charge_level(starts, b, e_max, 1.05) - starts))
        assert closed[b] == pytest.approx(brute, abs=1e-6)
    assert closed[0] == 0.0


def test_storage_bound_averages_over_arrivals():
    s = 50.0 * math.sqrt(1.05)
    pmf = np.zeros(11)
    pmf[[0, 10]] = 0.5
    assert oracles.storage_bound(pmf, 100, 1.05) == pytest.approx(
        0.5 * 2 * s * math.tanh(10 / (2 * s)), rel=1e-14)


def test_storage_bound_rejects_a_peak_outside_the_battery():
    with pytest.raises(ValueError):
        oracles.storable_increments(10, 1.05, 50)


def test_rates_by_hand():
    assert oracles.log_snr_rate(100, 0.01) == pytest.approx(math.log(2.0))
    # 1 quantum of 1e-5 J over a 5 ms slot is 2 mW; SNR = 1e-10·2e-3/(2e6·1e-20) = 10
    rate = oracles.shannon_rate(1, bandwidth=2e6, noise_density=1e-20, channel_gain=1e-10,
                                slot_length=0.005, frame_length=1.0, quantum_joules=1e-5)
    assert rate == pytest.approx(0.005 * 2e6 * math.log2(11.0))


def test_two_state_chain_by_hand():
    a, b = 0.3, 0.1
    p = [[1 - a, a], [b, 1 - b]]
    for e0 in (0, 1):
        assert oracles.occupation_from(p, e0) == pytest.approx([0.25, 0.75])
    assert oracles.gain_from(p, [4.0, 0.0], 0) == pytest.approx(1.0)


def test_periodic_chain_by_hand():
    assert oracles.occupation_from([[0, 1], [1, 0]], 0) == pytest.approx([0.5, 0.5])


def test_absorption_split_by_hand():
    # from 0: stay 0.2, absorbed in 1 w.p. 0.3, enter the cycle {2, 3} w.p. 0.5
    p = [[0.2, 0.3, 0.5, 0.0],
         [0.0, 1.0, 0.0, 0.0],
         [0.0, 0.0, 0.0, 1.0],
         [0.0, 0.0, 1.0, 0.0]]
    assert oracles.occupation_from(p, 0) == pytest.approx([0.0, 0.375, 0.3125, 0.3125])
    assert oracles.occupation_from(p, 1) == pytest.approx([0.0, 1.0, 0.0, 0.0])
    assert oracles.gain_from(p, [9.0, 1.0, 2.0, 0.0], 0) == pytest.approx(0.375 + 0.3125 * 2)


def test_random_reducible_chains_match_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        p = rng.random((n, n)) * (rng.random((n, n)) < 0.35)
        for i in range(n):
            if p[i].sum() == 0.0:
                p[i, rng.integers(n)] = 1.0
        p /= p.sum(axis=1, keepdims=True)
        e0 = int(rng.integers(n))
        assert oracles.occupation_from(p, e0) == pytest.approx(
            brute_occupation(p, e0), abs=1e-9)


def test_policy_iteration_finds_the_brute_force_maximum():
    # a small battery on which a maximal arrival stores a quantum from every
    # level below full, as on the benchmark's capacitors
    e_max, pmf = 5, np.full(5, 0.2)
    table = oracles.next_state_table(e_max, 1.5, len(pmf) - 1)
    assert np.all(table[:-1, -1] > np.arange(e_max))
    actions = np.arange(e_max)

    def rate(a):
        return oracles.log_snr_rate(a, 0.5)

    best = -math.inf
    for acts in itertools.product(actions, repeat=e_max + 1):
        transition, reward = oracles.policy_chain(table, pmf, acts, acts, rate)
        best = max(best, float(brute_occupation(transition, 0) @ reward))
    gain, policy, _ = oracles.perfect_knowledge_optimum(table, pmf, actions, actions, rate)
    assert gain == pytest.approx(best, abs=1e-9)
    transition, reward = oracles.policy_chain(table, pmf, policy, policy, rate)
    assert oracles.gain_from(transition, reward, 0) == pytest.approx(gain, abs=1e-12)


def test_failed_transmission_drains_without_reward():
    # the trap: asking for 3 quanta at level 1 empties the battery and earns nothing
    table = oracles.next_state_table(4, 1.05, 2)
    transition, reward = oracles.policy_chain(
        table, [0.0, 0.0, 1.0], [0, 3, 3, 3, 3], [0, 3, 3, 3, 3],
        lambda a: oracles.log_snr_rate(a, 0.5))
    assert reward.tolist() == [0.0, 0.0, 0.0, pytest.approx(math.log(2.5)),
                               pytest.approx(math.log(2.5))]
    assert np.array_equal(transition[1], transition[0])
