import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehpolicy import (
    BatteryModel,
    ConstantEfficiency,
    IdentityConsumption,
    LogSnrReward,
    Partition,
    PartitionPolicy,
    QuadraticCapacitor,
    StatePolicy,
    build_chain,
    evaluate_policy,
    exact_occupation,
    make_truncated_geometric,
    simulate,
)
from ehpolicy.chain import _SIM_CHUNK
from ehpolicy.core import arrival_model_from_pmf
from ehpolicy.errors import ConfigurationError, DomainError, NumericError

BASELINE = BatteryModel(e_max=100, efficiency=QuadraticCapacitor(1.05))
GEOM20 = make_truncated_geometric(20.0, 50)
REWARD = LogSnrReward(0.01)
CONS = IdentityConsumption()


class TestPartition:
    def test_uniform_two_way_split(self):
        part = Partition.uniform(100, 2)
        low, high = part.subsets()
        assert low[0] == 0 and low[-1] == 50
        assert high[0] == 51 and high[-1] == 100

    def test_covers_and_disjoint(self):
        for n in (1, 2, 3, 7, 101):
            part = Partition.uniform(100, n)
            all_states = np.concatenate(part.subsets())
            assert np.array_equal(np.sort(all_states), np.arange(101))

    def test_singleton_is_full_resolution(self):
        part = Partition.singleton(5)
        assert part.n_subsets == 6
        assert np.array_equal(part.labels(), np.arange(6))

    def test_bad_boundaries(self):
        with pytest.raises(ConfigurationError):
            Partition(e_max=10, starts=(1, 5))
        with pytest.raises(ConfigurationError):
            Partition(e_max=10, starts=(0, 5, 5))


class TestBuildChain:
    def test_no_dynamics_is_identity(self):
        arr = arrival_model_from_pmf([1.0])  # always zero arrivals
        policy = StatePolicy(actions=(0,) * 101)
        transition, state_reward = build_chain(BASELINE, arr, CONS, REWARD, policy)
        assert np.array_equal(transition, np.eye(101))
        assert np.all(state_reward == 0.0)

    def test_tiny_deterministic_chain_by_hand(self):
        # e_max = 2, always one lossless quantum, never transmit: e -> min(e+1, 2)
        bat = BatteryModel(e_max=2, efficiency=ConstantEfficiency(1.0))
        arr = arrival_model_from_pmf([0.0, 1.0])
        policy = StatePolicy(actions=(0, 0, 0))
        transition, _ = build_chain(bat, arr, CONS, REWARD, policy)
        expected = np.zeros((3, 3))
        for e in range(3):
            expected[e, min(e + 1, 2)] = 1.0
        assert transition == pytest.approx(expected)

    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            policy = StatePolicy(actions=tuple(rng.integers(0, 101, size=101)))
            transition, _ = build_chain(BASELINE, GEOM20, CONS, REWARD, policy)
            assert transition.sum(axis=1) == pytest.approx(np.ones(101), abs=1e-10)

    def test_singleton_partition_equals_state_policy(self):
        rng = np.random.default_rng(4)
        acts = tuple(rng.integers(0, 50, size=101))
        part = Partition.singleton(100)
        p1, r1 = build_chain(BASELINE, GEOM20, CONS, REWARD, StatePolicy(actions=acts))
        p2, r2 = build_chain(BASELINE, GEOM20, CONS, REWARD,
                             PartitionPolicy(partition=part, actions=acts))
        assert np.array_equal(p1, p2)
        assert np.array_equal(r1, r2)

    def test_trap_cycle_returns_to_empty(self):
        # demanding more than the battery can ever store from empty cycles through 0
        part = Partition.uniform(100, 2)
        policy = PartitionPolicy(partition=part, actions=(11, 28))
        transition, _ = build_chain(BASELINE, GEOM20, CONS, REWARD, policy)
        reachable = {0}
        frontier = [0]
        while frontier:
            e = frontier.pop()
            for nxt in np.flatnonzero(transition[e] > 0):
                if nxt not in reachable:
                    reachable.add(int(nxt))
                    frontier.append(int(nxt))
        assert max(reachable) <= 6
        assert transition[0, 0] > 0


class TestLongRunAverage:
    def test_absorbing_start(self, power_iteration):
        transition = np.eye(10)
        reward = np.zeros(10)
        reward[5] = 0.3
        g, pi = power_iteration(transition, reward, 5)
        assert g == pytest.approx(0.3)
        assert pi[5] == pytest.approx(1.0)

    def test_periodic_two_state(self, power_iteration):
        transition = np.array([[0.0, 1.0], [1.0, 0.0]])
        g, pi = power_iteration(transition, np.array([1.0, 0.0]), 0)
        assert pi == pytest.approx(np.array([0.5, 0.5]), abs=1e-8)
        assert g == pytest.approx(0.5, abs=1e-8)

    def test_doubly_stochastic_is_uniform(self, power_iteration):
        rng = np.random.default_rng(11)
        # symmetric irreducible chain is doubly stochastic
        raw = rng.random((6, 6)) + 0.05
        sym = raw + raw.T
        transition = sym / sym.sum(axis=1, keepdims=True)
        # symmetrize exactly via Metropolis weights
        transition = np.minimum(transition, transition.T)
        np.fill_diagonal(transition, 0)
        np.fill_diagonal(transition, 1.0 - transition.sum(axis=1))
        _, pi = power_iteration(transition, np.zeros(6), 2)
        assert pi == pytest.approx(np.full(6, 1 / 6), abs=1e-8)

    def test_rejects_nonstochastic(self, power_iteration):
        with pytest.raises(NumericError):
            power_iteration(np.full((3, 3), 0.5), np.zeros(3), 0)

    def test_agrees_with_exact_occupation(self, power_iteration):
        rng = np.random.default_rng(5)
        for _ in range(5):
            policy = StatePolicy(actions=tuple(rng.integers(0, 40, size=101)))
            transition, reward = build_chain(BASELINE, GEOM20, CONS, REWARD, policy)
            g_iter, pi_iter = power_iteration(transition, reward, 0)
            pi_exact = exact_occupation(transition, 0)
            assert pi_iter == pytest.approx(pi_exact, abs=1e-7)
            assert g_iter == pytest.approx(float(pi_exact @ reward), abs=1e-8)

    def test_exact_occupation_reducible_absorption(self):
        # two absorbing states; from state 0 absorption splits 50/50
        transition = np.array([
            [0.0, 0.5, 0.5],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        pi = exact_occupation(transition, 0)
        assert pi == pytest.approx(np.array([0.0, 0.5, 0.5]))

    @pytest.mark.parametrize("e0", [-1, 101])
    def test_rejects_start_outside_battery(self, e0):
        policy = StatePolicy(actions=(0,) * 101)
        transition, _ = build_chain(BASELINE, GEOM20, CONS, REWARD, policy)
        with pytest.raises(DomainError):
            exact_occupation(transition, e0)
        with pytest.raises(DomainError):
            evaluate_policy(BASELINE, GEOM20, CONS, REWARD, policy, e0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_occupation_is_stationary_on_reachable_class(self, seed):
        rng = np.random.default_rng(seed)
        policy = StatePolicy(actions=tuple(rng.integers(0, 101, size=101)))
        transition, _ = build_chain(BASELINE, GEOM20, CONS, REWARD, policy)
        pi = exact_occupation(transition, 0)
        assert pi @ transition == pytest.approx(pi, abs=1e-9)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0)


class TestSimulate:
    def test_zero_policy_earns_nothing(self):
        policy = StatePolicy(actions=(0,) * 101)
        report = simulate(BASELINE, GEOM20, CONS, REWARD, policy,
                          frames=5000, seed=1)
        assert report.empirical_reward == 0.0

    def test_visit_counts_sum_to_frames(self):
        policy = StatePolicy(actions=(0,) * 101)
        report = simulate(BASELINE, GEOM20, CONS, REWARD, policy,
                          frames=5000, seed=1)
        assert report.visit_counts.sum() == 5000

    def test_reproducible(self):
        part = Partition.uniform(100, 2)
        policy = PartitionPolicy(partition=part, actions=(4, 26))
        a = simulate(BASELINE, GEOM20, CONS, REWARD, policy, frames=20000, seed=9)
        b = simulate(BASELINE, GEOM20, CONS, REWARD, policy, frames=20000, seed=9)
        assert a.empirical_reward == b.empirical_reward
        assert np.array_equal(a.visit_counts, b.visit_counts)

    def test_matches_analytic_within_three_se(self):
        part = Partition.uniform(100, 2)
        policy = PartitionPolicy(partition=part, actions=(4, 26))
        analysis = evaluate_policy(BASELINE, GEOM20, CONS, REWARD, policy)
        report = simulate(BASELINE, GEOM20, CONS, REWARD, policy,
                          frames=10 ** 6, seed=123)
        assert abs(report.empirical_reward - analysis.long_run_reward) \
            <= 3 * report.std_error

    @staticmethod
    def assert_same_run(got, want):
        assert np.array_equal(got.visit_counts, want.visit_counts)
        assert got.empirical_reward == want.empirical_reward
        assert got.std_error == want.std_error

    @pytest.mark.parametrize("frames", [_SIM_CHUNK - 1, _SIM_CHUNK, _SIM_CHUNK + 1,
                                        3 * _SIM_CHUNK + 7])
    def test_matches_reference_across_chunk_edges(self, simulate_oracle, frames):
        policy = PartitionPolicy(partition=Partition.uniform(100, 2), actions=(4, 26))
        args = (BASELINE, GEOM20, CONS, REWARD, policy)
        self.assert_same_run(simulate(*args, frames=frames, seed=5),
                             simulate_oracle(*args, frames=frames, seed=5))

    def test_matches_reference_from_nonzero_start(self, simulate_oracle):
        policy = PartitionPolicy(partition=Partition.uniform(100, 2), actions=(4, 26))
        args = (BASELINE, GEOM20, CONS, REWARD, policy)
        self.assert_same_run(simulate(*args, frames=2 * _SIM_CHUNK + 3, seed=8, e0=73),
                             simulate_oracle(*args, frames=2 * _SIM_CHUNK + 3, seed=8, e0=73))

    def test_matches_reference_with_drain_actions(self, simulate_oracle):
        # actions above the stored level empty the battery and earn nothing
        acts = np.random.default_rng(6).integers(0, 101, size=101)
        policy = StatePolicy(actions=tuple(acts))
        args = (BASELINE, GEOM20, CONS, REWARD, policy)
        report = simulate(*args, frames=2 * _SIM_CHUNK + 3, seed=2)
        drained = (acts > np.arange(101)) & (report.visit_counts > 0)
        assert drained.any()
        self.assert_same_run(report,
                             simulate_oracle(*args, frames=2 * _SIM_CHUNK + 3, seed=2))

    @pytest.mark.parametrize("e0", [-1, 101])
    def test_rejects_start_outside_battery(self, e0):
        policy = StatePolicy(actions=(0,) * 101)
        with pytest.raises(DomainError):
            simulate(BASELINE, GEOM20, CONS, REWARD, policy, frames=10, seed=1, e0=e0)
