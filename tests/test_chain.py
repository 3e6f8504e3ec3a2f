import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import attained_reward, build_chain, dense_charge_rows, walk_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

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
    TabulatedEfficiency,
    evaluate_policy,
    exact_occupation,
    get_preset,
    make_truncated_geometric,
    preset_names,
    simulate,
    solve_perfect_soc,
)
from ehpolicy.chain import (
    _EDGE_EPS,
    _MIN_LANE,
    _SUM_PIECE,
    _band_product,
    _closed_classes,
    _gather_band,
    _gather_block,
    _level_tables,
    _pairwise_sum,
    _reach,
    _stack_reach,
    _walk_lanes,
    charge_matrix,
)
from ehpolicy.core import arrival_model_from_pmf, next_state_table, sample_arrivals
from ehpolicy.harness import build_models
from ehpolicy.errors import ConfigurationError, DomainError, NumericError

BASELINE = BatteryModel(e_max=100, efficiency=QuadraticCapacitor(1.05))
GEOM20 = make_truncated_geometric(20.0, 50)
REWARD = LogSnrReward(0.01)
CONS = IdentityConsumption()
LARGE = BatteryModel(e_max=1000, efficiency=QuadraticCapacitor(1.05))


@pytest.fixture(scope="module")
def large_policy():
    """The large-battery workload's policy: e_max = 1000, solved over 1001 actions."""
    return solve_perfect_soc(LARGE, GEOM20, CONS, REWARD, ActionSet(tuple(range(1001))))


def traced_peak(fn):
    """Peak bytes that ``fn()`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_support(rng, k):
    """Boolean support on k levels: blocks in a random order of the levels, each a
    closed class, a bare cycle (periodic), a set of isolated self-loops or a transient
    block, with edges only from earlier blocks to later ones, so the first blocks
    are transient prefixes."""
    order = rng.permutation(k)
    cuts = np.sort(rng.choice(np.arange(1, k), size=min(k - 1, int(rng.integers(0, 6))),
                              replace=False)) if k > 1 else []
    blocks = np.split(order, cuts)
    support = np.zeros((k, k), dtype=bool)
    for b, block in enumerate(blocks):
        later = np.concatenate(blocks[b + 1:]) if b + 1 < len(blocks) else order[:0]
        kind = int(rng.integers(4))
        if kind == 0:  # a class with extra edges inside
            support[block, np.roll(block, 1)] = True
            support[np.ix_(block, block)] |= rng.random((len(block), len(block))) < 0.2
        elif kind == 1:  # a bare cycle
            support[block, np.roll(block, 1)] = True
        elif kind == 2:  # isolated levels
            support[block, block] = True
        else:  # transient levels that climb within the block, if anything follows
            support[block[:-1], block[1:]] = True
            support[block[-1], block[0] if not len(later) else later[0]] = True
        if len(later) and rng.random() < 0.5:
            # leave for a later block: this block becomes transient
            support[rng.choice(block), rng.choice(later)] = True
    return support


def closure_oracle(support):
    """Reflexive transitive closure by repeated boolean squaring."""
    reach = support | np.eye(len(support), dtype=bool)
    while True:
        wider = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(wider, reach):
            return reach
        reach = wider


def scipy_classes(support):
    """Closed classes by strong components and their out-edges, sorted by lowest level."""
    _, comp = connected_components(csr_matrix(support), directed=True, connection="strong")
    i, j = np.nonzero(support)
    leaving = set(comp[i[comp[i] != comp[j]]])
    classes = [np.flatnonzero(comp == c) for c in set(comp) - leaving]
    return sorted(classes, key=lambda levels: levels[0])


class TestGraphKernels:
    """The NumPy reach and closed-class kernels against scipy's graph routines and a
    brute-force boolean closure."""

    SIZES = (1, 2, 5, 63, 64, 65, 130)

    @pytest.mark.parametrize("k", SIZES)
    def test_reach(self, k):
        rng = np.random.default_rng(k)
        for _ in range(5):
            support = random_support(rng, k)
            closure = closure_oracle(support)
            sources = rng.random(k) < 0.1
            sources[rng.integers(k)] = True
            want = closure[sources].any(axis=0)
            assert np.array_equal(_reach(support, sources), want)
            assert np.array_equal(_reach(support.T, sources), closure[:, sources].any(axis=1))
            u = int(rng.integers(k))
            order = breadth_first_order(csr_matrix(support), u, return_predecessors=False)
            assert np.array_equal(np.flatnonzero(_reach(support, u)), np.sort(order))

    @pytest.mark.parametrize("k", SIZES)
    def test_closed_classes_of_one_chain(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(8):
            support = random_support(rng, k)
            got = _closed_classes(support)
            want = scipy_classes(support)
            assert [c.tolist() for c in got] == [c.tolist() for c in want]
            closure = closure_oracle(support)
            in_class = ~(closure & ~closure.T).any(axis=1)
            assert np.array_equal(np.sort(np.concatenate(got)), np.flatnonzero(in_class))

    @pytest.mark.parametrize("k", SIZES)
    def test_stack_reach(self, k):
        rng = np.random.default_rng(300 + k)
        stack = np.array([random_support(rng, k) for _ in range(9)])
        sources = rng.integers(k, size=9)
        ahead = _stack_reach(stack, sources)
        behind = _stack_reach(stack.transpose(0, 2, 1), sources)
        assert ahead.shape == behind.shape == (9, k)
        for support, u, forward, backward in zip(stack, sources, ahead, behind):
            assert np.array_equal(forward, _reach(support, u))
            assert np.array_equal(backward, _reach(support.T, u))

    @pytest.mark.parametrize("k", SIZES)
    def test_closed_classes_of_a_stack(self, k):
        # every level reaches level a iff the chain has exactly one closed class
        # and a lies in it, and a then reaches that class: the search's trust rule
        rng = np.random.default_rng(200 + k)
        stack = [random_support(rng, k) for _ in range(9)]
        for support in stack[:9]:
            # the same chain with one closed class: the others now leave for it
            one_class = support.copy()
            first, *others = scipy_classes(support)
            for levels in others:
                one_class[levels[0], first[0]] = True
            stack.append(one_class)
        stack = np.array(stack)
        classes = [scipy_classes(support) for support in stack]
        # a random level of each chain, then a random level of one of its closed classes
        sources = np.concatenate([rng.integers(k, size=len(stack)),
                                  [rng.choice(c[rng.integers(len(c))]) for c in classes]])
        stack, classes = np.concatenate([stack, stack]), classes * 2
        one = _stack_reach(stack.transpose(0, 2, 1), sources).all(axis=1)
        ahead = _stack_reach(stack, sources)
        for a, want, verdict, levels in zip(sources, classes, one, ahead):
            assert verdict == (len(want) == 1 and a in want[0])
            if verdict:
                assert np.array_equal(np.flatnonzero(levels), want[0])
        assert one.any() and (k == 1 or not one.all())

    def test_known_shapes(self):
        # 0 -> 1 <-> 2 is one class behind a transient level; 3 -> 4 -> 3 is a
        # periodic class; 5 is an isolated absorbing level; 6 leaves for 5
        support = np.zeros((7, 7), dtype=bool)
        for i, j in ((0, 1), (1, 2), (2, 1), (3, 4), (4, 3), (5, 5), (6, 5), (6, 6)):
            support[i, j] = True
        assert [c.tolist() for c in _closed_classes(support)] == [[1, 2], [3, 4], [5]]
        assert np.flatnonzero(_reach(support, 0)).tolist() == [0, 1, 2]
        assert np.flatnonzero(_reach(support.T, 5)).tolist() == [5, 6]
        # with three closed classes no level is reached from every level; on
        # 0 -> 1 <-> 2 alone, 1 and 2 are, and each reaches just {1, 2}
        stack = np.repeat(support[None], 7, axis=0)
        assert not _stack_reach(stack.transpose(0, 2, 1), np.arange(7)).all(axis=1).any()
        stack = np.repeat(support[None, :3, :3], 3, axis=0)
        assert _stack_reach(stack.transpose(0, 2, 1), np.arange(3)).all(axis=1).tolist() == [
            False, True, True]
        assert _stack_reach(stack, np.arange(3)).tolist() == [
            [True, True, True], [False, True, True], [False, True, True]]


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
        part = Partition(5, tuple(range(6)))
        assert part.n_subsets == 6
        assert np.array_equal(part.labels(), np.arange(6))

    def test_bad_boundaries(self):
        with pytest.raises(ConfigurationError):
            Partition(e_max=10, starts=(1, 5))
        with pytest.raises(ConfigurationError):
            Partition(e_max=10, starts=(0, 5, 5))

    def test_starts_must_be_integers(self):
        # 2.7 used to become 2 by int(); a bool is not an integer either
        for starts in ((0, 2.7), (0, 2.0), (0, True), (0, "2")):
            with pytest.raises(ConfigurationError, match="integers"):
                Partition(e_max=5, starts=starts)
        part = Partition(e_max=5, starts=(np.int64(0), np.int32(2)))
        assert part.starts == (0, 2)
        assert all(type(s) is int for s in part.starts)


class TestPolicyActions:
    # int() would truncate 2.7 to 2 and count True as 1; a string is no action either
    BAD = ((2.7, 0), (2.0, 0), (1.9, True), (0, "2"))

    def test_state_policy_actions_must_be_integers(self):
        for acts in self.BAD:
            with pytest.raises(ConfigurationError, match="integers"):
                StatePolicy(actions=acts)
        policy = StatePolicy(actions=(np.int64(3), np.int32(0)))
        assert policy.actions == (3, 0)
        assert all(type(a) is int for a in policy.actions)

    def test_partition_policy_actions_must_be_integers(self):
        part = Partition(5, (0, 3))
        for acts in self.BAD:
            with pytest.raises(ConfigurationError, match="integers"):
                PartitionPolicy(partition=part, actions=acts)
        policy = PartitionPolicy(partition=part, actions=(np.int64(1), 4))
        assert policy.actions == (1, 4)
        assert all(type(a) is int for a in policy.actions)


# (battery, arrivals) pairs whose bands are checked against the dense oracle
BAND_CASES = {
    "quadratic": (BASELINE, GEOM20),
    "lossless": (BatteryModel(e_max=60, efficiency=ConstantEfficiency(1.0)), GEOM20),
    "tabulated": (BatteryModel(e_max=80, efficiency=TabulatedEfficiency((0.2, 1.0, 0.3, 0.9))),
                  make_truncated_geometric(7.0, 30)),
    "interior-zeros": (BatteryModel(e_max=40, efficiency=QuadraticCapacitor(1.5)),
                       arrival_model_from_pmf([4, 0, 2, 4, 0, 0, 5, 0, 7])),
    "battery-below-b-max": (BatteryModel(e_max=6, efficiency=QuadraticCapacitor(1.2)), GEOM20),
}


class TestChargeBand:
    @pytest.mark.parametrize("case", BAND_CASES)
    def test_band_is_the_dense_oracle(self, case):
        battery, arrivals = BAND_CASES[case]
        band = charge_matrix(battery, arrivals)
        want = dense_charge_rows(battery, arrivals)
        n, width = len(want), arrivals.b_max + 1
        assert band.shape == (n, width)
        # every offset of the dense rows lies in [0, b_max]
        level, to = np.nonzero(want)
        assert np.all((to >= level) & (to - level < width))
        # entry for entry, bit for bit, and nothing past the top level
        dense = np.zeros((n, n + width))
        for s in range(n):
            dense[s, s:s + width] = band[s]
        assert np.array_equal(dense[:, :n], want)
        assert not dense[:, n:].any()
        assert np.array_equal(_gather_band(band, np.arange(n), np.arange(n)), want)

    def test_lossless_charge_moves_by_the_arrivals(self):
        # with efficiency 1 a frame that charges from s with b arrivals ends at
        # s + b, or at the top; so band[s, b] is pmf[b] below the top
        battery, arrivals = BAND_CASES["lossless"]
        band = charge_matrix(battery, arrivals)
        pmf = arrivals.pmf_array()
        below = battery.e_max - arrivals.b_max
        assert np.array_equal(band[:below], np.broadcast_to(pmf, (below, len(pmf))))

    @pytest.mark.parametrize("case", BAND_CASES)
    def test_band_kernels_match_the_dense_rows(self, case):
        battery, arrivals = BAND_CASES[case]
        band = charge_matrix(battery, arrivals)
        rows = dense_charge_rows(battery, arrivals)
        n = len(rows)
        rng = np.random.default_rng(len(case))
        v = rng.standard_normal(n)
        assert np.abs(_band_product(band, v) - rows @ v).max() <= 1e-15 * np.abs(v).max()
        at = rng.integers(0, n, size=7)
        assert np.array_equal(_band_product(band, v, at), _band_product(band, v)[at])
        # the blocks of random charge starts on all levels, a run of levels and
        # scattered levels: the band's gather copies the dense rows' entries
        starts = np.minimum(np.arange(n), rng.integers(0, n, size=n))
        cases = (np.arange(n), np.arange(n // 3, n), np.unique(rng.integers(0, n, 9)))
        for levels in cases:
            assert np.array_equal(_gather_band(band, starts, levels),
                                  _gather_block(rows, starts, levels))
            assert np.array_equal(_gather_band(band > _EDGE_EPS, starts, levels),
                                  _gather_block(rows, starts, levels) > _EDGE_EPS)
            # rows on these levels and columns on every case's levels
            for cols in cases:
                want = rows[np.ix_(starts[levels], cols)]
                assert np.array_equal(_gather_block(rows, starts, levels, cols), want)
                assert np.array_equal(_gather_band(band, starts, levels, cols), want)

    def test_refuses_a_non_finite_band(self):
        # NaN fails both the sign test and the row-sum test, so it is refused by name
        @dataclass(frozen=True)
        class NanArrivals:
            b_max: int = 1

            def pmf_array(self):
                return np.array([np.nan, 1.0])

        with pytest.raises(NumericError, match="non-finite"):
            charge_matrix(BASELINE, NanArrivals())

    def test_refuses_charge_outside_the_band(self, monkeypatch):
        # a next-state table whose frame loses charge, which no efficiency allows
        battery = BatteryModel(e_max=7, efficiency=ConstantEfficiency(0.5))
        arrivals = arrival_model_from_pmf([0.5, 0.5])
        table = next_state_table(battery, 1).copy()
        table[3, 0] = 2
        monkeypatch.setattr("ehpolicy.chain.next_state_table", lambda *args: table)
        with pytest.raises(NumericError, match="charge"):
            charge_matrix.__wrapped__(battery, arrivals)


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
        part = Partition(100, tuple(range(101)))
        p1, r1 = build_chain(BASELINE, GEOM20, CONS, REWARD, StatePolicy(actions=acts))
        p2, r2 = build_chain(BASELINE, GEOM20, CONS, REWARD,
                             PartitionPolicy(partition=part, actions=acts))
        assert np.array_equal(p1, p2)
        assert np.array_equal(r1, r2)

    @pytest.mark.parametrize("preset", preset_names())
    def test_level_tables_match_attained_reward(self, preset):
        # a random action at each level of every point of the preset, against
        # the scalar reward rule and the spend rule level by level
        rng = np.random.default_rng(0)
        cfg = get_preset(preset)
        for band in cfg.sweep.bands or [None]:
            for e_max in cfg.sweep.e_max or [None]:
                m = build_models(cfg, e_max=e_max, band=band)
                e_top = m.battery.e_max
                policy = StatePolicy(actions=rng.choice(m.actions.actions, e_top + 1))
                starts, earned = _level_tables(m.cons, m.reward, policy, e_top)
                assert starts.tolist() == [max(e - m.cons.consumption(a), 0)
                                           for e, a in enumerate(policy.actions)]
                assert earned.tolist() == [attained_reward(m.reward, m.cons, a, e)
                                           for e, a in enumerate(policy.actions)]

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
            pi_exact = exact_occupation(transition, np.arange(101), 0)
            assert pi_iter == pytest.approx(pi_exact, abs=1e-7)
            assert g_iter == pytest.approx(float(pi_exact @ reward), abs=1e-8)

    def test_exact_occupation_reducible_absorption(self):
        # two absorbing states; from state 0 absorption splits 50/50
        transition = np.array([
            [0.0, 0.5, 0.5],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        pi = exact_occupation(transition, np.arange(3), 0)
        assert pi == pytest.approx(np.array([0.0, 0.5, 0.5]))

    def test_exactly_singular_class_law_raises(self, monkeypatch):
        # the stationary-law kernel marks an exactly singular solve by a NaN law,
        # which is reported, not returned as an occupation
        monkeypatch.setattr("ehpolicy.chain._stationary_laws",
                            lambda p: np.full(len(p), np.nan))
        with pytest.raises(NumericError, match="exactly singular"):
            exact_occupation(np.eye(3), np.arange(3), 0)

    def test_refuses_a_non_finite_transition(self):
        # NaN fails both the sign test and the row-sum test; it used to give [1, 0]
        for bad in (np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]])):
            with pytest.raises(NumericError, match="non-finite"):
                exact_occupation(bad, np.arange(2), 0)

    @pytest.mark.parametrize("e0", [-1, 101, 1.5, True, None])
    def test_rejects_start_outside_battery(self, e0):
        # a start that is not an integer (a bool is not one) used to fail deep in NumPy
        policy = StatePolicy(actions=(0,) * 101)
        transition, _ = build_chain(BASELINE, GEOM20, CONS, REWARD, policy)
        with pytest.raises(DomainError):
            exact_occupation(transition, np.arange(101), e0)
        with pytest.raises(DomainError):
            evaluate_policy(BASELINE, GEOM20, CONS, REWARD, policy, e0)
        # starts of the wrong length, outside the levels or not levels at all
        for starts in (np.arange(100), np.arange(102), np.full(101, e0), np.zeros(101) + 0.5):
            with pytest.raises(DomainError):
                exact_occupation(transition, starts, 0)
        with pytest.raises(NumericError):
            exact_occupation(transition[:, :100], np.arange(101), 0)

    def test_evaluation_equals_the_whole_chain(self):
        # evaluate_policy solves only the block reachable from e0: 7 to 101
        # levels here; the partition policy empties the battery in LOW and
        # keeps it full in HIGH
        rng = np.random.default_rng(12)
        policies = [StatePolicy(actions=tuple(rng.integers(0, 101, size=101)))
                    for _ in range(6)]
        policies.append(PartitionPolicy(partition=Partition.uniform(100, 2), actions=(100, 0)))
        for policy in policies:
            transition, reward = build_chain(BASELINE, GEOM20, CONS, REWARD, policy)
            for e0 in (0, 37, 100):
                pi = exact_occupation(transition, np.arange(101), e0)
                gain = evaluate_policy(BASELINE, GEOM20, CONS, REWARD, policy, e0)
                assert gain == float(pi @ reward)

    def test_peak_memory_of_a_large_evaluation(self, large_policy):
        # no n x n float array is formed, only the boolean support and the
        # class block: about 0.39 n^2 doubles; the charge matrix is cached
        # before the trace starts
        charge_matrix(LARGE, GEOM20)
        peak = traced_peak(lambda: evaluate_policy(LARGE, GEOM20, CONS, REWARD, large_policy))
        assert peak <= 0.45 * 8 * 1001 ** 2

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_occupation_is_stationary_on_reachable_class(self, seed):
        rng = np.random.default_rng(seed)
        policy = StatePolicy(actions=tuple(rng.integers(0, 101, size=101)))
        transition, _ = build_chain(BASELINE, GEOM20, CONS, REWARD, policy)
        pi = exact_occupation(transition, np.arange(101), 0)
        assert pi @ transition == pytest.approx(pi, abs=1e-9)
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0)


class TestSimulate:
    def test_zero_policy_earns_nothing(self):
        policy = StatePolicy(actions=(0,) * 101)
        report = simulate(BASELINE, GEOM20, CONS, REWARD, policy,
                          frames=5000, seed=1)
        assert report.empirical_reward == 0.0

    def test_reproducible(self):
        part = Partition.uniform(100, 2)
        policy = PartitionPolicy(partition=part, actions=(4, 26))
        a = simulate(BASELINE, GEOM20, CONS, REWARD, policy, frames=20000, seed=9)
        b = simulate(BASELINE, GEOM20, CONS, REWARD, policy, frames=20000, seed=9)
        assert a == b

    def test_matches_analytic_within_three_se(self):
        part = Partition.uniform(100, 2)
        policy = PartitionPolicy(partition=part, actions=(4, 26))
        analytic = evaluate_policy(BASELINE, GEOM20, CONS, REWARD, policy)
        report = simulate(BASELINE, GEOM20, CONS, REWARD, policy,
                          frames=10 ** 6, seed=123)
        assert abs(report.empirical_reward - analytic) \
            <= 3 * report.std_error

    @staticmethod
    def walked_levels(battery, arrivals, policy, frames, seed, e0=0):
        """The levels that the coupled lanes visit on the step table and draws
        that ``simulate`` makes, checked frame for frame against the walk one
        frame at a time on the same table and draws."""
        next_level = next_state_table(battery, arrivals.b_max)[
            _level_tables(CONS, REWARD, policy, battery.e_max)[0]]
        width = arrivals.b_max + 1
        step = (next_level * width).astype(np.min_scalar_type(next_level.size)).ravel()
        draws = sample_arrivals(arrivals, np.random.default_rng(seed), frames)
        levels = walk_reference(next_level, draws, e0)
        assert np.array_equal(_walk_lanes(step, draws, e0 * width), levels * width)
        return levels

    # a run shorter than one lane, about one lane, 300 lanes of 300 frames,
    # 300 full lanes plus a padded lane of 7 frames, and runs about the
    # edges of the 2^16-frame chunks in which arrivals are drawn and
    # rewards are summed
    @pytest.mark.parametrize("frames", [37, _MIN_LANE - 1, _MIN_LANE, _MIN_LANE + 1,
                                        300 * 300, 300 * 300 + 7,
                                        65535, 65536, 65537, 2 * 65536 + 3, 3 * 65536 + 5])
    def test_matches_reference_across_lane_edges(self, simulate_oracle, frames):
        policy = PartitionPolicy(partition=Partition.uniform(100, 2), actions=(4, 26))
        self.walked_levels(BASELINE, GEOM20, policy, frames, seed=5)
        args = (BASELINE, GEOM20, CONS, REWARD, policy)
        assert (simulate(*args, frames=frames, seed=5)
                == simulate_oracle(*args, frames=frames, seed=5))

    def test_matches_reference_from_nonzero_start(self, simulate_oracle):
        policy = PartitionPolicy(partition=Partition.uniform(100, 2), actions=(4, 26))
        levels = self.walked_levels(BASELINE, GEOM20, policy, 131_075, seed=8, e0=73)
        assert levels[0] == 73
        args = (BASELINE, GEOM20, CONS, REWARD, policy)
        assert (simulate(*args, frames=131_075, seed=8, e0=73)
                == simulate_oracle(*args, frames=131_075, seed=8, e0=73))

    def test_matches_reference_with_drain_actions(self, simulate_oracle):
        # actions above the stored level empty the battery and earn nothing
        acts = np.random.default_rng(6).integers(0, 101, size=101)
        policy = StatePolicy(actions=tuple(acts))
        levels = self.walked_levels(BASELINE, GEOM20, policy, 131_075, seed=2)
        assert (acts[levels] > levels).any()
        args = (BASELINE, GEOM20, CONS, REWARD, policy)
        assert (simulate(*args, frames=131_075, seed=2)
                == simulate_oracle(*args, frames=131_075, seed=2))

    def test_matches_reference_when_lanes_never_meet(self, simulate_oracle):
        # a lossless battery that harvests exactly what it spends keeps its
        # level: the lanes started empty never meet the run from e0 = 73,
        # so the frame-by-frame walk finishes the run
        battery = BatteryModel(e_max=100, efficiency=ConstantEfficiency(1.0))
        arrivals = arrival_model_from_pmf([0.0] * 5 + [1.0])
        policy = StatePolicy(actions=(5,) * 101)
        levels = self.walked_levels(battery, arrivals, policy, 90_007, seed=4, e0=73)
        assert (levels == 73).all()
        args = (battery, arrivals, CONS, REWARD, policy)
        assert (simulate(*args, frames=90_007, seed=4, e0=73)
                == simulate_oracle(*args, frames=90_007, seed=4, e0=73))

    def test_pairwise_sum_is_numpys_sum(self):
        # every length up to 300, lengths about one and two summed pieces, and
        # 10^6 frames; values of either sign from 1e-3 to 1e6, so that any
        # other order of the additions rounds differently
        rng = np.random.default_rng(29)
        values = rng.choice([-1.0, 1.0], 1001) * 10.0 ** rng.uniform(-3, 6, 1001)
        lengths = [*range(1, 301), *range(_SUM_PIECE - 1, _SUM_PIECE + 10),
                   *(2 * _SUM_PIECE + 8 * k + d for k in range(4) for d in (-1, 1)),
                   10 ** 6, 10 ** 6 + 3]
        for frames in lengths:
            index = rng.integers(0, len(values), frames).astype(np.uint16)
            assert _pairwise_sum(values, index) == values[index].sum(), frames

    def test_peak_memory_of_a_long_run(self, large_policy):
        # the large-battery workload's 10^6 frames; the tables are cached
        # before the trace starts
        args = (LARGE, GEOM20, CONS, REWARD, large_policy)
        simulate(*args, frames=10, seed=1)
        frames = 10 ** 6
        # about 6.1 bytes a frame: the walk's draws, lanes and paths, and the
        # 2-byte levels; no reward array is formed
        peak = traced_peak(lambda: simulate(*args, frames=frames, seed=1))
        assert peak <= 7 * frames

    @pytest.mark.parametrize("e0", [-1, 101, 1.5, True])
    def test_rejects_start_outside_battery(self, e0):
        policy = StatePolicy(actions=(0,) * 101)
        with pytest.raises(DomainError):
            simulate(BASELINE, GEOM20, CONS, REWARD, policy, frames=10, seed=1, e0=e0)

    @pytest.mark.parametrize("frames", [0, 10 ** 8 + 1, 1000.0, True])
    def test_rejects_frame_count_out_of_range(self, frames):
        # checked before any arrival is drawn, so the large count allocates nothing;
        # a count that is not an integer (a bool is not one) used to fail in NumPy
        policy = StatePolicy(actions=(0,) * 101)
        with pytest.raises(DomainError, match="frames"):
            simulate(BASELINE, GEOM20, CONS, REWARD, policy, frames=frames, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, False, None])
    def test_rejects_seed_that_is_not_a_whole_number(self, seed):
        # each used to fail in NumPy's generator with its own TypeError or ValueError
        policy = StatePolicy(actions=(0,) * 101)
        with pytest.raises(DomainError, match="seed"):
            simulate(BASELINE, GEOM20, CONS, REWARD, policy, frames=10, seed=seed)
