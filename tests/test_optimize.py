import itertools
import math
import sys
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import build_chain, dense_charge_rows, gth_gain
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_acceptance import random_scenario

from ehpolicy import (
    ActionSet,
    BatteryModel,
    ConstantEfficiency,
    IdentityConsumption,
    LogSnrReward,
    Partition,
    QuadraticCapacitor,
    TabulatedEfficiency,
    derive_bp,
    derive_lcp,
    evaluate_policy,
    get_preset,
    make_truncated_geometric,
    make_truncated_poisson,
    optimize,
    refine_partition_search,
    search_partition_policy,
    solve_perfect_soc,
    upper_bound,
)
from ehpolicy.chain import (
    _EDGE_EPS,
    PartitionPolicy,
    StatePolicy,
    _closed_classes,
    _level_tables,
    _stationary_laws,
    charge_matrix,
    exact_occupation,
)
from ehpolicy.core import (
    DeviceTableConsumption,
    _spend_tables,
    arrival_model_from_pmf,
    next_state_table,
)
from ehpolicy.errors import (
    BudgetExceededError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    UnsupportedPartitionError,
)
from ehpolicy.harness import build_models
from ehpolicy.optimize import (
    _KEEP_RTOL,
    _action_blocks,
    _beta_star_vec,
    _candidate_gains,
    _first_reaching,
    _improve,
    _policy_values,
)

BASELINE = BatteryModel(e_max=100, efficiency=QuadraticCapacitor(1.05))
GEOM20 = make_truncated_geometric(20.0, 50)
REWARD = LogSnrReward(0.01)
CONS = IdentityConsumption()


@st.composite
def small_search_scenarios(draw):
    """Small model, action set, partition and start level; large actions make trap
    prefixes."""
    e_max = draw(st.integers(5, 40))
    if draw(st.booleans()):
        profile = QuadraticCapacitor(draw(st.floats(1.05, 3.0)))
    else:
        profile = TabulatedEfficiency(tuple(draw(
            st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))))
    if draw(st.booleans()):
        b_max = draw(st.integers(1, 12))
        arrivals = make_truncated_geometric(draw(st.floats(0.2, 0.8)) * b_max, b_max)
    else:
        weights = draw(st.lists(st.integers(0, 10), min_size=2, max_size=10)
                       .filter(lambda w: sum(w[1:]) > 0))
        arrivals = arrival_model_from_pmf(weights)
    n_subsets = draw(st.integers(1, 4))
    # at most 5^3 candidates with three subsets and 3^4 with four
    powers = draw(st.sets(st.integers(1, e_max), min_size=1,
                          max_size=4 if n_subsets < 4 else 2))
    actions = ActionSet((0,) + tuple(sorted(powers)))
    e0 = draw(st.integers(0, e_max))
    return (BatteryModel(e_max=e_max, efficiency=profile), arrivals, actions,
            Partition.uniform(e_max, n_subsets), e0)


# small_search_scenarios draws; they hold trap prefixes (e0 never reaches the
# last subset) beside prefixes that do reach it, a candidate whose chain has
# two closed classes, chains that mix too slowly for plain power iteration, a
# censored chain whose nearly closed transient levels make its law solve so
# ill-conditioned that a law on those levels passed the residual check,
# first-subset actions from which e0 = 0 never leaves the first subset beside
# actions from which it does, a start in the last subset, and two chains whose
# nearly closed band of high levels leaks only after more than 2^64 frames
SEARCH_EXAMPLES = [
    (BatteryModel(e_max=30, efficiency=QuadraticCapacitor(1.05)),
     make_truncated_geometric(6.0, 15), ActionSet((0, 1, 2, 6)),
     Partition.uniform(30, 2), 0),
    (BatteryModel(e_max=12, efficiency=QuadraticCapacitor(1.3)),
     arrival_model_from_pmf([1, 1]), ActionSet((0, 5, 6)),
     Partition.uniform(12, 1), 0),
    (BatteryModel(e_max=31, efficiency=QuadraticCapacitor(1.9)),
     arrival_model_from_pmf([4, 0, 2, 4, 0, 10, 5, 0, 7]),
     ActionSet((0, 2, 6, 15, 31)), Partition.uniform(31, 3), 0),
    (BatteryModel(e_max=18, efficiency=QuadraticCapacitor(1.0625)),
     make_truncated_geometric(7.5, 10), ActionSet((0, 1)),
     Partition.uniform(18, 1), 0),
    (BatteryModel(e_max=30, efficiency=QuadraticCapacitor(1.05)),
     make_truncated_geometric(6.0, 15), ActionSet((0, 1, 2, 6)),
     Partition.uniform(30, 3), 0),
    (BatteryModel(e_max=20, efficiency=QuadraticCapacitor(1.3)),
     make_truncated_geometric(3.0, 8), ActionSet((0, 2, 5)),
     Partition.uniform(20, 3), 17),
    (BatteryModel(e_max=25, efficiency=QuadraticCapacitor(1.125)),
     make_truncated_geometric(6.75, 9), ActionSet((0, 1)),
     Partition(e_max=25, starts=(0,)), 2),
    (BatteryModel(e_max=21, efficiency=QuadraticCapacitor(1.125)),
     make_truncated_geometric(6.0, 8), ActionSet((0, 1)),
     Partition(e_max=21, starts=(0,)), 2),
]


def with_search_examples(test):
    """``test`` with each of SEARCH_EXAMPLES as an explicit hypothesis example."""
    for scenario in SEARCH_EXAMPLES:
        test = example(scenario=scenario)(test)
    return test


def fig3_coarse_stage():
    """Search arguments of fig3's coarse N=3 stage: 26 actions, every fourth."""
    models = build_models(get_preset("fig3"))
    coarse = ActionSet(tuple(int(a) for a in models.actions.as_array()[::4]))
    return (models.battery, models.arrivals, models.cons, models.reward, coarse,
            Partition.uniform(models.battery.e_max, 3))


def search_cases():
    """``_candidate_gains`` arguments of each of SEARCH_EXAMPLES and of fig3's
    coarse stage."""
    for battery, arrivals, actions, part, e0 in SEARCH_EXAMPLES:
        yield battery, arrivals, CONS, REWARD, actions, part, e0
    yield *fig3_coarse_stage(), 0


def bound_calls(args, kind):
    """The ``_ratio_bounds`` calls of ``_candidate_gains(*args)`` that make the
    search's ``kind`` of bound, "row" or "trap", as (step, v, caller): the
    step, the v that the bound started from and the caller's locals, whose
    ``choice_e`` holds the prefix's actions on E."""
    ratio_bounds = optimize._ratio_bounds
    calls = []

    def recorded(step, frames, v):
        caller = dict(sys._getframe(1).f_locals)
        if caller.get("prefix") is not None:
            calls.append(("trap" if "trap" in caller else "row", step, v, caller))
        return ratio_bounds(step, frames, v)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(optimize, "_ratio_bounds", recorded)
        _candidate_gains(*args)
    return [call[1:] for call in calls if call[0] == kind]


def upper_bounds(step, v, sweeps):
    """The upper bound of ``_ratio_bounds(step, 1.0, v)`` after each of ``sweeps``."""
    bounds = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        for n in sweeps:
            monkeypatch.setattr(optimize, "_BOUND_SWEEPS", n)
            bounds.append(optimize._ratio_bounds(step, 1.0, v)[1])
    return bounds


def nearly_decomposable_model():
    """Lossless 61-level model whose N=2 chains from spending 16 or 18 quanta
    on LOW have two nearly closed halves: (battery, arrivals, cons, reward)
    and the uniform two-subset partition."""
    battery = BatteryModel(e_max=60, efficiency=ConstantEfficiency(1.0))
    return ((battery, make_truncated_poisson(5.0, 20), CONS, REWARD),
            Partition.uniform(60, 2))


def lazy_power(transition, squarings=128):
    """(P + I)/2 squared ``squarings`` times, rows renormalized against round-off.

    It has the recurrent classes, class laws and absorption weights of P, so
    power iteration on it has the same limit from every start, but a chain
    that leaves a near-trap only after 1e38 frames converges in a few steps.
    With 64 squarings, chains whose band of high levels leaks only after more
    than 2^64 frames looked closed to the oracle.
    """
    power = 0.5 * (transition + np.eye(len(transition)))
    for _ in range(squarings):
        power = power @ power
        power /= power.sum(axis=1, keepdims=True)
    return power


@pytest.mark.parametrize("actions", [(0, 6, 0), (2, 6, 0)])
def test_power_iteration_agrees_with_lazy_power(power_iteration, actions):
    # N=3 candidates on which power iteration one frame at a time had not
    # converged after 10^6 frames
    battery = BatteryModel(e_max=31, efficiency=QuadraticCapacitor(1.9))
    arrivals = arrival_model_from_pmf([4, 0, 2, 4, 0, 10, 5, 0, 7])
    policy = PartitionPolicy(partition=Partition.uniform(31, 3), actions=actions)
    transition, state_reward = build_chain(battery, arrivals, CONS, REWARD, policy)
    g, pi = power_iteration(transition, state_reward, 0)
    want = lazy_power(transition)[0]
    assert np.abs(pi - want).max() <= 1e-12
    assert g == pytest.approx(float(want @ state_reward), abs=1e-12)


def dense_policy_values(transition, reward):
    """Gain and bias of a chain with one closed class by one dense solve of the
    whole chain: column ref of I - P, ref the class's lowest level, carries
    the gain in place of h(ref) = 0."""
    classes = _closed_classes(transition > _EDGE_EPS)
    assert len(classes) == 1
    ref = classes[0][0]
    system = np.eye(len(transition)) - transition
    system[:, ref] = 1.0
    x = np.linalg.solve(system, reward)
    gain = np.full(len(x), x[ref])
    x[ref] = 0.0
    return gain, x


def dense_improve(q, choice, allowed=None):
    """Greedy step on the full (state, action) table ``q``, which it overwrites,
    as policy iteration took it before it worked in blocks.

    A state keeps its action in ``choice`` unless another beats it by more
    than round-off relative to max |q|. Only ``allowed`` actions compete, if
    given. Returns the new choice and which actions come within that
    round-off of the best.
    """
    tol = _KEEP_RTOL * max(q.max(), -q.min())
    if allowed is not None:
        np.copyto(q, -np.inf, where=~allowed)
    best = q.max(axis=1)
    near = q >= best[:, None] - tol
    keep = near[np.arange(len(choice)), choice]
    return np.where(keep, choice, q.argmax(axis=1)), near


def candidate_gains(battery, arrivals, actions, partition, e0=0):
    """{action vector: gain} of every candidate, with no prefix pruned."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(optimize, "_BOUND_SWEEPS", 0)
        gains = _candidate_gains(battery, arrivals, CONS, REWARD, actions, partition, e0)
    assert gains.shape == (len(actions),) * partition.n_subsets
    return {tuple(actions.actions[i] for i in combo): float(gain)
            for combo, gain in np.ndenumerate(gains)}


def brute_force_best_state_policy(battery, arrivals, cons, reward, actions, e0=0):
    """Enumerate every deterministic per-state policy and return the best gain."""
    n = battery.e_max + 1
    best = -np.inf
    for combo in itertools.product(actions.actions, repeat=n):
        analytic = evaluate_policy(battery, arrivals, cons, reward,
                                   StatePolicy(actions=combo), e0)
        best = max(best, analytic)
    return best


class TestSolvePerfectSoc:
    def test_single_action_policy_is_idle(self):
        policy = solve_perfect_soc(BASELINE, GEOM20, CONS, REWARD, ActionSet((0,)))
        assert policy.actions == (0,) * 101
        analytic = evaluate_policy(BASELINE, GEOM20, CONS, REWARD, policy)
        assert analytic == 0.0

    def test_matches_brute_force_on_tiny_model(self):
        # small enough to enumerate all 2^5 deterministic state policies
        bat = BatteryModel(e_max=4, efficiency=ConstantEfficiency(1.0))
        arr = arrival_model_from_pmf([0.3, 0.5, 0.2])
        acts = ActionSet((0, 2))
        want = brute_force_best_state_policy(bat, arr, CONS, REWARD, acts)
        policy = solve_perfect_soc(bat, arr, CONS, REWARD, acts)
        got = evaluate_policy(bat, arr, CONS, REWARD, policy)
        assert got == pytest.approx(want, abs=1e-9)

    def test_matches_brute_force_three_actions(self):
        bat = BatteryModel(e_max=3, efficiency=ConstantEfficiency(0.8))
        arr = arrival_model_from_pmf([0.2, 0.3, 0.3, 0.2])
        acts = ActionSet((0, 1, 3))
        want = brute_force_best_state_policy(bat, arr, CONS, REWARD, acts)
        policy = solve_perfect_soc(bat, arr, CONS, REWARD, acts)
        got = evaluate_policy(bat, arr, CONS, REWARD, policy)
        assert got == pytest.approx(want, abs=1e-9)

    def test_never_transmits_more_than_available(self):
        policy = solve_perfect_soc(BASELINE, GEOM20, CONS, REWARD,
                                   ActionSet(tuple(range(101))))
        for e, a in enumerate(policy.actions):
            assert CONS.consumption(a) <= e

    def test_warns_when_recharge_hypothesis_fails(self):
        arr = arrival_model_from_pmf([1.0])
        with pytest.warns(UserWarning):
            solve_perfect_soc(BASELINE, arr, CONS, REWARD, ActionSet((0, 1)))

    @pytest.mark.parametrize("scenario", ["baseline", "fig5_band", "tabulated"])
    def test_matches_reference_rvi(self, rvi_oracle, scenario):
        if scenario == "baseline":
            models = (BASELINE, GEOM20, CONS, REWARD, ActionSet(tuple(range(101))))
        elif scenario == "fig5_band":
            m = build_models(get_preset("fig5"), e_max=150, band="868MHz")
            models = (m.battery, m.arrivals, m.cons, m.reward, m.actions)
        else:
            bat = BatteryModel(e_max=100, efficiency=TabulatedEfficiency((0.2, 1.0, 0.2)))
            models = (bat, GEOM20, CONS, REWARD, ActionSet(tuple(range(0, 101, 2))))
        assert solve_perfect_soc(*models) == rvi_oracle(*models)

    @pytest.mark.parametrize("preset,e_max,band", [
        *(("fig4", e, None) for e in get_preset("fig4").sweep.e_max),
        *(("fig5", e, band) for e in get_preset("fig5").sweep.e_max
          for band in get_preset("fig5").sweep.bands)])
    def test_matches_reference_rvi_on_sweep_points(self, rvi_oracle, preset, e_max, band):
        m = build_models(get_preset(preset), e_max=e_max, band=band)
        models = (m.battery, m.arrivals, m.cons, m.reward, m.actions)
        assert solve_perfect_soc(*models) == rvi_oracle(*models)

    def test_policy_does_not_depend_on_reward_scale(self):
        # scaling every rate by a power of two scales each action value
        # exactly, so the tie rule must return the same actions; levels 1 to
        # 5 here have near-ties that an absolute tolerance snaps at one scale
        # and not at the other
        @dataclass(frozen=True)
        class ScaledReward:
            base: LogSnrReward
            factor: float

            def rate(self, rho):
                return self.factor * self.base.rate(rho)

        bat = BatteryModel(e_max=40, efficiency=ConstantEfficiency(0.5))
        arr = make_truncated_geometric(2.0, 5)
        acts = ActionSet(tuple(range(41)))
        want = solve_perfect_soc(bat, arr, CONS, REWARD, acts)
        assert solve_perfect_soc(bat, arr, CONS, ScaledReward(REWARD, 2.0 ** 17), acts) == want

    def test_multichain_policy_with_equal_class_gains(self):
        # arrivals and the one nonzero spend are even, so a policy that spends
        # 4 quanta at levels 4 and 5 keeps every level's parity: the even and the
        # odd levels are two closed classes with the same gain, and a dense
        # unichain evaluation of that policy is singular
        bat = BatteryModel(e_max=5, efficiency=ConstantEfficiency(1.0))
        arr = arrival_model_from_pmf([2, 0, 3])
        acts = ActionSet((0, 4))
        policy = solve_perfect_soc(bat, arr, CONS, REWARD, acts)
        assert policy.actions == (0, 0, 0, 0, 4, 4)
        transition, _ = build_chain(bat, arr, CONS, REWARD, policy)
        assert np.flatnonzero(exact_occupation(transition, np.arange(6), 0)).tolist() == [0, 2, 4]
        assert np.flatnonzero(exact_occupation(transition, np.arange(6), 1)).tolist() == [1, 3, 5]
        want = brute_force_best_state_policy(bat, arr, CONS, REWARD, acts)
        got = evaluate_policy(bat, arr, CONS, REWARD, policy)
        assert got == pytest.approx(want, abs=1e-12)

    def test_trap_level_keeps_its_own_gain(self, rvi_oracle):
        # at level 0 the capacitor stores under 5% of what arrives, so two quanta
        # never raise it and an empty battery stays empty under every policy:
        # the gain differs between states, relative value iteration does not
        # settle, and every start level must still get its optimal gain
        bat = BatteryModel(e_max=3, efficiency=QuadraticCapacitor(1.05))
        arr = arrival_model_from_pmf([3, 3, 1, 0])
        acts = ActionSet((0, 1))
        with pytest.warns(UserWarning, match="recharge hypothesis"):
            policy = solve_perfect_soc(bat, arr, CONS, REWARD, acts)
        for e0 in range(4):
            want = brute_force_best_state_policy(bat, arr, CONS, REWARD, acts, e0)
            got = evaluate_policy(bat, arr, CONS, REWARD, policy, e0)
            assert got == pytest.approx(want, abs=1e-12)
        assert evaluate_policy(bat, arr, CONS, REWARD, policy, 1) > 0.0
        with pytest.raises(ConvergenceError):
            rvi_oracle(bat, arr, CONS, REWARD, acts, max_sweeps=10 ** 4)

    def test_criterion_4_first_scenario_gain(self, rvi_oracle):
        # e_max=261 and |A|=10, where policy iteration started from spending
        # everything meets iterates with up to four closed classes
        battery, arrivals, reward = random_scenario(np.random.default_rng(20260823))
        acts = ActionSet(tuple(range(0, arrivals.b_max + 1, max(1, arrivals.b_max // 8))))
        assert (battery.e_max, len(acts)) == (261, 10)
        models = (battery, arrivals, CONS, reward, acts)
        got = evaluate_policy(*models[:4], solve_perfect_soc(*models))
        want = evaluate_policy(*models[:4], rvi_oracle(*models))
        assert got == pytest.approx(want, abs=1e-12)


def sweep_point_models():
    """The models of every fig4 and fig5 sweep point."""
    models = []
    for preset in ("fig4", "fig5"):
        cfg = get_preset(preset)
        for band in cfg.sweep.bands or [None]:
            for e_max in cfg.sweep.e_max:
                m = build_models(cfg, e_max=e_max, band=band)
                models.append((m.battery, m.arrivals, m.cons, m.reward, m.actions))
    return models


def multichain_models():
    """The models of the multichain tests of TestSolvePerfectSoc."""
    battery, arrivals, reward = random_scenario(np.random.default_rng(20260823))
    return [
        (BatteryModel(e_max=5, efficiency=ConstantEfficiency(1.0)),
         arrival_model_from_pmf([2, 0, 3]), CONS, REWARD, ActionSet((0, 4))),
        (BatteryModel(e_max=3, efficiency=QuadraticCapacitor(1.05)),
         arrival_model_from_pmf([3, 3, 1, 0]), CONS, REWARD, ActionSet((0, 1))),
        (battery, arrivals, CONS, reward,
         ActionSet(tuple(range(0, arrivals.b_max + 1, max(1, arrivals.b_max // 8))))),
    ]


class TestBlockedImprovement:
    @pytest.mark.parametrize("bound", [1, 20, 1 << 14])
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_dense_step(self, monkeypatch, seed, bound):
        # values on a grid of halves tie exactly, and offsets of 1e-12 tie
        # within round-off; odd seeds draw consumption that falls as well as
        # rises with power, and some actions cost more than the top level
        rng = np.random.default_rng(seed)
        n, n_acts = int(rng.integers(1, 60)), int(rng.integers(1, 16))
        dcons = np.concatenate([[0], rng.integers(0, n + 5, n_acts - 1)])
        if seed % 2 == 0:
            dcons.sort()
        rates = np.concatenate([[0.0], rng.integers(0, 4, n_acts - 1) * 0.5])
        rates *= seed % 5 > 0  # every fifth seed earns nothing and gets a zero bias
        monkeypatch.setattr(optimize, "_STACK_ENTRIES", bound)
        blocks = _action_blocks(dcons, rates, n)
        start_of, j = _spend_tables(np.arange(n)[:, None], dcons, rates)
        for at, start, paid, rate in blocks:
            width = start.shape[1]
            assert start.size <= bound or len(start) == 1
            assert start.dtype == np.min_scalar_type(n - 1)
            assert np.array_equal(start, start_of[at, :width])
            # the mask and the rates rebuild the reward table
            assert np.array_equal(np.where(paid, rate, 0.0), j[at, :width])
        assert [b[0].start for b in blocks] == [0] + [b[0].stop for b in blocks[:-1]]
        assert blocks[-1][0].stop == n
        buf = np.empty(max(b[1].size for b in blocks))
        states = np.arange(n)

        def values(scale):
            return rng.integers(-3, 2, n) * scale + rng.integers(0, 2, n) * 1e-12

        # a step on P·g, as in an iterate with closed classes of different gains;
        # every third seed takes a zero gain, whose round-off tolerance is 0
        v_gain = values(0.5) if seed % 3 else np.zeros(n)
        choice = rng.integers(0, n_acts, n)
        want, allowed = dense_improve(v_gain[start_of], choice)
        got, floor = _improve(blocks, v_gain, buf, choice, v_gain[start_of[states, choice]],
                              with_reward=False)
        assert np.array_equal(got, want)
        # a step on r + P·h among the actions it allows, from a choice they all
        # include, with and without the -inf mask
        choice = got
        v_bias = values(1.5) if seed % 5 else np.zeros(n)
        value = v_bias[start_of[states, choice]] + j[states, choice]
        for mask, gain_step in ((allowed, (v_gain, floor)), (None, None)):
            want, near = dense_improve(v_bias[start_of] + j, choice, mask)
            got, floor_bias = _improve(blocks, v_bias, buf, choice, value, allowed=gain_step)
            assert np.array_equal(got, want)
            lowest = _first_reaching(blocks, v_bias, buf, floor_bias, gain_step)
            assert np.array_equal(lowest, near.argmax(axis=1))

    @pytest.mark.parametrize("bound", [1, 20, 10 ** 12])
    def test_block_bound_does_not_change_policies(self, monkeypatch, bound):
        # one state per block, a few entries per block, and one block
        models = sweep_point_models() + multichain_models()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the trap model breaks the recharge hypothesis
            want = [solve_perfect_soc(*m) for m in models]
            monkeypatch.setattr(optimize, "_STACK_ENTRIES", bound)
            assert [solve_perfect_soc(*m) for m in models] == want

    def test_tables_keep_only_payable_columns(self):
        # e_max = 1000 over 1001 actions: a state pays for the actions up to its
        # level, so a block keeps about half the full table
        blocks = _action_blocks(np.arange(1001), np.ones(1001), 1001)
        kept = sum(b[1].size for b in blocks)
        assert 0.5 * 1001 ** 2 < kept < 0.53 * 1001 ** 2

    def test_peak_memory_of_a_large_solve(self):
        # the large-battery workload: e_max = 1000 over 1001 actions; the
        # charge matrix is cached before the trace starts
        battery = BatteryModel(e_max=1000, efficiency=QuadraticCapacitor(1.05))
        models = (battery, GEOM20, CONS, REWARD, ActionSet(tuple(range(1001))))
        charge_matrix(battery, GEOM20)
        tracemalloc.start()
        try:
            solve_perfect_soc(*models)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 0.74 n^2 doubles: the block tables hold a 2-byte start and a
        # 1-byte mask per entry, and no float table
        assert peak <= 0.85 * 8 * 1001 ** 2

    def test_memory_of_a_large_solve_and_evaluation(self):
        # the same solve, then the evaluation of its policy, with the charge band
        # built inside the trace (the next-state table is cached before it):
        # a cached dense charge matrix alone would hold 1.0 n^2 doubles
        battery = BatteryModel(e_max=1000, efficiency=QuadraticCapacitor(1.05))
        models = (battery, GEOM20, CONS, REWARD, ActionSet(tuple(range(1001))))
        next_state_table(battery, GEOM20.b_max)
        charge_matrix.cache_clear()
        tracemalloc.start()
        try:
            policy = solve_perfect_soc(*models)
            evaluate_policy(*models[:4], policy)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.9 * 8 * 1001 ** 2  # about 0.79 n^2 doubles
        assert kept < 0.1 * 8 * 1001 ** 2


class TestPolicyValues:
    @pytest.mark.parametrize("e_max,spend,span", [
        # the optimal policy at e_max 200: its class is levels 70-156, levels
        # 0-69 only charge upwards and levels 157-200 spend back into the class,
        # so the transient levels form two components
        (200, None, (70, 156)),
        # spending 5 quanta at every level: the class is every level
        (100, 5, (0, 100))])
    def test_unichain_matches_dense_solve(self, e_max, spend, span):
        battery = BatteryModel(e_max=e_max, efficiency=QuadraticCapacitor(1.05))
        if spend is None:
            policy = solve_perfect_soc(battery, GEOM20, CONS, REWARD,
                                       ActionSet(tuple(range(e_max + 1))))
        else:
            policy = StatePolicy(actions=(spend,) * (e_max + 1))
        band = charge_matrix(battery, GEOM20)
        starts, state_reward = _level_tables(CONS, REWARD, policy, e_max)
        gain, bias = _policy_values(band, band > _EDGE_EPS, starts, state_reward)
        transition = dense_charge_rows(battery, GEOM20)[starts]
        (cls,) = _closed_classes(transition > _EDGE_EPS)
        assert cls.tolist() == list(range(span[0], span[1] + 1))
        want_gain, want_bias = dense_policy_values(transition, state_reward)
        assert gain.min() == gain.max()
        assert gain[0] == pytest.approx(want_gain[0], abs=1e-12)
        assert np.abs(bias - want_bias).max() <= 1e-9 * np.abs(want_bias).max()
        assert bias[cls[0]] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_gain_agrees_with_the_class_route(self, seed):
        # the solve's evaluator and evaluate_policy's class route give the same
        # gain from every start level, for random actions per level and per
        # subset, and for (e_max, a) on two subsets, which empties the battery
        # at every level of LOW: about half the gains are traps at 0, and some
        # chains have two closed classes
        rng = np.random.default_rng(seed)
        e_max = int(rng.integers(5, 41))
        b_max = int(rng.integers(1, 13))
        battery = BatteryModel(e_max=e_max,
                               efficiency=QuadraticCapacitor(float(rng.uniform(1.05, 3.0))))
        arrivals = make_truncated_geometric(rng.uniform(0.2, 0.8) * b_max, b_max)
        band, rows = charge_matrix(battery, arrivals), dense_charge_rows(battery, arrivals)
        partition = Partition.uniform(e_max, int(rng.integers(1, 5)))
        policies = [
            StatePolicy(actions=tuple(rng.integers(0, b_max + 1, size=e_max + 1))),
            PartitionPolicy(partition=partition,
                            actions=tuple(rng.integers(0, b_max + 1, size=partition.n_subsets))),
            PartitionPolicy(partition=Partition.uniform(e_max, 2),
                            actions=(e_max, int(rng.integers(1, e_max + 1))))]
        for policy in policies:
            starts, reward = _level_tables(CONS, REWARD, policy, e_max)
            gain = _policy_values(band, band > _EDGE_EPS, starts, reward)[0]
            for e0 in range(e_max + 1):
                want = exact_occupation(rows, starts, e0) @ reward
                assert gain[e0] == pytest.approx(want, rel=1e-12, abs=0 if want else 1e-12)

    def test_transient_level_draining_into_two_classes(self):
        # a parity chain on the band: levels 1, 3, 5 and levels 2, 4, 6 are two
        # closed classes (5 and 6 spend back to 1 and 2), and level 0 stays or
        # moves to 1 or 2; the rewards give the classes different gains
        band = np.array([[0.5, 0.2, 0.3]] + [[0.4, 0.0, 0.6]] * 4 + [[1.0, 0.0, 0.0]] * 2)
        starts = np.array([0, 1, 2, 3, 4, 1, 2])
        reward = np.array([0.7, 0.1, 0.5, 0.2, 0.4, 0.3, 0.6])
        transition = np.zeros((7, 7))
        for e, start in enumerate(starts):
            for d, p in enumerate(band[start]):
                if p:
                    transition[e, start + d] = p
        gain, bias = _policy_values(band, band > _EDGE_EPS, starts, reward)
        assert [c.tolist() for c in _closed_classes(transition > _EDGE_EPS)] == [
            [1, 3, 5], [2, 4, 6]]
        assert bias[1] == 0.0 and bias[2] == 0.0
        # g = P·g and g + h = r + P·h
        assert np.abs(transition @ gain - gain).max() <= 1e-12
        assert np.abs(reward + transition @ bias - gain - bias).max() <= 1e-12
        # the absorption law: level 0 ends in the odd class with probability 2/5
        assert gain[[1, 3, 5]].tolist() == [gain[1]] * 3
        assert gain[[2, 4, 6]].tolist() == [gain[2]] * 3
        assert gain[1] != pytest.approx(gain[2], abs=1e-3)
        assert gain[0] == pytest.approx(0.4 * gain[1] + 0.6 * gain[2], abs=1e-12)


class TestSearchPartitionPolicy:
    def test_singleton_matches_perfect_soc(self):
        # full-resolution search and the perfect-knowledge solver solve the same problem
        bat = BatteryModel(e_max=5, efficiency=ConstantEfficiency(0.9))
        arr = arrival_model_from_pmf([0.4, 0.4, 0.2])
        acts = ActionSet((0, 1, 2))
        policy = solve_perfect_soc(bat, arr, CONS, REWARD, acts)
        g_rvi = evaluate_policy(bat, arr, CONS, REWARD, policy)
        result = search_partition_policy(bat, arr, CONS, REWARD, acts,
                                         Partition(5, tuple(range(6))))
        assert result.evaluated_count == 3 ** 6
        assert result.best_reward == pytest.approx(g_rvi, abs=1e-8)

    def test_reward_matches_independent_evaluation(self):
        part = Partition.uniform(100, 2)
        acts = ActionSet(tuple(range(0, 51, 5)))
        result = search_partition_policy(BASELINE, GEOM20, CONS, REWARD, acts, part)
        analytic = evaluate_policy(BASELINE, GEOM20, CONS, REWARD, result.best_policy)
        assert result.best_reward == pytest.approx(analytic, abs=1e-9)

    def test_candidate_gains_are_exhaustive(self):
        part = Partition.uniform(20, 2)
        acts = ActionSet((0, 3, 7))
        bat = BatteryModel(e_max=20, efficiency=QuadraticCapacitor(1.2))
        arr = make_truncated_geometric(4.0, 10)
        result = search_partition_policy(bat, arr, CONS, REWARD, acts, part)
        table = candidate_gains(bat, arr, acts, part)
        assert len(table) == 9
        assert result.best_reward == max(table.values())

    def test_tie_breaks_lexicographically(self):
        # no arrivals: every prefix is a trap and every policy earns zero, so
        # the all-idle vector, the first maximum, must win
        arr = arrival_model_from_pmf([1.0])
        bat = BatteryModel(e_max=20, efficiency=QuadraticCapacitor(1.2))
        for n_subsets in (2, 3, 4):
            result = search_partition_policy(bat, arr, CONS, REWARD, ActionSet((0, 2, 5)),
                                             Partition.uniform(20, n_subsets))
            assert result.best_policy.actions == (0,) * n_subsets
            assert result.best_reward == 0.0
            assert result.evaluated_count == 3 ** n_subsets

    def test_nan_gain_never_wins(self, monkeypatch):
        # the NaN sits on the true winner, so the runner-up must win instead
        part = Partition.uniform(20, 2)
        acts = ActionSet((0, 3, 7))
        bat = BatteryModel(e_max=20, efficiency=QuadraticCapacitor(1.2))
        arr = make_truncated_geometric(4.0, 10)
        table = candidate_gains(bat, arr, acts, part)
        winner = max(table, key=table.get)
        runner_up = max((c for c in table if c != winner), key=table.get)
        score_group = optimize._score_group
        placed = []

        def with_nan(rows, start_by_action, j_by_action, folds, choices, e0, best):
            gains = score_group(rows, start_by_action, j_by_action, folds, choices, e0, best)
            for row, choice_e in zip(gains, choices):
                if acts.actions[choice_e[0]] == winner[0]:
                    row[acts.actions.index(winner[1])] = np.nan
                    placed.append(True)
            return gains

        monkeypatch.setattr(optimize, "_score_group", with_nan)
        # unbounded: the winner's lower bound, taken before its gain turns NaN,
        # would prune the runner-up
        monkeypatch.setattr(optimize, "_BOUND_SWEEPS", 0)
        result = search_partition_policy(bat, arr, CONS, REWARD, acts, part)
        assert placed
        assert result.best_policy.actions == runner_up
        assert result.best_reward == table[runner_up]

    def test_single_action_searches_any_partition(self):
        # one candidate, whatever the number of subsets, even past NumPy's 64 axes
        result = search_partition_policy(BASELINE, GEOM20, CONS, REWARD, ActionSet((0,)),
                                         Partition(100, tuple(range(101))))
        assert result.best_policy.actions == (0,) * 101
        assert result.best_reward == 0.0
        assert result.evaluated_count == 1

    def test_multichain_candidates_get_their_class_gain(self, power_iteration):
        # with 6 quanta spent on LOW the chain from e0 = 0 never leaves LOW, while
        # HIGH holds a closed class of its own: a dense unichain solve of such a
        # chain is singular, and it returned 0.0 for (6, 0) and 0.00995 for (6, 1)
        part = Partition.uniform(100, 2)
        table = candidate_gains(BASELINE, GEOM20, ActionSet((0, 1, 6)), part)
        for combo, gain in table.items():
            policy = PartitionPolicy(partition=part, actions=combo)
            want = evaluate_policy(BASELINE, GEOM20, CONS, REWARD, policy)
            assert gain == pytest.approx(want, abs=1e-12)
        for last in (0, 1, 6):
            assert table[(6, last)] == pytest.approx(0.0024714513513, abs=1e-12)
        transition, state_reward = build_chain(
            BASELINE, GEOM20, CONS, REWARD, PartitionPolicy(partition=part, actions=(6, 1)))
        g_iter, _ = power_iteration(transition, state_reward, 0)
        assert g_iter == pytest.approx(table[(6, 1)], abs=1e-8)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario=small_search_scenarios())
    @with_search_examples
    def test_every_candidate_gain_matches_oracles(self, power_iteration, scenario):
        battery, arrivals, actions, part, e0 = scenario
        result = search_partition_policy(battery, arrivals, CONS, REWARD, actions, part, e0)
        assert result.evaluated_count == len(actions) ** part.n_subsets
        table = candidate_gains(battery, arrivals, actions, part, e0)
        assert result.best_reward == max(table.values())
        for combo, gain in table.items():
            policy = PartitionPolicy(partition=part, actions=combo)
            want = evaluate_policy(battery, arrivals, CONS, REWARD, policy,
                                   e0)
            assert gain == pytest.approx(want, abs=1e-10)
            transition, state_reward = build_chain(battery, arrivals, CONS, REWARD, policy)
            g_iter, _ = power_iteration(lazy_power(transition), state_reward, e0)
            assert gain == pytest.approx(g_iter, abs=1e-8)

    def test_reported_gain_is_the_winners_gain(self):
        # criterion 4's scenarios: the reported best gain is the winner's own gain
        rng = np.random.default_rng(20260823)
        for _ in range(50):
            battery, arrivals, reward = random_scenario(rng)
            step = max(1, arrivals.b_max // 8)
            acts = ActionSet(tuple(range(0, arrivals.b_max + 1, step)))
            result = search_partition_policy(battery, arrivals, CONS, reward, acts,
                                             Partition.uniform(battery.e_max, 2))
            analytic = evaluate_policy(battery, arrivals, CONS, reward, result.best_policy)
            assert result.best_reward == pytest.approx(analytic, abs=1e-11)

    def test_trapped_subtree_scored_once(self, monkeypatch):
        # fig3's coarse N=3 stage: from e0 = 0 most first-subset actions keep the
        # chain in the first subset, and each such action's 26^2 candidates share
        # one class-route gain; scored one candidate prefix at a time, it took 624
        args = fig3_coarse_stage()
        assert len(args[4]) == 26
        calls = []
        occupation = exact_occupation

        def counted(rows, starts, e0):
            calls.append(e0)
            return occupation(rows, starts, e0)

        monkeypatch.setattr("ehpolicy.chain.exact_occupation", counted)
        result = search_partition_policy(*args)
        assert len(calls) <= 26
        assert result.evaluated_count == 26 ** 3
        assert result.best_policy.actions == (0, 16, 32)

    @pytest.mark.parametrize("case", [*range(len(SEARCH_EXAMPLES)), "fig3"])
    def test_group_and_chunk_bounds_do_not_change_gains(self, monkeypatch, case):
        # one prefix per group and one censored chain per chunk, a few of each,
        # and no bound at all give the same gains, bit for bit; with no prefix
        # pruned, since the groups decide when the best gain so far is known
        monkeypatch.setattr(optimize, "_BOUND_SWEEPS", 0)
        if case == "fig3":
            args = (*fig3_coarse_stage(), 0)
        else:
            battery, arrivals, actions, part, e0 = SEARCH_EXAMPLES[case]
            args = (battery, arrivals, CONS, REWARD, actions, part, e0)
        want = _candidate_gains(*args)
        score_group = optimize._score_group
        sizes = []

        def recorded(rows, start_by_action, j_by_action, folds, choices, e0, best):
            sizes.append(len(folds))
            return score_group(rows, start_by_action, j_by_action, folds, choices, e0, best)

        monkeypatch.setattr(optimize, "_score_group", recorded)
        for group, chunk in ((0, 1), (1 << 17, 1 << 13), (1 << 62, 1 << 62)):
            monkeypatch.setattr(optimize, "_GROUP_BYTES", group)
            monkeypatch.setattr(optimize, "_STACK_ENTRIES", chunk)
            sizes.clear()
            assert np.array_equal(_candidate_gains(*args), want, equal_nan=True)
            if group == 0:
                assert set(sizes) <= {1}
            elif group == 1 << 62:
                assert len(sizes) <= 1

    def test_singular_censored_chain_fails_alone(self):
        # the second chain has two closed classes, so its law solve is exactly
        # singular; only that chain gets a NaN law
        censored = np.array([[[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0], [0.0, 1.0]],
                             [[0.0, 1.0], [1.0, 0.0]]])
        pi = _stationary_laws(censored)
        assert pi[0] == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
        assert np.isnan(pi[1]).all()
        assert pi[2] == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_singular_law_solve_takes_the_class_route(self, monkeypatch):
        # in a group whose chains all have trusted laws, one chain's law solve is
        # made to raise LinAlgError: that chain's gain comes from the class route,
        # and every other chain keeps the gain of its own law, bit for bit
        battery, arrivals, actions, part, e0 = SEARCH_EXAMPLES[0]
        monkeypatch.setattr(optimize, "_BOUND_SWEEPS", 0)
        score_group, stationary_laws = optimize._score_group, optimize._stationary_laws
        groups = []
        monkeypatch.setattr(optimize, "_score_group",
                            lambda *args: groups.append(args) or score_group(*args))
        _candidate_gains(battery, arrivals, CONS, REWARD, actions, part, e0)
        rows, start_by_action, j_by_action, folds, choices, e0, _ = groups[0]
        occupations = []

        def counted(*args):
            occupations.append(args)
            return exact_occupation(*args)

        monkeypatch.setattr(optimize.chain, "exact_occupation", counted)
        want = score_group(*groups[0])
        assert not occupations
        g, a = len(folds) - 1, len(actions) - 1
        nk = folds.shape[2] - 2
        target = folds[g, start_by_action[-nk:, a], :nk]
        hits = []

        def singular_at_target(p):
            # two closed classes make the solve of that one chain exactly singular
            hit = (p == target).all(axis=(1, 2))
            hits.append(int(hit.sum()))
            p = p.copy()
            p[hit] = np.eye(nk)
            return stationary_laws(p)

        monkeypatch.setattr(optimize, "_stationary_laws", singular_at_target)
        got = score_group(*groups[0])
        assert sum(hits) == 1 and len(occupations) == 1
        assert got[g, a] == optimize._class_gain(rows, start_by_action, j_by_action,
                                                 choices[g], a, e0)
        got[g, a] = want[g, a]
        assert np.array_equal(got, want)

    def test_gth_oracle_on_a_nearly_decomposable_chain(self, power_iteration):
        # the exact gain of (18, 2), by GTH in rational arithmetic, is
        # 8.830686872855159e-07; float GTH gives the same bits
        args, part = nearly_decomposable_model()
        for combo, want in (((18, 2), 8.830686872855159e-07), ((4, 6), None)):
            policy = PartitionPolicy(partition=part, actions=combo)
            transition, state_reward = build_chain(*args, policy)
            got = gth_gain(transition, state_reward, 0)
            if want is None:
                want, _ = power_iteration(lazy_power(transition), state_reward, 0)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason="a dense LU solve forms 1 - p_ii and loses the "
                       "tiny leak between the two nearly closed halves of these chains")
    def test_nearly_decomposable_gains_match_gth(self, monkeypatch):
        # the search gives 0.0214758 and 0.0227880 for (18, 2) and (16, 2),
        # against exact gains of 8.83e-07 and 0.0198015; the winner (4, 6) is right
        monkeypatch.setattr(optimize, "_BOUND_SWEEPS", 0)
        args, part = nearly_decomposable_model()
        gains = _candidate_gains(*args, ActionSet(tuple(range(61))), part, 0)
        for combo in ((18, 2), (16, 2)):
            policy = PartitionPolicy(partition=part, actions=combo)
            transition, state_reward = build_chain(*args, policy)
            assert gains[combo] == pytest.approx(gth_gain(transition, state_reward, 0),
                                                 rel=1e-10)

    @pytest.mark.parametrize("case", [*range(len(SEARCH_EXAMPLES)), "fig3", "nearly_decomposable"])
    def test_pruning_changes_no_answer(self, monkeypatch, case):
        # a pruned entry holds -inf; every other entry, the winner and its gain
        # keep their bits, and each pruned gain lies below the winner's less the margin
        if case == "fig3":
            args = (*fig3_coarse_stage(), 0)
        elif case == "nearly_decomposable":
            (battery, arrivals, cons, reward), part = nearly_decomposable_model()
            args = (battery, arrivals, cons, reward, ActionSet(tuple(range(61))), part, 0)
        else:
            battery, arrivals, actions, part, e0 = SEARCH_EXAMPLES[case]
            args = (battery, arrivals, CONS, REWARD, actions, part, e0)
        bounded = _candidate_gains(*args)
        result = search_partition_policy(*args)
        monkeypatch.setattr(optimize, "_BOUND_SWEEPS", 0)
        full = _candidate_gains(*args)
        pruned = np.isneginf(bounded)
        assert not np.isneginf(full).any()
        assert np.array_equal(bounded[~pruned], full[~pruned], equal_nan=True)
        best = int(np.argmax(np.where(np.isnan(full), -np.inf, full)))
        assert int(np.argmax(np.where(np.isnan(bounded), -np.inf, bounded))) == best
        assert result.best_reward == full.flat[best]
        assert result.pruned == np.count_nonzero(pruned)
        assert (full[pruned] < full.flat[best] - 1e-9 * abs(full.flat[best])).all()
        if case == "fig3":
            # whole rows: 671 of its 676, by the prefix, trap and chain bounds together
            assert np.count_nonzero(pruned.all(axis=-1)) >= 40

    def test_row_bound_is_an_upper_bound(self):
        # every row bound of SEARCH_EXAMPLES, from the v it started from: the
        # bound lies above each last action's gain, and more sweeps never raise
        # it; a bound that has settled moves by a few ulps either way, far below
        # the search's pruning margin of 1e-9 relative
        checked = 0
        for battery, arrivals, actions, part, e0 in SEARCH_EXAMPLES:
            args = (battery, arrivals, CONS, REWARD, actions, part, e0)
            for step, v, caller in bound_calls(args, "row"):
                bounds = upper_bounds(step, v, (1, 5, 10))
                assert all(b <= a + 1e-12 * abs(a) for a, b in zip(bounds, bounds[1:]))
                below = tuple(actions.actions[i] for i in caller["choice_e"])
                for a in actions.actions:
                    policy = StatePolicy(actions=below + (a,) * (battery.e_max + 1 - len(below)))
                    gain = evaluate_policy(battery, arrivals, CONS, REWARD, policy,
                                           e0)
                    assert all(bound >= gain for bound in bounds)
                checked += 1
        assert checked

    def test_chain_bounds_bracket_every_gain(self, monkeypatch):
        # every censored chain of every group of SEARCH_EXAMPLES and fig3's coarse
        # stage, scored with no bound: its gain, by its trusted law or by the class
        # route, lies within its bracket, and more sweeps never widen the bracket
        score_group, ratio_bounds = optimize._score_group, optimize._ratio_bounds
        class_gain = optimize._class_gain
        checked = {"law": 0, "class route": 0}
        for args in search_cases():
            groups, brackets, routed = [], [], []
            monkeypatch.setattr(optimize, "_BOUND_SWEEPS", 0)
            monkeypatch.setattr(optimize, "_score_group",
                                lambda *group: groups.append(group) or score_group(*group))
            _candidate_gains(*args)
            monkeypatch.setattr(optimize, "_ratio_bounds",
                                lambda *a: brackets.append(ratio_bounds(*a)) or brackets[-1])
            monkeypatch.setattr(optimize, "_class_gain",
                                lambda *a: routed.append(a[3:5]) or class_gain(*a))
            for group in groups:
                choices, n_acts = group[4], len(args[4])
                monkeypatch.setattr(optimize, "_BOUND_SWEEPS", 0)
                routed.clear()
                gains = score_group(*group).ravel()
                by_law = np.ones(len(gains), dtype=bool)
                for choice_e, a in routed:
                    by_law[[c is choice_e for c in choices].index(True) * n_acts + a] = False
                brackets.clear()
                for sweeps in (1, 5, 10, 20):
                    monkeypatch.setattr(optimize, "_BOUND_SWEEPS", sweeps)
                    score_group(*group)
                for (lower, upper, _), (lower_after, upper_after, _) in zip(brackets,
                                                                          brackets[1:]):
                    assert (lower_after >= lower - 1e-12 * np.abs(lower)).all()
                    assert (upper_after <= upper + 1e-12 * np.abs(upper)).all()
                # within a few ulps of the group's largest gain, far below the
                # search's pruning margin of 1e-9 relative
                tol = 1e-12 * np.abs(gains).max()
                for lower, upper, _ in brackets:
                    assert (lower <= gains + tol).all() and (gains <= upper + tol).all()
                checked["law"] += np.count_nonzero(by_law)
                checked["class route"] += np.count_nonzero(~by_law)
        assert all(checked.values())

    def test_chain_pruned_only_below_the_margin(self, monkeypatch):
        # a chain survives an incumbent equal to its upper bound, and every chain is
        # pruned by one a margin of 2e-9 above the highest upper bound, so no chain
        # that ties the winner is pruned
        battery, arrivals, actions, part, e0 = SEARCH_EXAMPLES[0]
        score_group, ratio_bounds = optimize._score_group, optimize._ratio_bounds
        groups, brackets = [], []
        monkeypatch.setattr(optimize, "_score_group",
                            lambda *group: groups.append(group[:-1]) or score_group(*group))
        monkeypatch.setattr(optimize, "_ratio_bounds",
                            lambda *a: brackets.append(ratio_bounds(*a)) or brackets[-1])
        _candidate_gains(battery, arrivals, CONS, REWARD, actions, part, e0)
        brackets.clear()
        score_group(*groups[0], -np.inf)
        (_, upper, _), = brackets
        top = int(upper.argmax())
        assert upper[top] > 0
        assert np.isfinite(score_group(*groups[0], upper[top]).flat[top])
        assert np.isneginf(score_group(*groups[0], upper[top] * (1 + 2e-9))).all()

    def test_trap_bound_is_an_upper_bound(self):
        # every trapped prefix of SEARCH_EXAMPLES and fig3's coarse stage: its
        # bound lies above its class-route gain, and more sweeps never raise it
        checked = 0
        for args in search_cases():
            for step, v, caller in bound_calls(args, "trap"):
                bounds = upper_bounds(step, v, (1, 5, 10, 20))
                assert all(b <= a + 1e-12 * abs(a) for a, b in zip(bounds, bounds[1:]))
                gain = optimize._class_gain(*(caller[name] for name in (
                    "rows", "start_by_action", "j_by_action", "choice_e")), 0, caller["e0"])
                assert all(bound >= gain for bound in bounds)
                checked += 1
        assert checked

    def test_bounds_skip_most_solves(self, monkeypatch):
        # fig3's coarse stage: with the prefix bound alone it made 24 class-route
        # calls and 286 censored-law solves; the trap and chain bounds leave 0 and 53
        occupations, laws = [], []
        occupation, stationary_laws = exact_occupation, optimize._stationary_laws
        monkeypatch.setattr(optimize.chain, "exact_occupation",
                            lambda *a: occupations.append(a) or occupation(*a))
        monkeypatch.setattr(optimize, "_stationary_laws",
                            lambda p: laws.append(len(p)) or stationary_laws(p))
        result = search_partition_policy(*fig3_coarse_stage())
        assert result.best_policy.actions == (0, 16, 32)
        assert len(occupations) <= 4
        assert sum(laws) <= 100

    @pytest.mark.parametrize("search", [search_partition_policy, refine_partition_search])
    @pytest.mark.parametrize("partition", [Partition(e_max=50, starts=(0, 25)),
                                           Partition(e_max=150, starts=(0, 120))])
    def test_rejects_partition_of_another_battery(self, search, partition):
        # a smaller partition used to return a winner for the wrong chain, and a
        # larger one to fail on an index
        with pytest.raises(ConfigurationError, match="partition has e_max"):
            search(BASELINE, GEOM20, CONS, REWARD, ActionSet((0, 5)), partition)

    @pytest.mark.parametrize("e0", [-1, 101, 1.5, True])
    def test_rejects_start_outside_battery(self, e0):
        with pytest.raises(DomainError):
            search_partition_policy(BASELINE, GEOM20, CONS, REWARD, ActionSet((0, 5)),
                                    Partition.uniform(100, 2), e0)

    def test_budget_guard(self):
        part = Partition.uniform(100, 3)
        acts = ActionSet(tuple(range(101)))
        with pytest.raises(BudgetExceededError):
            search_partition_policy(BASELINE, GEOM20, CONS, REWARD, acts, part,
                                    budget=10 ** 4)

    @pytest.mark.parametrize("n_subsets", [2, 70])
    def test_budget_above_the_cap_is_refused(self, n_subsets):
        # refused before the gain array is allocated: 2^70 candidates would need
        # 70 axes, past NumPy's 64, and 8 bytes each
        part = Partition.uniform(100, n_subsets)
        with pytest.raises(BudgetExceededError, match="largest budget"):
            search_partition_policy(BASELINE, GEOM20, CONS, REWARD, ActionSet((0, 1)), part,
                                    budget=10 ** 30)
        with pytest.raises(BudgetExceededError, match="largest budget"):
            search_partition_policy(BASELINE, GEOM20, CONS, REWARD, ActionSet((0, 1)), part,
                                    budget=optimize._MAX_BUDGET + 1)

    def test_refinement_cannot_hurt(self):
        # a finer partition contains every coarser policy, so its optimum dominates
        acts = ActionSet(tuple(range(0, 51, 10)))
        g2 = search_partition_policy(BASELINE, GEOM20, CONS, REWARD, acts,
                                     Partition.uniform(100, 2)).best_reward
        g4 = search_partition_policy(BASELINE, GEOM20, CONS, REWARD, acts,
                                     Partition.uniform(100, 4)).best_reward
        assert g4 >= g2 - 1e-10

    def test_two_stage_refine_at_least_as_good_as_coarse(self):
        acts = ActionSet(tuple(range(51)))
        part = Partition.uniform(100, 3)
        coarse = ActionSet(tuple(range(0, 51, 4)))
        g_coarse = search_partition_policy(BASELINE, GEOM20, CONS, REWARD,
                                           coarse, part).best_reward
        refined = refine_partition_search(BASELINE, GEOM20, CONS, REWARD, acts, part)
        assert refined.best_reward >= g_coarse - 1e-12
        analytic = evaluate_policy(BASELINE, GEOM20, CONS, REWARD,
                                   refined.best_policy)
        assert refined.best_reward == pytest.approx(analytic, abs=1e-9)


class TestBetaStar:
    def test_zero_arrival(self):
        a_star, beta = _beta_star_vec(BASELINE, [0])
        assert (a_star[0], beta[0]) == (0.0, 0.0)

    def test_constant_efficiency_is_exact(self):
        # linear charging: increment is eta * b at every start level
        bat = BatteryModel(e_max=100, efficiency=ConstantEfficiency(0.7))
        bs = [1, 10, 50]
        _, beta = _beta_star_vec(bat, bs)
        assert beta == pytest.approx(0.7 * np.array(bs), abs=1e-9)

    def test_quadratic_optimum_below_midpoint(self):
        # best start lets the trajectory straddle the efficiency peak at e_max/2
        a_star, beta = _beta_star_vec(BASELINE, [20])
        assert 0.0 < a_star[0] < 50.0
        assert 0.0 < beta[0] < 20.0

    def test_beta_bounded_by_arrival(self):
        bs = [1, 5, 20, 50]
        _, beta = _beta_star_vec(BASELINE, bs)
        assert np.all(beta <= np.array(bs) + 1e-9)

    def test_beta_monotone_in_arrival(self):
        _, betas = _beta_star_vec(BASELINE, range(0, 51, 5))
        assert np.all(np.diff(betas) > 0)

    @pytest.mark.parametrize("e_max", [10, 20, 30, 50, 1000])
    def test_best_start_matches_closed_form(self, e_max):
        # the quadratic flow's increment peaks where the start and end levels
        # sit symmetrically about e_max/2, at a* = e_max/2 - s·tanh(b/2s),
        # s = (e_max/2)·sqrt(beta_nl); past level 0 the search stops at 0
        bat = BatteryModel(e_max=e_max, efficiency=QuadraticCapacitor(1.05))
        s = 0.5 * e_max * math.sqrt(1.05)
        report = upper_bound(bat, GEOM20, REWARD)
        for b in range(1, 51):
            want = max(0.5 * e_max - s * math.tanh(b / (2.0 * s)), 0.0)
            assert report.a_star_table[b] == pytest.approx(want, rel=1e-9, abs=1e-12 * e_max)

    def test_grid_oracle_agreement(self, rk4_charge):
        # dense grid search over start levels, charged by RK4, as an independent check
        grid = np.linspace(0.0, 100.0, 20001)
        inc = rk4_charge(BASELINE, grid, 20, steps=256) - grid
        _, beta = _beta_star_vec(BASELINE, [20])
        assert beta[0] == pytest.approx(float(inc.max()), abs=1e-7)


class TestUpperBound:
    def test_lossless_battery_collapses_to_ideal(self):
        bat = BatteryModel(e_max=100, efficiency=ConstantEfficiency(1.0))
        report = upper_bound(bat, GEOM20, REWARD)
        assert report.b_bar_s == pytest.approx(20.0, abs=1e-9)
        assert report.g_ub == pytest.approx(report.g_ideal, abs=1e-12)

    def test_constant_efficiency_scales_mean(self):
        bat = BatteryModel(e_max=100, efficiency=ConstantEfficiency(0.6))
        report = upper_bound(bat, GEOM20, REWARD)
        assert report.b_bar_s == pytest.approx(0.6 * 20.0, abs=1e-9)
        assert report.g_ub == pytest.approx(float(REWARD.rate(12.0)), abs=1e-12)

    def test_lossy_bound_below_ideal(self):
        report = upper_bound(BASELINE, GEOM20, REWARD)
        assert report.b_bar_s < GEOM20.mean_b
        assert report.g_ub < report.g_ideal

    def test_bound_dominates_best_search_policy(self):
        acts = ActionSet(tuple(range(0, 51, 5)))
        result = search_partition_policy(BASELINE, GEOM20, CONS, REWARD, acts,
                                         Partition.uniform(100, 2))
        report = upper_bound(BASELINE, GEOM20, REWARD)
        assert report.g_ub >= result.best_reward - 1e-10

    def test_tables_cover_support(self):
        report = upper_bound(BASELINE, GEOM20, REWARD)
        assert report.beta_star_table.shape == (51,)
        assert report.a_star_table.shape == (51,)
        assert report.beta_star_table[0] == 0.0


class TestHeuristics:
    def test_lcp_averages_consumption(self):
        # perfect policy transmits e//2 quanta; subset means are 1.5 and 4.5
        op = StatePolicy(actions=(0, 1, 1, 2, 2, 3))
        part = Partition(e_max=5, starts=(0, 3))
        acts = ActionSet(tuple(range(6)))
        lcp = derive_lcp(op, CONS, part, acts)
        assert lcp.actions == (1, 2)  # ties at .5 go to the lower action

    def test_lcp_on_constant_policy_is_idempotent(self):
        op = StatePolicy(actions=(3,) * 101)
        part = Partition.uniform(100, 2)
        acts = ActionSet(tuple(range(51)))
        lcp = derive_lcp(op, CONS, part, acts)
        assert lcp.actions == (3, 3)

    def test_lcp_with_device_overhead(self):
        # nearest is measured in consumption, not transmit quanta
        table = DeviceTableConsumption(rows=((1, 22), (5, 38), (7, 40)))
        op = StatePolicy(actions=(0,) * 50 + (5,) * 51)
        part = Partition.uniform(100, 2)
        acts = ActionSet((0, 1, 5, 7))
        lcp = derive_lcp(op, table, part, acts)
        # low subset mean consumption is 0, high subset mean is 38
        assert lcp.actions == (0, 5)

    def test_bp_idles_when_low(self):
        part = Partition.uniform(100, 2)
        report = upper_bound(BASELINE, GEOM20, REWARD)
        bp = derive_bp(part, report, ActionSet(tuple(range(51))), CONS)
        assert bp.actions[0] == 0
        assert bp.actions[1] == round(report.b_bar_s)

    def test_bp_requires_two_subsets(self):
        report = upper_bound(BASELINE, GEOM20, REWARD)
        acts = ActionSet(tuple(range(51)))
        for n in (1, 3):
            with pytest.raises(UnsupportedPartitionError):
                derive_bp(Partition.uniform(100, n), report, acts, CONS)
