import math

import numpy as np
import pytest
from conftest import attained_reward
from hypothesis import given, settings
from hypothesis import strategies as st

from ehpolicy import (
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
from ehpolicy.core import arrival_model_from_pmf, check_reward_shape
from ehpolicy.errors import DomainError


def quad_closed_form(e_start, b, e_max, beta_nl):
    """Analytic end-of-frame level for the quadratic profile (separable ODE).

    Substituting u = (y - e_max/2) / ((e_max/2) sqrt(beta)) turns
    dy/dt = b * (1 - (y - e_max/2)^2 / (beta (e_max/2)^2)) into
    du/dt = (b / ((e_max/2) sqrt(beta))) (1 - u^2), solved by tanh.
    """
    half = e_max / 2.0
    scale = half * math.sqrt(beta_nl)
    u0 = (e_start - half) / scale
    u = math.tanh(math.atanh(u0) + b / scale)
    return half + scale * u


BASELINE = BatteryModel(e_max=100, efficiency=QuadraticCapacitor(1.05))


class TestEfficiency:
    def test_quadratic_peak_at_half_charge(self):
        assert efficiency_at(QuadraticCapacitor(1.05), 50.0, 100) == pytest.approx(1.0)

    def test_quadratic_worst_at_empty(self):
        eta = efficiency_at(QuadraticCapacitor(1.05), 0.0, 100)
        assert eta == pytest.approx(1 - 1 / 1.05)
        assert eta == pytest.approx(0.047619, abs=1e-6)

    def test_constant(self):
        for e in (0, 13.7, 100):
            assert efficiency_at(ConstantEfficiency(0.7), e, 100) == 0.7

    def test_symmetry(self):
        prof = QuadraticCapacitor(1.3)
        grid = np.linspace(0, 100, 41)
        assert efficiency_at(prof, grid, 100) == pytest.approx(
            efficiency_at(prof, 100 - grid, 100))

    def test_tabulated_interpolates(self):
        prof = TabulatedEfficiency(values=(0.2, 1.0, 0.2))
        assert efficiency_at(prof, 25.0, 100) == pytest.approx(0.6)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            efficiency_at(QuadraticCapacitor(1.05), -1.0, 100)
        with pytest.raises(DomainError):
            efficiency_at(QuadraticCapacitor(1.05), 101.0, 100)

    @pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf, [50.0, math.nan]])
    def test_refuses_a_non_finite_level(self, e):
        # NaN used to pass the range check and come back as the efficiency
        with pytest.raises(DomainError):
            efficiency_at(QuadraticCapacitor(1.05), e, 100)

    def test_beta_must_exceed_one(self):
        with pytest.raises(DomainError):
            QuadraticCapacitor(1.0)


class TestIntegrateFrame:
    def test_no_inflow_is_identity(self):
        for e in (0.0, 3.5, 100.0):
            assert integrate_frame(BASELINE, e, 0) == e

    def test_constant_profile_is_linear(self):
        bat = BatteryModel(e_max=100, efficiency=ConstantEfficiency(0.5))
        assert integrate_frame(bat, 3.0, 10) == pytest.approx(8.0, abs=1e-9)

    def test_constant_profile_saturates(self):
        bat = BatteryModel(e_max=10, efficiency=ConstantEfficiency(1.0))
        assert integrate_frame(bat, 8.0, 50) == pytest.approx(10.0, abs=1e-9)

    def test_matches_quadratic_closed_form(self):
        # independent oracle: exact solution of the separable ODE
        for e_start in np.linspace(0, 99, 10):
            for b in (1, 7, 20, 50):
                got = integrate_frame(BASELINE, float(e_start), b, saturate=False)
                want = quad_closed_form(float(e_start), b, 100, 1.05)
                assert got == pytest.approx(want, abs=1e-6)

    def test_full_charge_from_empty(self):
        # closed form gives ~6.8696 for the baseline battery at maximal arrivals
        got = integrate_frame(BASELINE, 0.0, 50)
        assert got == pytest.approx(quad_closed_form(0.0, 50, 100, 1.05), abs=1e-6)

    def test_tabulated_matches_fine_rk4(self, rk4_charge):
        # independent oracle: RK4 fine enough to step across the knots at 50
        bat = BatteryModel(e_max=100, efficiency=TabulatedEfficiency((0.2, 1.0, 0.2)))
        starts = np.arange(101.0)
        want = rk4_charge(bat, starts[:, None], np.array([7, 20, 50]), steps=20000)
        for j, b in enumerate((7, 20, 50)):
            got = [integrate_frame(bat, e, b, saturate=False) for e in starts]
            assert got == pytest.approx(want[:, j], abs=1e-7)

    def test_tabulated_flat_segment_and_saturation(self):
        # eta = 0.5 on [0, 50] then rising: linear until the knot, capped at e_max
        bat = BatteryModel(e_max=100, efficiency=TabulatedEfficiency((0.5, 0.5, 1.0)))
        assert integrate_frame(bat, 10.0, 40) == pytest.approx(30.0, abs=1e-12)
        assert integrate_frame(bat, 90.0, 50) == 100.0
        assert integrate_frame(bat, 100.0, 7, saturate=False) == pytest.approx(107.0)

    @pytest.mark.parametrize("b", [math.nan, 2.5, True, -1, None])
    def test_refuses_arrivals_that_are_not_whole_quanta(self, b):
        # NaN used to come back as the level, and 2.5 to be integrated as is
        with pytest.raises(DomainError):
            integrate_frame(BASELINE, 5.0, b)

    @settings(max_examples=30, deadline=None)
    @given(e=st.floats(0, 100), b=st.integers(0, 50))
    def test_output_bounds(self, e, b):
        y = integrate_frame(BASELINE, e, b)
        assert e - 1e-9 <= y <= 100 + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(e=st.floats(0, 99), b=st.integers(0, 49))
    def test_monotone_in_start_and_inflow(self, e, b):
        y = integrate_frame(BASELINE, e, b)
        assert integrate_frame(BASELINE, e + 1.0, b) >= y - 1e-9
        assert integrate_frame(BASELINE, e, b + 1) >= y - 1e-9


class TestBatteryStep:
    def test_charge_from_empty(self):
        assert battery_step(BASELINE, 0, 0, 50) == 6

    def test_overdraw_drains_to_zero(self):
        assert battery_step(BASELINE, 6, 11, 0) == 0

    def test_overflow_clips(self):
        bat = BatteryModel(e_max=100, efficiency=ConstantEfficiency(1.0))
        assert battery_step(bat, 95, 0, 50) == 100

    def test_drain_then_charge_equivalence(self):
        for e in (0, 10, 60, 100):
            for d in (0, 5, 200):
                for b in (0, 10, 50):
                    assert battery_step(BASELINE, e, d, b) == \
                        battery_step(BASELINE, max(0, e - d), 0, b)

    @pytest.mark.parametrize("e, d, b", [
        (5, 0, math.nan), (5, math.nan, 2), (math.nan, 0, 2), (5, 0.5, 2), (5, 0, 2.5),
        (5.0, 0, 2), (5, 0, True), (True, 0, 2), (5, -1, 2), (5, 0, -1), (101, 0, 2)])
    def test_refuses_levels_that_are_not_whole_quanta(self, e, d, b):
        # NaN arrivals used to give -2^63, NaN consumption 0, and fractional
        # quanta a level; a bool is not a count of quanta
        with pytest.raises(DomainError):
            battery_step(BASELINE, e, d, b)

    def test_accepts_numpy_integers(self):
        assert battery_step(BASELINE, np.int64(0), np.int16(0), np.uint8(50)) == 6

    @settings(max_examples=30, deadline=None)
    @given(e=st.integers(0, 100), d=st.integers(0, 120), b=st.integers(0, 50))
    def test_stays_in_state_space(self, e, d, b):
        assert 0 <= battery_step(BASELINE, e, d, b) <= 100


class TestAttainedReward:
    def test_idle_earns_nothing(self):
        assert attained_reward(LogSnrReward(0.01), IdentityConsumption(), 0, 50) == 0.0

    def test_failed_transmission(self):
        assert attained_reward(LogSnrReward(0.01), IdentityConsumption(), 11, 6) == 0.0

    def test_successful_transmission(self):
        got = attained_reward(LogSnrReward(0.01), IdentityConsumption(), 100, 100)
        assert got == pytest.approx(math.log(2.0))

    def test_action_set_membership(self):
        with pytest.raises(DomainError):
            attained_reward(LogSnrReward(0.01), IdentityConsumption(), 3, 50,
                            actions=ActionSet((0, 10)))

    def test_action_set_refuses_non_integers(self):
        # int() would truncate 1.5 to 1, and answer that 2.7 is the member 2
        for acts in ((0, 1.5, 3), (0, 2.0), (0, True), (0, "2")):
            with pytest.raises(DomainError, match="integers"):
                ActionSet(acts)
        actions = ActionSet((0, np.int64(2), np.int32(3)))
        assert actions.actions == (0, 2, 3)
        assert 2.7 not in actions and 2.0 not in actions and True not in actions
        assert np.int64(2) in actions and 3 in actions and 1 not in actions

    def test_device_table_overhead(self):
        table = DeviceTableConsumption(rows=((1, 22), (5, 38)))
        # enough charge for the tx power but not the circuitry: failure
        assert attained_reward(LogSnrReward(0.01), table, 5, 30) == 0.0
        assert attained_reward(LogSnrReward(0.01), table, 5, 38) > 0.0

    def test_zero_iff_idle_or_infeasible(self):
        reward = LogSnrReward(0.01)
        cons = IdentityConsumption()
        for rho in range(0, 30, 3):
            for e in range(0, 30, 5):
                got = attained_reward(reward, cons, rho, e)
                if rho == 0 or rho > e:
                    assert got == 0.0
                else:
                    assert got > 0.0


class TestArrivalConstructors:
    def test_geometric_mean_and_normalization(self):
        arr = make_truncated_geometric(20.0, 50)
        pmf = arr.pmf_array()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.arange(51) @ pmf == pytest.approx(20.0, abs=1e-9)

    def test_geometric_is_nonincreasing(self):
        pmf = make_truncated_geometric(20.0, 50).pmf_array()
        assert np.all(np.diff(pmf) <= 1e-15)

    def test_geometric_small_mean_concentrates_at_zero(self):
        pmf = make_truncated_geometric(1e-4, 50).pmf_array()
        assert pmf[0] > 0.999

    def test_geometric_domain(self):
        with pytest.raises(DomainError):
            make_truncated_geometric(50.0, 50)
        with pytest.raises(DomainError):
            make_truncated_geometric(0.0, 50)

    def test_poisson_mean_and_support(self):
        arr = make_truncated_poisson(30.0, 50)
        pmf = arr.pmf_array()
        assert np.arange(51) @ pmf == pytest.approx(30.0, abs=1e-9)
        assert pmf.shape == (51,)
        assert np.all(pmf >= 0)

    def test_poisson_unimodal_with_mode_near_mean(self):
        pmf = make_truncated_poisson(30.0, 50).pmf_array()
        mode = int(pmf.argmax())
        assert 28 <= mode <= 31
        assert np.all(np.diff(pmf[:mode]) >= -1e-15)
        assert np.all(np.diff(pmf[mode:]) <= 1e-15)

    def test_explicit_pmf(self):
        arr = arrival_model_from_pmf([0.5, 0.25, 0.25])
        assert arr.mean_b == pytest.approx(0.75)
        assert arr.b_max == 2

    @pytest.mark.parametrize("make,mean,b_max", [
        (make_truncated_geometric, 20.0, 50), (make_truncated_poisson, 30.0, 50),
        (make_truncated_poisson, 5.0, 20), (make_truncated_geometric, 3.0, 10)])
    def test_fitted_model_derives_the_declared_fields(self, make, mean, b_max):
        # the oracle is the mean the fit used to declare: its support times its pmf
        arr = make(mean, b_max)
        assert arr.b_max == b_max
        declared = float(np.arange(b_max + 1, dtype=float) @ np.asarray(arr.pmf))
        assert arr.mean_b.hex() == declared.hex()

    @pytest.mark.parametrize("raw", [
        [0.5, 0.25, 0.25], [3, 3, 1, 0], [0.1] * 10, [0] * 7 + [1.0], [1.0], [2, 7, 1, 5, 3]])
    def test_explicit_model_derives_the_declared_fields(self, raw):
        # the oracle is the mean the explicit constructor used to declare
        pmf = np.asarray(raw, dtype=float)
        pmf = pmf / pmf.sum()
        arr = arrival_model_from_pmf(raw)
        assert arr.b_max == len(raw) - 1
        assert arr.mean_b.hex() == float(np.arange(len(pmf)) @ pmf).hex()

    @pytest.mark.parametrize("pmf,message", [
        ((0.5, -0.25, 0.75), "nonnegative"), ((0.5, 0.25), "sum to 1"),
        ((0.5, 0.5 + 1e-11), "sum to 1")])
    def test_model_rejects_a_bad_pmf(self, pmf, message):
        with pytest.raises(DomainError, match=message):
            ArrivalModel(pmf=pmf)


class TestSampling:
    def test_degenerate_pmf(self):
        arr = arrival_model_from_pmf([0] * 7 + [1.0])
        rng = np.random.default_rng(0)
        assert np.all(sample_arrivals(arr, rng, 20) == 7)

    def test_same_seed_same_sequence(self):
        arr = make_truncated_geometric(20.0, 50)
        a = sample_arrivals(arr, np.random.default_rng(42), 1000)
        b = sample_arrivals(arr, np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)

    # the uniforms are drawn in chunks of 2^16; the last sizes lie about a
    # chunk's edges
    @pytest.mark.parametrize("arr,size", [
        pytest.param(arrival_model_from_pmf([0] * 7 + [1.0]), 200_000, id="degenerate"),
        # CDF knots on bucket edges
        pytest.param(arrival_model_from_pmf([0.5, 0.25, 0.25]), 200_000, id="edge-knots"),
        pytest.param(make_truncated_geometric(20.0, 50), 200_000, id="geometric"),
        pytest.param(make_truncated_poisson(20.0, 50), 200_000, id="poisson"),
        *(pytest.param(make_truncated_geometric(20.0, 50), size, id=f"geometric-{size}")
          for size in (65535, 65536, 65537, 3 * 65536 + 5)),
    ])
    def test_matches_inverse_cdf_search(self, arr, size):
        u = np.random.default_rng(11).random(size)
        want = np.searchsorted(arr.cdf_array(), u, side="right")
        got = sample_arrivals(arr, np.random.default_rng(11), size)
        assert np.array_equal(got, want)

    def test_uniforms_on_knots_and_bucket_edges(self):
        class FixedUniforms:
            def __init__(self, u):
                self.u = np.array(u)

            def random(self, size):
                assert size == len(self.u)
                return self.u.copy()

        ulp = 2.0 ** -53
        u = [0.0, ulp, 0.25 - ulp, 0.25, 0.5 - ulp, 0.5, 0.75 - ulp, 0.75,
             1 / 4096, 1 / 4096 - ulp, 1.0 - ulp]
        for pmf in ([0.5, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25], [0, 0, 1.0]):
            arr = arrival_model_from_pmf(pmf)
            got = sample_arrivals(arr, FixedUniforms(u), len(u))
            assert np.array_equal(got, np.searchsorted(arr.cdf_array(), u, side="right"))
        # this CDF ends at 1 - 2^-53, and the largest uniform still draws b_max
        arr = arrival_model_from_pmf([0.1] * 10)
        assert arr.cdf_array()[-1] == 1.0 - ulp
        assert sample_arrivals(arr, FixedUniforms([1.0 - ulp]), 1).tolist() == [9]

    def test_empirical_mean_matches(self):
        arr = make_truncated_geometric(20.0, 50)
        draws = sample_arrivals(arr, np.random.default_rng(7), 10 ** 6)
        pmf = arr.pmf_array()
        var = float(np.arange(51) ** 2 @ pmf - arr.mean_b ** 2)
        se = math.sqrt(var / len(draws))
        assert abs(draws.mean() - 20.0) < 3 * se


class TestRechargeHypothesis:
    def test_baseline_holds(self):
        arr = make_truncated_geometric(20.0, 50)
        ok, violators = validate_recharge_hypothesis(BASELINE, arr)
        assert ok and violators == []

    def test_no_arrivals_violates_everywhere(self):
        arr = arrival_model_from_pmf([1.0])
        ok, violators = validate_recharge_hypothesis(BASELINE, arr)
        assert not ok
        assert violators == list(range(100))

    def test_single_lossless_quantum(self):
        bat = BatteryModel(e_max=10, efficiency=ConstantEfficiency(1.0))
        arr = arrival_model_from_pmf([0.5, 0.5])
        ok, _ = validate_recharge_hypothesis(bat, arr)
        assert ok

    def test_top_arrival_size_without_mass_is_not_maximal(self):
        # three quanta never arrive; two store under one quantum from empty, so an
        # empty battery never recharges
        bat = BatteryModel(e_max=3, efficiency=QuadraticCapacitor(1.05))
        arr = arrival_model_from_pmf([3, 3, 1, 0])
        ok, violators = validate_recharge_hypothesis(bat, arr)
        assert not ok
        assert 0 in violators


class TestRewardShape:
    def test_log_snr_ok(self):
        check_reward_shape(LogSnrReward(0.01), 100)

    def test_rejects_nonconcave(self):
        class Quadratic:
            def rate(self, rho):
                return np.asarray(rho, dtype=float) ** 2

        with pytest.raises(DomainError):
            check_reward_shape(Quadratic(), 100)


SHANNON = dict(bandwidth_w=2e6, noise_density_n0=10 ** -20.4, channel_h=3e-13,
               slot_length_delta=0.005, frame_length_t=1.0, quantum_joules=1e-5)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 10 ** 400],
                         ids=["inf", "-inf", "nan", "10**400"])
@pytest.mark.parametrize("make", [
    lambda x: QuadraticCapacitor(beta_nl=x),
    lambda x: LogSnrReward(snr_scale=x),
    lambda x: ShannonReward(**{**SHANNON, "bandwidth_w": x}),
    lambda x: ShannonReward(**{**SHANNON, "channel_h": x}),
    lambda x: TabulatedEfficiency(values=(x, 0.5)),
    lambda x: ArrivalModel(pmf=(x, 1.0)),
    lambda x: arrival_model_from_pmf([x, 1.0])],
    ids=["beta_nl", "snr_scale", "bandwidth", "channel_h", "tabulated", "pmf", "pmf_weights"])
def test_non_finite_value_is_refused(make, bad):
    # an infinite beta_nl used to give NaN levels, an infinite scale an
    # infinite gain, and a NaN or infinite pmf weight a zero gain; an
    # integer too large for a float used to raise a bare OverflowError
    with pytest.raises(DomainError):
        make(bad)
