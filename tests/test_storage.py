import math

import numpy as np
import pytest

import storagesddp as s
from storagesddp.errors import ConditionViolatedError, OverflowGuardError
from oracles import (
    InfeasibleInputError,
    RelaxedTrajectory,
    random_relaxed_trajectory,
    recover_complementary,
    stage,
    terminal_cost_derivative,
)


class TestSpreadCondition:
    def test_reference_parameters(self):
        assert s.check_spread_condition(stage(49.0, 51.0))

    def test_boundary_equality(self):
        assert s.check_spread_condition(stage(50.0, 50.0, c_plus=1.0, c_minus=1.0))

    def test_negative_prices_ok(self):
        assert s.check_spread_condition(stage(-11.0, -9.0))

    def test_violation_at_deeply_negative_prices(self):
        assert not s.check_spread_condition(stage(-31.0, -29.0))


class TestRecoverComplementary:
    def test_already_complementary(self):
        battery = s.BatterySpec(capacity=1.0, speed_fraction=0.4)
        prices = [(48.0, 50.0), (52.0, 54.0)]
        u = 0.3
        traj = RelaxedTrajectory(
            wealth=[0.0, -50.0 * u, -50.0 * u - 54.0 * u],
            energy=[0.0, 0.95 * u, 0.95 * u + 0.95 * u],
            buy=[u, u],
            sell=[0.0, 0.0],
        )
        rec = recover_complementary(traj, prices, battery)
        assert np.allclose(rec.net_control, [u, u])
        assert np.allclose(rec.wealth, traj.wealth)
        assert np.allclose(rec.energy, traj.energy)

    def test_simultaneous_buy_sell_folds(self):
        battery = s.BatterySpec(capacity=1.0, speed_fraction=1.0)
        prices = [(48.0, 50.0), (52.0, 54.0)]
        # stage 1 charges a little, stage 2 buys and sells one unit each
        traj = RelaxedTrajectory(
            wealth=[0.0, -10.0, -10.0 - 54.0 + 52.0],
            energy=[0.0, 0.19, 0.19 + 0.95 - 1.05],
            buy=[0.2, 1.0],
            sell=[0.0, 1.0],
        )
        rec = recover_complementary(traj, prices, battery)
        # net charge effect c = 0.95 - 1.05 = -0.1 -> u = c / c_minus
        assert rec.net_control[1] == pytest.approx(-0.1 / 1.05, abs=1e-12)
        # energy balance of the folded control reproduces c
        u = rec.net_control[1]
        c = 0.95 * 1.0 - 1.05 * 1.0
        assert (0.95 * u if u >= 0 else 1.05 * u) == pytest.approx(c, abs=1e-12)
        assert np.allclose(rec.energy, traj.energy)
        assert rec.wealth[-1] >= traj.wealth[-1] - 1e-9

    def test_random_trajectories_dominate(self):
        rng = np.random.default_rng(12)
        battery = s.BatterySpec(capacity=1.0, speed_fraction=0.4)
        for _ in range(200):
            prices = [tuple(sorted(rng.uniform(20, 90, 2))) for _ in range(5)]
            traj = random_relaxed_trajectory(rng, battery, prices, x0m=5.0)
            rec = recover_complementary(traj, prices, battery)
            assert rec.wealth[0] == traj.wealth[0]
            assert np.allclose(rec.energy, traj.energy, atol=1e-9)
            assert np.all(rec.net_control <= battery.max_charge + 1e-12)
            assert np.all(rec.net_control >= -battery.max_discharge - 1e-12)
            assert rec.wealth[-1] >= traj.wealth[-1] - 1e-9

    def test_infeasible_input_rejected(self):
        battery = s.BatterySpec(capacity=1.0, speed_fraction=0.4)
        prices = [(48.0, 50.0)]
        above_box = RelaxedTrajectory(
            wealth=[0.0, -25.0], energy=[0.0, 0.475], buy=[0.5], sell=[0.0]
        )  # buy above the 0.4 box
        charged = RelaxedTrajectory(
            wealth=[0.0, -15.0], energy=[0.1, 0.385], buy=[0.3], sell=[0.0]
        )  # its own dynamics hold, but the battery starts with 0.1 MWh
        for traj in (above_box, charged):
            with pytest.raises(InfeasibleInputError):
                recover_complementary(traj, prices, battery)

    def test_condition_violation_rejected(self):
        battery = s.BatterySpec(capacity=1.0, speed_fraction=0.4)
        prices = [(-31.0, -29.0)]
        traj = RelaxedTrajectory(
            wealth=[0.0, 29.0 * 0.2], energy=[0.0, 0.19], buy=[0.2], sell=[0.0]
        )
        with pytest.raises(ConditionViolatedError):
            recover_complementary(traj, prices, battery)


class TestTerminalCost:
    def test_zero_wealth(self):
        u = s.UtilitySpec(risk_aversion=0.03)
        assert s.terminal_cost(u, 0.0) == 0.0

    def test_reference_value(self):
        u = s.UtilitySpec(risk_aversion=0.03)
        want = (math.exp(-3.0) - 1.0) / 0.03
        assert s.terminal_cost(u, 100.0) == pytest.approx(want, abs=1e-12)
        assert s.terminal_cost(u, 100.0) == pytest.approx(-31.67376, abs=1e-5)

    def test_derivative_matches_finite_difference(self):
        u = s.UtilitySpec(risk_aversion=0.21)
        rng = np.random.default_rng(3)
        for w in rng.uniform(-40, 120, 25):
            h = 1e-6 * max(1.0, abs(w))
            fd = (s.terminal_cost(u, w + h) - s.terminal_cost(u, w - h)) / (2 * h)
            d = terminal_cost_derivative(u, w)
            assert abs(fd - d) <= 1e-6 * max(1.0, abs(d))

    def test_convex_decreasing(self):
        u = s.UtilitySpec(risk_aversion=0.1)
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = sorted(rng.uniform(-50, 150, 2))
            lam = rng.uniform(0, 1)
            mid = lam * a + (1 - lam) * b
            assert s.terminal_cost(u, mid) <= (
                lam * s.terminal_cost(u, a) + (1 - lam) * s.terminal_cost(u, b) + 1e-12
            )
            assert s.terminal_cost(u, b) <= s.terminal_cost(u, a)

    def test_overflow_guard_exp_range(self):
        u = s.UtilitySpec(risk_aversion=0.03)
        with pytest.raises(OverflowGuardError):
            s.terminal_cost(u, -30_000.0)  # exp(900) overflows a double
        with pytest.raises(OverflowGuardError):
            terminal_cost_derivative(u, -30_000.0)


class TestSpecs:
    def test_battery_validation(self):
        with pytest.raises(ValueError):
            s.BatterySpec(capacity=0.0)
        with pytest.raises(ValueError):
            s.BatterySpec(capacity=1.0, charge_eff=1.1, discharge_eff=1.0)
        with pytest.raises(ValueError):
            s.BatterySpec(capacity=1.0, leakage=1.5)

    def test_speeds_are_the_speed_fraction_of_capacity(self):
        b = s.BatterySpec(capacity=2.0, speed_fraction=0.4)
        assert b.max_charge == b.max_discharge == pytest.approx(0.8)

    def test_stage_data_validation(self):
        with pytest.raises(ValueError):
            stage(bid=52.0, ask=50.0)
