import copy
import json
import math
from dataclasses import replace

import pytest

import storagesddp as s
from storagesddp.cli import main
from storagesddp.sddp import best_case_prices, best_case_trading
from storagesddp.valuation import second_differences
from conftest import TOY
from oracles import (
    BracketInvalidError,
    DomainError,
    MaxEvaluationsError,
    chain_dp,
    chain_dp_ce,
    indifference_price_bisection,
    indifference_price_exponential,
    storage_value,
)


class TestClosedForm:
    def test_zero_value_zero_price(self):
        assert indifference_price_exponential(0.0, 0.03) == 0.0

    def test_reference_value(self):
        got = indifference_price_exponential(10.0, 0.03)
        assert got == pytest.approx(-math.log(0.7) / 0.03, abs=1e-12)
        assert got == pytest.approx(11.88916, abs=1e-5)

    def test_risk_neutral_limit(self):
        phi = 7.3
        got = indifference_price_exponential(phi, 1e-6)
        assert abs(got - phi) / phi < 1e-4

    def test_domain_error(self):
        with pytest.raises(DomainError):
            indifference_price_exponential(40.0, 0.03)
        with pytest.raises(ValueError):
            indifference_price_exponential(1.0, 0.0)


class TestBisection:
    def test_affine_stub_exact_root(self):
        # phi(w) = 2 + 0.5 w, x0 = 0, target price 3.25
        value_fn = lambda w: 2.0 + 0.5 * w
        baseline = value_fn(-3.25)
        calls = []

        def counting(w):
            calls.append(w)
            return value_fn(w)

        tol = 1e-6
        price, evals = indifference_price_bisection(
            counting, baseline, (0.0, 8.0), tol, initial_wealth=0.0
        )
        assert abs(price - 3.25) <= tol
        assert evals <= math.ceil(math.log2(8.0 / tol)) + 2

    def test_zero_price_when_baseline_is_current_value(self):
        value_fn = lambda w: 1.0 + w
        price, _ = indifference_price_bisection(
            value_fn, value_fn(0.0), (0.0, 4.0), 1e-9
        )
        assert price == pytest.approx(0.0, abs=1e-8)

    def test_invalid_bracket(self):
        value_fn = lambda w: w
        with pytest.raises(BracketInvalidError):
            indifference_price_bisection(value_fn, 100.0, (0.0, 1.0), 1e-6)
        with pytest.raises(BracketInvalidError):
            indifference_price_bisection(value_fn, 0.0, (2.0, 1.0), 1e-6)

    def test_max_evaluations(self):
        value_fn = lambda w: w
        with pytest.raises(MaxEvaluationsError):
            indifference_price_bisection(
                value_fn, -5.0, (0.0, 10.0), 1e-12, max_evaluations=6
            )


class TestStorageValuation:
    def test_price_positive_on_toy(self, toy_config):
        result = s.price_storage(toy_config)
        assert result.price > 0.0
        assert result.phi_without == pytest.approx(0.0, abs=1e-12)

    def test_wealth_shift_identity(self, toy_config):
        # training at shifted initial wealth matches the exponential-utility
        # shift of the zero-wealth value
        rho = toy_config.utility.rho
        phi0 = storage_value(toy_config, initial_wealth=0.0)
        x = 25.0
        phix = storage_value(toy_config, initial_wealth=x)
        want = math.exp(-rho * x) * phi0 + (1.0 - math.exp(-rho * x)) / rho
        assert phix == pytest.approx(want, abs=1e-4)

    def test_price_invariant_to_initial_wealth(self, toy_config):
        shifted = replace(
            toy_config, utility=replace(toy_config.utility, initial_wealth=40.0)
        )
        a = s.price_storage(toy_config)
        b = s.price_storage(shifted)
        # closed-form path always trains at zero wealth
        assert a.price == pytest.approx(b.price, abs=1e-12)
        assert b.phi_without > 0.0

    def test_high_risk_aversion_prices_within_exact_and_best_case(self, tmp_path):
        # capacity 4 at rho 10 with 20 iterations: the expected-utility bound
        # sits at the ceiling 1/rho, but the certainty equivalent is finite,
        # at or above the exact price and at most the best-case profit
        doc = copy.deepcopy(TOY)
        doc["battery"]["capacity_mwh"] = 4.0
        doc["utility"]["rho"] = 10.0
        doc["sddp"]["iterations"] = 20
        cfg = s.config_from_dict(doc)
        problem, chain = s.build_problem(cfg), s.build_chain_for(cfg)
        exact, _ = chain_dp_ce(problem, chain)
        battery = problem.battery
        best, _ = best_case_trading(
            *best_case_prices(problem.price_model, chain),
            battery.max_charge,
            battery.max_discharge,
            battery.charge_eff,
            battery.discharge_eff,
        )
        price = s.price_storage(cfg).price
        assert math.isfinite(price)
        assert exact - 1e-3 <= price <= best
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["price", "--config", str(path), "--out", str(tmp_path)]) == 0
        row = (tmp_path / "price.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == price

    def test_high_risk_aversion_price_near_exact(self):
        # capacity 2 at rho 0.3, 150 iterations, seed 2: rho times the
        # price is about 16, so the expected utility sits within
        # exp(-16) of its ceiling 1/rho and cannot carry the price
        cfg = s.config_from_dict(
            {
                "battery": {"capacity_mwh": 2.0},
                "utility": {"rho": 0.3},
                "sddp": {"iterations": 150, "seed": 2},
            }
        )
        phi, _ = chain_dp(s.build_problem(cfg), s.build_chain_for(cfg))
        exact = -math.log(1.0 - 0.3 * phi) / 0.3
        assert exact == pytest.approx(52.01, abs=0.01)
        price = s.price_storage(cfg).price
        assert exact - 1e-3 <= price <= 1.25 * exact


class TestPriceSweep:
    def test_capacity_zero_is_free(self, toy_config):
        cfg = replace(toy_config, sddp=replace(toy_config.sddp, iterations=40, seed=3))
        rows = s.price_sweep("capacity", [0.0, 0.5], cfg)
        assert rows[0][2] == 0.0 and rows[0][3] == 0.0
        assert rows[1][2] > 0.0

    def test_rows_layout_and_rhos(self, toy_config):
        cfg = replace(toy_config, sddp=replace(toy_config.sddp, iterations=30, seed=3))
        rows = s.price_sweep("capacity", [0.5, 1.0], cfg, rhos=[0.01, 0.1])
        assert len(rows) == 4
        assert [r[0] for r in rows] == [0.5, 0.5, 1.0, 1.0]
        assert [r[1] for r in rows] == [0.01, 0.1, 0.01, 0.1]
        assert all(r[2] >= 0.0 for r in rows)

    def test_grid_must_increase(self, toy_config):
        cfg = replace(toy_config, sddp=replace(toy_config.sddp, iterations=5))
        with pytest.raises(ValueError):
            s.price_sweep("capacity", [1.0, 0.5], cfg)
        with pytest.raises(ValueError):
            s.price_sweep("capacity", [], cfg)

    def test_unknown_axis(self, toy_config):
        from storagesddp.errors import ConfigError

        cfg = replace(toy_config, sddp=replace(toy_config.sddp, iterations=5))
        with pytest.raises(ConfigError):
            s.price_sweep("leakage", [0.1, 0.2], cfg)


def test_second_differences():
    assert second_differences([0.0, 1.0, 1.5, 1.7]) == pytest.approx([-0.5, -0.3])
