import json

import numpy as np
import pytest

import storagesddp as s
from storagesddp.config import default_day_ahead, with_axis_value
from storagesddp.errors import ConfigError


class TestDefaults:
    def test_reference_experiment_values(self):
        cfg = s.RunConfig()
        assert cfg.horizon == 24
        assert cfg.battery.capacity_mwh == 1.0
        assert cfg.battery.alpha == 0.4
        assert cfg.battery.c_plus == 0.95
        assert cfg.battery.c_minus == 1.05
        assert cfg.battery.leakage == 0.0
        assert cfg.market.spread_eur == 1.0
        assert cfg.price.a == 0.48
        assert cfg.utility.rho == 0.03
        assert cfg.utility.initial_wealth == 0.0
        assert cfg.sddp.quadrature_points == 8
        assert cfg.sddp.iterations == 1000
        assert cfg.simulate.scenarios == 10000

    def test_synthetic_curve_shape(self):
        curve = np.array(default_day_ahead(24))
        assert len(curve) == 24
        assert curve.mean() == pytest.approx(50.0, abs=1e-9)
        assert np.all(curve >= 30.0) and np.all(curve <= 70.0)
        peaks = [
            h
            for h in range(24)
            if curve[h] > curve[h - 1] and curve[h] > curve[(h + 1) % 24]
        ]
        assert len(peaks) == 2

    def test_curve_resamples_to_other_horizons(self):
        assert len(default_day_ahead(6)) == 6
        assert default_day_ahead(24)[0] == default_day_ahead(6)[0]


class TestParsing:
    def test_round_trip(self, tmp_path):
        doc = {"horizon": 6, "market": {"day_ahead": [40, 41, 42, 43, 44, 45]}}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        cfg = s.load_config(str(p))
        assert cfg.horizon == 6
        assert cfg.resolved_day_ahead() == tuple(float(v) for v in range(40, 46))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            s.config_from_dict({"horizont": 24})
        with pytest.raises(ConfigError):
            s.config_from_dict({"battery": {"capacity": 2.0}})

    @pytest.mark.parametrize(
        "doc",
        [
            {"horizon": 0},
            {"horizon": 4, "market": {"day_ahead": [1.0, 2.0]}},
            {"battery": {"capacity_mwh": -1.0}},
            {"battery": {"alpha": 1.5}},
            {"battery": {"c_plus": 1.2, "c_minus": 1.0}},
            {"utility": {"rho": 0.0}},
            {"sddp": {"quadrature_points": 0}},
            {"sddp": {"seed": -1}},
            {"simulate": {"scenarios": 0}},
            {"price": {"sampling_std": 0.0}},
            {"sddp": {"iterations": 0}},
            {"sddp": {"iterations": -3}},
        ],
    )
    def test_invalid_values_rejected(self, doc):
        with pytest.raises(ConfigError):
            s.config_from_dict(doc)

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"battery": {"capacity_mwh": NaN}}', "battery.capacity_mwh must be a finite"),
            ('{"battery": {"alpha": NaN}}', "battery.alpha must be a finite"),
            ('{"market": {"spread_eur": Infinity}}', "market.spread_eur must be a finite"),
            ('{"price": {"xi0": -Infinity}}', "price.xi0 must be a finite"),
            ('{"price": {"sampling_std": NaN}}', "price.sampling_std must be a finite"),
            ('{"utility": {"rho": NaN}}', "utility.rho must be a finite"),
            ('{"utility": {"initial_wealth": Infinity}}', "utility.initial_wealth must be"),
            ('{"battery": {"capacity_mwh": "1"}}', "battery.capacity_mwh must be a finite"),
            ('{"battery": {"capacity_mwh": 1' + "0" * 400 + "}}", "capacity_mwh must be a finite"),
            ('{"battery": {"c_plus": true}}', "battery.c_plus must be a finite"),
            ('{"battery": {"leakage": 2}}', "battery.leakage must be in"),
            ('{"battery": {"leakage": -0.1}}', "battery.leakage must be in"),
            ('{"sddp": {"iterations": 2.5}}', "sddp.iterations must be an integer"),
            ('{"sddp": {"quadrature_points": 2.5}}', "sddp.quadrature_points must be an int"),
            ('{"sddp": {"seed": 1.5}}', "sddp.seed must be an integer"),
            ('{"sddp": {"iterations": true}}', "sddp.iterations must be an integer"),
            ('{"simulate": {"scenarios": 3.5}}', "simulate.scenarios must be an integer"),
            ('{"simulate": {"seed": "0"}}', "simulate.seed must be an integer"),
            ('{"horizon": 2.5}', "horizon must be an integer"),
            ('{"horizon": true}', "horizon must be an integer"),
            ('{"market": {"day_ahead": ["a"]}}', "day_ahead must be a list of finite"),
            ('{"horizon": 1, "market": {"day_ahead": [NaN]}}', "day_ahead must be a list"),
        ],
    )
    def test_non_finite_and_mistyped_values_rejected(self, tmp_path, text, match):
        # Python's json reads NaN and Infinity; a NaN passes every "<= 0" check
        p = tmp_path / "c.json"
        p.write_text(text)
        with pytest.raises(ConfigError, match=match):
            s.load_config(str(p))

    def test_integral_floats_accepted_for_reals(self):
        cfg = s.config_from_dict({"battery": {"capacity_mwh": 2, "leakage": 1}})
        assert cfg.battery.capacity_mwh == 2 and cfg.battery.leakage == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: s.BatterySpec(capacity=float("nan")),
            lambda: s.UtilitySpec(risk_aversion=float("nan")),
        ],
        ids=["battery capacity", "risk aversion"],
    )
    def test_specs_refuse_nan(self, build):
        with pytest.raises(ValueError, match="must be > 0"):
            build()


class TestAssembly:
    def test_build_problem(self):
        cfg = s.RunConfig()
        problem = s.build_problem(cfg)
        assert problem.price_model.horizon == 24
        assert problem.battery.max_charge == pytest.approx(0.4)
        assert problem.utility.risk_aversion == 0.03

    def test_build_chain(self):
        cfg = s.config_from_dict({"sddp": {"quadrature_points": 4}})
        chain = s.build_chain_for(cfg)
        assert chain.horizon == 24
        assert chain.node_count(1) == 4

    def test_sampling_std_default_is_stationary(self):
        cfg = s.RunConfig()
        chain = s.build_chain_for(cfg)
        model = s.build_problem(cfg).price_model
        rule = s.gauss_hermite(8, model.stationary_std())
        assert np.allclose(chain.nodes[1], rule.nodes)


class TestAxisreplacement:
    def test_capacity(self):
        cfg = with_axis_value(s.RunConfig(), "capacity", 2.5)
        assert cfg.battery.capacity_mwh == 2.5

    def test_speed(self):
        cfg = with_axis_value(s.RunConfig(), "speed_fraction", 0.7)
        assert cfg.battery.alpha == 0.7

    def test_sigma_clears_sampling_std(self):
        base = s.config_from_dict({"price": {"sampling_std": 5.0}})
        cfg = with_axis_value(base, "sigma", 6.0)
        assert cfg.price.sigma_eps == 6.0
        assert cfg.price.sampling_std is None

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            with_axis_value(s.RunConfig(), "leakage", 0.1)
