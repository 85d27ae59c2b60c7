import dataclasses
import json
import math
import re
from pathlib import Path

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
        # the price model fixes the chain's sampling law; no key sets it
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['sampling_std'\] in 'price'"):
            s.config_from_dict({"price": {"sampling_std": 1.0}})

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

    @pytest.mark.parametrize(
        ("build", "bad", "message"),
        [
            (lambda bad: s.PriceModel((50.0,), 0.5, bad, 1.0), math.nan, "must be finite"),
            (lambda bad: s.PriceModel((50.0,), 0.5, 1.0, bad), math.nan, "must be finite"),
            (lambda bad: s.PriceModel((50.0, bad), 0.5, 1.0, 1.0), math.nan, "must be finite"),
            (lambda bad: s.PriceModel((50.0,), bad, 1.0, 1.0), math.nan, "must be finite"),
            (lambda bad: s.PriceModel((50.0,), 0.5, 1.0, 1.0, bad), math.nan, "must be finite"),
            (lambda bad: s.UtilitySpec(0.03, bad), math.nan, "must be finite"),
            (lambda bad: s.StageData(bad, 51.0, s.BatterySpec(1.0)), math.nan, "bid must not"),
            (lambda bad: s.BatterySpec(1.0, speed_fraction=bad), math.nan, "speed_fraction must"),
            (lambda bad: s.BatterySpec(1.0, speed_fraction=bad), math.inf, "speed_fraction must"),
            (lambda bad: s.BatterySpec(bad), math.nan, "capacity must be > 0"),
            (lambda bad: s.BatterySpec(bad), math.inf, "must be finite"),
            (lambda bad: s.BatterySpec(1.0, charge_eff=bad), math.nan, "need 0 < charge_eff"),
            (lambda bad: s.BatterySpec(1.0, charge_eff=bad), math.inf, "need 0 < charge_eff"),
            (lambda bad: s.BatterySpec(1.0, discharge_eff=bad), math.nan, "need 0 < charge_eff"),
            (lambda bad: s.BatterySpec(1.0, discharge_eff=bad), math.inf, "must be finite"),
            (lambda bad: s.BatterySpec(1.0, leakage=bad), math.nan, "leakage must be in"),
            (lambda bad: s.BatterySpec(1.0, leakage=bad), math.inf, "leakage must be in"),
        ],
        ids=[
            "innovation std",
            "spread",
            "day-ahead price",
            "ar coefficient",
            "initial deviation",
            "initial wealth",
            "bid",
            "speed",
            "speed inf",
            "capacity",
            "capacity inf",
            "charge efficiency",
            "charge efficiency inf",
            "discharge efficiency",
            "discharge efficiency inf",
            "leakage",
            "leakage inf",
        ],
    )
    def test_specs_refuse_nan_in_every_field(self, build, bad, message):
        # the battery's fields refuse inf too; a NaN may fail a range check first
        with pytest.raises(ValueError, match=message):
            build(bad)


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
        # the chain always samples from the model's stationary law, and from
        # N(0, 1) when the innovation std is 0
        for n in (1, 3, 8):
            nodes = s.build_chain(model, n).nodes[1]
            assert nodes.tolist() == s.gauss_hermite(n, model.stationary_std()).nodes.tolist()
        flat = s.PriceModel(model.day_ahead, 0.48, 0.0, 1.0)
        assert s.build_chain(flat, 4).nodes[1].tolist() == s.gauss_hermite(4, 1.0).nodes.tolist()


class TestAxisreplacement:
    def test_capacity(self):
        cfg = with_axis_value(s.RunConfig(), "capacity", 2.5)
        assert cfg.battery.capacity_mwh == 2.5

    def test_speed(self):
        cfg = with_axis_value(s.RunConfig(), "speed_fraction", 0.7)
        assert cfg.battery.alpha == 0.7

    def test_sigma(self):
        cfg = with_axis_value(s.RunConfig(), "sigma", 6.0)
        assert cfg.price == s.config.PriceConfig(sigma_eps=6.0)

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            with_axis_value(s.RunConfig(), "leakage", 0.1)


def dotted_fields(cls, prefix=""):
    """Dotted names of a config dataclass's leaf fields, sections expanded."""
    for f in dataclasses.fields(cls):
        if isinstance(f.default_factory, type) and dataclasses.is_dataclass(f.default_factory):
            yield from dotted_fields(f.default_factory, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_readme_config_table_matches_run_config():
    # a key added to or removed from RunConfig without its README row fails
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration keys", 1)[1].split("\n\n| key |", 1)[1]
    table = section.split("\n\n", 1)[0]
    keys = re.findall(r"^\| `([\w.]+)` \|", table, flags=re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert sorted(keys) == sorted(dotted_fields(s.RunConfig))
