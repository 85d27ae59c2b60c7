"""Declarative run configuration (JSON) and assembly into model objects.

Defaults reproduce the reference day-trading experiment: 24 hourly periods,
1 MWh battery with charge/discharge speeds of 0.4 of capacity, efficiencies
0.95/1.05, no leakage, 1 EUR half-spread, AR coefficient 0.48, risk aversion
0.03, 8 quadrature points, 1000 iterations.  The day-ahead curve defaults to
a synthetic two-peak daily shape (the historical curve is not distributed
with the package).

The innovation std defaults to a synthetic stand-in of 3 EUR/MWh, chosen so
that every chain node keeps the mid price above the level where the bid/ask
efficiency condition (and with it the two-control relaxation) would break:
with spread 1 and efficiencies 0.95/1.05 that happens below -20 EUR/MWh.
The default leaves that margin intact up to 16 quadrature points and a
doubled volatility sweep.  Fits on real data give larger values; training
with them refuses cleanly if the condition fails at some node.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, replace

from .discretization import MarkovChain, build_chain
from .errors import ConfigError
from .price_model import PriceModel
from .sddp import Policy, StorageProblem, TrainingLog, train
from .storage import BatterySpec, UtilitySpec

SWEEP_AXES = ("capacity", "speed_fraction", "sigma")


def default_day_ahead(horizon: int = 24) -> tuple[float, ...]:
    """Synthetic day-ahead curve: flat 50 EUR/MWh plus a +-20 EUR two-peak shape.

    Sampled at ``horizon`` evenly spaced points over the day; peaks around
    09h and 19h, trough around 02h.
    """
    out = []
    for t in range(horizon):
        h = 24.0 * t / horizon
        out.append(
            50.0
            + 8.0 * math.cos(2.0 * math.pi * (h - 16.0) / 24.0)
            + 12.0 * math.cos(4.0 * math.pi * (h - 8.0) / 24.0)
        )
    return tuple(out)


@dataclass(frozen=True)
class BatteryConfig:
    capacity_mwh: float = 1.0
    alpha: float = 0.4
    c_plus: float = 0.95
    c_minus: float = 1.05
    leakage: float = 0.0


@dataclass(frozen=True)
class MarketConfig:
    spread_eur: float = 1.0
    day_ahead: tuple[float, ...] | None = None


@dataclass(frozen=True)
class PriceConfig:
    a: float = 0.48
    sigma_eps: float = 3.0
    xi0: float = 0.0


@dataclass(frozen=True)
class UtilityConfig:
    rho: float = 0.03
    initial_wealth: float = 0.0


@dataclass(frozen=True)
class SddpConfig:
    quadrature_points: int = 8
    iterations: int = 1000
    seed: int = 0


@dataclass(frozen=True)
class SimulateConfig:
    scenarios: int = 10000
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    horizon: int = 24
    battery: BatteryConfig = field(default_factory=BatteryConfig)
    market: MarketConfig = field(default_factory=MarketConfig)
    price: PriceConfig = field(default_factory=PriceConfig)
    utility: UtilityConfig = field(default_factory=UtilityConfig)
    sddp: SddpConfig = field(default_factory=SddpConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)

    def resolved_day_ahead(self) -> tuple[float, ...]:
        if self.market.day_ahead is None:
            return default_day_ahead(self.horizon)
        return self.market.day_ahead


_SECTIONS = {
    "battery": BatteryConfig,
    "market": MarketConfig,
    "price": PriceConfig,
    "utility": UtilityConfig,
    "sddp": SddpConfig,
    "simulate": SimulateConfig,
}


# integer fields; every other field but the day-ahead curve is a real number
_COUNTS = (
    "horizon",
    "sddp.quadrature_points",
    "sddp.iterations",
    "sddp.seed",
    "simulate.scenarios",
    "simulate.seed",
)


def _is_real(value) -> bool:
    """A finite int or float; a bool is not a number here, nor an int beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _build_section(cls, data: dict, path: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in '{path}'")
    kwargs = {}
    for key, value in data.items():
        if key == "day_ahead":
            if not isinstance(value, (list, tuple)) or not all(map(_is_real, value)):
                raise ConfigError("market.day_ahead must be a list of finite numbers")
            kwargs[key] = tuple(float(v) for v in value)
        else:
            kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    known = set(_SECTIONS) | {"horizon"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}")
    kwargs = {}
    if "horizon" in data:
        kwargs["horizon"] = data["horizon"]
    for name, cls in _SECTIONS.items():
        if name in data:
            if not isinstance(data[name], dict):
                raise ConfigError(f"'{name}' section must be a JSON object")
            kwargs[name] = _build_section(cls, data[name], name)
    cfg = RunConfig(**kwargs)
    validate_config(cfg)
    return cfg


def load_config(path: str) -> RunConfig:
    """Read a JSON run config; `ConfigError` if it cannot be read (missing, a
    directory, not UTF-8), is not JSON, or fails `validate_config`."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def _scalar_fields(cfg: RunConfig):
    """``(dotted name, value)`` of every field but the day-ahead curve."""
    yield "horizon", cfg.horizon
    for section in _SECTIONS:
        values = getattr(cfg, section)
        for f in dataclasses.fields(values):
            if f.name != "day_ahead":
                yield f"{section}.{f.name}", getattr(values, f.name)


def validate_config(cfg: RunConfig) -> None:
    """Raise `ConfigError` unless every field has its type and range.

    Counts must be ``int`` (not ``bool``); every other number must be a
    finite ``int`` or ``float``, so NaN and infinities, which JSON admits,
    are refused.
    """
    for name, value in _scalar_fields(cfg):
        if name in _COUNTS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
        elif not _is_real(value):
            raise ConfigError(f"{name} must be a finite number, not {value!r}")
    if cfg.market.day_ahead is not None and not all(map(_is_real, cfg.market.day_ahead)):
        raise ConfigError("market.day_ahead must be a list of finite numbers")
    if cfg.horizon < 1:
        raise ConfigError("horizon must be >= 1")
    da = cfg.resolved_day_ahead()
    if len(da) != cfg.horizon:
        raise ConfigError(
            f"market.day_ahead has {len(da)} entries, horizon is {cfg.horizon}"
        )
    if cfg.battery.capacity_mwh <= 0:
        raise ConfigError("battery.capacity_mwh must be > 0")
    if not 0 < cfg.battery.alpha <= 1:
        raise ConfigError("battery.alpha must be in (0, 1]")
    if not 0 < cfg.battery.c_plus <= cfg.battery.c_minus:
        raise ConfigError("need 0 < battery.c_plus <= battery.c_minus")
    if not 0 <= cfg.battery.leakage <= 1:
        raise ConfigError("battery.leakage must be in [0, 1]")
    if cfg.market.spread_eur < 0:
        raise ConfigError("market.spread_eur must be >= 0")
    if cfg.price.sigma_eps < 0:
        raise ConfigError("price.sigma_eps must be >= 0")
    if cfg.utility.rho <= 0:
        raise ConfigError("utility.rho must be > 0")
    if cfg.sddp.quadrature_points < 1:
        raise ConfigError("sddp.quadrature_points must be >= 1")
    if cfg.sddp.iterations < 1:
        raise ConfigError("sddp.iterations must be >= 1")
    if cfg.sddp.seed < 0 or cfg.simulate.seed < 0:
        raise ConfigError("seeds must be >= 0")
    if cfg.simulate.scenarios < 1:
        raise ConfigError("simulate.scenarios must be >= 1")


def build_price_model(cfg: RunConfig) -> PriceModel:
    return PriceModel(
        day_ahead=cfg.resolved_day_ahead(),
        ar_coefficient=cfg.price.a,
        innovation_std=cfg.price.sigma_eps,
        spread=cfg.market.spread_eur,
        initial_deviation=cfg.price.xi0,
    )


def build_battery(cfg: RunConfig) -> BatterySpec:
    return BatterySpec(
        capacity=cfg.battery.capacity_mwh,
        speed_fraction=cfg.battery.alpha,
        charge_eff=cfg.battery.c_plus,
        discharge_eff=cfg.battery.c_minus,
        leakage=cfg.battery.leakage,
    )


def build_utility(cfg: RunConfig) -> UtilitySpec:
    return UtilitySpec(
        risk_aversion=cfg.utility.rho, initial_wealth=cfg.utility.initial_wealth
    )


def build_problem(cfg: RunConfig) -> StorageProblem:
    return StorageProblem(
        price_model=build_price_model(cfg),
        battery=build_battery(cfg),
        utility=build_utility(cfg),
    )


def build_chain_for(cfg: RunConfig) -> MarkovChain:
    return build_chain(build_price_model(cfg), cfg.sddp.quadrature_points)


def train_from_config(cfg: RunConfig) -> tuple[Policy, TrainingLog]:
    """Train on the config's problem and chain with its iterations and seed."""
    return train(
        build_problem(cfg), build_chain_for(cfg), cfg.sddp.iterations, cfg.sddp.seed
    )


def with_axis_value(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    """Return a config with one sweep axis replaced.

    ``capacity`` sets ``battery.capacity_mwh``, ``speed_fraction`` sets
    ``battery.alpha`` and ``sigma`` sets ``price.sigma_eps``; nothing else
    changes (the chain follows the new innovation std by itself).
    """
    if axis == "capacity":
        return replace(cfg, battery=replace(cfg.battery, capacity_mwh=float(value)))
    if axis == "speed_fraction":
        return replace(cfg, battery=replace(cfg.battery, alpha=float(value)))
    if axis == "sigma":
        return replace(cfg, price=replace(cfg.price, sigma_eps=float(value)))
    raise ConfigError(f"unknown sweep axis '{axis}'; expected one of {SWEEP_AXES}")
