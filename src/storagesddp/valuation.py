"""Indifference prices of storage access from trained value functions.

With exponential utility the indifference price is the certainty equivalent
of optimal trading from zero cash: ``pi = -ln(1 - rho * phi(0)) / rho``,
where ``phi(0)`` is the optimal expected utility with the storage.  Training
works on the certainty equivalent itself (the cash-additive entropic
cost-to-go of `sddp`), so `price_storage` reads the price from one training
run, without the cancellation in ``1 - rho * phi`` that loses every digit
once ``rho * phi`` nears one.  It is the package's only valuation route;
`price_sweep` calls it along a parameter grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

from .config import RunConfig, build_utility, train_from_config, validate_config, with_axis_value
from .errors import ConfigError
from .storage import UtilitySpec, terminal_cost


@dataclass(frozen=True)
class ValuationResult:
    """`price_storage`'s indifference price (EUR) and the utilities with and without storage.

    The training's iteration count is the config's ``sddp.iterations``.
    """

    price: float
    phi_with: float
    phi_without: float


def price_storage(config: RunConfig) -> ValuationResult:
    """Indifference price from one training on ``config``.

    The pools do not depend on the initial wealth ``w0``.  The price is the
    root certainty equivalent of trading from zero cash, an optimistic bound
    that tightens with the iterations.  Both utilities are at ``w0``:
    ``phi_with`` is the final training bound, ``-terminal_cost(utility, w0 +
    price)``, and ``phi_without`` the utility of ``w0`` alone.  Raises
    `OverflowGuardError`, before training, where that utility overflows.
    """
    utility = build_utility(config)
    # 0.0 - x, not -x: zero wealth gives 0.0, not -0.0
    phi_without = 0.0 - terminal_cost(utility, utility.initial_wealth)
    policy, log = train_from_config(config)
    return ValuationResult(
        price=-policy.pools.get(0, 0).value(0.0),
        phi_with=log.final_bound(),
        phi_without=phi_without,
    )


def price_sweep(
    axis: str,
    grid: Sequence[float],
    base_config: RunConfig,
    rhos: Sequence[float] | None = None,
) -> list[tuple[float, float, float, float, float]]:
    """Indifference prices along a parameter grid.

    Rows are ``(axis_value, rho, price_eur, bound, train_seconds)``, one per
    (grid point, risk aversion); ``bound`` is `price_storage`'s ``phi_with``.
    Grid point i trains with the base config's iterations and seed
    ``base_config.sddp.seed + i``.  A capacity of exactly 0 is priced at 0
    without training, its bound the utility of the initial wealth alone.
    Everything is checked before the first training: an empty or not
    strictly increasing grid, empty or repeated risk aversions, and a config
    that `validate_config` refuses (the base config at each risk aversion,
    or a grid point's config), raise `ConfigError`.
    """
    if len(grid) == 0:
        raise ConfigError("grid must be nonempty")
    if any(not b > a for a, b in zip(grid, grid[1:])):
        raise ConfigError("grid must be strictly increasing")
    if rhos is None:
        rhos = [base_config.utility.rho]
    if len(rhos) == 0:
        raise ConfigError("rhos must be nonempty")
    if len(set(rhos)) != len(rhos):
        raise ConfigError("rhos must not repeat a risk aversion")
    for rho in rhos:
        validate_config(replace(base_config, utility=replace(base_config.utility, rho=rho)))
    points = []
    for i, g in enumerate(grid):
        for rho in rhos:
            if axis == "capacity" and g == 0.0:
                points.append((g, rho, None))
                continue
            cfg = with_axis_value(base_config, axis, g)
            cfg = replace(
                cfg,
                utility=replace(cfg.utility, rho=float(rho)),
                sddp=replace(cfg.sddp, seed=base_config.sddp.seed + i),
            )
            validate_config(cfg)
            points.append((g, rho, cfg))
    rows = []
    for g, rho, cfg in points:
        if cfg is None:
            utility = UtilitySpec(float(rho), base_config.utility.initial_wealth)
            bound = 0.0 - terminal_cost(utility, utility.initial_wealth)
            rows.append((float(g), float(rho), 0.0, bound, 0.0))
            continue
        t0 = time.perf_counter()
        result = price_storage(cfg)
        dt = time.perf_counter() - t0
        rows.append((float(g), float(rho), result.price, result.phi_with, dt))
    return rows


def second_differences(values: Sequence[float]) -> list[float]:
    """Discrete second differences, a saturation diagnostic for sweeps."""
    return [values[i + 1] - 2 * values[i] + values[i - 1] for i in range(1, len(values) - 1)]
