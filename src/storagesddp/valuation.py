"""Indifference prices of storage access from trained value functions.

With exponential utility the indifference price is the certainty equivalent
of optimal trading from zero cash: ``pi = -ln(1 - rho * phi(0)) / rho``,
where ``phi(0)`` is the optimal expected utility with the storage.  Training
works on the certainty equivalent itself (the cash-additive entropic
cost-to-go of `sddp`), so `price_storage` reads the price from one training
run, without the cancellation in ``1 - rho * phi`` that loses every digit
once ``rho * phi`` nears one.  `indifference_price_exponential` keeps the
closed form for values given as expected utility.  A generic bisection on
the indifference equation ``phi(x0 - pi, capacity) = phi(x0, 0)`` is kept
for cross-checks and non-exponential extensions; every bisection step
retrains at the shifted initial wealth, which is expensive.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .config import RunConfig, train_from_config, with_axis_value
from .errors import BracketInvalidError, DomainError, MaxEvaluationsError


@dataclass(frozen=True)
class ValuationResult:
    price: float
    phi_with: float
    phi_without: float
    iterations: int


def indifference_price_exponential(phi_zero_capacity: float, rho: float) -> float:
    """Closed-form price from the zero-wealth storage value.

    Raises
    ------
    DomainError
        If ``1 - rho * phi <= 0``: no storage value reaches the utility
        ceiling ``1/rho``.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    arg = 1.0 - rho * phi_zero_capacity
    if arg <= 0.0:
        raise DomainError(
            f"log argument {arg:.6g} <= 0: the value is at or above the utility ceiling 1/rho"
        )
    return -math.log(arg) / rho


def indifference_price_bisection(
    value_fn: Callable[[float], float],
    baseline: float,
    bracket: tuple[float, float],
    tol: float,
    initial_wealth: float = 0.0,
    max_evaluations: int = 100,
) -> tuple[float, int]:
    """Solve ``value_fn(x0 - pi) = baseline`` for the price by bisection.

    ``value_fn(w)`` must be the with-storage value as a function of initial
    wealth (non-decreasing in ``w``).  Returns (price, evaluations).
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    lo, hi = bracket
    if not lo < hi:
        raise BracketInvalidError(f"bracket ({lo}, {hi}) is empty")
    f_lo = value_fn(initial_wealth - lo) - baseline
    f_hi = value_fn(initial_wealth - hi) - baseline
    evals = 2
    if f_lo < 0 or f_hi > 0:
        raise BracketInvalidError(
            f"bracket does not enclose the price: f(lo)={f_lo:.6g}, f(hi)={f_hi:.6g}"
        )
    while hi - lo > tol:
        if evals >= max_evaluations:
            raise MaxEvaluationsError(f"no convergence in {max_evaluations} evaluations")
        mid = 0.5 * (lo + hi)
        evals += 1
        if value_fn(initial_wealth - mid) - baseline >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), evals


def storage_value(config: RunConfig, initial_wealth: float | None = None) -> float:
    """Train on the config and return the deterministic value bound.

    ``initial_wealth`` overrides the config's utility.initial_wealth.
    """
    _, log = train_from_config(config, initial_wealth)
    return log.final_bound()


def price_storage(config: RunConfig) -> ValuationResult:
    """Indifference price from one training at zero initial wealth.

    The price is the trained root certainty equivalent
    (`sddp.Policy.root_certainty_equivalent`), an optimistic bound that
    tightens with the iterations.  ``phi_with`` is the matching expected
    utility, the final training bound, and ``phi_without`` the utility of the
    config's initial wealth without the storage.
    """
    rho = config.utility.rho
    policy, log = train_from_config(config, initial_wealth=0.0)
    phi_without = (1.0 - math.exp(-rho * config.utility.initial_wealth)) / rho
    return ValuationResult(
        price=policy.root_certainty_equivalent(),
        phi_with=log.final_bound(),
        phi_without=phi_without,
        iterations=config.sddp.iterations,
    )


def price_sweep(
    axis: str,
    grid: Sequence[float],
    base_config: RunConfig,
    iterations: int | None = None,
    seed: int | None = None,
    rhos: Sequence[float] | None = None,
) -> list[tuple[float, float, float, float, float]]:
    """Indifference prices along a parameter grid.

    Rows are ``(axis_value, rho, price_eur, bound, train_seconds)``, one per
    (grid point, risk aversion).  Grid point i trains with seed ``seed + i``.
    A capacity of exactly 0 is priced at 0 without training.
    """
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if iterations is None:
        iterations = base_config.sddp.iterations
    if seed is None:
        seed = base_config.sddp.seed
    if rhos is None:
        rhos = [base_config.utility.rho]
    rows = []
    for i, g in enumerate(grid):
        for rho in rhos:
            if axis == "capacity" and g == 0.0:
                rows.append((float(g), float(rho), 0.0, 0.0, 0.0))
                continue
            cfg = with_axis_value(base_config, axis, g)
            cfg = replace(
                cfg,
                utility=replace(cfg.utility, rho=float(rho), initial_wealth=0.0),
                sddp=replace(cfg.sddp, iterations=iterations, seed=seed + i),
            )
            t0 = time.perf_counter()
            result = price_storage(cfg)
            dt = time.perf_counter() - t0
            rows.append((float(g), float(rho), result.price, result.phi_with, dt))
    return rows


def second_differences(values: Sequence[float]) -> list[float]:
    """Discrete second differences, a saturation diagnostic for sweeps."""
    return [values[i + 1] - 2 * values[i] + values[i - 1] for i in range(1, len(values) - 1)]
