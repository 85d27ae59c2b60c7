"""Indifference prices of storage access from trained value functions.

With exponential utility the price has the closed form
``pi = -ln(1 - rho * phi(0, capacity)) / rho`` where ``phi(0, capacity)`` is
the optimal expected utility starting from zero cash with the storage; only
one training run is needed.  A generic bisection on the indifference
equation ``phi(x0 - pi, capacity) = phi(x0, 0)`` is kept for cross-checks
and non-exponential extensions; every bisection step retrains at the shifted
initial wealth, which is expensive.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .config import (
    RunConfig,
    build_chain_for,
    build_problem,
    train_from_config,
    with_axis_value,
)
from .errors import BracketInvalidError, DomainError, MaxEvaluationsError
from .sddp import best_case_prices, best_case_trading
from .storage import UtilitySpec

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ValuationResult:
    price: float
    phi_with: float
    phi_without: float
    method: str
    iterations: int


def indifference_price_exponential(phi_zero_capacity: float, rho: float) -> float:
    """Closed-form price from the zero-wealth storage value.

    Raises
    ------
    DomainError
        If ``1 - rho * phi <= 0``.  The true storage value never reaches the
        utility ceiling ``1/rho``, but an optimistic SDDP bound that has not
        converged can saturate at it; more training iterations are needed.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    arg = 1.0 - rho * phi_zero_capacity
    if arg <= 0.0:
        raise DomainError(
            f"log argument {arg:.6g} <= 0: the value is at or above the utility ceiling "
            "1/rho, where only an unconverged bound saturates; train with more iterations"
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


_SHIFT_LO = 0.05  # ceiling-gap range where the plain closed form is accurate
_SHIFT_HI = 20.0
_MAX_SHIFTS = 3
_SHIFT_SCENARIOS = 300


def _certainty_equivalent_estimate(policy, rho: float) -> float:
    """Monte Carlo certainty equivalent of a trained policy's terminal wealth.

    Only used to center the pricing shift; a few euros of error are fine.
    """
    from .simulation import evaluate_out_of_sample

    report = evaluate_out_of_sample(policy, _SHIFT_SCENARIOS, rng_seed=314159)
    w = report.terminal_wealths
    ref = float(np.median(w))
    mean_exp = float(np.mean(np.exp(-rho * (w - ref))))
    return ref - math.log(mean_exp) / rho


def _best_case_profit(config: RunConfig) -> float:
    """Upper bound on the whole-day trading profit, as in the seed cuts."""
    problem = build_problem(config)
    battery = problem.battery
    profit, _ = best_case_trading(
        *best_case_prices(problem.price_model, build_chain_for(config)),
        battery.max_charge,
        battery.max_discharge,
        battery.charge_eff,
        battery.discharge_eff,
    )
    return profit


def price_storage(config: RunConfig) -> ValuationResult:
    """Closed-form indifference price; always trains at zero initial wealth.

    The price needs the ceiling gap ``1 - rho * phi(0)``, the optimal
    expected value of ``exp(-rho * wealth)``.  When the risk aversion times
    the achievable profit is large, that gap sits below the bound's
    resolution at the utility ceiling ``1/rho``.  The wealth-shift identity
    ``1 - rho*phi(x) = exp(-rho*x) * (1 - rho*phi(0))`` rescales it: training
    with an initial debt ``c`` close to the price makes the shifted gap O(1),
    and ``pi = c - ln(1 - rho*phi(-c)) / rho`` is then well conditioned.  The
    debt is chosen from a first unshifted run (or the best-case profit bound
    if that run is saturated) and refined at most twice.

    A price whose final shifted gap lies outside ``[_SHIFT_LO, _SHIFT_HI]``
    is returned unchanged but logged as a warning: the closed form is not
    accurate there.

    Raises
    ------
    DomainError
        If the final shifted gap is ``<= 0``: the optimistic bound has not
        converged and saturated at the utility ceiling ``1/rho`` even at the
        shifted wealth, so more training iterations are needed.
    """
    rho = config.utility.rho
    shift = 0.0
    policy, log = train_from_config(config, initial_wealth=0.0)
    phi_shifted = log.final_bound()
    trainings = 1
    gap = 1.0 - rho * phi_shifted
    while not _SHIFT_LO <= gap <= _SHIFT_HI and trainings < 1 + _MAX_SHIFTS:
        if gap <= 0.0:
            # fully saturated bound carries no shift information: step toward
            # the best-case profit (which always unsaturates), but not below
            # the trained policy's certainty equivalent
            ce = _certainty_equivalent_estimate(policy, rho)
            shift = max(ce, 0.5 * (shift + _best_case_profit(config)))
        else:
            # the current price estimate re-centers the shift exactly
            shift = shift - math.log(gap) / rho
        policy, log = train_from_config(config, initial_wealth=-shift)
        phi_shifted = log.final_bound()
        trainings += 1
        gap = 1.0 - rho * phi_shifted
    if gap <= 0.0:
        raise DomainError(
            f"shifted log argument {gap:.6g} <= 0 after {trainings} trainings: the "
            "unconverged bound saturated at the utility ceiling 1/rho; train with more iterations"
        )
    if not _SHIFT_LO <= gap <= _SHIFT_HI:
        logger.warning(
            "shifted ceiling gap %.6g after %d trainings is outside [%g, %g], "
            "where the closed-form price is accurate; the price may be far off",
            gap,
            trainings,
            _SHIFT_LO,
            _SHIFT_HI,
        )
    price = shift - math.log(gap) / rho
    phi_with = (1.0 - gap * math.exp(-rho * shift)) / rho
    utility = UtilitySpec(risk_aversion=rho, initial_wealth=config.utility.initial_wealth)
    phi_without = (1.0 - math.exp(-rho * utility.initial_wealth)) / rho
    return ValuationResult(
        price=price,
        phi_with=phi_with,
        phi_without=phi_without,
        method="closed_form",
        iterations=trainings * config.sddp.iterations,
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
