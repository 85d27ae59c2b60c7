"""Intraday mid-price model: day-ahead anchor plus AR(1) deviations.

The mid price for delivery period t is ``s_t = day_ahead[t] + xi_t`` where
``xi_t = a * xi_{t-1} + eps_t`` and ``eps_t ~ N(0, sigma_eps^2)`` iid.  Bid and
ask quotes sit a constant half-spread ``delta`` below/above the mid.  The AR
coefficient and innovation std are estimated from historical day-ahead / ID1
pairs by ordinary least squares.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateInputError, StageOutOfRangeError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PriceModel:
    """Price process parameters for one trading day of ``T`` delivery periods.

    Every value must be finite; a non-finite one raises `ValueError`.

    Parameters
    ----------
    day_ahead:
        Day-ahead auction prices, EUR/MWh, one per delivery period.
    ar_coefficient:
        AR(1) coefficient ``a`` of the deviation process.
    innovation_std:
        Std of the Gaussian innovations, EUR/MWh.  Must be >= 0.
    spread:
        Half bid-ask spread ``delta``, EUR/MWh.  Must be >= 0.
    initial_deviation:
        Deviation ``xi_0`` at the start of the day (default 0: no information
        beyond the day-ahead auction).
    """

    day_ahead: tuple[float, ...]
    ar_coefficient: float
    innovation_std: float
    spread: float
    initial_deviation: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "day_ahead", tuple(float(v) for v in self.day_ahead))
        if len(self.day_ahead) == 0:
            raise ValueError("day_ahead must have at least one entry")
        numbers = (
            *self.day_ahead, self.ar_coefficient, self.innovation_std, self.spread,
            self.initial_deviation,
        )  # fmt: skip
        if not all(map(math.isfinite, numbers)):
            raise ValueError("price model parameters must be finite")
        if self.innovation_std < 0:
            raise ValueError("innovation_std must be >= 0")
        if self.spread < 0:
            raise ValueError("spread must be >= 0")

    @property
    def horizon(self) -> int:
        return len(self.day_ahead)

    def stationary_std(self) -> float:
        """Long-run std of the deviation process (innovation std if |a| >= 1)."""
        a = self.ar_coefficient
        if abs(a) >= 1.0:
            return self.innovation_std
        return self.innovation_std / np.sqrt(1.0 - a * a)


@dataclass(frozen=True)
class RegressionFit:
    """OLS fit of next deviation on current deviation."""

    slope: float
    intercept: float
    r_squared: float
    residual_std: float
    n_obs: int


def fit_ar(deviations: np.ndarray) -> RegressionFit:
    """Estimate the AR(1) coefficient by OLS with intercept.

    ``deviations`` are the observations ``xi_t`` in time order, such as the
    ``id1 - day_ahead`` that `read_price_csv` returns.  Regresses
    ``xi_{t+1}`` on ``xi_t``.  The innovation std is the population
    std of the residuals ``r_t = xi_{t+1} - slope * xi_t`` about their mean;
    the mean itself is discarded because the simulated innovations are
    zero-mean by construction.

    Raises
    ------
    DegenerateInputError
        If fewer than 3 observations, an observation is not finite, or the
        regressor has zero variance.
    """
    xi = np.asarray(deviations, dtype=float)
    if xi.size < 3:
        raise DegenerateInputError("need at least 3 deviation observations")
    if not np.isfinite(xi).all():
        raise DegenerateInputError("deviation observations must be finite")
    x, y = xi[:-1], xi[1:]
    n = x.size
    x_var = np.var(x)
    if x_var <= 0.0:
        raise DegenerateInputError("regressor has zero variance")
    x_mean, y_mean = x.mean(), y.mean()
    slope = float(np.mean((x - x_mean) * (y - y_mean)) / x_var)
    intercept = float(y_mean - slope * x_mean)
    fitted = intercept + slope * x
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y_mean) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    residuals = y - slope * x
    residual_std = float(np.sqrt(np.mean((residuals - residuals.mean()) ** 2)))
    return RegressionFit(
        slope=slope,
        intercept=intercept,
        r_squared=float(np.clip(r_squared, 0.0, 1.0)),
        residual_std=residual_std,
        n_obs=n,
    )


def simulate_deviation_path(model: PriceModel, rng_seed: int) -> np.ndarray:
    """Simulate ``xi_1 .. xi_T`` over the model's horizon from a seeded generator.

    Pure function of ``(model, rng_seed)``: the same seed always yields the
    same path.  The one row of `simulate_deviation_paths`.
    """
    return simulate_deviation_paths(model, [rng_seed])[0]


def simulate_deviation_paths(model: PriceModel, seeds) -> np.ndarray:
    """One path over the model's horizon per seed, as a ``(len(seeds), T)`` array.

    Row k draws its T innovations from ``default_rng(seeds[k])``; the AR
    recursion then runs once per stage across all rows.  A longer path (as
    for fitting) comes from a model whose day-ahead curve has that length.
    """
    horizon = model.horizon
    paths = np.empty((len(seeds), horizon))
    for k, seed in enumerate(seeds):
        paths[k] = np.random.default_rng(seed).normal(0.0, model.innovation_std, size=horizon)
    xi = model.initial_deviation
    a = model.ar_coefficient
    for t in range(horizon):
        xi = a * xi + paths[:, t]
        paths[:, t] = xi
    return paths


def bid_ask(model: PriceModel, stage: int, deviation: float) -> tuple[float, float]:
    """Bid and ask quotes for delivery period ``stage`` (1-based) at deviation ``xi``."""
    if not 1 <= stage <= model.horizon:
        raise StageOutOfRangeError(f"stage {stage} outside 1..{model.horizon}")
    mid = model.day_ahead[stage - 1] + deviation
    return mid - model.spread, mid + model.spread


def read_price_csv(path: str) -> tuple[np.ndarray, int]:
    """Read ``timestamp,day_ahead,id1`` rows as deviations ``id1 - day_ahead``.

    A row without a timestamp or with a price that is not a finite number
    (``nan`` and ``inf`` parse as floats) is incomplete and dropped.
    Returns the deviations of the kept rows, in file order, and the number
    of dropped rows (also logged).  Raises `DataError` for a file that
    cannot be read (missing, a directory, not UTF-8), a header without the
    three columns, and a file without a usable row.
    """
    deviations: list[float] = []
    dropped = 0
    try:
        # utf-8-sig: spreadsheet exports often start with a byte-order mark
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or not {"timestamp", "day_ahead", "id1"} <= set(
                reader.fieldnames
            ):
                raise DataError(
                    f"{path}: expected header 'timestamp,day_ahead,id1', "
                    f"got {reader.fieldnames}"
                )
            for row in reader:
                try:
                    ts = row["timestamp"]
                    d = float(row["day_ahead"])
                    v = float(row["id1"])
                except (TypeError, ValueError, KeyError):
                    dropped += 1
                    continue
                if ts is None or ts == "" or not (math.isfinite(d) and math.isfinite(v)):
                    dropped += 1
                    continue
                deviations.append(v - d)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if dropped:
        logger.warning("dropped %d incomplete rows from %s", dropped, path)
    if not deviations:
        raise DataError(f"{path}: no usable rows")
    return np.array(deviations), dropped
