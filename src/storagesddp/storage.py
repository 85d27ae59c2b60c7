"""Battery dynamics, bounds and costs in the relaxed two-control form.

The physical control is a single signed energy quantity per period; buying
``u >= 0`` costs ``ask * u`` and stores ``c_plus * u``, selling ``u <= 0``
earns ``bid * |u|`` and removes ``c_minus * |u|``.  The solver works with the
convex relaxation that carries separate buy/sell quantities (both may be
positive simultaneously).  Whenever ``bid / c_minus <= ask / c_plus`` holds,
a relaxed trajectory can be folded back into a physical one with the same
energy path and no worse terminal wealth; `recover_complementary` performs
that fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolatedError, InfeasibleInputError, OverflowGuardError
from .price_model import PriceModel

_SPREAD_TOL = 1e-12
_FEAS_TOL = 1e-9

# exp argument beyond which a double overflows
_EXP_ARG_MAX = 700.0


@dataclass(frozen=True)
class BatterySpec:
    """Physical storage parameters.

    Charging and discharging share one speed limit, ``speed_fraction *
    capacity`` per period.
    """

    capacity: float
    speed_fraction: float = 0.4
    charge_eff: float = 0.95
    discharge_eff: float = 1.05
    leakage: float = 0.0

    def __post_init__(self) -> None:
        if not self.capacity > 0:
            raise ValueError("capacity must be > 0")
        if not 0 < self.speed_fraction <= 1:
            raise ValueError("speed_fraction must be in (0, 1]")
        if not 0 < self.charge_eff <= self.discharge_eff:
            raise ValueError("need 0 < charge_eff <= discharge_eff")
        if not 0 <= self.leakage <= 1:
            raise ValueError("leakage must be in [0, 1]")

    @property
    def max_charge(self) -> float:
        return self.speed_fraction * self.capacity

    @property
    def max_discharge(self) -> float:
        return self.speed_fraction * self.capacity


@dataclass(frozen=True)
class UtilitySpec:
    """Exponential utility (1/rho)(1 - exp(-rho z)) and starting cash."""

    risk_aversion: float
    initial_wealth: float = 0.0

    def __post_init__(self) -> None:
        if not self.risk_aversion > 0:
            raise ValueError("risk_aversion must be > 0")


@dataclass(frozen=True)
class StageData:
    """Everything one stage subproblem needs: prices, dynamics, boxes.

    Only the controls and the energy are boxed; wealth is unbounded.

    Wealth update:  x_m' = x_m - ask * u_buy + bid * u_sell
    Energy update:  x_e' = leak_factor * x_e + charge_eff * u_buy
                            - discharge_eff * u_sell
    """

    bid: float
    ask: float
    leak_factor: float
    charge_eff: float
    discharge_eff: float
    capacity: float
    u_max_charge: float
    u_max_discharge: float

    def __post_init__(self) -> None:
        if self.bid > self.ask:
            raise ValueError("bid must not exceed ask")
        if self.u_max_charge < 0 or self.u_max_discharge < 0:
            raise ValueError("speed bounds must be >= 0")

    def next_state(
        self, state: tuple[float, float], controls: tuple[float, float]
    ) -> tuple[float, float]:
        xm, xe = state
        buy, sell = controls
        return (
            xm - self.ask * buy + self.bid * sell,
            self.leak_factor * xe + self.charge_eff * buy - self.discharge_eff * sell,
        )


def stage_data_for(
    model: PriceModel,
    battery: BatterySpec,
    stage: int,
    deviation: float,
) -> StageData:
    """Assemble one stage's data from realized (or node) deviation."""
    from .price_model import bid_ask  # local import avoids cycle at module load

    bid, ask = bid_ask(model, stage, deviation)
    return StageData(
        bid=bid,
        ask=ask,
        leak_factor=1.0 - battery.leakage,
        charge_eff=battery.charge_eff,
        discharge_eff=battery.discharge_eff,
        capacity=battery.capacity,
        u_max_charge=battery.max_charge,
        u_max_discharge=battery.max_discharge,
    )


def check_spread_condition(stage_data: StageData) -> bool:
    """True iff bid/discharge_eff <= ask/charge_eff (within 1e-12).

    Under this condition simultaneous buying and selling is never strictly
    profitable, so the two-control relaxation is tight.
    """
    return (
        stage_data.bid / stage_data.discharge_eff
        <= stage_data.ask / stage_data.charge_eff + _SPREAD_TOL
    )


@dataclass
class RelaxedTrajectory:
    """Trajectory of the two-control relaxation.

    ``wealth`` and ``energy`` have length T+1 (index 0 is the initial state);
    ``buy`` and ``sell`` have length T.
    """

    wealth: np.ndarray
    energy: np.ndarray
    buy: np.ndarray
    sell: np.ndarray

    def __post_init__(self) -> None:
        self.wealth = np.asarray(self.wealth, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)
        self.buy = np.asarray(self.buy, dtype=float)
        self.sell = np.asarray(self.sell, dtype=float)
        T = len(self.buy)
        if len(self.sell) != T or len(self.wealth) != T + 1 or len(self.energy) != T + 1:
            raise ValueError("inconsistent trajectory lengths")

    @property
    def horizon(self) -> int:
        return len(self.buy)


@dataclass
class ComplementaryTrajectory:
    """Physical trajectory: one signed net control per period."""

    wealth: np.ndarray
    energy: np.ndarray
    net_control: np.ndarray

    def __post_init__(self) -> None:
        self.wealth = np.asarray(self.wealth, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)
        self.net_control = np.asarray(self.net_control, dtype=float)


def _validate_relaxed(
    relaxed: RelaxedTrajectory,
    prices: list[tuple[float, float]],
    battery: BatterySpec,
) -> None:
    T = relaxed.horizon
    if len(prices) != T:
        raise InfeasibleInputError(f"need {T} price pairs, got {len(prices)}")
    leak = 1.0 - battery.leakage
    if abs(relaxed.energy[0]) > _FEAS_TOL:
        raise InfeasibleInputError("the trajectory does not start empty")
    for t in range(T):
        bid, ask = prices[t]
        b, s = relaxed.buy[t], relaxed.sell[t]
        if not (-_FEAS_TOL <= b <= battery.max_charge + _FEAS_TOL):
            raise InfeasibleInputError(f"buy control out of box at t={t + 1}")
        if not (-_FEAS_TOL <= s <= battery.max_discharge + _FEAS_TOL):
            raise InfeasibleInputError(f"sell control out of box at t={t + 1}")
        wm = relaxed.wealth[t] - ask * b + bid * s
        we = leak * relaxed.energy[t] + battery.charge_eff * b - battery.discharge_eff * s
        if abs(wm - relaxed.wealth[t + 1]) > _FEAS_TOL:
            raise InfeasibleInputError(f"wealth dynamics violated at t={t + 1}")
        if abs(we - relaxed.energy[t + 1]) > _FEAS_TOL:
            raise InfeasibleInputError(f"energy dynamics violated at t={t + 1}")
        if not (-_FEAS_TOL <= relaxed.energy[t + 1] <= battery.capacity + _FEAS_TOL):
            raise InfeasibleInputError(f"energy out of [0, capacity] at t={t + 1}")


def recover_complementary(
    relaxed: RelaxedTrajectory,
    prices: list[tuple[float, float]],
    battery: BatterySpec,
) -> ComplementaryTrajectory:
    """Fold a relaxed trajectory into a physical one.

    Per period the net charge effect ``C = c_plus*buy - c_minus*sell`` is
    reproduced by the single control ``u = C+/c_plus - C-/c_minus``.  The
    fold starts from the trajectory's own initial wealth and an empty
    battery.  The energy path is unchanged; terminal wealth can only
    increase, given the spread condition.

    Raises
    ------
    InfeasibleInputError
        If the relaxed trajectory violates its own constraints.
    ConditionViolatedError
        If the spread condition fails at some stage.
    """
    _validate_relaxed(relaxed, prices, battery)
    cp, cm = battery.charge_eff, battery.discharge_eff
    T = relaxed.horizon
    for t, (bid, ask) in enumerate(prices):
        if bid / cm > ask / cp + _SPREAD_TOL:
            raise ConditionViolatedError(f"spread condition fails at t={t + 1}")

    leak = 1.0 - battery.leakage
    net = np.empty(T)
    wealth = np.empty(T + 1)
    energy = np.empty(T + 1)
    wealth[0], energy[0] = relaxed.wealth[0], 0.0
    for t in range(T):
        bid, ask = prices[t]
        c = cp * relaxed.buy[t] - cm * relaxed.sell[t]
        u = c / cp if c >= 0 else c / cm
        net[t] = u
        cost = ask * u if u >= 0 else bid * u
        wealth[t + 1] = wealth[t] - cost
        energy[t + 1] = leak * energy[t] + (cp * u if u >= 0 else cm * u)
    return ComplementaryTrajectory(wealth=wealth, energy=energy, net_control=net)


def terminal_cost(utility: UtilitySpec, wealth: float) -> float:
    """Cost of ending the day with ``wealth``: (1/rho)(exp(-rho w) - 1).

    Convex and strictly decreasing; bounded below by -1/rho.

    Raises
    ------
    OverflowGuardError
        If ``wealth`` is so negative that the exponential would overflow a
        double.
    """
    rho = utility.risk_aversion
    arg = -rho * wealth
    if arg > _EXP_ARG_MAX:
        raise OverflowGuardError(
            f"wealth {wealth:.6g} overflows exp at risk aversion {rho:.6g}"
        )
    return (math.exp(arg) - 1.0) / rho
