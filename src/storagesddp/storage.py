"""Battery dynamics, bounds and costs in the relaxed two-control form.

The physical control is a single signed energy quantity per period; buying
``u >= 0`` costs ``ask * u`` and stores ``c_plus * u``, selling ``u <= 0``
earns ``bid * |u|`` and removes ``c_minus * |u|``.  The solver works with the
convex relaxation that carries separate buy/sell quantities (both may be
positive simultaneously).  Whenever ``bid / c_minus <= ask / c_plus`` holds
(`check_spread_condition`), buying and selling at once never pays, so the
relaxation is tight, and the stage solves buy or sell, never both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OverflowGuardError
from .price_model import PriceModel

_SPREAD_TOL = 1e-12

# exp argument beyond which a double overflows
_EXP_ARG_MAX = 700.0


@dataclass(frozen=True)
class BatterySpec:
    """Physical storage parameters.

    Charging and discharging share one speed limit, ``speed_fraction *
    capacity`` per period.  Every value must be finite; a non-finite one
    raises `ValueError`.
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
        numbers = (
            self.capacity, self.speed_fraction, self.charge_eff, self.discharge_eff, self.leakage,
        )  # fmt: skip
        if not all(map(math.isfinite, numbers)):
            raise ValueError("battery parameters must be finite")

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
        if not (math.isfinite(self.risk_aversion) and math.isfinite(self.initial_wealth)):
            raise ValueError("risk_aversion and initial_wealth must be finite")


@dataclass(frozen=True)
class StageData:
    """Everything one stage subproblem needs: its node's prices and the battery.

    ``battery`` is the policy's one `BatterySpec`; only ``bid`` and ``ask``
    differ by node.  Only the controls and the energy are boxed; wealth is
    unbounded.  With ``U = battery.max_charge``, buying and selling each lie
    in ``[0, U]``, and

    Wealth update:  x_m' = x_m - ask * u_buy + bid * u_sell
    Energy update:  x_e' = (1 - leakage) * x_e + charge_eff * u_buy
                            - discharge_eff * u_sell
    """

    bid: float
    ask: float
    battery: BatterySpec

    def __post_init__(self) -> None:
        if not self.bid <= self.ask:
            raise ValueError("bid must not exceed ask")


def stage_data_for(
    model: PriceModel,
    battery: BatterySpec,
    stage: int,
    deviation: float,
) -> StageData:
    """The node's bid and ask at ``deviation``, with ``battery`` itself (not a copy)."""
    from .price_model import bid_ask  # local import avoids cycle at module load

    bid, ask = bid_ask(model, stage, deviation)
    return StageData(bid=bid, ask=ask, battery=battery)


def check_spread_condition(stage_data: StageData) -> bool:
    """True iff bid/discharge_eff <= ask/charge_eff (within 1e-12).

    Under this condition simultaneous buying and selling is never strictly
    profitable, so the two-control relaxation is tight.
    """
    battery = stage_data.battery
    return (
        stage_data.bid / battery.discharge_eff
        <= stage_data.ask / battery.charge_eff + _SPREAD_TOL
    )


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
