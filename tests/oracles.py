"""Independent reference computations used to verify the solver stack.

Nothing here touches the cut/LP machinery: values come from grid dynamic
programming, exhaustive enumeration, or closed forms, so agreement with the
package is meaningful evidence.  The exceptions are `scenario_major_evaluation`,
the scenario-by-scenario loop over scalar `NodeSubproblem` solves that
`evaluate_out_of_sample` ran before its stage-major lane batches, which is
the reference those batches must reproduce bit for bit; `LPSubproblem`, the
hand-written dual simplex that solved the stage LP before the closed form on
the cut envelope (it takes cuts of any wealth slope); and `kelley_terminal`,
the cutting-plane loop on that LP that the terminal stage ran before its
closed form.  `train_recording` trains while recording every cut, since a
`CutSet` keeps only its envelope.  `Cut` is a cut with its wealth slope,
which the package does not store (it is -1 on the package's cost-to-go);
`cut_set` builds a package `CutSet` from such cuts, and `zero_cut_set` the
terminal stage's one of the zero line.  `stage` builds a `StageData` by
hand, on its own `BatterySpec`.  `next_state` is the stage dynamics on
`StageData`, computed from the battery's fields (``1 - leakage``,
``max_charge``), which the package applies inside its solves only.

`recover_complementary` folds a trajectory of the two-control relaxation
(`RelaxedTrajectory`) into one signed control per period
(`ComplementaryTrajectory`) with the same energy path and no lower terminal
wealth where the spread condition holds; `InfeasibleInputError` refuses a
trajectory that breaks its own constraints.  The package never folds: its
closed form buys or sells, never both, where the condition holds, and
`Policy` refuses a chain where it fails.

The valuation oracles price storage by routes other than the package's
`price_storage`: `indifference_price_exponential`, the closed form on the
zero-wealth expected utility, and `indifference_price_bisection`, a
bisection on the indifference equation whose every step retrains at the
shifted initial wealth (`storage_value`).  The errors that only the
oracles raise are defined here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from storagesddp import bid_ask
from storagesddp.discretization import MarkovChain, nearest_node
from storagesddp.config import RunConfig, train_from_config
from storagesddp.sddp import Policy, StorageProblem, train
from storagesddp.errors import ConditionViolatedError, InfeasibleError, StorageError
from storagesddp.stage_solver import CutSet, NodeSubproblem
from storagesddp.storage import BatterySpec, StageData, stage_data_for, terminal_cost

_FEAS_TOL = 1e-9
# slack of the spread condition bid/c- <= ask/c+, as in the package
_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class Cut:
    """Affine lower bound ``intercept + grad_wealth * w + grad_energy * e`` on a cost-to-go.

    The LP oracle takes cuts of any wealth slope, such as the tangents of
    the exponential terminal cost; the package's cuts have wealth slope -1.
    """

    intercept: float
    grad_wealth: float
    grad_energy: float

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.intercept)
            and math.isfinite(self.grad_wealth)
            and math.isfinite(self.grad_energy)
        ):
            raise ValueError("cut coefficients must be finite")


@dataclass(frozen=True)
class LPSolution:
    """Optimum of `LPSubproblem`; `subgradient` is ``(wealth, energy)``."""

    controls: tuple[float, float]
    value: float
    subgradient: tuple[float, float]
    next_state: tuple[float, float]


def cut_set(capacity: float, cuts: list[Cut]) -> CutSet:
    """The package's `CutSet` of ``cuts``, which must have wealth slope -1."""
    cutset = CutSet(capacity)
    for c in cuts:
        assert c.grad_wealth == -1.0, c
        cutset.append(c.intercept, c.grad_energy)
    return cutset


def stage(bid, ask, c_plus=0.95, c_minus=1.05, cap=1.0, speed=0.4, leak=0.0) -> StageData:
    """A hand-built `StageData` at ``bid``/``ask`` on its own `BatterySpec`.

    ``speed`` is the battery's speed fraction: buying and selling are each
    bounded by ``speed * cap``.
    """
    battery = BatterySpec(
        capacity=cap, speed_fraction=speed, charge_eff=c_plus, discharge_eff=c_minus, leakage=leak
    )
    return StageData(bid=bid, ask=ask, battery=battery)


def zero_cut_set(capacity: float) -> CutSet:
    """The terminal stage's `CutSet`: the zero line, as `Policy` gives stage T."""
    cutset = CutSet(capacity)
    cutset.append(0.0, 0.0)
    return cutset


class MaxIterationsError(StorageError):
    """An iterative oracle solve exceeded its iteration budget."""


class DomainError(StorageError):
    """Closed-form price undefined: the log argument is not positive.

    Raised by `indifference_price_exponential` for an expected utility at or
    above the ceiling ``1/rho``, which no storage value reaches.
    """


class BracketInvalidError(StorageError):
    """Bisection bracket does not enclose a root."""


class MaxEvaluationsError(StorageError):
    """Bisection exceeded its evaluation budget."""


class InfeasibleInputError(StorageError):
    """A trajectory violates the relaxed problem's constraints."""

# the wealth cap of hand-built stages (no problem given)
HAND_BUILT_WEALTH_CAP = 1e5


def lp_wealth_bounds(problem: StorageProblem | None = None) -> tuple[float, float]:
    """The stage LP's wealth box ``|wealth'| <= cap`` and cost floor ``-2 * cap``.

    The package's stage solve carried both until its closed form made them
    unnecessary; the LP oracles keep them, so that their LPs stay bounded
    and compute what they always computed.  For a problem's stages the cap
    is ten times the horizon's revenue at generous prices and full speed,
    far beyond any reachable wealth; hand-built stages use
    `HAND_BUILT_WEALTH_CAP`.  Returns ``(cap, floor)``.
    """
    if problem is None:
        cap = HAND_BUILT_WEALTH_CAP
    else:
        model, battery = problem.price_model, problem.battery
        sigma = model.stationary_std()
        price_scale = max(abs(p) for p in model.day_ahead) + 5.0 * sigma + model.spread
        speed = max(battery.max_charge, battery.max_discharge)
        cap = 10.0 * model.horizon * price_scale * max(speed, 1e-9)
    return cap, -2.0 * cap


# -- stage LP oracle: the dual-form simplex ---------------------------------
#
# min theta  s.t.  theta >= intercept_c + gw_c * wealth' + ge_c * energy' (cuts),
# the control boxes, 0 <= energy' <= capacity, |wealth'| <= cap and
# theta >= floor (`lp_wealth_bounds`), with wealth' and energy' affine in
# (buy, sell).  Three variables and many rows: the primal simplex on the
# dual, every pivot a 3x3 solve; most-violated entering row with a switch to
# Bland's rule, ratio ties to the smallest basis position, and a two-level
# objective perturbation that selects the lexicographically smallest optimal
# controls.  Dual values give the state subgradient.

_PIVOT_TOL = 1e-9
_STATE_TOL = 1e-9
_MAX_PIVOTS = 10_000
# most-violated entering rule normally; switch to Bland's smallest-index
# rule (anti-cycling) if a solve runs unusually long
_BLAND_AFTER = 60

# hierarchical objective perturbation: among theta-optimal vertices prefer
# the lexicographically smallest (buy, sell); biases theta by < 1e-9
_TIE_BUY = 1e-10
_TIE_SELL = 1e-13
_OBJECTIVE = (_TIE_BUY, _TIE_SELL, 1.0)

# static row indices
_R_BUY_LO, _R_BUY_HI, _R_SELL_LO, _R_SELL_HI = 0, 1, 2, 3
_R_FLOOR, _R_CAP_LO, _R_CAP_HI, _R_W_LO, _R_W_HI = 4, 5, 6, 7, 8
_N_STATIC = 9
_START_BASIS = (_R_BUY_LO, _R_SELL_LO, _R_FLOOR)


def _static_rows(data: StageData, ask, bid) -> list[tuple]:
    """The nine static rows (control boxes, floor, energy band, wealth box), unscaled.

    ``ask`` and ``bid`` enter the wealth-box rows only.
    """
    cp, cm = data.battery.charge_eff, data.battery.discharge_eff
    return [
        (1.0, 0.0, 0.0),
        (-1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, -1.0, 0.0),
        (0.0, 0.0, 1.0),
        (cp, -cm, 0.0),
        (-cp, cm, 0.0),
        (-ask, bid, 0.0),
        (ask, -bid, 0.0),
    ]


def _cut_rows(data: StageData, gw, ge, ask, bid):
    """Unit-scaled cut rows: (buy coefficient, sell coefficient, row scale).

    A cut ``theta >= a + gw*x_m' + ge*x_e'`` becomes the row
    ``(gw*ask - ge*c_plus, -gw*bid + ge*c_minus, 1)``, divided by its largest
    magnitude (at least one); the returned scale also multiplies the cut's
    right-hand-side pieces.
    """
    c0 = gw * ask - ge * data.battery.charge_eff
    c1 = -gw * bid + ge * data.battery.discharge_eff
    inv = 1.0 / np.maximum(1.0, np.maximum(np.abs(c0), np.abs(c1)))
    return c0 * inv, c1 * inv, inv


def _solve3(r0, r1, r2, v0, v1, v2):
    """Solve M x = v for the 3x3 matrix with rows r0, r1, r2 (Cramer)."""
    a, b, c = r0
    d, e, f = r1
    g, h, i = r2
    A = e * i - f * h
    B = c * h - b * i
    C = b * f - c * e
    D = f * g - d * i
    E = a * i - c * g
    F = c * d - a * f
    G = d * h - e * g
    H = b * g - a * h
    I = a * e - b * d
    det = a * A + b * D + c * G
    if det == 0.0:
        raise StorageError("singular stage-LP basis")
    inv = 1.0 / det
    return (
        (A * v0 + B * v1 + C * v2) * inv,
        (D * v0 + E * v1 + F * v2) * inv,
        (G * v0 + H * v1 + I * v2) * inv,
        (A, B, C, D, E, F, G, H, I, inv),
    )



class LPSubproblem:
    """LP template for one (stage, successor-node) subproblem.

    The constraint matrix depends only on the node's prices and cuts; the
    incoming state enters the right-hand side alone, so a template is built
    once per node and re-solved for many states.  ``cuts`` is the oracle's
    own append-only list of `Cut` objects, independent of the package's cut
    envelopes: cuts may have any wealth slope, and cuts appended to the list
    later are synced lazily.  The wealth box and floor are `lp_wealth_bounds`
    of ``problem``.
    """

    def __init__(
        self, data: StageData, cuts: list[Cut], problem: StorageProblem | None = None
    ) -> None:
        self.data = data
        self.cuts = cuts
        self.wealth_cap, self.floor = lp_wealth_bounds(problem)
        cap0 = 32
        self._c0 = np.empty(cap0)
        self._c1 = np.empty(cap0)
        self._c2 = np.empty(cap0)
        self._b = np.empty(cap0)
        # the pivot's Python-float row cache: _c0/_c1/_c2 as tuples, because
        # _pivot reads single rows element by element (reading them from one
        # (3, m) array via .tolist() made each solve about 7% slower)
        self._rows: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)] * cap0
        static = _static_rows(data, data.ask, data.bid)
        # rows are normalized to unit magnitude at insertion; the matching
        # rhs divisors for the static rows are kept for assembly
        self._static_inv = np.array([1.0 / max(1.0, abs(r[0]), abs(r[1]), abs(r[2])) for r in static])
        for i, row in enumerate(static):
            self._set_row(i, row)
        self._m = _N_STATIC  # rows in use (static + synced cuts)
        self._synced = 0  # cuts mirrored into rows so far
        # per-cut rhs pieces, pre-divided by the row scale:
        # b_cut = (a + gw * x_m + ge*leak * x_e) / row_scale
        self._cut_a = np.empty(cap0)
        self._cut_gw = np.empty(cap0)
        self._cut_gel = np.empty(cap0)

    # -- row storage -------------------------------------------------------

    def _ensure(self, m: int) -> None:
        cap = len(self._b)
        if m <= cap:
            return
        while cap < m:
            cap *= 2
        for name in ("_c0", "_c1", "_c2", "_b", "_cut_a", "_cut_gw", "_cut_gel"):
            old = getattr(self, name)
            arr = np.empty(cap)
            arr[: len(old)] = old
            setattr(self, name, arr)
        self._rows = self._rows + [(0.0, 0.0, 0.0)] * (cap - len(self._rows))

    def _set_row(self, i: int, row: tuple[float, float, float]) -> None:
        self._ensure(i + 1)
        inv = 1.0 / max(1.0, abs(row[0]), abs(row[1]), abs(row[2]))
        row = (row[0] * inv, row[1] * inv, row[2] * inv)
        self._c0[i], self._c1[i], self._c2[i] = row
        self._rows[i] = row

    def _sync_cuts(self) -> None:
        lo, hi = self._synced, len(self.cuts)
        if lo == hi:
            return
        a, gw, ge = np.array(
            [(c.intercept, c.grad_wealth, c.grad_energy) for c in self.cuts[lo:hi]]
        ).T
        n_new = hi - lo
        d = self.data
        start = self._m
        self._ensure(start + n_new)
        sl = slice(start, start + n_new)
        c0, c1, inv = _cut_rows(d, gw, ge, d.ask, d.bid)
        self._c0[sl] = c0
        self._c1[sl] = c1
        self._c2[sl] = inv
        self._cut_a[sl] = a * inv
        self._cut_gw[sl] = gw * inv
        self._cut_gel[sl] = ge * (1.0 - d.battery.leakage) * inv
        rows = self._rows
        for k in range(n_new):
            rows[start + k] = (c0[k], c1[k], inv[k])
        self._m = start + n_new
        self._synced = hi

    # -- LP core -----------------------------------------------------------

    def _assemble_b(self, xm: float, xe: float, m: int) -> None:
        d = self.data
        b = self._b
        b[_R_BUY_LO] = 0.0
        b[_R_BUY_HI] = -d.battery.max_charge
        b[_R_SELL_LO] = 0.0
        b[_R_SELL_HI] = -d.battery.max_charge
        b[_R_FLOOR] = self.floor
        leak_xe = (1.0 - d.battery.leakage) * xe
        b[_R_CAP_LO] = -leak_xe
        b[_R_CAP_HI] = leak_xe - d.battery.capacity
        b[_R_W_LO] = -self.wealth_cap - xm
        b[_R_W_HI] = xm - self.wealth_cap
        b[:_N_STATIC] *= self._static_inv
        if m > _N_STATIC:
            sl = slice(_N_STATIC, m)
            np.multiply(self._cut_gw[sl], xm, out=b[sl])
            b[sl] += self._cut_gel[sl] * xe
            b[sl] += self._cut_a[sl]

    def _pivot(self, m: int, c: tuple[float, float, float]):
        """Run the dual-form simplex on the first ``m`` rows, objective ``c``.

        Returns (x, basis, y_basis).  Raises InfeasibleError if the primal is
        infeasible (dual unbounded).
        """
        rows = self._rows
        b = self._b
        c0v, c1v, c2v = c
        W0, W1, W2 = _START_BASIS
        col0 = self._c0[:m]
        col1 = self._c1[:m]
        col2 = self._c2[:m]
        bm = b[:m]
        pivots = 0
        for _ in range(_MAX_PIVOTS):
            r0, r1, r2 = rows[W0], rows[W1], rows[W2]
            # multipliers solve A_W^T y = c; primal point solves A_W x = b_W
            y0, y1, y2, co = _solve3(
                (r0[0], r1[0], r2[0]),
                (r0[1], r1[1], r2[1]),
                (r0[2], r1[2], r2[2]),
                c0v,
                c1v,
                c2v,
            )
            A, B, C, D, E, F, G, H, I, inv = co
            bw0, bw1, bw2 = b[W0], b[W1], b[W2]
            # x = A_W^{-1} b_W; note co is the adjugate of A_W^T, so transpose back
            x0 = (A * bw0 + D * bw1 + G * bw2) * inv
            x1 = (B * bw0 + E * bw1 + H * bw2) * inv
            x2 = (C * bw0 + F * bw1 + I * bw2) * inv
            slack = col0 * x0
            slack += col1 * x1
            slack += col2 * x2
            slack -= bm
            # ill-conditioned bases (near-parallel active rows) inflate the fp
            # error of x beyond the base tolerance; widen it accordingly
            minv_max = max(abs(A), abs(B), abs(C), abs(D), abs(E), abs(F), abs(G), abs(H), abs(I)) * abs(inv)
            x_err = 64.0 * 2.3e-16 * minv_max * max(abs(bw0), abs(bw1), abs(bw2), 1.0)
            thresh = -(_PIVOT_TOL + x_err)
            if pivots < _BLAND_AFTER:
                j = int(slack.argmin())  # most violated row enters
            else:
                j = int((slack < thresh).argmax())  # Bland: smallest index
            pivots += 1
            if slack[j] >= thresh:
                return (x0, x1, x2), (W0, W1, W2), (y0, y1, y2)
            aj = rows[j]
            u0 = (A * aj[0] + B * aj[1] + C * aj[2]) * inv
            u1 = (D * aj[0] + E * aj[1] + F * aj[2]) * inv
            u2 = (G * aj[0] + H * aj[1] + I * aj[2]) * inv
            leave = -1
            t_best = 0.0
            if u0 > _PIVOT_TOL:
                t_best, leave = y0 / u0, 0
            if u1 > _PIVOT_TOL:
                t = y1 / u1
                if leave < 0 or t < t_best:
                    t_best, leave = t, 1
            if u2 > _PIVOT_TOL:
                t = y2 / u2
                if leave < 0 or t < t_best:
                    t_best, leave = t, 2
            if leave < 0:
                # rows normalized against large cut gradients can have
                # legitimately tiny pivot elements; accept an exactly
                # positive one (a huge but finite step) before giving up
                if u0 > 0.0:
                    t_best, leave = y0 / u0, 0
                if u1 > 0.0 and (leave < 0 or y1 / u1 < t_best):
                    t_best, leave = y1 / u1, 1
                if u2 > 0.0 and (leave < 0 or y2 / u2 < t_best):
                    leave = 2
            if leave < 0:
                raise InfeasibleError("stage subproblem infeasible")
            if leave == 0:
                W0 = j
            elif leave == 1:
                W1 = j
            else:
                W2 = j
        raise MaxIterationsError("stage LP exceeded pivot budget")

    def _check_state(self, state: tuple[float, float]) -> None:
        xm, xe = state
        d = self.data
        if not (-_STATE_TOL <= xe <= d.battery.capacity + _STATE_TOL):
            raise InfeasibleError(f"energy state {xe:.6g} outside [0, {d.battery.capacity:.6g}]")
        if abs(xm) > self.wealth_cap + _STATE_TOL:
            raise InfeasibleError(f"wealth state {xm:.6g} outside +-{self.wealth_cap:.6g}")

    def _subgradient(
        self, basis: tuple[int, int, int], y_basis: tuple[float, float, float]
    ) -> tuple[float, float]:
        d = self.data
        vm = 0.0
        ve = 0.0
        for idx, y in zip(basis, y_basis):
            if y <= 0.0:
                continue
            if idx >= _N_STATIC:
                # cut data are stored pre-divided by the row scale, so the
                # scaled dual times them is already the unscaled product
                vm += y * self._cut_gw[idx]
                ve += y * self._cut_gel[idx]
            elif idx == _R_CAP_LO:
                ve -= y * (1.0 - d.battery.leakage) * self._static_inv[idx]
            elif idx == _R_CAP_HI:
                ve += y * (1.0 - d.battery.leakage) * self._static_inv[idx]
            elif idx in (_R_W_LO, _R_W_HI):
                raise StorageError(
                    "wealth box is binding; raise wealth_cap (state far outside "
                    "the expected operating range)"
                )
        return vm, ve

    # -- public solves -----------------------------------------------------

    def _clamp(self, x, xe: float) -> tuple[float, float]:
        """Snap LP controls into their boxes and the energy band.

        Pivot tolerances let solutions stray from the capacity band by a few
        1e-9; repairing the controls here (rather than clipping the state)
        keeps the dynamics identity exact and stops drift across stages.
        """
        b = self.data.battery
        buy = min(max(x[0], 0.0), b.max_charge)
        sell = min(max(x[1], 0.0), b.max_charge)
        nxt = (1.0 - b.leakage) * xe + b.charge_eff * buy - b.discharge_eff * sell
        if nxt < 0.0:
            sell = max(sell + nxt / b.discharge_eff, 0.0)
        elif nxt > b.capacity:
            buy = max(buy - (nxt - b.capacity) / b.charge_eff, 0.0)
        return buy, sell

    def solve(self, state: tuple[float, float]) -> LPSolution:
        """Solve the subproblem at the incoming ``state``."""
        self._sync_cuts()
        self._check_state(state)
        xm, xe = state
        m = self._m
        self._assemble_b(xm, xe, m)
        x, basis, y_basis = self._pivot(m, _OBJECTIVE)
        controls = self._clamp(x, xe)
        return LPSolution(
            controls=controls,
            value=x[2],
            subgradient=self._subgradient(basis, y_basis),
            next_state=next_state(self.data, state, controls),
        )


# -- grid, enumeration and closed-form references ----------------------------


def chain_dp(
    problem: StorageProblem,
    chain: MarkovChain,
    n_energy: int = 1025,
    n_control: int = 2049,
):
    """Backward induction for the chain problem on (energy x node) grids.

    Wealth is handled exactly through the exponential-utility factorization
    J_t(xm, xe, node) = exp(-rho*xm) * G_t(xe, node) - 1/rho with G_T = 1/rho.
    The net-control grid is augmented per energy level with the exact
    empty-the-storage / fill-the-storage breakpoints, which land on the grid
    endpoints and avoid interpolation there.  Residual grid bias makes G an
    overestimate (cost side), i.e. the returned value underestimates the
    achievable expected utility slightly.

    Returns (phi_root, G) where G[t][j] is the stage-t array over the energy
    grid and phi_root = -J_0(x0m, 0, root).
    """
    model, battery, utility = problem.price_model, problem.battery, problem.utility
    rho = utility.risk_aversion
    T = chain.horizon
    cap, cp, cm = battery.capacity, battery.charge_eff, battery.discharge_eff
    leak = 1.0 - battery.leakage
    e_grid = np.linspace(0.0, cap, n_energy)
    u = np.concatenate(
        [
            np.linspace(-battery.max_discharge, 0.0, n_control // 2 + 1),
            np.linspace(0.0, battery.max_charge, n_control // 2 + 1)[1:],
        ]
    )
    charge = np.where(u >= 0, cp * u, cm * u)
    G = [None] * (T + 1)
    G[T] = [np.full(n_energy, 1.0 / rho) for _ in range(chain.node_count(T))]
    for t in range(T, 0, -1):
        level = []
        for i in range(chain.node_count(t)):
            bid, ask = bid_ask(model, t, float(chain.nodes[t][i]))
            cost = np.where(u >= 0, ask * u, bid * u)
            factor = np.exp(rho * cost)
            Gn = G[t][i]
            nxt = leak * e_grid[:, None] + charge[None, :]
            ok = (nxt >= -1e-12) & (nxt <= cap + 1e-12)
            vals = np.where(
                ok, factor[None, :] * np.interp(np.clip(nxt, 0.0, cap), e_grid, Gn), np.inf
            )
            best = vals.min(axis=1)
            u_empty = np.maximum(-leak * e_grid / cm, -battery.max_discharge)
            v_empty = np.where(
                -leak * e_grid / cm >= -battery.max_discharge - 1e-15,
                np.exp(rho * bid * u_empty) * Gn[0],
                np.inf,
            )
            u_fill = np.minimum((cap - leak * e_grid) / cp, battery.max_charge)
            v_fill = np.where(
                (cap - leak * e_grid) / cp <= battery.max_charge + 1e-15,
                np.exp(rho * ask * u_fill) * Gn[-1],
                np.inf,
            )
            level.append(np.minimum(best, np.minimum(v_empty, v_fill)))
        P = chain.transitions[t - 1]
        G[t - 1] = [
            sum(P[j, i] * level[i] for i in range(chain.node_count(t)))
            for j in range(chain.node_count(t - 1))
        ]
    x0m = utility.initial_wealth
    phi = 1.0 / rho - float(np.exp(-rho * x0m) * G[0][0][0])
    return phi, G


def chain_dp_ce(
    problem: StorageProblem,
    chain: MarkovChain,
    n_energy: int = 1025,
    n_control: int = 2049,
):
    """`chain_dp` in the cash-additive form, for risk aversions where it overflows.

    Backward induction on the certainty equivalent of the remaining trading,
    C_t(xe, node), with C_T = 0.  Once the prices of node i are seen,
    W_i(xe) = max_u [-cost_i(u) + C_t(xe'(xe, u), i)]; before that,
    C_{t-1}(xe, j) = -(1/rho) log sum_i P[j, i] exp(-rho W_i(xe)), evaluated
    around the smallest W_i with P[j, i] > 0, so no exponential overflows.
    Grids and breakpoints are `chain_dp`'s.  Linear interpolation
    underestimates the concave C, so the root value underestimates the
    exact certainty equivalent slightly.

    Returns (ce_root, C) where C[t][j] is the stage-t array over the energy
    grid and ce_root = C_0(0, root), the indifference price of the storage.
    """
    model, battery = problem.price_model, problem.battery
    rho = problem.utility.risk_aversion
    T = chain.horizon
    cap, cp, cm = battery.capacity, battery.charge_eff, battery.discharge_eff
    leak = 1.0 - battery.leakage
    e_grid = np.linspace(0.0, cap, n_energy)
    u = np.concatenate(
        [
            np.linspace(-battery.max_discharge, 0.0, n_control // 2 + 1),
            np.linspace(0.0, battery.max_charge, n_control // 2 + 1)[1:],
        ]
    )
    charge = np.where(u >= 0, cp * u, cm * u)
    C = [None] * (T + 1)
    C[T] = [np.zeros(n_energy) for _ in range(chain.node_count(T))]
    for t in range(T, 0, -1):
        level = []
        for i in range(chain.node_count(t)):
            bid, ask = bid_ask(model, t, float(chain.nodes[t][i]))
            gain = -np.where(u >= 0, ask * u, bid * u)
            Cn = C[t][i]
            nxt = leak * e_grid[:, None] + charge[None, :]
            ok = (nxt >= -1e-12) & (nxt <= cap + 1e-12)
            vals = np.where(
                ok, gain[None, :] + np.interp(np.clip(nxt, 0.0, cap), e_grid, Cn), -np.inf
            )
            best = vals.max(axis=1)
            u_empty = np.maximum(-leak * e_grid / cm, -battery.max_discharge)
            v_empty = np.where(
                -leak * e_grid / cm >= -battery.max_discharge - 1e-15,
                -bid * u_empty + Cn[0],
                -np.inf,
            )
            u_fill = np.minimum((cap - leak * e_grid) / cp, battery.max_charge)
            v_fill = np.where(
                (cap - leak * e_grid) / cp <= battery.max_charge + 1e-15,
                -ask * u_fill + Cn[-1],
                -np.inf,
            )
            level.append(np.maximum(best, np.maximum(v_empty, v_fill)))
        W = np.array(level)
        P = chain.transitions[t - 1]
        C[t - 1] = []
        for j in range(chain.node_count(t - 1)):
            low = W[P[j] > 0.0].min(axis=0)
            C[t - 1].append(low - np.log(P[j] @ np.exp(-rho * (W - low))) / rho)
    return float(C[0][0][0]), C


def dp_cost_to_go(G, e_grid_cap: float, rho: float, t: int, node: int, xm: float, xe: float):
    """The cash-additive cost-to-go -(xm + CE_t(xe, node)) from `chain_dp` output.

    ``exp(-rho * CE) = rho * G``, so ``-(xm + CE) = -xm + ln(rho * G) / rho``;
    the logarithm keeps `chain_dp`'s overestimate on the cost side.
    """
    Gn = G[t][node]
    e_grid = np.linspace(0.0, e_grid_cap, len(Gn))
    return float(-xm + np.log(rho * np.interp(xe, e_grid, Gn)) / rho)


def enumerate_node_paths(chain: MarkovChain):
    """All node paths (j_1..j_T) with their probabilities."""
    T = chain.horizon
    counts = [chain.node_count(t) for t in range(1, T + 1)]
    for path in itertools.product(*(range(c) for c in counts)):
        prob = chain.transitions[0][0][path[0]]
        for t in range(1, T):
            prob *= chain.transitions[t][path[t - 1]][path[t]]
        yield path, float(prob)


def policy_chain_value(policy: Policy) -> float:
    """Exact expected utility of a trained policy on its own chain."""
    utility = policy.problem.utility
    rho = utility.risk_aversion
    total = 0.0
    for path, prob in enumerate_node_paths(policy.chain):
        state = (utility.initial_wealth, 0.0)
        for t in range(1, policy.horizon + 1):
            sub = policy.subproblem(t, path[t - 1])
            state = next_state(sub.data, state, sub.solve(state).controls)
        total += prob * (1.0 - np.exp(-rho * state[0])) / rho
    return total


def feedback_policy_value(policy_fn, problem, chain) -> float:
    """Exact expected utility of an arbitrary feasible feedback rule.

    ``policy_fn(t, node, state) -> (buy, sell)`` must return box-feasible
    controls keeping the energy in [0, capacity].
    """
    utility = problem.utility
    rho = utility.risk_aversion
    model, battery = problem.price_model, problem.battery
    total = 0.0
    for path, prob in enumerate_node_paths(chain):
        state = (utility.initial_wealth, 0.0)
        for t in range(1, chain.horizon + 1):
            buy, sell = policy_fn(t, path[t - 1], state)
            bid, ask = bid_ask(model, t, float(chain.nodes[t][path[t - 1]]))
            xm = state[0] - ask * buy + bid * sell
            xe = (1 - battery.leakage) * state[1] + battery.charge_eff * buy - battery.discharge_eff * sell
            assert -1e-9 <= xe <= battery.capacity + 1e-9, "oracle policy infeasible"
            state = (xm, xe)
        total += prob * (1.0 - np.exp(-rho * state[0])) / rho
    return total


def next_state(
    data: StageData, state: tuple[float, float], controls: tuple[float, float]
) -> tuple[float, float]:
    """The stage dynamics: ``(wealth, energy)`` after ``controls = (buy, sell)`` from ``state``."""
    xm, xe = state
    buy, sell = controls
    b = data.battery
    return (
        xm - data.ask * buy + data.bid * sell,
        (1.0 - b.leakage) * xe + b.charge_eff * buy - b.discharge_eff * sell,
    )


def stage_objective(data, cuts, state, buy: float, sell: float, problem=None) -> float:
    """Polyhedral stage objective at given controls (max of cuts and floor).

    The floor is `lp_wealth_bounds` of ``problem``.
    """
    xm, xe = next_state(data, state, (buy, sell))
    val = lp_wealth_bounds(problem)[1]
    for c in cuts:
        val = max(val, c.intercept + c.grad_wealth * xm + c.grad_energy * xe)
    return val


def grid_stage_minimum(data, cuts, state, n: int = 201, zoom: int = 3, problem=None):
    """Brute-force minimum of the stage objective over a control grid.

    Vectorized evaluation with ``zoom`` rounds of local grid refinement
    around the incumbent, so the returned value is accurate to roughly
    (box width / n**zoom) times the objective slope.  Returns
    (value, (buy, sell)); grid points outside the capacity box are skipped.
    The objective's floor is `lp_wealth_bounds` of ``problem``.
    """
    floor = lp_wealth_bounds(problem)[1]
    xm0, xe0 = state
    battery = data.battery
    leak = 1.0 - battery.leakage
    cp, cm, cap, u_max = (
        battery.charge_eff, battery.discharge_eff, battery.capacity, battery.max_charge
    )
    a = np.array([c.intercept for c in cuts])
    gw = np.array([c.grad_wealth for c in cuts])
    ge = np.array([c.grad_energy for c in cuts])

    def value_at(B, K):
        xm = xm0 - data.ask * B + data.bid * K
        xe = leak * xe0 + cp * B - cm * K
        ok = (xe >= -1e-9) & (xe <= cap + 1e-9)
        vals = np.full(B.shape, floor)
        if len(cuts):
            stacked = a[:, None] + gw[:, None] * xm.ravel() + ge[:, None] * xe.ravel()
            vals = np.maximum(vals, stacked.max(axis=0).reshape(B.shape))
        return np.where(ok, vals, np.inf)

    def candidates(b_lo, b_hi, k_lo, k_hi):
        buys = np.linspace(b_lo, b_hi, n)
        sells = np.linspace(k_lo, k_hi, n)
        B, K = np.meshgrid(buys, sells, indexing="ij")
        # per buy, the sells putting next energy exactly at 0 / capacity
        for target in (0.0, cap):
            k_edge = (leak * xe0 + cp * buys - target) / cm
            k_edge = np.clip(k_edge, 0.0, u_max)
            B = np.concatenate([B, buys[:, None]], axis=1)
            K = np.concatenate([K, k_edge[:, None]], axis=1)
        return B, K, buys[1] - buys[0], sells[1] - sells[0]

    b_lo, b_hi = 0.0, u_max
    k_lo, k_hi = 0.0, u_max
    best, b_star, k_star = np.inf, 0.0, 0.0
    for _ in range(zoom):
        B, K, db, dk = candidates(b_lo, b_hi, k_lo, k_hi)
        vals = value_at(B, K)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[idx] < best:
            best, b_star, k_star = float(vals[idx]), float(B[idx]), float(K[idx])
        b_lo = max(0.0, b_star - 2 * db)
        b_hi = min(u_max, b_star + 2 * db)
        k_lo = max(0.0, k_star - 2 * dk)
        k_hi = min(u_max, k_star + 2 * dk)
    return best, (b_star, k_star)


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


def random_relaxed_trajectory(rng, battery, prices, x0m: float):
    """A random feasible trajectory of the two-control relaxation."""
    T = len(prices)
    leak = 1.0 - battery.leakage
    wealth = [x0m]
    energy = [0.0]
    buys = []
    sells = []
    for t in range(T):
        bid, ask = prices[t]
        e = energy[-1]
        for _ in range(50):
            b = rng.uniform(0.0, battery.max_charge)
            k = rng.uniform(0.0, battery.max_discharge)
            nxt = leak * e + battery.charge_eff * b - battery.discharge_eff * k
            if 0.0 <= nxt <= battery.capacity:
                break
        else:
            b = k = 0.0
            nxt = leak * e
        buys.append(b)
        sells.append(k)
        wealth.append(wealth[-1] - ask * b + bid * k)
        energy.append(nxt)
    return RelaxedTrajectory(
        wealth=np.array(wealth), energy=np.array(energy), buy=np.array(buys), sell=np.array(sells)
    )


def _simulate_one(
    policy: Policy, deviations: np.ndarray, realized_prices: bool
) -> tuple[float, float]:
    """Run one scenario; returns (terminal wealth, utility).

    With ``realized_prices`` the stage dynamics use the scenario's own
    bid/ask and the nearest node's cuts; otherwise the deviations are node
    values and the policy's node subproblems are used directly.
    """
    problem = policy.problem
    model = problem.price_model
    battery = problem.battery
    utility = problem.utility
    T = policy.horizon
    state = (utility.initial_wealth, 0.0)
    traded = 0.0
    for t in range(1, T + 1):
        xi = float(deviations[t - 1])
        node = nearest_node(policy.chain, t, xi)
        if realized_prices:
            data = stage_data_for(model, battery, t, xi)
            cutset = zero_cut_set(battery.capacity) if t == T else policy.pools.get(t, node)
            sub = NodeSubproblem(data, cutset)
        else:
            sub = policy.subproblem(t, node)
            data = sub.data
        sol = sub.solve(state)
        buy, sell = sol.controls
        if not (
            -_FEAS_TOL <= buy <= battery.max_charge + _FEAS_TOL
            and -_FEAS_TOL <= sell <= battery.max_charge + _FEAS_TOL
        ):
            raise AssertionError(f"control outside box at stage {t}")
        state = sol.next_state
        if not -_FEAS_TOL <= state[1] <= battery.capacity + _FEAS_TOL:
            raise AssertionError(f"energy outside [0, capacity] at stage {t}")
        traded += data.ask * buy - data.bid * sell
    wealth = state[0]
    if abs(wealth - (utility.initial_wealth - traded)) > 1e-9 * max(1.0, abs(wealth)):
        raise AssertionError("wealth accounting identity violated")
    return wealth, -terminal_cost(utility, wealth)


def _node_path_deviations(policy: Policy, seed: int) -> np.ndarray:
    """Draw one node path from the chain; return its deviation values."""
    chain = policy.chain
    rng = np.random.default_rng(seed)
    draws = rng.random(chain.horizon)
    out = np.empty(chain.horizon)
    j = 0
    for t in range(chain.horizon):
        row = np.cumsum(chain.transitions[t][j])
        j = min(int(np.searchsorted(row, draws[t])), chain.node_count(t + 1) - 1)
        out[t] = chain.nodes[t + 1][j]
    return out


def _deviation_path(model, horizon: int, seed: int) -> np.ndarray:
    """One AR(1) deviation path, a scalar recursion on ``default_rng(seed)``'s innovations."""
    eps = np.random.default_rng(seed).normal(0.0, model.innovation_std, size=horizon)
    path = np.empty(horizon)
    xi = model.initial_deviation
    for t in range(horizon):
        xi = model.ar_coefficient * xi + eps[t]
        path[t] = xi
    return path


def scenario_major_evaluation(policy: Policy, n_scenarios: int, rng_seed: int):
    """Scalar reference for `evaluate_out_of_sample`, one scenario at a time.

    Returns (terminal wealths, utilities, in-sample utilities) with the same
    scenario seeds: ``rng_seed ^ k`` out of sample and
    ``(rng_seed + 1_000_003) ^ k`` in sample.
    """
    model = policy.problem.price_model
    T = policy.horizon
    wealths = np.empty(n_scenarios)
    utils = np.empty(n_scenarios)
    in_sample = np.empty(n_scenarios)
    for k in range(n_scenarios):
        xi = _deviation_path(model, T, rng_seed ^ k)
        wealths[k], utils[k] = _simulate_one(policy, xi, realized_prices=True)
    for k in range(n_scenarios):
        xi = _node_path_deviations(policy, (rng_seed + 1_000_003) ^ k)
        _, in_sample[k] = _simulate_one(policy, xi, realized_prices=False)
    return wealths, utils, in_sample


def max_wealth_controls(data, state) -> tuple[float, float]:
    """Controls maximizing next wealth over the stage's feasible polygon.

    The polygon is two-dimensional (control boxes plus the next-energy
    band), so the optimum is found by enumerating the candidate vertices.
    """
    xm, xe = state
    battery = data.battery
    E = (1.0 - battery.leakage) * xe
    B, K = battery.max_charge, battery.max_charge
    cp, cm, C = battery.charge_eff, battery.discharge_eff, battery.capacity
    cands = [(0.0, 0.0), (B, 0.0), (0.0, K), (B, K)]
    for b in (0.0, B):
        for target in (0.0, C):
            cands.append((b, (E + cp * b - target) / cm))
    for k in (0.0, K):
        for target in (0.0, C):
            cands.append(((target - E + cm * k) / cp, k))
    best = (0.0, 0.0)
    best_gain = 0.0
    for b, k in cands:
        if not (-1e-12 <= b <= B + 1e-12 and -1e-12 <= k <= K + 1e-12):
            continue
        b = min(max(b, 0.0), B)
        k = min(max(k, 0.0), K)
        nxt = E + cp * b - cm * k
        if not -1e-9 <= nxt <= C + 1e-9:
            continue
        gain = -data.ask * b + data.bid * k
        if gain > best_gain:
            best_gain = gain
            best = (b, k)
    return best


def terminal_cost_derivative(utility, wealth: float) -> float:
    """Exact derivative -exp(-rho w) of `terminal_cost`, for the tangents of `kelley_terminal`."""
    terminal_cost(utility, wealth)  # its overflow guard
    return -math.exp(-utility.risk_aversion * wealth)


def kelley_terminal(
    data, utility, state, tol: float = 1e-8, max_iter: int = 100, seed_wealth=None
):
    """Terminal stage by Kelley's cutting planes on the stage LP.

    Tangents of the exponential terminal cost are the cuts of a stage LP
    (`LPSubproblem`).  The first is taken at
    ``seed_wealth``, by default the wealth of `max_wealth_controls`; each
    pass adds the tangent at the LP's next wealth, until the terminal cost
    there and the LP value agree within ``tol`` (relative once the cost
    exceeds one).  Returns (last `LPSolution`, gap per pass).
    """
    w = seed_wealth
    if w is None:
        buy, sell = max_wealth_controls(data, state)
        w = state[0] - data.ask * buy + data.bid * sell
    cuts = []
    sub = LPSubproblem(data, cuts)
    gaps = []
    for _ in range(max_iter):
        slope = terminal_cost_derivative(utility, w)
        cuts.append(Cut(terminal_cost(utility, w) - slope * w, slope, 0.0))
        sol = sub.solve(state)
        w = sol.next_state[0]
        f = terminal_cost(utility, w)
        gaps.append(f - sol.value)
        if gaps[-1] <= tol * max(1.0, abs(f)):
            return sol, gaps
    raise MaxIterationsError(f"terminal solve did not reach tol={tol:g} in {max_iter} passes")


def train_recording(problem: StorageProblem, chain: MarkovChain, iterations: int, seed: int):
    """`sddp.train`, recording every cut it appends to each node's `CutSet`.

    A cut set keeps only its envelope; the record keeps the full pool, seed
    cuts included, in arrival order, so that the envelopes can be checked
    against every cut training produced.  Returns ``(policy, log, cuts)``
    with ``cuts[(stage, node)]`` a list of `Cut`.
    """
    recorded: dict[CutSet, list[Cut]] = {}
    append = CutSet.append

    def recording_append(self, intercept, grad_energy):
        append(self, intercept, grad_energy)
        recorded.setdefault(self, []).append(Cut(intercept, -1.0, grad_energy))

    CutSet.append = recording_append
    try:
        policy, log = train(problem, chain, iterations, seed)
    finally:
        CutSet.append = append
    cuts = {
        (t, j): recorded[policy.pools.get(t, j)]
        for t in range(chain.horizon)
        for j in range(chain.node_count(t))
    }
    return policy, log, cuts


# -- valuation oracles -------------------------------------------------------


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
    if initial_wealth is not None:
        config = replace(config, utility=replace(config.utility, initial_wealth=initial_wealth))
    _, log = train_from_config(config)
    return log.final_bound()
