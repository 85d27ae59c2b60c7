"""One-stage subproblem solver.

Costs-to-go are in the cash-additive entropic form ``J(w, e) = -(w + CE(e))``:
minus the wealth plus the certainty equivalent of the remaining trading.
Exponential utility makes the certainty equivalent independent of wealth, so
every cut has wealth slope exactly -1.  Each stage subproblem minimizes the
polyhedral cost-to-go over the two relaxed controls after the stage's prices
are observed:

    min  theta
    s.t. theta >= intercept_c + gw_c * wealth' + ge_c * energy'   (cuts)
         0 <= buy <= u_max_charge,  0 <= sell <= u_max_discharge
         0 <= energy' <= capacity,  |wealth'| <= wealth_cap
         theta >= cost_floor(wealth_cap)                          (floor)

with wealth' and energy' affine in (buy, sell).  The LP has three variables
and many rows, so it is solved by the primal simplex on the dual: the basis
is always three active rows and every pivot is a 3x3 solve.  The entering
rule is most-violated-row with a deterministic switch to Bland's
smallest-index rule for anti-cycling; ratio ties leave by smallest basis
position.  The pivot sequence, and hence the output, is a pure function of
the inputs.  A two-level objective perturbation (1e-10 on buy, 1e-13 on
sell) selects the lexicographically smallest optimal controls.

Dual values double as state sensitivities: the subgradient of the stage value
with respect to the incoming state is the dual-weighted sum of the row
right-hand-side derivatives.

Two implementations run the same pivot rules.  `NodeSubproblem` solves one
state per call on Python floats; `solve_lanes` pivots K LPs that share one
node's cuts in lockstep on numpy arrays, each lane with its own state and,
optionally, its own bid/ask.  Training and `Policy.decide` solve one state
per subproblem, where the scalar path is about 9x faster (60 us against
570 us at K=1 on a 372-cut node of the default pool, Intel Xeon, one
thread); out-of-sample evaluation solves every scenario at a (stage, node)
at once, where the lane kernel wins.  Both give bit-identical results lane
by lane.  `solve_stage` is the Bellman stage of training's backward pass:
the entropic risk ``(1/rho) log sum_j p_j exp(rho J_j)`` of a node's
successor solves (nested entropic risk, as ``SDDP.Entropic`` in SDDP.jl).

The terminal stage needs no LP.  Its cost is minus the terminal wealth, so
the optimum is the vertex of the two-dimensional control polygon (control
boxes plus energy band) with the largest next wealth; `solve_terminal_lanes`
finds it by enumerating the candidate vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, MaxIterationsError, StorageError
from .storage import StageData

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
# cofactor k of a row-major flattened 3x3 matrix M is
# M[P1[k]] * M[P2[k]] - M[Q1[k]] * M[Q2[k]], in _solve3's order A..I
_COF_P1 = np.array([4, 2, 1, 5, 0, 2, 3, 1, 0])
_COF_P2 = np.array([8, 7, 5, 6, 8, 3, 7, 6, 4])
_COF_Q1 = np.array([5, 1, 2, 3, 2, 0, 4, 0, 1])
_COF_Q2 = np.array([7, 8, 4, 8, 6, 5, 6, 7, 3])


@dataclass(frozen=True)
class Cut:
    """Affine lower bound intercept + gw*x_m + ge*x_e on a cost-to-go."""

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

    def value(self, wealth: float, energy: float) -> float:
        return self.intercept + self.grad_wealth * wealth + self.grad_energy * energy


def cost_floor(wealth_cap: float) -> float:
    """Lower bound on every cost-to-go over the wealth box ``|w| <= wealth_cap``.

    A cost-to-go is at least its seed cut: minus the wealth, the best-case
    profit of the remaining trading and the value of the stored energy.
    `storage.wealth_box` makes the cap far larger than that profit and
    value, so twice the cap lies below every seed cut on the state box.  The
    floor keeps the stage LPs bounded before any cut binds.
    """
    return -2.0 * wealth_cap


class CutSet:
    """Append-only cut collection, stored as its coefficient arrays."""

    __slots__ = ("_a", "_gw", "_ge", "n")

    def __init__(self, cuts: list[Cut] | None = None) -> None:
        self._a = np.empty(16)
        self._gw = np.empty(16)
        self._ge = np.empty(16)
        self.n = 0
        for c in cuts or []:
            self.add(c)

    def _reserve(self, n: int) -> None:
        if n <= len(self._a):
            return
        grow = max(n, 2 * len(self._a))
        for name in ("_a", "_gw", "_ge"):
            arr = np.empty(grow)
            arr[: self.n] = getattr(self, name)[: self.n]
            setattr(self, name, arr)

    def add(self, cut: Cut) -> None:
        self._reserve(self.n + 1)
        self._a[self.n] = cut.intercept
        self._gw[self.n] = cut.grad_wealth
        self._ge[self.n] = cut.grad_energy
        self.n += 1

    def extend(self, coefs: np.ndarray) -> None:
        """Append the cuts in the rows (intercept, grad_wealth, grad_energy) of ``coefs``."""
        coefs = np.asarray(coefs, dtype=float).reshape(-1, 3)
        if not np.isfinite(coefs).all():
            raise ValueError("cut coefficients must be finite")
        lo, hi = self.n, self.n + len(coefs)
        self._reserve(hi)
        self._a[lo:hi], self._gw[lo:hi], self._ge[lo:hi] = coefs.T
        self.n = hi

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._a[: self.n], self._gw[: self.n], self._ge[: self.n]

    def value(self, wealth: float, energy: float, floor: float) -> float:
        """Pointwise max of the cuts and the floor."""
        if self.n == 0:
            return floor
        a, gw, ge = self.arrays()
        return max(floor, float(np.max(a + gw * wealth + ge * energy)))

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class NodeSolution:
    """Optimum of one successor subproblem."""

    controls: tuple[float, float]
    value: float
    subgradient: tuple[float, float]
    next_state: tuple[float, float]


@dataclass(frozen=True)
class TerminalSolution(NodeSolution):
    """Terminal-stage optimum; `gaps` is the objective/bound gap per pass.

    The closed form is exact in one pass, so `gaps` is always ``(0.0,)``.
    """

    gaps: tuple[float, ...] = (0.0,)


def _static_rows(data: StageData, ask, bid) -> list[tuple]:
    """The nine static rows (control boxes, floor, energy band, wealth box), unscaled.

    ``ask`` and ``bid`` enter the wealth-box rows only; they are the node's
    scalars or per-lane arrays.
    """
    cp, cm = data.charge_eff, data.discharge_eff
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
    right-hand-side pieces.  ``ask``/``bid`` are scalars or per-lane columns,
    which broadcast the rows to one set per lane.
    """
    c0 = gw * ask - ge * data.charge_eff
    c1 = -gw * bid + ge * data.discharge_eff
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


class NodeSubproblem:
    """LP template for one (stage, successor-node) subproblem.

    The constraint matrix depends only on the node's prices and cuts; the
    incoming state enters the right-hand side alone, so a template is built
    once per node and re-solved for many states.  Terminal subproblems build
    no LP: `solve_terminal` is closed form.
    """

    def __init__(
        self,
        data: StageData,
        cutset: CutSet | None,
        terminal: bool = False,
    ) -> None:
        if terminal == (cutset is not None):
            raise ValueError("provide a cutset, or terminal=True, not both")
        self.data = data
        self.cutset = cutset
        self.terminal = terminal
        self.floor = cost_floor(data.wealth_cap)
        if terminal:
            return
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
        cs = self.cutset
        if cs is None or self._synced == cs.n:
            return
        a, gw, ge = cs.arrays()
        lo, hi = self._synced, cs.n
        n_new = hi - lo
        d = self.data
        start = self._m
        self._ensure(start + n_new)
        sl = slice(start, start + n_new)
        c0, c1, inv = _cut_rows(d, gw[lo:hi], ge[lo:hi], d.ask, d.bid)
        self._c0[sl] = c0
        self._c1[sl] = c1
        self._c2[sl] = inv
        self._cut_a[sl] = a[lo:hi] * inv
        self._cut_gw[sl] = gw[lo:hi] * inv
        self._cut_gel[sl] = ge[lo:hi] * d.leak_factor * inv
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
        b[_R_BUY_HI] = -d.u_max_charge
        b[_R_SELL_LO] = 0.0
        b[_R_SELL_HI] = -d.u_max_discharge
        b[_R_FLOOR] = self.floor
        leak_xe = d.leak_factor * xe
        b[_R_CAP_LO] = -leak_xe
        b[_R_CAP_HI] = leak_xe - d.capacity
        b[_R_W_LO] = -d.wealth_cap - xm
        b[_R_W_HI] = xm - d.wealth_cap
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
        if not (-_STATE_TOL <= xe <= d.capacity + _STATE_TOL):
            raise InfeasibleError(f"energy state {xe:.6g} outside [0, {d.capacity:.6g}]")
        if abs(xm) > d.wealth_cap + _STATE_TOL:
            raise InfeasibleError(f"wealth state {xm:.6g} outside +-{d.wealth_cap:.6g}")

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
                ve -= y * d.leak_factor * self._static_inv[idx]
            elif idx == _R_CAP_HI:
                ve += y * d.leak_factor * self._static_inv[idx]
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
        d = self.data
        buy = min(max(x[0], 0.0), d.u_max_charge)
        sell = min(max(x[1], 0.0), d.u_max_discharge)
        nxt = d.leak_factor * xe + d.charge_eff * buy - d.discharge_eff * sell
        if nxt < 0.0:
            sell = max(sell + nxt / d.discharge_eff, 0.0)
        elif nxt > d.capacity:
            buy = max(buy - (nxt - d.capacity) / d.charge_eff, 0.0)
        return buy, sell

    def solve(self, state: tuple[float, float]) -> NodeSolution:
        """Solve the subproblem at the incoming ``state``."""
        if self.terminal:
            return self.solve_terminal(state)
        self._sync_cuts()
        self._check_state(state)
        xm, xe = state
        m = self._m
        self._assemble_b(xm, xe, m)
        x, basis, y_basis = self._pivot(m, _OBJECTIVE)
        controls = self._clamp(x, xe)
        return NodeSolution(
            controls=controls,
            value=x[2],
            subgradient=self._subgradient(basis, y_basis),
            next_state=self.data.next_state(state, controls),
        )

    def solve_terminal(self, state: tuple[float, float]) -> TerminalSolution:
        """Minimize minus the terminal wealth: `solve_terminal_lanes` at K=1."""
        if not self.terminal:
            raise ValueError("not a terminal subproblem")
        sol = solve_terminal_lanes(self.data, np.array([state[0]]), np.array([state[1]]))
        return TerminalSolution(
            controls=(float(sol.buy[0]), float(sol.sell[0])),
            value=float(sol.value[0]),
            subgradient=(float(sol.grad_wealth[0]), float(sol.grad_energy[0])),
            next_state=(float(sol.next_wealth[0]), float(sol.next_energy[0])),
        )


@dataclass(frozen=True)
class LaneSolution:
    """Per-lane optima of `solve_lanes`; every field has one entry per lane."""

    buy: np.ndarray
    sell: np.ndarray
    value: np.ndarray
    grad_wealth: np.ndarray
    grad_energy: np.ndarray
    next_wealth: np.ndarray
    next_energy: np.ndarray


def solve_lanes(
    data: StageData,
    cutset: CutSet,
    wealth: np.ndarray,
    energy: np.ndarray,
    ask: np.ndarray | None = None,
    bid: np.ndarray | None = None,
) -> LaneSolution:
    """Solve K subproblems of one node in lockstep, one per incoming state.

    Lane k is the LP that ``NodeSubproblem(data', cutset)`` solves at
    ``(wealth[k], energy[k])``, where ``data'`` is ``data`` with its bid/ask
    replaced by ``bid[k]``/``ask[k]`` when those are given.  The pivot rules,
    row scaling, tolerances and objective perturbation are the scalar
    solver's, applied per lane, with every floating-point expression
    evaluated in the same order; a lane leaves the loop when it is optimal,
    so every output equals the scalar solve bit for bit.  Errors are the
    scalar solver's: `InfeasibleError` for a state outside its box or an
    infeasible LP, `StorageError` for a singular basis or a binding wealth
    box, and `MaxIterationsError` when a lane exhausts the pivot budget.
    """
    d = data
    xm = np.asarray(wealth, dtype=float)
    xe = np.asarray(energy, dtype=float)
    K = xm.size
    if ask is None:
        # every lane sees the node's prices: one shared set of rows
        ask_l = np.full(1, d.ask)
        bid_l = np.full(1, d.bid)
    else:
        ask_l = np.asarray(ask, dtype=float)
        bid_l = np.asarray(bid, dtype=float)
    _check_lane_states(d, xm, xe)

    # unit-scaled rows: coef[q] is (R, m), R = 1 (shared) or K (own prices)
    a, gw, ge = cutset.arrays()
    n = a.size
    m = _N_STATIC + n
    R = ask_l.size
    static = np.empty((3, R, _N_STATIC))
    for i, row in enumerate(_static_rows(d, ask_l, bid_l)):
        for q in range(3):
            static[q, :, i] = row[q]
    static_inv = 1.0 / np.maximum(
        np.maximum(1.0, np.abs(static[0])), np.maximum(np.abs(static[1]), np.abs(static[2]))
    )
    coef = np.empty((3, R, m))
    np.multiply(static, static_inv, out=coef[:, :, :_N_STATIC])
    for q, part in enumerate(_cut_rows(d, gw, ge, ask_l[:, None], bid_l[:, None])):
        coef[q, :, _N_STATIC:] = part
    cut_inv = coef[2, :, _N_STATIC:]
    ge_leak = ge * d.leak_factor

    # right-hand sides, one row per lane (as _assemble_b)
    rhs = np.empty((K, m))
    leak_xe = d.leak_factor * xe
    rhs[:, _R_BUY_LO] = 0.0
    rhs[:, _R_BUY_HI] = -d.u_max_charge
    rhs[:, _R_SELL_LO] = 0.0
    rhs[:, _R_SELL_HI] = -d.u_max_discharge
    rhs[:, _R_FLOOR] = cost_floor(d.wealth_cap)
    rhs[:, _R_CAP_LO] = -leak_xe
    rhs[:, _R_CAP_HI] = leak_xe - d.capacity
    rhs[:, _R_W_LO] = -d.wealth_cap - xm
    rhs[:, _R_W_HI] = xm - d.wealth_cap
    rhs[:, :_N_STATIC] *= static_inv
    if n:
        cut_rhs = rhs[:, _N_STATIC:]
        np.multiply(gw * cut_inv, xm[:, None], out=cut_rhs)
        cut_rhs += (ge_leak * cut_inv) * xe[:, None]
        cut_rhs += a * cut_inv

    x_out = np.empty((K, 3))
    basis_out = np.empty((K, 3), dtype=np.intp)
    y_out = np.empty((K, 3))
    lanes = np.arange(K)  # lanes still pivoting
    basis = np.tile(np.array(_START_BASIS, dtype=np.intp), (K, 1))
    row_of = np.arange(K) if R > 1 else np.zeros(K, dtype=np.intp)
    work = coef  # rows of the pivoting lanes (shared rows are never compacted)
    b = rhs
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(_MAX_PIVOTS):
            if not lanes.size:
                break
            L = np.arange(lanes.size)
            # M[k] is A_W^T flattened row-major: M[k, 3q + p] = component q of basis row p
            M = work[:, row_of[:, None], basis].transpose(1, 0, 2).reshape(-1, 9)
            cof = M[:, _COF_P1] * M[:, _COF_P2] - M[:, _COF_Q1] * M[:, _COF_Q2]
            det = M[:, 0] * cof[:, 0] + M[:, 1] * cof[:, 3] + M[:, 2] * cof[:, 6]
            if np.any(det == 0.0):
                raise StorageError("singular stage-LP basis")
            inv = (1.0 / det)[:, None]
            adj = cof.reshape(-1, 3, 3)  # adj[k, r] = (A, B, C), (D, E, F), (G, H, I)
            # multipliers solve A_W^T y = c; primal point solves A_W x = b_W
            c0v, c1v, c2v = _OBJECTIVE
            y = (adj[:, :, 0] * c0v + adj[:, :, 1] * c1v + adj[:, :, 2] * c2v) * inv
            bw = b[L[:, None], basis]
            x = (adj[:, 0] * bw[:, 0:1] + adj[:, 1] * bw[:, 1:2] + adj[:, 2] * bw[:, 2:3]) * inv
            slack = work[0] * x[:, 0:1]
            slack += work[1] * x[:, 1:2]
            slack += work[2] * x[:, 2:3]
            slack -= b
            minv_max = np.abs(cof).max(axis=1) * np.abs(inv[:, 0])
            x_err = 64.0 * 2.3e-16 * minv_max * np.maximum(np.abs(bw).max(axis=1), 1.0)
            thresh = -(_PIVOT_TOL + x_err)
            if it < _BLAND_AFTER:
                j = slack.argmin(axis=1)  # most violated row enters
            else:
                j = (slack < thresh[:, None]).argmax(axis=1)  # Bland: smallest index
            done = slack[L, j] >= thresh
            if np.any(done):
                idx = lanes[done]
                x_out[idx], basis_out[idx], y_out[idx] = x[done], basis[done], y[done]
                keep = ~done
                lanes, basis, row_of, b = lanes[keep], basis[keep], row_of[keep], b[keep]
                adj, inv, y, j = adj[keep], inv[keep], y[keep], j[keep]
                if R > 1:
                    work = work[:, keep]
                    row_of = np.arange(lanes.size)
            aj = work[:, row_of, j].T[:, None, :]
            u = adj[:, :, 0] * aj[..., 0] + adj[:, :, 1] * aj[..., 1] + adj[:, :, 2] * aj[..., 2]
            u *= inv
            ratio = y / u
            leave = _ratio_leave(u, ratio, _PIVOT_TOL)
            # rows normalized against large cut gradients can have legitimately
            # tiny pivot elements; accept an exactly positive one (a huge but
            # finite step) before giving up
            stuck = leave < 0
            if np.any(stuck):
                leave = np.where(stuck, _ratio_leave(u, ratio, 0.0), leave)
                if np.any(leave < 0):
                    raise InfeasibleError("stage subproblem infeasible")
            basis[np.arange(lanes.size), leave] = j
        else:
            raise MaxIterationsError("stage LP exceeded pivot budget")

    # subgradient: dual-weighted right-hand-side derivatives (as _subgradient)
    row_of = np.arange(K) if R > 1 else np.zeros(K, dtype=np.intp)
    vm = np.zeros(K)
    ve = np.zeros(K)
    leak = d.leak_factor
    for p in range(3):
        idx = basis_out[:, p]
        y = y_out[:, p]
        pos = y > 0.0
        if np.any(pos & ((idx == _R_W_LO) | (idx == _R_W_HI))):
            raise StorageError(
                "wealth box is binding; raise wealth_cap (state far outside "
                "the expected operating range)"
            )
        is_cut = pos & (idx >= _N_STATIC)
        if n:
            ci = np.maximum(idx - _N_STATIC, 0)
            inv_at = cut_inv[row_of, ci]
            vm = vm + np.where(is_cut, y * (gw[ci] * inv_at), 0.0)
            cut_term = y * (ge_leak[ci] * inv_at)
        else:
            cut_term = 0.0
        cap_term = y * leak * static_inv[row_of, np.minimum(idx, _N_STATIC - 1)]
        ve = ve + np.where(
            is_cut,
            cut_term,
            np.where(
                pos & (idx == _R_CAP_LO),
                -cap_term,
                np.where(pos & (idx == _R_CAP_HI), cap_term, 0.0),
            ),
        )

    buy, sell = _clamp_lanes(d, x_out[:, :2].T, xe)
    return LaneSolution(
        buy=buy,
        sell=sell,
        value=x_out[:, 2],
        grad_wealth=vm,
        grad_energy=ve,
        next_wealth=xm - ask_l * buy + bid_l * sell,
        next_energy=leak * xe + d.charge_eff * buy - d.discharge_eff * sell,
    )


def _check_lane_states(d: StageData, xm: np.ndarray, xe: np.ndarray) -> None:
    if not ((-_STATE_TOL <= xe) & (xe <= d.capacity + _STATE_TOL)).all():
        raise InfeasibleError(f"energy state outside [0, {d.capacity:.6g}]")
    if (np.abs(xm) > d.wealth_cap + _STATE_TOL).any():
        raise InfeasibleError(f"wealth state outside +-{d.wealth_cap:.6g}")


def _clamp_lanes(d: StageData, x: np.ndarray, xe: np.ndarray):
    """Snap per-lane controls ``x = (buys, sells)`` into their boxes and the energy band.

    As `NodeSubproblem._clamp`, lane by lane; where() reproduces min/max
    exactly, signed zeros included.  Returns (buy, sell).
    """
    x = np.where(0.0 > x, 0.0, x)
    box = np.array([[d.u_max_charge], [d.u_max_discharge]])
    buy, sell = np.where(box < x, box, x)
    nxt = d.leak_factor * xe + d.charge_eff * buy - d.discharge_eff * sell
    low = nxt < 0.0
    high = ~low & (nxt > d.capacity)
    if low.any():
        s_fix = sell + nxt / d.discharge_eff
        sell = np.where(low, np.where(0.0 > s_fix, 0.0, s_fix), sell)
    if high.any():
        b_fix = buy - (nxt - d.capacity) / d.charge_eff
        buy = np.where(high, np.where(0.0 > b_fix, 0.0, b_fix), buy)
    return buy, sell


def _ratio_leave(u: np.ndarray, ratio: np.ndarray, tol: float) -> np.ndarray:
    """Leaving basis position per lane (-1 if none), as in `NodeSubproblem._pivot`.

    Among positions with a pivot element above ``tol``, the smallest ratio
    leaves; ties keep the smaller position.
    """
    leave = np.where(u[:, 0] > tol, 0, -1)
    best = ratio[:, 0]
    for p in (1, 2):
        take = (u[:, p] > tol) & ((leave < 0) | (ratio[:, p] < best))
        leave = np.where(take, p, leave)
        best = np.where(take, ratio[:, p], best)
    return leave


def solve_terminal_lanes(
    data: StageData,
    wealth: np.ndarray,
    energy: np.ndarray,
    ask: np.ndarray | None = None,
    bid: np.ndarray | None = None,
) -> LaneSolution:
    """Solve K terminal subproblems of one node in closed form.

    Lane k starts from ``(wealth[k], energy[k])`` and trades at
    ``bid[k]``/``ask[k]`` when those are given, else at the node's prices.
    The terminal cost is minus the terminal wealth, so the optimal controls
    are the vertex of the control polygon (control boxes plus the energy
    band) with the largest next wealth w*.  The candidate vertices are
    enumerated in a fixed order and the first strict maximum of the wealth
    gain wins, starting from (0, 0) at gain 0; the controls are then clamped
    as in `solve_lanes`.  The value is ``-w*`` and the subgradient
    ``(-1, -leak * g)``, where g is the marginal wealth of stored energy at
    the vertex: ``bid/c-`` where the empty-battery band binds, the sell box
    does not and the bid is positive, ``ask/c+`` where the full-battery band
    binds, the buy box does not and the ask is negative, and 0 otherwise.
    Every operation is elementwise, so lane k equals a K=1 call bit for bit.
    Raises `InfeasibleError` for a state outside its box and `StorageError`
    when the optimum leaves the wealth box.
    """
    d = data
    xm = np.asarray(wealth, dtype=float)
    xe = np.asarray(energy, dtype=float)
    if ask is None:
        ask_l = ask_c = d.ask
        bid_l = bid_c = d.bid
    else:
        ask_l = np.asarray(ask, dtype=float)
        bid_l = np.asarray(bid, dtype=float)
        ask_c, bid_c = ask_l[:, None], bid_l[:, None]
    _check_lane_states(d, xm, xe)
    K = xe.size
    B, S = d.u_max_charge, d.u_max_discharge
    cp, cm, C = d.charge_eff, d.discharge_eff, d.capacity
    E = d.leak_factor * xe[:, None]
    # candidate vertices (buy, sell), one column each: the four box corners,
    # then per buy bound the sells, and per sell bound the buys, that put the
    # next energy at 0 or at capacity
    cand = np.empty((2, K, 12))
    cand_b = cand[0]
    cand_s = cand[1]
    cand_b[:, :8] = (0.0, B, 0.0, B, 0.0, 0.0, B, B)
    cand_s[:, :4] = (0.0, 0.0, S, S)
    cand_s[:, 8:] = (0.0, 0.0, S, S)
    target = np.array((0.0, C, 0.0, C))
    cand_s[:, 4:8] = (E + cp * cand_b[:, 4:8] - target) / cm
    cand_b[:, 8:] = (target - E + cm * cand_s[:, 8:]) / cp
    box = np.array((B, S))[:, None, None]
    feasible = ((-1e-12 <= cand) & (cand <= box + 1e-12)).all(axis=0)
    np.minimum(np.maximum(cand, 0.0, out=cand), box, out=cand)
    nxt = E + cp * cand_b - cm * cand_s
    feasible &= (-1e-9 <= nxt) & (nxt <= C + 1e-9)
    gain = np.where(feasible, -ask_c * cand_b + bid_c * cand_s, -np.inf)
    # column 0, (0, 0) at gain 0, is always feasible: argmax keeps it unless
    # some gain is positive, and otherwise returns the first largest
    best = gain.argmax(axis=1)
    buy, sell = _clamp_lanes(d, cand[:, np.arange(K), best], xe)

    next_wealth = xm - ask_l * buy + bid_l * sell
    next_energy = d.leak_factor * xe + cp * buy - cm * sell
    if (np.abs(next_wealth) > d.wealth_cap).any():
        raise StorageError(
            "wealth box is binding; raise wealth_cap (state far outside "
            "the expected operating range)"
        )
    empty = (next_energy <= _STATE_TOL) & (sell < S) & (bid_l > 0.0)
    full = (next_energy >= C - _STATE_TOL) & (buy < B) & (ask_l < 0.0)
    g = empty * (bid_l / cm) + full * (ask_l / cp)
    return LaneSolution(
        buy=buy,
        sell=sell,
        value=-next_wealth,
        grad_wealth=np.full(K, -1.0),
        grad_energy=-(d.leak_factor * g),
        next_wealth=next_wealth,
        next_energy=next_energy,
    )


def solve_stage(
    state: tuple[float, float],
    subproblems: list[NodeSubproblem],
    transition_row: np.ndarray,
    risk_aversion: float,
) -> tuple[float, tuple[float, float]]:
    """Solve one Bellman stage: entropic risk over the successor subproblems.

    Prices are observed before the stage control is chosen, so successor
    node i has its own deterministic subproblem ``subproblems[i]`` (terminal
    ones solve in closed form).  The stage value is
    ``(1/rho) log sum_i p_i exp(rho J_i)``, evaluated around the largest
    successor value ``m`` as ``m + log(sum_i p_i exp(rho (J_i - m))) / rho``.
    Its energy subgradient is the successors' energy subgradients averaged
    with the weights ``q_i ∝ p_i exp(rho J_i)``; its wealth subgradient is
    -1 exactly, as for every cost-to-go.  Successors with probability 0 are
    not solved.  Returns ``(value, (-1.0, grad_energy))``.
    """
    # Python floats: scalar arithmetic on them is faster than on numpy
    # scalars and rounds identically
    probs = np.asarray(transition_row, dtype=float).tolist()
    if len(subproblems) != len(probs):
        raise ValueError("need one subproblem per transition_row entry")
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError("transition_row must sum to 1")
    if not risk_aversion > 0.0:
        raise ValueError("risk_aversion must be > 0")
    sols = [(p, sub.solve(state)) for p, sub in zip(probs, subproblems) if p > 0.0]
    top = max(sol.value for _, sol in sols)
    weights = [p * math.exp(risk_aversion * (sol.value - top)) for p, sol in sols]
    total = sum(weights)
    value = top + math.log(total) / risk_aversion
    ve = sum(q * sol.subgradient[1] for q, (_, sol) in zip(weights, sols)) / total
    return value, (-1.0, ve)
