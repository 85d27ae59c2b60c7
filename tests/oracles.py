"""Independent reference computations used to verify the solver stack.

Nothing here touches the cut/LP machinery: values come from grid dynamic
programming, exhaustive enumeration, or closed forms, so agreement with the
package is meaningful evidence.  The exceptions are `scenario_major_evaluation`,
the scenario-by-scenario loop over scalar `NodeSubproblem` solves that
`evaluate_out_of_sample` ran before its stage-major lane batches, which is
the reference those batches must reproduce bit for bit, and
`kelley_terminal`, the cutting-plane loop the terminal stage ran before its
closed form.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from storagesddp import bid_ask
from storagesddp.discretization import MarkovChain, nearest_node
from storagesddp.price_model import simulate_deviation_path
from storagesddp.sddp import Policy, StorageProblem
from storagesddp.errors import MaxIterationsError
from storagesddp.stage_solver import Cut, CutSet, NodeSubproblem
from storagesddp.storage import stage_data_for, terminal_cost

_FEAS_TOL = 1e-9


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
            controls = policy.decide(t, path[t - 1], state)
            state = policy.stage_data(t, path[t - 1]).next_state(state, controls)
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


def stage_objective(data, cuts, floor: float, state, buy: float, sell: float) -> float:
    """Polyhedral stage objective at given controls (max of cuts and floor)."""
    xm, xe = data.next_state(state, (buy, sell))
    val = floor
    for c in cuts:
        val = max(val, c.intercept + c.grad_wealth * xm + c.grad_energy * xe)
    return val


def grid_stage_minimum(data, cuts, floor: float, state, n: int = 201, zoom: int = 3):
    """Brute-force minimum of the stage objective over a control grid.

    Vectorized evaluation with ``zoom`` rounds of local grid refinement
    around the incumbent, so the returned value is accurate to roughly
    (box width / n**zoom) times the objective slope.  Returns
    (value, (buy, sell)); grid points outside the capacity box are skipped.
    """
    xm0, xe0 = state
    leak = data.leak_factor
    a = np.array([c.intercept for c in cuts])
    gw = np.array([c.grad_wealth for c in cuts])
    ge = np.array([c.grad_energy for c in cuts])

    def value_at(B, K):
        xm = xm0 - data.ask * B + data.bid * K
        xe = leak * xe0 + data.charge_eff * B - data.discharge_eff * K
        ok = (xe >= -1e-9) & (xe <= data.capacity + 1e-9)
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
        for target in (0.0, data.capacity):
            k_edge = (leak * xe0 + data.charge_eff * buys - target) / data.discharge_eff
            k_edge = np.clip(k_edge, 0.0, data.u_max_discharge)
            B = np.concatenate([B, buys[:, None]], axis=1)
            K = np.concatenate([K, k_edge[:, None]], axis=1)
        return B, K, buys[1] - buys[0], sells[1] - sells[0]

    b_lo, b_hi = 0.0, data.u_max_charge
    k_lo, k_hi = 0.0, data.u_max_discharge
    best, b_star, k_star = np.inf, 0.0, 0.0
    for _ in range(zoom):
        B, K, db, dk = candidates(b_lo, b_hi, k_lo, k_hi)
        vals = value_at(B, K)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[idx] < best:
            best, b_star, k_star = float(vals[idx]), float(B[idx]), float(K[idx])
        b_lo = max(0.0, b_star - 2 * db)
        b_hi = min(data.u_max_charge, b_star + 2 * db)
        k_lo = max(0.0, k_star - 2 * dk)
        k_hi = min(data.u_max_discharge, k_star + 2 * dk)
    return best, (b_star, k_star)


def random_relaxed_trajectory(rng, battery, prices, x0m: float):
    """A random feasible trajectory of the two-control relaxation."""
    import storagesddp as s

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
    return s.RelaxedTrajectory(
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
            data = stage_data_for(
                model, battery, t, xi, node=node, wealth_cap=policy.wealth_cap
            )
            if t == T:
                sub = NodeSubproblem(data, cutset=None, terminal=True)
            else:
                sub = NodeSubproblem(data, cutset=policy.pools.get(t, node))
        else:
            data = policy.stage_data(t, node)
            sub = policy.subproblem(t, node)
        sol = sub.solve(state)
        buy, sell = sol.controls
        if not (
            -_FEAS_TOL <= buy <= data.u_max_charge + _FEAS_TOL
            and -_FEAS_TOL <= sell <= data.u_max_discharge + _FEAS_TOL
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
        xi = simulate_deviation_path(model, T, rng_seed ^ k)
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
    E = data.leak_factor * xe
    B, K = data.u_max_charge, data.u_max_discharge
    cp, cm, C = data.charge_eff, data.discharge_eff, data.capacity
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
    terminal_cost(utility, wealth)  # its floor and overflow guards
    return -math.exp(-utility.risk_aversion * wealth)


def kelley_terminal(
    data, utility, state, tol: float = 1e-8, max_iter: int = 100, seed_wealth=None
):
    """Terminal stage by Kelley's cutting planes on the stage LP.

    Tangents of the exponential terminal cost are the cuts of a stage LP
    (`NodeSubproblem` with a cut set).  The first is taken at
    ``seed_wealth``, by default the wealth of `max_wealth_controls`; each
    pass adds the tangent at the LP's next wealth, until the terminal cost
    there and the LP value agree within ``tol`` (relative once the cost
    exceeds one).  Returns (last `NodeSolution`, gap per pass).
    """
    w = seed_wealth
    if w is None:
        buy, sell = max_wealth_controls(data, state)
        w = state[0] - data.ask * buy + data.bid * sell
    cuts = CutSet()
    sub = NodeSubproblem(data, cutset=cuts)
    gaps = []
    for _ in range(max_iter):
        slope = terminal_cost_derivative(utility, w)
        cuts.add(Cut(terminal_cost(utility, w) - slope * w, slope, 0.0))
        sol = sub.solve(state)
        w = sol.next_state[0]
        f = terminal_cost(utility, w)
        gaps.append(f - sol.value)
        if gaps[-1] <= tol * max(1.0, abs(f)):
            return sol, gaps
    raise MaxIterationsError(f"terminal solve did not reach tol={tol:g} in {max_iter} passes")
