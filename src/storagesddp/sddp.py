"""Markov-chain SDDP training of the cost-to-go approximations.

Each iteration samples one node path through the chain (forward pass,
recording visited states), then walks the stages backwards, adding at every
visited (stage, node) one affine cut on the expected cost-to-go, computed
by `stage_solver.solve_stage` from the successor subproblems with their
freshly updated pools.  The root value of the polyhedral approximation
after each backward pass is a deterministic optimistic bound; it is
reported in maximization orientation (expected-utility units), where it is
non-increasing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .discretization import MarkovChain
from .errors import ConditionViolatedError, NotTrainedError
from .price_model import PriceModel
from .stage_solver import Cut, CutSet, NodeSubproblem, solve_stage
from .storage import (
    BatterySpec,
    StageData,
    UtilitySpec,
    check_spread_condition,
    stage_data_for,
    terminal_cost,
    terminal_cost_derivative,
    wealth_box,
)


@dataclass(frozen=True)
class StorageProblem:
    """Bundle of the model pieces one training run needs."""

    price_model: PriceModel
    battery: BatterySpec
    utility: UtilitySpec


class CutPool:
    """Per (stage, node) cut collections for stages 0..T-1.

    Every pool implicitly contains the floor theta >= -1/rho, the infimum of
    the terminal cost, so stage LPs are bounded from iteration 0.
    """

    def __init__(self, chain: MarkovChain) -> None:
        self.horizon = chain.horizon
        self._sets: list[list[CutSet]] = [
            [CutSet() for _ in range(chain.node_count(t))] for t in range(chain.horizon)
        ]

    def get(self, stage: int, node: int) -> CutSet:
        return self._sets[stage][node]

    def add(self, stage: int, node: int, cut: Cut) -> None:
        self._sets[stage][node].add(cut)

    def total_cuts(self) -> int:
        return sum(len(s) for level in self._sets for s in level)

    def to_json(self) -> str:
        records = []
        for t, level in enumerate(self._sets):
            for j, cs in enumerate(level):
                records.append(
                    {
                        "stage": t,
                        "node": j,
                        "cuts": [
                            {"intercept": a, "grad_wealth": gw, "grad_energy": ge}
                            for a, gw, ge in zip(*(x.tolist() for x in cs.arrays()))
                        ],
                    }
                )
        return json.dumps({"horizon": self.horizon, "pools": records}, indent=1)

    @classmethod
    def from_json(cls, text: str, chain: MarkovChain) -> "CutPool":
        doc = json.loads(text)
        if doc["horizon"] != chain.horizon:
            raise ValueError(
                f"checkpoint horizon {doc['horizon']} != chain horizon {chain.horizon}"
            )
        pool = cls(chain)
        for rec in doc["pools"]:
            pool.get(rec["stage"], rec["node"]).extend(
                [[c["intercept"], c["grad_wealth"], c["grad_energy"]] for c in rec["cuts"]]
            )
        return pool


@dataclass
class TrainingLog:
    """Per-iteration diagnostics of one training run."""

    bounds: list[float] = field(default_factory=list)
    path_objectives: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    cut_counts: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.bounds)

    def final_bound(self) -> float:
        if not self.bounds:
            raise NotTrainedError("no completed iterations")
        return self.bounds[-1]

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("iteration,bound,seconds\n")
            for i, (b, s) in enumerate(zip(self.bounds, self.seconds), start=1):
                f.write(f"{i},{float(b)!r},{s:.6f}\n")


class Policy:
    """Trained cut pools plus the problem data needed to act on them.

    Immutable once training completes; `decide` and the simulation helpers
    only read the pools.
    """

    def __init__(self, problem: StorageProblem, chain: MarkovChain, pools: CutPool) -> None:
        if chain.horizon != problem.price_model.horizon:
            raise ValueError("chain horizon differs from price model horizon")
        self.problem = problem
        self.chain = chain
        self.pools = pools
        self.wealth_cap = wealth_box(problem.price_model, problem.battery)
        T = chain.horizon
        self._subs: list[list[NodeSubproblem] | None] = [None]
        for t in range(1, T + 1):
            level_data = [
                stage_data_for(
                    problem.price_model,
                    problem.battery,
                    t,
                    float(chain.nodes[t][i]),
                    node=i,
                    wealth_cap=self.wealth_cap,
                )
                for i in range(chain.node_count(t))
            ]
            if t == T:
                level_subs = [
                    NodeSubproblem(d, problem.utility, cutset=None, terminal=True)
                    for d in level_data
                ]
            else:
                level_subs = [
                    NodeSubproblem(d, problem.utility, cutset=pools.get(t, i))
                    for i, d in enumerate(level_data)
                ]
            self._subs.append(level_subs)

    @property
    def horizon(self) -> int:
        return self.chain.horizon

    def stage_data(self, stage: int, node: int) -> StageData:
        return self._subs[stage][node].data

    def subproblem(self, stage: int, node: int) -> NodeSubproblem:
        return self._subs[stage][node]

    def subproblems(self, stage: int) -> list[NodeSubproblem]:
        return self._subs[stage]

    def check_spread_condition(self) -> None:
        """Refuse to operate when the relaxation could be strict."""
        for t in range(1, self.horizon + 1):
            for sub in self._subs[t]:
                if not check_spread_condition(sub.data):
                    raise ConditionViolatedError(
                        f"bid/ask efficiency condition fails at stage {t}, node {sub.data.node}"
                    )

    def decide(
        self, stage: int, node: int, state: tuple[float, float]
    ) -> tuple[float, float]:
        """Optimal (buy, sell) for the given stage and realized node."""
        sol = self._subs[stage][node].solve(state)
        return sol.controls

    def root_bound(self) -> float:
        """Deterministic bound at the root, maximization orientation."""
        x0 = (self.problem.utility.initial_wealth, 0.0)
        floor = -1.0 / self.problem.utility.risk_aversion
        return -self.pools.get(0, 0).value(x0[0], x0[1], floor)


def best_case_trading(
    bids: np.ndarray,
    asks: np.ndarray,
    u_buy: float,
    u_sell: float,
    c_plus: float,
    c_minus: float,
) -> tuple[float, float]:
    """Best-case profit of the remaining periods, ignoring timing.

    Upper-bounds any feasible continuation: controls only obey their boxes
    and the aggregate energy balance (energy sold <= initial energy plus
    energy charged; leakage and the capacity box only lower the true value).
    That is a one-constraint LP, solved exactly by greedy matching of energy
    "supplies" (charging periods, cheapest first; negative asks are pure
    profit and supply energy for free) against "demands" (discharging
    periods, best bid first).

    Returns ``(profit, marginal)`` where ``profit`` assumes zero initial
    energy and ``marginal`` is the right-derivative of the profit with
    respect to initial stored energy (the value of the best remaining use
    of one free unit).
    """
    profit = float(np.sum(np.maximum(-asks, 0.0)) * u_buy)
    # unit cost / unit value of one MWh of stored energy, with period quantities
    supplies = sorted(max(a, 0.0) / c_plus for a in asks)
    demands = sorted((b / c_minus for b in bids if b > 0.0), reverse=True)
    q_supply = c_plus * u_buy
    q_demand = c_minus * u_sell
    si = di = 0
    s_rem = q_supply
    d_rem = q_demand
    dearest_used = None
    while si < len(supplies) and di < len(demands) and demands[di] > supplies[si]:
        q = min(s_rem, d_rem)
        profit += (demands[di] - supplies[si]) * q
        dearest_used = supplies[si]
        s_rem -= q
        d_rem -= q
        if s_rem <= 0.0:
            si += 1
            s_rem = q_supply
        if d_rem <= 0.0:
            di += 1
            d_rem = q_demand
    marginal = 0.0
    if di < len(demands):
        marginal = demands[di]  # serve one more discharge period
    if dearest_used is not None:
        marginal = max(marginal, dearest_used)  # or displace the dearest charge
    return profit, marginal


def best_case_prices(model: PriceModel, chain: MarkovChain) -> tuple[np.ndarray, np.ndarray]:
    """Best bid (highest) and best ask (lowest) over the chain's nodes, stages 1..T."""
    mids = [model.day_ahead[t - 1] + chain.nodes[t] for t in range(1, chain.horizon + 1)]
    best_bid = np.array([(m - model.spread).max() for m in mids])
    best_ask = np.array([(m + model.spread).min() for m in mids])
    return best_bid, best_ask


def _seed_cuts(problem: StorageProblem, chain: MarkovChain, pools: CutPool) -> None:
    """Initialize every pool with one analytic lower bound.

    From any state at stage t, terminal wealth cannot exceed the current
    wealth plus the best-case remaining trading profit `best_case_trading`
    (computed with each stage's `best_case_prices`), plus the
    marginal value of the stored energy.  The terminal cost of that wealth
    bound is a valid minorant of the cost-to-go; its tangent at the initial
    state is the seed cut.  Far tighter than the bare -1/rho floor, which
    stays in every LP regardless.
    """
    battery = problem.battery
    utility = problem.utility
    x0m = utility.initial_wealth
    best_bid, best_ask = best_case_prices(problem.price_model, chain)
    for t in range(chain.horizon):
        profit, marginal = best_case_trading(
            best_bid[t:],
            best_ask[t:],
            battery.max_charge,
            battery.max_discharge,
            battery.charge_eff,
            battery.discharge_eff,
        )
        w_best = x0m + profit
        slope = terminal_cost_derivative(utility, w_best)
        # tangent of tc(x_m + profit + marginal * x_e) at (x0m, 0)
        intercept = terminal_cost(utility, w_best) - slope * x0m
        for j in range(chain.node_count(t)):
            pools.add(t, j, Cut(intercept, slope, slope * marginal))


def train(
    problem: StorageProblem,
    chain: MarkovChain,
    iterations: int,
    rng_seed: int,
    warm_start: CutPool | None = None,
) -> tuple[Policy, TrainingLog]:
    """Run forward/backward passes and return the trained policy with its log.

    The node path of iteration k is a pure function of (rng_seed, k), so runs
    are reproducible and iterations could be re-sampled independently.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if rng_seed < 0:
        raise ValueError("rng_seed must be >= 0")
    if warm_start is not None:
        pools = warm_start
    else:
        pools = CutPool(chain)
        _seed_cuts(problem, chain, pools)
    policy = Policy(problem, chain, pools)
    policy.check_spread_condition()
    log = TrainingLog()
    T = chain.horizon
    x0 = (problem.utility.initial_wealth, 0.0)
    utility = problem.utility
    draws = [np.random.default_rng([rng_seed, k]).random(T) for k in range(iterations)]
    paths = chain.node_paths(np.array(draws)).tolist()

    for k in range(iterations):
        t_start = time.perf_counter()
        nodes = [0] + paths[k]

        # forward pass: follow the current policy along the sampled nodes,
        # recording states
        states = [x0]
        state = x0
        for t in range(1, T + 1):
            state = policy.subproblem(t, nodes[t]).solve(state).next_state
            states.append(state)
        path_objective = -terminal_cost(utility, state[0])

        # backward pass: one cut per visited (stage, node), using the
        # successor pools updated earlier in this same pass
        for t in range(T - 1, -1, -1):
            xt = states[t]
            value, (vm, ve) = solve_stage(
                xt, policy.subproblems(t + 1), chain.transitions[t][nodes[t]]
            )
            pools.add(
                t,
                nodes[t],
                Cut(
                    intercept=value - vm * xt[0] - ve * xt[1],
                    grad_wealth=vm,
                    grad_energy=ve,
                ),
            )

        log.bounds.append(policy.root_bound())
        log.path_objectives.append(path_objective)
        log.cut_counts.append(pools.total_cuts())
        log.seconds.append(time.perf_counter() - t_start)

    return policy, log


def save_checkpoint(policy: Policy, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(policy.pools.to_json())


def load_checkpoint(path: str, chain: MarkovChain) -> CutPool:
    with open(path, encoding="utf-8") as f:
        return CutPool.from_json(f.read(), chain)
