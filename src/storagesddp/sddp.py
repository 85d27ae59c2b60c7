"""Markov-chain SDDP training of the cost-to-go approximations.

The costs-to-go are in the cash-additive entropic form of `stage_solver`,
``J_t(w, e) = -(w + CE_t(e))``, where ``CE_t`` is the certainty equivalent
of the remaining trading under exponential utility.  Each iteration samples
one node path through the chain (forward pass, recording visited states),
then walks the stages backwards, adding at every visited (stage, node) one
affine cut with wealth slope -1, stored as its line in energy and computed
as in `stage_solver.solve_stage` (the entropic risk of the successor
subproblems, with their freshly updated pools).  A node's `CutSet` holds
only the upper envelope of its cuts over the feasible energies, which the
stage solves read: each new cut is spliced in, and a cut that is the
maximum nowhere is dropped.
After each backward pass the root value of the polyhedral approximation
gives a deterministic optimistic bound on the certainty equivalent;
`TrainingLog.bounds` reports it as expected utility (maximization
orientation), where it is non-increasing.

Checkpoints (format 4) are versioned JSON that carry a fingerprint of the
problem and chain the cuts were trained on, and hold each node's envelope:
its lines as ``[intercept, energy slope]`` rows (the wealth slope is -1)
and its breaks.  `load_checkpoint` uses them as the envelope as they are,
so a reloaded policy is the trained one bit for bit.  It refuses another
format version, fingerprint or horizon, any record of a node the chain
lacks or of a node already read, any empty pool, and lines and breaks that
do not form an envelope with `CheckpointError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .discretization import MarkovChain
from .errors import CheckpointError, ConditionViolatedError, NotTrainedError
from .price_model import PriceModel
from .stage_solver import CutSet, Envelope, NodeSubproblem, _stage_value, envelope_from_lines
from .storage import (
    BatterySpec,
    StageData,
    UtilitySpec,
    check_spread_condition,
    stage_data_for,
    terminal_cost,
)

# version 1 (unversioned) checkpoints held cuts on the expected-utility cost;
# version 2 wrote each cut as an object with named coefficients; version 3
# held [intercept, grad_wealth, grad_energy] rows that the loader spliced in
# again, which can move a break by rounding.
CHECKPOINT_VERSION = 4


@dataclass(frozen=True)
class StorageProblem:
    """Bundle of the model pieces one training run needs."""

    price_model: PriceModel
    battery: BatterySpec
    utility: UtilitySpec


class CutPool:
    """Per (stage, node) cut envelopes over ``[0, capacity]`` for stages 0..T-1.

    A node without cuts has no value, so training seeds every pool with one
    cut and `from_json` refuses a checkpoint with an empty pool.
    """

    def __init__(self, chain: MarkovChain, capacity: float) -> None:
        self.horizon = chain.horizon
        self._sets: list[list[CutSet]] = [
            [CutSet(capacity) for _ in range(chain.node_count(t))]
            for t in range(chain.horizon)
        ]

    def get(self, stage: int, node: int) -> CutSet:
        return self._sets[stage][node]

    def total_cuts(self) -> int:
        """Envelope lines over all pools."""
        return sum(len(s) for level in self._sets for s in level)

    def to_json(self, fingerprint: str) -> str:
        """Versioned JSON of every pool, tagged with `checkpoint_fingerprint`.

        Each pool's envelope is its lines as rows ``[intercept,
        grad_energy]``, in increasing energy slope, and its breaks.
        """
        records = [
            {
                "stage": t,
                "node": j,
                "cuts": [[a, g] for a, g in zip(cs.envelope.intercepts, cs.envelope.slopes)],
                "breaks": cs.envelope.breaks,
            }
            for t, level in enumerate(self._sets)
            for j, cs in enumerate(level)
        ]
        doc = {
            "format_version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "horizon": self.horizon,
            "pools": records,
        }
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(
        cls, text: str, chain: MarkovChain, capacity: float, fingerprint: str
    ) -> "CutPool":
        """Parse `to_json` output for ``chain`` and the expected ``fingerprint``.

        Each record's lines and breaks become its node's envelope as they
        are (`stage_solver.envelope_from_lines`).  Raises `CheckpointError`
        for text that is not JSON, a format version other than
        `CHECKPOINT_VERSION`, missing keys, a stage or node that is not an
        index of ``chain`` (an ``int``, not a ``bool``, in range), a (stage,
        node) held by two records, cuts that are not rows of two finite
        numbers, a pool without cuts, lines and breaks that do not form an
        envelope on ``[0, capacity]``, and a horizon or fingerprint that
        differs from the expected one.
        """
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        version = doc.get("format_version") if isinstance(doc, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {version} is not {CHECKPOINT_VERSION}; "
                "retrain to write a current one"
            )
        try:
            horizon, found, records = doc["horizon"], doc["fingerprint"], doc["pools"]
        except KeyError as exc:
            raise CheckpointError(f"checkpoint lacks the key {exc}") from exc
        if horizon != chain.horizon:
            raise CheckpointError(
                f"checkpoint horizon {horizon} != chain horizon {chain.horizon}"
            )
        if found != fingerprint:
            raise CheckpointError(
                "checkpoint was trained on another price model, battery, risk "
                "aversion or chain"
            )
        if not isinstance(records, list):
            raise CheckpointError("malformed checkpoint cuts: 'pools' is not a list")
        pool = cls(chain, capacity)
        read = set()
        for rec in records:
            t, j, envelope = _record(rec, chain, capacity)
            if (t, j) in read:
                raise CheckpointError(f"checkpoint holds stage {t}, node {j} twice")
            read.add((t, j))
            if envelope is not None:
                pool.get(t, j).envelope = envelope
        for t, level in enumerate(pool._sets):
            for j, cuts in enumerate(level):
                if not len(cuts):
                    raise CheckpointError(f"checkpoint pool at stage {t}, node {j} has no cuts")
        return pool


def _is_index(value, size: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < size


def _record(rec, chain: MarkovChain, capacity: float) -> tuple[int, int, Envelope | None]:
    """``(stage, node, envelope)`` of one checkpoint record; ``None`` for a record without cuts.

    The envelope's slopes and breaks must strictly increase, and its breaks,
    one more than its lines, must run from 0 to ``capacity``; that refuses
    non-finite breaks too.
    """
    try:
        t, j = rec["stage"], rec["node"]
        rows = np.array(rec["cuts"] or np.empty((0, 2)))
        breaks = np.array(rec["breaks"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint cuts: {exc}") from exc
    if not (_is_index(t, chain.horizon) and _is_index(j, chain.node_count(t))):
        raise CheckpointError(
            f"checkpoint record of stage {t!r}, node {j!r}: the chain has no such node"
        )
    if rows.dtype.kind not in "fi" or rows.ndim != 2 or rows.shape[1] != 2:
        raise CheckpointError("malformed checkpoint cuts: cuts are not rows of two numbers")
    if not np.isfinite(rows).all():
        raise CheckpointError("malformed checkpoint cuts: cut coefficients must be finite")
    if not len(rows):
        return t, j, None
    intercepts, slopes = rows.astype(float).T.tolist()
    x = breaks.astype(float).tolist() if breaks.dtype.kind in "fi" and breaks.ndim == 1 else []
    if not (
        len(x) == len(slopes) + 1
        and x[0] == 0.0
        and x[-1] == capacity
        and _increasing(x)
        and _increasing(slopes)
    ):
        raise CheckpointError(
            f"checkpoint pool at stage {t}, node {j} is not an envelope: its slopes and "
            f"breaks must increase, with breaks from 0 to {capacity} and one more than cuts"
        )
    return t, j, envelope_from_lines(intercepts, slopes, x)


def _increasing(values: list) -> bool:
    """Strictly increasing; a NaN breaks it."""
    return all(a < b for a, b in zip(values, values[1:]))


@dataclass
class TrainingLog:
    """Per-iteration diagnostics of one training run."""

    bounds: list[float] = field(default_factory=list)
    path_objectives: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    # envelope lines over all pools after each iteration
    cut_counts: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.bounds)

    def final_bound(self) -> float:
        if not self.bounds:
            raise NotTrainedError("no completed iterations")
        return self.bounds[-1]

    def write_csv(self, path: str) -> None:
        """One row per iteration: the bound, the path objective, the envelope lines, the seconds."""
        rows = zip(self.bounds, self.path_objectives, self.cut_counts, self.seconds)
        with open(path, "w", encoding="utf-8") as f:
            f.write("iteration,bound,path_objective,envelope_lines,seconds\n")
            for i, (b, p, n, s) in enumerate(rows, start=1):
                f.write(f"{i},{float(b)!r},{float(p)!r},{n},{s:.6f}\n")


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
                )
                for i in range(chain.node_count(t))
            ]
            if t == T:
                level_subs = [
                    NodeSubproblem(d, cutset=None, terminal=True)
                    for d in level_data
                ]
            else:
                level_subs = [
                    NodeSubproblem(d, cutset=pools.get(t, i))
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

    def root_certainty_equivalent(self) -> float:
        """Certainty equivalent of terminal wealth at the root, EUR: ``-J_0(x0)``.

        An optimistic bound on the optimal policy's certainty equivalent; at
        zero initial wealth it is the indifference price of the storage.
        """
        w0 = self.problem.utility.initial_wealth
        return -self.pools.get(0, 0).value(w0, 0.0)

    def root_bound(self) -> float:
        """Deterministic bound at the root as expected utility (maximization orientation)."""
        return -terminal_cost(self.problem.utility, self.root_certainty_equivalent())


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
    # unit cost / unit value of one MWh of stored energy, with period
    # quantities; the loops run on Python floats
    supplies = sorted([max(a, 0.0) / c_plus for a in np.asarray(asks).tolist()])
    demands = sorted([b / c_minus for b in np.asarray(bids).tolist() if b > 0.0], reverse=True)
    q_supply = c_plus * u_buy
    q_demand = c_minus * u_sell
    si = di = 0
    n_supplies, n_demands = len(supplies), len(demands)
    s_rem = q_supply
    d_rem = q_demand
    dearest_used = None
    while si < n_supplies and di < n_demands and demands[di] > supplies[si]:
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
    if di < n_demands:
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

    From any state (w, e) at stage t, terminal wealth cannot exceed w plus
    the best-case remaining trading profit `best_case_trading` (computed
    with each stage's `best_case_prices`), plus the marginal value of the
    stored energy, and neither can the certainty equivalent.  The seed cut
    is therefore the affine ``J_t(w, e) >= -(w + profit_t + marginal_t * e)``.
    """
    battery = problem.battery
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
        for j in range(chain.node_count(t)):
            pools.get(t, j).append(-profit, -marginal)


def train(
    problem: StorageProblem,
    chain: MarkovChain,
    iterations: int,
    rng_seed: int,
    warm_start: CutPool | None = None,
) -> tuple[Policy, TrainingLog]:
    """Run forward/backward passes and return the trained policy with its log.

    The node path of iteration k is a pure function of (rng_seed, k), so runs
    are reproducible and iterations could be re-sampled independently.  Wealth
    only shifts a cost-to-go, so the forward pass starts from zero wealth and
    the pools do not depend on the initial wealth, which enters the bounds
    and path objectives alone.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if rng_seed < 0:
        raise ValueError("rng_seed must be >= 0")
    if warm_start is not None:
        pools = warm_start
    else:
        pools = CutPool(chain, problem.battery.capacity)
        _seed_cuts(problem, chain, pools)
    policy = Policy(problem, chain, pools)
    policy.check_spread_condition()
    log = TrainingLog()
    T = chain.horizon
    x0 = (0.0, 0.0)
    utility = problem.utility
    w0 = utility.initial_wealth
    rho = utility.risk_aversion
    draws = [default_rng([rng_seed, k]).random(T) for k in range(iterations)]
    paths = chain.node_paths(np.array(draws)).tolist()
    # per-stage lookups, made once: transition rows as Python floats (the
    # chain checked that they are stochastic), the subproblems and cut sets
    rows = [m.tolist() for m in chain.transitions]
    subs = [policy.subproblems(t) for t in range(T + 1)]
    sets = [[pools.get(t, j) for j in range(chain.node_count(t))] for t in range(T)]

    for k in range(iterations):
        t_start = time.perf_counter()
        nodes = [0] + paths[k]

        # forward pass: follow the current policy along the sampled nodes,
        # recording states
        states = [x0]
        state = x0
        for t in range(1, T + 1):
            state = subs[t][nodes[t]].next_state(state)
            states.append(state)
        path_objective = -terminal_cost(utility, w0 + state[0])

        # backward pass: one cut per visited (stage, node), using the
        # successor pools updated earlier in this same pass
        for t in range(T - 1, -1, -1):
            xm, xe = states[t]
            j = nodes[t]
            value, ve = _stage_value((xm, xe), subs[t + 1], rows[t][j], rho)
            sets[t][j].append(value + xm - ve * xe, ve)

        log.bounds.append(policy.root_bound())
        log.path_objectives.append(path_objective)
        log.cut_counts.append(pools.total_cuts())
        log.seconds.append(time.perf_counter() - t_start)

    return policy, log


def checkpoint_fingerprint(problem: StorageProblem, chain: MarkovChain) -> str:
    """SHA-256 of what the cuts depend on: price model, battery, rho and chain.

    The initial wealth is left out: every cut holds at every wealth.
    """
    doc = {
        "price_model": dataclasses.asdict(problem.price_model),
        "battery": dataclasses.asdict(problem.battery),
        "risk_aversion": problem.utility.risk_aversion,
        "nodes": [v.tolist() for v in chain.nodes],
        "transitions": [m.tolist() for m in chain.transitions],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def save_checkpoint(policy: Policy, path: str) -> None:
    """Write the policy's pools to ``path`` atomically.

    The JSON goes to a temporary file in the target directory, which then
    replaces ``path``: a reader never sees a partial checkpoint, and a
    failed write leaves an existing one as it was.
    """
    fingerprint = checkpoint_fingerprint(policy.problem, policy.chain)
    fd, tmp = tempfile.mkstemp(
        prefix=".checkpoint-", suffix=".tmp", dir=os.path.dirname(os.path.abspath(path))
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(policy.pools.to_json(fingerprint))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path: str, problem: StorageProblem, chain: MarkovChain) -> CutPool:
    """Read the pools that `save_checkpoint` wrote for ``problem`` on ``chain``.

    Raises `CheckpointError` for a file that cannot be read and for
    everything `CutPool.from_json` refuses.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return CutPool.from_json(
        text, chain, problem.battery.capacity, checkpoint_fingerprint(problem, chain)
    )
