"""Markov-chain SDDP training of the cost-to-go approximations.

The costs-to-go are in the cash-additive entropic form of `stage_solver`,
``J_t(w, e) = -(w + CE_t(e))``, where ``CE_t`` is the certainty equivalent
of the remaining trading under exponential utility.  Each iteration samples
one node path through the chain (forward pass, recording visited states),
then walks the stages backwards, adding at every visited (stage, node) one
affine cut with wealth slope -1, stored as its line in energy and computed
by `stage_solver.solve_stage` (the entropic risk of the successor
subproblems, with their freshly updated pools).  A node's `CutSet` holds
only the upper envelope of its cuts over the feasible energies, which the
stage solves read: each new cut is spliced in, and a cut that is the
maximum nowhere is dropped.
After each backward pass the root value of the polyhedral approximation
gives a deterministic optimistic bound on the certainty equivalent;
`TrainingLog.bounds` reports it as expected utility (maximization
orientation), where it is non-increasing.

Checkpoints (format 5) are versioned JSON that carry a fingerprint of the
problem and chain the cuts were trained on, and hold the envelopes by
position: ``pools[t][j]`` is node j of stage t, its lines as ``[intercept,
energy slope]`` rows (the wealth slope is -1) and its breaks.
`load_checkpoint` uses them as the envelope as they are, so a reloaded
policy is the trained one bit for bit.  It refuses another format version,
fingerprint, stage count or node count, any empty pool, and lines and
breaks that do not form an envelope with `CheckpointError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
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
from .stage_solver import CutSet, Envelope, NodeSubproblem, envelope_from_lines, solve_stage
from .storage import (
    BatterySpec,
    UtilitySpec,
    check_spread_condition,
    stage_data_for,
    terminal_cost,
)

# version 1 (unversioned) checkpoints held cuts on the expected-utility cost;
# version 2 wrote each cut as an object with named coefficients; version 3
# held [intercept, grad_wealth, grad_energy] rows that the loader spliced in
# again, which can move a break by rounding; version 4 held a list of records
# that named their stage and node.
CHECKPOINT_VERSION = 5
# relative mismatch allowed where two envelope lines of a checkpoint meet;
# pools trained at capacity 0.5 to 4 and rho 0.003 to 0.3 stay below 2.2e-16
_BREAK_TOL = 1e-9


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

        ``pools[t][j]`` is node j of stage t's envelope: its lines as rows
        ``[intercept, grad_energy]``, in increasing energy slope, and its
        breaks.
        """
        pools = [
            [
                {
                    "cuts": [[a, g] for a, g in zip(cs.envelope.intercepts, cs.envelope.slopes)],
                    "breaks": cs.envelope.breaks,
                }
                for cs in level
            ]
            for level in self._sets
        ]
        doc = {"format_version": CHECKPOINT_VERSION, "fingerprint": fingerprint, "pools": pools}
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(
        cls, text: str, chain: MarkovChain, capacity: float, fingerprint: str
    ) -> "CutPool":
        """Parse `to_json` output for ``chain`` and the expected ``fingerprint``.

        Each node's lines and breaks become its envelope as they are
        (`stage_solver.envelope_from_lines`).  Raises `CheckpointError`, in
        this order, for text that is not JSON, a format version other than
        `CHECKPOINT_VERSION`, missing keys, a stage count other than the
        chain's horizon, a fingerprint other than the expected one, a stage
        that is not a list of the chain's nodes, and a node whose cuts are
        not rows of two finite numbers, that has no cuts, or whose lines and
        breaks do not form an envelope on ``[0, capacity]`` (`_envelope`).
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
            found, levels = doc["fingerprint"], doc["pools"]
        except KeyError as exc:
            raise CheckpointError(f"checkpoint lacks the key {exc}") from exc
        if not isinstance(levels, list):
            raise CheckpointError("malformed checkpoint cuts: 'pools' is not a list")
        if len(levels) != chain.horizon:
            raise CheckpointError(
                f"checkpoint horizon {len(levels)} != chain horizon {chain.horizon}"
            )
        if found != fingerprint:
            raise CheckpointError(
                "checkpoint was trained on another price model, battery, risk "
                "aversion or chain"
            )
        pool = cls(chain, capacity)
        for t, (level, sets) in enumerate(zip(levels, pool._sets)):
            if not isinstance(level, list) or len(level) != len(sets):
                raise CheckpointError(
                    f"checkpoint stage {t} is not a list of the chain's {len(sets)} nodes"
                )
            for j, (rec, cuts) in enumerate(zip(level, sets)):
                cuts.envelope = _envelope(rec, t, j, capacity)
        return pool


def _envelope(rec, t: int, j: int, capacity: float) -> Envelope:
    """The envelope of node j of stage t from its checkpoint record.

    The cuts must be rows of two finite numbers (JSON ``true`` and
    ``false`` are no numbers here, as in the config), and there must be at
    least one.  The slopes and breaks must strictly increase, and the
    breaks, one more than the lines, must run from 0 to ``capacity``; that
    refuses non-finite breaks too.  Adjacent lines must meet at their shared
    break, to `_BREAK_TOL` relative to the height there.
    """
    try:
        cuts, breaks = rec["cuts"], rec["breaks"]
        rows, x = np.array(cuts), np.array(breaks)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint cuts: {exc}") from exc
    if not rows.size:
        raise CheckpointError(f"checkpoint pool at stage {t}, node {j} has no cuts")
    if (
        rows.dtype.kind not in "fi"
        or rows.ndim != 2
        or rows.shape[1] != 2
        or bool in map(type, itertools.chain.from_iterable(cuts))
    ):
        raise CheckpointError("malformed checkpoint cuts: cuts are not rows of two numbers")
    if not np.isfinite(rows).all():
        raise CheckpointError("malformed checkpoint cuts: cut coefficients must be finite")
    intercepts, slopes = rows.astype(float).T.tolist()
    numbers = x.dtype.kind in "fi" and x.ndim == 1 and bool not in map(type, breaks)
    x = x.astype(float).tolist() if numbers else []
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
    envelope = envelope_from_lines(intercepts, slopes, x)
    for k in range(1, len(slopes)):
        left = intercepts[k - 1] + slopes[k - 1] * x[k]
        right = intercepts[k] + slopes[k] * x[k]
        if abs(left - right) > _BREAK_TOL * max(1.0, abs(envelope.heights[k])):
            raise CheckpointError(
                f"checkpoint pool at stage {t}, node {j} is not an envelope: lines "
                f"{k - 1} and {k} differ by {abs(left - right):.3g} at their break {x[k]!r}"
            )
    return envelope


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

    ``subproblem(t, j)`` is node j of stage t, for t = 1..T; its solve gives
    the optimal controls at a state.  Stages 1..T-1 read the pools of stage
    t; the stage-T subproblems share one cut set that holds the zero line,
    so the terminal stage is solved as every other.  Immutable once
    training completes; the solves and the simulation only read the pools.
    Construction refuses, with `ConditionViolatedError`, a node whose bid
    and ask break the spread condition, where the two-control relaxation
    could be strict.
    """

    def __init__(self, problem: StorageProblem, chain: MarkovChain, pools: CutPool) -> None:
        if chain.horizon != problem.price_model.horizon:
            raise ValueError("chain horizon differs from price model horizon")
        self.problem = problem
        self.chain = chain
        self.pools = pools
        T = chain.horizon
        terminal = CutSet(problem.battery.capacity)
        terminal.append(0.0, 0.0)
        self._subs: list[list[NodeSubproblem] | None] = [None]
        for t in range(1, T + 1):
            level_subs = []
            for i in range(chain.node_count(t)):
                xi = float(chain.nodes[t][i])
                d = stage_data_for(problem.price_model, problem.battery, t, xi)
                if not check_spread_condition(d):
                    raise ConditionViolatedError(
                        f"bid/ask efficiency condition fails at stage {t}, node {i}"
                    )
                level_subs.append(NodeSubproblem(d, terminal if t == T else pools.get(t, i)))
            self._subs.append(level_subs)

    @property
    def horizon(self) -> int:
        return self.chain.horizon

    def subproblem(self, stage: int, node: int) -> NodeSubproblem:
        return self._subs[stage][node]

    def subproblems(self, stage: int) -> list[NodeSubproblem]:
        return self._subs[stage]

    def root_certainty_equivalent(self) -> float:
        """Certainty equivalent of terminal wealth at the root, EUR: ``-J_0(x0)``.

        An optimistic bound on the optimal policy's certainty equivalent; at
        zero initial wealth it is the indifference price of the storage.
        """
        return self.problem.utility.initial_wealth - self.pools.get(0, 0).value(0.0)

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
    pools = CutPool(chain, problem.battery.capacity)
    _seed_cuts(problem, chain, pools)
    policy = Policy(problem, chain, pools)
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
            value, ve = solve_stage((xm, xe), subs[t + 1], rows[t][j], rho)
            sets[t][j].append(value + xm - ve * xe, ve)

        log.bounds.append(policy.root_bound())
        log.path_objectives.append(path_objective)
        log.cut_counts.append(pools.total_cuts())
        log.seconds.append(time.perf_counter() - t_start)

    return policy, log


def checkpoint_fingerprint(problem: StorageProblem, chain: MarkovChain) -> str:
    """SHA-256 of what the cuts depend on: price model, battery, rho and chain.

    The model pieces enter as JSON, then each of the chain's node vectors
    and transition matrices as its shape and little-endian float64 bytes.
    The initial wealth is left out: every cut holds at every wealth.
    """
    doc = {
        "price_model": dataclasses.asdict(problem.price_model),
        "battery": dataclasses.asdict(problem.battery),
        "risk_aversion": problem.utility.risk_aversion,
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    for array in chain.nodes + chain.transitions:
        digest.update(repr(array.shape).encode())
        digest.update(array.astype("<f8", copy=False).tobytes())
    return digest.hexdigest()


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
