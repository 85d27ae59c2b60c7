"""Out-of-sample policy evaluation and terminal-wealth diagnostics.

Out-of-sample scenarios draw the deviation process from its continuous law.
At each stage the realized deviation is mapped to the nearest chain node;
the stage problem is re-solved with that node's trained cuts but with the
realized bid/ask in the immediate dynamics and accounting.  An in-sample
analogue (scenarios drawn from the chain itself) is computed alongside for
the discretization-gap comparison; its deviations are node values, so its
lanes trade at their nodes' prices.

Evaluation runs stage-major over blocks of scenarios, one lane per
scenario.  At each stage every lane is mapped to its nearest node, and all
lanes go through one `StageLanes.next_states` call on the stage's padded
envelope tables, built from the policy's battery and the stage's cut sets,
each lane at its own node and bid/ask; the terminal stage's tables hold its
zero line.  Wealth is the running sum of
the lanes' trades, kept here.  The tables are built once per evaluation
and not kept: evaluation writes nothing to the policy's subproblems or
envelopes.  The block size follows an element budget, so
memory does not grow with the number of scenarios, and the results equal a
scenario-by-scenario loop of scalar solves bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import nearest_node
from .errors import DegenerateSampleError
from .price_model import bid_ask, simulate_deviation_paths
from .sddp import Policy
from .stage_solver import StageLanes
from .storage import terminal_cost

_FEAS_TOL = 1e-9
# element budgets (doubles per working array) that keep peak memory
# independent of the sample size: lanes x envelope lines for one block of
# scenarios, and grid points x samples for one density chunk (256 kB: a
# chunk holds about three such arrays at once, and each row's sum does not
# depend on the chunk size)
_LANE_ELEMENTS = 1 << 18
_KDE_ELEMENTS = 1 << 15
_KDE_GRID_POINTS = 256


@dataclass(frozen=True)
class SimulationReport:
    """Scenario-evaluation summary.

    ``terminal_wealths`` and ``utilities`` hold one entry per scenario, so
    their length is the scenario count.  ``mean_objective`` is the mean
    terminal wealth (EUR); ``mean_utility`` the mean utility (the
    optimization objective) with ``std_error`` the standard error of that
    mean; ``in_sample_mean`` the utility mean over scenarios drawn from the
    chain instead of the continuous process.
    """

    mean_objective: float
    std_error: float
    terminal_wealths: np.ndarray
    mean_utility: float
    in_sample_mean: float
    utilities: np.ndarray


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian-kernel density on an equally spaced grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def _lane_block(policy: Policy) -> int:
    """Scenarios per block: the element budget over the largest envelope."""
    lines = 1 + max(
        len(sub.cutset)
        for t in range(1, policy.horizon + 1)
        for sub in policy.subproblems(t)
    )
    return max(1, _LANE_ELEMENTS // lines)


def _simulate_lanes(
    policy: Policy, stages: list[StageLanes], deviations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run a block of scenarios stage by stage; returns (terminal wealths, utilities).

    ``deviations`` holds one scenario per row.  At each stage every lane
    trades at its own deviation's bid/ask on its nearest node's envelope, in
    one `StageLanes.next_states` call.
    """
    problem = policy.problem
    model = problem.price_model
    battery = problem.battery
    utility = problem.utility
    K = len(deviations)
    xm = np.full(K, float(utility.initial_wealth))
    xe = np.zeros(K)
    for t, lanes in enumerate(stages, 1):
        xi = deviations[:, t - 1]
        bid, ask = bid_ask(model, t, xi)
        nodes = nearest_node(policy.chain, t, xi)
        buy, sell, xe = lanes.next_states(nodes, xe, ask, bid)
        if not np.all(
            (-_FEAS_TOL <= buy)
            & (buy <= battery.max_charge + _FEAS_TOL)
            & (-_FEAS_TOL <= sell)
            & (sell <= battery.max_discharge + _FEAS_TOL)
        ):
            raise AssertionError(f"control outside box at stage {t}")
        if not np.all((-_FEAS_TOL <= xe) & (xe <= battery.capacity + _FEAS_TOL)):
            raise AssertionError(f"energy outside [0, capacity] at stage {t}")
        xm = xm - ask * buy + bid * sell
    return xm, np.array([-terminal_cost(utility, w) for w in xm.tolist()])


def evaluate_out_of_sample(
    policy: Policy, n_scenarios: int, rng_seed: int
) -> SimulationReport:
    """Monte Carlo evaluation of a trained policy.

    Scenario k uses seed ``rng_seed XOR k`` so the scenario set does not
    depend on evaluation order (or on the block size).
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be >= 1")
    model, battery = policy.problem.price_model, policy.problem.battery
    chain = policy.chain
    T = policy.horizon
    wealths = np.empty(n_scenarios)
    utils = np.empty(n_scenarios)
    in_sample = np.empty(n_scenarios)
    stages = [
        StageLanes(battery, [sub.cutset for sub in policy.subproblems(t)])
        for t in range(1, T + 1)
    ]
    block = _lane_block(policy)
    for lo in range(0, n_scenarios, block):
        ks = range(lo, min(lo + block, n_scenarios))
        sl = slice(lo, lo + len(ks))
        xi = simulate_deviation_paths(model, [rng_seed ^ k for k in ks])
        wealths[sl], utils[sl] = _simulate_lanes(policy, stages, xi)
        draws = np.array(
            [np.random.default_rng((rng_seed + 1_000_003) ^ k).random(T) for k in ks]
        )
        paths = chain.node_paths(draws)
        xi = np.column_stack([chain.nodes[t + 1][paths[:, t]] for t in range(T)])
        _, in_sample[sl] = _simulate_lanes(policy, stages, xi)

    se = float(np.std(utils, ddof=1) / np.sqrt(n_scenarios)) if n_scenarios > 1 else 0.0
    return SimulationReport(
        mean_objective=float(wealths.mean()),
        std_error=se,
        terminal_wealths=wealths,
        mean_utility=float(utils.mean()),
        in_sample_mean=float(in_sample.mean()),
        utilities=utils,
    )


def kernel_density(samples: np.ndarray) -> DensityEstimate:
    """Gaussian KDE with Silverman bandwidth 1.06 * std * n^(-1/5) on 256 grid points."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2 or np.std(x) == 0.0:
        raise DegenerateSampleError("need >= 2 samples with nonzero variance")
    n = x.size
    bw = 1.06 * float(np.std(x, ddof=1)) * n ** (-0.2)
    grid = np.linspace(x.min() - 3.0 * bw, x.max() + 3.0 * bw, _KDE_GRID_POINTS)
    density = np.empty(_KDE_GRID_POINTS)
    norm = 1.0 / (n * bw * np.sqrt(2.0 * np.pi))
    chunk = max(1, _KDE_ELEMENTS // n)
    for lo in range(0, _KDE_GRID_POINTS, chunk):
        g = grid[lo : lo + chunk, None]
        z = (g - x[None, :]) / bw
        density[lo : lo + chunk] = norm * np.exp(-0.5 * z * z).sum(axis=1)
    return DensityEstimate(grid=grid, density=density, bandwidth=bw)

