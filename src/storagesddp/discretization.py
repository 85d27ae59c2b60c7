"""Finite-state Markov chain approximation of the AR(1) deviation process.

Stage t >= 1 shares one set of Gauss-Hermite quadrature nodes drawn for a
zero-mean Gaussian sampling density.  Transition weights from node ``xi_j`` at
stage t to node ``xi_i`` at stage t+1 are importance-reweighted quadrature
weights

    raw[j, i] = cond_density(xi_i | xi_j) / sampling_density(xi_i) * w_i

with the conditional density N(a*xi_j, sigma_eps^2).  Raw rows do not sum
exactly to one, so each row is normalized; a row whose sum is too small to
normalize is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrderError, NumericalUnderflowError, StageOutOfRangeError
from .price_model import PriceModel

_ROW_SUM_FLOOR = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and probability weights matching a zero-mean Gaussian."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        # written so that a NaN weight or node fails
        if not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be positive")
        if not abs(self.weights.sum() - 1.0) <= 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("quadrature nodes must be strictly increasing")


def gauss_hermite(n: int, sigma: float) -> QuadratureRule:
    """Gauss-Hermite rule for expectations under N(0, sigma^2).

    Exact for polynomials of degree <= 2n - 1.  Raises `InvalidOrderError`
    for ``n < 1`` and for an order so high that numpy's weights underflow
    (0 or NaN; from about 371 points).
    """
    if n < 1:
        raise InvalidOrderError("quadrature order must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    # numpy warns as the weights underflow; the check below refuses them
    with np.errstate(all="ignore"):
        x, w = np.polynomial.hermite.hermgauss(n)
    nodes = np.sqrt(2.0) * sigma * x
    weights = w / w.sum()
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise InvalidOrderError(
            f"quadrature order {n} is too high: its weights underflow to 0 or NaN"
        )
    return QuadratureRule(nodes=nodes, weights=weights)


class MarkovChain:
    """Per-stage node values and row-stochastic transition matrices.

    Stage 0 holds the single root node ``xi_0``; stages 1..T share one node
    set.  ``transitions[t]`` maps stage-t nodes to stage-(t+1) nodes for
    t = 0..T-1, so T is the number of matrices.  Stages may hold one array
    object between them: each distinct matrix is checked and given its
    cumulative rows once.  Immutable after construction and safe to share.
    """

    def __init__(self, nodes: list[np.ndarray], transitions: list[np.ndarray]) -> None:
        if len(nodes) != len(transitions) + 1:
            raise ValueError("need one more node vector than transition matrices")
        self.horizon = len(transitions)
        self.nodes = [np.asarray(v, dtype=float) for v in nodes]
        self.transitions = [np.asarray(m, dtype=float) for m in transitions]
        # cumulative transition rows for path sampling, by matrix identity;
        # the last entry is raised to +inf so that a draw above a row's
        # rounded total picks the last node
        cumulative: dict[int, np.ndarray] = {}
        for t, mat in enumerate(self.transitions):
            if mat.shape != (len(self.nodes[t]), len(self.nodes[t + 1])):
                raise ValueError(f"transition matrix {t} has shape {mat.shape}")
            if id(mat) in cumulative:
                continue
            # written so that a NaN entry fails
            if not (np.all(mat >= 0) and np.all(np.abs(mat.sum(axis=1) - 1.0) <= 1e-12)):
                raise ValueError(f"transition matrix {t} is not row-stochastic")
            mat.setflags(write=False)
            cum = np.cumsum(mat, axis=1)
            cum[:, -1] = np.inf
            cumulative[id(mat)] = cum
        self._cumulative = [cumulative[id(m)] for m in self.transitions]
        for v in self.nodes:
            v.setflags(write=False)

    def node_count(self, stage: int) -> int:
        return len(self.nodes[stage])

    def node_paths(self, draws: np.ndarray) -> np.ndarray:
        """Node indices at stages 1..T of the paths driven by uniform ``draws``.

        ``draws`` has shape (T,) for one path or (K, T) for K paths.  At each
        stage the draw picks the first successor whose cumulative transition
        probability reaches it, or the last node when rounding leaves the
        row's total below the draw.
        """
        u = np.atleast_2d(np.asarray(draws, dtype=float))
        if u.shape[1] != self.horizon:
            raise ValueError(f"need {self.horizon} draws per path, got {u.shape[1]}")
        paths = np.empty(u.shape, dtype=np.intp)
        j = np.zeros(len(u), dtype=np.intp)
        for t in range(self.horizon):
            # entries below the draw = searchsorted(side="left")
            j = np.count_nonzero(self._cumulative[t][j] < u[:, t, None], axis=1)
            paths[:, t] = j
        return paths.reshape(np.shape(draws))

    def to_json(self) -> str:
        doc = {
            "horizon": self.horizon,
            "nodes": [v.tolist() for v in self.nodes],
            "transitions": [m.tolist() for m in self.transitions],
        }
        return json.dumps(doc, indent=2)


def _normal_pdf(x: np.ndarray, mean: float | np.ndarray, std: float) -> np.ndarray:
    z = (x - mean) / std
    return np.exp(-0.5 * z * z) / (std * np.sqrt(2.0 * np.pi))


def build_chain(
    model: PriceModel,
    n: int,
    sampling_std: float | None = None,
) -> MarkovChain:
    """Discretize the deviation process on ``n`` quadrature nodes per stage.

    The chain has the model's horizon.  Stages 1..T hold one read-only node
    array, and stages 1..T-1 one transition matrix.

    Parameters
    ----------
    model:
        Price model supplying ``a``, ``sigma_eps`` and ``xi_0``.
    n:
        Quadrature points per stage (same at every stage).
    sampling_std:
        Std of the zero-mean Gaussian sampling density.  Defaults to the
        stationary std of the deviation process.

    Raises
    ------
    InvalidOrderError, ValueError
        From `gauss_hermite`, for ``n < 1``, an ``n`` whose weights
        underflow, or ``sampling_std <= 0``.
    NumericalUnderflowError
        If a raw transition row sums to less than 1e-12 (sampling density
        badly mismatched with the conditional density).
    """
    T = model.horizon
    if sampling_std is None:
        sampling_std = model.stationary_std()
        if sampling_std <= 0:
            sampling_std = 1.0  # degenerate model; node placement is irrelevant

    rule = gauss_hermite(n, sampling_std)
    stage_nodes = rule.nodes
    a = model.ar_coefficient
    sig = model.innovation_std
    phi = _normal_pdf(stage_nodes, 0.0, sampling_std)

    nodes: list[np.ndarray] = [np.array([model.initial_deviation])]
    nodes += [stage_nodes] * T

    transitions: list[np.ndarray] = []
    # stages 1..T share one node set, so transitions[1:] are one matrix:
    # the root's and stage 1's are built, and stage 1's is repeated
    for t in range(min(T, 2)):
        sources = nodes[t]
        mat = np.empty((len(sources), n))
        for j, xi_j in enumerate(sources):
            if sig == 0.0:
                # Dirac conditional: all mass on the node nearest a*xi_j.
                row = np.zeros(n)
                row[int(np.argmin(np.abs(stage_nodes - a * xi_j)))] = 1.0
            else:
                row = _normal_pdf(stage_nodes, a * xi_j, sig) / phi * rule.weights
                mass = row.sum()
                if not mass >= _ROW_SUM_FLOOR:
                    raise NumericalUnderflowError(
                        f"stage {t}, node {j}: raw transition mass {mass:.3e} "
                        "below 1e-12; adjust sampling_std"
                    )
                row = row / mass
            mat[j] = row
        transitions.append(mat)
    transitions += transitions[1:] * (T - 2)

    return MarkovChain(nodes, transitions)


def nearest_node(
    chain: MarkovChain, stage: int, deviation: float | np.ndarray
) -> int | np.ndarray:
    """Index of the stage node closest to ``deviation``; ties go to the smaller index.

    A 1-D array of deviations gives an integer array of indices.
    """
    if not 1 <= stage <= chain.horizon:
        raise StageOutOfRangeError(f"stage {stage} outside 1..{chain.horizon}")
    nodes = chain.nodes[stage]
    if np.ndim(deviation) == 0:
        return int(np.argmin(np.abs(nodes - deviation)))
    dev = np.asarray(deviation, dtype=float)
    return np.argmin(np.abs(nodes[None, :] - dev[:, None]), axis=1)
