import json

import numpy as np
import pytest

import storagesddp as s
from storagesddp.errors import (
    InvalidOrderError,
    NumericalUnderflowError,
    StageOutOfRangeError,
)


def gaussian_moment(k: int, sigma: float) -> float:
    if k % 2 == 1:
        return 0.0
    m = 1.0
    for j in range(1, k, 2):
        m *= j
    return m * sigma**k


def model(a=0.48, sigma=10.0, xi0=0.0, T=24):
    return s.PriceModel((50.0,) * T, a, sigma, 1.0, xi0)


class TestGaussHermite:
    def test_single_node(self):
        rule = s.gauss_hermite(1, 2.0)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [1.0]

    def test_two_nodes_unit_sigma(self):
        rule = s.gauss_hermite(2, 1.0)
        assert rule.nodes == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_moments_exact_to_degree_reference(self):
        # 1e-10 is read relative for the large even moments (13!! ~ 1e5),
        # where double-precision summation alone exceeds 1e-10 absolute
        rule = s.gauss_hermite(8, 1.0)
        for k in range(16):
            got = np.sum(rule.weights * rule.nodes**k)
            want = gaussian_moment(k, 1.0)
            assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))

    @pytest.mark.parametrize("n", [3, 8, 12])
    def test_moments_exact_to_degree(self, n):
        sigma = 1.7
        rule = s.gauss_hermite(n, sigma)
        for k in range(2 * n):
            got = np.sum(rule.weights * rule.nodes**k)
            want = gaussian_moment(k, sigma)
            # cancellation noise scales with the absolute-moment magnitude
            scale = float(np.sum(rule.weights * np.abs(rule.nodes) ** k))
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, scale))

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            s.gauss_hermite(0, 1.0)
        with pytest.raises(ValueError):
            s.gauss_hermite(2, 0.0)
        with pytest.raises(InvalidOrderError):
            s.build_chain(model(), 0)

    def test_order_whose_weights_underflow(self):
        # numpy's weights underflow to 0 or NaN from about 371 points; NaN
        # weights passed every "<= 0" and "> 1e-12" check downstream
        with pytest.raises(InvalidOrderError, match="underflow"):
            s.gauss_hermite(400, 1.0)
        with pytest.raises(InvalidOrderError, match="underflow"):
            s.build_chain(model(), 400)

    def test_weights_sum_to_one(self):
        for n in (1, 2, 5, 16, 40):
            rule = s.gauss_hermite(n, 3.0)
            assert abs(rule.weights.sum() - 1.0) <= 1e-12
            assert np.all(np.diff(rule.nodes) > 0)


class TestBuildChain:
    def test_identity_importance_ratio(self):
        # a = 0: the stationary std is the innovation std, so raw weights
        # are the quadrature weights
        m = model(a=0.0, sigma=2.0)
        chain = s.build_chain(m, 4)
        rule = s.gauss_hermite(4, 2.0)
        for mat in chain.transitions:
            assert np.allclose(mat, rule.weights[None, :], atol=1e-12)

    def test_single_node_chain(self):
        chain = s.build_chain(model(a=0.5, xi0=2.0), 1)
        assert chain.node_count(0) == 1 and chain.node_count(1) == 1
        for mat in chain.transitions:
            assert mat.tolist() == [[1.0]]

    def test_rows_are_probability_vectors(self):
        chain = s.build_chain(model(), 8)
        for mat in chain.transitions:
            assert np.all(mat >= 0)
            assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12

    def test_conditional_moments_n8(self):
        m = model()
        chain = s.build_chain(m, 8)
        a, sig = m.ar_coefficient, m.innovation_std
        nodes = chain.nodes[1]
        P = chain.transitions[1]
        m1 = P @ nodes
        m2 = P @ nodes**2
        var = m2 - m1**2
        for j in range(8):
            target = a * nodes[j]
            assert abs(m1[j] - target) <= 0.02 * abs(target)
            assert abs(var[j] - sig**2) <= 0.05 * sig**2

    def test_moment_error_monotone_in_n(self):
        m = model()
        a, sig = m.ar_coefficient, m.innovation_std
        errs = []
        for n in (1, 2, 4, 8, 16):
            chain = s.build_chain(m, n)
            nodes = chain.nodes[1]
            P = chain.transitions[1]
            m1 = P @ nodes
            var = P @ nodes**2 - m1**2
            err = max(
                np.max(np.abs(m1 - a * nodes)) / sig,
                np.max(np.abs(var - sig**2)) / sig**2,
            )
            errs.append(err)
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_deterministic_construction(self):
        m = model()
        c1 = s.build_chain(m, 8)
        c2 = s.build_chain(m, 8)
        for a, b in zip(c1.transitions, c2.transitions):
            assert np.array_equal(a, b)
        for a, b in zip(c1.nodes, c2.nodes):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("sigma", [10.0, 0.0], ids=["gaussian", "dirac"])
    def test_stages_after_the_root_share_one_matrix(self, sigma):
        # stages 1..T share one node set, so every transition after the
        # root's is stage 1's
        chain = s.build_chain(model(sigma=sigma), 8)
        assert chain.transitions[0].shape == (1, 8)
        for t in range(1, chain.horizon):
            assert np.array_equal(chain.transitions[t], chain.transitions[1])

    def test_underflow_detection(self):
        # |a| >= 1: the conditional density is centered far outside the nodes
        m = model(a=100.0, sigma=0.001, xi0=1.0)
        with pytest.raises(NumericalUnderflowError):
            s.build_chain(m, 4)
        # a root far outside the stationary nodes
        with pytest.raises(NumericalUnderflowError, match="stage 0"):
            s.build_chain(model(xi0=1e4), 8)

    def test_zero_innovation_dirac(self):
        m = model(a=0.5, sigma=0.0, xi0=1.0)
        chain = s.build_chain(m, 3)
        for mat in chain.transitions:
            assert np.all((mat == 0.0) | (mat == 1.0))
            assert np.all(mat.sum(axis=1) == 1.0)

    def test_root_holds_initial_deviation(self):
        chain = s.build_chain(model(xi0=-3.5), 2)
        assert chain.nodes[0].tolist() == [-3.5]

    def test_output_shapes(self):
        chain = s.build_chain(model(T=6), 5)
        assert chain.horizon == 6
        assert len(chain.nodes) == 7
        assert chain.transitions[0].shape == (1, 5)
        assert chain.transitions[3].shape == (5, 5)


class TestQuadratureRule:
    def test_nan_fails_its_checks(self):
        # a NaN compares false, so every check must pass only good values
        with pytest.raises(ValueError, match="positive"):
            s.QuadratureRule(nodes=[0.0, 1.0], weights=[np.nan, np.nan])
        with pytest.raises(ValueError, match="increasing"):
            s.QuadratureRule(nodes=[np.nan, 1.0], weights=[0.5, 0.5])
        assert s.QuadratureRule(nodes=[0.0, 1.0], weights=[0.5, 0.5]).nodes.tolist() == [0.0, 1.0]


class TestMarkovChain:
    def test_nan_matrix_is_not_row_stochastic(self):
        nodes = [np.zeros(1), np.array([-1.0, 1.0])]
        with pytest.raises(ValueError, match="row-stochastic"):
            s.MarkovChain(nodes, [np.array([[np.nan, np.nan]])])
        with pytest.raises(ValueError, match="row-stochastic"):
            s.MarkovChain(nodes, [np.array([[np.nan, 1.0]])])
        assert s.MarkovChain(nodes, [np.array([[0.5, 0.5]])]).horizon == 1


class TestNearestNode:
    def test_basic(self):
        chain = s.build_chain(model(a=0.0, sigma=1.0), 3)
        # nodes approx [-1.73, 0, 1.73]
        assert s.nearest_node(chain, 1, 0.4) == 1

    def test_tie_breaks_to_smaller_index(self):
        chain = s.build_chain(model(a=0.0, sigma=1.0), 2)
        # nodes are symmetric +-sigma; 0 is equidistant
        assert s.nearest_node(chain, 1, 0.0) == 0
        got = s.nearest_node(chain, 1, np.array([0.0, 0.3, -0.3, 0.0]))
        assert got.tolist() == [0, 1, 0, 0]

    def test_array_tie_between_inner_nodes(self):
        chain = s.build_chain(model(a=0.0, sigma=1.0), 3)
        lo, mid, hi = chain.nodes[1]
        ties = np.array([(lo + mid) / 2, (mid + hi) / 2])
        scalar = [s.nearest_node(chain, 1, float(x)) for x in ties]
        assert s.nearest_node(chain, 1, ties).tolist() == scalar

    def test_matches_linear_scan(self):
        chain = s.build_chain(model(), 8)
        rng = np.random.default_rng(4)
        for _ in range(300):
            t = int(rng.integers(1, chain.horizon + 1))
            x = float(rng.normal(0, 25))
            idx = s.nearest_node(chain, t, x)
            dists = [abs(v - x) for v in chain.nodes[t]]
            assert dists[idx] == min(dists)

    def test_array_matches_scalar(self):
        chain = s.build_chain(model(), 8)
        x = np.random.default_rng(5).normal(0, 25, 200)
        for t in (1, chain.horizon):
            want = [s.nearest_node(chain, t, float(v)) for v in x]
            assert s.nearest_node(chain, t, x).tolist() == want

    def test_stage_out_of_range(self):
        chain = s.build_chain(model(), 2)
        with pytest.raises(StageOutOfRangeError):
            s.nearest_node(chain, 0, 0.0)
        with pytest.raises(StageOutOfRangeError):
            s.nearest_node(chain, chain.horizon + 1, np.zeros(3))


class TestNodePaths:
    def test_matches_per_stage_searchsorted(self):
        chain = s.build_chain(model(), 6)
        draws = np.random.default_rng(8).random((300, chain.horizon))
        draws[0] = 1.0  # above every rounded row total: clipped to the last node
        paths = chain.node_paths(draws)
        for path, u in zip(paths, draws):
            j = 0
            for t in range(chain.horizon):
                row = np.cumsum(chain.transitions[t][j])
                j = min(int(np.searchsorted(row, u[t])), chain.node_count(t + 1) - 1)
                assert path[t] == j
        assert np.array_equal(chain.node_paths(draws[7]), paths[7])

    def test_wrong_length_rejected(self):
        chain = s.build_chain(model(), 3)
        with pytest.raises(ValueError):
            chain.node_paths(np.zeros(chain.horizon + 1))


def test_chain_json_export():
    chain = s.build_chain(model(T=4), 3)
    doc = json.loads(chain.to_json())
    assert doc["horizon"] == 4
    assert len(doc["nodes"]) == 5
    assert len(doc["transitions"]) == 4
    assert np.allclose(np.array(doc["transitions"][1]).sum(axis=1), 1.0)
