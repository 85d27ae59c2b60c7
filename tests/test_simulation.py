import numpy as np
import pytest

import storagesddp as s
from storagesddp import simulation
from storagesddp.errors import DegenerateSampleError
from oracles import scenario_major_evaluation


class TestEvaluateOutOfSample:
    def test_same_seed_identical(self, toy_trained):
        policy, _ = toy_trained
        a = s.evaluate_out_of_sample(policy, 50, rng_seed=5)
        b = s.evaluate_out_of_sample(policy, 50, rng_seed=5)
        assert np.array_equal(a.terminal_wealths, b.terminal_wealths)
        assert a.mean_utility == b.mean_utility

    def test_scenario_set_independent_of_count(self, toy_trained):
        # seed XOR k: the first 20 scenarios of a 50-scenario run coincide
        policy, _ = toy_trained
        a = s.evaluate_out_of_sample(policy, 20, rng_seed=5)
        b = s.evaluate_out_of_sample(policy, 50, rng_seed=5)
        assert np.array_equal(a.terminal_wealths, b.terminal_wealths[:20])

    def test_deterministic_model_matches_bound(self):
        cfg = s.config_from_dict(
            {
                "horizon": 6,
                "market": {"day_ahead": [40.0, 35.0, 50.0, 62.0, 55.0, 45.0]},
                "price": {"a": 0.48, "sigma_eps": 0.0, "xi0": 0.0},
                "sddp": {"quadrature_points": 1, "iterations": 30, "seed": 0},
            }
        )
        problem = s.build_problem(cfg)
        chain = s.build_chain_for(cfg)
        policy, log = s.train(problem, chain, 30, 0)
        rep = s.evaluate_out_of_sample(policy, 10, rng_seed=3)
        assert rep.mean_utility == pytest.approx(log.final_bound(), abs=1e-6)
        assert rep.std_error == pytest.approx(0.0, abs=1e-12)

    def test_toy_mean_below_bound_many_seeds(self, toy_trained):
        policy, log = toy_trained
        bound = log.final_bound()
        for seed in range(20):
            rep = s.evaluate_out_of_sample(policy, 400, rng_seed=seed)
            assert rep.mean_utility <= bound + 2.0 * rep.std_error

    def test_report_fields(self, toy_trained):
        policy, _ = toy_trained
        rep = s.evaluate_out_of_sample(policy, 64, rng_seed=1)
        assert len(rep.terminal_wealths) == 64
        assert rep.terminal_wealths.shape == (64,)
        assert rep.utilities.shape == (64,)
        assert rep.std_error >= 0.0
        assert rep.mean_objective == pytest.approx(rep.terminal_wealths.mean())
        assert rep.mean_utility == pytest.approx(rep.utilities.mean())

    def test_in_sample_gap_direction(self, trained_n8):
        policy, _ = trained_n8
        rep = s.evaluate_out_of_sample(policy, 600, rng_seed=9)
        assert rep.in_sample_mean >= rep.mean_utility - 4.0 * rep.std_error


class TestMatchesScenarioMajorOracle:
    """Stage-major lane batches reproduce the scalar scenario loop bit for bit."""

    @pytest.mark.parametrize("fixture, n", [("toy_trained", 400), ("trained_n8", 200)])
    @pytest.mark.parametrize("small_blocks", [False, True])
    def test_bit_equal(self, fixture, n, small_blocks, request, monkeypatch):
        policy = request.getfixturevalue(fixture)[0]
        if small_blocks:
            monkeypatch.setattr(simulation, "_LANE_ELEMENTS", 200)
            assert 1 < simulation._lane_block(policy) < n // 3
        else:
            assert simulation._lane_block(policy) >= n
        rep = s.evaluate_out_of_sample(policy, n, rng_seed=11)
        wealths, utils, in_sample = scenario_major_evaluation(policy, n, 11)
        assert np.array_equal(rep.terminal_wealths, wealths)
        assert np.array_equal(rep.utilities, utils)
        assert rep.in_sample_mean == float(in_sample.mean())


def test_node_prices_are_bid_ask_at_node_values(trained_n8):
    # in-sample lanes trade at bid_ask of their node values, which must be
    # each node's subproblem prices bit for bit
    policy, _ = trained_n8
    model, chain = policy.problem.price_model, policy.chain
    for t in range(1, policy.horizon + 1):
        bid, ask = s.bid_ask(model, t, chain.nodes[t])
        for j in range(chain.node_count(t)):
            data = policy.subproblem(t, j).data
            assert (bid[j], ask[j]) == (data.bid, data.ask), (t, j)


def test_evaluation_writes_no_policy_subproblem(toy_problem, toy_chain, toy_trained):
    # a fresh policy's node subproblems hold their prices and cut sets, and
    # every non-terminal cut set holds a non-empty envelope (the
    # terminal ones share the zero line); evaluation must leave every
    # attribute and every envelope exactly so
    policy = s.Policy(toy_problem, toy_chain, toy_trained[0].pools)
    subs = [
        policy.subproblem(t, j)
        for t in range(1, policy.horizon + 1)
        for j in range(toy_chain.node_count(t))
    ]

    def state(sub):
        out = {
            k: v.tobytes() if isinstance(v, np.ndarray) else list(v) if isinstance(v, list) else v
            for k, v in vars(sub).items()
        }
        out["cutset.envelope"] = sub.cutset.envelope
        return out

    before = [state(sub) for sub in subs]
    assert all(b["cutset.envelope"].slopes for b in before[: -toy_chain.node_count(policy.horizon)])
    s.evaluate_out_of_sample(policy, 60, rng_seed=2)
    after = [state(sub) for sub in subs]
    assert after == before
    assert all(a.get("cutset.envelope") is b.get("cutset.envelope") for a, b in zip(after, before))


class TestKernelDensity:
    def test_concentrated_sample(self):
        rng = np.random.default_rng(0)
        x = 5.0 + 1e-4 * rng.standard_normal(500)
        est = s.kernel_density(x)
        integral = np.trapezoid(est.density, est.grid)
        assert abs(integral - 1.0) <= 1e-3
        assert abs(est.grid[np.argmax(est.density)] - 5.0) < 1e-3

    def test_standard_normal_recovery(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100_000)
        est = s.kernel_density(x)
        pdf = np.exp(-0.5 * est.grid**2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(est.density - pdf)) < 0.02
        assert abs(np.trapezoid(est.density, est.grid) - 1.0) <= 1e-3

    def test_bimodal_mixture(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(-5, 1, 5000), rng.normal(5, 1, 5000)])
        est = s.kernel_density(x)
        d = est.density
        peaks = [
            est.grid[i]
            for i in range(1, len(d) - 1)
            if d[i] > d[i - 1] and d[i] > d[i + 1] and d[i] > 0.3 * d.max()
        ]
        assert len(peaks) == 2
        assert abs(peaks[0] + 5.0) < 0.5 and abs(peaks[1] - 5.0) < 0.5

    def test_silverman_bandwidth(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000)
        est = s.kernel_density(x)
        want = 1.06 * np.std(x, ddof=1) * 1000 ** (-0.2)
        assert est.bandwidth == pytest.approx(want)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            s.kernel_density(np.array([1.0]))
        with pytest.raises(DegenerateSampleError):
            s.kernel_density(np.full(10, 3.0))

