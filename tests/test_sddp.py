import json
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import storagesddp as s
from storagesddp.errors import CheckpointError, ConditionViolatedError, NotTrainedError
from storagesddp.config import train_from_config
from storagesddp.sddp import CutPool, _seed_cuts, best_case_trading, checkpoint_fingerprint
from oracles import Cut, chain_dp, dp_cost_to_go, feedback_policy_value, policy_chain_value


class TestTrainToy:
    def test_bound_matches_dp_oracle(self, toy_problem, toy_chain, toy_trained):
        policy, log = toy_trained
        phi, _ = chain_dp(toy_problem, toy_chain)
        assert abs(log.final_bound() - phi) <= 1e-3

    def test_bound_equals_achieved_policy_value(self, toy_trained):
        policy, log = toy_trained
        achieved = policy_chain_value(policy)
        assert achieved == pytest.approx(log.final_bound(), abs=1e-6)

    def test_bound_monotone_nonincreasing(self, toy_trained):
        _, log = toy_trained
        b = np.array(log.bounds)
        assert np.all(np.diff(b) <= 1e-12)

    def test_determinism(self, toy_problem, toy_chain):
        p1, l1 = s.train(toy_problem, toy_chain, 40, 123)
        p2, l2 = s.train(toy_problem, toy_chain, 40, 123)
        assert l1.bounds == l2.bounds
        assert l1.path_objectives == l2.path_objectives
        for t in range(toy_chain.horizon):
            for j in range(toy_chain.node_count(t)):
                c1 = p1.pools.get(t, j).arrays()
                c2 = p2.pools.get(t, j).arrays()
                assert all(np.array_equal(a, b) for a, b in zip(c1, c2))

    def test_different_seed_changes_paths(self, toy_problem, toy_chain):
        _, l1 = s.train(toy_problem, toy_chain, 40, 1)
        _, l2 = s.train(toy_problem, toy_chain, 40, 2)
        assert l1.path_objectives != l2.path_objectives

    def test_cut_pools_never_exceed_true_cost_to_go(self, toy_problem, toy_chain, toy_trained):
        policy, _ = toy_trained
        _, G = chain_dp(toy_problem, toy_chain)
        rho = toy_problem.utility.risk_aversion
        cap = toy_problem.battery.capacity
        rng = np.random.default_rng(99)
        for _ in range(1000):
            t = int(rng.integers(0, toy_chain.horizon))
            j = int(rng.integers(0, toy_chain.node_count(t)))
            xm = float(rng.uniform(-40, 40))
            xe = float(rng.uniform(0, cap))
            approx = policy.pools.get(t, j).value(xe) - xm
            truth = dp_cost_to_go(G, cap, rho, t, j, xm, xe)
            # grid DP overestimates the cost side, so the slack stays one-sided
            assert approx <= truth + 1e-6

    def test_bound_dominates_feasible_policies(self, toy_problem, toy_chain, toy_trained):
        _, log = toy_trained
        bound = log.final_bound()
        battery = toy_problem.battery
        rng = np.random.default_rng(17)
        for trial in range(50):
            fb = rng.uniform(0.0, 1.0)
            fs = rng.uniform(0.0, 1.0)

            def rule(t, node, state, fb=fb, fs=fs):
                cap_room = battery.capacity - state[1]
                buy = min(battery.max_charge, max(0.0, cap_room / battery.charge_eff)) * fb
                sell = min(battery.max_discharge, state[1] / battery.discharge_eff) * fs
                return buy, sell

            value = feedback_policy_value(rule, toy_problem, toy_chain)
            assert value <= bound + 1e-9


def test_every_cut_has_wealth_slope_minus_one(toy_trained, trained_n8):
    for policy, _ in (toy_trained, trained_n8):
        for t in range(policy.horizon):
            for j in range(policy.chain.node_count(t)):
                _, gw, _ = policy.pools.get(t, j).arrays()
                assert gw.size and (gw == -1.0).all(), (t, j)


def test_initial_wealth_only_shifts_the_certainty_equivalent():
    # wealth is not bounded and only shifts a cost-to-go: the default
    # config trains at 50,000 EUR of initial wealth on the pools of the
    # zero-wealth run, and its root certainty equivalent is 50,000 EUR higher
    cfg = s.RunConfig()
    poor, _ = train_from_config(cfg)
    rich_cfg = replace(cfg, utility=replace(cfg.utility, initial_wealth=50_000.0))
    rich, _ = train_from_config(rich_cfg)
    for t in range(poor.horizon):
        for j in range(poor.chain.node_count(t)):
            want, got = poor.pools.get(t, j).arrays(), rich.pools.get(t, j).arrays()
            assert all(np.array_equal(a, b) for a, b in zip(want, got)), (t, j)
    ce = rich.root_certainty_equivalent() - 50_000.0
    assert ce == pytest.approx(poor.root_certainty_equivalent(), rel=0.0, abs=1e-8)


class TestSeedCuts:
    def test_best_case_trading_matches_lp(self):
        # single-constraint LP worked by hand: 0.38 MWh charged at 20
        # plus 0.04 MWh charged at 40 both serve the 60-bid hour
        bids = np.array([60.0, 30.0])
        asks = np.array([20.0, 40.0])
        profit, marginal = best_case_trading(bids, asks, 0.4, 0.4, 0.95, 1.05)
        want = 0.38 * (60.0 / 1.05 - 20.0 / 0.95) + 0.04 * (60.0 / 1.05 - 40.0 / 0.95)
        assert profit == pytest.approx(want, abs=1e-12)
        # one free unit displaces the 40-priced charge
        assert marginal == pytest.approx(40.0 / 0.95, abs=1e-12)

    def test_best_case_trading_matches_scipy_lp(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(1, 10))
            mids = rng.uniform(-30, 90, n)
            bids, asks = mids - 1.0, mids + 1.0
            ub, us = rng.uniform(0.1, 1.5, 2)
            cp, cm = rng.uniform(0.5, 1.0), rng.uniform(1.0, 1.5)
            profit, marginal = best_case_trading(bids, asks, ub, us, cp, cm)
            c = np.concatenate([asks, -bids])
            A = np.concatenate([-cp * np.ones(n), cm * np.ones(n)])[None, :]
            for e0, want_slope in ((0.0, None), (0.6, None)):
                res = linprog(
                    c, A_ub=A, b_ub=[e0], bounds=[(0, ub)] * n + [(0, us)] * n, method="highs"
                )
                assert res.status == 0
                if e0 == 0.0:
                    assert profit == pytest.approx(-res.fun, abs=1e-8)
                else:
                    # tangent from zero dominates by concavity
                    assert profit + marginal * e0 >= -res.fun - 1e-8

    def test_negative_ask_collected(self):
        profit, _ = best_case_trading(
            np.array([0.0]), np.array([-5.0]), 0.4, 0.4, 0.95, 1.05
        )
        assert profit == pytest.approx(2.0, abs=1e-12)

    def test_seeds_are_valid_bounds(self, toy_problem, toy_chain):
        # seed cuts must not exceed the true cost-to-go
        pools = CutPool(toy_chain, toy_problem.battery.capacity)
        _seed_cuts(toy_problem, toy_chain, pools)
        _, G = chain_dp(toy_problem, toy_chain)
        rho = toy_problem.utility.risk_aversion
        cap = toy_problem.battery.capacity
        rng = np.random.default_rng(2)
        for _ in range(300):
            t = int(rng.integers(0, toy_chain.horizon))
            j = int(rng.integers(0, toy_chain.node_count(t)))
            xm = float(rng.uniform(-30, 30))
            xe = float(rng.uniform(0, cap))
            seed = pools.get(t, j)
            assert len(seed) == 1
            truth = dp_cost_to_go(G, cap, rho, t, j, xm, xe)
            assert seed.value(xe) - xm <= truth + 1e-6


class TestPolicyOperations:
    def test_decide_terminal_examples(self, toy_trained):
        policy, _ = toy_trained
        T = policy.horizon
        assert policy.subproblem(T, 0).solve((0.0, 0.0)).controls == (0.0, 0.0)
        buy, sell = policy.subproblem(T, 1).solve((0.0, 1.0)).controls
        assert sell == pytest.approx(min(0.4, 1.0 / 1.05), abs=1e-9)
        assert buy == pytest.approx(0.0, abs=1e-9)

    def test_decide_is_history_free(self, toy_trained):
        policy, _ = toy_trained
        state = (1.5, 0.3)
        first = policy.subproblem(2, 1).solve(state).controls
        # interleave unrelated queries, then repeat
        policy.subproblem(1, 0).solve((0.0, 0.0))
        policy.subproblem(3, 0).solve((-2.0, 0.9))
        assert policy.subproblem(2, 1).solve(state).controls == first

    def test_decide_is_reentrant(self, trained_n8):
        # solves only read the published envelopes: 4000 queries answered by
        # 4 threads switching every microsecond equal the serial answers
        policy, _ = trained_n8
        rng = np.random.default_rng(8)
        cap = policy.problem.battery.capacity
        queries = []
        for _ in range(4000):
            t = int(rng.integers(1, policy.horizon + 1))
            j = int(rng.integers(0, policy.chain.node_count(t)))
            queries.append((t, j, (float(rng.uniform(-50, 50)), float(rng.uniform(0, cap)))))
        serial = [policy.subproblem(t, j).solve(x).controls for t, j, x in queries]
        answers = [None] * len(queries)

        def work(part):
            for i in range(part, len(queries), 4):
                t, j, x = queries[i]
                answers[i] = policy.subproblem(t, j).solve(x).controls

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert answers == serial

    def test_decide_matches_oracle_argmin(self, toy_problem, toy_chain, toy_trained):
        from oracles import grid_stage_minimum

        policy, _ = toy_trained
        data = policy.subproblem(1, 0).data
        cuts = [Cut(*c) for c in zip(*policy.pools.get(1, 0).arrays())]
        got = policy.subproblem(1, 0).solve((0.0, 0.0)).controls
        _, want = grid_stage_minimum(data, cuts, (0.0, 0.0), n=401, problem=toy_problem)
        assert got[0] == pytest.approx(want[0], abs=2e-3)
        assert got[1] == pytest.approx(want[1], abs=2e-3)

    def test_bound_accessors(self, toy_trained):
        policy, log = toy_trained
        assert policy.root_bound() == pytest.approx(log.final_bound(), abs=1e-12)
        with pytest.raises(NotTrainedError):
            s.TrainingLog().final_bound()

    def test_refuses_when_spread_condition_fails(self):
        cfg = s.config_from_dict(
            {
                "horizon": 2,
                "market": {"day_ahead": [-30.0, -30.0]},
                "price": {"a": 0.0, "sigma_eps": 1.0},
                "sddp": {"quadrature_points": 2, "iterations": 5, "seed": 0},
            }
        )
        problem = s.build_problem(cfg)
        chain = s.build_chain_for(cfg)
        with pytest.raises(ConditionViolatedError):
            s.train(problem, chain, 5, 0)


class TestCheckpoints:
    @pytest.fixture
    def saved(self, toy_trained, tmp_path):
        policy, _ = toy_trained
        path = tmp_path / "ckpt.json"
        s.sddp.save_checkpoint(policy, str(path))
        return path

    def test_roundtrip(self, toy_problem, toy_chain, toy_trained, saved):
        policy, log = toy_trained
        pools = s.sddp.load_checkpoint(str(saved), toy_problem, toy_chain)
        restored = s.Policy(toy_problem, toy_chain, pools)
        assert restored.root_bound() == pytest.approx(policy.root_bound(), abs=1e-12)
        assert pools.total_cuts() == policy.pools.total_cuts()
        fingerprint = checkpoint_fingerprint(toy_problem, toy_chain)
        assert pools.to_json(fingerprint) == saved.read_text()
        assert json.loads(saved.read_text())["format_version"] == s.sddp.CHECKPOINT_VERSION

    def test_roundtrip_keeps_the_trained_lines(self, trained_n8, tmp_path):
        # the checkpoint holds each node's envelope lines and breaks; reloading
        # them gives the trained envelope bit for bit, heights included, and
        # the same root bound
        policy, _ = trained_n8
        path = tmp_path / "ckpt.json"
        s.sddp.save_checkpoint(policy, str(path))
        pools = s.sddp.load_checkpoint(str(path), policy.problem, policy.chain)
        levels = json.loads(path.read_text())["pools"]
        assert sum(map(len, levels)) == 185
        for t, level in enumerate(levels):
            for j, rec in enumerate(level):
                trained = policy.pools.get(t, j).envelope
                loaded = pools.get(t, j).envelope
                assert len(rec["cuts"]) == len(trained.slopes)
                assert len(rec["breaks"]) == len(trained.breaks)
                assert [[v.hex() for v in f] for f in loaded] == [
                    [v.hex() for v in f] for f in trained
                ]
        restored = s.Policy(policy.problem, policy.chain, pools)
        assert restored.root_bound() == policy.root_bound()

    def test_layout_is_by_position(self, toy_trained, toy_chain, saved):
        # pools[t][j] is node j of stage t; no key repeats a position
        policy, _ = toy_trained
        doc = json.loads(saved.read_text())
        assert sorted(doc) == ["fingerprint", "format_version", "pools"]
        assert doc["format_version"] == 5
        assert [len(level) for level in doc["pools"]] == [
            toy_chain.node_count(t) for t in range(toy_chain.horizon)
        ]
        for t, level in enumerate(doc["pools"]):
            for j, rec in enumerate(level):
                assert sorted(rec) == ["breaks", "cuts"]
                assert rec["breaks"] == policy.pools.get(t, j).envelope.breaks

    def test_horizon_mismatch_rejected(self, toy_problem, saved):
        other = s.build_chain(s.PriceModel((50.0,) * 5, 0.4, 1.0, 1.0), 2)
        with pytest.raises(CheckpointError, match="horizon"):
            s.sddp.load_checkpoint(str(saved), toy_problem, other)

    def test_nan_intercept_rejected(self, toy_problem, toy_chain, saved):
        doc = json.loads(saved.read_text())
        doc["pools"][0][0]["cuts"][0][0] = float("nan")
        saved.write_text(json.dumps(doc))
        assert "NaN" in saved.read_text()
        with pytest.raises(ValueError, match="cut coefficients must be finite"):
            s.sddp.load_checkpoint(str(saved), toy_problem, toy_chain)

    @pytest.mark.parametrize(
        "change, match",
        [
            ("rho", "trained on another"),
            ("capacity", "trained on another"),
            ("chain", "trained on another"),
            ("absent version", "format version None"),
            ("old version", "format version 1"),
            ("missing pools", "lacks the key 'pools'"),
            ("format 3", "format version 3"),
            ("format 4", "format version 4"),
            ("missing cut key", "malformed checkpoint cuts"),
            ("missing breaks", "malformed checkpoint cuts: 'breaks'"),
            ("empty pool", "stage 1, node 0 has no cuts"),
            ("slope order", "stage 0, node 0 is not an envelope"),
            ("break order", "stage 0, node 0 is not an envelope"),
            ("nan break", "stage 0, node 0 is not an envelope"),
            ("lines miss their break", "stage 0, node 0 is not an envelope: lines 0 and 1"),
            ("break count", "stage 1, node 0 is not an envelope"),
            ("first break", "stage 1, node 0 is not an envelope"),
            ("last break", "stage 1, node 0 is not an envelope"),
            ("cuts not rows", "malformed checkpoint cuts"),
            ("false break", "stage 0, node 0 is not an envelope"),
            ("true cut", "malformed checkpoint cuts: cuts are not rows of two numbers"),
            ("missing node", "stage 2 is not a list of the chain's 2 nodes"),
            ("extra stage", "checkpoint horizon 4 != chain horizon 3"),
            ("stage not a list", "stage 1 is not a list of the chain's 2 nodes"),
            ("truncated", "not valid JSON"),
            ("missing file", "cannot read checkpoint"),
        ],
    )
    def test_refusals_are_typed(self, toy_problem, toy_chain, saved, change, match):
        problem, chain = toy_problem, toy_chain
        doc = json.loads(saved.read_text())
        if change == "rho":
            problem = s.StorageProblem(
                problem.price_model, problem.battery, s.UtilitySpec(risk_aversion=0.3)
            )
        elif change == "capacity":
            problem = s.StorageProblem(
                problem.price_model, s.BatterySpec(capacity=4.0), problem.utility
            )
        elif change == "chain":
            chain = s.build_chain(problem.price_model, 3)
        elif change == "absent version":
            del doc["format_version"]
        elif change == "old version":
            doc["format_version"] = 1
        elif change == "missing pools":
            del doc["pools"]
        elif change == "format 3":
            # rows of three coefficients that the loader spliced in again
            doc["format_version"] = 3
            for level in doc["pools"]:
                for rec in level:
                    rec["cuts"] = [[a, -1.0, g] for a, g in rec.pop("cuts")]
                    del rec["breaks"]
        elif change == "format 4":
            # one list of records that name their stage and node
            doc["format_version"] = 4
            doc["horizon"] = len(doc["pools"])
            doc["pools"] = [
                {"stage": t, "node": j, **rec}
                for t, level in enumerate(doc["pools"])
                for j, rec in enumerate(level)
            ]
        elif change == "missing cut key":
            # a row of one coefficient
            del doc["pools"][0][0]["cuts"][0][1]
        elif change == "missing breaks":
            del doc["pools"][1][0]["breaks"]
        elif change == "empty pool":
            # a node without cuts has no value
            doc["pools"][1][0]["cuts"] = []
        elif change == "cuts not rows":
            # the rows of a pool, flattened
            doc["pools"][1][0]["cuts"] = sum(doc["pools"][1][0]["cuts"], [])
        elif change == "slope order":
            # stage 0 holds two lines: in decreasing slope they are no envelope
            doc["pools"][0][0]["cuts"].reverse()
        elif change == "break order":
            doc["pools"][0][0]["breaks"][1] = doc["pools"][0][0]["breaks"][2]
        elif change == "nan break":
            doc["pools"][0][0]["breaks"][1] = float("nan")
        elif change == "lines miss their break":
            # increasing slopes and breaks, but line 1 is above line 0 left
            # of their break, where line 0 would be read
            doc["pools"][0][0]["cuts"] = [[-10.0, 0.0], [-10.0, 5.0]]
            doc["pools"][0][0]["breaks"][1] = 0.9
        elif change == "break count":
            breaks = doc["pools"][1][0]["breaks"]
            breaks.insert(1, 0.5 * breaks[1])
        elif change == "first break":
            doc["pools"][1][0]["breaks"][0] = 1e-9
        elif change == "last break":
            doc["pools"][1][0]["breaks"][-1] *= 0.5
        elif change == "false break":
            # JSON false reads as 0 in Python, but is no number here
            doc["pools"][0][0]["breaks"][0] = False
        elif change == "true cut":
            doc["pools"][1][0]["cuts"][0][1] = True
        elif change == "missing node":
            del doc["pools"][2][1]
        elif change == "extra stage":
            doc["pools"].append(doc["pools"][2])
        elif change == "stage not a list":
            # a stage's one node without its list
            doc["pools"][1] = doc["pools"][1][0]
        if change not in ("rho", "capacity", "chain", "truncated", "missing file"):
            saved.write_text(json.dumps(doc))
        if change == "truncated":
            saved.write_text(saved.read_text()[:200])
        if change == "missing file":
            saved.unlink()
        with pytest.raises(CheckpointError, match=match) as err:
            s.sddp.load_checkpoint(str(saved), problem, chain)
        assert isinstance(err.value, s.errors.DataError)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("part", ["nodes", "transitions"])
    def test_fingerprint_reads_every_chain_array(self, default_problem, tmp_path, part):
        # a hand-built copy of the chain has its fingerprint; one changed
        # entry of stage 5 alone changes it, and the checkpoint is refused
        chain = s.build_chain(default_problem.price_model, 2)
        policy, _ = s.train(default_problem, chain, 3, 0)
        path = tmp_path / "ckpt.json"
        s.sddp.save_checkpoint(policy, str(path))

        def rebuilt(arrays):
            return s.MarkovChain(arrays["nodes"], arrays["transitions"])

        arrays = {"nodes": list(chain.nodes), "transitions": list(chain.transitions)}
        arrays = {k: [a.copy() for a in v] for k, v in arrays.items()}
        same = rebuilt(arrays)
        assert checkpoint_fingerprint(default_problem, same) == checkpoint_fingerprint(
            default_problem, chain
        )
        assert s.sddp.load_checkpoint(str(path), default_problem, same).total_cuts() == (
            policy.pools.total_cuts()
        )
        changed = arrays[part][5] = arrays[part][5].copy()
        # one node moves, or 0.001 of probability moves within a row
        changed.flat[0] += 1e-3
        if part == "transitions":
            changed.flat[1] -= 1e-3
        other = rebuilt(arrays)
        assert checkpoint_fingerprint(default_problem, other) != checkpoint_fingerprint(
            default_problem, chain
        )
        with pytest.raises(CheckpointError, match="trained on another"):
            s.sddp.load_checkpoint(str(path), default_problem, other)

    def test_failed_write_keeps_existing_checkpoint(self, toy_trained, saved, monkeypatch):
        policy, _ = toy_trained
        before = saved.read_bytes()

        def broken(self, fingerprint):
            raise RuntimeError("serialization failed")

        monkeypatch.setattr(CutPool, "to_json", broken)
        with pytest.raises(RuntimeError, match="serialization failed"):
            s.sddp.save_checkpoint(policy, str(saved))
        assert saved.read_bytes() == before
        assert os.listdir(saved.parent) == [saved.name]


@pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
def test_cutset_append_rejects_infinite_coefficients(bad):
    cuts = s.CutSet(1.0)
    with pytest.raises(ValueError, match="cut coefficients must be finite"):
        cuts.append(0.0, bad)
    assert len(cuts) == 0


def test_bounds_nearly_coincide_for_fine_chains(default_problem):
    # at the reference iteration budget the N=4 and N=8 bounds agree within 1%
    bounds = {}
    for n in (4, 8):
        chain = s.build_chain(default_problem.price_model, n)
        _, log = s.train(default_problem, chain, 1000, 0)
        bounds[n] = log.final_bound()
    assert abs(bounds[8] - bounds[4]) / abs(bounds[4]) < 0.01


def test_training_log_csv(tmp_path, toy_trained):
    _, log = toy_trained
    path = tmp_path / "log.csv"
    log.write_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,bound,path_objective,envelope_lines,seconds"
    assert len(lines) == log.iterations + 1
    for i, line in enumerate(lines[1:]):
        it, bound, path_objective, lines_kept, _ = line.split(",")
        assert int(it) == i + 1
        assert float(bound) == log.bounds[i]
        assert float(path_objective) == log.path_objectives[i]
        assert int(lines_kept) == log.cut_counts[i]
