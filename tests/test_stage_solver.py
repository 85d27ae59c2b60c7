import collections
import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import linprog

import storagesddp as s
from storagesddp import stage_solver
from storagesddp.errors import InfeasibleError, NotTrainedError
from oracles import (
    _OBJECTIVE,
    _TIE_BUY,
    _TIE_SELL,
    Cut,
    LPSubproblem,
    cut_set,
    grid_stage_minimum,
    kelley_terminal,
    lp_wealth_bounds,
    max_wealth_controls,
    next_state,
    stage,
    stage_objective,
    terminal_cost_derivative,
    train_recording,
    zero_cut_set,
)


def random_cuts(rng, n):
    # cuts on the cash-additive cost-to-go: wealth slope -1
    cuts = []
    for _ in range(n):
        ge = rng.normal(0.0, 30.0)
        a = rng.normal(0.0, 15.0)
        cuts.append(Cut(a, -1.0, ge))
    return cuts


def lp_reference(data, cuts, state, problem=None):
    """Solve the documented stage LP with scipy (independent route).

    Its wealth box and floor are the oracles' `lp_wealth_bounds` of ``problem``.
    """
    xm, xe = state
    wealth_cap, floor = lp_wealth_bounds(problem)
    battery = data.battery
    leak = 1.0 - battery.leakage
    cp, cm, u_max = battery.charge_eff, battery.discharge_eff, battery.max_charge
    rows = [
        ([1.0, 0.0, 0.0], 0.0),
        ([-1.0, 0.0, 0.0], -u_max),
        ([0.0, 1.0, 0.0], 0.0),
        ([0.0, -1.0, 0.0], -u_max),
        ([0.0, 0.0, 1.0], floor),
        ([cp, -cm, 0.0], -leak * xe),
        ([-cp, cm, 0.0], leak * xe - battery.capacity),
        ([-data.ask, data.bid, 0.0], -wealth_cap - xm),
        ([data.ask, -data.bid, 0.0], xm - wealth_cap),
    ]
    for c in cuts:
        rows.append(
            (
                [
                    c.grad_wealth * data.ask - c.grad_energy * cp,
                    -c.grad_wealth * data.bid + c.grad_energy * cm,
                    1.0,
                ],
                c.intercept + c.grad_wealth * xm + c.grad_energy * leak * xe,
            )
        )
    A = -np.array([r[0] for r in rows])
    b = -np.array([r[1] for r in rows])
    res = linprog(c=[0, 0, 1], A_ub=A, b_ub=b, bounds=[(None, None)] * 3, method="highs")
    assert res.status == 0, res.message
    return res.fun


class TestAgainstScipy:
    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(120):
            mid = rng.uniform(-5, 90)
            cap, speed = rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0)
            # the one speed fraction, scaled by 1, 0.5 or 1.5 up to at most 1
            speed = min(1.0, speed * (1.0, 0.5, 1.5)[trial % 3])
            data = stage(mid - 1.0, mid + 1.0, cap=cap, speed=speed, leak=(0.0, 0.05)[trial % 2])
            cuts = random_cuts(rng, int(rng.integers(1, 25)))
            state = (rng.uniform(-50, 50), rng.uniform(0, cap))
            sub = s.NodeSubproblem(data, cutset=cut_set(cap, cuts))
            sol = sub.solve(state)
            ref = lp_reference(data, cuts, state)
            assert sol.value == pytest.approx(ref, abs=1e-7 * max(1.0, abs(ref)))

    def test_visited_states_of_high_risk_aversion_policy(self):
        # capacity 2 at rho 0.3: the stage LPs of a trained policy, at 200
        # states its forward passes visit, reach scipy's optimum, and their
        # controls attain it; the LP holds every cut training produced
        cfg = s.config_from_dict(
            {"battery": {"capacity_mwh": 2.0}, "utility": {"rho": 0.3}, "sddp": {"seed": 2}}
        )
        chain = s.build_chain_for(cfg)
        policy, _, recorded = train_recording(s.build_problem(cfg), chain, 150, 2)
        T = chain.horizon
        draws = np.random.default_rng(5).random((10, T))
        visited = 0
        for path in chain.node_paths(draws).tolist():
            state = (0.0, 0.0)
            for t in range(1, T):
                sub = policy.subproblem(t, path[t - 1])
                cuts = recorded[(t, path[t - 1])]
                sol = sub.solve(state)
                ref = lp_reference(sub.data, cuts, state, policy.problem)
                tol = 1e-7 * max(1.0, abs(ref))
                assert sol.value == pytest.approx(ref, abs=tol), (t, state)
                at_controls = stage_objective(
                    sub.data, cuts, state, *sol.controls, problem=policy.problem
                )
                assert at_controls == pytest.approx(ref, abs=tol), (t, state)
                state = sol.next_state
                visited += 1
        assert visited >= 200


class TestSolveStage:
    def test_zero_value_to_go(self):
        # the cost-to-go -w' of the last stage: an empty battery holds
        data = stage(49.0, 51.0)
        sub = s.NodeSubproblem(data, cutset=cut_set(data.battery.capacity, [Cut(0.0, -1.0, 0.0)]))
        value, _ = s.solve_stage((0.0, 0.0), [sub], [1.0], 0.03)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert sub.solve((0.0, 0.0)).controls == (0.0, 0.0)

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(21)
        rho = 0.03
        for _ in range(15):
            mids = rng.uniform(10, 80, 2)
            datas = [stage(m - 1.0, m + 1.0) for m in mids]
            cuts = [random_cuts(rng, 4) for _ in range(2)]
            subs = [
                s.NodeSubproblem(d, cutset=cut_set(d.battery.capacity, c))
                for d, c in zip(datas, cuts)
            ]
            row = rng.dirichlet([1.0, 1.0])
            state = (rng.uniform(-10, 10), rng.uniform(0, 1))
            value, _ = s.solve_stage(state, subs, row.tolist(), rho)
            grid = [grid_stage_minimum(d, c, state, n=201)[0] for d, c in zip(datas, cuts)]
            want = math.log(sum(p * math.exp(rho * v) for p, v in zip(row, grid))) / rho
            # the grid can only overshoot the true minimum
            assert value <= want + 1e-9
            assert want - value <= 1e-3

    def test_equals_per_successor_solves(self, toy_chain, toy_trained):
        # the stage-T subproblems share one cut set, the zero line, and
        # stage 2 reads its own pools; the stage value is the log-sum-exp of
        # the successor solves around their largest value, the energy
        # subgradient their average with the weights p_i exp(rho (J_i - max J)),
        # both in node order
        policy, _ = toy_trained
        rho = policy.problem.utility.risk_aversion
        T = toy_chain.horizon
        last = policy.subproblems(T)
        cap = policy.problem.battery.capacity
        assert all(sub.cutset is last[0].cutset for sub in last)
        assert last[0].cutset.envelope == ([0.0], [0.0], [0.0, cap])
        for j, sub in enumerate(policy.subproblems(2)):
            assert sub.cutset is policy.pools.get(2, j)
        for t in (T, 2):
            for row in toy_chain.transitions[t - 1]:
                for state in ((0.0, 0.0), (1.5, 0.3), (-2.0, 0.9)):
                    value, ve = s.solve_stage(state, policy.subproblems(t), row.tolist(), rho)
                    sols = [
                        (p, policy.subproblem(t, i).solve(state))
                        for i, p in enumerate(row.tolist())
                        if p > 0.0
                    ]
                    top = max(sol.value for _, sol in sols)
                    q = [p * math.exp(rho * (sol.value - top)) for p, sol in sols]
                    want = top + math.log(sum(q)) / rho
                    want_e = sum(w * sol.subgradient for w, (_, sol) in zip(q, sols)) / sum(q)
                    assert (value, ve) == (want, want_e)

    def test_lower_bound_validity(self):
        rng = np.random.default_rng(33)
        data = stage(47.0, 49.0)
        cuts = random_cuts(rng, 12)
        sub = s.NodeSubproblem(data, cutset=cut_set(data.battery.capacity, cuts))
        state = (3.0, 0.5)
        sol = sub.solve(state)
        for _ in range(100):
            b = rng.uniform(0, data.battery.max_charge)
            k = rng.uniform(0, data.battery.max_charge)
            xe = (1.0 - data.battery.leakage) * state[1] + 0.95 * b - 1.05 * k
            if not 0 <= xe <= data.battery.capacity:
                continue
            assert stage_objective(data, cuts, state, b, k) >= sol.value - 1e-9

    def test_subgradient_tangent_inequality(self):
        rng = np.random.default_rng(44)
        data = stage(40.0, 42.0)
        cuts = random_cuts(rng, 10)
        sub = s.NodeSubproblem(data, cutset=cut_set(data.battery.capacity, cuts))
        for _ in range(20):
            state = (rng.uniform(-20, 20), rng.uniform(0.1, 0.9))
            base = sub.solve(state)
            ve = base.subgradient
            for h in (1e-3, -1e-3):
                # the wealth subgradient is -1
                v_m = sub.solve((state[0] + h, state[1])).value
                assert v_m >= base.value - h - 1e-9
                v_e = sub.solve((state[0], state[1] + h)).value
                assert v_e >= base.value + h * ve - 1e-9

    def test_deterministic_outputs(self):
        rng = np.random.default_rng(5)
        data = stage(49.0, 51.0)
        cuts = random_cuts(rng, 6)
        a = s.NodeSubproblem(data, cutset=cut_set(data.battery.capacity, cuts)).solve((1.0, 0.4))
        b = s.NodeSubproblem(data, cutset=cut_set(data.battery.capacity, cuts)).solve((1.0, 0.4))
        assert a == b

    def test_infeasible_state(self):
        sub = s.NodeSubproblem(stage(49.0, 51.0), cutset=s.CutSet(1.0))
        with pytest.raises(InfeasibleError):
            sub.solve((0.0, 2.0))
        with pytest.raises(InfeasibleError):
            sub.solve((0.0, -0.5))


class TestTwoStageDeterministic:
    def test_buy_low_sell_high(self):
        # ask 10 in period 1, bid 30 in period 2; nearly linear utility
        cfg = s.config_from_dict(
            {
                "horizon": 2,
                "market": {"day_ahead": [9.0, 31.0], "spread_eur": 1.0},
                "price": {"a": 0.0, "sigma_eps": 0.0, "xi0": 0.0},
                "battery": {"alpha": 0.4},
                "utility": {"rho": 1e-4},
                "sddp": {"quadrature_points": 1, "iterations": 25, "seed": 0},
            }
        )
        problem = s.build_problem(cfg)
        chain = s.build_chain_for(cfg)
        policy, log = s.train(problem, chain, 25, 0)
        c1 = policy.subproblem(1, 0).solve((0.0, 0.0)).controls
        assert c1[0] == pytest.approx(0.4, abs=1e-6)
        assert c1[1] == pytest.approx(0.0, abs=1e-9)
        state1 = next_state(policy.subproblem(1, 0).data, (0.0, 0.0), c1)
        c2 = policy.subproblem(2, 0).solve(state1).controls
        assert c2[1] == pytest.approx(0.38 / 1.05, abs=1e-6)
        wealth = next_state(policy.subproblem(2, 0).data, state1, c2)[0]
        assert wealth == pytest.approx(6.857143, abs=1e-4)

        # exhaustive net-control grid search oracle at 1e-4 resolution
        best = -np.inf
        for u1 in np.arange(0.0, 0.4 + 1e-12, 1e-3):
            e1 = 0.95 * u1
            u2 = min(0.4, e1 / 1.05)
            best = max(best, -10.0 * u1 + 30.0 * u2)
        assert wealth >= best - 1e-3


def terminal(state, data):
    return s.NodeSubproblem(data, zero_cut_set(data.battery.capacity)).solve_terminal(state)


def max_wealth_lp(data, state):
    """Largest next wealth over the control polygon, by scipy (independent route)."""
    xm, xe = state
    E = (1.0 - data.battery.leakage) * xe
    cp, cm = data.battery.charge_eff, data.battery.discharge_eff
    res = linprog(
        c=[data.ask, -data.bid],
        A_ub=[[-cp, cm], [cp, -cm]],
        b_ub=[E, data.battery.capacity - E],
        bounds=[(0.0, data.battery.max_charge), (0.0, data.battery.max_charge)],
        method="highs",
    )
    assert res.status == 0, res.message
    return xm - res.fun


# Below this |tc'(w*)| * min(|bid|, |ask|) the oracle LP's 1e-9 pivot
# tolerance (and below about 1e-13 its tie perturbation) can stop it at a
# vertex with less wealth; there the closed form is checked against the
# largest wealth instead.
_LP_RESOLUTION = 1e-7


class TestTerminalKelley:
    """Closed-form terminal stage against the Kelley cutting-plane oracle."""

    def test_full_battery_liquidates(self):
        data = stage(49.0, 51.0)
        sol = terminal((0.0, 1.0), data)
        assert sol.controls[1] == pytest.approx(min(0.4, 1.0 / 1.05), abs=1e-9)
        assert sol.controls[0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_battery_does_nothing(self):
        sol = terminal((5.0, 0.0), stage(49.0, 51.0))
        assert sol.controls == (0.0, 0.0)

    def test_gap_monotone_and_small(self):
        # the oracle seeded away from the optimum needs more than one pass;
        # the closed form is exact in one
        utility = s.UtilitySpec(risk_aversion=0.03)
        data = stage(49.0, 51.0)
        state = (10.0, 0.7)
        ref, gaps = kelley_terminal(data, utility, state, tol=1e-8, seed_wealth=state[0])
        gaps = np.array(gaps)
        assert 1 < len(gaps) <= 30
        assert gaps[-1] <= 1e-8
        assert np.all(np.diff(gaps) <= 1e-12)
        sol = terminal(state, data)
        assert sol.gaps == (0.0,)
        assert sol.controls == pytest.approx(ref.controls, rel=0.0, abs=4e-16)
        assert sol.value == -sol.next_state[0]
        w_star = sol.next_state[0]
        assert ref.value == pytest.approx(s.terminal_cost(utility, w_star), rel=1e-12, abs=1e-12)

    def test_value_matches_exact_terminal_cost(self):
        # the terminal cost-to-go is minus the terminal wealth
        data = stage(49.0, 51.0)
        state = (2.0, 0.6)
        sol = terminal(state, data)
        w = state[0] + data.bid * sol.controls[1] - data.ask * sol.controls[0]
        assert sol.value == pytest.approx(-w, abs=1e-9)
        assert sol.value == -sol.next_state[0]

    def test_small_risk_aversion_limit(self):
        # the last stage maximizes terminal wealth at every risk aversion:
        # sell the whole charge (0.3/1.05 fits under the 0.4 speed bound)
        data = stage(49.0, 51.0)
        sol = terminal((0.0, 0.3), data)
        assert sol.controls[1] == pytest.approx(0.3 / 1.05, abs=1e-6)
        assert sol.controls[0] == pytest.approx(0.0, abs=1e-9)

    def test_subgradient_composition(self):
        data = stage(49.0, 51.0)
        state = (1.0, 0.5)
        sol = terminal(state, data)
        for h in (1e-4, -1e-4):
            assert terminal((state[0] + h, state[1]), data).value >= sol.value - h - 1e-8
            assert terminal((state[0], state[1] + h), data).value >= (
                sol.value + h * sol.subgradient - 1e-8
            )

    @pytest.mark.parametrize("rho", [1e-4, 0.03, 0.3])
    def test_matches_oracle_on_random_states(self, rho):
        rng = np.random.default_rng(round(1e4 * rho))
        utility = s.UtilitySpec(risk_aversion=rho)
        seen = collections.Counter()
        for trial in range(240):
            mid = rng.uniform(-15.0, 90.0)
            data = stage(
                mid - 1.0, mid + 1.0, cap=rng.uniform(0.5, 3.0), speed=rng.uniform(0.1, 1.0),
                leak=(0.0, 0.05)[trial % 2],
            )
            xe = (0.0, data.battery.capacity, rng.uniform(0.0, data.battery.capacity))[trial % 3]
            # every tenth state is rich enough that the oracle's tc' all but vanishes
            xm = 40.0 / rho if trial % 10 == 9 and rho > 0.01 else rng.uniform(-20.0, 20.0)
            state = (xm, xe)
            sol = terminal(state, data)

            # the vectorized enumeration picks the scalar enumeration's vertex
            leak, cap, u_max, cp, cm, _, _ = stage_solver._battery_constants(data.battery)
            buy, sell = max_wealth_controls(data, state)
            controls = stage_solver._clamp(buy, sell, xe, leak, cap, u_max, cp, cm)
            assert sol.controls == controls
            assert sol.next_state == next_state(data, state, controls)
            assert sol.next_state[0] == pytest.approx(max_wealth_lp(data, state), abs=1e-6)
            assert sol.value == -sol.next_state[0]

            # the oracle minimizes the exponential cost, whose subgradient is
            # the closed form's scaled by -tc'(w*); the closed form's wealth
            # subgradient is -1
            w_star = sol.next_state[0]
            slope = terminal_cost_derivative(utility, w_star)
            if abs(slope) * min(abs(data.bid), abs(data.ask)) < _LP_RESOLUTION:
                seen["tiny slope"] += 1
                continue
            ref, gaps = kelley_terminal(data, utility, state)
            assert len(gaps) == 1
            # the LP's Cramer solve may round the vertex one ulp apart
            assert sol.controls == pytest.approx(ref.controls, rel=0.0, abs=4e-16)
            assert ref.value == pytest.approx(
                s.terminal_cost(utility, w_star), rel=1e-12, abs=1e-12
            )
            assert slope == pytest.approx(ref.subgradient[0], rel=1e-12, abs=1e-12)
            # the LP duals carry its objective tie perturbation
            tie = (1.0 - data.battery.leakage) * (
                _TIE_BUY / data.battery.charge_eff + _TIE_SELL / data.battery.discharge_eff
            )
            assert -slope * sol.subgradient == pytest.approx(
                ref.subgradient[1], rel=1e-12, abs=tie
            )
            seen["oracle"] += 1
            seen["empty battery"] += xe == 0.0
            seen["full battery"] += xe == data.battery.capacity
            seen["negative ask"] += data.ask < 0.0
            seen["emptied"] += sol.next_state[1] == 0.0 and sol.subgradient != 0.0
            seen["filled"] += sol.next_state[1] == data.battery.capacity and sol.subgradient != 0.0
        assert seen["oracle"] >= 180, seen
        assert min(seen.values()) > 0, seen
        assert (seen["tiny slope"] > 0) == (rho > 0.01), seen

    @pytest.mark.parametrize("own_prices", [True, False])
    def test_lanes_equal_single_calls(self, own_prices):
        rng = np.random.default_rng(3)
        data = stage(30.0, 32.0, cap=2.0, speed=0.35, leak=0.05)
        K = 60
        wealth = rng.uniform(-30.0, 30.0, K)
        energy = rng.uniform(0.0, data.battery.capacity, K)
        energy[::4], energy[1::4] = 0.0, data.battery.capacity
        if own_prices:
            mids = rng.uniform(-15.0, 90.0, K)
            bid, ask = mids - 1.0, mids + 1.0
        else:
            bid = ask = None
        sub = s.NodeSubproblem(data, zero_cut_set(data.battery.capacity))
        out = TestLaneKernel.one_node(sub, wealth, energy, ask=ask, bid=bid)
        for k in range(K):
            lane_data = data
            if own_prices:
                lane_data = dataclasses.replace(data, bid=float(bid[k]), ask=float(ask[k]))
            ref = terminal((float(wealth[k]), float(energy[k])), lane_data)
            assert TestLaneKernel.lane_results(out, k) == (ref.controls, ref.next_state), k


def test_tie_break_prefers_smallest_controls():
    # the LP oracle: a constant cost-to-go makes every control optimal, and
    # its objective perturbation picks (0, 0)
    data = stage(49.0, 51.0)
    sub = LPSubproblem(data, [Cut(-5.0, 0.0, 0.0)])
    sol = sub.solve((0.0, 0.5))
    assert sol.controls == (0.0, 0.0)
    assert sol.value == pytest.approx(-5.0, abs=1e-9)


def test_objective_perturbation_is_negligible():
    assert _OBJECTIVE[0] * 10 + _OBJECTIVE[1] * 10 < 1e-8


class TestLaneKernel:
    """`StageLanes.next_states` against one scalar `NodeSubproblem.solve` per lane.

    The lanes compute no value or subgradient; the scalar solve's are
    checked against the LP oracle.
    """

    @staticmethod
    def lane_results(out, k):
        buy, sell, next_wealth, next_energy = out
        return (buy[k], sell[k]), (next_wealth[k], next_energy[k])

    @staticmethod
    def scalar_results(sub, state):
        sol = sub.solve(state)
        assert sub.next_state(state) == sol.next_state
        return sol.controls, sol.next_state

    @staticmethod
    def with_wealth(out, wealth, ask, bid):
        """The lanes' ``(buy, sell, next_energy)`` and the next wealth, as the scalar solve's."""
        buy, sell, next_energy = out
        return buy, sell, wealth - ask * buy + bid * sell, next_energy

    @staticmethod
    def one_node(sub, wealth, energy, ask=None, bid=None):
        """Lanes of the one subproblem ``sub``, at its own prices without ``ask``/``bid``."""
        K = len(energy)
        if ask is None:
            ask, bid = np.full(K, sub.data.ask), np.full(K, sub.data.bid)
        lanes = s.StageLanes(sub.data.battery, [sub.cutset])
        out = lanes.next_states(np.zeros(K, dtype=int), energy, ask, bid)
        return TestLaneKernel.with_wealth(out, wealth, ask, bid)

    @pytest.mark.parametrize("own_prices", [True, False])
    def test_random_instances_match_scalar(self, own_prices):
        rng = np.random.default_rng(7)
        for trial in range(120):
            mid = rng.uniform(-5, 90)
            cap, speed = rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0)
            data = stage(mid - 1.0, mid + 1.0, cap=cap, speed=speed)
            cuts = random_cuts(rng, int(rng.integers(1, 25)))
            K = 1 + trial % 9
            wealth = rng.uniform(-50, 50, K)
            energy = rng.uniform(0, data.battery.capacity, K)
            if own_prices:
                mids = rng.uniform(-5, 90, K)
                bid, ask = mids - 1.0, mids + 1.0
            else:
                bid = ask = None
            sub = s.NodeSubproblem(data, cutset=cut_set(data.battery.capacity, cuts))
            out = self.one_node(sub, wealth, energy, ask=ask, bid=bid)
            for k in range(K):
                lane_data = data
                if own_prices:
                    lane_data = dataclasses.replace(data, bid=float(bid[k]), ask=float(ask[k]))
                lane = s.NodeSubproblem(lane_data, cutset=sub.cutset)
                want = self.scalar_results(lane, (float(wealth[k]), float(energy[k])))
                assert self.lane_results(out, k) == want, (trial, k)

    def test_lanes_at_different_nodes(self):
        # one call whose lanes sit at five nodes with envelopes of 1 to many
        # lines, each lane at its own prices (some below the spread
        # condition's -20 EUR limit); at the last node the lanes' price
        # slopes -ask/c+ and -bid/c- equal envelope slopes exactly, where
        # bisect_left's tie rule decides the break
        rng = np.random.default_rng(17)
        data = stage(30.0, 32.0, cap=2.0, speed=0.35, leak=0.05)
        tie_bid, tie_ask = 39.0, 41.0
        # tangents of the convex 30 (e - 1)^2 with slopes g: n envelope lines
        slopes = [rng.uniform(-60.0, 60.0, n).tolist() for n in (1, 2, 5, 11)]
        battery = data.battery
        slopes.append([-tie_ask / battery.charge_eff, -tie_bid / battery.discharge_eff, 0.0, 20.0])
        cutsets = [
            cut_set(battery.capacity, [Cut(30.0 - 30.0 * (1 + g / 60) ** 2, -1.0, g) for g in gs])
            for gs in slopes
        ]
        assert [len(c) for c in cutsets] == [1, 2, 5, 11, 4]
        K = 250
        nodes = rng.integers(0, len(cutsets), K)
        wealth = rng.uniform(-50.0, 50.0, K)
        energy = rng.uniform(0.0, battery.capacity, K)
        energy[::5], energy[1::5] = 0.0, battery.capacity
        mids = rng.uniform(-60.0, 120.0, K)
        bid, ask = mids - 1.0, mids + 1.0
        bid[nodes == 4], ask[nodes == 4] = tie_bid, tie_ask
        out = s.StageLanes(battery, cutsets).next_states(nodes, energy, ask, bid)
        out = self.with_wealth(out, wealth, ask, bid)
        for k in range(K):
            lane_data = dataclasses.replace(data, bid=float(bid[k]), ask=float(ask[k]))
            lane = s.NodeSubproblem(lane_data, cutset=cutsets[nodes[k]])
            want = self.scalar_results(lane, (float(wealth[k]), float(energy[k])))
            assert self.lane_results(out, k) == want, k
        assert set(nodes.tolist()) == {0, 1, 2, 3, 4}
        assert (mids[nodes < 4] < -20.0).any()

    def test_lanes_refuse_another_capacity(self):
        # one cut set of the stage built for another capacity
        battery = s.BatterySpec(capacity=1.0)
        with pytest.raises(ValueError, match="another capacity"):
            s.StageLanes(battery, [zero_cut_set(1.0), zero_cut_set(2.0)])

    def test_energy_state_outside_box(self):
        data = stage(49.0, 51.0)
        sub = s.NodeSubproblem(data, cutset=cut_set(data.battery.capacity, [Cut(-5.0, -1.0, 1.0)]))
        last = s.NodeSubproblem(data, zero_cut_set(data.battery.capacity))
        for bad in (2.0, -0.5):
            with pytest.raises(InfeasibleError):
                sub.solve((0.0, bad))
            with pytest.raises(InfeasibleError):
                self.one_node(sub, np.zeros(3), np.array([0.2, bad, 0.4]))
            with pytest.raises(InfeasibleError):
                terminal((0.0, bad), data)
            with pytest.raises(InfeasibleError):
                self.one_node(last, np.zeros(3), np.array([0.2, bad, 0.4]))

    @pytest.mark.parametrize("wealth", [1e9, -1e9], ids=["plus", "minus"])
    def test_wealth_only_shifts_the_value(self, wealth):
        # wealth is unbounded: at |w| = 1e9 the controls, next energy and
        # subgradient of a node and of a terminal subproblem are the w = 0
        # solve's bit for bit, scalar and in lanes, and the value and next
        # wealth are shifted by -w and w (up to the rounding at that magnitude)
        rng = np.random.default_rng(9)
        data = stage(30.0, 32.0, cap=2.0, speed=0.35, leak=0.05)
        tol = 4.0 * math.ulp(wealth)
        energy = np.array([0.0, 0.3, 1.1, 2.0])
        subs = [
            s.NodeSubproblem(data, cutset=cut_set(data.battery.capacity, random_cuts(rng, 8))),
            s.NodeSubproblem(data, zero_cut_set(data.battery.capacity)),
        ]
        for sub in subs:
            buy0, sell0, wealth0, energy0 = self.one_node(sub, np.zeros(4), energy)
            buy, sell, next_wealth, next_energy = self.one_node(sub, np.full(4, wealth), energy)
            assert np.array_equal(buy, buy0)
            assert np.array_equal(sell, sell0)
            assert np.array_equal(next_energy, energy0)
            np.testing.assert_allclose(next_wealth - wealth0, wealth, rtol=0.0, atol=tol)
            for e in energy.tolist():
                at0, at = sub.solve((0.0, e)), sub.solve((wealth, e))
                assert at.controls == at0.controls
                assert at.subgradient == at0.subgradient
                assert at.next_state[1] == at0.next_state[1]
                assert at.value - at0.value == pytest.approx(-wealth, rel=0.0, abs=tol)
                assert at.next_state[0] - at0.next_state[0] == pytest.approx(
                    wealth, rel=0.0, abs=tol
                )

    def test_empty_cut_set_has_no_value(self):
        # a node without cuts has no value to solve for
        cuts = s.CutSet(1.0)
        data = stage(49.0, 51.0)
        sub = s.NodeSubproblem(data, cutset=cuts)
        with pytest.raises(NotTrainedError):
            sub.solve((0.0, 0.5))
        with pytest.raises(NotTrainedError):
            sub.next_state((0.0, 0.5))
        with pytest.raises(NotTrainedError):
            self.one_node(sub, np.zeros(2), np.array([0.0, 0.5]))
        with pytest.raises(NotTrainedError):
            cuts.value(0.5)
        # the energy state is checked first
        with pytest.raises(InfeasibleError):
            sub.solve((0.0, 2.0))
        with pytest.raises(InfeasibleError):
            self.one_node(sub, np.zeros(2), np.array([0.0, 2.0]))
        # beside a trained node, only the lanes that visit the empty one fail
        trained = s.NodeSubproblem(data, cutset=cut_set(1.0, [Cut(-5.0, -1.0, 1.0)]))
        lanes = s.StageLanes(data.battery, [trained.cutset, cuts])
        args = np.array([0.0, 0.5]), np.full(2, data.ask), np.full(2, data.bid)
        lanes.next_states(np.array([0, 0]), *args)
        with pytest.raises(NotTrainedError):
            lanes.next_states(np.array([0, 1]), *args)


@pytest.mark.parametrize("field", ["intercept", "grad_wealth", "grad_energy"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cut_rejects_non_finite_coefficients(field, bad):
    # the oracles' cuts, and the package's cut set, which stores no wealth slope
    coefs = {"intercept": 1.0, "grad_wealth": -0.5, "grad_energy": 2.0, field: bad}
    with pytest.raises(ValueError, match="cut coefficients must be finite"):
        Cut(**coefs)
    if field != "grad_wealth":
        cuts = s.CutSet(1.0)
        with pytest.raises(ValueError, match="cut coefficients must be finite"):
            cuts.append(coefs["intercept"], coefs["grad_energy"])
        assert len(cuts) == 0


def brute_force(a, g, grid):
    """Max of all lines ``a + g * e`` at each grid point."""
    return (np.asarray(a)[:, None] + np.asarray(g)[:, None] * grid[None, :]).max(axis=0)


def envelope_at(env, grid):
    """The envelope evaluated piece by piece, as the solve reads it."""
    piece = np.clip(np.searchsorted(env.breaks, grid, side="right") - 1, 0, len(env.slopes) - 1)
    return np.array(env.intercepts)[piece] + np.array(env.slopes)[piece] * grid


def break_heights(env):
    """The envelope's height at each break: the larger of the lines that meet there."""
    a, g, x = env.intercepts, env.slopes, env.breaks
    inner = [max(a[k - 1] + g[k - 1] * x[k], a[k] + g[k] * x[k]) for k in range(1, len(g))]
    return [a[0] + g[0] * x[0], *inner, a[-1] + g[-1] * x[-1]]


def assert_exact_envelope(env, a, g, capacity):
    assert env.breaks[0] == 0.0 and env.breaks[-1] == capacity
    assert len(env.breaks) == len(env.slopes) + 1 == len(break_heights(env))
    assert np.all(np.diff(env.slopes) > 0.0), env.slopes
    assert np.all(np.diff(env.breaks) > 0.0), env.breaks
    grid = np.linspace(0.0, capacity, 2001)
    want = brute_force(a, g, grid)
    got = envelope_at(env, grid)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    heights = brute_force(a, g, np.array(env.breaks))
    np.testing.assert_allclose(
        break_heights(env), heights, rtol=1e-12, atol=1e-12 * np.abs(want).max()
    )


def spliced(a, g, capacity):
    """The envelope a cut set keeps when the lines arrive one by one."""
    cuts = s.CutSet(capacity)
    for ai, gi in zip(a, g):
        cuts.append(float(ai), float(gi))
    return cuts.envelope


def awkward_lines(rng, capacity):
    """Random lines plus parallel, near-parallel, duplicate and tangent ones."""
    n = int(rng.integers(2, 12))
    g = list(rng.normal(0.0, 30.0, n))
    a = list(rng.normal(0.0, 15.0, n))
    i, j = rng.integers(0, n, 2)
    a.append(a[i] + rng.uniform(-1.0, 1.0))  # parallel to line i
    g.append(g[i])
    a.append(a[j] + 1e-12)  # near-parallel, near-duplicate
    g.append(g[j] * (1.0 + 1e-13))
    a.append(a[j])  # duplicate
    g.append(g[j])
    env = spliced(a, g, capacity)
    if len(env.slopes) > 1:
        k = int(rng.integers(1, len(env.slopes)))
        b, y = env.breaks[k], break_heights(env)[k]
        lo, hi = env.slopes[k - 1], env.slopes[k]
        # through a break: tangent with a slope in between, and slightly
        # steeper than the right-hand piece, which leaves a residue that is
        # rounding-sized near the break and positive far to the right
        for slope in (0.5 * (lo + hi), hi + 1e-9 * max(1.0, abs(hi)), hi * (1.0 + 2e-16)):
            g.append(slope)
            a.append(y - slope * b)
    order = rng.permutation(len(a))
    return np.array(a)[order], np.array(g)[order]


class TestEnvelope:
    def test_exact_on_awkward_line_sets(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            capacity = float(rng.uniform(0.5, 3.0))
            a, g = awkward_lines(rng, capacity)
            assert_exact_envelope(spliced(a, g, capacity), a, g, capacity)

    def test_exact_on_every_node_of_a_trained_pool(self, trained_n8_recorded):
        # the envelopes training kept by splicing equal the max of every cut
        # training produced
        policy, _, recorded = trained_n8_recorded
        capacity = policy.problem.battery.capacity
        sizes = []
        for t in range(1, policy.horizon):
            for j in range(policy.chain.node_count(t)):
                a = np.array([c.intercept for c in recorded[(t, j)]])
                g = np.array([c.grad_energy for c in recorded[(t, j)]])
                env = policy.pools.get(t, j).envelope
                assert_exact_envelope(env, a, g, capacity)
                sizes.append(len(env.slopes))
        assert len(sizes) == 184 and max(sizes) <= 12

    def test_dominated_lines_leave_it_unchanged(self):
        cuts = cut_set(1.0, [Cut(0.0, -1.0, -10.0), Cut(-8.0, -1.0, 5.0)])
        env = cuts.envelope
        assert env.slopes == [-10.0, 5.0] and env.breaks[1] == pytest.approx(8.0 / 15.0)
        assert len(cuts) == 2
        cuts.append(-20.0, 0.0)  # below everywhere on [0, 1]
        assert cuts.envelope is env and len(cuts) == 2
        cuts.append(1.0, 0.0)  # above everywhere on [0, 1]
        assert cuts.envelope.slopes == [0.0] and len(cuts) == 1

    def test_subproblem_refuses_another_capacity(self):
        with pytest.raises(ValueError, match="another capacity"):
            s.NodeSubproblem(stage(49.0, 51.0), cutset=cut_set(2.0, [Cut(0.0, -1.0, 0.0)]))


class TestSpreadConditionViolated:
    """Out-of-sample prices may break bid/c- <= ask/c+: buying and selling at once pays."""

    def test_values_match_scipy(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            mid = rng.uniform(-90.0, -21.0)
            cap, speed = rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0)
            data = stage(mid - 1.0, mid + 1.0, cap=cap, speed=speed)
            assert not s.check_spread_condition(data)
            cuts = random_cuts(rng, int(rng.integers(1, 25)))
            state = (rng.uniform(-50, 50), rng.uniform(0, data.battery.capacity))
            sol = s.NodeSubproblem(data, cutset=cut_set(data.battery.capacity, cuts)).solve(state)
            ref = lp_reference(data, cuts, state)
            assert sol.value == pytest.approx(ref, abs=1e-7 * max(1.0, abs(ref)))
            at_controls = stage_objective(data, cuts, state, *sol.controls)
            assert at_controls == pytest.approx(ref, abs=1e-7 * max(1.0, abs(ref)))

    def test_terminal_matches_vertex_enumeration(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            mid = rng.uniform(-90.0, -21.0)
            cap, speed = rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0)
            data = stage(mid - 1.0, mid + 1.0, cap=cap, speed=speed)
            state = (rng.uniform(-50, 50), rng.uniform(0, data.battery.capacity))
            sol = terminal(state, data)
            assert sol.next_state[0] == pytest.approx(max_wealth_lp(data, state), abs=1e-9)


class TestClosedFormOnTrainedPool:
    """The closed form on the default pool against the LP oracle, state by state."""

    @staticmethod
    def states(rng, capacity, n=20):
        energy = rng.uniform(0.0, capacity, n)
        energy[:3] = 0.0, capacity, 0.38
        return list(zip(rng.uniform(-60.0, 60.0, n).tolist(), energy.tolist()))

    def test_values_match_lp_oracle(self, trained_n8_recorded):
        # the LP holds every cut training produced, the closed form only
        # the envelope lines
        policy, _, recorded = trained_n8_recorded
        capacity = policy.problem.battery.capacity
        rng = np.random.default_rng(31)
        worst = 0.0
        count = 0
        for t in range(1, policy.horizon):
            for j in range(policy.chain.node_count(t)):
                sub = policy.subproblem(t, j)
                lp = LPSubproblem(sub.data, recorded[(t, j)], problem=policy.problem)
                for state in self.states(rng, capacity):
                    got, want = sub.solve(state), lp.solve(state)
                    worst = max(worst, abs(got.value - want.value) / max(1.0, abs(want.value)))
                    count += 1
        assert count == 3680
        assert worst <= 1e-9

    def test_subgradients_satisfy_the_tangent_inequality(self, trained_n8):
        # every node solve, and every cut solve_stage makes, lies below the
        # value it bounds on an energy grid (wealth enters with slope -1)
        policy, _ = trained_n8
        capacity = policy.problem.battery.capacity
        rho = policy.problem.utility.risk_aversion
        grid = np.linspace(0.0, capacity, 41).tolist()
        rng = np.random.default_rng(32)
        for t in range(1, policy.horizon, 3):
            for j in range(policy.chain.node_count(t)):
                sub = policy.subproblem(t, j)
                row = policy.chain.transitions[t][j].tolist()
                for w, e in self.states(rng, capacity, n=6):
                    sol = sub.solve((w, e))
                    value, ve = s.solve_stage((w, e), policy.subproblems(t + 1), row, rho)
                    w2 = w + 3.0
                    for e2 in grid:
                        tol = 1e-9 * max(1.0, abs(sol.value))
                        cut = sol.value - (w2 - w) + sol.subgradient * (e2 - e)
                        assert sub.solve((w2, e2)).value >= cut - tol, (t, j, e, e2)
                        stage = s.solve_stage((w2, e2), policy.subproblems(t + 1), row, rho)[0]
                        assert stage >= value - (w2 - w) + ve * (e2 - e) - tol, (t, j, e, e2)

    @pytest.mark.parametrize("own_prices", [False, True])
    def test_lanes_equal_scalar_solves(self, trained_n8, own_prices):
        # one call per stage, with 12 lanes at every node of the stage
        policy, _ = trained_n8
        capacity = policy.problem.battery.capacity
        rng = np.random.default_rng(33)
        for t in (1, 9, 17, policy.horizon - 1, policy.horizon):
            subs = policy.subproblems(t)
            states, nodes = [], []
            for j in range(len(subs)):
                states += self.states(rng, capacity, n=12)
                nodes += [j] * 12
            wealth, energy = (np.array(v) for v in zip(*states))
            if own_prices:
                # some lanes below the spread condition's -20 EUR limit
                mids = rng.uniform(-60.0, 120.0, len(states))
                bid, ask = mids - 1.0, mids + 1.0
            else:
                bid = np.array([subs[j].data.bid for j in nodes])
                ask = np.array([subs[j].data.ask for j in nodes])
            lanes = s.StageLanes(policy.problem.battery, [sub.cutset for sub in subs])
            out = lanes.next_states(np.array(nodes), energy, ask, bid)
            out = TestLaneKernel.with_wealth(out, wealth, ask, bid)
            for k, (state, j) in enumerate(zip(states, nodes)):
                lane = subs[j]
                if own_prices:
                    data = dataclasses.replace(lane.data, bid=float(bid[k]), ask=float(ask[k]))
                    lane = s.NodeSubproblem(data, lane.cutset)
                want = TestLaneKernel.scalar_results(lane, state)
                assert TestLaneKernel.lane_results(out, k) == want, (t, j, k)


class TestComplementarity:
    """Where bid/c- <= ask/c+ holds at the traded prices, the closed form buys or sells, never both.

    This is why the package needs no fold from the two-control relaxation
    back to one signed control (the fold is `oracles.recover_complementary`).
    """

    def test_scalar_solves_at_every_node(self, trained_n8):
        policy, _ = trained_n8
        capacity = policy.problem.battery.capacity
        rng = np.random.default_rng(34)
        count = 0
        for t in range(1, policy.horizon + 1):
            for sub in policy.subproblems(t):
                assert s.check_spread_condition(sub.data)
                for state in TestClosedFormOnTrainedPool.states(rng, capacity, n=25):
                    sol = sub.solve(state)
                    buy, sell = sol.controls
                    assert buy * sell == 0.0, (t, state, sol.controls)
                    assert sub.next_state(state) == sol.next_state
                    assert sol.next_state == next_state(sub.data, state, sol.controls)
                    count += 1
        assert count == policy.horizon * 8 * 25

    def test_lanes_at_realized_prices(self, trained_n8):
        # deviations far wider than the model's, so that some lanes fall
        # below the condition's -20 EUR limit; only those may trade both ways
        policy, _ = trained_n8
        model, battery = policy.problem.price_model, policy.problem.battery
        rng = np.random.default_rng(35)
        holds = both_ways = 0
        for t in range(1, policy.horizon + 1):
            subs = policy.subproblems(t)
            nodes = np.repeat(np.arange(len(subs)), 100)
            energy = rng.uniform(0.0, battery.capacity, nodes.size)
            energy[::10] = 0.0
            bid, ask = s.bid_ask(model, t, rng.normal(0.0, 25.0, nodes.size))
            lanes = s.StageLanes(battery, [sub.cutset for sub in subs])
            buy, sell, _ = lanes.next_states(nodes, energy, ask, bid)
            spread = bid / battery.discharge_eff <= ask / battery.charge_eff
            assert np.all(buy[spread] * sell[spread] == 0.0), t
            holds += int(spread.sum())
            both_ways += int(np.count_nonzero((buy > 0.0) & (sell > 0.0)))
        assert holds > 0.98 * policy.horizon * 800
        assert both_ways > 0
