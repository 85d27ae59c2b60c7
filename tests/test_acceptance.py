"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Budgets are generous wall-time ceilings; typical runtimes are far
lower.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import storagesddp as s
from storagesddp.config import with_axis_value
from oracles import (
    chain_dp,
    indifference_price_bisection,
    random_relaxed_trajectory,
    recover_complementary,
    storage_value,
)

RHOS = (0.003, 0.03, 0.3)


def report(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS: {text}")


def train_default(n_points: int, iterations: int, seed: int = 0, **overrides):
    cfg = s.config_from_dict(
        {
            "sddp": {"quadrature_points": n_points, "iterations": iterations, "seed": seed},
            **overrides,
        }
    )
    problem = s.build_problem(cfg)
    chain = s.build_chain_for(cfg)
    policy, log = s.train(problem, chain, iterations, seed)
    return policy, log


def test_criterion_1_deterministic_convergence():
    t0 = time.perf_counter()
    _, log = train_default(1, 25)
    elapsed = time.perf_counter() - t0
    b = np.array(log.bounds)
    rel = np.abs(np.diff(b)) / np.maximum(np.abs(b[:-1]), 1e-300)
    late = rel[9:]  # changes after iteration 10
    assert np.all(late < 1e-6), f"late relative changes: {late}"
    assert elapsed < 10.0
    report(1, f"N=1 bound stable after 10 iterations (max late change {late.max():.1e}), {elapsed:.1f}s")


def test_criterion_2_brute_force_equivalence(toy_problem, toy_chain, toy_trained):
    t0 = time.perf_counter()
    _, log = toy_trained
    phi, _ = chain_dp(toy_problem, toy_chain, n_energy=1025, n_control=2049)
    gap = abs(log.final_bound() - phi)
    elapsed = time.perf_counter() - t0
    assert gap <= 1e-3, f"bound {log.final_bound()} vs oracle {phi}"
    assert elapsed < 60.0
    report(2, f"toy bound matches grid-DP oracle within {gap:.2e} (tol 1e-3), {elapsed:.1f}s")


def test_criterion_3_complementary_recovery_dominates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    battery = s.BatterySpec(capacity=1.0, speed_fraction=0.4)
    worst = np.inf
    for _ in range(1000):
        prices = [tuple(sorted(rng.uniform(5, 95, 2))) for _ in range(5)]
        traj = random_relaxed_trajectory(rng, battery, prices, x0m=0.0)
        rec = recover_complementary(traj, prices, battery)
        assert np.allclose(rec.energy, traj.energy, atol=1e-9)
        assert np.all(rec.net_control <= battery.max_charge + 1e-12)
        assert np.all(rec.net_control >= -battery.max_discharge - 1e-12)
        assert np.all(rec.energy >= -1e-9) and np.all(rec.energy <= 1.0 + 1e-9)
        worst = min(worst, rec.wealth[-1] - traj.wealth[-1])
        assert rec.wealth[-1] >= traj.wealth[-1] - 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, f"1000 recoveries feasible, energy identical, wealth gain >= {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_closed_form_vs_bisection(toy_config):
    t0 = time.perf_counter()
    closed = s.price_storage(toy_config).price
    rho = toy_config.utility.rho
    baseline = 0.0  # phi(0, 0) under exponential utility

    def value_fn(initial_wealth: float) -> float:
        return storage_value(toy_config, initial_wealth=initial_wealth)

    pi, evals = indifference_price_bisection(
        value_fn, baseline, bracket=(0.0, 2.0 * closed + 1.0), tol=1e-3
    )
    elapsed = time.perf_counter() - t0
    assert abs(pi - closed) <= 1e-3, f"bisection {pi} vs closed form {closed}"
    assert elapsed < 300.0
    report(4, f"closed form {closed:.5f} vs bisection {pi:.5f} EUR ({evals} retrains), {elapsed:.0f}s")


def test_criterion_5_quadrature_fidelity(default_problem):
    t0 = time.perf_counter()
    model = default_problem.price_model
    a, sig = model.ar_coefficient, model.innovation_std

    rule = s.gauss_hermite(2, sig)
    assert rule.nodes == pytest.approx([-sig, sig], abs=1e-12)
    assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-12)

    chain = s.build_chain(model, 8)
    nodes = chain.nodes[1]
    worst_mean = worst_var = 0.0
    for t in range(1, chain.horizon):
        P = chain.transitions[t]
        m1 = P @ nodes
        var = P @ nodes**2 - m1**2
        worst_mean = max(worst_mean, np.max(np.abs(m1 - a * nodes) / np.abs(a * nodes)))
        worst_var = max(worst_var, np.max(np.abs(var - sig**2) / sig**2))
    assert worst_mean <= 0.02 and worst_var <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(5, f"N=8 conditional moments within {worst_mean:.1e}/{worst_var:.1e} (tol 2%/5%), N=2 rule exact")


def test_criterion_6_bound_validity_and_gap_shrinks():
    # 1000 training iterations per N (the reference experiment's budget):
    # the gap property concerns the DISCRETIZATION error, which is visible
    # only once the bound itself is converged; at 300 iterations the residual
    # training bias at N=8 (~0.9 utility units) swamps it
    t0 = time.perf_counter()
    rows = []
    for n in (1, 2, 4, 8):
        policy, log = train_default(n, 1000)
        rep = s.evaluate_out_of_sample(policy, 1000, rng_seed=2024)
        bound = log.final_bound()
        assert rep.mean_utility <= bound + 2.0 * rep.std_error, f"N={n}"
        rows.append((n, bound, rep.mean_utility, rep.std_error))
    gaps = [b - m for _, b, m, _ in rows]
    for k in range(len(rows) - 1):
        noise = 2.0 * (rows[k][3] + rows[k + 1][3])
        assert gaps[k + 1] <= gaps[k] + noise, f"gap grew from N={rows[k][0]} to N={rows[k+1][0]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    gap_str = ", ".join(f"N={n}: {g:.3f}" for (n, _, _, _), g in zip(rows, gaps))
    report(6, f"mean utility <= bound + 2SE for all N; gaps [{gap_str}] shrink, {elapsed:.0f}s")


def test_criterion_7_monotone_valuations():
    # Prices must not decrease along capacity and speed at any rho (a larger
    # or faster battery can do everything a smaller one can), nor along
    # sigma at rho = 0.003 and 0.03.  At rho = 0.3 the exact price DECREASES
    # in sigma: with the pinned two-peak day-ahead curve the storage value is
    # dominated by deterministic curve arbitrage whose execution carries
    # price risk growing with sigma, and at high risk aversion that penalty
    # outweighs the extra option value (exact chain-DP prices 30.86 / 29.16 /
    # 26.34 EUR).  That leg is checked against the exact chain DP instead:
    # the exact prices strictly decrease, the optimistic SDDP prices lie
    # above them, and the SDDP prices do not increase either.
    t0 = time.perf_counter()
    base = s.RunConfig()
    grids = {
        "capacity": [0.5, 1.0, 2.0, 4.0],
        "speed_fraction": [0.2, 0.4, 0.7, 1.0],
        "sigma": [0.5 * base.price.sigma_eps, base.price.sigma_eps, 2.0 * base.price.sigma_eps],
    }
    results = {}
    for axis, grid in grids.items():
        for rho in RHOS:
            # the rho=0.3 certainty equivalent converges more slowly; give
            # it a larger per-run budget
            iters = 400 if rho == 0.3 else 150
            cfg = replace(base, sddp=replace(base.sddp, iterations=iters, seed=0))
            rows = s.price_sweep(axis, grid, cfg, rhos=[rho])
            results[(axis, rho)] = [r[2] for r in rows]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    print(f"\n[criterion  7] sweep prices ({elapsed:.0f}s):")
    for (axis, rho), prices in results.items():
        print(f"               {axis}/rho={rho}: {[round(p, 3) for p in prices]}")
    failures = []
    for (axis, rho), prices in results.items():
        if (axis, rho) == ("sigma", 0.3):
            continue
        if any(hi < lo - 1e-3 for lo, hi in zip(prices, prices[1:])):
            failures.append(f"{axis} rho={rho}: {[round(p, 4) for p in prices]}")

    sddp_prices = results[("sigma", 0.3)]
    exact = []
    for g in grids["sigma"]:
        cfg = with_axis_value(base, "sigma", g)
        cfg = replace(cfg, utility=replace(cfg.utility, rho=0.3, initial_wealth=0.0))
        _, G = chain_dp(s.build_problem(cfg), s.build_chain_for(cfg))
        # 1 - rho*phi(0) = rho*G, so the price needs no cancelling subtraction
        exact.append(-math.log(0.3 * G[0][0][0]) / 0.3)
    print(f"               sigma/rho=0.3 exact chain DP: {[round(p, 3) for p in exact]}")
    if not all(hi < lo for lo, hi in zip(exact, exact[1:])):
        failures.append(f"exact sigma rho=0.3 not strictly decreasing: {exact}")
    if any(p < e - 1e-3 for p, e in zip(sddp_prices, exact)):
        failures.append(f"sigma rho=0.3 SDDP {sddp_prices} below exact {exact}")
    if any(hi > lo + 1e-3 for lo, hi in zip(sddp_prices, sddp_prices[1:])):
        failures.append(f"sigma rho=0.3 SDDP not non-increasing: {sddp_prices}")
    if not failures:
        report(
            7,
            "prices non-decreasing on capacity/speed grids for all rho and on sigma for "
            "rho < 0.3; at rho=0.3 exact and SDDP prices both fall with sigma, SDDP >= exact",
        )
    assert not failures, "; ".join(failures)


def test_criterion_8_risk_aversion_thins_left_tail():
    t0 = time.perf_counter()
    reports = {}
    for rho in RHOS:
        policy, _ = train_default(8, 300, battery={"alpha": 1.0}, utility={"rho": rho})
        reports[rho] = s.evaluate_out_of_sample(policy, 1000, rng_seed=77)
    table = [(rho, float(np.quantile(reports[rho].terminal_wealths, 0.05))) for rho in RHOS]
    quantiles = [q for _, q in table]
    assert all(b >= a - 1e-9 for a, b in zip(quantiles, quantiles[1:])), table
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    q_str = ", ".join(f"rho={r}: {q:.3f}" for r, q in table)
    report(8, f"5% wealth quantile non-decreasing in rho [{q_str}], {elapsed:.0f}s")


def test_criterion_9_regression_recovery():
    t0 = time.perf_counter()
    model = s.PriceModel((50.0,) * 8760, 0.48, 10.0, 1.0)
    path = s.simulate_deviation_path(model, rng_seed=2024)
    fit = s.fit_ar(path)
    assert abs(fit.slope - 0.48) <= 0.03
    assert abs(fit.residual_std - 10.0) / 10.0 <= 0.03
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        9,
        f"8760-sample fit: slope {fit.slope:.4f} (target 0.48 +- 0.03), "
        f"sigma {fit.residual_std:.3f} (target 10 +- 3%)",
    )


def test_criterion_10_time_scaling_substitute():
    # absolute euro values and absolute seconds are excluded (unknown
    # day-ahead curve, unpublished sigma, different hardware); the
    # qualitative substitute is the N=16 vs N=2 training-time ratio
    cfg = s.RunConfig()
    problem = s.build_problem(cfg)
    ratios = []
    for rep in range(3):
        times = {}
        for n in (2, 16):
            chain = s.build_chain(problem.price_model, n)
            t0 = time.perf_counter()
            s.train(problem, chain, iterations=25, rng_seed=rep)
            times[n] = time.perf_counter() - t0
        ratios.append(times[16] / times[2])
    ratio = float(np.median(ratios))
    assert 4.0 <= ratio <= 16.0, f"ratios {ratios}"
    report(10, f"train-time ratio N=16/N=2 = {ratio:.2f} (median of 3, within [4, 16])")
