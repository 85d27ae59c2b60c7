"""Command-line front end.

Commands: fit, discretize, train, simulate, price, sweep.  All outputs are
plot-ready CSV/JSON flat files.  Exit codes: 0 ok, 2 configuration error,
3 data error, 4 numerical failure.

Environment override (only this one): STORAGESDDP_OUT for the output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .config import (
    SWEEP_AXES,
    build_chain_for,
    build_problem,
    load_config,
    train_from_config,
)
from .errors import ConfigError, DataError, DegenerateSampleError, StorageError
from .price_model import fit_ar, read_price_csv
from .sddp import Policy, load_checkpoint, save_checkpoint
from .simulation import evaluate_out_of_sample, kernel_density
from .valuation import price_storage, price_sweep, second_differences

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _out_dir(args) -> str:
    out = args.out or os.environ.get("STORAGESDDP_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_fit(args) -> int:
    deviations, dropped = read_price_csv(args.csv)
    fit = fit_ar(deviations)
    doc = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "residual_std": fit.residual_std,
        "n_obs": fit.n_obs,
        "dropped_rows": dropped,
    }
    print(f"slope        {fit.slope:.6f}")
    print(f"intercept    {fit.intercept:.6f}")
    print(f"r_squared    {fit.r_squared:.6f}")
    print(f"residual_std {fit.residual_std:.6f}")
    print(f"n_obs        {fit.n_obs}")
    if dropped:
        print(f"dropped_rows {dropped}")
    path = os.path.join(_out_dir(args), "fit.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_discretize(args) -> int:
    cfg = load_config(args.config)
    chain = build_chain_for(cfg)
    path = os.path.join(_out_dir(args), "chain.json")
    with open(path, "w", encoding="utf-8") as f:
        f.write(chain.to_json())
    print(
        f"chain: horizon {chain.horizon}, {chain.node_count(1)} nodes/stage; wrote {path}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    policy, log = train_from_config(cfg)
    out = _out_dir(args)
    log_path = os.path.join(out, "training_log.csv")
    log.write_csv(log_path)
    ckpt_path = os.path.join(out, "checkpoint.json")
    save_checkpoint(policy, ckpt_path)
    tail = log.bounds[-5:]
    print(f"iterations    {log.iterations}")
    print(f"bound         {log.bounds[-1]:.8f}")
    print(f"bound tail    {['%.8f' % b for b in tail]}")
    print(f"envelope cuts {log.cut_counts[-1]}")
    print(f"train time    {sum(log.seconds):.2f} s")
    print(f"wrote {log_path} and {ckpt_path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.checkpoint:
        problem = build_problem(cfg)
        chain = build_chain_for(cfg)
        pools = load_checkpoint(args.checkpoint, problem, chain)
        policy = Policy(problem, chain, pools)
    else:
        policy, _ = train_from_config(cfg)
    trained_bound = policy.root_bound()
    report = evaluate_out_of_sample(policy, cfg.simulate.scenarios, cfg.simulate.seed)
    out = _out_dir(args)
    rep_path = os.path.join(out, "simulation.csv")
    with open(rep_path, "w", encoding="utf-8") as f:
        f.write("scenario,terminal_wealth,utility\n")
        for i, (w, u) in enumerate(zip(report.terminal_wealths, report.utilities)):
            f.write(f"{i},{float(w)!r},{float(u)!r}\n")
    print(f"scenarios          {report.n_scenarios}")
    print(f"mean wealth        {report.mean_objective:.4f} EUR")
    print(f"mean utility       {report.mean_utility:.6f} +- {report.std_error:.6f}")
    print(f"in-sample utility  {report.in_sample_mean:.6f}")
    print(f"trained bound      {trained_bound:.6f}")
    try:
        dens = kernel_density(report.terminal_wealths)
    except DegenerateSampleError as exc:
        # one scenario, or a battery that never trades: a report without a density
        print(f"density skipped: {exc}")
        print(f"wrote {rep_path}")
        return EXIT_OK
    dens_path = os.path.join(out, "density.csv")
    with open(dens_path, "w", encoding="utf-8") as f:
        f.write("x,density\n")
        for x, d in zip(dens.grid, dens.density):
            f.write(f"{float(x)!r},{float(d)!r}\n")
    print(f"wrote {rep_path} and {dens_path}")
    return EXIT_OK


def cmd_price(args) -> int:
    cfg = load_config(args.config)
    result = price_storage(cfg)
    out = _out_dir(args)
    path = os.path.join(out, "price.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("rho,price_eur,phi_with,phi_without,iterations\n")
        f.write(
            f"{float(cfg.utility.rho)!r},{float(result.price)!r},{float(result.phi_with)!r},"
            f"{float(result.phi_without)!r},{result.iterations}\n"
        )
    print(f"indifference price {result.price:.4f} EUR (rho={cfg.utility.rho})")
    print(f"value with storage {result.phi_with:.6f}; without {result.phi_without:.6f}")
    print(f"wrote {path}")
    return EXIT_OK


def _numbers(text: str, option: str) -> list[float]:
    """The comma-separated numbers of an option; `ConfigError` if one does not parse."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{option} must be comma-separated numbers, not {text!r}") from None


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    grid = _numbers(args.grid, "--grid")
    rhos = _numbers(args.rhos, "--rhos") if args.rhos is not None else None
    rows = price_sweep(args.axis, grid, cfg, rhos=rhos)

    out = _out_dir(args)
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("axis_value,rho,price_eur,bound,train_seconds\n")
        for g, rho, price, bnd, secs in rows:
            f.write(f"{float(g)!r},{float(rho)!r},{float(price)!r},{float(bnd)!r},{secs:.3f}\n")
    print(f"axis {args.axis}, grid {grid}")
    by_rho: dict[float, list[float]] = {}
    for g, rho, price, _, _ in rows:
        by_rho.setdefault(rho, []).append(price)
    for rho, prices in sorted(by_rho.items()):
        line = ", ".join(f"{p:.4f}" for p in prices)
        print(f"rho={rho}: prices [{line}] EUR")
        if len(prices) >= 3:
            d2 = ", ".join(f"{v:+.4f}" for v in second_differences(prices))
            print(f"          second differences [{d2}]")
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storagesddp",
        description="Battery trading policies and indifference prices in the intraday market",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory (default: . or STORAGESDDP_OUT)")

    p = sub.add_parser("fit", parents=[common], help="fit the AR(1) deviation model from CSV")
    p.add_argument("csv", help="CSV with header timestamp,day_ahead,id1")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("discretize", parents=[common], help="export the Markov chain as JSON")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("train", parents=[common], help="train cut pools, write checkpoint + log")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", parents=[common], help="out-of-sample policy evaluation")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", help="cut-pool checkpoint (default: train first)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("price", parents=[common], help="indifference price from one training")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("sweep", parents=[common], help="price sweep along one parameter axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--grid", required=True, help="comma-separated increasing values")
    p.add_argument("--rhos", help="comma-separated risk aversions (default: config rho)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StorageError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
