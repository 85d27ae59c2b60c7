"""Output checks for the benchmarked CLI commands, and their self-test.

Each check reads the files a command wrote and returns a list of problems;
an empty list means the output passed.  An operation with any problem
counts as failed.  ``self_test`` feeds every check doctored outputs and
confirms that each one is counted as a failure.
"""

from __future__ import annotations

import csv
import math
import os
import statistics

# At one capacity the exact indifference price cannot rise with rho (every
# policy's certainty equivalent falls as rho rises, so their supremum does
# too).  Short trainings price from an optimistic bound, so a rise of up to
# this share of the lower-rho price is tolerated.
RHO_MONOTONE_TOL = 0.10


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _exit(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def check_train(code: int, out: str, rho: float) -> tuple[list[str], dict]:
    """``train``: exit 0; logged bounds finite, non-increasing and below 1/rho."""
    problems = _exit(code)
    try:
        bounds = [float(r["bound"]) for r in _rows(os.path.join(out, "training_log.csv"))]
    except (OSError, KeyError, ValueError) as exc:
        return problems + [f"unreadable training_log.csv: {exc}"], {}
    if not bounds:
        return problems + ["empty training_log.csv"], {}
    if not all(math.isfinite(b) for b in bounds):
        problems.append("non-finite bound in training_log.csv")
    rises = [i + 1 for i in range(len(bounds) - 1) if bounds[i + 1] > bounds[i]]
    if rises:
        problems.append(f"bound rises at iteration {rises[0] + 1} ({len(rises)} rises)")
    if not bounds[-1] < 1.0 / rho:
        problems.append(f"final bound {bounds[-1]!r} >= 1/rho = {1.0 / rho!r}")
    return problems, {"iterations": len(bounds), "bound": bounds[-1]}


def check_simulate(code: int, out: str, trained_bound: float) -> tuple[list[str], dict]:
    """``simulate``: exit 0; out-of-sample mean utility <= trained bound + 3 SE."""
    problems = _exit(code)
    try:
        rows = _rows(os.path.join(out, "simulation.csv"))
        utilities = [float(r["utility"]) for r in rows]
        wealths = [float(r["terminal_wealth"]) for r in rows]
    except (OSError, KeyError, ValueError) as exc:
        return problems + [f"unreadable simulation.csv: {exc}"], {}
    if len(utilities) < 2:
        return problems + ["fewer than 2 scenarios in simulation.csv"], {}
    mean = statistics.fmean(utilities)
    se = statistics.stdev(utilities) / math.sqrt(len(utilities))
    if not mean <= trained_bound + 3.0 * se:
        problems.append(
            f"mean utility {mean:.6f} > trained bound {trained_bound:.6f} + 3 SE ({se:.6f})"
        )
    return problems, {"scenarios": len(utilities), "mean_utility": mean, "wealths": wealths}


def check_price(code: int, out: str, best_case: float) -> tuple[list[str], dict]:
    """``price``: exit 0; a finite price in [0, best-case profit]."""
    problems = _exit(code)
    if code != 0:
        return problems, {}
    try:
        price = float(_rows(os.path.join(out, "price.csv"))[0]["price_eur"])
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return problems + [f"unreadable price.csv: {exc}"], {}
    if not (math.isfinite(price) and 0.0 <= price <= best_case):
        problems.append(f"price {price!r} outside [0, best-case profit {best_case!r}]")
    return problems, {"price": price}


def check_rho_monotone(prices: dict[tuple[float, float], float]) -> dict[tuple[float, float], str]:
    """Across rho at one capacity: no price above a lower-rho price by more than the tolerance.

    ``prices`` maps (capacity, rho) to the price of every point that priced;
    returns the points that break the rule with the reason.
    """
    bad = {}
    for (cap, rho), price in prices.items():
        for (cap2, rho2), lower in prices.items():
            if cap2 == cap and rho2 < rho and price > lower * (1.0 + RHO_MONOTONE_TOL):
                bad[(cap, rho)] = (
                    f"price {price:.4f} at rho {rho} exceeds price {lower:.4f} "
                    f"at rho {rho2} by more than {RHO_MONOTONE_TOL:.0%}"
                )
    return bad


def self_test(workdir: str) -> list[str]:
    """Feed each check a doctored output; return the doctored cases that passed.

    A genuine-looking control output must pass, so a check that rejects
    everything is caught too.
    """
    os.makedirs(workdir, exist_ok=True)

    def write(name: str, file: str, header: str, lines: list[str]) -> str:
        d = os.path.join(workdir, name)
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, file), "w", encoding="utf-8") as f:
            f.write(header + "\n" + "\n".join(lines) + "\n")
        return d

    log, log_header = "training_log.csv", "iteration,bound,seconds"
    sim, sim_header = "simulation.csv", "scenario,terminal_wealth,utility"
    price, price_header = "price.csv", "rho,price_eur,phi_with,phi_without,iterations"
    log_ok = write("train_ok", log, log_header, ["1,20.9,0.01", "2,20.8,0.01"])
    log_rising = write("train_rising", log, log_header, ["1,20.9,0.01", "2,20.95,0.01"])
    sim_ok = write("sim_ok", sim, sim_header, ["0,30.0,19.0", "1,32.0,20.0"])
    sim_high = write("sim_high", sim, sim_header, ["0,90.0,30.0", "1,91.0,30.1"])
    price_ok = write("price_ok", price, price_header, ["0.03,39.5,20.0,0.0,150"])
    price_high = write("price_high", price, price_header, ["0.03,250.0,20.0,0.0,150"])

    doctored = {
        "rising bound in training_log.csv": check_train(0, log_rising, 0.03)[0],
        "train exit code 4": check_train(4, log_ok, 0.03)[0],
        "simulate mean utility above bound + 3 SE": check_simulate(0, sim_high, 20.8)[0],
        "simulate exit code 1": check_simulate(1, sim_ok, 20.8)[0],
        "price above best-case profit": check_price(0, price_high, 219.6)[0],
        "price exit code 4": check_price(4, price_ok, 219.6)[0],
        "price rising with rho": list(
            check_rho_monotone({(1.0, 0.03): 39.5, (1.0, 0.3): 80.0}).values()
        ),
    }
    controls = {
        "valid train output": check_train(0, log_ok, 0.03)[0],
        "valid simulate output": check_simulate(0, sim_ok, 20.8)[0],
        "valid price output": check_price(0, price_ok, 219.6)[0],
        "prices falling with rho": list(
            check_rho_monotone({(1.0, 0.03): 39.5, (1.0, 0.3): 35.0}).values()
        ),
    }
    missed = [f"doctored case not flagged: {name}" for name, p in doctored.items() if not p]
    missed += [f"control flagged: {name}: {p}" for name, p in controls.items() if p]
    return missed
