"""Repository benchmark: storagesddp CLI commands run in-process.

    python3 bench/run.py --workload train-reference --seed 0 --seconds 30 --trace 0

Every operation is one ``storagesddp.cli.main(argv)`` call, so config and
checkpoint I/O and CSV writing are measured without interpreter start-up.
Workloads (BENCHMARK.json says why each was chosen):

  train-reference  ``train`` on the default config (T=24, N=8, 1000 iterations)
  simulate-frozen  ``simulate --checkpoint`` on a pool trained during set-up
  price-grid       one ``price`` per point of capacity {0.5, 1, 2, 4} x rho {0.003, 0.03}
  all              the three above, each in its own child process
  price-defects    not benchmarked: the price-grid capacities at rho {0.03, 0.3},
                   where the rho 0.3 points fail (a known defect of short
                   trainings); it reports ``correct: false``

The workload seed sets ``sddp.seed`` and ``simulate.seed``.  Operations run
serially with numpy's BLAS pinned to one thread.  Whole passes over the
workload's operations repeat while the next one is predicted to end inside
``--seconds`` (at least one pass runs; two on train-reference).  Every
output is checked; an operation with a failed check or a non-zero exit code
counts as failed.

Times are wall-clock ``time.perf_counter`` seconds of the command calls.

``setup_s`` is the median time for a fresh interpreter to start and import
the CLI (five child processes), plus the median of five rounds of config
writing, loading and chain building, plus the pool training on
simulate-frozen.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
window untraced, then the same passes with span wrappers installed, and
reports the per-layer metrics with the tracing overhead.  Per-layer totals
(calls, seconds) are per traced pass and cover only the timed passes; set-up
is traced separately and reported under ``setup.`` names.

``peak_rss_mb`` is the process's ``ru_maxrss``.  On simulate-frozen it
includes the pool training of set-up.  ``--workload all`` runs each workload
in its own child process, so each reports its own peak.

The last line of stdout is the JSON result; the lines before it are a
readable report.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".benchrun"
TRACE_DIR = ROOT / ".bench_trace"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
SIM_SCENARIOS = 500
PRICE_ITERATIONS = 150
PRICE_CAPACITIES = (0.5, 1.0, 2.0, 4.0)
PRICE_RHOS = (0.003, 0.03)
WORKLOADS = ("train-reference", "simulate-frozen", "price-grid")
LIMITS = (
    "process-level timing only (perf_counter, getrusage); no CPU pinning; "
    "no page-cache dropping; shared host"
)


@dataclass
class Op:
    """One CLI command of a pass; ``key`` identifies it in the checks."""

    label: str
    argv: list[str]
    key: tuple = ()


@dataclass
class Outcome:
    op: Op
    code: int
    wall_s: float  # seconds of the command
    problems: list[str]
    info: dict


def run_cli(argv: list[str], tracer=None) -> tuple[int, str]:
    """One ``storagesddp.cli.main`` call: (exit code, stderr text)."""
    from storagesddp import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is what a user sees as a crash
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class Workload:
    """Set-up, operations and checks of one workload."""

    name = ""
    unit = ""  # what one unit of ``work`` is
    min_passes = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self._n = 0

    def configs(self) -> dict[tuple, dict]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Write, load and assemble every config (repeated to time set-up)."""
        from storagesddp import config

        self.paths, self.loaded, self.chains = {}, {}, {}
        for key, doc in self.configs().items():
            path = write_config(self.dir / f"config{len(self.paths)}.json", doc)
            self.paths[key] = path
            self.loaded[key] = config.load_config(path)
            self.chains[key] = config.build_chain_for(self.loaded[key])

    def setup_once(self, tracer=None) -> None:
        """One-off set-up after ``prepare``."""

    def out_dir(self) -> str:
        self._n += 1
        d = self.dir / f"op{self._n}"
        d.mkdir()
        return str(d)

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, code: int, out: str) -> tuple[list[str], dict]:
        raise NotImplementedError

    def check_pass(self, outcomes: list[Outcome]) -> None:
        """Checks across the operations of one pass (none by default)."""

    def work(self, outcome: Outcome) -> float:
        raise NotImplementedError

    def report(self, outcomes: list[Outcome]) -> dict[str, tuple[float | None, str]]:
        """Workload-specific end-to-end figures for the readable report."""
        return {}


class TrainReference(Workload):
    name = "train-reference"
    unit = "SDDP iterations"
    # one training takes about 20 s, so a 30 s window would hold a single
    # sample; two average out some of the host's run-to-run noise
    min_passes = 2

    def configs(self):
        return {(): {"sddp": {"seed": self.seed}}}

    def ops(self):
        return [Op("train", ["train", "--config", self.paths[()]])]

    def check(self, op, code, out):
        return checks.check_train(code, out, self.loaded[()].utility.rho)

    def work(self, outcome):
        return outcome.info.get("iterations", 0)

    def report(self, outcomes):
        rho = self.loaded[()].utility.rho
        done = [o for o in outcomes if "bound" in o.info]
        bound = done[-1].info["bound"] if done else None
        ce = -math.log(1.0 - rho * bound) / rho if bound is not None and rho * bound < 1 else None
        return {
            "train_iters_per_s": (rate(self, outcomes), "iter/s"),
            "bound_ce_eur": (ce, "EUR"),
        }


class SimulateFrozen(Workload):
    name = "simulate-frozen"
    unit = "out-of-sample scenarios"

    def configs(self):
        return {
            (): {
                "sddp": {"seed": self.seed},
                "simulate": {"scenarios": SIM_SCENARIOS, "seed": self.seed},
            }
        }

    def setup_once(self, tracer=None):
        pool_dir = self.dir / "pool"
        pool_dir.mkdir()
        code, err = run_cli(["train", "--config", self.paths[()], "--out", str(pool_dir)], tracer)
        problems, info = checks.check_train(code, str(pool_dir), self.loaded[()].utility.rho)
        if problems:
            raise RuntimeError(f"pool training failed: {problems}; {err.strip()}")
        self.trained_bound = info["bound"]
        self.checkpoint = str(pool_dir / "checkpoint.json")

    def ops(self):
        return [
            Op(
                "simulate",
                ["simulate", "--config", self.paths[()], "--checkpoint", self.checkpoint],
            )
        ]

    def check(self, op, code, out):
        return checks.check_simulate(code, out, self.trained_bound)

    def work(self, outcome):
        return outcome.info.get("scenarios", 0)

    def report(self, outcomes):
        rho = self.loaded[()].utility.rho
        done = [o for o in outcomes if "wealths" in o.info]
        ce = certainty_equivalent(done[-1].info["wealths"], rho) if done else None
        return {
            "sim_scenarios_per_s": (rate(self, outcomes), "scen/s"),
            "oos_ce_eur": (ce, "EUR"),
        }


class PriceGrid(Workload):
    name = "price-grid"
    unit = "price points"
    capacities = PRICE_CAPACITIES
    rhos = PRICE_RHOS

    def configs(self):
        return {
            (cap, rho): {
                "battery": {"capacity_mwh": cap},
                "utility": {"rho": rho},
                "sddp": {"iterations": PRICE_ITERATIONS, "seed": self.seed},
            }
            for cap in self.capacities
            for rho in self.rhos
        }

    def ops(self):
        return [
            Op(f"price capacity={cap} rho={rho}", ["price", "--config", path], (cap, rho))
            for (cap, rho), path in self.paths.items()
        ]

    def best_case(self, key) -> float:
        """Best-case whole-day profit on the chain's best bid and ask per stage."""
        import numpy as np
        from storagesddp.config import build_battery, build_price_model
        from storagesddp.sddp import best_case_trading

        cfg, chain = self.loaded[key], self.chains[key]
        model, battery = build_price_model(cfg), build_battery(cfg)
        da = np.asarray(model.day_ahead)[:, None]
        nodes = np.array(chain.nodes[1:])
        profit, _ = best_case_trading(
            (da + nodes - model.spread).max(axis=1),
            (da + nodes + model.spread).min(axis=1),
            battery.max_charge,
            battery.max_discharge,
            battery.charge_eff,
            battery.discharge_eff,
        )
        return profit

    def check(self, op, code, out):
        return checks.check_price(code, out, self.best_case(op.key))

    def check_pass(self, outcomes):
        prices = {o.op.key: o.info["price"] for o in outcomes if "price" in o.info}
        bad = checks.check_rho_monotone(prices)
        for o in outcomes:
            if o.op.key in bad:
                o.problems.append(bad[o.op.key])

    def work(self, outcome):
        return 1

    def report(self, outcomes):
        return {"price_points_per_min": (60.0 * rate(self, outcomes), "points/min")}


class PriceDefects(PriceGrid):
    """The price-grid capacities at rho 0.03 and 0.3: not a benchmark workload.

    At 150 iterations the rho 0.3 points raise DomainError or price far
    above the rho 0.03 price, so this reproduces the known defect that
    keeps rho 0.3 out of price-grid.
    """

    name = "price-defects"
    rhos = (0.03, 0.3)


def rate(workload: Workload, outcomes: list[Outcome]) -> float:
    """Work units per second of command time."""
    return sum(workload.work(o) for o in outcomes) / sum(o.wall_s for o in outcomes)


def certainty_equivalent(wealths: list[float], rho: float) -> float:
    """-ln(mean(exp(-rho * w))) / rho, shifted by min(w) against overflow."""
    low = min(wealths)
    mean = statistics.fmean(math.exp(-rho * (w - low)) for w in wealths)
    return low - math.log(mean) / rho


def run_passes(workload: Workload, ops: list[Op], seconds: float, passes: int | None,
               tracer=None) -> tuple[list[Outcome], int]:
    """Run whole passes until the window is used (or exactly ``passes`` passes)."""
    outcomes: list[Outcome] = []
    done = 0
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        this_pass = []
        for op in ops:
            out = workload.out_dir()
            t0 = time.perf_counter()
            code, err = run_cli(op.argv + ["--out", out], tracer)
            wall = time.perf_counter() - t0
            problems, info = workload.check(op, code, out)
            if err.strip() and problems:
                problems.append(err.strip().splitlines()[-1])
            this_pass.append(Outcome(op, code, wall, problems, info))
            shutil.rmtree(out, ignore_errors=True)
        workload.check_pass(this_pass)
        outcomes += this_pass
        done += 1
        pass_s = time.perf_counter() - p0
        if passes is not None:
            if done >= passes:
                break
        elif done >= workload.min_passes and time.perf_counter() - start + pass_s > seconds:
            break
    return outcomes, done


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def measure_import() -> float:
    """Median time of a fresh interpreter that starts and imports the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import storagesddp.cli"]
    return statistics.median(
        timed(lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=120))
        for _ in range(IMPORT_REPEATS)
    )


def measure_setup(workload: Workload, import_s: float, tracer=None) -> float:
    """Set-up time: start-up and import, the median of repeated light
    set-ups, and any one-off set-up."""
    light = statistics.median(timed(workload.prepare) for _ in range(SETUP_REPEATS))
    return import_s + light + timed(workload.setup_once, tracer)


def traced(tracer, fn, *args):
    """Call ``fn`` with the tracer's wrappers installed."""
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()


def run_workload(cls, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one workload; returns (JSON metrics, attempted, failed)."""
    import spans

    import_s = measure_import()
    import storagesddp.cli  # noqa: F401  (timed in the child interpreters above)

    workload = cls(seed, workdir / cls.name)
    if not trace:
        setup_s = measure_setup(workload, import_s)
        outcomes, passes = run_passes(workload, workload.ops(), seconds, None)
        plain = outcomes
    else:
        tracer = spans.Tracer()
        traced(tracer, measure_setup, workload, import_s, tracer)
        setup_layers = tracer.layer_metrics(passes=1)
        tracer.reset()
        ops = workload.ops()
        plain, passes = run_passes(workload, ops, seconds / 2.0, None)
        with_spans, _ = traced(tracer, run_passes, workload, ops, 0.0, passes, tracer)
        outcomes = plain + with_spans
        layers = tracer.layer_metrics(passes)
        layers["sddp.active_cut_frac"] = (spans.active_cut_fraction(tracer.policies), "ratio")
        for name in spans.SETUP_METRICS:
            value, unit = setup_layers[name]
            layers["setup." + name] = (value, unit.removesuffix("/pass"))
        overhead = sum(o.wall_s for o in with_spans) / sum(o.wall_s for o in plain)
        layers["trace.overhead_ratio"] = (overhead, "ratio")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.save(TRACE_DIR / f"{cls.name}-seed{seed}.npz")
    failed = sum(1 for o in outcomes if o.problems)
    peak_rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    report = {} if trace else {"setup_s": (setup_s, "s")}
    report.update(workload.report(plain))
    report["failed_frac"] = (failed / len(outcomes), "ratio")
    report["peak_rss_mb"] = peak_rss
    print_report(workload, outcomes, passes, report, failed, trace)
    if trace:
        for name, (value, unit) in layers.items():
            print(f"  {name:44s} {value:14.6g} {unit}")
        return layers, len(outcomes), failed
    metrics = {
        "setup_s": (setup_s, "s"),
        "work_per_s": (rate(workload, outcomes), "1/s"),
        "peak_rss_mb": peak_rss,
    }
    return metrics, len(outcomes), failed


def print_report(workload, outcomes, passes, report, failed, trace):
    """Readable report: failures, then the end-to-end figures by name and unit."""
    print(f"== {workload.name} (seed {workload.seed}, {passes} pass(es) of "
          f"{len(workload.ops())} command(s){', traced' if trace else ''})")
    for o in outcomes:
        if o.problems:
            print(f"  FAILED {o.op.label}: {'; '.join(o.problems)}")
    print(f"  work unit: {workload.unit}")
    for name, (value, unit) in report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        extra = f" ({failed} of {len(outcomes)} commands)" if name == "failed_frac" else ""
        print(f"  {name:24s} {shown:>14s} {unit}{extra}")


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (checkout has no .git)"


def provenance(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "limits": LIMITS,
    }


def run_all(args) -> int:
    """Each workload in its own child process; metrics prefixed ``<workload>/``."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {child.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all", PriceDefects.name))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "storagesddp" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    classes = {c.name: c for c in (TrainReference, SimulateFrozen, PriceGrid, PriceDefects)}
    try:
        missed = checks.self_test(str(workdir / "selftest"))
        if missed:
            print("error: output checks failed their self-test: " + "; ".join(missed),
                  file=sys.stderr)
            return 1
        print("check self-test: every doctored output counted as failed")
        metrics, attempted, failed = run_workload(
            classes[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()
    print("provenance " + json.dumps(provenance(args)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
