"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the storagesddp modules from
the benchmark's own files; the package is not edited.  A module function is
patched in every storagesddp namespace that holds it, so ``from .x import f``
bindings are traced too.  Each call through a wrapper records a span (name,
start, end, parent) in memory; per-layer metrics are computed from the spans
when the run ends, and the spans are written to a file.  Totals (calls and
seconds) are reported per pass, so that they do not grow with the number of
passes a time window holds.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

import numpy as np

# (module, function, span name)
FUNCTIONS = (
    ("storagesddp.config", "load_config", "config.load_config"),
    ("storagesddp.discretization", "build_chain", "discretization.build_chain"),
    ("storagesddp.discretization", "nearest_node", "discretization.nearest_node"),
    ("storagesddp.storage", "stage_data_for", "storage.stage_data_for"),
    ("storagesddp.price_model", "simulate_deviation_path", "price_model.simulate_deviation_path"),
    ("storagesddp.sddp", "train", "sddp.train"),
    ("storagesddp.sddp", "save_checkpoint", "sddp.save_checkpoint"),
    ("storagesddp.sddp", "load_checkpoint", "sddp.load_checkpoint"),
    ("storagesddp.simulation", "evaluate_out_of_sample", "simulation.evaluate_out_of_sample"),
    ("storagesddp.simulation", "kernel_density", "simulation.kernel_density"),
    ("storagesddp.valuation", "price_storage", "valuation.price_storage"),
)
# (module, class, method, span name)
METHODS = (
    ("storagesddp.stage_solver", "NodeSubproblem", "__init__", "stage_solver.build"),
    ("storagesddp.stage_solver", "NodeSubproblem", "solve", "stage_solver.solve"),
    ("storagesddp.stage_solver", "NodeSubproblem", "solve_terminal", "stage_solver.solve_terminal"),
    ("storagesddp.sddp", "Policy", "__init__", "sddp.policy_build"),
    ("storagesddp.sddp", "Policy", "root_bound", "sddp.root_bound"),
)
COMMAND = "cli.main"
# per-layer metrics also reported for the traced set-up, as ``setup.<name>``
SETUP_METRICS = ("sddp.train.s", "sddp.checkpoint_write_s")


class Tracer:
    """In-memory span recorder with install/uninstall of the module wrappers."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span (none may be open)."""
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self.cut_rows: list[int] = []  # len(sub.cutset) at each non-terminal solve
        self.terminal_passes: list[int] = []  # len(sol.gaps) of each terminal solve
        self.policies: list = []  # every Policy constructed

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(i)
        return i

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.starts[i] = t0
            self.ends[i] = t1

    def _wrap(self, fn, name: str, before=None, after=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = tracer._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.starts[i] = t0
                tracer.ends[i] = t1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _hooks(self, name: str):
        if name == "stage_solver.solve":
            def before(args):
                if args[0].cutset is not None:
                    self.cut_rows.append(len(args[0].cutset))
            return before, None
        if name == "stage_solver.solve_terminal":
            return None, lambda sol: self.terminal_passes.append(len(sol.gaps))
        if name == "sddp.policy_build":
            return lambda args: self.policies.append(args[0]), None
        return None, None

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in list(sys.modules.items()) if n.startswith("storagesddp")]
        for mod_name, attr, name in FUNCTIONS:
            fn = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(fn, name, *self._hooks(name))
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name, *self._hooks(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def save(self, path) -> None:
        """Write the spans as arrays: name codes, the name table, parents, start, end."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(
            path,
            names=np.array(table),
            code=np.array([index[n] for n in self.names], dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts),
            end=np.array(self.ends),
        )

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``; totals per pass.

        A span's self time is its duration minus the durations of its direct
        children; spans are properly nested, so children never overlap.
        ``sddp.active_cut_frac`` is left to ``active_cut_fraction``.
        """
        n = len(self.names)
        names = np.array(self.names, dtype=object)
        parent = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        has_parent = parent >= 0
        self_time = dur - np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )[:n]
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], "")

        def mask(name):
            return names == name

        def count(name):
            return int(mask(name).sum())

        def total(name):
            return float(dur[mask(name)].sum())

        def own(*span_names):
            return float(sum(self_time[mask(s)].sum() for s in span_names))

        def under(name, parent_span):
            return int(((names == name) & (parent_name == parent_span)).sum())

        def pct(name, q):
            d = dur[mask(name)]
            return float(np.percentile(d, q)) * 1e6 if d.size else 0.0

        def mean(values):
            return float(np.mean(values)) if len(values) else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def calls(value):
            return value / passes, "count/pass"

        def seconds(value):
            return value / passes, "s/pass"

        prices = count("valuation.price_storage")
        command = total(COMMAND)
        solve, terminal = "stage_solver.solve", "stage_solver.solve_terminal"
        return {
            "stage_solver.solve.calls": calls(count(solve)),
            "stage_solver.solve.us_p50": (pct(solve, 50), "us"),
            "stage_solver.solve.us_p99": (pct(solve, 99), "us"),
            "stage_solver.solve.cut_rows_mean": (mean(self.cut_rows), "rows"),
            "stage_solver.solve_terminal.calls": calls(count(terminal)),
            "stage_solver.solve_terminal.us_p50": (pct(terminal, 50), "us"),
            "stage_solver.terminal_passes_mean": (mean(self.terminal_passes), "passes"),
            "stage_solver.subproblem_builds": calls(count("stage_solver.build")),
            "stage_solver.subproblem_build_s": seconds(total("stage_solver.build")),
            "stage_solver.self_s": seconds(own(solve, terminal, "stage_solver.build")),
            "sddp.train.s": seconds(total("sddp.train")),
            "sddp.train.self_s": seconds(own("sddp.train")),
            "sddp.cuts_total": calls(sum(p.pools.total_cuts() for p in self.policies)),
            "sddp.root_bound.us_mean": (
                ratio(total("sddp.root_bound"), count("sddp.root_bound")) * 1e6,
                "us",
            ),
            "sddp.policy_build_s": seconds(total("sddp.policy_build")),
            "sddp.checkpoint_write_s": seconds(total("sddp.save_checkpoint")),
            "sddp.checkpoint_read_s": seconds(total("sddp.load_checkpoint")),
            "simulation.evaluate_out_of_sample.s": seconds(
                total("simulation.evaluate_out_of_sample")
            ),
            "simulation.self_s": seconds(
                own("simulation.evaluate_out_of_sample", "simulation.kernel_density")
            ),
            "simulation.kernel_density_s": seconds(total("simulation.kernel_density")),
            "valuation.price_storage.calls": calls(prices),
            "valuation.trainings_per_price": (
                ratio(under("sddp.train", "valuation.price_storage"), prices),
                "count",
            ),
            "valuation.ce_simulations": calls(
                under("simulation.evaluate_out_of_sample", "valuation.price_storage")
            ),
            "valuation.self_s": seconds(own("valuation.price_storage")),
            "price_model.simulate_deviation_path.calls": calls(
                count("price_model.simulate_deviation_path")
            ),
            "price_model.simulate_deviation_path.s": seconds(
                total("price_model.simulate_deviation_path")
            ),
            "discretization.build_chain.s": seconds(total("discretization.build_chain")),
            "discretization.nearest_node.calls": calls(count("discretization.nearest_node")),
            "discretization.nearest_node.s": seconds(total("discretization.nearest_node")),
            "storage.stage_data_for.calls": calls(count("storage.stage_data_for")),
            "storage.stage_data_for.s": seconds(total("storage.stage_data_for")),
            "config.load_config.s": seconds(total("config.load_config")),
            "cli.self_s": seconds(own(COMMAND)),
            "trace.span_coverage": (ratio(command - own(COMMAND), command), "ratio"),
        }


def active_cut_fraction(policies, n_paths: int = 300, seed: int = 20251208) -> float:
    """Share of cuts that are the maximum at some state on fixed sampled paths.

    Every policy is run forward along the same ``n_paths`` node paths (drawn
    like the training forward pass, from a fixed seed); at each visited
    (stage, node, state) the cut of that node's pool with the largest value
    is active, unless the -1/rho floor lies above it.  The result pools all
    policies: active cuts over stored cuts.
    """
    active = stored = 0
    for policy in policies:
        chain = policy.chain
        T = chain.horizon
        cum = [np.cumsum(m, axis=1) for m in chain.transitions]
        x0 = (policy.problem.utility.initial_wealth, 0.0)
        floor = -1.0 / policy.problem.utility.risk_aversion
        visited: dict[tuple[int, int], list[tuple[float, float]]] = {(0, 0): []}
        for k in range(n_paths):
            draws = np.random.default_rng([seed, k]).random(T)
            visited[(0, 0)].append(x0)
            j, state = 0, x0
            for t in range(T - 1):
                j = min(int(np.searchsorted(cum[t][j], draws[t])), chain.node_count(t + 1) - 1)
                state = policy.subproblem(t + 1, j).solve(state).next_state
                visited.setdefault((t + 1, j), []).append(state)
        for (t, j), states in visited.items():
            a, gw, ge = policy.pools.get(t, j).arrays()
            if a.size == 0:
                continue
            s = np.array(states)
            values = a[:, None] + gw[:, None] * s[None, :, 0] + ge[:, None] * s[None, :, 1]
            best = values.argmax(axis=0)
            above_floor = values[best, np.arange(len(states))] >= floor
            active += np.unique(best[above_floor]).size
        stored += policy.pools.total_cuts()
    return active / stored if stored else 0.0
