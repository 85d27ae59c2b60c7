import json
import os

import numpy as np
import pytest

from storagesddp.cli import main

SMALL = {
    "horizon": 6,
    "market": {"day_ahead": [40.0, 35.0, 50.0, 62.0, 55.0, 45.0]},
    "sddp": {"quadrature_points": 2, "iterations": 25, "seed": 0},
    "simulate": {"scenarios": 40, "seed": 1},
}


@pytest.fixture
def small_config(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(SMALL), encoding="utf-8")
    return str(p)


def write_csv(tmp_path, rows):
    p = tmp_path / "prices.csv"
    p.write_text("timestamp,day_ahead,id1\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(p)


class TestFit:
    def test_noiseless_fit(self, tmp_path, capsys):
        # deviations halve every hour: slope 0.5
        dev = [16.0, 8.0, 4.0, 2.0, 1.0, 0.5]
        rows = [f"t{i},50.0,{50.0 + d}" for i, d in enumerate(dev)]
        rc = main(["fit", write_csv(tmp_path, rows), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slope        0.500000" in out
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["slope"] == pytest.approx(0.5, abs=1e-12)

    def test_malformed_rows_dropped(self, tmp_path, capsys):
        rows = ["t0,50,52", "t1,50,", "t2,50,51", "t3,50,49.5", "t4,50,50.2"]
        rc = main(["fit", write_csv(tmp_path, rows), "--out", str(tmp_path)])
        assert rc == 0
        assert "dropped_rows 1" in capsys.readouterr().out

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["fit", str(tmp_path / "none.csv"), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "rows",
        [["t0,50,52", "t1,50,51"], [f"t{i},50.0,52.0" for i in range(6)]],
        ids=["two rows", "constant deviation"],
    )
    def test_unusable_data_is_data_error(self, tmp_path, capsys, rows):
        # too few observations or a constant regressor: the data, not the numerics
        assert main(["fit", write_csv(tmp_path, rows), "--out", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"horizon": 4, "battery": {"capacity": 1.0}}))
        assert main(["discretize", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["discretize", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_nan_capacity_is_config_error(self, tmp_path, capsys):
        # a NaN capacity passed every "<= 0" check and made training spin
        p = tmp_path / "nan.json"
        p.write_text('{"battery": {"capacity_mwh": NaN}}')
        assert main(["train", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "battery.capacity_mwh must be a finite number" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = dict(SMALL)
        cfg["market"] = {"day_ahead": [-40.0] * 6}
        p = tmp_path / "deep_negative.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(p), "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("command", ["discretize", "train", "price"])
    def test_quadrature_order_whose_weights_underflow(self, tmp_path, capsys, command):
        # at 400 points numpy's Gauss-Hermite weights are NaN: discretize
        # wrote a chain of NaN transitions and exited 0, train and price
        # failed with an untyped traceback
        cfg = {"horizon": 4, "price": {"sigma_eps": 0.1}}
        cfg["sddp"] = {"quadrature_points": 400, "iterations": 3}
        p = tmp_path / "fine.json"
        p.write_text(json.dumps(cfg))
        assert main([command, "--config", str(p), "--out", str(tmp_path)]) == 4
        assert "numerical failure" in capsys.readouterr().err
        assert [q.name for q in tmp_path.iterdir()] == ["fine.json"]

    def test_large_negative_wealth_is_numerical_failure(self, tmp_path, capsys):
        # the expected-utility bound overflows exp below about -700/rho of
        # initial wealth: a typed failure, and no checkpoint
        cfg = dict(SMALL, utility={"initial_wealth": -50000.0})
        p = tmp_path / "poor.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(p), "--out", str(tmp_path)]) == 4
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.json").exists()

    @pytest.mark.parametrize("command", ["train", "simulate", "price", "sweep"])
    def test_every_command_fails_typed_at_large_negative_wealth(
        self, tmp_path, capsys, command
    ):
        # the utility without storage overflows exp there as well
        cfg = dict(SMALL, utility={"initial_wealth": -50000.0})
        p = tmp_path / "poor.json"
        p.write_text(json.dumps(cfg))
        grid = ["--axis", "capacity", "--grid", "1.0"] if command == "sweep" else []
        assert main([command, "--config", str(p), "--out", str(tmp_path)] + grid) == 4
        assert "numerical failure" in capsys.readouterr().err


class TestCommands:
    def test_discretize(self, small_config, tmp_path):
        assert main(["discretize", "--config", small_config, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "chain.json").read_text())
        assert doc["horizon"] == 6
        assert len(doc["nodes"][1]) == 2

    def test_train_outputs(self, small_config, tmp_path):
        assert main(["train", "--config", small_config, "--out", str(tmp_path)]) == 0
        log = (tmp_path / "training_log.csv").read_text().splitlines()
        assert log[0] == "iteration,bound,path_objective,envelope_lines,seconds"
        assert len(log) == 26
        bounds = [float(r.split(",")[1]) for r in log[1:]]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
        ckpt = json.loads((tmp_path / "checkpoint.json").read_text())
        assert len(ckpt["pools"]) == 6

    def test_train_idempotent(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", small_config, "--out", str(out1)]) == 0
        assert main(["train", "--config", small_config, "--out", str(out2)]) == 0
        assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()
        # log CSVs agree except for the wall-time column
        rows1 = [r.rsplit(",", 1)[0] for r in (out1 / "training_log.csv").read_text().splitlines()]
        rows2 = [r.rsplit(",", 1)[0] for r in (out2 / "training_log.csv").read_text().splitlines()]
        assert rows1 == rows2

    def test_simulate_with_checkpoint(self, small_config, tmp_path):
        assert main(["train", "--config", small_config, "--out", str(tmp_path)]) == 0
        rc = main(
            [
                "simulate",
                "--config",
                small_config,
                "--checkpoint",
                str(tmp_path / "checkpoint.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        sim = (tmp_path / "simulation.csv").read_text().splitlines()
        assert sim[0] == "scenario,terminal_wealth,utility"
        assert len(sim) == 41
        dens = (tmp_path / "density.csv").read_text().splitlines()
        assert dens[0] == "x,density"
        x, d = np.loadtxt(
            str(tmp_path / "density.csv"), delimiter=",", skiprows=1, unpack=True
        )
        assert abs(np.trapezoid(d, x) - 1.0) < 1e-3

    @pytest.mark.parametrize("seed", [0, 100])
    def test_checkpoint_simulation_equals_trained_simulation(self, tmp_path, seed):
        # the default config: a reloaded checkpoint is the trained policy, so
        # its out-of-sample wealths are those of the policy in memory, byte
        # for byte
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sddp": {"seed": seed}}), encoding="utf-8")
        trained, loaded = tmp_path / "trained", tmp_path / "loaded"
        assert main(["train", "--config", str(config), "--out", str(loaded)]) == 0
        ckpt = str(loaded / "checkpoint.json")
        argv = ["simulate", "--config", str(config)]
        assert main(argv + ["--checkpoint", ckpt, "--out", str(loaded)]) == 0
        assert main(argv + ["--out", str(trained)]) == 0
        want = (trained / "simulation.csv").read_bytes()
        assert (loaded / "simulation.csv").read_bytes() == want

    @pytest.mark.parametrize(
        "change",
        [
            {"simulate": {"scenarios": 1, "seed": 1}},
            {"market": {**SMALL["market"], "spread_eur": 40.0}},
        ],
        ids=["one scenario", "never trades"],
    )
    def test_simulate_without_density(self, tmp_path, capsys, change):
        # equal terminal wealths have no density: the report stands without one
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL, **change}), encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "density skipped: need >= 2 samples with nonzero variance" in out
        assert "mean utility" in out
        assert (tmp_path / "simulation.csv").exists()
        assert not (tmp_path / "density.csv").exists()

    def test_price(self, small_config, tmp_path, capsys):
        assert main(["price", "--config", small_config, "--out", str(tmp_path)]) == 0
        assert "indifference price" in capsys.readouterr().out
        rows = (tmp_path / "price.csv").read_text().splitlines()
        assert rows[0] == "rho,price_eur,phi_with,phi_without,iterations"
        price = float(rows[1].split(",")[1])
        assert price > 0.0

    def test_sweep(self, small_config, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--config",
                small_config,
                "--axis",
                "capacity",
                "--grid",
                "0.5,1.0",
                "--rhos",
                "0.03",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "axis_value,rho,price_eur,bound,train_seconds"
        assert len(rows) == 3
        out = capsys.readouterr().out
        assert "rho=0.03" in out


@pytest.mark.parametrize(
    "options",
    [
        ["--grid", "1.0,0.5"],
        ["--grid", "0.5,0.5"],
        ["--grid", "0.5,x"],
        ["--grid", ""],
        ["--grid=-1,0.5"],
        ["--grid", "nan"],
        ["--grid", "0.5", "--rhos", "0"],
        ["--grid", "0", "--rhos", "nan"],
        ["--grid", "0.5", "--rhos", "0.03,y"],
        ["--grid", "0.5", "--rhos", "0.03,0.03"],
    ],
    ids=[
        "decreasing grid",
        "repeated grid point",
        "unparsable grid",
        "empty grid",
        "negative capacity",
        "nan capacity",
        "zero rho",
        "nan rho at zero capacity",
        "unparsable rhos",
        "repeated rho",
    ],
)
def test_sweep_refuses_bad_arguments(small_config, tmp_path, capsys, options):
    # each refusal is a configuration error (exit 2) before any training
    argv = ["sweep", "--config", small_config, "--axis", "capacity", "--out", str(tmp_path)]
    assert main(argv + options) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "sweep.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_out_dir_env_override(small_config, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("STORAGESDDP_OUT", str(target))
    assert main(["discretize", "--config", small_config]) == 0
    assert (target / "chain.json").exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("the command trained or evaluated before refusing its input")


@pytest.fixture
def no_work(monkeypatch):
    """Make every training or evaluation the CLI starts fail the test."""
    for name in ("train_from_config", "evaluate_out_of_sample", "price_storage", "price_sweep"):
        monkeypatch.setattr(f"storagesddp.cli.{name}", _must_not_run)


# (command, exit code): which input each reads from the file under test
READERS = [
    ("discretize", 2),
    ("train", 2),
    ("simulate", 2),
    ("price", 2),
    ("sweep", 2),
    ("simulate --checkpoint", 3),
    ("fit", 3),
]


def _argv(command, path, small_config):
    if command == "fit":
        return ["fit", path]
    if command == "simulate --checkpoint":
        return ["simulate", "--config", small_config, "--checkpoint", path]
    grid = ["--axis", "capacity", "--grid", "1.0"] if command == "sweep" else []
    return [command, "--config", path] + grid


@pytest.mark.parametrize("bad", ["not utf-8", "directory", "missing"])
@pytest.mark.parametrize("command, code", READERS, ids=[c for c, _ in READERS])
def test_unreadable_inputs_are_typed(small_config, tmp_path, capsys, no_work, command, code, bad):
    # a UTF-16 spreadsheet export starts with the bytes ff fe; read as UTF-8
    # it raised UnicodeDecodeError out of main with a traceback
    path = tmp_path / "input"
    if bad == "not utf-8":
        text = "timestamp,day_ahead,id1\nt0,50,52\n" if command == "fit" else "{}"
        path.write_bytes(text.encode("utf-16"))
        assert path.read_bytes()[:2] == b"\xff\xfe"
    elif bad == "directory":
        path.mkdir()
    argv = _argv(command, str(path), small_config) + ["--out", str(tmp_path / "out")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "data error:")
    assert "cannot read" in err and "Traceback" not in err


@pytest.mark.parametrize("via", ["--out", "STORAGESDDP_OUT"])
@pytest.mark.parametrize("command", [c for c, _ in READERS])
def test_out_that_is_a_file_is_refused_first(
    small_config, tmp_path, capsys, monkeypatch, no_work, command, via
):
    # os.makedirs raised FileExistsError out of main, and only after training
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text("{}", encoding="utf-8")
    csv = write_csv(tmp_path, ["t0,50,52", "t1,50,51", "t2,50,53"])
    path = {"fit": csv, "simulate --checkpoint": str(ckpt)}.get(command, small_config)
    out = tmp_path / "taken"
    out.write_text("not a directory", encoding="utf-8")
    argv = _argv(command, path, small_config)
    if via == "--out":
        argv += ["--out", str(out)]
    else:
        monkeypatch.setenv("STORAGESDDP_OUT", str(out))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot use output directory") and str(out) in err
    assert out.read_text(encoding="utf-8") == "not a directory"


def test_out_that_is_not_writable_is_refused_first(small_config, tmp_path, monkeypatch, no_work):
    # os.access stands in for a directory without write permission, which
    # a privileged user does not meet
    out = tmp_path / "locked"
    out.mkdir()
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: p != str(out) and access(p, mode))
    assert main(["train", "--config", small_config, "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


THREE_STAGE = {
    "horizon": 3,
    "market": {"day_ahead": [45.0, 60.0, 35.0]},
    "battery": {"capacity_mwh": 1.0},
    "utility": {"rho": 0.03},
    "sddp": {"quadrature_points": 2, "iterations": 10, "seed": 0},
    "simulate": {"scenarios": 20, "seed": 1},
}


@pytest.mark.parametrize(
    "case",
    [
        "other problem",
        "horizon",
        "truncated",
        "missing file",
        "old format",
        "missing key",
        "not an envelope",
        "empty pool",
    ],
)
def test_simulate_refuses_unusable_checkpoint(tmp_path, capsys, case):
    # each refusal is a data error (exit 3) with a message, not a traceback
    config = tmp_path / "config.json"
    config.write_text(json.dumps(THREE_STAGE), encoding="utf-8")
    assert main(["train", "--config", str(config), "--out", str(tmp_path)]) == 0
    ckpt = tmp_path / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    run = dict(THREE_STAGE)
    if case == "other problem":
        run = {**THREE_STAGE, "battery": {"capacity_mwh": 4.0}, "utility": {"rho": 0.3}}
    elif case == "horizon":
        run = {**THREE_STAGE, "horizon": 4, "market": {"day_ahead": [45.0, 60.0, 35.0, 50.0]}}
    elif case == "truncated":
        ckpt.write_text(ckpt.read_text()[: len(ckpt.read_text()) // 2])
    elif case == "missing file":
        ckpt.unlink()
    elif case == "old format":
        # the layout before format versions: horizon and pools only
        ckpt.write_text(json.dumps({"horizon": len(doc["pools"]), "pools": doc["pools"]}))
    elif case == "missing key":
        del doc["fingerprint"]
        ckpt.write_text(json.dumps(doc))
    elif case == "not an envelope":
        # a hand-edited break beyond the capacity
        doc["pools"][1][0]["breaks"][-1] = 2.0
        ckpt.write_text(json.dumps(doc))
    elif case == "empty pool":
        # a node without cuts has no value
        doc["pools"][1][0]["cuts"] = []
        ckpt.write_text(json.dumps(doc))
    config.write_text(json.dumps(run), encoding="utf-8")
    capsys.readouterr()
    argv = ["simulate", "--config", str(config), "--checkpoint", str(ckpt)]
    assert main(argv + ["--out", str(tmp_path / "sim")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "checkpoint" in err
