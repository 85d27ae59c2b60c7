import numpy as np
import pytest

import storagesddp as s
from storagesddp.errors import DataError, DegenerateInputError, StageOutOfRangeError


def make_model(**kw):
    base = dict(
        day_ahead=(50.0,) * 24,
        ar_coefficient=0.5,
        innovation_std=1.0,
        spread=1.0,
    )
    base.update(kw)
    return s.PriceModel(**base)


class TestFitAr:
    def test_noiseless_halving(self):
        fit = s.fit_ar(np.array([1.0, 0.5, 0.25, 0.125]))
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.residual_std == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_obs == 3

    def test_monte_carlo_recovery(self):
        model = make_model(day_ahead=(50.0,) * 100_000, ar_coefficient=0.48, innovation_std=10.0)
        path = s.simulate_deviation_path(model, rng_seed=5)
        fit = s.fit_ar(path)
        assert abs(fit.slope - 0.48) < 0.02
        assert abs(fit.residual_std - 10.0) < 0.2

    def test_recovery_tightens_with_sample_size(self):
        errs = []
        for n in (2_000, 200_000):
            model = make_model(day_ahead=(50.0,) * n, ar_coefficient=0.48, innovation_std=10.0)
            err = [
                abs(s.fit_ar(s.simulate_deviation_path(model, rng_seed=seed)).slope - 0.48)
                for seed in range(5)
            ]
            errs.append(np.mean(err))
        assert errs[1] < errs[0]

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            s.fit_ar(np.array([1.0, 2.0]))
        with pytest.raises(DegenerateInputError):
            s.fit_ar(np.array([3.0, 3.0, 3.0, 3.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DegenerateInputError, match="must be finite"):
                s.fit_ar(np.array([1.0, bad, 2.0, 3.0, 0.5]))


def write_prices(path, day_ahead, id1):
    """A price CSV with one complete row per (day_ahead, id1) pair."""
    rows = [f"t{i},{d!r},{v!r}" for i, (d, v) in enumerate(zip(day_ahead, id1))]
    path.write_text("timestamp,day_ahead,id1\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


class TestDeviations:
    def test_elementwise(self, tmp_path):
        csv = write_prices(tmp_path / "prices.csv", [48.0, 63.0], [50.0, 60.0])
        assert s.read_price_csv(csv)[0].tolist() == [2.0, -3.0]

    def test_drops_non_finite_prices(self, tmp_path):
        # float() parses both; a fit on them would report nan
        p = tmp_path / "prices.csv"
        p.write_text(
            "timestamp,day_ahead,id1\n"
            "2024-01-01T00:00,48.0,50.0\n"
            "2024-01-01T01:00,nan,49.0\n"
            "2024-01-01T02:00,63.0,60.0\n"
            "2024-01-01T03:00,55.0,inf\n"
            "2024-01-01T04:00,52.0,51.5\n"
            "2024-01-01T05:00,50.0,51.0\n",
            encoding="utf-8",
        )
        deviations, dropped = s.read_price_csv(str(p))
        assert dropped == 2
        assert deviations.tolist() == [2.0, -3.0, -0.5, 1.0]
        fit = s.fit_ar(deviations)
        assert all(np.isfinite([fit.slope, fit.intercept, fit.r_squared, fit.residual_std]))

    def test_identity_case(self, tmp_path):
        da = np.linspace(10, 80, 24).tolist()
        csv = write_prices(tmp_path / "prices.csv", da, da)
        assert np.all(s.read_price_csv(csv)[0] == 0.0)

    def test_mean_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        da = rng.normal(50, 20, 500)
        id1 = rng.normal(52, 25, 500)
        csv = write_prices(tmp_path / "prices.csv", da.tolist(), id1.tolist())
        out, _ = s.read_price_csv(csv)
        assert out.mean() == pytest.approx(id1.mean() - da.mean(), abs=1e-12)


class TestSimulatePath:
    def test_deterministic_recursion(self):
        model = make_model(
            day_ahead=(50.0,) * 3, ar_coefficient=0.5, innovation_std=0.0, initial_deviation=4.0
        )
        path = s.simulate_deviation_path(model, rng_seed=0)
        assert path.tolist() == pytest.approx([2.0, 1.0, 0.5])

    def test_white_noise_autocorrelation(self):
        model = make_model(day_ahead=(50.0,) * 100_000, ar_coefficient=0.0, innovation_std=1.0)
        x = s.simulate_deviation_path(model, rng_seed=3)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1) < 0.01

    def test_stationary_variance(self):
        sigma = 2.5
        model = make_model(day_ahead=(50.0,) * 1_000_000, ar_coefficient=0.48, innovation_std=sigma)
        x = s.simulate_deviation_path(model, rng_seed=9)
        target = sigma**2 / (1 - 0.48**2)
        assert abs(np.var(x) - target) / target < 0.02

    def test_pure_function_of_seed(self):
        model = make_model(day_ahead=(50.0,) * 50)
        a = s.simulate_deviation_path(model, rng_seed=42)
        b = s.simulate_deviation_path(model, rng_seed=42)
        assert np.array_equal(a, b)
        c = s.simulate_deviation_path(model, rng_seed=43)
        assert not np.array_equal(a, c)

    def test_batch_rows_are_scalar_recursions(self):
        # row k: seed k's innovations through the AR recursion one stage at
        # a time, as a scalar loop computes it
        model = make_model(ar_coefficient=0.48, innovation_std=3.2, initial_deviation=1.5)
        seeds = [7, 0, 7 ^ 5, 123456789]
        paths = s.simulate_deviation_paths(model, seeds)
        assert paths.shape == (4, 24)
        for row, seed in zip(paths, seeds):
            eps = np.random.default_rng(seed).normal(0.0, 3.2, size=24)
            xi, want = 1.5, []
            for e in eps.tolist():
                xi = 0.48 * xi + e
                want.append(xi)
            assert row.tolist() == want
            assert np.array_equal(s.simulate_deviation_path(model, seed), row)
        assert s.simulate_deviation_paths(model, []).shape == (0, 24)
        # the paths' length is the model's horizon
        short = make_model(day_ahead=(50.0,) * 6)
        assert s.simulate_deviation_paths(short, seeds).shape == (len(seeds), short.horizon)


class TestBidAsk:
    def test_reference_spread(self):
        model = make_model(spread=1.0)
        assert s.bid_ask(model, 1, 0.0) == (49.0, 51.0)

    def test_zero_spread(self):
        model = make_model(spread=0.0)
        bid, ask = s.bid_ask(model, 5, 3.0)
        assert bid == ask == 53.0

    def test_negative_prices(self):
        model = make_model(day_ahead=(10.0,) * 24, spread=1.0)
        assert s.bid_ask(model, 2, -25.0) == (-16.0, -14.0)

    def test_stage_out_of_range(self):
        model = make_model()
        with pytest.raises(StageOutOfRangeError):
            s.bid_ask(model, 0, 0.0)
        with pytest.raises(StageOutOfRangeError):
            s.bid_ask(model, 25, 0.0)

    def test_bid_below_ask_everywhere(self):
        model = make_model(spread=0.5)
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = int(rng.integers(1, 25))
            xi = float(rng.normal(0, 30))
            bid, ask = s.bid_ask(model, t, xi)
            assert bid < ask


class TestCsvIngestion:
    def test_reads_and_drops(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_text(
            "timestamp,day_ahead,id1\n"
            "2024-01-01T00:00,48.0,50.0\n"
            "2024-01-01T01:00,,49.0\n"
            "2024-01-01T02:00,63.0,60.0\n"
            "2024-01-01T03:00,oops,61.0\n",
            encoding="utf-8",
        )
        deviations, dropped = s.read_price_csv(str(p))
        assert dropped == 2
        assert deviations.tolist() == [2.0, -3.0]

    def test_drops_non_finite_prices(self, tmp_path):
        # float() parses both; a fit on them would report nan
        p = tmp_path / "prices.csv"
        p.write_text(
            "timestamp,day_ahead,id1\n"
            "2024-01-01T00:00,48.0,50.0\n"
            "2024-01-01T01:00,nan,49.0\n"
            "2024-01-01T02:00,63.0,60.0\n"
            "2024-01-01T03:00,55.0,inf\n"
            "2024-01-01T04:00,52.0,51.5\n"
            "2024-01-01T05:00,50.0,51.0\n",
            encoding="utf-8",
        )
        deviations, dropped = s.read_price_csv(str(p))
        assert dropped == 2
        assert deviations.tolist() == [2.0, -3.0, -0.5, 1.0]
        fit = s.fit_ar(deviations)
        assert all(np.isfinite([fit.slope, fit.intercept, fit.r_squared, fit.residual_std]))

    def test_reads_a_byte_order_mark(self, tmp_path):
        # spreadsheet exports often start with one; the header must still match
        p = tmp_path / "prices.csv"
        p.write_text(
            "timestamp,day_ahead,id1\n2024-01-01T00:00,48.0,50.0\n2024-01-01T01:00,63.0,60.0\n",
            encoding="utf-8-sig",
        )
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        deviations, dropped = s.read_price_csv(str(p))
        assert dropped == 0
        assert deviations.tolist() == [2.0, -3.0]

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DataError):
            s.read_price_csv(str(p))

    def test_header_without_id1(self, tmp_path):
        # every row would lack id1; the header is refused, not the rows
        p = tmp_path / "no_id1.csv"
        p.write_text("timestamp,day_ahead,price\n2024-01-01T00:00,48.0,50.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected header"):
            s.read_price_csv(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            s.read_price_csv(str(tmp_path / "nope.csv"))


class TestModelValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            make_model(innovation_std=-1.0)
        with pytest.raises(ValueError):
            make_model(spread=-0.1)
        with pytest.raises(ValueError):
            s.PriceModel((), 0.5, 1.0, 1.0)

    def test_stationary_std(self):
        assert make_model(ar_coefficient=0.48, innovation_std=3.0).stationary_std() == (
            pytest.approx(3.0 / np.sqrt(1 - 0.48**2))
        )
        assert make_model(ar_coefficient=1.0, innovation_std=3.0).stationary_std() == 3.0
