import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from coarsereg import DataFormatError, EvalGrid, RegressionCurve
from coarsereg.cli import main, parse_delta, parse_grid
from coarsereg.fourier import MAX_T_NODES
from coarsereg.io import (
    curve_csv_text,
    read_curve_csv,
    read_pairs_csv,
    read_replicates_csv,
    read_training_csv,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def train_csv(tmp_path):
    rng = np.random.default_rng(1)
    w = rng.uniform(0, 1, 50)
    y = np.sin(2 * np.pi * w) + rng.normal(0, 0.2, 50)
    path = tmp_path / "train.csv"
    lines = ["w,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(w, y)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def replicates_csv(tmp_path):
    rng = np.random.default_rng(2)
    v = rng.normal(0, 1, 300)
    lines = ["group,u"]
    for i, vi in enumerate(v):
        for u in (vi + rng.laplace(0, 0.4), vi + rng.laplace(0, 0.4)):
            lines.append(f"g{i},{float(u)!r}")
    path = tmp_path / "reps.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParsers:
    def test_grid(self):
        g = parse_grid("0:1:5")
        assert len(g) == 5 and g.points[0] == 0.0 and g.points[-1] == 1.0

    def test_grid_errors(self):
        for bad in ("0:1", "a:b:3", "0:1:2:3", "0:1:-5"):
            with pytest.raises(Exception):
                parse_grid(bad)

    def test_delta(self):
        assert parse_delta("gaussian:0.144").kind == "gaussian"
        assert parse_delta("laplace:2").scale == 2.0
        assert parse_delta("uniform:0.5").kind == "uniform"
        with pytest.raises(Exception):
            parse_delta("cauchy:1")


class TestCsvFormats:
    def test_training_round_trip(self, train_csv):
        s = read_training_csv(train_csv)
        assert s.n == 50

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError, match="header"):
            read_training_csv(p)

    def test_nan_rejected_with_location(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("w,y\n0.5,1.0\nnan,2.0\n")
        with pytest.raises(DataFormatError) as err:
            read_training_csv(p)
        record = err.value.record()
        assert record["line"] == 3 and record["column"] == "w"

    def test_inf_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("w,y\n0.5,inf\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            read_training_csv(p)

    def test_replicates_grouping(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("group,u\nalpha,1.0\nbeta,5.0\nalpha,2.0\nbeta,6.0\n")
        rep = read_replicates_csv(p)
        assert rep.n_groups == 2
        assert rep.n_pairs == 2

    def test_replicates_single_measurement_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("group,u\na,1.0\na,2.0\nb,3.0\n")
        with pytest.raises(DataFormatError, match="single measurement"):
            read_replicates_csv(p)

    def test_pairs(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("t,x\n0.0,1.0\n1.0,3.0\n")
        t, x = read_pairs_csv(p, columns=("t", "x"))
        np.testing.assert_array_equal(t, [0.0, 1.0])

    def test_curve_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = EvalGrid(np.sort(rng.uniform(0, 1, 17)))
        values = rng.normal(size=17)
        values[3] = np.nan
        variance = rng.uniform(0.1, 2.0, size=17)
        variance[3] = np.nan
        half = np.sqrt(variance)
        fit = RegressionCurve(grid=grid, values=values)
        band = RegressionCurve(grid=grid, values=values, variance=variance,
                               band_lower=values - half, band_upper=values + half)
        columns = (grid.points, values, variance, values - half, values + half)
        for curve, header in ((fit, "x,m_hat"), (band, "x,m_hat,v_hat,lower,upper")):
            p = tmp_path / "c.csv"
            p.write_text(curve_csv_text(curve))
            back = read_curve_csv(p)
            assert ",".join(back) == header
            for name, column in zip(back, columns):
                np.testing.assert_array_equal(back[name], column)


class TestCliCommands:
    def test_fit_known_format_contract(self, train_csv, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(["fit-known", "--train", str(train_csv),
                     "--delta", "gaussian:0.144", "--grid", "0:1:201",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,m_hat"
        assert len(lines) == 202

    def test_fit_known_stdout(self, train_csv, capsys):
        code = main(["fit-known", "--train", str(train_csv),
                     "--delta", "gaussian:0.144", "--grid", "0:1:3"])
        assert code == 0
        assert capsys.readouterr().out.startswith("x,m_hat")

    def test_ci_format_contract(self, train_csv, tmp_path):
        out = tmp_path / "ci.csv"
        code = main(["ci", "--train", str(train_csv), "--delta", "gaussian:0.144",
                     "--grid", "0.2:0.8:7", "--alpha", "0.05", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,m_hat,v_hat,lower,upper"
        row = [float(v) for v in lines[1].split(",")]
        assert row[3] <= row[1] <= row[4]

    def test_band_wider_than_ci(self, train_csv, tmp_path):
        ci_out = tmp_path / "ci.csv"
        band_out = tmp_path / "band.csv"
        main(["ci", "--train", str(train_csv), "--delta", "gaussian:0.144",
              "--grid", "0.3:0.7:5", "--out", str(ci_out)])
        main(["band", "--train", str(train_csv), "--delta", "gaussian:0.144",
              "--grid", "0.3:0.7:5", "--nsim", "5000", "--seed", "3",
              "--out", str(band_out)])
        ci = read_curve_csv(ci_out)
        band = read_curve_csv(band_out)
        assert np.all(band["lower"] <= ci["lower"] + 1e-12)
        assert np.all(band["upper"] >= ci["upper"] - 1e-12)

    @pytest.mark.parametrize("command", ["ci", "band"])
    def test_one_observation_error_record(self, command, tmp_path, capsys):
        train, out = tmp_path / "one.csv", tmp_path / "out.csv"
        train.write_text("w,y\n0.5,1.0\n")
        code = main([command, "--train", str(train), "--delta", "gaussian:0.1",
                     "--grid", "0:1:3", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "confidence interval needs n >= 2"}
        assert not out.exists()

    def test_negative_grid_count_error_record(self, train_csv, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(["fit-known", "--train", str(train_csv), "--delta", "gaussian:0.144",
                     "--grid", "0:1:-5", "--out", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {"error": "grid needs at least 2 points"}
        assert not out.exists()

    def test_cf_table(self, replicates_csv, tmp_path):
        out = tmp_path / "cf.csv"
        code = main(["cf", "--replicates", str(replicates_csv),
                     "--tmax", "2", "--tstep", "0.5", "--out", str(out)])
        assert code == 0
        table = read_curve_csv(out)
        assert list(table) == ["t", "cf"]
        mid = len(table["t"]) // 2
        assert table["cf"][mid] == 1.0

    def test_fit_fourier(self, train_csv, replicates_csv, tmp_path):
        out = tmp_path / "f.csv"
        code = main(["fit-fourier", "--train", str(train_csv),
                     "--replicates", str(replicates_csv), "--grid", "0:1:5",
                     "--lambdadelta", "2", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "x,m_hat"

    @pytest.mark.parametrize("decays, named", [
        (["--lambdadelta", "-1"], "error_decay"),
        (["--lambda", "0.5", "--lambdadelta", "0.5"], "signal_decay"),
        (["--lambdadelta", "nan"], "error_decay"),
        (["--lambdadelta", "0", "--lambda", "0.5"], "error_decay"),
    ])
    def test_fit_fourier_decay_outside_the_policy_domain(self, train_csv, replicates_csv,
                                                         capsys, decays, named):
        code = main(["fit-fourier", "--train", str(train_csv),
                     "--replicates", str(replicates_csv), "--grid", "0:1:5", *decays])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"].startswith(f"{named} must be finite")

    @pytest.mark.parametrize("command", [
        ["cf", "--tmax", "2", "--tstep", "0.5"],
        ["fit-fourier", "--grid", "0:1:5", "--lambdadelta", "2"],
    ], ids=["cf", "fit-fourier"])
    def test_overflowing_replicates_error_record(self, command, train_csv, tmp_path, capsys):
        reps, out = tmp_path / "reps.csv", tmp_path / "out.csv"
        reps.write_text("group,u\na,1e308\na,-1e308\nb,0\nb,1\nc,2\nc,3\n")
        extra = ["--train", str(train_csv)] if command[0] == "fit-fourier" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, *extra, "--replicates", str(reps), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "group 'a': pair differences overflow (values from -1e+308 to 1e+308)",
            "file": str(reps), "line": None, "column": None}
        assert not out.exists()

    def test_fit_proxy_json(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        rng = np.random.default_rng(6)
        t = rng.uniform(0, 1, 60)
        x = 1.0 + 2.0 * t + rng.normal(0, 0.1, 60)
        pairs.write_text("\n".join(
            ["t,x"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, x)]) + "\n")
        out = tmp_path / "fit.json"
        code = main(["fit-proxy", "--pairs", str(pairs), "--out", str(out)])
        assert code == 0
        fit = json.loads(out.read_text())["proxy_fit"]
        assert fit["slope"] == pytest.approx(2.0, abs=0.2)
        assert fit["n"] == 60

    def test_fit_proxy_infers_a_gaussian_delta(self, tmp_path):
        rng = np.random.default_rng(7)
        pairs, train = tmp_path / "pairs.csv", tmp_path / "train.csv"
        t = rng.uniform(0, 1, 60)
        x = 1.0 + 2.0 * t + rng.normal(0, 0.1, 60)
        pairs.write_text("\n".join(
            ["t,x"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, x)]) + "\n")
        t = rng.uniform(0, 1, 80)
        train.write_text("\n".join(
            ["t,y"] + [f"{float(a)!r},{float(math.sin(3 * a))!r}" for a in t]) + "\n")
        out = tmp_path / "fit.json"
        code = main(["fit-proxy", "--pairs", str(pairs), "--train", str(train),
                     "--grid", "1.5:2.5:5", "--format", "json", "--out", str(out)])
        assert code == 0
        body = json.loads(out.read_text())
        fit = body["proxy_fit"]
        assert fit["delta"] == f"gaussian:{math.sqrt(fit['residual_variance']):g}"
        assert fit["delta"].startswith("gaussian:0.")
        assert len(body["curve"]["m_hat"]) == 5

    def test_fit_proxy_perfect_calibration_needs_delta(self, tmp_path, capsys):
        pairs, train = tmp_path / "pairs.csv", tmp_path / "train.csv"
        pairs.write_text("t,x\n0,1\n1,3\n2,5\n3,7\n")
        train.write_text("t,y\n0,1\n1,2\n2,3\n")
        out = tmp_path / "fit.json"
        code = main(["fit-proxy", "--pairs", str(pairs), "--train", str(train),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err) == {
            "error": "cannot infer an error density from a perfect fit; pass --delta"
        }
        assert not out.exists()

    def test_nw_cv(self, train_csv, tmp_path):
        out = tmp_path / "nw.csv"
        code = main(["nw", "--train", str(train_csv), "--grid", "0:1:9",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "x,m_hat"

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_nw_bad_bandwidth_error_record(self, value, train_csv, tmp_path, capsys):
        out = tmp_path / "nw.csv"
        code = main(["nw", "--train", str(train_csv), "--grid", "0:1:9",
                     "--bandwidth", value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        message = f"bandwidth must be positive and finite, got {float(value)}"
        assert json.loads(err) == {"error": message}
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "", "0.1,0.2"])
    def test_nw_unparsable_bandwidth_names_the_flag(self, value, train_csv, tmp_path, capsys):
        out = tmp_path / "nw.csv"
        code = main(["nw", "--train", str(train_csv), "--grid", "0:1:9",
                     "--bandwidth", value, "--out", str(out)])
        assert code == 1
        message = f"--bandwidth expects 'cv' or a positive number, got {value!r}"
        assert json.loads(capsys.readouterr().err) == {"error": message}
        assert not out.exists()

    def test_extrema_and_zeros(self, train_csv, tmp_path):
        out = tmp_path / "e.csv"
        code = main(["extrema", "--train", str(train_csv),
                     "--delta", "gaussian:0.144", "--interval", "0:1",
                     "--kind", "max", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header == "location,value"
        code = main(["zeros", "--train", str(train_csv),
                     "--delta", "gaussian:0.144", "--interval", "0:1",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "location"

    KNOWN = ["--train", "{train}", "--delta", "gaussian:0.144"]
    STUDY = ["simulate", "--model", "logistic", "--n", "20", "--nsdelta", "0.25",
             "--reps", "2"]

    @pytest.mark.parametrize("args, named", [
        (["zeros", "--interval", "0:1", "--level", "nan", *KNOWN], "level must be finite"),
        (["zeros", "--interval", "0:inf", *KNOWN], "need finite lo < hi"),
        (["extrema", "--interval=-inf:1", *KNOWN], "need finite lo < hi"),
        # a point list's error names its flag
        ([*STUDY, "--coverage-at", "0.5,"],
         "--coverage-at expects comma-separated numbers, got '0.5,'"),
        ([*STUDY, "--rmse-at", "0.25;0.5"],
         "--rmse-at expects comma-separated numbers, got '0.25;0.5'"),
    ])
    def test_non_finite_search_error_record(self, args, named, train_csv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main([arg.format(train=train_csv) for arg in args] + ["--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"].startswith(named)
        assert not out.exists()

    def test_json_output_carries_provenance(self, train_csv, tmp_path):
        out = tmp_path / "c.json"
        code = main(["fit-known", "--train", str(train_csv),
                     "--delta", "gaussian:0.144", "--grid", "0:1:3",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        body = json.loads(out.read_text())
        prov = body["provenance"]
        assert prov["version"]
        assert "fit-known" in prov["command"]
        assert prov["seed"] == 0

    def test_missing_file_error_record(self, tmp_path, capsys):
        code = main(["fit-known", "--train", str(tmp_path / "nope.csv"),
                     "--delta", "gaussian:0.1", "--grid", "0:1:3"])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert "error" in record

    @pytest.mark.parametrize("callee, argv", [
        ("simultaneous_band", ["band", "--delta", "gaussian:0.1", "--grid", "0:1:3",
                               "--nsim", "1000000000000"]),
        ("fit_known", ["fit-known", "--delta", "gaussian:0.1", "--grid", "0:1:3"]),
        ("run_replications", ["simulate", "--model", "m1", "--n", "1000000000000",
                              "--nsdelta", "0.2", "--nseps", "0.1", "--reps", "1"]),
    ])
    def test_allocation_failure_error_record(self, callee, argv, train_csv, tmp_path, capsys,
                                             monkeypatch):
        # the callee raises as numpy does for a size the machine cannot
        # hold; nothing is allocated for real, since under overcommit a huge
        # request may be granted and its pages then killed when touched
        message = ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                   "and data type float64")

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(f"coarsereg.cli.{callee}", refuse)
        out = tmp_path / "out.csv"
        if argv[0] != "simulate":
            argv = argv + ["--train", str(train_csv)]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err) == {"error": message}
        assert not out.exists()

    def test_data_error_record_names_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("w,y\n0.1,nan\n")
        code = main(["fit-known", "--train", str(bad),
                     "--delta", "gaussian:0.1", "--grid", "0:1:3"])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["line"] == 2 and record["column"] == "y"

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit-known", "--delta", "gaussian:0.1", "--grid", "0:1:3"])
        assert exc.value.code == 2

    def test_invalid_density_scale_error_record(self, train_csv, capsys):
        for scale in ("-1", "inf"):
            code = main(["fit-known", "--train", str(train_csv),
                         "--delta", f"gaussian:{scale}", "--grid", "0:1:3"])
            assert code == 1
            record = json.loads(capsys.readouterr().err)
            assert "positive" in record["error"]
            assert f"sigma must be finite and positive, got {float(scale)}" == record["error"]

    def test_density_scale_with_an_infinite_peak_error_record(self, train_csv, capsys):
        code = main(["fit-known", "--train", str(train_csv),
                     "--delta", "gaussian:1e-320", "--grid", "0:1:3"])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "sigma 1e-320 is too small: the peak density overflows"

    @pytest.mark.parametrize("args", [
        ["fit-fourier", "--tau", "inf"],
        ["fit-fourier", "--tau", "1e308"],
        ["fit-fourier", "--tau", "nan"],
        ["cf", "--tmax", "inf", "--tstep", "0.1"],
    ])
    def test_non_finite_cutoff_error_record(self, args, train_csv, replicates_csv, capsys):
        inputs = ["--replicates", str(replicates_csv)]
        if args[0] == "fit-fourier":
            inputs += ["--train", str(train_csv), "--grid", "0:1:5"]
        assert main(args + inputs) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "finite" in json.loads(err)["error"]

    @pytest.mark.parametrize("args", [
        ["fit-fourier", "--tau", "1e12", "--tstep", "1e-3"],
        ["cf", "--tmax", "1e12", "--tstep", "1e-3"],
    ])
    def test_frequency_grid_over_the_node_limit_error_record(self, args, train_csv,
                                                             replicates_csv, capsys):
        inputs = ["--replicates", str(replicates_csv)]
        if args[0] == "fit-fourier":
            inputs += ["--train", str(train_csv), "--grid", "0:1:5"]
        assert main(args + inputs) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        message = json.loads(err)["error"]
        assert f"needs {2 * round(1e12 / 1e-3) + 1} frequency nodes" in message
        assert message.endswith(f"limit of {MAX_T_NODES}")


SIM = ["simulate", "--model", "m1", "--nsdelta", "0.2", "--nseps", "0.1", "--grid", "0:1:5"]


@pytest.mark.parametrize("args, message", [
    (["extrema", "--train", "{train}", "--delta", "gaussian:0.1", "--interval", "0.7:0.3"],
     "--interval needs lo < hi, got '0.7:0.3'"),
    ([*SIM, "--n", "20", "--reps", "0"], "need at least one replicate"),
    ([*SIM, "--n", "1", "--reps", "2"], "need n >= 2, got 1"),
    ([*SIM, "--n", "20", "--reps", "2", "--nsdelta", "0", "--estimator", "known"],
     "degenerate contamination has no density representation"),
    (["fit-fourier", "--train", "{train}", "--replicates", "{reps}", "--grid", "0:1:5",
      "--tau", "5", "--tstep", "0"], "t_step must be positive, got 0.0"),
    (["cf", "--replicates", "{reps}", "--tmax", "5", "--tstep", "0"],
     "step must be positive, got 0.0"),
    (["cf", "--replicates", "{reps}", "--tmax", "0.01", "--tstep", "1"],
     "cutoff 0.01 too small for step 1.0"),
    (["nw", "--train", "{flat}", "--grid", "0:1:5", "--bandwidth", "cv"],
     "predictors have no variation; CV grid undefined"),
], ids=["extrema-interval", "simulate-reps", "simulate-n", "simulate-nsdelta",
        "fit-fourier-tstep", "cf-tstep", "cf-cutoff", "nw-flat-cv"])
def test_argument_check_error_record(args, message, train_csv, replicates_csv, tmp_path,
                                     capsys):
    flat, out = tmp_path / "flat.csv", tmp_path / "out"
    flat.write_text("w,y\n" + "".join(f"0.5,{y}\n" for y in range(10)))
    paths = {"{train}": str(train_csv), "{reps}": str(replicates_csv), "{flat}": str(flat)}
    assert main([paths.get(a, a) for a in args] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": message}
    assert not out.exists()


class TestSimulate:
    ARGS = ["simulate", "--model", "logistic", "--n", "40", "--nsdelta", "0.25",
            "--reps", "8", "--seed", "7", "--grid=-0.3:0.3:5",
            "--rmse-at", "0", "--coverage-at", "0"]

    @pytest.mark.golden
    def test_matches_golden_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(self.ARGS + ["--out", str(out)])
        assert code == 0
        got = json.loads(out.read_text())
        golden = json.loads((DATA / "golden_simulate.json").read_text())
        # provenance embeds the --out path, which is run-specific
        assert got["report"] == golden["report"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--nsdelta", "--nseps"])
    def test_non_finite_noise_ratio_error_record(self, flag, value, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["simulate", "--model", "m1", "--n", "20", "--nsdelta", "0.2",
                     "--nseps", "0.5", "--reps", "2", flag, value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "must be finite and nonnegative" in json.loads(err)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--rmse-at", "--coverage-at"])
    def test_non_finite_query_point_error_record(self, flag, value, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["simulate", "--model", "m1", "--n", "20", "--nsdelta", "0.2",
                     "--nseps", "0.5", "--reps", "2", flag, f"0.5,{value}", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err) == {
            "error": f"coverage and RMSE points must be finite, got {float(value)!r}"}
        assert not out.exists()

    def test_writes_decile_csv(self, tmp_path):
        out = tmp_path / "report.json"
        main(self.ARGS + ["--out", str(out)])
        deciles = read_curve_csv(tmp_path / "report_deciles.csv")
        assert list(deciles) == ["x", "d1", "d5", "d9"]
        assert len(deciles["x"]) == 5

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("source", ["flag"])  # the one source of the count
    def test_thread_count_below_one_is_a_usage_error(self, value, source, tmp_path, capsys):
        out = tmp_path / "report.json"
        args = self.ARGS + ["--out", str(out), "--threads", value]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"--threads: expects a whole number of at least 1, got '{value}'" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_across_thread_counts(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(self.ARGS + ["--out", str(a), "--threads", "1"])
        main(self.ARGS + ["--out", str(b), "--threads", "3"])
        ra = json.loads(a.read_text())["report"]
        rb = json.loads(b.read_text())["report"]
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
