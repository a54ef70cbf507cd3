import argparse
import dataclasses
import json
import subprocess
import sys
from datetime import time
from pathlib import Path

import pytest

from newsmkl import backtest, cli, market, mkl
from newsmkl.config import parse_overrides

RUN = [sys.executable, "-m", "newsmkl.cli"]


def run_cli(*args, check=True):
    out = subprocess.run(RUN + list(args), capture_output=True, text=True)
    if check:
        assert out.returncode == 0, f"{args}: {out.stderr}"
    return out


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    run_cli("synth", "--seed", "7", "--out", str(out),
            "--set", "n_events=350", "--set", "n_months=14", "--set", "tickers=AA,BB")
    return out


class TestSynth:
    def test_writes_expected_artifacts(self, synth_dir):
        for name in ("docs.jsonl", "prices.csv", "truth.csv", "manifest.json"):
            assert (synth_dir / name).exists()

    def test_byte_identical_on_repeat(self, synth_dir, tmp_path):
        out2 = tmp_path / "again"
        run_cli("synth", "--seed", "7", "--out", str(out2),
                "--set", "n_events=350", "--set", "n_months=14", "--set", "tickers=AA,BB")
        assert tree_bytes(synth_dir) == tree_bytes(out2)

    def test_manifest_contains_config_hash_and_seed(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["command"] == "synth"
        assert len(manifest["config_sha256"]) == 64

    def test_unknown_config_key_fails_with_single_line_error(self, tmp_path):
        out = run_cli("synth", "--seed", "1", "--out", str(tmp_path / "x"),
                      "--set", "bogus_key=1", check=False)
        assert out.returncode == 1
        lines = [ln for ln in out.stderr.splitlines() if ln.strip()]
        parsed = json.loads(lines[-1])
        assert "bogus_key" in parsed["message"]

    @pytest.mark.parametrize("key", ["event_start", "event_end"])
    def test_clock_key_says_what_it_expects(self, tmp_path, key):
        out = run_cli("synth", "--seed", "1", "--out", str(tmp_path / "x"),
                      "--set", f"{key}=10", check=False)
        parsed = _json_error(out)
        assert parsed == {"error": "ConfigError", "message": "expected HH:MM, got '10'"}
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("month", ["2004-13", "2004-00", "2004-1", "2004/01"])
    def test_malformed_start_month_single_line_json_error(self, tmp_path, month):
        out = run_cli("synth", "--seed", "1", "--out", str(tmp_path / "x"),
                      "--set", f"start_month={month}", check=False)
        parsed = _json_error(out)
        assert parsed == {"error": "MarketError", "message": f"expected a YYYY-MM month, got {month!r}"}
        assert not (tmp_path / "x").exists()

    def test_every_spec_field_parses_its_default_from_set(self):
        spec = market.SynthSpec()
        sets = []
        for f in dataclasses.fields(spec):
            value = getattr(spec, f.name)
            if isinstance(value, tuple):
                text = ",".join(value)
            elif isinstance(value, time):
                text = value.strftime("%H:%M")
            else:
                text = str(value)
            sets += ["--set", f"{f.name}={text}"]
        args = cli.build_parser().parse_args(["synth", "--seed", "0", "--out", "unused", *sets])
        assert len(args.set) == len(dataclasses.fields(spec))
        assert cli._synth_spec_from_config(parse_overrides(args.set)) == spec

    def test_config_file_option_is_refused(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("n_events = 50\n")
        out = run_cli("synth", "--seed", "1", "--out", str(tmp_path / "x"), "--config", str(cfg),
                      check=False)
        assert out.returncode == 2  # argparse usage error: --set is the one way to set a key
        assert "--config" in out.stderr
        assert not (tmp_path / "x").exists()


class TestFeaturize:
    def test_counts_csv_shape(self, synth_dir, tmp_path):
        out_csv = tmp_path / "features.csv"
        run_cli("featurize", "--docs", str(synth_dir / "docs.jsonl"), "--out", str(out_csv))
        lines = out_csv.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "id"
        assert len(lines) == 1 + 350
        assert all(len(ln.split(",")) == len(header) for ln in lines[1:])


class TestLabel:
    def test_events_csv(self, synth_dir, tmp_path):
        out_csv = tmp_path / "events.csv"
        run_cli("label", "--docs", str(synth_dir / "docs.jsonl"),
                "--prices", str(synth_dir / "prices.csv"),
                "--horizon", "10", "--percentile", "75", "--out", str(out_csv))
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("id,ticker,timestamp,horizon_minutes,r0")
        labels = {ln.split(",")[-1] for ln in lines[1:]}
        assert labels <= {"1", "-1"}
        assert len(lines) > 300


class TestTrain:
    def test_train_mkl_single_kernel_weight_file(self, synth_dir, tmp_path):
        out = tmp_path / "model"
        run_cli("train-mkl", "--docs", str(synth_dir / "docs.jsonl"),
                "--prices", str(synth_dir / "prices.csv"),
                "--plan", "linear-text", "--out", str(out))
        weights = json.loads((out / "weights.json").read_text())
        assert weights == [1.0]
        model = json.loads((out / "model.json").read_text())
        assert model["format"] == "newsmkl-model-v1"
        assert model["mkl_weights"] == [1.0]
        assert model["kernels"][0]["kind"] == "linear"

    def test_model_records_how_the_mkl_solve_ended(self, synth_dir, tmp_path):
        from newsmkl.svm import load_model

        out = tmp_path / "mkl"
        run_cli("train-mkl", "--docs", str(synth_dir / "docs.jsonl"),
                "--prices", str(synth_dir / "prices.csv"), "--plan", "linear4", "--out", str(out))
        model, record = load_model(out / "model.json")
        mkl = record["mkl"]
        assert list(mkl) == ["status", "gap", "iterations", "svm_solves", "smo_iterations",
                             "smo_not_converged"]
        assert mkl["status"] in ("converged", "flat_gradient", "stalled", "max_iters",
                                 "degenerate_localization")
        assert mkl["gap"] >= 0 and mkl["svm_solves"] >= mkl["iterations"] >= 1
        assert mkl["smo_iterations"] >= 1 and 0 <= mkl["smo_not_converged"] <= mkl["svm_solves"]
        # a model written before the diagnostics existed still loads, to the same model
        old = tmp_path / "old.json"
        old.write_text(json.dumps({k: v for k, v in record.items() if k != "mkl"}))
        old_model, old_record = load_model(old)
        assert "mkl" not in old_record
        assert old_model.bias == model.bias and list(old_model.alpha) == list(model.alpha)

    def test_train_svm_writes_model(self, synth_dir, tmp_path):
        out = tmp_path / "svm"
        run_cli("train-svm", "--docs", str(synth_dir / "docs.jsonl"),
                "--prices", str(synth_dir / "prices.csv"),
                "--feature", "text", "--kernel", "linear", "--C", "100",
                "--out", str(out))
        model = json.loads((out / "model.json").read_text())
        assert model["C"] == 100.0
        assert len(model["alpha"]) > 100


class TestBacktestCommand:
    def test_backtest_artifacts_and_determinism(self, synth_dir, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        args = ("backtest", "--docs", str(synth_dir / "docs.jsonl"),
                "--prices", str(synth_dir / "prices.csv"),
                "--plan", "linear-text", "--horizons", "10", "--out")
        run_cli(*args, str(out1))
        run_cli(*args, str(out2))
        assert tree_bytes(out1) == tree_bytes(out2)
        report = json.loads((out1 / "report.json").read_text())
        assert report["horizons"]["10"]["accuracy"] > 0.8
        windows = (out1 / "windows.csv").read_text().splitlines()
        assert windows[0] == ("window_id,horizon,n_train,n_test,accuracy,recall,sharpe,"
                              "n_kernels_active,lin_text,svm_solves,mkl_status,gap,mkl_iterations,"
                              "smo_iterations,smo_not_converged")
        assert len(windows) == 1 + len(report["horizons"]["10"]["windows"])


    def test_parallel_windows_match_serial(self, synth_dir, tmp_path):
        outs = {}
        for jobs in ("1", "2"):
            outs[jobs] = tmp_path / f"jobs{jobs}"
            run_cli("backtest", "--docs", str(synth_dir / "docs.jsonl"),
                    "--prices", str(synth_dir / "prices.csv"), "--plan", "linear4",
                    "--horizons", "10,250", "--c-grid", "10,100", "--jobs", jobs,
                    "--out", str(outs[jobs]))
        report = json.loads((outs["1"] / "report.json").read_text())
        for h in ("10", "250"):
            assert len(report["horizons"][h]["windows"]) >= 2
        for name in ("report.json", "windows.csv"):
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


    def test_horizon_flag_is_read_as_horizons(self, synth_dir, tmp_path):
        assert "horizon" not in _dests("backtest")
        out = tmp_path / "bt"
        run_cli("backtest", "--docs", str(synth_dir / "docs.jsonl"),
                "--prices", str(synth_dir / "prices.csv"), "--plan", "linear-text",
                "--horizon", "30", "--out", str(out))
        report = json.loads((out / "report.json").read_text())
        assert list(report["horizons"]) == ["30"]


class TestBenchCommand:
    def test_bench_csv_columns_and_trend(self, tmp_path):
        out_csv = tmp_path / "bench.csv"
        run_cli("bench-mkl", "--kernels", "3", "--dim", "40", "--runs", "2",
                "--seed", "1", "--C", "10", "--methods", "accpm,redgrad",
                "--out", str(out_csv))
        lines = out_csv.read_text().splitlines()
        assert lines[0] == ("method,n_kernels,kernel_dim,iterations,svm_solves,wall_time,final_gap,final_J,"
                            "status,smo_not_converged,smo_iterations")
        assert len(lines) == 1 + 4  # 2 runs x 2 methods
        rows = [ln.split(",") for ln in lines[1:]]
        methods = [r[0] for r in rows]
        assert methods.count("accpm") == 2 and methods.count("redgrad") == 2
        for r in rows:
            assert r[8] in ("converged", "flat_gradient", "stalled", "max_iters", "degenerate_localization")
            if r[8] == "converged":  # met the CLI's default gap target
                assert float(r[6]) <= 0.01
            assert 0 <= int(r[9]) <= int(r[4])
            assert int(r[10]) > 0  # smo_iterations, over every SVM solve of the run

    def test_bench_deterministic_except_wall_time(self, tmp_path):
        def strip_time(path):
            rows = []
            for ln in path.read_text().splitlines()[1:]:
                parts = ln.split(",")
                del parts[5]  # wall_time
                rows.append(",".join(parts))
            return rows

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            run_cli("bench-mkl", "--kernels", "2", "--dim", "30", "--runs", "2",
                    "--seed", "3", "--C", "10", "--out", str(p))
        assert strip_time(a) == strip_time(b)


def _subparser(command: str) -> argparse.ArgumentParser:
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


def _dests(command: str) -> set[str]:
    """The destinations of `command`'s options, --help aside."""
    return {a.dest for a in _subparser(command)._actions if not isinstance(a, argparse._HelpAction)}


def _option(command: str, dest: str) -> argparse.Action:
    """The argparse action of `command`'s option `dest`."""
    [action] = [a for a in _subparser(command)._actions if a.dest == dest]
    return action


def _json_error(out) -> dict:
    """The one stderr line of a failed command, parsed."""
    assert out.returncode == 1
    lines = [ln for ln in out.stderr.splitlines() if ln.strip()]
    assert len(lines) == 1
    return json.loads(lines[0])


class TestNamesFromTheLibrary:
    """Every name the CLI offers comes from the library's one table of it."""

    def test_solver_choices(self):
        for command in ("train-mkl", "backtest"):
            assert tuple(_option(command, "solver").choices) == tuple(mkl.SOLVERS)

    def test_methods_accepts_the_solver_names(self, tmp_path):
        assert _option("bench-mkl", "methods").default.split(",") == list(mkl.SOLVERS)
        out = run_cli("bench-mkl", "--methods", "accpm,bogus", "--out", str(tmp_path / "b.csv"),
                      check=False)
        message = _json_error(out)["message"]
        assert "'bogus'" in message and message.endswith(", ".join(mkl.SOLVERS))
        assert not (tmp_path / "b.csv").exists()

    def test_plan_lists_the_named_plans(self):
        for command in ("train-mkl", "backtest"):
            option = _option(command, "plan")
            assert option.help == f"kernel plan: one of {', '.join(backtest.PLANS)}"
            assert option.default in backtest.PLANS

    def test_kind_choices(self):
        for command in ("label", "train-svm", "train-mkl", "backtest"):
            assert tuple(_option(command, "kind").choices) == market.LABEL_KINDS

    def test_unknown_plan_single_line_json_error(self, synth_dir, tmp_path):
        for command in ("train-mkl", "backtest"):
            out = run_cli(command, "--docs", str(synth_dir / "docs.jsonl"),
                          "--prices", str(synth_dir / "prices.csv"), "--plan", "mkl12",
                          "--out", str(tmp_path / command), check=False)
            parsed = _json_error(out)
            assert parsed["error"] == "BacktestError"
            assert parsed["message"] == f"unknown plan 'mkl12'; choose from {', '.join(backtest.PLANS)}"


class TestErrors:
    def test_degree_below_one_single_line_json_error(self, synth_dir, tmp_path):
        out = run_cli("train-svm", "--docs", str(synth_dir / "docs.jsonl"),
                      "--prices", str(synth_dir / "prices.csv"), "--kernel", "polynomial",
                      "--degree", "0", "--out", str(tmp_path / "svm"), check=False)
        parsed = _json_error(out)
        assert parsed["error"] == "BacktestError" and "degree >= 1" in parsed["message"]
        assert not (tmp_path / "svm").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_single_line_json_error(self, tmp_path, jobs):
        # the documents do not exist: the check must come before any input is read
        out = run_cli("backtest", "--docs", str(tmp_path / "nope.jsonl"),
                      "--prices", str(tmp_path / "nope.csv"), "--jobs", jobs,
                      "--out", str(tmp_path / "bt"), check=False)
        parsed = _json_error(out)
        assert parsed["error"] == "BacktestError" and "jobs must be >= 1" in parsed["message"]
        assert not (tmp_path / "bt").exists()

    @pytest.mark.parametrize("command, flag, message", [
        ("backtest", ("--c-grid", "10,0"), "C must be positive"),
        ("backtest", ("--gap-tol", "0"), "gap_tol must be positive"),
        ("backtest", ("--percentile", "40"), "percentile must lie in [50, 95]"),
        ("backtest", ("--horizons", "10,15"), "horizon must be a multiple of 10"),
        ("label", ("--horizon", "15"), "horizon must be a multiple of 10"),
        ("train-svm", ("--horizon", "15"), "horizon must be a multiple of 10"),
        ("train-mkl", ("--horizon", "15"), "horizon must be a multiple of 10"),
        ("train-svm", ("--C", "0"), "C must be positive"),
        ("train-mkl", ("--C", "0"), "C must be positive"),
        ("train-mkl", ("--gap-tol", "-1"), "gap_tol must be positive"),
        ("train-svm", ("--kernel", "gaussian", "--sigma", "nan"), "0 < sigma < inf"),
        ("train-svm", ("--kernel", "gaussian", "--sigma", "inf"), "0 < sigma < inf"),
        ("train-svm", ("--kernel", "gaussian", "--sigma-scale", "nan"), "0 < sigma < inf"),
        ("backtest", ("--train-min-event-time", "10"), "expected HH:MM, got '10'"),
        ("backtest", ("--train-min-event-time", "25:00"), "expected HH:MM, got '25:00'"),
        ("train-svm", ("--C", "inf"), "C must be positive and finite, got inf"),
        ("backtest", ("--c-grid", "10,inf"), "C must be positive and finite, got inf"),
        ("train-mkl", ("--gap-tol", "inf"), "gap_tol must be positive and finite, got inf"),
        ("train-svm", ("--kernel", "linear", "--sigma", "nan"), "sigma must be finite, got nan"),
        ("train-svm", ("--kernel", "linear", "--sigma", "inf"), "sigma must be finite, got inf"),
        ("train-svm", ("--kernel", "linear", "--sigma-scale", "nan"),
         "sigma_scale must be finite, got nan"),
        ("train-svm", ("--kernel", "linear", "--sigma-scale", "inf"),
         "sigma_scale must be finite, got inf"),
        ("backtest", ("--horizons", "10,10"), "horizons repeats a value: 10, 10"),
        ("backtest", ("--c-grid", "10,100,10"), "c_grid repeats a value: 10.0, 100.0, 10.0"),
    ])
    def test_bad_setting_rejected_before_inputs_are_read(self, tmp_path, command, flag, message):
        # the inputs do not exist: the check must come before any of them is read
        out = run_cli(command, "--docs", str(tmp_path / "nope.jsonl"),
                      "--prices", str(tmp_path / "nope.csv"), *flag,
                      "--out", str(tmp_path / "out"), check=False)
        assert message in _json_error(out)["message"]
        assert not (tmp_path / "out").exists()

    def test_overflowing_kernel_single_line_json_error(self, synth_dir, tmp_path):
        # (x.y + 1)^2000 on the one-hot time-of-day bins overflows: the Gram's trace is inf
        out = run_cli("train-svm", "--docs", str(synth_dir / "docs.jsonl"),
                      "--prices", str(synth_dir / "prices.csv"), "--kernel", "polynomial",
                      "--degree", "2000", "--feature", "timeofday", "--C", "10",
                      "--out", str(tmp_path / "svm"), check=False)
        parsed = _json_error(out)
        assert parsed["error"] == "KernelError"
        assert "'polynomial_timeofday'" in parsed["message"] and "overflow" in parsed["message"]
        assert not (tmp_path / "svm" / "model.json").exists()

    @pytest.mark.parametrize("kernels", ["0", "-2"])
    def test_bench_without_kernels_single_line_json_error(self, tmp_path, kernels):
        out = run_cli("bench-mkl", "--kernels", kernels, "--dim", "20", "--runs", "1",
                      "--out", str(tmp_path / "b.csv"), check=False)
        assert "n_kernels must be >= 1" in _json_error(out)["message"]
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("flag, message", [
        (("--runs", "0"), "runs must be >= 1"),
        (("--runs", "-1"), "runs must be >= 1"),
        (("--methods", ","), "no solver named"),
        (("--methods", ""), "no solver named"),
        (("--dim", "0"), "dim must be >= 2"),
        (("--dim", "1"), "dim must be >= 2"),
    ])
    def test_bench_with_nothing_to_solve_single_line_json_error(self, tmp_path, flag, message):
        out = run_cli("bench-mkl", "--kernels", "2", "--dim", "20", "--runs", "1", *flag,
                      "--out", str(tmp_path / "b.csv"), check=False)
        assert message in _json_error(out)["message"]
        assert not (tmp_path / "b.csv").exists()

    def test_document_of_the_wrong_shape_single_line_json_error(self, tmp_path):
        docs = tmp_path / "docs.jsonl"
        docs.write_text('{"id": "a", "timestamp": 5, "ticker": "AAA", "text": "up"}\n')
        out = run_cli("featurize", "--docs", str(docs), "--out", str(tmp_path / "f.csv"), check=False)
        parsed = _json_error(out)
        assert parsed["error"] == "TextError"
        assert parsed["message"] == f"{docs}:1: bad document record: timestamp must be a string, got 5"
        assert not (tmp_path / "f.csv").exists()

    def test_unknown_command_exits_nonzero(self):
        out = run_cli("frobnicate", check=False)
        assert out.returncode == 2  # argparse usage error

    def test_missing_file_single_line_json_error(self, tmp_path):
        out = run_cli("featurize", "--docs", str(tmp_path / "nope.jsonl"),
                      "--out", str(tmp_path / "f.csv"), check=False)
        assert out.returncode == 1
        parsed = json.loads(out.stderr.strip().splitlines()[-1])
        assert parsed["error"] in ("FileNotFoundError", "OSError")

    def test_non_finite_price_single_line_json_error(self, synth_dir, tmp_path):
        prices = tmp_path / "prices.csv"
        rows = (synth_dir / "prices.csv").read_text().splitlines()
        ticker, ts, _ = rows[5].split(",")
        rows[5] = f"{ticker},{ts},nan"
        prices.write_text("\n".join(rows) + "\n")
        out = run_cli("label", "--docs", str(synth_dir / "docs.jsonl"), "--prices", str(prices),
                      "--out", str(tmp_path / "events.csv"), check=False)
        assert out.returncode == 1
        lines = [ln for ln in out.stderr.splitlines() if ln.strip()]
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["error"] == "MarketError"
        assert f"{prices}:6:" in parsed["message"]


class TestManifests:
    """A command's manifest records every flag it parsed, and nothing else."""

    @pytest.mark.parametrize("args", [
        ("train-svm", "--feature", "absret"),
        ("train-mkl", "--plan", "linear-absret"),
        ("backtest", "--plan", "linear-absret"),
        ("bench-mkl", "--kernels", "2", "--dim", "20", "--runs", "1"),
    ])
    def test_config_holds_every_parsed_flag(self, synth_dir, tmp_path, args):
        inputs = () if args[0] == "bench-mkl" else \
            ("--docs", str(synth_dir / "docs.jsonl"), "--prices", str(synth_dir / "prices.csv"))
        run_cli(*args, *inputs, "--out", str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == args[0]
        assert set(manifest["config"]) == _dests(args[0]) - {"out", "verbose", "seed"}

    def test_every_setting_changes_the_hash(self, synth_dir, tmp_path):
        hashes = set()
        for scale in ("1", "4"):
            out = tmp_path / scale
            run_cli("train-svm", "--docs", str(synth_dir / "docs.jsonl"),
                    "--prices", str(synth_dir / "prices.csv"), "--feature", "absret",
                    "--kernel", "gaussian", "--sigma-scale", scale, "--out", str(out))
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["sigma_scale"] == float(scale)
            hashes.add(manifest["config_sha256"])
        assert len(hashes) == 2
