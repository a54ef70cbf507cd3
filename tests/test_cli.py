import json
import subprocess
import sys
from pathlib import Path

import pytest

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
        assert windows[0].endswith("lin_text")
        assert len(windows) == 1 + len(report["horizons"]["10"]["windows"])


class TestBenchCommand:
    def test_bench_csv_columns_and_trend(self, tmp_path):
        out_csv = tmp_path / "bench.csv"
        run_cli("bench-mkl", "--kernels", "3", "--dim", "40", "--runs", "2",
                "--seed", "1", "--C", "10", "--methods", "accpm,redgrad",
                "--out", str(out_csv))
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "method,n_kernels,kernel_dim,iterations,svm_solves,wall_time,final_gap,final_J"
        assert len(lines) == 1 + 4  # 2 runs x 2 methods
        methods = [ln.split(",")[0] for ln in lines[1:]]
        assert methods.count("accpm") == 2 and methods.count("redgrad") == 2

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


class TestErrors:
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
