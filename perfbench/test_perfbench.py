"""The benchmark's own tests: a smoke run of every workload, failure accounting, spans."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from probe import Probe, span_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_run_emits_every_metric(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
                           "--seed", "1", "--seconds", "1", "--results", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                got = summary["metrics"].get(f"{workload}/{m['name']}")
                assert got is not None, f"{workload} did not emit {m['name']}"
                assert got["unit"] == m["unit"]
    records = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")
               if not p.name.endswith(".spans.json")]
    assert len(records) == 2 * len(WORKLOADS)
    for rec in records:
        assert rec["env"]["smo_engine"] in ("numpy", "numba")
        assert rec["checks"]["problems"] == []
        assert rec["failures"]["failed"] == len(rec["failures"]["reasons"])


def test_forced_solver_exception_is_counted_not_raised(tmp_path, monkeypatch):
    from newsmkl import mkl

    def broken(problem):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(mkl, "solve_accpm", broken)
    workload = WORKLOADS["mkl-solvers"]
    workload.make_inputs(5, tmp_path, smoke=True, env={})
    probe = Probe(timing=False)
    probe.install()
    try:
        rc, state = workload.run(tmp_path, tmp_path)
    finally:
        probe.uninstall()
    assert rc == 0
    assert mkl.solve_accpm is broken
    record = dict(probe.record(), after_run=workload.after_run(state))
    failures = dict(workload.outcomes(record))
    raised = {op: why for op, why in failures.items() if op.startswith("solve_accpm")}
    assert len(raised) == len(workload.smoke_kernel_counts)
    assert all(why.startswith("LinAlgError: forced") for why in raised.values())
    problems, _ = workload.check_pass(tmp_path, record)
    assert problems == []


def test_self_time_subtracts_direct_children():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["a", 5.0, 6.0, 0],
             ["a", 5.2, 5.7, 3]]
    totals = span_totals(spans)
    assert totals["root"] == {"calls": 1, "s": 10.0, "self_s": pytest.approx(6.0)}
    assert totals["a"]["calls"] == 3
    assert totals["a"]["s"] == pytest.approx(4.0)  # the nested "a" is not counted twice
    assert totals["a"]["self_s"] == pytest.approx(2.0 + 0.5 + 0.5)
    assert totals["b"]["self_s"] == pytest.approx(1.0)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mkl-solvers",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts_follow_the_pairs_rule():
    from compare import verdict

    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    faster = [v - 1.0 for v in parent]
    pairs = list(zip(parent, faster))
    assert verdict(parent, faster, pairs, 0.1, True, False) == "win"
    assert verdict(parent, faster, pairs, 0.1, True, True) == "no regression (more failures)"
    assert verdict(parent, faster, pairs[:5], 0.1, True, False) == "no regression"  # too few pairs
    slower = [v * 1.2 for v in parent]
    assert verdict(parent, slower, list(zip(parent, slower)), 0.1, True, False) == "regression"
    noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0, 10.0]
    assert verdict(parent, noisy, list(zip(parent, noisy)), 0.1, True, False) == "unresolved"
