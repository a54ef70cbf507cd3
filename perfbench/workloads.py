"""The benchmark's workloads: their fixed inputs, how each pass runs, and output checks.

Each workload is a fixed dataset, named by the seed state it was sized on.
The benchmark's ``--seed`` draws the order in which the samples are
presented (document lines for the backtests, sample indices for the solver
instances): the same seed gives the same inputs, a new seed gives a new
presentation of the same data. That keeps the work per pass, and the
solver failures at seed state, the same for every seed.

The harness process never imports numpy or newsmkl; ``make_inputs`` and
``check_pass`` run there. ``setup`` and ``run`` run in a fresh child
process per pass.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from probe import OK_STATUSES, SOLVERS, failure_reason

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class Backtest:
    """`newsmkl synth` once, then `newsmkl backtest` on its documents and prices."""

    name: str
    why: str
    synth_seed: int
    synth_set: tuple[str, ...]
    smoke_set: tuple[str, ...]
    args: tuple[str, ...]
    gap_tol: float

    base = "backtest windows"
    artifacts = ("report.json", "windows.csv")

    def make_inputs(self, seed: int, inputs: Path, smoke: bool, env: dict) -> None:
        synth = inputs / "synth"
        sets = [a for kv in (self.smoke_set if smoke else self.synth_set) for a in ("--set", kv)]
        subprocess.run([sys.executable, "-m", "newsmkl.cli", "synth", "--seed", str(self.synth_seed),
                        "--out", str(synth), *sets], env=env, check=True, capture_output=True)
        with open(synth / "docs.jsonl", encoding="utf-8") as fh:
            lines = fh.readlines()
        random.Random(seed).shuffle(lines)
        with open(inputs / "docs.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        (synth / "prices.csv").rename(inputs / "prices.csv")
        shutil.rmtree(synth)

    def setup(self, inputs: Path) -> None:
        from newsmkl import market, text

        text.read_documents(inputs / "docs.jsonl")
        market.read_prices(inputs / "prices.csv")
        text.default_dictionary()

    def run(self, inputs: Path, out: Path) -> tuple[int, dict]:
        """Exit code and pass state; the probe stamps `ready` when the CLI has loaded its inputs."""
        from newsmkl import cli

        return cli.main(["backtest", "--docs", str(inputs / "docs.jsonl"),
                         "--prices", str(inputs / "prices.csv"), *self.args,
                         "--gap-tol", str(self.gap_tol), "--jobs", "1", "--out", str(out)]), {}

    def after_run(self, state: dict) -> dict:
        return {}

    def outcomes(self, record: dict) -> list[tuple[str, str | None]]:
        """(operation, failure reason or None) for every window attempted."""
        out = []
        for w in record["windows"]:
            op = f"h{w['horizon']} {w['window']}"
            bad = [s for s in w["solves"] if s.get("status") not in OK_STATUSES]
            if "skipped" in w:
                out.append((op, f"skipped: {w['skipped']}"))
            elif "raised" in w:
                out.append((op, w["raised"]))
            elif bad:
                s = bad[0]
                out.append((op, s.get("reason") or
                            f"{s['method']} status {s['status']} at gap {s['gap']:.4g}"
                            f" after {s['svm_solves']} SVM solves"))
            else:
                out.append((op, None))
        return out

    def check_pass(self, out: Path, record: dict) -> tuple[list[str], dict]:
        """Problems found in one pass's artifacts, and the pass's out-of-sample quality."""
        problems: list[str] = []
        try:
            with open(out / "report.json", encoding="utf-8") as fh:
                report = json.load(fh)["horizons"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"report.json does not parse: {exc}"], {}
        kernels = next((list(w["kernel_weights"]) for rep in report.values() for w in rep["windows"]), [])
        try:
            with open(out / "windows.csv", encoding="utf-8", newline="") as fh:
                body = list(csv.DictReader(fh))
            for row in body:
                if None in row or None in row.values():
                    problems.append(f"windows.csv row {row.get('window_id')} does not match the header")
                else:
                    _check_simplex([float(row[k]) for k in kernels], f"windows.csv {row['window_id']}",
                                   problems)
        except (OSError, csv.Error, KeyError, ValueError) as exc:
            return [f"windows.csv does not parse or lacks a kernel weight column: {exc!r}"], {}

        attempted: dict[int, int] = {}
        for w in record["windows"]:
            attempted[w["horizon"]] = attempted.get(w["horizon"], 0) + 1
            for s in w["solves"]:
                if s.get("status") == "converged" and not s["gap"] <= self.gap_tol:
                    problems.append(f"h{w['horizon']} {w['window']}: {s['method']} converged "
                                    f"with gap {s['gap']:.6g} > {self.gap_tol}")
        correct = total = 0
        sharpes = []
        n_windows = 0
        for h, rep in report.items():
            windows = rep["windows"]
            n_windows += len(windows)
            for w in windows:
                if list(w["kernel_weights"]) != kernels:
                    problems.append(f"h{h} {w['window_id']}: kernel names differ from other windows")
                _check_simplex(list(w["kernel_weights"].values()), f"h{h} {w['window_id']}", problems)
            conf = rep["confusion"]
            n_conf = conf["tp"] + conf["tn"] + conf["fp"] + conf["fn"]
            n_test = sum(w["n_test"] for w in windows)
            if not rep["n_predictions"] == n_conf == n_test:
                problems.append(f"h{h}: {rep['n_predictions']} predictions, confusion counts {n_conf}, "
                                f"windows hold {n_test} test events")
            if len(windows) + rep["n_skipped_windows"] != attempted.get(int(h), 0):
                problems.append(f"h{h}: {len(windows)} windows + {rep['n_skipped_windows']} skipped "
                                f"!= {attempted.get(int(h), 0)} attempted")
            correct += conf["tp"] + conf["tn"]
            total += n_conf
            if rep["sharpe"] is not None:
                sharpes.append(rep["sharpe"])
        if n_windows != len(body):
            problems.append(f"report.json has {n_windows} windows, windows.csv {len(body)}")
        quality = {}
        if total:
            quality["oos_accuracy"] = correct / total
        if sharpes:
            quality["oos_sharpe"] = sum(sharpes) / len(sharpes)
        return problems, quality


@dataclass(frozen=True)
class Solvers:
    """Both MKL solvers on `bench.make_bench_problem` instances, called once per instance."""

    name: str
    why: str
    instance_seed: int
    kernel_counts: tuple[int, ...]
    dim: int
    smoke_kernel_counts: tuple[int, ...]
    smoke_dim: int
    C: float
    gap_tol: float

    base = "MKL solves"
    artifacts = ("results.json",)

    def make_inputs(self, seed: int, inputs: Path, smoke: bool, env: dict) -> None:
        spec = {"instance_seed": self.instance_seed,
                "kernel_counts": list(self.smoke_kernel_counts if smoke else self.kernel_counts),
                "dim": self.smoke_dim if smoke else self.dim, "C": self.C, "gap_tol": self.gap_tol,
                "order_seed": seed}
        with open(inputs / "instances.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)

    def setup(self, inputs: Path) -> list:
        import numpy as np
        from newsmkl.bench import make_bench_problem
        from newsmkl.kernels import GramMatrix
        from newsmkl.mkl import MklProblem

        with open(inputs / "instances.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        order = np.random.default_rng(spec["order_seed"]).permutation(spec["dim"])
        ix = np.ix_(order, order)
        problems = []
        for n in spec["kernel_counts"]:
            p = make_bench_problem(spec["instance_seed"], n, spec["dim"], C=spec["C"],
                                   gap_tol=spec["gap_tol"])
            problems.append(MklProblem(
                kernels=[GramMatrix(values=k.values[ix], scale=k.scale) for k in p.kernels],
                labels=p.labels[order], C=p.C, gap_tol=p.gap_tol))
        return problems

    def run(self, inputs: Path, out: Path) -> tuple[int, dict]:
        """Exit code and pass state: the moment the instances were ready, and each solution."""
        from newsmkl import mkl

        problems = self.setup(inputs)
        ready = time.monotonic()
        solved, rows = [], []
        for problem in problems:
            for method in SOLVERS:
                row = {"n_kernels": problem.n_kernels, "method": method}
                try:
                    sol = getattr(mkl, method)(problem)
                except Exception as exc:  # counted as a failed operation, not raised
                    row.update(status="raised", reason=failure_reason(exc))
                    sol = None
                else:
                    row.update(status=sol.status, gap=sol.gap, iterations=sol.iterations,
                               svm_solves=sol.svm_solves, objective=sol.objective,
                               d=[float(w) for w in sol.d])
                rows.append(row)
                solved.append((problem, sol))
        with open(out / "results.json", "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
        return 0, {"ready": ready, "solved": solved}

    def after_run(self, state: dict) -> dict:
        """Duality gap of every returned solution, recomputed with the public mkl.duality_gap."""
        from newsmkl import mkl

        gaps = []
        for problem, sol in state["solved"]:
            if sol is None:
                gaps.append(None)
                continue
            try:
                gaps.append(mkl.duality_gap(problem, sol.d, sol.model.alpha))
            except mkl.MklError as exc:
                gaps.append(str(exc))
        return {"recomputed_gaps": gaps}

    def outcomes(self, record: dict) -> list[tuple[str, str | None]]:
        out = []
        for s in record["solves"]:
            op = f"{s['method']} n={s['n_kernels']}"
            if s.get("status") in OK_STATUSES:
                out.append((op, None))
            else:
                out.append((op, s.get("reason") or f"status {s['status']} at gap {s['gap']:.4g}"
                                                   f" after {s['svm_solves']} SVM solves"))
        return out

    def check_pass(self, out: Path, record: dict) -> tuple[list[str], dict]:
        try:
            with open(out / "results.json", encoding="utf-8") as fh:
                rows = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"results.json does not parse: {exc}"], {}
        problems: list[str] = []
        gaps = record["after_run"]["recomputed_gaps"]
        if len(gaps) != len(rows):
            return [f"{len(rows)} solver results but {len(gaps)} recomputed gaps"], {}
        for row, gap in zip(rows, gaps):
            if row["status"] not in OK_STATUSES:
                continue
            op = f"{row['method']} n={row['n_kernels']}"
            _check_simplex(row["d"], op, problems)
            if not isinstance(gap, float):
                problems.append(f"{op}: duality gap not recomputable: {gap}")
            elif not gap <= self.gap_tol:
                problems.append(f"{op}: status {row['status']} but recomputed gap {gap:.6g} > {self.gap_tol}")
        return problems, {}


def _check_simplex(weights: list[float], where: str, problems: list[str]) -> None:
    if not weights or any(not math.isfinite(w) or w < 0.0 for w in weights) \
            or abs(math.fsum(weights) - 1.0) > SIMPLEX_TOL:
        problems.append(f"{where}: kernel weights {weights} are not on the simplex")


WORKLOADS = {w.name: w for w in (
    Backtest(
        name="mkl13-backtest",
        why="13-kernel ACCPM backtest: mixing, warm-started SMO and cutting-plane layers busy, "
            "text layer nearly idle",
        synth_seed=21, synth_set=("n_events=1200", "n_months=15"),
        smoke_set=("n_events=160", "n_months=13", "tickers=AAA"),
        args=("--plan", "mkl13", "--horizons", "10", "--c-grid", "10"), gap_tol=1e-3),
    Backtest(
        name="text-cv-backtest",
        why="linear text kernel over 3 horizons and a 3-value C grid: featurization, Gram builds "
            "and CV refits busy, cutting plane idle",
        synth_seed=7, synth_set=(), smoke_set=("n_events=200", "n_months=13", "tickers=AAA"),
        args=("--plan", "linear-text", "--horizons", "10,20,30", "--c-grid", "10,100,1000"),
        gap_tol=0.01),
    Solvers(
        name="mkl-solvers",
        why="ACCPM and reduced gradient on 3- and 13-kernel instances (dim 500, seed 0): "
            "SMO- and cutting-plane-bound, with the solver failures of seed state counted",
        instance_seed=0, kernel_counts=(3, 13), dim=500, smoke_kernel_counts=(2, 3), smoke_dim=30,
        C=1000.0, gap_tol=0.01),
)}
