"""The newsmkl benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of ``mkl13-backtest``, ``text-cv-backtest``, ``mkl-solvers``
(see workloads.py for why each exists); ``all`` runs each of them untraced
and then traced. Every pass of a workload is a fresh Python process that
runs the package the way a user does (the ``newsmkl`` CLI for the
backtests, the solver functions for ``mkl-solvers``).

``--seed`` draws the order in which the workload's fixed dataset is
presented (see workloads.py). ``--trace 0`` runs passes while one more
still fits in S seconds, at least one. Each pass gives a set-up sample, and
set-up-only processes top these up to three. It reports the end-to-end
metrics: medians of wall time, set-up time and peak resident memory.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one. Both check every pass's outputs and
count failed operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(every sample, failure reasons, checks, environment and, when traced, the
self-time ranking) goes to ``.perfbench_runs/results/`` or ``--results``;
``perfbench/compare.py`` compares two such directories. ``--smoke`` runs
tiny inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import BYTES_NOTE, PER_LAYER, layer_metrics, self_time_ranking  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0
BLAS_THREADS = "1"  # <= nproc; one thread keeps timings steady on a shared machine


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    """Starts child processes one at a time and reaps each; `stop` ends a running one."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        self.proc: subprocess.Popen | None = None

    def spawn(self, args: list[str], stdout: Path, stderr: Path) -> tuple[float, int, os.struct_rusage]:
        """Run child.py ARGS; return (start time, exit code, resource usage)."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.monotonic()
            self.proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                         env=self.env, stdout=out, stderr=err, cwd=ROOT)
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.proc = None
                    return t0, os.waitstatus_to_exitcode(status), usage
                if time.monotonic() > self.deadline:
                    self.stop()
                    raise BenchError(f"child {args[:2]} still running at the {RUN_DEADLINE_S:.0f} s deadline")
                time.sleep(0.01)

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            _, status = os.waitpid(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.proc = None


def _tail(path: Path, n: int = 6) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(lines[-n:])


def setup_sample(runner: Runner, workload, inputs: Path, work: Path) -> float:
    out, err = work / "setup.out", work / "setup.err"
    t0, rc, _ = runner.spawn(["setup", workload.name, str(inputs)], out, err)
    if rc != 0:
        raise BenchError(f"set-up process exited {rc}: {_tail(err)}")
    return json.loads(out.read_text(encoding="utf-8"))["ready"] - t0


def run_pass(runner: Runner, workload, inputs: Path, pdir: Path, traced: bool) -> dict:
    out = pdir / "out"
    out.mkdir(parents=True)
    rec_path = pdir / "record.json"
    args = ["run", workload.name, str(inputs), str(out), str(rec_path)] + (["--trace"] if traced else [])
    t0, rc, usage = runner.spawn(args, pdir / "stdout", pdir / "stderr")
    if rc != 0 or not rec_path.exists():
        return {"ok": False, "problems": [f"pass exited {rc}: {_tail(pdir / 'stderr')}"]}
    record = json.loads(rec_path.read_text(encoding="utf-8"))
    problems, quality = workload.check_pass(out, record)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in workload.artifacts if (out / name).exists()}
    return {"ok": True, "wall_s": record["done"] - t0, "setup_s": record["ready"] - t0,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "cpu_s": usage.ru_utime + usage.ru_stime,
            "problems": problems, "quality": quality, "outcomes": workload.outcomes(record),
            "digests": digests, "record": record if traced else None}


def run_workload(workload, seed: int, seconds: float, traced: bool, smoke: bool,
                 results: Path) -> dict:
    """Run one workload; return {"summary": last-line object, "record": full record}."""
    started = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    work = ROOT / ".perfbench_runs" / f"{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    try:
        try:
            workload.make_inputs(seed, inputs, smoke, runner.env)
        except subprocess.CalledProcessError as exc:
            raise BenchError(f"input generation failed: {exc.stderr.decode(errors='replace')[-400:]}")
        start = time.monotonic()
        setups: list[float] = []
        passes: list[dict] = []
        if traced:
            passes = [run_pass(runner, workload, inputs, work / f"pass{i}", traced=bool(i))
                      for i in range(2)]
        else:
            last = 0.0
            # start another pass only if one as long as the last still ends within `seconds`
            while not passes or time.monotonic() - start + last <= seconds:
                t0 = time.monotonic()
                passes.append(run_pass(runner, workload, inputs, work / f"pass{len(passes)}", False))
                last = time.monotonic() - t0
            setups = [p["setup_s"] for p in passes if p["ok"]]
            while len(setups) < SETUP_SAMPLES:
                setups.append(setup_sample(runner, workload, inputs, work))
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)

    good = [p for p in passes if p["ok"]]
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p["problems"]]
    for key in ("digests", "outcomes"):
        if any(p[key] != good[0][key] for p in good[1:]):
            problems.append(f"passes differ in {key}: {[p[key] for p in good]}")
    outcomes = good[0]["outcomes"] if good else []
    reasons = [f"{op}: {why}" for op, why in outcomes if why is not None]
    quality = good[0]["quality"] if good else {}

    if traced:
        units = {name: unit for name, unit, _ in PER_LAYER}
        if len(good) == 2:
            overhead = good[1]["wall_s"] / good[0]["wall_s"] - 1.0
            values = layer_metrics(good[1]["record"], quality, overhead)
        else:
            values = {}
    else:
        units = dict(END_TO_END)
        values = {}
        if good:
            values = {"wall_s": statistics.median(p["wall_s"] for p in good),
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    summary = {"correct": not problems and bool(good), "attempted": len(outcomes),
               "failed": len(reasons), "metrics": metrics}

    record = {
        "workload": workload.name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": int(traced), "smoke": smoke,
        "started_utc": started,
        "summary": summary,
        "samples": {"wall_s": [p["wall_s"] for p in good], "setup_s": setups,
                    "peak_rss_mb": [p["peak_rss_mb"] for p in good],
                    "cpu_s": [p["cpu_s"] for p in good]},
        "sample_counts": {"passes": len(good), "setup": len(setups)},
        "failures": {"base": workload.base, "attempted": len(outcomes), "failed": len(reasons),
                     "failed_frac": len(reasons) / len(outcomes) if outcomes else None,
                     "reasons": reasons},
        "quality": quality,
        "checks": {"problems": problems, "artifacts_compared": list(good[0]["digests"]) if good else [],
                   "passes_compared": len(good)},
        "env": environment(runner),
    }
    if traced and len(good) == 2:
        spans = good[1]["record"]["spans"]
        record["self_time_ranking"] = self_time_ranking(spans)
        record["solves"] = good[1]["record"]["solves"]
        record["notes"] = dict(BYTES_NOTE, trace_overhead_frac=(
            "traced pass wall time over the untraced pass of the same run, minus 1"))
    record["results_file"] = str(save(results, record, spans if traced and len(good) == 2 else None))
    return {"summary": summary, "record": record}


def environment(runner: Runner) -> dict:
    out = ROOT / ".perfbench_runs" / f"env-{os.getpid()}.json"
    err = out.with_suffix(".err")
    try:
        _, rc, _ = runner.spawn(["env"], out, err)
        env = json.loads(out.read_text(encoding="utf-8")) if rc == 0 else {"error": _tail(err)}
    finally:
        out.unlink(missing_ok=True)
        err.unlink(missing_ok=True)
    return env


def save(results: Path, record: dict, spans: list | None) -> Path:
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-s{record['seed']}-t{record['trace']}-"
            f"{record['started_utc'].replace(':', '')}-{os.getpid()}")
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}) + "\n", encoding="utf-8")
    return path


def print_table(record: dict) -> None:
    s = record["summary"]
    f = record["failures"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={record['sample_counts']['passes']} setup_samples={record['sample_counts']['setup']}")
    for name, m in s["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"  failed {f['failed']} of {f['attempted']} {f['base']}")
    for reason in f["reasons"]:
        print(f"    {reason}")
    for problem in record["checks"]["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if "self_time_ranking" in record:
        print("  self time: " + ", ".join(f"{n} {t:.3g}s" for n, t in record["self_time_ranking"][:6]))
    print(f"  record: {record['results_file']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--results", type=Path, default=ROOT / ".perfbench_runs" / "results",
                    help="directory for the full result records")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "newsmkl" / "__init__.py").is_file():
        print(f"perfbench: no newsmkl source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS.values() for t in (False, True)]
    else:
        plan = [(WORKLOADS[args.workload], bool(args.trace))]
    try:
        runs = [run_workload(w, args.seed, args.seconds, t, args.smoke, args.results) for w, t in plan]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for run in runs:
        print_table(run["record"])
    if len(runs) == 1:
        summary = runs[0]["summary"]
    else:
        untraced = [r for r in runs if not r["record"]["trace"]]
        summary = {"correct": all(r["summary"]["correct"] for r in runs),
                   "attempted": sum(r["summary"]["attempted"] for r in untraced),
                   "failed": sum(r["summary"]["failed"] for r in untraced),
                   "metrics": {f"{r['record']['workload']}/{name}": m
                               for r in runs for name, m in r["summary"]["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
