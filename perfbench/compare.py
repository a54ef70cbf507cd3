"""Compare two sets of benchmark results and give a verdict per workload and metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records that ``run.py --results DIR`` wrote, one
per run. Runs are paired by seed (in run order within a seed); make the
runs alternating which side goes first.

For each end-to-end metric the verdict is:

* ``win``: the change is better in at least 9 of 10 pairs (ties count for
  neither side), over at least 10 pairs, and the medians differ by more
  than the parent's interquartile range;
* ``unresolved``: either side's interquartile range, as a share of its
  median, exceeds the metric's bound, and not every change run beats every
  parent run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound from BENCHMARK.json;
* ``no regression``: anything else.

A win is withdrawn when the change fails more operations than the parent.
Per-layer metrics of traced runs are listed with their medians only; a
count may support a claim only when it repeats exactly, which the
``exact`` column shows.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> records sorted by seed, then start time."""
    out: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        rec = json.loads(path.read_text(encoding="utf-8"))
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: (r["seed"], r["started_utc"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed: dict[int, list[dict]] = {}
    for r in change:
        by_seed.setdefault(r["seed"], []).append(r)
    out = []
    for r in parent:
        if by_seed.get(r["seed"]):
            out.append((r, by_seed[r["seed"]].pop(0)))
    return out


def verdict(p_vals, c_vals, paired, bound: float, lower_better: bool, more_failures: bool) -> str:
    def better(c, p):
        return c < p if lower_better else c > p

    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = all(better(c, p) for c in c_vals for p in p_vals)
    gain = (p_med - c_med) if lower_better else (c_med - p_med)
    wins = sum(1 for p, c in paired if better(c, p))
    if spread > bound and not all_better:
        return "unresolved"
    if len(paired) >= 10 and wins >= 0.9 * len(paired) and gain > (p_q3 - p_q1):
        return "no regression (more failures)" if more_failures else "win"
    if -gain > bound * abs(p_med):
        return "regression"
    return "no regression"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    regressions = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_recs, c_recs = parent[key], change[key]
        paired = pairs(p_recs, c_recs)
        p_failed = max(r["summary"]["failed"] for r in p_recs)
        c_failed = max(r["summary"]["failed"] for r in c_recs)
        print(f"== {workload} trace={trace}: {len(p_recs)} parent runs, {len(c_recs)} change runs, "
              f"{len(paired)} pairs; failed ops parent {p_failed}, change {c_failed} "
              f"of {c_recs[0]['summary']['attempted']}")
        names = list(c_recs[0]["summary"]["metrics"])
        for name in names:
            p_vals = [r["summary"]["metrics"][name]["value"] for r in p_recs
                      if name in r["summary"]["metrics"]]
            c_vals = [r["summary"]["metrics"][name]["value"] for r in c_recs
                      if name in r["summary"]["metrics"]]
            if not p_vals or not c_vals:
                continue
            p_q = quartiles(p_vals)
            c_q = quartiles(c_vals)
            row = (f"  {name:40s} parent {p_q[1]:12.6g} [{p_q[0]:.6g}, {p_q[2]:.6g}]  "
                   f"change {c_q[1]:12.6g} [{c_q[0]:.6g}, {c_q[2]:.6g}]")
            if name in end_to_end:
                m = end_to_end[name]
                pv = [(p["summary"]["metrics"][name]["value"], c["summary"]["metrics"][name]["value"])
                      for p, c in paired]
                v = verdict(p_vals, c_vals, pv, m["bound"], m["better"] == "lower", c_failed > p_failed)
                regressions += v == "regression"
                wins = sum(1 for p, c in pv if (c < p if m["better"] == "lower" else c > p))
                row += f"  wins {wins}/{len(pv)}  bound {m['bound']}  -> {v}"
            else:
                exact = len(set(p_vals)) == 1 and len(set(c_vals)) == 1
                row += f"  exact {'yes' if exact else 'no'}"
            print(row)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
