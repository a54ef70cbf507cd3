"""Command-line front end.

Subcommands: synth, featurize, label, train-svm, train-mkl, backtest,
bench-mkl. Inputs and outputs are files in the formats documented in the
README. Every command but featurize and label (which write one CSV each)
also writes a manifest.json: its settings, their hash, the seed and
library versions. Logs go to stderr only, never into data outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from datetime import time
from pathlib import Path

import numpy as np

from . import __version__, backtest as bt, market, mkl, text
from .bench import run_bench, write_bench_csv
from .config import ConfigError, parse_overrides, write_manifest
from .svm import save_model

log = logging.getLogger("newsmkl")


class CliError(Exception):
    """User-facing error: printed as one machine-parseable line."""


def _load_inputs(args, need_prices: bool = True):
    docs = text.read_documents(args.docs)
    dictionary = text.load_dictionary(args.dict) if args.dict else text.default_dictionary()
    prices = market.read_prices(args.prices) if need_prices else None
    return docs, prices, dictionary


def _parse_clock(raw: str) -> time:
    """An "HH:MM" clock time; ConfigError for anything else."""
    try:
        h, m = raw.split(":")
        return time(int(h), int(m))
    except ValueError:
        raise ConfigError(f"expected HH:MM, got {raw!r}") from None


def _parse_list(flag: str, raw: str, kind: type, noun: str) -> tuple:
    """The comma-separated items of `flag`, each read by `kind`; ConfigError
    naming the flag and the first item that does not read as `noun`."""
    items = []
    for item in raw.split(","):
        try:
            items.append(kind(item))
        except ValueError:
            raise ConfigError(f"{flag}: item {item!r} of {raw!r} is not {noun}") from None
    return tuple(items)


def _synth_spec_from_config(cfg: dict) -> market.SynthSpec:
    kwargs = {}
    fields = {f.name: type(f.default) for f in dataclasses.fields(market.SynthSpec)}
    for key, value in cfg.items():
        if key == "tickers":
            kwargs["tickers"] = tuple(t.strip() for t in value.split(",") if t.strip())
        elif key in ("event_start", "event_end"):
            kwargs[key] = _parse_clock(value)
        elif key in fields:
            kwargs[key] = fields[key](value)
        else:
            raise ConfigError(f"unknown synth config key {key!r}")
    return market.SynthSpec(**kwargs)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# parsed names a manifest's config leaves out: the output path (reruns into other
# directories must match), the log level, the seed (the manifest's own field), dispatch
_UNRECORDED = ("out", "verbose", "seed", "command", "fn")


def _write_manifest(path: Path, args) -> None:
    """Write the command's manifest; its config is every flag the command parsed, as parsed."""
    config = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
    write_manifest(path, args.command, config, getattr(args, "seed", None))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = parse_overrides(args.set)
    spec = _synth_spec_from_config(cfg)
    docs, prices, truths = market.synth_generate(args.seed, spec)
    out = _out_dir(args)  # after generating, so a spec that cannot be met leaves no directory
    text.write_documents(out / "docs.jsonl", docs)
    market.write_prices(out / "prices.csv", prices)
    market.write_truth_csv(out / "truth.csv", truths)
    write_manifest(out / "manifest.json", "synth", cfg, args.seed)
    log.info("synth: %d documents, %d tickers -> %s", len(docs), len(prices), out)
    return 0


def cmd_featurize(args) -> int:
    docs, _, dictionary = _load_inputs(args, need_prices=False)
    counts = np.vstack([text.bag_of_words(d, dictionary) for d in docs]) if docs else \
        np.zeros((0, dictionary.size), dtype=np.int64)
    text.write_features_csv(args.out, [d.id for d in docs], counts, dictionary)
    log.info("featurize: %d documents x %d stems -> %s", len(docs), dictionary.size, args.out)
    return 0


def _label_all(args):
    """Feature records for every usable event, labeled against a threshold
    taken from all of them; returns (records, labels, threshold, dropped)."""
    labeling = market.LabelingConfig(horizon_minutes=args.horizon, percentile=args.percentile,
                                     label_kind=args.kind)
    docs, prices, dictionary = _load_inputs(args)
    records, dropped = market.prepare_feature_records(docs, prices, dictionary, labeling)
    if not records:
        raise CliError("no events survived feature extraction")
    threshold = market.label_threshold(records, labeling)
    return records, market.label_records(records, labeling, threshold), threshold, dropped


def cmd_label(args) -> int:
    records, labels, threshold, dropped = _label_all(args)
    market.write_events_csv(args.out, records, labels, args.horizon)
    log.info("label: kept %d, dropped %s (threshold %.6g) -> %s",
             len(records), {k: v for k, v in dropped.items() if v}, threshold, args.out)
    return 0


def _train_common(args, plan, solver: str, gap_tol: float) -> int:
    mkl.check_c_and_gap_tol(args.C, gap_tol)
    records, y, _, dropped = _label_all(args)
    if len(records) < 2:
        raise CliError("not enough events to train on")
    kernels = bt.build_kernels(plan, records)
    sol = bt.fit_plan(kernels, y, args.C, solver, gap_tol)
    out = _out_dir(args)
    save_model(out / "model.json", sol.model, kernels=kernels.descriptions(), mkl_weights=sol.d,
               mkl=sol.outcome())
    with open(out / "weights.json", "w", encoding="utf-8") as fh:
        json.dump([float(w) for w in sol.d], fh)
        fh.write("\n")
    _write_manifest(out / "manifest.json", args)
    log.info("%s: trained on %d events (dropped %s), gap %.3g, %d SVM solves -> %s",
             args.command, len(records), {k: v for k, v in dropped.items() if v},
             sol.gap, sol.svm_solves, out)
    return 0


def cmd_train_svm(args) -> int:
    pk = bt.PlanKernel(name=f"{args.kernel}_{args.feature}", feature=args.feature, kind=args.kernel,
                       sigma=args.sigma, sigma_scale=args.sigma_scale, degree=args.degree)
    return _train_common(args, [pk], mkl.DEFAULT_SOLVER, mkl.DEFAULT_GAP_TOL)


def cmd_train_mkl(args) -> int:
    return _train_common(args, bt.named_plan(args.plan), args.solver, args.gap_tol)


def cmd_backtest(args) -> int:
    cfg = bt.BacktestConfig(
        plan=bt.named_plan(args.plan),
        horizons=_parse_list("--horizons", args.horizons, int, "an integer"),
        percentile=args.percentile,
        label_kind=args.kind,
        c_grid=_parse_list("--c-grid", args.c_grid, float, "a number"),
        solver=args.solver,
        gap_tol=args.gap_tol,
        train_min_event_time=(_parse_clock(args.train_min_event_time)
                              if args.train_min_event_time else None),
        jobs=args.jobs,
    )
    docs, prices, dictionary = _load_inputs(args)
    extracted = market.prepare_records_by_horizon(docs, prices, dictionary, cfg.horizons, cfg.label_kind)
    # the sweep reads only the records: free the documents and prices before any Gram is built
    del docs, prices
    reports = bt.run_sweep(cfg, extracted)
    out = _out_dir(args)
    bt.write_window_csv(out / "windows.csv", cfg, reports)
    bt.write_report_json(out / "report.json", reports)
    _write_manifest(out / "manifest.json", args)
    for h in sorted(reports):
        r = reports[h]
        log.info("backtest horizon %d: accuracy=%s recall=%s sharpe=%s over %d predictions",
                 h, r.accuracy, r.recall, r.sharpe, r.n_predictions)
    return 0


def cmd_bench_mkl(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = run_bench(methods, n_kernels=args.kernels, dim=args.dim, runs=args.runs,
                     seed=args.seed, C=args.C, gap_tol=args.gap_tol)
    out = Path(args.out)
    if out.suffix != ".csv":
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "bench.csv"
        manifest_path = out / "manifest.json"
    else:
        csv_path = out
        manifest_path = out.with_name(out.stem + "_manifest.json")
    write_bench_csv(csv_path, rows)
    _write_manifest(manifest_path, args)
    log.info("bench-mkl: %d rows -> %s", len(rows), csv_path)
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------


def _add_data_args(p: argparse.ArgumentParser, prices: bool = True):
    p.add_argument("--docs", required=True, help="documents JSON-lines file")
    if prices:
        p.add_argument("--prices", required=True, help=f"prices CSV ({market.PRICE_HEADER})")
    p.add_argument("--dict", default=None, help="stem dictionary file (default: builtin)")


def _add_label_args(p: argparse.ArgumentParser, horizon: bool = True):
    if horizon:
        p.add_argument("--horizon", type=int, default=10, help="prediction horizon in minutes")
    p.add_argument("--percentile", type=float, default=75.0,
                   help="training percentile defining the abnormal threshold")
    p.add_argument("--kind", choices=market.LABEL_KINDS, default="abnormal")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="newsmkl",
                                 description="Kernel-method prediction of abnormal intraday returns from news.")
    ap.add_argument("--version", action="version", version=f"newsmkl {__version__}")
    ap.add_argument("-v", "--verbose", action="count", default=0, help="-v info, -vv debug")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic documents, prices, and ground truth")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a synth spec key")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("featurize", help="bag-of-words counts CSV from documents")
    _add_data_args(p, prices=False)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_featurize)

    p = sub.add_parser("label", help="join documents to prices and emit labeled events CSV")
    _add_data_args(p)
    _add_label_args(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_label)

    p = sub.add_parser("train-svm", help="train a single-kernel SVM on all labeled events")
    _add_data_args(p)
    _add_label_args(p)
    p.add_argument("--feature", choices=("text", "absret", "timeofday", "dayofweek"), default="text")
    p.add_argument("--kernel", choices=("linear", "gaussian", "polynomial"), default="linear")
    p.add_argument("--sigma", type=float, default=None, help="gaussian bandwidth (overrides --sigma-scale)")
    p.add_argument("--sigma-scale", type=float, default=1.0,
                   help="gaussian bandwidth as a multiple of the median pairwise squared distance")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--C", type=float, default=1000.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train_svm)

    p = sub.add_parser("train-mkl", help="learn kernel weights and an SVM on all labeled events")
    _add_data_args(p)
    _add_label_args(p)
    p.add_argument("--plan", default="mkl13", help=f"kernel plan: one of {', '.join(bt.PLANS)}")
    p.add_argument("--solver", choices=tuple(mkl.SOLVERS), default=mkl.DEFAULT_SOLVER)
    p.add_argument("--gap-tol", type=float, default=mkl.DEFAULT_GAP_TOL)
    p.add_argument("--C", type=float, default=1000.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train_mkl)

    p = sub.add_parser("backtest", help="sliding-window out-of-sample evaluation")
    _add_data_args(p)
    _add_label_args(p, horizon=False)
    p.add_argument("--horizons", default="10", help="comma-separated horizons in minutes")
    p.add_argument("--plan", default="linear-text", help=f"kernel plan: one of {', '.join(bt.PLANS)}")
    p.add_argument("--solver", choices=tuple(mkl.SOLVERS), default=mkl.DEFAULT_SOLVER)
    p.add_argument("--gap-tol", type=float, default=mkl.DEFAULT_GAP_TOL)
    p.add_argument("--c-grid", default="1000", help="comma-separated C candidates for chrono CV")
    p.add_argument("--train-min-event-time", default=None, metavar="HH:MM",
                   help="extra clock-time filter applied to training events only")
    p.add_argument("--jobs", type=int, default=1, help="parallel window workers")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_backtest)

    p = sub.add_parser("bench-mkl", help="benchmark ACCPM vs reduced gradient on synthetic instances")
    p.add_argument("--kernels", type=int, default=3)
    p.add_argument("--dim", type=int, default=500, help="training samples per kernel")
    p.add_argument("--methods", default=",".join(mkl.SOLVERS), help="comma-separated solver names")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--C", type=float, default=1000.0)
    p.add_argument("--gap-tol", type=float, default=mkl.DEFAULT_GAP_TOL)
    p.add_argument("--out", required=True, help="output CSV path or directory")
    p.set_defaults(fn=cmd_bench_mkl)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except (CliError, ConfigError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
