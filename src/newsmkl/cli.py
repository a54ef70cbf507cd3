"""Command-line front end.

Subcommands: synth, featurize, label, train-svm, train-mkl, backtest,
bench-mkl. Inputs and outputs are files in the formats documented in the
README; every run writes a manifest.json with the config hash, the seed,
and library versions. Logs go to stderr only, never into data outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from datetime import time
from pathlib import Path

import numpy as np

from . import __version__, backtest as bt, market, text
from .bench import run_bench, write_bench_csv
from .config import ConfigError, parse_overrides, read_kv_config, write_manifest
from .svm import save_model

log = logging.getLogger("newsmkl")

NAMED_PLANS = ("linear-text", "linear-absret", "linear4", "mkl13", "mkl13+noise3")


class CliError(Exception):
    """User-facing error: printed as one machine-parseable line."""


def resolve_plan(name: str) -> list[bt.PlanKernel]:
    if name == "linear-text":
        return [bt.PlanKernel(name="lin_text", feature="text", kind="linear")]
    if name == "linear-absret":
        return [bt.PlanKernel(name="lin_absret", feature="absret", kind="linear")]
    if name == "linear4":
        return [
            bt.PlanKernel(name="lin_text", feature="text", kind="linear"),
            bt.PlanKernel(name="lin_absret", feature="absret", kind="linear"),
            bt.PlanKernel(name="lin_timeofday", feature="timeofday", kind="linear"),
            bt.PlanKernel(name="lin_dayofweek", feature="dayofweek", kind="linear"),
        ]
    if name == "mkl13":
        return bt.default_mkl_plan()
    if name == "mkl13+noise3":
        return bt.default_mkl_plan() + bt.random_noise_plan(3)
    raise CliError(f"unknown plan {name!r}; choose from {NAMED_PLANS}")


def _load_inputs(args, need_prices: bool = True):
    docs = text.read_documents(args.docs)
    dictionary = text.load_dictionary(args.dict) if args.dict else text.default_dictionary()
    prices = market.read_prices(args.prices) if need_prices else None
    return docs, prices, dictionary


def _parse_clock(raw: str) -> time:
    h, m = raw.split(":")
    return time(int(h), int(m))


def _synth_spec_from_config(cfg: dict) -> market.SynthSpec:
    kwargs = {}
    fields = {
        "n_events": int, "n_months": int, "start_month": str, "keyword_fraction": float,
        "signal_strength": float, "surprise_rate": float, "jump_size": float,
        "jump_jitter": float, "jump_delay_minutes": int, "base_vol_per_min": float,
        "u_shape_amplitude": float, "signal_word": str, "words_per_doc": int,
        "base_price": float, "min_event_gap_minutes": int,
    }
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


def _merged_config(args) -> dict[str, str]:
    cfg = read_kv_config(args.config) if getattr(args, "config", None) else {}
    cfg.update(parse_overrides(getattr(args, "set", []) or []))
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = _merged_config(args)
    spec = _synth_spec_from_config(cfg)
    out = _out_dir(args)
    docs, prices, truths = market.synth_generate(args.seed, spec)
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
    docs, prices, dictionary = _load_inputs(args)
    labeling = market.LabelingConfig(horizon_minutes=args.horizon, percentile=args.percentile,
                                     label_kind=args.kind)
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


def _train_common(args, plan) -> int:
    records, y, _, dropped = _label_all(args)
    if len(records) < 2:
        raise CliError("not enough events to train on")
    fit = bt.fit_plan(plan, records, y, C=args.C, solver=args.solver, gap_tol=args.gap_tol)
    out = _out_dir(args)
    save_model(out / "model.json", fit.solution.model, kernels=fit.kernel_descriptions(),
               mkl_weights=fit.solution.d)
    with open(out / "weights.json", "w", encoding="utf-8") as fh:
        json.dump([float(w) for w in fit.solution.d], fh)
        fh.write("\n")
    cfg = {"horizon": args.horizon, "percentile": args.percentile, "kind": args.kind,
           "C": args.C, "solver": args.solver, "gap_tol": args.gap_tol,
           "plan": [pk.name for pk in plan], "docs": str(args.docs), "prices": str(args.prices),
           "dict": str(args.dict) if args.dict else "builtin"}
    write_manifest(out / "manifest.json", args.command, cfg, getattr(args, "seed", None))
    log.info("%s: trained on %d events (dropped %s), gap %.3g, %d SVM solves -> %s",
             args.command, len(records), {k: v for k, v in dropped.items() if v},
             fit.solution.gap, fit.solution.svm_solves, out)
    return 0


def cmd_train_svm(args) -> int:
    sigma_scale = args.sigma_scale
    if args.kernel == "gaussian" and args.sigma is None and sigma_scale is None:
        sigma_scale = 1.0  # median pairwise squared distance heuristic
    pk = bt.PlanKernel(name=f"{args.kernel}_{args.feature}", feature=args.feature, kind=args.kernel,
                       sigma=args.sigma, sigma_scale=sigma_scale, degree=args.degree)
    args.solver = "accpm"
    args.gap_tol = 0.01
    return _train_common(args, [pk])


def cmd_train_mkl(args) -> int:
    return _train_common(args, resolve_plan(args.plan))


def cmd_backtest(args) -> int:
    docs, prices, dictionary = _load_inputs(args)
    horizons = tuple(int(h) for h in args.horizons.split(","))
    cfg = bt.BacktestConfig(
        plan=resolve_plan(args.plan),
        horizons=horizons,
        percentile=args.percentile,
        label_kind=args.kind,
        c_grid=tuple(float(c) for c in args.c_grid.split(",")),
        solver=args.solver,
        gap_tol=args.gap_tol,
        jobs=args.jobs,
    )
    if args.train_min_event_time:
        cfg.train_min_event_time = _parse_clock(args.train_min_event_time)
    reports = bt.run_backtest(cfg, docs, prices, dictionary)
    out = _out_dir(args)
    bt.write_window_csv(out / "windows.csv", cfg, reports)
    bt.write_report_json(out / "report.json", reports)
    manifest_cfg = {"plan": args.plan, "horizons": args.horizons, "percentile": args.percentile,
                    "kind": args.kind, "c_grid": args.c_grid, "solver": args.solver,
                    "gap_tol": args.gap_tol, "jobs": args.jobs,
                    "train_min_event_time": args.train_min_event_time or "",
                    "docs": str(args.docs), "prices": str(args.prices),
                    "dict": str(args.dict) if args.dict else "builtin"}
    write_manifest(out / "manifest.json", "backtest", manifest_cfg, None)
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
    cfg = {"methods": args.methods, "kernels": args.kernels, "dim": args.dim,
           "runs": args.runs, "C": args.C, "gap_tol": args.gap_tol}
    write_manifest(manifest_path, "bench-mkl", cfg, args.seed)
    log.info("bench-mkl: %d rows -> %s", len(rows), csv_path)
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------


def _add_data_args(p: argparse.ArgumentParser, prices: bool = True):
    p.add_argument("--docs", required=True, help="documents JSON-lines file")
    if prices:
        p.add_argument("--prices", required=True, help="prices CSV (ticker,timestamp,price)")
    p.add_argument("--dict", default=None, help="stem dictionary file (default: builtin)")


def _add_label_args(p: argparse.ArgumentParser):
    p.add_argument("--horizon", type=int, default=10, help="prediction horizon in minutes")
    p.add_argument("--percentile", type=float, default=75.0,
                   help="training percentile defining the abnormal threshold")
    p.add_argument("--kind", choices=("abnormal", "direction"), default="abnormal")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="newsmkl",
                                 description="Kernel-method prediction of abnormal intraday returns from news.")
    ap.add_argument("--version", action="version", version=f"newsmkl {__version__}")
    ap.add_argument("-v", "--verbose", action="count", default=0, help="-v info, -vv debug")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic documents, prices, and ground truth")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="key=value synth spec file")
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
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--sigma-scale", type=float, default=None,
                   help="gaussian bandwidth as a multiple of the median pairwise squared distance")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--C", type=float, default=1000.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train_svm)

    p = sub.add_parser("train-mkl", help="learn kernel weights and an SVM on all labeled events")
    _add_data_args(p)
    _add_label_args(p)
    p.add_argument("--plan", default="mkl13", help=f"kernel plan: one of {NAMED_PLANS}")
    p.add_argument("--solver", choices=("accpm", "redgrad"), default="accpm")
    p.add_argument("--gap-tol", type=float, default=0.01)
    p.add_argument("--C", type=float, default=1000.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train_mkl)

    p = sub.add_parser("backtest", help="sliding-window out-of-sample evaluation")
    _add_data_args(p)
    _add_label_args(p)
    p.add_argument("--horizons", default="10", help="comma-separated horizons in minutes")
    p.add_argument("--plan", default="linear-text", help=f"kernel plan: one of {NAMED_PLANS}")
    p.add_argument("--solver", choices=("accpm", "redgrad"), default="accpm")
    p.add_argument("--gap-tol", type=float, default=0.01)
    p.add_argument("--c-grid", default="1000", help="comma-separated C candidates for chrono CV")
    p.add_argument("--train-min-event-time", default=None, metavar="HH:MM",
                   help="extra clock-time filter applied to training events only")
    p.add_argument("--jobs", type=int, default=1, help="parallel window workers")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_backtest)

    p = sub.add_parser("bench-mkl", help="benchmark ACCPM vs reduced gradient on synthetic instances")
    p.add_argument("--kernels", type=int, default=3)
    p.add_argument("--dim", type=int, default=500, help="training samples per kernel")
    p.add_argument("--methods", default="accpm,redgrad")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--C", type=float, default=1000.0)
    p.add_argument("--gap-tol", type=float, default=0.01)
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
