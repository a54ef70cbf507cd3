"""Sliding-window calibration/evaluation with chronological cross validation.

Protocol per horizon: slide a 12-month training window / 1-month test
window forward one month at a time; inside each window, take the
abnormal-return threshold from the training events, pick parameters by
chronological one-fold cross validation (Sharpe ratio of the $1-bet
strategy by default), train on the full window, and predict the test
month out-of-sample. Performance measures are computed over the test
data aggregated across windows.
"""

from __future__ import annotations

import hashlib
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, time

import numpy as np

from .kernels import KernelSpec, cross_gram, gram_matrix, median_sqdist
from .market import (FeatureRecord, LabelingConfig, PriceSeries, label_records, label_threshold,
                     prepare_feature_records)
from .mkl import MklProblem, MklSolution, solve_accpm, solve_reduced_gradient
from .svm import predict_many
from .text import Dictionary, Document, fit_tfidf, transform_tfidf_many

log = logging.getLogger(__name__)

ANNUALIZATION_DAILY = 252


class BacktestError(ValueError):
    """Unusable backtest configuration or data."""


class WindowSkipped(Exception):
    """Window excluded from evaluation (e.g. single-class training data)."""


# ---------------------------------------------------------------------------
# Month windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    train_start: str  # "YYYY-MM"
    train_end: str
    test_month: str


def _month_key(ym: str) -> int:
    y, m = ym.split("-")
    return int(y) * 12 + (int(m) - 1)


def _key_month(k: int) -> str:
    return f"{k // 12:04d}-{k % 12 + 1:02d}"


def month_of(t: datetime) -> str:
    return f"{t.year:04d}-{t.month:02d}"


def build_windows(first_month: str, last_month: str, train_months: int = 12) -> list[Window]:
    """12-month training window, following month for testing, sliding by 1."""
    lo, hi = _month_key(first_month), _month_key(last_month)
    span = hi - lo + 1
    if span < train_months + 1:
        raise BacktestError(f"span of {span} months is too short; need at least {train_months + 1}")
    out = []
    for start in range(lo, hi - train_months + 1):
        out.append(Window(train_start=_key_month(start),
                          train_end=_key_month(start + train_months - 1),
                          test_month=_key_month(start + train_months)))
    return out


# ---------------------------------------------------------------------------
# Performance measures
# ---------------------------------------------------------------------------


@dataclass
class Confusion:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def add(self, other: "Confusion") -> None:
        self.tp += other.tp
        self.tn += other.tn
        self.fp += other.fp
        self.fn += other.fn

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricsReport:
    accuracy: float | None
    recall: float | None
    sharpe: float | None
    n_predictions: int
    n_days: int
    confusion: Confusion
    per_window: list[dict] = field(default_factory=list)
    mean_kernel_weights: dict[str, float] = field(default_factory=dict)
    n_dropped: dict[str, int] = field(default_factory=dict)
    n_skipped_windows: int = 0


def classification_metrics(predictions, labels) -> tuple[Confusion, float | None, float | None]:
    """Confusion counts plus accuracy (TP+TN)/total and recall TP/(TP+FN)."""
    p = np.asarray(predictions, dtype=np.int64).ravel()
    y = np.asarray(labels, dtype=np.int64).ravel()
    if p.shape != y.shape:
        raise BacktestError("predictions and labels differ in length")
    if p.size == 0:
        raise BacktestError("no predictions to score")
    c = Confusion(
        tp=int(np.sum((p == 1) & (y == 1))),
        tn=int(np.sum((p == -1) & (y == -1))),
        fp=int(np.sum((p == 1) & (y == -1))),
        fn=int(np.sum((p == -1) & (y == 1))),
    )
    accuracy = (c.tp + c.tn) / c.total if c.total else None
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    return c, accuracy, recall


def strategy_returns(predictions, labels, dates) -> tuple[list, np.ndarray]:
    """Daily returns of the $1-per-prediction bet: (wins - losses) / bets."""
    p = np.asarray(predictions, dtype=np.int64).ravel()
    y = np.asarray(labels, dtype=np.int64).ravel()
    if not (p.shape == y.shape and len(dates) == p.size):
        raise BacktestError("predictions, labels, and dates must align")
    by_day: dict = {}
    for pi, yi, d in zip(p, y, dates):
        w, n = by_day.get(d, (0, 0))
        by_day[d] = (w + (1 if pi == yi else -1), n + 1)
    days = sorted(by_day)
    rets = np.array([by_day[d][0] / by_day[d][1] for d in days], dtype=np.float64)
    return days, rets


def sharpe(daily_returns, periods_per_year: int = ANNUALIZATION_DAILY) -> float | None:
    """Annualized sqrt(T) * mean / std (sample std); zero variance -> None."""
    r = np.asarray(daily_returns, dtype=np.float64).ravel()
    if r.size < 2:
        raise BacktestError("Sharpe ratio needs at least 2 observations")
    sd = float(np.std(r, ddof=1))
    if sd == 0.0:
        return None
    return float(np.sqrt(periods_per_year) * np.mean(r) / sd)


# ---------------------------------------------------------------------------
# Kernel plans
# ---------------------------------------------------------------------------

FEATURE_KINDS = ("text", "absret", "timeofday", "dayofweek", "identity", "noise")


@dataclass(frozen=True)
class PlanKernel:
    """One kernel in the mixing plan.

    For gaussian kernels, `sigma_scale` (times the median pairwise squared
    distance of the training features) sets the bandwidth per window;
    `sigma` pins it absolutely instead.
    """

    name: str
    feature: str
    kind: str
    sigma: float | None = None
    sigma_scale: float | None = None
    degree: int | None = None
    noise_dim: int = 8

    def __post_init__(self):
        if self.feature not in FEATURE_KINDS:
            raise BacktestError(f"unknown feature kind {self.feature!r}")
        if self.kind == "gaussian" and self.sigma is None and self.sigma_scale is None:
            raise BacktestError(f"gaussian kernel {self.name!r} needs sigma or sigma_scale")


DEFAULT_GAUSSIAN_SCALES = (0.25, 1.0, 4.0, 16.0)


def default_mkl_plan(gaussian_scales=DEFAULT_GAUSSIAN_SCALES) -> list[PlanKernel]:
    """The 13-kernel mixing plan: 1 linear text, 1 linear absolute-returns,
    4 gaussian text, 4 gaussian absolute-returns, 1 linear time-of-day,
    1 linear day-of-week, 1 identity."""
    plan = [
        PlanKernel(name="lin_text", feature="text", kind="linear"),
        PlanKernel(name="lin_absret", feature="absret", kind="linear"),
    ]
    for i, s in enumerate(gaussian_scales, start=1):
        plan.append(PlanKernel(name=f"gauss_text_{i}", feature="text", kind="gaussian", sigma_scale=s))
    for i, s in enumerate(gaussian_scales, start=1):
        plan.append(PlanKernel(name=f"gauss_absret_{i}", feature="absret", kind="gaussian", sigma_scale=s))
    plan.append(PlanKernel(name="lin_timeofday", feature="timeofday", kind="linear"))
    plan.append(PlanKernel(name="lin_dayofweek", feature="dayofweek", kind="linear"))
    plan.append(PlanKernel(name="identity", feature="identity", kind="identity"))
    return plan


def random_noise_plan(n: int, noise_dim: int = 8) -> list[PlanKernel]:
    """Uninformative kernels built on per-document pseudo-random features."""
    return [PlanKernel(name=f"noise_{i + 1}", feature="noise", kind="linear", noise_dim=noise_dim)
            for i in range(n)]


def _noise_features(doc_ids: list[str], dim: int) -> np.ndarray:
    """Deterministic pseudo-random features keyed by document id."""
    out = np.empty((len(doc_ids), dim))
    for i, doc_id in enumerate(doc_ids):
        digest = hashlib.sha256(doc_id.encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        out[i] = rng.standard_normal(dim)
    return out


def _feature_matrix(plan_kernel: PlanKernel, records: list[FeatureRecord],
                    text_matrix: np.ndarray | None) -> np.ndarray:
    f = plan_kernel.feature
    if f == "text":
        return text_matrix
    if f == "absret":
        return np.vstack([r.return_features for r in records])
    if f == "timeofday":
        return np.vstack([r.time_of_day for r in records])
    if f == "dayofweek":
        return np.vstack([r.day_of_week for r in records])
    if f == "noise":
        return _noise_features([r.doc_id for r in records], plan_kernel.noise_dim)
    return np.zeros((len(records), 1))  # identity: features unused


def _resolve_spec(pk: PlanKernel, X_train: np.ndarray) -> KernelSpec:
    if pk.kind == "gaussian":
        sigma = pk.sigma if pk.sigma is not None else pk.sigma_scale * median_sqdist(X_train)
        return KernelSpec(kind="gaussian", sigma=sigma, trace_normalize=True)
    if pk.kind == "polynomial":
        return KernelSpec(kind="polynomial", degree=pk.degree or 2, trace_normalize=True)
    return KernelSpec(kind=pk.kind, trace_normalize=True)


# ---------------------------------------------------------------------------
# Window training / prediction
# ---------------------------------------------------------------------------


@dataclass
class BacktestConfig:
    plan: list[PlanKernel]
    horizons: tuple[int, ...] = (10,)
    percentile: float = 75.0
    label_kind: str = "abnormal"
    c_grid: tuple[float, ...] = (1000.0,)
    solver: str = "accpm"  # or "redgrad"
    gap_tol: float = 0.01
    cv_split: float = 0.75
    cv_measure: str = "sharpe"  # or "accuracy"
    min_event_time: time = time(10, 10)
    train_min_event_time: time | None = None  # the stricter training-only filter variant
    min_train_events: int = 20
    jobs: int = 1

    def labeling(self, horizon: int) -> LabelingConfig:
        return LabelingConfig(horizon_minutes=horizon, percentile=self.percentile,
                              label_kind=self.label_kind, min_event_time=self.min_event_time)


@dataclass
class FittedPlan:
    """Everything needed to score new events against a trained window."""

    plan: list[PlanKernel]
    solution: MklSolution
    tfidf: object
    specs: list[KernelSpec]
    grams: list
    train_records: list[FeatureRecord]
    y_train: np.ndarray
    _train_X: list = field(default_factory=list)

    def kernel_descriptions(self) -> list[dict]:
        out = []
        for pk, spec, g in zip(self.plan, self.specs, self.grams):
            d = spec.describe()
            d["name"] = pk.name
            d["feature"] = pk.feature
            d["scale"] = g.scale
            out.append(d)
        return out


def _text_matrix(tf, records: list[FeatureRecord]) -> np.ndarray:
    if not records:
        return np.zeros((0, tf.n_stems))
    return transform_tfidf_many(tf, np.vstack([r.text_counts for r in records]),
                                np.array([r.token_count for r in records]))


def fit_plan(plan: list[PlanKernel], train_records: list[FeatureRecord], y_train: np.ndarray,
             C: float, solver: str = "accpm", gap_tol: float = 0.01) -> FittedPlan:
    """Train the kernel plan: tf-idf fit on the training corpus only, one
    trace-normalized Gram per plan kernel, then an MKL solve (which for a
    single kernel reduces to one plain SVM solve)."""
    tf = fit_tfidf(np.vstack([r.text_counts for r in train_records]))
    text_train = _text_matrix(tf, train_records)
    specs, grams, train_X = [], [], []
    for pk in plan:
        X = _feature_matrix(pk, train_records, text_train)
        spec = _resolve_spec(pk, X)
        specs.append(spec)
        grams.append(gram_matrix(spec, X))
        train_X.append(X)
    problem = MklProblem(kernels=grams, labels=y_train.astype(np.float64), C=C, gap_tol=gap_tol)
    if solver == "accpm":
        sol = solve_accpm(problem)
    elif solver == "redgrad":
        sol = solve_reduced_gradient(problem)
    else:
        raise BacktestError(f"unknown solver {solver!r}")
    return FittedPlan(plan=plan, solution=sol, tfidf=tf, specs=specs, grams=grams,
                      train_records=train_records, y_train=y_train.astype(np.float64),
                      _train_X=train_X)


def mixed_kernel_rows(fit: FittedPlan, test_records: list[FeatureRecord]) -> np.ndarray:
    """(n_test, n_train) rows of the learned mixture sum_k d_k K_k(x_i, x)."""
    text_test = _text_matrix(fit.tfidf, test_records)
    rows = np.zeros((len(test_records), len(fit.train_records)))
    for pk, spec, g, X_train, w in zip(fit.plan, fit.specs, fit.grams, fit._train_X, fit.solution.d):
        if w == 0.0:
            continue
        X_test = _feature_matrix(pk, test_records, text_test)
        rows += w * cross_gram(spec, X_train, X_test, scale=g.scale)
    return rows


def predict_records(fit: FittedPlan, test_records: list[FeatureRecord]) -> tuple[np.ndarray, np.ndarray]:
    return predict_many(fit.solution.model, fit.y_train, mixed_kernel_rows(fit, test_records))


def _train_and_predict(
    cfg: BacktestConfig,
    train_records: list[FeatureRecord],
    test_records: list[FeatureRecord],
    y_train: np.ndarray,
    C: float,
) -> tuple[np.ndarray, np.ndarray, MklSolution]:
    fit = fit_plan(cfg.plan, train_records, y_train, C, solver=cfg.solver, gap_tol=cfg.gap_tol)
    preds, decisions = predict_records(fit, test_records)
    return preds, decisions, fit.solution


def chrono_cv(
    train_records: list[FeatureRecord],
    y_train: np.ndarray,
    candidates: list[dict],
    evaluate,
    measure: str = "sharpe",
    split: float = 0.75,
) -> tuple[dict, list[dict]]:
    """Chronological one-fold cross validation.

    Trains on the earlier `split` fraction (by time), scores each
    candidate on the later fold with the configured measure, and returns
    the maximizer (ties and undefined scores resolve to the earliest
    candidate). A single-class validation fold downgrades the measure to
    accuracy, flagged in the returned diagnostics.
    """
    if not candidates:
        raise BacktestError("no candidate parameters")
    if len(candidates) == 1:
        return candidates[0], [{"candidate": candidates[0], "score": None, "measure": "unconditional"}]
    order = np.argsort([r.timestamp.timestamp() for r in train_records], kind="stable")
    cut = int(np.floor(split * len(train_records)))
    early_idx, fold_idx = order[:cut], order[cut:]
    if early_idx.size < 2 or fold_idx.size < 1:
        raise WindowSkipped("not enough events for a chronological split")
    early = [train_records[i] for i in early_idx]
    fold = [train_records[i] for i in fold_idx]
    y_early, y_fold = y_train[early_idx], y_train[fold_idx]
    if np.all(y_early == y_early[0]):
        raise WindowSkipped("single-class early fold in cross validation")
    used_measure = measure
    if np.all(y_fold == y_fold[0]) and measure == "sharpe":
        used_measure = "accuracy"
        log.warning("single-class validation fold: falling back to accuracy for CV")

    best, best_score, diagnostics = None, -np.inf, []
    for cand in candidates:
        preds = evaluate(early, y_early, fold, cand)
        if used_measure == "sharpe":
            days, rets = strategy_returns(preds, y_fold, [r.timestamp.date() for r in fold])
            try:
                score = sharpe(rets)
            except BacktestError:
                score = None
        else:
            _, score, _ = classification_metrics(preds, y_fold)
        diagnostics.append({"candidate": cand, "score": score, "measure": used_measure})
        numeric = -np.inf if score is None else score
        if numeric > best_score:
            best, best_score = cand, numeric
    return best if best is not None else candidates[0], diagnostics


@dataclass
class WindowResult:
    window: Window
    horizon: int
    n_train: int
    n_test: int
    threshold: float
    chosen_C: float
    predictions: np.ndarray
    labels: np.ndarray
    decision_values: np.ndarray
    dates: list
    kernel_weights: np.ndarray
    accuracy: float | None
    recall: float | None
    sharpe: float | None
    svm_solves: int
    confusion: Confusion


def run_window(cfg: BacktestConfig, window: Window, horizon: int,
               records: list[FeatureRecord]) -> WindowResult:
    """Calibrate on the train months and predict the test month of one window."""
    train_keys = range(_month_key(window.train_start), _month_key(window.train_end) + 1)
    train_months = {_key_month(k) for k in train_keys}
    labeling = cfg.labeling(horizon)

    train_records = [r for r in records if month_of(r.timestamp) in train_months]
    if cfg.train_min_event_time is not None:
        train_records = [r for r in train_records
                         if r.timestamp.timetz().replace(tzinfo=None) >= cfg.train_min_event_time]
    test_records = [r for r in records if month_of(r.timestamp) == window.test_month]
    if len(train_records) < cfg.min_train_events:
        raise WindowSkipped(f"{window}: only {len(train_records)} training events")
    if not test_records:
        raise WindowSkipped(f"{window}: no test events")

    threshold = label_threshold(train_records, labeling)
    y_train = label_records(train_records, labeling, threshold)
    y_test = label_records(test_records, labeling, threshold)
    if np.all(y_train == y_train[0]):
        raise WindowSkipped(f"{window}: single-class training labels")

    def evaluate(early, y_early, fold, cand):
        if np.all(y_early == y_early[0]):
            raise WindowSkipped("single-class early fold")
        preds, _, _ = _train_and_predict(cfg, early, fold, y_early, C=cand["C"])
        return preds

    candidates = [{"C": c} for c in cfg.c_grid]
    best, _ = chrono_cv(train_records, y_train, candidates, evaluate,
                        measure=cfg.cv_measure, split=cfg.cv_split)

    preds, decisions, sol = _train_and_predict(cfg, train_records, test_records, y_train, C=best["C"])

    # out-of-sample guarantee: no test event at or before the training span
    train_end_key = _month_key(window.train_end)
    for r in test_records:
        if _month_key(month_of(r.timestamp)) <= train_end_key:
            raise BacktestError(f"out-of-sample violation: {r.doc_id} inside training months")

    conf, acc, rec = classification_metrics(preds, y_test)
    dates = [r.timestamp.date() for r in test_records]
    _, rets = strategy_returns(preds, y_test, dates)
    try:
        sr = sharpe(rets)
    except BacktestError:
        sr = None
    return WindowResult(window=window, horizon=horizon, n_train=len(train_records),
                        n_test=len(test_records), threshold=threshold, chosen_C=best["C"],
                        predictions=preds, labels=y_test, decision_values=decisions, dates=dates,
                        kernel_weights=sol.d, accuracy=acc, recall=rec, sharpe=sr,
                        svm_solves=sol.svm_solves, confusion=conf)


def _run_window_job(args):
    cfg, window, horizon, records = args
    try:
        return run_window(cfg, window, horizon, records)
    except WindowSkipped as exc:
        return exc


def run_horizon(cfg: BacktestConfig, horizon: int, docs: list[Document],
                prices: dict[str, PriceSeries], dictionary: Dictionary) -> MetricsReport:
    """Full sliding-window evaluation at one prediction horizon."""
    records, dropped = prepare_feature_records(docs, prices, dictionary, cfg.labeling(horizon))
    return run_horizon_on_records(cfg, horizon, records, dropped)


def run_horizon_on_records(cfg: BacktestConfig, horizon: int, records: list[FeatureRecord],
                           dropped: dict[str, int] | None = None) -> MetricsReport:
    """Window sweep over already-extracted feature records."""
    dropped = dropped if dropped is not None else {}
    if not records:
        raise BacktestError("no usable events after feature extraction")
    months = sorted({month_of(r.timestamp) for r in records})
    windows = build_windows(months[0], months[-1])

    jobs = [(cfg, w, horizon, records) for w in windows]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(_run_window_job, jobs))
    else:
        outcomes = [_run_window_job(j) for j in jobs]

    results: list[WindowResult] = []
    skipped = 0
    for out in outcomes:
        if isinstance(out, WindowSkipped):
            skipped += 1
            log.info("window skipped: %s", out)
        else:
            results.append(out)
    if not results:
        raise BacktestError("every window was skipped; nothing to evaluate")

    preds = np.concatenate([r.predictions for r in results])
    labels = np.concatenate([r.labels for r in results])
    dates = [d for r in results for d in r.dates]
    conf, acc, rec = classification_metrics(preds, labels)
    _, rets = strategy_returns(preds, labels, dates)
    try:
        sr = sharpe(rets)
    except BacktestError:
        sr = None

    weights = np.mean(np.vstack([r.kernel_weights for r in results]), axis=0)
    per_window = [{
        "window_id": f"{r.window.train_start}..{r.window.train_end}->{r.window.test_month}",
        "horizon": r.horizon, "n_train": r.n_train, "n_test": r.n_test,
        "accuracy": r.accuracy, "recall": r.recall, "sharpe": r.sharpe,
        "threshold": r.threshold, "chosen_C": r.chosen_C, "svm_solves": r.svm_solves,
        "n_kernels_active": int(np.sum(r.kernel_weights > 0)),
        "kernel_weights": {pk.name: float(w) for pk, w in zip(cfg.plan, r.kernel_weights)},
    } for r in results]
    return MetricsReport(accuracy=acc, recall=rec, sharpe=sr, n_predictions=int(preds.size),
                         n_days=len(set(dates)), confusion=conf, per_window=per_window,
                         mean_kernel_weights={pk.name: float(w) for pk, w in zip(cfg.plan, weights)},
                         n_dropped=dropped, n_skipped_windows=skipped)


def run_backtest(cfg: BacktestConfig, docs: list[Document], prices: dict[str, PriceSeries],
                 dictionary: Dictionary) -> dict[int, MetricsReport]:
    """Run every configured horizon; horizon -> aggregated MetricsReport."""
    if not cfg.horizons:
        raise BacktestError("no horizons configured")
    return {h: run_horizon(cfg, h, docs, prices, dictionary) for h in cfg.horizons}


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_window_csv(path, cfg: BacktestConfig, reports: dict[int, MetricsReport]) -> None:
    names = [pk.name for pk in cfg.plan]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("window_id,horizon,n_train,n_test,accuracy,recall,sharpe,n_kernels_active,"
                 + ",".join(names) + "\n")
        for horizon in sorted(reports):
            for w in reports[horizon].per_window:
                weights = ",".join(_fmt(w["kernel_weights"][n]) for n in names)
                fh.write(",".join([w["window_id"], str(horizon), str(w["n_train"]), str(w["n_test"]),
                                   _fmt(w["accuracy"]), _fmt(w["recall"]), _fmt(w["sharpe"]),
                                   str(w["n_kernels_active"]), weights]) + "\n")


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "accuracy": report.accuracy,
        "recall": report.recall,
        "sharpe": report.sharpe,
        "n_predictions": report.n_predictions,
        "n_days": report.n_days,
        "confusion": {"tp": report.confusion.tp, "tn": report.confusion.tn,
                      "fp": report.confusion.fp, "fn": report.confusion.fn},
        "mean_kernel_weights": report.mean_kernel_weights,
        "n_dropped": report.n_dropped,
        "n_skipped_windows": report.n_skipped_windows,
        "windows": report.per_window,
    }


def write_report_json(path, reports: dict[int, MetricsReport]) -> None:
    payload = {"horizons": {str(h): report_to_dict(r) for h, r in sorted(reports.items())}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
