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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import time
from time import perf_counter

import numpy as np

from .kernels import (Kernel, KernelError, KernelSpec, _gaussian_gram_in_place, cross_gram, gram_matrix,
                      median_sqdist, release_freed_memory, sqdist)
from .market import (FeatureRecord, LabelingConfig, PriceSeries, _datetime_month_key, _key_month, _month_key,
                     label_records, label_threshold, month_of, prepare_records_by_horizon)
# not called here; the acceptance tests and the benchmark probe read it through this module
from .market import prepare_feature_records  # noqa: F401
from .mkl import (DEFAULT_GAP_TOL, DEFAULT_SOLVER, OUTCOME, SOLVERS, MklProblem, MklSolution,
                  check_c_and_gap_tol, get_solver)
from .svm import predict_many
from .text import Dictionary, Document, fit_tfidf, transform_tfidf_many

log = logging.getLogger(__name__)

ANNUALIZATION_DAILY = 252
TRAIN_MONTHS = 12
MIN_TRAIN_EVENTS = 20  # fewer training events skip the window


class BacktestError(ValueError):
    """Unusable backtest configuration or data."""


class WindowSkipped(Exception):
    """Window excluded from evaluation (e.g. single-class training data or
    a zero-trace kernel)."""


# ---------------------------------------------------------------------------
# Month windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    train_start: str  # "YYYY-MM"
    train_end: str
    test_month: str


def window_id(w: Window) -> str:
    """The window's name in the artifacts: "TRAIN_START..TRAIN_END->TEST_MONTH"."""
    return f"{w.train_start}..{w.train_end}->{w.test_month}"


def build_windows(first_month: str, last_month: str) -> list[Window]:
    """TRAIN_MONTHS-month training window, following month for testing, sliding by 1."""
    lo, hi = _month_key(first_month), _month_key(last_month)
    span = hi - lo + 1
    if span < TRAIN_MONTHS + 1:
        raise BacktestError(f"span of {span} months is too short; need at least {TRAIN_MONTHS + 1}")
    out = []
    for start in range(lo, hi - TRAIN_MONTHS + 1):
        out.append(Window(train_start=_key_month(start),
                          train_end=_key_month(start + TRAIN_MONTHS - 1),
                          test_month=_key_month(start + TRAIN_MONTHS)))
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

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricsReport:
    """One horizon's pooled measures; its fields, in order, are the horizon's report.json keys."""

    accuracy: float | None
    recall: float | None
    sharpe: float | None
    n_predictions: int
    n_days: int
    confusion: Confusion
    mean_kernel_weights: dict[str, float]
    n_dropped: dict[str, int]
    windows_by_status: dict[str, int]  # evaluated windows by how their full-window MKL fit ended
    n_skipped_windows: int
    skipped_windows: list[dict]  # {window_id, reason} each
    windows: list[dict]  # each evaluated window's row, as `run_window` built it


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


def strategy_returns(predictions, labels, dates) -> np.ndarray:
    """Daily returns of the $1-per-prediction bet, (wins - losses) / bets, in date order."""
    p = np.asarray(predictions, dtype=np.int64).ravel()
    y = np.asarray(labels, dtype=np.int64).ravel()
    if not (p.shape == y.shape and len(dates) == p.size):
        raise BacktestError("predictions, labels, and dates must align")
    by_day: dict = {}
    for pi, yi, d in zip(p, y, dates):
        w, n = by_day.get(d, (0, 0))
        by_day[d] = (w + (1 if pi == yi else -1), n + 1)
    return np.array([by_day[d][0] / by_day[d][1] for d in sorted(by_day)], dtype=np.float64)


def sharpe(daily_returns) -> float | None:
    """Annualized sqrt(T) * mean / std (sample std); None where undefined:
    fewer than 2 observations or zero variance."""
    r = np.asarray(daily_returns, dtype=np.float64).ravel()
    if r.size < 2:
        return None
    sd = float(np.std(r, ddof=1))
    if sd == 0.0:
        return None
    return float(np.sqrt(ANNUALIZATION_DAILY) * np.mean(r) / sd)


# ---------------------------------------------------------------------------
# Kernel plans
# ---------------------------------------------------------------------------

# every feature a plan kernel can read: (records, their tf-idf rows) -> one row per record
FEATURES = {
    "text": lambda records, text: text,
    "absret": lambda records, text: np.vstack([r.return_features for r in records]),
    "timeofday": lambda records, text: np.vstack([r.time_of_day for r in records]),
    "dayofweek": lambda records, text: np.vstack([r.day_of_week for r in records]),
    "identity": lambda records, text: np.zeros((len(records), 1)),  # a placeholder: unread
    "noise": lambda records, text: _noise_features([r.doc_id for r in records]),
}
DEFAULT_DEGREE = 2  # polynomial kernels without a degree


@dataclass(frozen=True)
class PlanKernel:
    """One kernel in the mixing plan.

    For gaussian kernels, `sigma_scale` (times the median pairwise squared
    distance of the training features) sets the bandwidth per window;
    `sigma` pins it absolutely instead. Parameters that no data could
    build a kernel from raise BacktestError here, and so does a kernel
    that ignores the data: the identity kind on a real feature, or any
    other kind on the identity placeholder. A kernel that fails on one
    window's data (a zero-trace text kernel) skips that window.
    """

    name: str
    feature: str
    kind: str
    sigma: float | None = None
    sigma_scale: float | None = None
    degree: int | None = None

    def __post_init__(self):
        if self.feature not in FEATURES:
            raise BacktestError(f"unknown feature kind {self.feature!r}")
        # the identity feature is an unread placeholder column: any other kind builds a
        # zero or constant Gram from it, and the identity kind reads no feature at all
        if (self.feature == "identity") != (self.kind == "identity"):
            raise BacktestError(f"kernel {self.name!r}: the identity kind and the identity feature "
                                f"go only together, got a {self.kind} kernel on {self.feature}")
        try:
            self.spec(median=1.0)
        except KernelError as exc:
            raise BacktestError(f"kernel {self.name!r}: {exc}") from exc
        for key in ("sigma", "sigma_scale"):  # also on the kinds that do not read them
            value = getattr(self, key)
            if value is not None and not np.isfinite(value):
                raise BacktestError(f"kernel {self.name!r}: {key} must be finite, got {value}")

    def spec(self, median: float | None) -> KernelSpec:
        """The kernel spec; `median` is the training features' median squared
        distance (read only by gaussian kernels scaled by `sigma_scale`)."""
        sigma = self.sigma
        if self.kind == "gaussian" and sigma is None and self.sigma_scale is not None:
            sigma = self.sigma_scale * median
        degree = DEFAULT_DEGREE if self.degree is None else self.degree
        return KernelSpec(kind=self.kind, sigma=sigma, degree=degree)


DEFAULT_GAUSSIAN_SCALES = (0.25, 1.0, 4.0, 16.0)
NOISE_DIM = 8  # pseudo-random features per document for "noise" kernels


def _linear(feature: str) -> PlanKernel:
    return PlanKernel(name=f"lin_{feature}", feature=feature, kind="linear")


def default_mkl_plan() -> list[PlanKernel]:
    """The 13-kernel mixing plan: 1 linear text, 1 linear absolute-returns,
    4 gaussian text, 4 gaussian absolute-returns, 1 linear time-of-day,
    1 linear day-of-week, 1 identity."""
    plan = [_linear("text"), _linear("absret")]
    for f in ("text", "absret"):
        plan += [PlanKernel(name=f"gauss_{f}_{i}", feature=f, kind="gaussian", sigma_scale=s)
                 for i, s in enumerate(DEFAULT_GAUSSIAN_SCALES, start=1)]
    return plan + [_linear("timeofday"), _linear("dayofweek"),
                   PlanKernel(name="identity", feature="identity", kind="identity")]


def random_noise_plan(n: int) -> list[PlanKernel]:
    """Uninformative kernels built on per-document pseudo-random features."""
    return [PlanKernel(name=f"noise_{i + 1}", feature="noise", kind="linear") for i in range(n)]


# every named plan (the commands' --plan)
PLANS = {
    "linear-text": [_linear("text")],
    "linear-absret": [_linear("absret")],
    "linear4": [_linear(f) for f in ("text", "absret", "timeofday", "dayofweek")],
    "mkl13": default_mkl_plan(),
    "mkl13+noise3": default_mkl_plan() + random_noise_plan(3),
}


def named_plan(name: str) -> list[PlanKernel]:
    """A copy of the plan called `name` in PLANS."""
    if name not in PLANS:
        raise BacktestError(f"unknown plan {name!r}; choose from {', '.join(PLANS)}")
    return list(PLANS[name])


def _noise_features(doc_ids: list[str]) -> np.ndarray:
    """Deterministic pseudo-random features keyed by document id."""
    out = np.empty((len(doc_ids), NOISE_DIM))
    for i, doc_id in enumerate(doc_ids):
        digest = hashlib.sha256(doc_id.encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        out[i] = rng.standard_normal(NOISE_DIM)
    return out


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
    solver: str = DEFAULT_SOLVER  # a name in mkl.SOLVERS
    gap_tol: float = DEFAULT_GAP_TOL
    train_min_event_time: time | None = None  # the stricter training-only filter variant
    jobs: int = 1  # worker processes for the windows

    def __post_init__(self):
        if not self.plan:
            raise BacktestError("the plan has no kernels")
        if not self.horizons:
            raise BacktestError("no horizons configured")
        if not self.c_grid:
            raise BacktestError("no C values configured")
        if self.solver not in SOLVERS:
            raise BacktestError(f"unknown solver {self.solver!r}; choose from {', '.join(SOLVERS)}")
        if self.jobs < 1:
            raise BacktestError(f"jobs must be >= 1, got {self.jobs}")
        for C in self.c_grid:
            check_c_and_gap_tol(C, self.gap_tol)
        for h in self.horizons:  # a LabelingConfig checks the horizon and the percentile
            self.labeling(h)
        # kernel names key the weights in report.json and the columns of windows.csv
        for name, values in (("horizons", self.horizons), ("c_grid", self.c_grid),
                             ("plan", [pk.name for pk in self.plan])):
            if len(set(values)) < len(values):
                raise BacktestError(f"{name} repeats a value: {', '.join(map(str, values))}")

    def labeling(self, horizon: int) -> LabelingConfig:
        return LabelingConfig(horizon_minutes=horizon, percentile=self.percentile,
                              label_kind=self.label_kind)


@dataclass
class PlanKernels:
    """A plan's kernels on one training set and their cross-Gram blocks
    against one test set: the resolved specs, one trace-normalized Gram per
    plan kernel, and one training and one test matrix per feature the plan
    reads. Each (n_test, n_train) block is built on first use and kept, so
    every fit scored on the test set (the C values of chronological CV)
    reuses it."""

    plan: list[PlanKernel]
    specs: list[KernelSpec]
    grams: list[Kernel]
    features: dict[str, np.ndarray]
    test_features: dict[str, np.ndarray]
    _blocks: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def block(self, k: int) -> np.ndarray:
        """Kernel k's (n_test, n_train) cross-Gram block."""
        if k not in self._blocks:
            feature = self.plan[k].feature
            self._blocks[k] = cross_gram(self.specs[k], self.features[feature],
                                         self.test_features[feature], self.grams[k].scale)
        return self._blocks[k]

    def descriptions(self) -> list[dict]:
        """Each kernel's resolved spec, name, feature and trace scale, as model.json lists them."""
        out = []
        for pk, spec, g in zip(self.plan, self.specs, self.grams):
            d = spec.describe()
            d["name"] = pk.name
            d["feature"] = pk.feature
            d["scale"] = g.scale
            out.append(d)
        return out


def _text_counts(records: list[FeatureRecord]) -> tuple[np.ndarray, np.ndarray]:
    """The records' stacked stem counts and their token counts."""
    return np.vstack([r.text_counts for r in records]), np.array([r.token_count for r in records])


def build_kernels(plan: list[PlanKernel], train_records: list[FeatureRecord],
                  test_records: list[FeatureRecord] = ()) -> PlanKernels:
    """tf-idf fit on the training corpus only, then one trace-normalized
    Gram per plan kernel, built feature by feature in order of first use
    by `kernels.gram_matrix`, which picks its stored form. The gaussian
    kernels on a feature share one squared-distance matrix, which also
    gives their bandwidth median; the last of them is mapped inside its
    buffer, so no distance matrix outlives its feature, and the freed
    heap is given back to the OS before returning. A kernel that
    cannot be built (a zero-trace kernel) raises KernelError naming the
    plan kernel, the first in that order.
    `test_records` are the events the kernels will score (none for a model
    trained on every event); their feature matrices are built beside the
    Grams, by the training corpus's idf."""
    counts, lengths = _text_counts(train_records)
    idf = fit_tfidf(counts)
    text = transform_tfidf_many(idf, counts, lengths)
    del counts, lengths
    on_feature: dict[str, list[int]] = {}
    for k, pk in enumerate(plan):
        on_feature.setdefault(pk.feature, []).append(k)
    features: dict[str, np.ndarray] = {}
    specs: list = [None] * len(plan)
    grams: list = [None] * len(plan)
    for feature, ks in on_feature.items():
        X = features[feature] = FEATURES[feature](train_records, text)
        gaussian = [k for k in ks if plan[k].kind == "gaussian"]
        D = sqdist(X) if gaussian else None
        median = median_sqdist(D) if any(plan[k].sigma is None for k in gaussian) else None
        for k in ks:
            try:
                specs[k] = plan[k].spec(median)
                if gaussian and k == gaussian[-1]:  # the distances' last reader
                    grams[k], D = _gaussian_gram_in_place(specs[k], D), None
                else:
                    grams[k] = gram_matrix(specs[k], X, D)
            except KernelError as exc:
                raise KernelError(f"kernel {plan[k].name!r}: {exc}") from exc
    test_features = {}
    if test_records:
        test_text = transform_tfidf_many(idf, *_text_counts(test_records))
        test_features = {f: FEATURES[f](test_records, test_text) for f in features}
    # the build's freed temporaries stay resident as heap holes, which the
    # n x n matrix of a one-hot kernel's product need not fit (see
    # kernels.IndicatorKernel): give them back before the fit
    release_freed_memory()
    return PlanKernels(plan=plan, specs=specs, grams=grams, features=features,
                       test_features=test_features)


def fit_plan(kernels: PlanKernels, y_train: np.ndarray, C: float, solver: str,
             gap_tol: float) -> MklSolution:
    """An MKL solve by the solver named `solver` over a plan's kernels on its
    training records (for a single kernel, one plain SVM solve)."""
    problem = MklProblem(kernels=kernels.grams, labels=y_train.astype(np.float64), C=C,
                         gap_tol=gap_tol)
    return get_solver(solver)(problem)


def predict_records(kernels: PlanKernels, solution: MklSolution, y_train: np.ndarray) -> np.ndarray:
    """Predictions for the test events of `kernels` by a solution fitted on
    `kernels` with training labels `y_train`: the decision values are
    sum_k d_k B_k (y * alpha) + b over the kernels of nonzero weight, with
    B_k kernel k's cross-Gram block, so no mixed block is built."""
    v = y_train.astype(np.float64) * solution.model.alpha
    used = np.flatnonzero(solution.d)
    k_alpha = solution.d[used] @ np.array([kernels.block(k) @ v for k in used])
    return predict_many(solution.model, k_alpha)[0]


CV_SPLIT = 0.75  # the earlier share of a window's training events that CV trains on


def _cv_sharpe(daily_returns: np.ndarray) -> float:
    """`sharpe` for ranking C values: where it is undefined (one day, or
    every day's return alike) the score is +inf, -inf or 0 by the sign of
    the mean return, so a C right on every day ranks first."""
    score = sharpe(daily_returns)
    if score is None:
        mean = float(np.mean(daily_returns))
        return np.inf if mean > 0 else -np.inf if mean < 0 else 0.0
    return score


def chrono_cv(train_records: list[FeatureRecord], y_train: np.ndarray,
              c_grid: tuple[float, ...], evaluate) -> float:
    """Chronological one-fold cross validation over the C values in `c_grid`.

    `evaluate(early, y_early, fold, C)` trains on the earlier CV_SPLIT
    share of the events (by time) and predicts the later fold. Returns the
    first C of the grid with the best score on the fold: `_cv_sharpe` of
    the fold's daily strategy returns, or accuracy where the fold is
    single-class. A single C is returned without cross validation.
    """
    if not c_grid:
        raise BacktestError("no C values to choose from")
    if len(c_grid) == 1:
        return c_grid[0]
    order = np.argsort([r.timestamp.timestamp() for r in train_records], kind="stable")
    cut = int(np.floor(CV_SPLIT * len(train_records)))
    early_idx, fold_idx = order[:cut], order[cut:]
    if early_idx.size < 2 or fold_idx.size < 1:
        raise WindowSkipped("not enough events for a chronological split")
    early = [train_records[i] for i in early_idx]
    fold = [train_records[i] for i in fold_idx]
    y_early, y_fold = y_train[early_idx], y_train[fold_idx]
    if np.all(y_early == y_early[0]):
        raise WindowSkipped("single-class early fold in cross validation")
    single_class = bool(np.all(y_fold == y_fold[0]))
    if single_class:
        log.warning("single-class validation fold: falling back to accuracy for CV")
    dates = [r.timestamp.date() for r in fold]
    scores = []
    for C in c_grid:
        preds = evaluate(early, y_early, fold, C)
        if single_class:
            scores.append(classification_metrics(preds, y_fold)[1])
        else:
            scores.append(_cv_sharpe(strategy_returns(preds, y_fold, dates)))
    return c_grid[int(np.argmax(scores))]


@dataclass
class WindowResult:
    row: dict  # the window's entry in report.json's "windows"
    predictions: np.ndarray  # the test month's, pooled into the horizon's totals
    labels: np.ndarray
    dates: list


def window_records(cfg: BacktestConfig, window: Window,
                   records: list[FeatureRecord]) -> tuple[list[FeatureRecord], list[FeatureRecord]]:
    """(training, test) records of a window: the training months' events
    (minus those before `cfg.train_min_event_time`, when set) and the test
    month's events, each in input order. BacktestError for a window whose
    test month is not after its training span (the out-of-sample guarantee)."""
    lo, hi, test = (_month_key(m) for m in (window.train_start, window.train_end, window.test_month))
    if test <= hi:
        raise BacktestError(f"out-of-sample violation: window {window_id(window)}")
    keys = [_datetime_month_key(r.timestamp) for r in records]
    train_records = [r for r, k in zip(records, keys) if lo <= k <= hi]
    if cfg.train_min_event_time is not None:
        train_records = [r for r in train_records if r.timestamp.time() >= cfg.train_min_event_time]
    test_records = [r for r, k in zip(records, keys) if k == test]
    return train_records, test_records


def run_window(cfg: BacktestConfig, window: Window, horizon: int, records: list[FeatureRecord],
               shared: dict | None = None) -> WindowResult:
    """Calibrate on the train months and predict the test month of one window.

    `shared` maps (training events, test events), by their positions in
    the input document list, to the `PlanKernels` built on them. Kernels
    do not depend on labels, so the horizons of one window pass the same
    dict and build each training set's kernels once; a horizon whose
    events differ misses and builds its own. Without `shared` the early
    fold's Grams are freed before the full-window fit. An evaluated window
    logs (at INFO) the seconds it spent building kernels, fitting and
    predicting, and the SMO iterations of its fits.
    """
    own = shared is None
    shared = {} if own else shared
    labeling = cfg.labeling(horizon)
    train_records, test_records = window_records(cfg, window, records)
    if len(train_records) < MIN_TRAIN_EVENTS:
        raise WindowSkipped(f"only {len(train_records)} training events")
    if not test_records:
        raise WindowSkipped("no test events")

    threshold = label_threshold(train_records, labeling)
    y_train = label_records(train_records, labeling, threshold)
    y_test = label_records(test_records, labeling, threshold)
    if np.all(y_train == y_train[0]):
        raise WindowSkipped("single-class training labels")

    seconds = dict.fromkeys(("build", "fit", "predict"), 0.0)
    smo_iterations = 0

    def kernels_on(train: list[FeatureRecord], test: list[FeatureRecord]) -> PlanKernels:
        key = (tuple(r.position for r in train), tuple(r.position for r in test))
        if key not in shared:
            t0 = perf_counter()
            try:
                shared[key] = build_kernels(cfg.plan, train, test)
            except KernelError as exc:  # e.g. no training document hits a dictionary stem
                raise WindowSkipped(str(exc)) from exc
            finally:
                seconds["build"] += perf_counter() - t0
        return shared[key]

    def fit_and_predict(kernels: PlanKernels, y: np.ndarray, C: float) -> tuple[MklSolution, np.ndarray]:
        nonlocal smo_iterations
        t0 = perf_counter()
        sol = fit_plan(kernels, y, C, cfg.solver, cfg.gap_tol)
        t1 = perf_counter()
        preds = predict_records(kernels, sol, y)
        seconds["fit"] += t1 - t0
        seconds["predict"] += perf_counter() - t1
        smo_iterations += sol.smo_iterations
        return sol, preds

    def evaluate(early, y_early, fold, C):
        return fit_and_predict(kernels_on(early, fold), y_early, C)[1]  # one build for every C

    chosen_C = chrono_cv(train_records, y_train, cfg.c_grid, evaluate)
    if own:
        shared.clear()

    sol, preds = fit_and_predict(kernels_on(train_records, test_records), y_train, chosen_C)
    log.info("window %s h%d: build %.3f s, fit %.3f s, predict %.3f s, %d SMO iterations",
             window_id(window), horizon, seconds["build"], seconds["fit"], seconds["predict"],
             smo_iterations)

    _, acc, rec = classification_metrics(preds, y_test)
    dates = [r.timestamp.date() for r in test_records]
    row = {"window_id": window_id(window), "horizon": horizon, "n_train": len(train_records),
           "n_test": len(test_records), "accuracy": acc, "recall": rec,
           "sharpe": sharpe(strategy_returns(preds, y_test, dates)), "threshold": threshold,
           "chosen_C": chosen_C, **sol.outcome(), "n_kernels_active": int(np.sum(sol.d > 0)),
           "kernel_weights": {pk.name: float(w) for pk, w in zip(cfg.plan, sol.d)}}
    return WindowResult(row=row, predictions=preds, labels=y_test, dates=dates)


def _run_window_job(args) -> list:
    """One window at each of its horizons, sharing the window's kernels;
    a WindowResult or the WindowSkipped per horizon. The window's kernels
    are freed and their memory released before it returns."""
    cfg, window, horizon_records = args
    # a lone horizon shares nothing and frees as it goes
    shared = {} if len(horizon_records) > 1 else None
    outcomes = []
    for horizon, records in horizon_records:
        try:
            outcomes.append(run_window(cfg, window, horizon, records, shared))
        except WindowSkipped as exc:
            outcomes.append(exc)
    if shared is not None:
        shared.clear()  # a skipped horizon's traceback still holds the dict
    release_freed_memory()
    return outcomes


def run_sweep(cfg: BacktestConfig, extracted: dict[int, tuple[list[FeatureRecord], dict[str, int]]]
              ) -> dict[int, MetricsReport]:
    """Window-major sweep over already-extracted records: each window runs
    every horizon whose span contains it, then releases its kernels.
    horizon -> aggregated MetricsReport. A horizon with no events, whose
    events span too few months for a window, or none of whose windows could
    be evaluated, gets a report with no predictions; the sweep fails only
    when no horizon evaluated a window."""
    if not any(records for records, _ in extracted.values()):
        raise BacktestError("no usable events after feature extraction")
    windows: dict[int, set[Window]] = {}
    too_short = []
    for horizon, (records, _) in extracted.items():
        months = sorted({month_of(r.timestamp) for r in records})
        try:
            windows[horizon] = set(build_windows(months[0], months[-1])) if months else set()
        except BacktestError as exc:
            log.info("horizon %s has no window: %s", horizon, exc)
            windows[horizon] = set()
            too_short.append(exc)
    if not any(windows.values()):
        raise too_short[0]  # some horizon has events, so its span was too short
    order = sorted(set().union(*windows.values()), key=lambda w: _month_key(w.train_start))
    jobs = [(cfg, w, [(h, extracted[h][0]) for h in extracted if w in windows[h]]) for w in order]
    # a forked pool starts all its workers at the first submit: no more than there are windows
    workers = min(cfg.jobs, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_window_job, jobs))
    else:
        outcomes = [_run_window_job(j) for j in jobs]

    by_horizon: dict[int, list] = {h: [] for h in extracted}
    for (_, w, horizon_records), outs in zip(jobs, outcomes):
        for (h, _), out in zip(horizon_records, outs):
            by_horizon[h].append((w, out))
    reports = {h: _report(by_horizon[h], extracted[h][1]) for h in extracted}
    if not any(r.windows for r in reports.values()):
        raise BacktestError("every window was skipped; nothing to evaluate")
    return reports


def _report(outcomes: list, dropped: dict[str, int]) -> MetricsReport:
    """One horizon's MetricsReport from its (window, WindowResult or WindowSkipped) list;
    its windows are the results' rows as they are. With no result, it has no
    predictions: null measures and zero counts."""
    results: list[WindowResult] = []
    skipped = []
    for w, out in outcomes:
        if isinstance(out, WindowSkipped):
            skipped.append({"window_id": window_id(w), "reason": str(out)})
            log.info("window %s skipped: %s", window_id(w), out)
        else:
            results.append(out)
    if not results:
        return MetricsReport(accuracy=None, recall=None, sharpe=None, n_predictions=0, n_days=0,
                             confusion=Confusion(), mean_kernel_weights={}, n_dropped=dropped,
                             windows_by_status={}, n_skipped_windows=len(skipped),
                             skipped_windows=skipped, windows=[])

    preds = np.concatenate([r.predictions for r in results])
    labels = np.concatenate([r.labels for r in results])
    dates = [d for r in results for d in r.dates]
    conf, acc, rec = classification_metrics(preds, labels)
    sr = sharpe(strategy_returns(preds, labels, dates))

    rows = [r.row for r in results]
    mean = np.mean([list(row["kernel_weights"].values()) for row in rows], axis=0)
    return MetricsReport(accuracy=acc, recall=rec, sharpe=sr, n_predictions=int(preds.size),
                         n_days=len(set(dates)), confusion=conf,
                         mean_kernel_weights=dict(zip(rows[0]["kernel_weights"], mean.tolist())),
                         n_dropped=dropped,
                         windows_by_status=dict(sorted(Counter(row["status"] for row in rows).items())),
                         n_skipped_windows=len(skipped), skipped_windows=skipped, windows=rows)


def run_horizon_on_records(cfg: BacktestConfig, horizon: int, records: list[FeatureRecord],
                           dropped: dict[str, int] | None = None) -> MetricsReport:
    """Window sweep of one horizon over already-extracted feature records."""
    return run_sweep(cfg, {horizon: (records, dropped if dropped is not None else {})})[horizon]


def run_backtest(cfg: BacktestConfig, docs: list[Document], prices: dict[str, PriceSeries],
                 dictionary: Dictionary) -> dict[int, MetricsReport]:
    """Run every configured horizon; horizon -> aggregated MetricsReport."""
    return run_sweep(cfg, prepare_records_by_horizon(docs, prices, dictionary, cfg.horizons, cfg.label_kind))


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


# windows.csv: these row fields, then one weight per plan kernel, then the MKL outcome
WINDOW_COLUMNS = ("window_id", "horizon", "n_train", "n_test", "accuracy", "recall", "sharpe",
                  "n_kernels_active")


def write_window_csv(path, cfg: BacktestConfig, reports: dict[int, MetricsReport]) -> None:
    names = [pk.name for pk in cfg.plan]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([*WINDOW_COLUMNS, *names, *OUTCOME]) + "\n")
        for horizon in sorted(reports):
            for row in reports[horizon].windows:
                cells = ([row[c] for c in WINDOW_COLUMNS] + [row["kernel_weights"][n] for n in names]
                         + [row[c] for c in OUTCOME])
                fh.write(",".join(map(_fmt, cells)) + "\n")


def write_report_json(path, reports: dict[int, MetricsReport]) -> None:
    payload = {"horizons": {str(h): asdict(r) for h, r in sorted(reports.items())}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
