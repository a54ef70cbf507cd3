"""Outside-in probes on newsmkl's layer boundaries.

A probe replaces a library function, in every ``newsmkl`` module that binds
it (``from .x import f`` or a module attribute looked up at call time), by a
wrapper. The library itself is not edited.

Two kinds of wrapper exist:

* outcome wrappers, always installed, record how each backtest window and
  each MKL solve ended, which feeds the failure accounting, and when the CLI
  had loaded its inputs, which gives a set-up sample per pass;
* span wrappers, installed only in a traced run, record one span per call
  (name, start, end, parent) in memory plus a few counts taken from the
  call's arguments or result.

``layer_metrics`` turns the spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import traceback

OK_STATUSES = ("converged", "flat_gradient")

# (module, attribute, span name). Only coarse layer boundaries: inner
# helpers such as mkl.barrier_value stay unwrapped.
SPAN_TARGETS = (
    ("newsmkl.cli", "main", "cli.main"),
    ("newsmkl.text", "read_documents", "text.read_documents"),
    ("newsmkl.market", "read_prices", "market.read_prices"),
    ("newsmkl.text", "bag_of_words", "text.bag_of_words"),
    ("newsmkl.text", "fit_tfidf", "text.tfidf"),
    ("newsmkl.text", "transform_tfidf_many", "text.tfidf"),
    ("newsmkl.market", "return_features", "market.return_features"),
    ("newsmkl.market", "future_return", "market.future_return"),
    ("newsmkl.kernels", "gram_matrix", "kernels.gram_matrix"),
    ("newsmkl.kernels", "median_sqdist", "kernels.median_sqdist"),
    ("newsmkl.kernels", "cross_gram", "kernels.cross_gram"),
    ("newsmkl._smo", "solve", "smo.solve"),
    ("newsmkl.svm", "solve_dual", "svm.solve_dual"),
    ("newsmkl.svm", "recover_bias", "svm.recover_bias"),
    ("newsmkl.svm", "predict_many", "svm.predict_many"),
    ("newsmkl.mkl", "solve_accpm", "mkl.solve_accpm"),
    ("newsmkl.mkl", "solve_reduced_gradient", "mkl.solve_reduced_gradient"),
    ("newsmkl.mkl", "mix_kernels", "mkl.mix_kernels"),
    ("newsmkl.mkl", "kernel_quad_forms", "mkl.kernel_quad_forms"),
    ("newsmkl.mkl", "analytic_center", "mkl.analytic_center"),
    ("newsmkl.mkl", "prune_cuts", "mkl.prune_cuts"),
    ("newsmkl.backtest", "prepare_feature_records", "backtest.prepare_feature_records"),
    ("newsmkl.backtest", "run_window", "backtest.run_window"),
    ("newsmkl.backtest", "fit_plan", "backtest.fit_plan"),
    ("newsmkl.backtest", "chrono_cv", "backtest.chrono_cv"),
    ("newsmkl.backtest", "predict_records", "backtest.predict_records"),
    ("newsmkl.bench", "make_bench_problem", "bench.make_bench_problem"),
    # every artifact the CLI writes: report, windows CSV, manifest, model
    ("newsmkl.backtest", "write_window_csv", "cli.artifacts"),
    ("newsmkl.backtest", "write_report_json", "cli.artifacts"),
    ("newsmkl.config", "write_manifest", "cli.artifacts"),
    ("newsmkl.svm", "save_model", "cli.artifacts"),
)

SOLVERS = ("solve_accpm", "solve_reduced_gradient")

# Per-layer metrics: (name, unit, better). The order is the print order.
PER_LAYER = (
    ("mkl.mix_kernels.calls", "count", "lower"),
    ("mkl.mix_kernels.s", "s", "lower"),
    ("mkl.mix_kernels.bytes_computed", "bytes", "lower"),
    ("mkl.kernel_quad_forms.calls", "count", "lower"),
    ("mkl.kernel_quad_forms.s", "s", "lower"),
    ("mkl.iterations", "count", "lower"),
    ("mkl.svm_solves", "count", "lower"),
    ("mkl.analytic_center.calls", "count", "lower"),
    ("mkl.analytic_center.s", "s", "lower"),
    ("mkl.prune_cuts.s", "s", "lower"),
    ("mkl.not_converged", "count", "lower"),
    ("svm.solve_dual.calls", "count", "lower"),
    ("svm.solve_dual.s", "s", "lower"),
    ("svm.solve_dual.self_s", "s", "lower"),
    ("svm.recover_bias.s", "s", "lower"),
    ("svm.predict_many.s", "s", "lower"),
    ("smo.solve.calls", "count", "lower"),
    ("smo.solve.s", "s", "lower"),
    ("smo.iterations", "count", "lower"),
    ("smo.iterations_max", "count", "lower"),
    ("smo.not_converged", "count", "lower"),
    ("smo.us_per_iter", "us", "lower"),
    ("kernels.gram_matrix.calls", "count", "lower"),
    ("kernels.gram_matrix.s", "s", "lower"),
    ("kernels.gram_matrix.bytes_computed", "bytes", "lower"),
    ("kernels.median_sqdist.calls", "count", "lower"),
    ("kernels.median_sqdist.s", "s", "lower"),
    ("kernels.cross_gram.s", "s", "lower"),
    ("text.read_documents.s", "s", "lower"),
    ("market.read_prices.s", "s", "lower"),
    ("text.bag_of_words.calls", "count", "lower"),
    ("text.bag_of_words.s", "s", "lower"),
    ("text.tfidf.s", "s", "lower"),
    ("market.return_features.calls", "count", "lower"),
    ("market.return_features.s", "s", "lower"),
    ("market.future_return.s", "s", "lower"),
    ("backtest.prepare_feature_records.calls", "count", "lower"),
    ("backtest.prepare_feature_records.s", "s", "lower"),
    ("backtest.fit_plan.calls", "count", "lower"),
    ("backtest.fit_plan.s", "s", "lower"),
    ("backtest.fit_plan.self_s", "s", "lower"),
    ("backtest.chrono_cv.s", "s", "lower"),
    ("backtest.predict_records.s", "s", "lower"),
    ("backtest.windows", "count", "higher"),
    ("backtest.windows_skipped", "count", "lower"),
    ("bench.make_bench_problem.s", "s", "lower"),
    ("cli.artifacts.s", "s", "lower"),
    ("oos_accuracy", "frac", "higher"),
    ("oos_sharpe", "ratio", "higher"),
    ("trace_overhead_frac", "frac", "lower"),
)

BYTES_NOTE = {
    "mkl.mix_kernels.bytes_computed":
        "computed from array sizes, not measured: 8*n*n*(nonzero weights + 1) per call "
        "(each weighted input Gram read once, the n x n output written once)",
    "kernels.gram_matrix.bytes_computed":
        "computed from array sizes, not measured: 8*n*n per call (the n x n output)",
}


def failure_reason(exc: BaseException) -> str:
    """`Type: message (at module.function)`, naming the innermost newsmkl frame."""
    where = ""
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        parts = frame.filename.replace("\\", "/").split("/")
        if "newsmkl" in parts[:-1]:
            where = f" (at {parts[-1][:-3]}.{frame.name})"
            break
    return f"{type(exc).__name__}: {exc}{where}"


class Probe:
    """Wrappers, spans and counts for one process; `uninstall` restores the library."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.solves: list[dict] = []  # one record per MKL solve
        self.windows: list[dict] = []  # one record per backtest window attempted
        self.ready: float | None = None  # when the CLI had its inputs loaded
        self._stack: list[int] = []
        self._window: dict | None = None
        self._patched: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in
                   ("newsmkl.cli", "newsmkl.backtest", "newsmkl.bench", "newsmkl.mkl",
                    "newsmkl.svm", "newsmkl._smo", "newsmkl.kernels", "newsmkl.text",
                    "newsmkl.market", "newsmkl.config")}
        for name in SOLVERS:
            self._patch(modules["newsmkl.mkl"], name,
                        lambda fn, name=name: self._solver_wrapper(fn, name))
        self._patch(modules["newsmkl.backtest"], "run_window", self._window_wrapper)
        self._patch(modules["newsmkl.cli"], "_load_inputs", self._ready_wrapper)
        if self.timing:
            for mod, attr, span in SPAN_TARGETS:
                self._patch(modules[mod], attr,
                            lambda fn, span=span: self._span_wrapper(fn, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, home, attr: str, make) -> None:
        original = getattr(home, attr)
        wrapped = functools.wraps(original)(make(original))
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "newsmkl"]:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, key, original))
                    setattr(module, key, wrapped)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        count = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, out)
            return out

        return wrapper

    def _solver_wrapper(self, fn, method: str):
        def wrapper(problem, *args, **kwargs):
            rec = {"method": method, "n_kernels": problem.n_kernels}
            if self._window is not None:
                self._window["solves"].append(rec)
            self.solves.append(rec)
            try:
                sol = fn(problem, *args, **kwargs)
            except Exception as exc:
                rec["status"] = "raised"
                rec["reason"] = failure_reason(exc)
                raise
            rec.update(status=sol.status, gap=float(sol.gap), iterations=int(sol.iterations),
                       svm_solves=int(sol.svm_solves))
            return sol

        return wrapper

    def _ready_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.ready is None:
                self.ready = time.monotonic()
            return out

        return wrapper

    def _window_wrapper(self, fn):
        from newsmkl.backtest import WindowSkipped

        def wrapper(cfg, window, horizon, *args, **kwargs):
            rec = {"window": f"{window.train_start}..{window.train_end}->{window.test_month}",
                   "horizon": int(horizon), "solves": []}
            self.windows.append(rec)
            self._window = rec
            try:
                return fn(cfg, window, horizon, *args, **kwargs)
            except WindowSkipped as exc:
                rec["skipped"] = str(exc)
                raise
            except Exception as exc:
                rec["raised"] = failure_reason(exc)
                raise
            finally:
                self._window = None

        return wrapper

    def record(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "solves": self.solves,
                "windows": self.windows}


def _add(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_smo(counts, args, out):
    n_iter, _, converged = out
    _add(counts, "smo.iterations", int(n_iter))
    counts["smo.iterations_max"] = max(counts.get("smo.iterations_max", 0), int(n_iter))
    _add(counts, "smo.not_converged", 0 if converged else 1)


def _count_mix(counts, args, out):
    d = args[1]
    nonzero = sum(1 for w in d if float(w) != 0.0)  # mix_kernels skips zero weights
    _add(counts, "mkl.mix_kernels.bytes_computed", 8 * out.size * out.size * (nonzero + 1))


def _count_gram(counts, args, out):
    _add(counts, "kernels.gram_matrix.bytes_computed", 8 * out.size * out.size)


def _count_mkl(counts, args, out):
    _add(counts, "mkl.iterations", int(out.iterations))
    _add(counts, "mkl.svm_solves", int(out.svm_solves))


_COUNTERS = {
    "smo.solve": _count_smo,
    "mkl.mix_kernels": _count_mix,
    "kernels.gram_matrix": _count_gram,
    "mkl.solve_accpm": _count_mkl,
    "mkl.solve_reduced_gradient": _count_mkl,
}


def span_totals(spans: list) -> dict[str, dict]:
    """calls, total time `s` and self time `self_s` per span name.

    Self time is a span's duration minus the durations of its direct
    children. A call nested inside another call of the same name adds to
    `calls` and `self_s` but not again to `s`.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, dict] = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += t1 - t0
    return out


def layer_metrics(record: dict, quality: dict, overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass (0 where a layer is idle)."""
    totals = span_totals(record["spans"])
    counts = record["counts"]
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in counts:
            values[name] = counts[name]
        elif field in ("calls", "s", "self_s") and span:
            values[name] = totals.get(span, {}).get(field, 0)
        else:
            values[name] = 0
    values["mkl.not_converged"] = sum(1 for s in record["solves"] if s.get("status") not in OK_STATUSES)
    values["backtest.windows"] = len(record["windows"])
    values["backtest.windows_skipped"] = sum(1 for w in record["windows"] if "skipped" in w)
    iters = values["smo.iterations"]
    values["smo.us_per_iter"] = 1e6 * values["smo.solve.s"] / iters if iters else 0.0
    values["oos_accuracy"] = quality.get("oos_accuracy", 0.0)
    values["oos_sharpe"] = quality.get("oos_sharpe", 0.0)
    values["trace_overhead_frac"] = overhead_frac
    return values


def self_time_ranking(spans: list, top: int = 12) -> list[list]:
    """[[span name, self seconds], ...] largest first."""
    totals = span_totals(spans)
    ranked = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    return [[name, round(agg["self_s"], 6)] for name, agg in ranked]
