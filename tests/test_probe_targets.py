"""Every layer boundary the benchmark probe wraps must exist in the library.

perfbench/probe.py looks each (module, attribute) up with getattr at
install time, so a renamed or deleted function crashes every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"


def _probe_module():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


@pytest.mark.parametrize("module,attr,span", _probe_module().SPAN_TARGETS)
def test_span_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span


def test_probe_records_one_solve_per_plan_fit(monkeypatch):
    """The probe's solver wrappers see every MKL solve a window makes: one
    record with a status per `fit_plan` call. A solver dispatch the probe
    cannot wrap would leave the window's solves empty, and the benchmark's
    iteration counts and failure accounting would read zero."""
    from newsmkl import backtest as bt
    from newsmkl.market import SynthSpec, synth_generate
    from newsmkl.text import default_dictionary

    docs, prices, _ = synth_generate(5, SynthSpec(n_events=200, n_months=13, tickers=("AAA",)))
    plan = [bt.PlanKernel(name="lin_text", feature="text", kind="linear"),
            bt.PlanKernel(name="lin_absret", feature="absret", kind="linear")]
    cfg = bt.BacktestConfig(plan=plan, horizons=(10,), c_grid=(10.0, 100.0))
    records, _ = bt.prepare_feature_records(docs, prices, default_dictionary(), cfg.labeling(10))
    months = sorted({bt.month_of(r.timestamp) for r in records})
    [window] = bt.build_windows(months[0], months[-1])

    fits = []
    real_fit = bt.fit_plan

    def counting(*args, **kwargs):
        fits.append(args)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(bt, "fit_plan", counting)
    probe_module = _probe_module()
    probe = probe_module.Probe(timing=False)
    probe.install()
    try:
        bt.run_window(cfg, window, 10, records)
    finally:
        probe.uninstall()
    [record] = probe.windows
    assert len(fits) == 3  # two C candidates in cross validation, then the full window
    assert len(record["solves"]) == len(fits)
    assert all("status" in s for s in record["solves"])


def test_probe_records_every_bench_solve():
    """`bench-mkl` looks its solvers up when it runs, so the probe's solver
    wrappers see each of its solves, with how it ended."""
    from newsmkl.bench import run_bench

    probe = _probe_module().Probe(timing=False)
    probe.install()
    try:
        rows = run_bench(["accpm", "redgrad"], 2, 30, 1, 0)
    finally:
        probe.uninstall()
    assert [s["method"] for s in probe.solves] == ["solve_accpm", "solve_reduced_gradient"]
    assert [s["status"] for s in probe.solves] == [r["status"] for r in rows]


@pytest.mark.parametrize("features,solver_span", [(("text", "absret"), "mkl.solve_accpm"),
                                                   (("text",), "svm.solve_dual")],
                         ids=["two_kernels", "one_kernel"])
def test_backtest_spans_stay_live(features, solver_span):
    """A traced backtest records a span for every backtest and kernel layer
    the benchmark reports, and for the solver its plan fits with: ACCPM for
    two kernels, the plain SVM for one. A refactor that calls a wrapped
    function by another name would read 0 in its per-layer metric, not fail."""
    from newsmkl import backtest as bt
    from newsmkl.market import SynthSpec, synth_generate
    from newsmkl.text import default_dictionary

    docs, prices, _ = synth_generate(5, SynthSpec(n_events=200, n_months=13, tickers=("AAA",)))
    plan = [bt.PlanKernel(name=f"lin_{f}", feature=f, kind="linear") for f in features]
    cfg = bt.BacktestConfig(plan=plan, horizons=(10,), c_grid=(10.0, 100.0))
    probe = _probe_module().Probe(timing=True)
    probe.install()
    try:
        reports = bt.run_backtest(cfg, docs, prices, default_dictionary())
    finally:
        probe.uninstall()
    assert reports[10].windows
    recorded = {name for name, *_ in probe.spans}
    for span in ("backtest.run_window", "backtest.chrono_cv", "backtest.fit_plan",
                 "backtest.predict_records", "kernels.gram_matrix", "kernels.cross_gram",
                 "smo.solve", "svm.predict_many", "text.tfidf", solver_span):
        assert span in recorded, span


def test_gram_matrix_builds_every_mkl13_kernel_but_the_in_place_gaussians():
    """`kernels.gram_matrix` is the one builder of a training kernel, dense
    or stored as codes: a traced mkl13 build records its span for 11 of the
    13 kernels. The other two are the last gaussian on each of the two
    gaussian features, which `build_kernels` maps inside its distances."""
    from newsmkl import backtest as bt
    from newsmkl.market import SynthSpec, synth_generate
    from newsmkl.text import default_dictionary

    docs, prices, _ = synth_generate(5, SynthSpec(n_events=200, n_months=13, tickers=("AAA",)))
    cfg = bt.BacktestConfig(plan=bt.named_plan("mkl13"), horizons=(10,))
    records, _ = bt.prepare_feature_records(docs, prices, default_dictionary(), cfg.labeling(10))
    probe = _probe_module().Probe(timing=True)
    probe.install()
    try:
        built = bt.build_kernels(cfg.plan, records)
    finally:
        probe.uninstall()
    assert len(built.grams) == 13
    assert sum(1 for name, *_ in probe.spans if name == "kernels.gram_matrix") == 11
