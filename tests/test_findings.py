"""The paper's findings on planted data (Luss & d'Aspremont, arXiv 0809.2792):
the direction of returns after news is not predictable, from text or from
returns; their size is, from text; and text predicts size better than
returns do.

One synthetic dataset (seed 21, 1,200 events over 15 months: three test
months at horizons 10 and 30) is backtested with a linear text kernel and
a linear absolute-returns kernel on both label kinds. Each margin is the
binomial band 3 * sqrt(p (1 - p) / n) around the majority share p of the
n test labels: the accuracy of always predicting the larger class, and
how far chance moves an accuracy over n events.
"""

import math

import pytest

from newsmkl import backtest as bt
from newsmkl.market import SynthSpec, read_prices, synth_generate, write_prices
from newsmkl.text import default_dictionary, read_documents, write_documents

HORIZONS = (10, 30)
PLANS = ("linear-text", "linear-absret")


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """(kind, plan) -> horizon -> MetricsReport, on the files `synth` writes."""
    root = tmp_path_factory.mktemp("findings")
    docs, prices, _ = synth_generate(21, SynthSpec(n_events=1200, n_months=15))
    write_documents(root / "docs.jsonl", docs)
    write_prices(root / "prices.csv", prices)
    docs, prices = read_documents(root / "docs.jsonl"), read_prices(root / "prices.csv")
    out = {}
    for kind in ("abnormal", "direction"):
        for plan in PLANS:
            cfg = bt.BacktestConfig(plan=bt.named_plan(plan), horizons=HORIZONS, label_kind=kind,
                                    c_grid=(10.0,), gap_tol=1e-3)
            out[kind, plan] = bt.run_backtest(cfg, docs, prices, default_dictionary())
    return out


def majority_and_band(report: bt.MetricsReport) -> tuple[float, float]:
    """The majority share p of the test labels and the band 3 * sqrt(p (1 - p) / n)."""
    c = report.confusion
    p = max(c.tp + c.fn, c.tn + c.fp) / c.total
    return p, 3.0 * math.sqrt(p * (1.0 - p) / c.total)


@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("plan", PLANS)
def test_direction_is_not_predictable(reports, plan, horizon):
    report = reports["direction", plan][horizon]
    p, band = majority_and_band(report)
    assert report.accuracy <= p + band, (report.accuracy, p, band)


@pytest.mark.parametrize("horizon", HORIZONS)
def test_size_is_predictable_from_text(reports, horizon):
    report = reports["abnormal", "linear-text"][horizon]
    p, band = majority_and_band(report)
    assert report.accuracy > p + band, (report.accuracy, p, band)


@pytest.mark.parametrize("horizon", HORIZONS)
def test_text_predicts_size_better_than_returns(reports, horizon):
    text = reports["abnormal", "linear-text"][horizon]
    returns = reports["abnormal", "linear-absret"][horizon]
    assert text.confusion.total == returns.confusion.total  # the same test events
    _, band = majority_and_band(text)
    assert text.accuracy - returns.accuracy > band, (text.accuracy, returns.accuracy, band)
