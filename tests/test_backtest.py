import copy
import csv
import dataclasses
import gc
import json
import tracemalloc
import weakref
from datetime import date, datetime, time, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (as_bytes, densify, densify_plan, eval_kernel, naive_accuracy_recall, naive_sharpe,
                     triu_median_sqdist)

from newsmkl import backtest as bt
from newsmkl import kernels, market, mkl, svm
from newsmkl.market import SynthSpec, synth_generate
from newsmkl.kernels import KERNEL_KINDS, KernelError
from newsmkl.text import Dictionary, default_dictionary, fit_tfidf, transform_tfidf_many

UTC = timezone.utc


class TestBuildWindows:
    def test_fourteen_month_span_gives_two_windows(self):
        ws = bt.build_windows("2000-01", "2001-02")
        assert len(ws) == 2
        assert ws[0] == bt.Window("2000-01", "2000-12", "2001-01")
        assert ws[1] == bt.Window("2000-02", "2001-01", "2001-02")

    def test_thirteen_month_span_gives_one_window(self):
        ws = bt.build_windows("2000-01", "2001-01")
        assert len(ws) == 1

    def test_eight_years_gives_84_windows(self):
        ws = bt.build_windows("2000-01", "2007-12")
        assert len(ws) == 84

    def test_short_span_rejected(self):
        with pytest.raises(bt.BacktestError):
            bt.build_windows("2000-01", "2000-12")

    def test_year_boundary_arithmetic(self):
        ws = bt.build_windows("2003-06", "2004-07")
        assert ws[0].train_end == "2004-05" and ws[0].test_month == "2004-06"


class TestMetrics:
    def test_accuracy_formula(self):
        # TP=2 TN=3 FP=1 FN=4 -> accuracy 0.5
        preds = [1, 1, 1, -1, -1, -1, -1, -1, -1, -1]
        labels = [1, 1, -1, -1, -1, -1, 1, 1, 1, 1]
        conf, acc, rec = bt.classification_metrics(preds, labels)
        assert (conf.tp, conf.tn, conf.fp, conf.fn) == (2, 3, 1, 4)
        assert acc == 0.5

    def test_recall_formula(self):
        preds = [1, 1, -1, -1]
        labels = [1, 1, 1, 1]
        _, _, rec = bt.classification_metrics(preds, labels)
        assert rec == 0.5

    def test_all_positive_perfect(self):
        conf, acc, rec = bt.classification_metrics([1, 1], [1, 1])
        assert acc == 1.0 and rec == 1.0

    def test_recall_undefined_without_positives(self):
        _, _, rec = bt.classification_metrics([-1, -1], [-1, -1])
        assert rec is None

    def test_length_mismatch(self):
        with pytest.raises(bt.BacktestError):
            bt.classification_metrics([1], [1, -1])

    def test_matches_naive_recompute(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            preds = rng.choice([-1, 1], size=30)
            labels = rng.choice([-1, 1], size=30)
            _, acc, rec = bt.classification_metrics(preds, labels)
            n_acc, n_rec = naive_accuracy_recall(preds, labels)
            assert acc == pytest.approx(n_acc, abs=1e-12)
            assert (rec is None) == (n_rec is None)
            if rec is not None:
                assert rec == pytest.approx(n_rec, abs=1e-12)


class TestStrategyReturns:
    def test_all_correct_one_day(self):
        rets = bt.strategy_returns([1, 1, -1], [1, 1, -1], [date(2004, 1, 5)] * 3)
        assert rets.tolist() == [1.0]

    def test_two_right_two_wrong(self):
        rets = bt.strategy_returns([1, 1, -1, -1], [1, 1, 1, 1], [date(2004, 1, 5)] * 4)
        assert rets.tolist() == [0.0]

    def test_days_without_bets_omitted(self):
        # one return per day with bets (not for Jan 6), in date order
        rets = bt.strategy_returns([1, -1], [1, 1], [date(2004, 1, 7), date(2004, 1, 5)])
        assert rets.tolist() == [-1.0, 1.0]

    def test_random_predictions_mean_near_zero(self):
        rng = np.random.default_rng(1)
        n = 4000
        preds = rng.choice([-1, 1], size=n)
        labels = rng.choice([-1, 1], size=n)
        dates = [date(2004, 1 + (i % 12), 1 + (i % 28)) for i in range(n)]
        rets = bt.strategy_returns(preds, labels, dates)
        sigma = float(np.std(rets, ddof=1)) / np.sqrt(len(rets))
        assert abs(float(np.mean(rets))) <= 3 * sigma


class TestSharpe:
    def test_plus_minus_one_gives_zero(self):
        assert bt.sharpe([1.0, -1.0]) == 0.0

    def test_constant_returns_undefined(self):
        assert bt.sharpe([0.3, 0.3, 0.3]) is None

    def test_matches_hand_recompute(self):
        rets = [0.02, 0.00, 0.01, 0.03]
        assert bt.sharpe(rets) == pytest.approx(naive_sharpe(rets), rel=1e-12)

    def test_needs_two_observations(self):
        assert bt.sharpe([0.5]) is None
        assert bt.sharpe([]) is None


class TestChronoCv:
    """The fold is the last 10 of 40 events; `_records` puts one event on
    each day, and the labels alternate."""

    Y = np.array([1, -1] * 20)

    def _records(self, n=40):
        recs = []
        for i in range(n):
            recs.append(bt.FeatureRecord(
                doc_id=f"d{i}", ticker="T",
                timestamp=datetime(2004, 1 + i // 20, 1 + i % 20, 12, 0, tzinfo=UTC),
                text_counts=np.zeros(2, dtype=np.int64), token_count=5,
                return_features=np.zeros(5), time_of_day=np.array([0, 1, 0.0]),
                day_of_week=np.array([1, 0, 0, 0, 0.0]), signed_return=0.01 * (i % 3 - 1),
                position=i))
        return recs

    def test_single_candidate_unconditional(self):
        assert bt.chrono_cv(self._records(), self.Y, (7.0,), evaluate=None) == 7.0

    def test_dominant_candidate_selected(self):
        y_fold = self.Y[30:]

        def evaluate(early, y_early, fold, C):
            # C=2 predicts the fold labels exactly; C=1 inverts them
            return y_fold if C == 2.0 else -y_fold

        assert bt.chrono_cv(self._records(), self.Y, (1.0, 2.0), evaluate) == 2.0

    def test_tie_goes_to_first_candidate(self):
        def evaluate(early, y_early, fold, C):
            return self.Y[30:]

        assert bt.chrono_cv(self._records(), self.Y, (5.0, 3.0), evaluate) == 5.0

    def test_perfect_c_ranks_first(self):
        """A C right on every day has all-equal daily returns, so its Sharpe
        ratio is undefined; CV ranks it above every finite Sharpe ratio."""
        y_fold = self.Y[30:]
        preds = {1.0: y_fold, 2.0: np.where(np.arange(10) < 2, -y_fold, y_fold)}
        assert bt.sharpe(bt.strategy_returns(preds[1.0], y_fold, range(10))) is None
        assert bt.sharpe(bt.strategy_returns(preds[2.0], y_fold, range(10))) > 0
        assert bt.chrono_cv(self._records(), self.Y, (1.0, 2.0),
                            lambda early, y_early, fold, C: preds[C]) == 1.0

    def test_single_class_fold_falls_back_to_accuracy(self):
        # fold: one event on one day, then nine on the next; all labeled +1
        recs = self._records(30) + [_record_at(30 + i, datetime(2004, 3, 1 + (i > 0), 12, i, tzinfo=UTC))
                                    for i in range(10)]
        y = np.concatenate([self.Y[:30], np.ones(10, dtype=np.int64)])
        # C=1: right on the first day and on 5 of 9 events the next (Sharpe > 0,
        # accuracy 0.6); C=2: wrong on the first day, right on the next nine
        # (daily returns -1 and 1, Sharpe 0, accuracy 0.9)
        preds = {1.0: np.array([1] * 6 + [-1] * 4), 2.0: np.array([-1] + [1] * 9)}
        dates = [r.timestamp.date() for r in recs[30:]]
        assert bt.sharpe(bt.strategy_returns(preds[1.0], y[30:], dates)) > 0
        assert bt.sharpe(bt.strategy_returns(preds[2.0], y[30:], dates)) == 0.0
        assert bt.chrono_cv(recs, y, (1.0, 2.0), lambda early, y_early, fold, C: preds[C]) == 2.0


def _cv_oracle(c_grid, preds: dict, y_fold, days) -> float:
    """The first C of the grid with the highest documented CV score: the
    accuracy on a single-class fold, else the Sharpe ratio of the daily
    strategy returns, with +inf / -inf / 0 by the sign of their mean where
    it is undefined."""
    if len(c_grid) == 1:
        return c_grid[0]
    scores = []
    for C in c_grid:
        right = np.asarray(preds[C]) == y_fold
        if len(set(y_fold.tolist())) == 1:
            scores.append(float(np.mean(right)))
            continue
        rets = np.array([(2 * right[days == d] - 1).mean() for d in sorted(set(days.tolist()))])
        sr = bt.sharpe(rets)
        if sr is None:
            sr = np.inf if rets.mean() > 0 else -np.inf if rets.mean() < 0 else 0.0
        scores.append(sr)
    return next(C for C, s in zip(c_grid, scores) if s == max(scores))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_c=st.integers(1, 4))
def test_cv_picks_the_earliest_best_c(data, n_c):
    """For arbitrary per-C fold predictions, chrono_cv returns the first C
    that maximizes the documented score."""
    pm1 = st.sampled_from([-1, 1])
    y_fold = np.array(data.draw(st.lists(pm1, min_size=10, max_size=10)))
    days = np.array(sorted(data.draw(st.lists(st.integers(1, 4), min_size=10, max_size=10))))
    c_grid = tuple(float(c) for c in range(1, n_c + 1))
    preds = {C: np.array(data.draw(st.lists(pm1, min_size=10, max_size=10))) for C in c_grid}
    recs = [_record_at(i, datetime(2004, 1, 1 + i, 12, tzinfo=UTC)) for i in range(30)]
    recs += [_record_at(30 + i, datetime(2004, 2, int(d), 12, i, tzinfo=UTC)) for i, d in enumerate(days)]
    y = np.concatenate([np.array([1, -1] * 15), y_fold])

    def evaluate(early, y_early, fold, C):
        assert [r.position for r in fold] == list(range(30, 40))
        return preds[C]

    assert bt.chrono_cv(recs, y, c_grid, evaluate) == _cv_oracle(c_grid, preds, y_fold, days)


def _record_at(i: int, t: datetime) -> bt.FeatureRecord:
    return bt.FeatureRecord(doc_id=f"d{i}", ticker="T", timestamp=t,
                            text_counts=np.zeros(2, dtype=np.int64), token_count=5,
                            return_features=np.zeros(5), time_of_day=np.array([0, 1, 0.0]),
                            day_of_week=np.array([1, 0, 0, 0, 0.0]), signed_return=0.0,
                            position=i)


@settings(max_examples=60, deadline=None)
@given(stamps=st.lists(st.datetimes(min_value=datetime(2003, 11, 1), max_value=datetime(2005, 4, 30),
                                    timezones=st.just(UTC)), min_size=1, max_size=60),
       min_time=st.sampled_from([None, datetime(2004, 1, 1, 10, 10).time(),
                                 datetime(2004, 1, 1, 14, 0).time()]))
def test_no_test_event_inside_training_months(stamps, min_time):
    records = [_record_at(i, t) for i, t in enumerate(stamps)]
    cfg = bt.BacktestConfig(plan=LIN_TEXT, train_min_event_time=min_time)
    for window in bt.build_windows("2003-11", "2005-04"):
        train, test = bt.window_records(cfg, window, records)
        lo, hi = bt._month_key(window.train_start), bt._month_key(window.train_end)
        assert all(lo <= bt._month_key(bt.month_of(r.timestamp)) <= hi for r in train)
        assert all(bt.month_of(r.timestamp) == window.test_month for r in test)
        assert all(bt._month_key(bt.month_of(r.timestamp)) > hi for r in test)
        assert {r.doc_id for r in train}.isdisjoint(r.doc_id for r in test)
        n_test_month = sum(bt.month_of(t) == window.test_month for t in stamps)
        assert len(test) == n_test_month


def test_window_that_does_not_test_after_its_training_span_is_refused():
    records = [_record_at(i, datetime(2004, 1 + i, 5, 12, tzinfo=UTC)) for i in range(12)]
    cfg = bt.BacktestConfig(plan=LIN_TEXT)
    for test_month in ("2004-12", "2004-06", "2003-12"):
        window = bt.Window(train_start="2004-01", train_end="2004-12", test_month=test_month)
        with pytest.raises(bt.BacktestError, match="out-of-sample violation"):
            bt.window_records(cfg, window, records)


class TestNamedPlans:
    def test_each_name_gives_a_fresh_copy_of_its_plan(self):
        assert list(bt.PLANS) == ["linear-text", "linear-absret", "linear4", "mkl13", "mkl13+noise3"]
        assert bt.named_plan("mkl13") == bt.default_mkl_plan()
        assert bt.named_plan("mkl13+noise3") == bt.default_mkl_plan() + bt.random_noise_plan(3)
        assert [pk.name for pk in bt.named_plan("linear4")] == \
            ["lin_text", "lin_absret", "lin_timeofday", "lin_dayofweek"]
        plan = bt.named_plan("linear-text")
        plan.append(bt.PlanKernel(name="identity", feature="identity", kind="identity"))
        assert len(bt.named_plan("linear-text")) == 1

    def test_unknown_name_lists_the_known(self):
        with pytest.raises(bt.BacktestError, match="choose from linear-text, linear-absret, linear4, "
                                                   "mkl13, mkl13\\+noise3$"):
            bt.named_plan("mkl12")


def _kernel_records(n: int, seed: int) -> list[bt.FeatureRecord]:
    """Records on which every feature has nonzero rows and every stem a
    nonzero idf (each of the 4 stems appears in about a quarter of them)."""
    rng = np.random.default_rng(seed)
    return [bt.FeatureRecord(doc_id=f"d{i}", ticker="T", timestamp=datetime(2004, 1, 5, 11, tzinfo=UTC),
                             text_counts=np.eye(4, dtype=np.int64)[i % 4] * (1 + i % 3),
                             token_count=5, return_features=np.abs(rng.standard_normal(5)) + 0.01,
                             time_of_day=np.eye(3)[i % 3], day_of_week=np.eye(5)[i % 5],
                             signed_return=0.0, position=i)
            for i in range(n)]


KERNEL_DATA = (_kernel_records(12, 0), _kernel_records(7, 1))


class TestPlanKernelChecks:
    @pytest.mark.parametrize("params", [
        {"feature": "text", "kind": "bogus"},
        {"feature": "bogus", "kind": "linear"},
        {"feature": "absret", "kind": "gaussian", "sigma": -1.0},
        {"feature": "absret", "kind": "gaussian"},
        {"feature": "identity", "kind": "linear"},
        {"feature": "absret", "kind": "polynomial", "degree": 0},
        {"feature": "identity", "kind": "gaussian", "sigma_scale": 1.0},
        {"feature": "identity", "kind": "polynomial"},
        {"feature": "text", "kind": "identity"},
        {"feature": "text", "kind": "linear", "sigma": np.nan},
        {"feature": "text", "kind": "linear", "sigma_scale": np.inf},
        {"feature": "absret", "kind": "gaussian", "sigma": 0.5, "sigma_scale": np.nan},
    ])
    def test_rejected_at_construction(self, params):
        with pytest.raises(bt.BacktestError):
            bt.PlanKernel(name="k", **params)

    def test_polynomial_degree_defaults_to_two(self):
        pk = bt.PlanKernel(name="k", feature="absret", kind="polynomial")
        assert pk.spec(None).degree == bt.DEFAULT_DEGREE == 2
        assert bt.PlanKernel(name="k", feature="absret", kind="polynomial", degree=3).spec(None).degree == 3

    @settings(max_examples=300, deadline=None)
    @given(feature=st.sampled_from(tuple(bt.FEATURES)),
           kind=st.sampled_from(KERNEL_KINDS + ("bogus",)),
           sigma=st.sampled_from([None, -1.0, 0.0, 0.5, np.nan, np.inf]),
           sigma_scale=st.sampled_from([None, -2.0, 0.0, 1.0, np.nan, np.inf]),
           degree=st.sampled_from([None, -3, 0, 1, 3]))
    def test_rejects_exactly_what_no_data_builds(self, feature, kind, sigma, sigma_scale, degree):
        """Construction raises for the parameters `build_kernels` fails on
        with every data set, for a kernel that ignores the data (the
        identity kind and the identity feature apart) and for a non-finite
        `sigma` or `sigma_scale`, even where the kind reads neither; it
        accepts every other kernel that builds on data whose features all
        have nonzero rows."""
        params = {"name": "k", "feature": feature, "kind": kind, "sigma": sigma,
                  "sigma_scale": sigma_scale, "degree": degree}
        unchecked = object.__new__(bt.PlanKernel)  # the same kernel, built without its checks
        for key, value in params.items():
            object.__setattr__(unchecked, key, value)
        builds = []
        for records in KERNEL_DATA:
            try:
                bt.build_kernels([unchecked], records)
                builds.append(True)
            except KernelError:
                builds.append(False)
        ignores_data = (feature == "identity") != (kind == "identity")
        non_finite = any(v is not None and not np.isfinite(v) for v in (sigma, sigma_scale))
        try:
            bt.PlanKernel(**params)
        except bt.BacktestError:
            assert ignores_data or non_finite or not any(builds)
        else:
            assert not ignores_data and not non_finite and all(builds)


def synth_fixture(seed=7, n_events=500, n_months=14, signal=1.0):
    spec = SynthSpec(n_events=n_events, n_months=n_months, signal_strength=signal)
    return synth_generate(seed, spec)


@pytest.fixture(scope="module")
def small_run():
    docs, prices, _ = synth_fixture()
    dic = default_dictionary()
    cfg = bt.BacktestConfig(plan=[bt.PlanKernel(name="lin_text", feature="text", kind="linear")],
                            horizons=(10,), percentile=75.0, c_grid=(1000.0,))
    reports = bt.run_backtest(cfg, docs, prices, dic)
    return cfg, reports[10]


class TestRunBacktest:
    def test_planted_signal_recovered(self, small_run):
        _, report = small_run
        assert report.accuracy is not None and report.accuracy > 0.9

    def test_aggregate_confusion_equals_window_sum(self, small_run):
        _, report = small_run
        total = report.confusion.total
        assert total == sum(w["n_test"] for w in report.windows)
        assert total == report.n_predictions

    def test_kernel_weight_vectors_on_simplex(self, small_run):
        _, report = small_run
        for w in report.windows:
            s = sum(w["kernel_weights"].values())
            assert s == pytest.approx(1.0, abs=1e-10)

    def test_dropped_accounting(self):
        docs, prices, _ = synth_fixture(seed=3, n_events=300)
        dic = default_dictionary()
        cfg = bt.BacktestConfig(plan=[bt.PlanKernel(name="lin_text", feature="text", kind="linear")],
                                horizons=(250,))
        records, dropped = bt.prepare_feature_records(docs, prices, dic, cfg.labeling(250))
        assert len(records) + sum(dropped.values()) == len(docs)
        assert dropped["horizon_overflow"] > 0  # events after 11:50 cannot see 250 minutes

    def test_out_of_sample_invariant(self):
        docs, prices, _ = synth_fixture(seed=5, n_events=400)
        dic = default_dictionary()
        cfg = bt.BacktestConfig(plan=[bt.PlanKernel(name="lin_text", feature="text", kind="linear")],
                                horizons=(10,))
        records, dropped = bt.prepare_feature_records(docs, prices, dic, cfg.labeling(10))
        months = sorted({bt.month_of(r.timestamp) for r in records})
        for window in bt.build_windows(months[0], months[-1]):
            res = bt.run_window(cfg, window, 10, records)
            train_end = bt._month_key(window.train_end)
            test_records = [r for r in records if bt.month_of(r.timestamp) == window.test_month]
            for r in test_records:
                assert bt._month_key(bt.month_of(r.timestamp)) > train_end

    def test_single_kernel_equals_n1_mkl(self):
        # a 1-kernel plan must produce the same predictions whether it is
        # treated as plain SVM or as an MKL problem of size one
        docs, prices, _ = synth_fixture(seed=11, n_events=400)
        dic = default_dictionary()
        plan = [bt.PlanKernel(name="lin_text", feature="text", kind="linear")]
        cfg_a = bt.BacktestConfig(plan=plan, horizons=(10,), solver="accpm")
        cfg_b = bt.BacktestConfig(plan=plan, horizons=(10,), solver="redgrad")
        rep_a = bt.run_backtest(cfg_a, docs, prices, dic)[10]
        rep_b = bt.run_backtest(cfg_b, docs, prices, dic)[10]
        assert rep_a.accuracy == rep_b.accuracy
        assert rep_a.confusion.tp == rep_b.confusion.tp

    def test_label_shuffle_control_near_chance(self):
        docs, prices, _ = synth_fixture(seed=7, n_events=800, n_months=14)
        dic = default_dictionary()
        cfg = bt.BacktestConfig(plan=[bt.PlanKernel(name="lin_text", feature="text", kind="linear")],
                                horizons=(10,), percentile=50.0)
        records, dropped = bt.prepare_feature_records(docs, prices, dic, cfg.labeling(10))
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(records))
        rets = [records[i].signed_return for i in perm]
        shuffled = [copy.copy(r) for r in records]
        for r, v in zip(shuffled, rets):
            r.signed_return = v
        report = bt.run_horizon_on_records(cfg, 10, shuffled, dropped)
        assert abs(report.accuracy - 0.5) <= 0.06  # small-sample control

    def test_empty_horizons_rejected(self):
        with pytest.raises(bt.BacktestError):
            bt.run_backtest(bt.BacktestConfig(plan=LIN_TEXT, horizons=()), [], {}, None)

    @pytest.mark.parametrize("changes, message", [
        ({"plan": []}, "the plan has no kernels"),
        ({"solver": "bogus"}, "unknown solver 'bogus'; choose from accpm, redgrad"),
        # one name for two kernels would key both weights, and both windows.csv columns, alike
        ({"plan": [bt.PlanKernel(name="k", feature="text", kind="linear"),
                   bt.PlanKernel(name="k", feature="absret", kind="linear")]}, "plan repeats a value: k, k"),
        ({"horizons": ()}, "no horizons configured"),
    ])
    def test_unusable_config_rejected_when_made(self, changes, message):
        with pytest.raises(bt.BacktestError, match=message):
            bt.BacktestConfig(**{"plan": LIN_TEXT, **changes})


class TestDegenerateWindows:
    def test_zero_trace_kernel_skips_the_window(self):
        # a dictionary stem that no document contains: every tf-idf row is 0,
        # so the linear text Gram has zero trace and cannot be normalized
        docs, prices, _ = synth_generate(3, SynthSpec(n_events=200, n_months=13, tickers=("AAA",)))
        dic = Dictionary(stems=("zzqx",))
        plan = [bt.PlanKernel(name="lin_absret", feature="absret", kind="linear"),
                bt.PlanKernel(name="lin_text", feature="text", kind="linear")]
        cfg = bt.BacktestConfig(plan=plan, horizons=(10,), c_grid=(10.0, 100.0))
        records, dropped = bt.prepare_feature_records(docs, prices, dic, cfg.labeling(10))
        months = sorted({bt.month_of(r.timestamp) for r in records})
        window = bt.build_windows(months[0], months[-1])[0]
        with pytest.raises(bt.WindowSkipped, match="'lin_text'.*trace"):
            bt.run_window(cfg, window, 10, records)
        cfg.c_grid = (10.0,)  # no cross validation: the full-window build is the one that fails
        with pytest.raises(bt.WindowSkipped, match="'lin_text'.*trace"):
            bt.run_window(cfg, window, 10, records)
        with pytest.raises(bt.BacktestError, match="every window was skipped"):
            bt.run_horizon_on_records(cfg, 10, records, dropped)

    def test_overflowing_kernel_skips_the_window(self):
        # (x.y + 1)^2000 on the one-hot time-of-day bins overflows: the Gram's trace is inf
        docs, prices, _ = synth_generate(3, SynthSpec(n_events=200, n_months=13, tickers=("AAA",)))
        plan = [bt.PlanKernel(name="poly_tod", feature="timeofday", kind="polynomial", degree=2000)]
        cfg = bt.BacktestConfig(plan=plan, horizons=(10,), c_grid=(10.0,))
        records, _ = bt.prepare_feature_records(docs, prices, default_dictionary(), cfg.labeling(10))
        months = sorted({bt.month_of(r.timestamp) for r in records})
        window = bt.build_windows(months[0], months[-1])[0]
        with pytest.raises(bt.WindowSkipped, match="'poly_tod'.*overflow"):
            bt.run_window(cfg, window, 10, records)

    def test_report_lists_each_skipped_window_with_its_reason(self, tmp_path):
        # the zero-trace repro over 14 months, where only the last training
        # month's documents contain the stem: the first window's text Gram has
        # zero trace, the second window's does not
        docs, prices, _ = synth_generate(3, SynthSpec(n_events=200, n_months=14, tickers=("AAA",)))
        months = sorted({bt.month_of(d.timestamp) for d in docs})
        docs = [dataclasses.replace(d, text=d.text + " zzqx") if bt.month_of(d.timestamp) == months[12]
                else d for d in docs]
        plan = [bt.PlanKernel(name="lin_absret", feature="absret", kind="linear"),
                bt.PlanKernel(name="lin_text", feature="text", kind="linear")]
        cfg = bt.BacktestConfig(plan=plan, horizons=(10,), c_grid=(10.0,))
        reports = bt.run_backtest(cfg, docs, prices, Dictionary(stems=("zzqx",)))
        bt.write_report_json(tmp_path / "report.json", reports)
        horizon = json.loads((tmp_path / "report.json").read_text())["horizons"]["10"]
        assert [w["window_id"] for w in horizon["windows"]] == [f"{months[1]}..{months[12]}->{months[13]}"]
        assert horizon["n_skipped_windows"] == 1
        [skip] = horizon["skipped_windows"]
        assert skip["window_id"] == f"{months[0]}..{months[11]}->{months[12]}"
        assert "'lin_text'" in skip["reason"] and "trace" in skip["reason"]

    def test_zero_trace_kernel_names_the_kernel_outside_backtests(self):
        docs, prices, _ = synth_generate(3, SynthSpec(n_events=120, n_months=13, tickers=("AAA",)))
        labeling = market.LabelingConfig(horizon_minutes=10)
        records, _ = bt.prepare_feature_records(docs, prices, Dictionary(stems=("zzqx",)), labeling)
        with pytest.raises(KernelError, match="'lin_text'"):
            bt.build_kernels([bt.PlanKernel(name="lin_text", feature="text", kind="linear")], records)


class TestArtifacts:
    def test_window_csv_and_report_json(self, tmp_path):
        docs, prices, _ = synth_fixture(seed=2, n_events=400)
        dic = default_dictionary()
        cfg = bt.BacktestConfig(plan=[bt.PlanKernel(name="lin_text", feature="text", kind="linear")],
                                horizons=(10,))
        reports = bt.run_backtest(cfg, docs, prices, dic)
        csv_path = tmp_path / "windows.csv"
        json_path = tmp_path / "report.json"
        bt.write_window_csv(csv_path, cfg, reports)
        bt.write_report_json(json_path, reports)
        header = csv_path.read_text().splitlines()[0]
        assert header == ("window_id,horizon,n_train,n_test,accuracy,recall,sharpe,"
                          "n_kernels_active,lin_text,svm_solves,status,gap,iterations,"
                          "smo_iterations,smo_not_converged")
        payload = json.loads(json_path.read_text())
        assert "10" in payload["horizons"]
        # a horizon's keys are MetricsReport's fields, in order, and the documented layout
        keys = ["accuracy", "recall", "sharpe", "n_predictions", "n_days", "confusion",
                "mean_kernel_weights", "n_dropped", "windows_by_status", "n_skipped_windows",
                "skipped_windows", "windows"]
        assert list(payload["horizons"]["10"]) == [f.name for f in dataclasses.fields(bt.MetricsReport)]
        assert list(payload["horizons"]["10"]) == keys
        assert payload["horizons"]["10"]["confusion"] == dataclasses.asdict(reports[10].confusion)
        assert payload["horizons"]["10"]["n_predictions"] == reports[10].n_predictions
        assert payload["horizons"]["10"]["skipped_windows"] == []
        windows = payload["horizons"]["10"]["windows"]
        assert windows
        assert payload["horizons"]["10"]["windows_by_status"] == {"converged": len(windows)}
        for w in windows:  # a single-kernel plan: one SVM solve at d = [1]
            assert w["svm_solves"] == 1 and w["status"] == "converged" and w["gap"] == 0.0
            assert w["iterations"] == 1 and w["smo_not_converged"] == 0
            assert w["smo_iterations"] > 0
            assert list(w)[list(w).index("svm_solves"):list(w).index("n_kernels_active")] == list(mkl.OUTCOME)

    def test_window_that_stops_at_max_iters_says_so(self, monkeypatch, tmp_path):
        real = mkl.solve_accpm  # fit_plan looks the solver up in mkl when it runs
        monkeypatch.setattr(mkl, "solve_accpm",
                            lambda problem: real(dataclasses.replace(problem, max_iters=2)))
        docs, prices, _ = synth_fixture(seed=2, n_events=400)
        cfg = bt.BacktestConfig(plan=[bt.PlanKernel(name="lin_text", feature="text", kind="linear"),
                                      bt.PlanKernel(name="gauss_absret", feature="absret",
                                                    kind="gaussian", sigma_scale=1.0)],
                                horizons=(10,), c_grid=(10.0,), gap_tol=1e-6)
        report = bt.run_backtest(cfg, docs, prices, default_dictionary())[10]
        assert report.windows
        for w in report.windows:
            assert w["status"] == "max_iters" and w["iterations"] == 2
            assert w["gap"] > cfg.gap_tol and w["svm_solves"] >= 2
        assert report.windows_by_status == {"max_iters": len(report.windows)}
        bt.write_window_csv(tmp_path / "windows.csv", cfg, {10: report})
        with open(tmp_path / "windows.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == ["max_iters"] * len(report.windows)
        assert [row["iterations"] for row in rows] == ["2"] * len(report.windows)

    def test_every_window_csv_cell_is_its_report_json_value(self, tmp_path):
        # two horizons over the zero-trace repro below, whose first window is skipped
        docs, prices, _ = synth_generate(3, SynthSpec(n_events=200, n_months=14, tickers=("AAA",)))
        months = sorted({bt.month_of(d.timestamp) for d in docs})
        docs = [dataclasses.replace(d, text=d.text + " zzqx") if bt.month_of(d.timestamp) == months[12]
                else d for d in docs]
        plan = [bt.PlanKernel(name="lin_absret", feature="absret", kind="linear"),
                bt.PlanKernel(name="lin_text", feature="text", kind="linear")]
        cfg = bt.BacktestConfig(plan=plan, horizons=(10, 20), c_grid=(10.0,))
        reports = bt.run_backtest(cfg, docs, prices, Dictionary(stems=("zzqx",)))
        bt.write_window_csv(tmp_path / "windows.csv", cfg, reports)
        bt.write_report_json(tmp_path / "report.json", reports)
        horizons = json.loads((tmp_path / "report.json").read_text())["horizons"]
        assert [h["n_skipped_windows"] for h in horizons.values()] == [1, 1]
        windows = [w for h in sorted(horizons, key=int) for w in horizons[h]["windows"]]
        with open(tmp_path / "windows.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(windows) == 2
        assert list(rows[0]) == [*bt.WINDOW_COLUMNS, "lin_absret", "lin_text", *mkl.OUTCOME]
        for row, w in zip(rows, windows):
            for column, cell in row.items():
                value = w["kernel_weights"][column] if column in w["kernel_weights"] else w[column]
                if value is None:
                    assert cell == "", column
                else:
                    assert type(value)(cell) == value, column


class TestSharedDistances:
    """mkl13's gaussian kernels on a feature share one squared-distance
    pass, and the Grams, scales and medians are those of kernels built one
    at a time."""

    def test_one_distance_pass_per_gaussian_feature(self, monkeypatch):
        docs, prices, _ = synth_fixture(seed=4, n_events=260, n_months=14)
        cfg = bt.BacktestConfig(plan=bt.named_plan("mkl13"))
        records, _ = bt.prepare_feature_records(docs, prices, default_dictionary(), cfg.labeling(10))
        real = kernels._pairwise_sqdist
        passes = []

        def counted(X, Y):
            passes.append(X.shape[0])
            return real(X, Y)
        monkeypatch.setattr(kernels, "_pairwise_sqdist", counted)
        built = bt.build_kernels(cfg.plan, records)
        monkeypatch.undo()
        assert passes == [len(records)] * 2  # text and absret

        gaussian = 0
        for pk, spec, g in zip(cfg.plan, built.specs, built.grams):
            if pk.kind != "gaussian":
                continue
            gaussian += 1
            X = built.features[pk.feature]
            assert spec == pk.spec(triu_median_sqdist(real(X, X)))
            alone = kernels._kernel_block(spec, X, X)
            assert g.scale == 1.0 / np.trace(alone)
            np.testing.assert_array_equal(g.values, alone * g.scale)
        assert gaussian == 8


VECTOR_FEATURES = [f for f in bt.FEATURES if f != "identity"]
PLAN_KERNELS = st.one_of(
    st.builds(lambda f: bt.PlanKernel(name=f"lin_{f}", feature=f, kind="linear"),
              st.sampled_from(VECTOR_FEATURES)),
    st.builds(lambda f, p: bt.PlanKernel(name=f"poly_{f}", feature=f, kind="polynomial", degree=p),
              st.sampled_from(VECTOR_FEATURES), st.integers(1, 3)),
    st.builds(lambda f, s: bt.PlanKernel(name=f"gauss_{f}", feature=f, kind="gaussian", sigma=s),
              st.sampled_from(VECTOR_FEATURES), st.sampled_from([0.3, 2.0])),
    st.builds(lambda f, s: bt.PlanKernel(name=f"gauss_{f}", feature=f, kind="gaussian", sigma_scale=s),
              st.sampled_from(VECTOR_FEATURES), st.sampled_from(bt.DEFAULT_GAUSSIAN_SCALES)),
    st.just(bt.PlanKernel(name="identity", feature="identity", kind="identity")))


class TestPerFeatureBuild:
    """`build_kernels` builds a plan feature by feature, yet every kernel is
    the one a build of that kernel alone gives, in plan order."""

    @staticmethod
    def _tfidf_rows(tfidf, records) -> np.ndarray:
        return transform_tfidf_many(tfidf, *bt._text_counts(records))

    @settings(max_examples=60, deadline=None)
    @given(plan=st.lists(PLAN_KERNELS, min_size=1, max_size=8))
    def test_equals_kernels_built_one_at_a_time(self, plan):
        records = KERNEL_DATA[0]
        real = kernels._pairwise_sqdist
        passes = []

        def counted(X, Y):
            passes.append(X.shape[0])
            return real(X, Y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_pairwise_sqdist", counted)
            built = bt.build_kernels(plan, records)
        assert len(passes) == len({pk.feature for pk in plan if pk.kind == "gaussian"})

        text = self._tfidf_rows(fit_tfidf(bt._text_counts(records)[0]), records)
        assert len(built.specs) == len(built.grams) == len(plan)
        for pk, spec, g in zip(plan, built.specs, built.grams):
            X = bt.FEATURES[pk.feature](records, text)
            median = triu_median_sqdist(real(X, X)) if pk.kind == "gaussian" else None
            alone = kernels.gram_matrix(pk.spec(median), X)
            assert spec == pk.spec(median)
            assert g.scale == alone.scale
            np.testing.assert_array_equal(densify(g).values, alone.values)

    def test_cross_blocks_match_the_single_pair_oracle(self):
        train, test = KERNEL_DATA
        plan = bt.named_plan("mkl13")
        built = bt.build_kernels(plan, train, test)
        test_text = self._tfidf_rows(fit_tfidf(bt._text_counts(train)[0]), test)
        for k, (pk, spec, g) in enumerate(zip(plan, built.specs, built.grams)):
            block = built.block(k)
            assert block.shape == (len(test), len(train))
            if pk.kind == "identity":
                assert not block.any()
                continue
            X = built.features[pk.feature]
            T = bt.FEATURES[pk.feature](test, test_text)
            for i in range(len(test)):
                for j in range(len(train)):
                    assert block[i, j] == pytest.approx(eval_kernel(spec, X[j], T[i]) * g.scale,
                                                        rel=1e-10, abs=1e-15), (pk.name, i, j)


class TestStructuredKernels:
    """mkl13's identity and calendar kernels are stored as codes
    (`kernels.IndicatorKernel`), and its fits and predictions are those of
    the same kernels stored dense, bit for bit."""

    @pytest.fixture(scope="class")
    def window(self):
        docs, prices, _ = synth_fixture(seed=21, n_events=600, n_months=13)
        cfg = bt.BacktestConfig(plan=bt.named_plan("mkl13"), horizons=(30,))
        labeling = cfg.labeling(30)
        records, _ = bt.prepare_feature_records(docs, prices, default_dictionary(), labeling)
        months = sorted({bt.month_of(r.timestamp) for r in records})
        [window] = bt.build_windows(months[0], months[-1])
        train, test = bt.window_records(cfg, window, records)
        y = market.label_records(train, labeling, market.label_threshold(train, labeling))
        return cfg.plan, train, test, y

    @pytest.mark.parametrize("solver", list(mkl.SOLVERS))
    def test_mkl13_fit_and_predictions_equal_the_densified_kernels(self, window, solver):
        plan, train, test, y = window
        built = bt.build_kernels(plan, train, test)
        structured = [pk.name for pk, g in zip(plan, built.grams) if isinstance(g, kernels.IndicatorKernel)]
        assert structured == ["lin_timeofday", "lin_dayofweek", "identity"]
        results = []
        for plan_kernels in (built, densify_plan(built)):
            sol = bt.fit_plan(plan_kernels, y, 10.0, solver, 1e-3)
            results.append((sol, bt.predict_records(plan_kernels, sol, y)))
        (sol, preds), (dense_sol, dense_preds) = results
        for got, want in ((sol.d, dense_sol.d), (sol.model.alpha, dense_sol.model.alpha),
                          (sol.model.bias, dense_sol.model.bias), (sol.gap, dense_sol.gap),
                          (sol.objective, dense_sol.objective)):
            assert as_bytes(got) == as_bytes(want)
        assert sol.outcome() == dense_sol.outcome()
        np.testing.assert_array_equal(preds, dense_preds)

    @pytest.mark.parametrize("feature", ["timeofday", "dayofweek"])
    def test_one_kernel_fit_equals_the_dense_fit(self, window, feature):
        _, train, _, y = window
        built = bt.build_kernels([bt.PlanKernel(name=f"lin_{feature}", feature=feature, kind="linear")],
                                 train)
        [kernel] = built.grams
        assert isinstance(kernel, kernels.IndicatorKernel)
        fits = [bt.fit_plan(k, y, 1000.0, mkl.DEFAULT_SOLVER, mkl.DEFAULT_GAP_TOL)
                for k in (built, densify_plan(built))]
        (sol, dense) = fits
        assert as_bytes(sol.model.alpha) == as_bytes(dense.model.alpha)
        assert as_bytes([sol.model.bias, sol.model.objective, sol.model.kkt_violation]) == \
            as_bytes([dense.model.bias, dense.model.objective, dense.model.kkt_violation])
        assert sol.model.n_iter == dense.model.n_iter and sol.outcome() == dense.outcome()


class TestBuildMemory:
    def test_mkl13_build_holds_ten_dense_grams(self):
        # 13 kernels, of which 3 are codes; the last gaussian on each feature
        # takes over its distance matrix, so the peak is 10 n x n arrays (plus
        # the median's half of one), not 13
        n = 600
        records = _kernel_records(n, 2)
        plan = bt.named_plan("mkl13")
        bt.build_kernels(plan, records[:40])  # one-time set-up (lazy imports, caches) outside the trace
        tracemalloc.start()
        try:
            built = bt.build_kernels(plan, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(isinstance(g, kernels.GramMatrix) for g in built.grams) == 10
        features = 8 * n * 64  # a few dozen float columns per record
        assert peak <= 10.5 * 8 * n * n + features, peak / (8 * n * n)


class TestFullProductPasses:
    def test_mkl13_fit_ending_at_a_vertex_takes_two_full_passes(self, monkeypatch):
        docs, prices, _ = synth_fixture(seed=4, n_events=260, n_months=14)
        cfg = bt.BacktestConfig(plan=bt.named_plan("mkl13"), gap_tol=1e-3)
        labeling = cfg.labeling(10)
        records, _ = bt.prepare_feature_records(docs, prices, default_dictionary(), labeling)
        y = market.label_records(records, labeling, market.label_threshold(records, labeling))
        built = bt.build_kernels(cfg.plan, records)
        passes, at_last_evaluate = [], [0]
        real_products, real_evaluate = mkl._kernel_products, mkl._evaluate

        def products(problem, v):
            passes.append(v)
            return real_products(problem, v)

        def evaluate(*args):
            point = real_evaluate(*args)
            at_last_evaluate[0] = len(passes)
            return point

        monkeypatch.setattr(mkl, "_kernel_products", products)
        monkeypatch.setattr(mkl, "_evaluate", evaluate)
        sol = bt.fit_plan(built, y, 10.0, cfg.solver, cfg.gap_tol)
        assert sol.status == "converged" and sol.d.max() == 1.0
        # the cold first solve's, then the stop check's, which `_finish` reuses
        assert len(passes) == 2 and at_last_evaluate[0] == 1


class TestMixedPrediction:
    """`predict_records` sums each kernel's product with y * alpha instead of
    building the mixed block sum_k d_k B_k, and scores the test events as
    the dense mixture does: to 1e-12 on mixed weights, bit for bit on one
    kernel. No benchmark workload reaches mixed weights."""

    @pytest.fixture(scope="class")
    def window(self):
        docs, prices, _ = synth_fixture(seed=21, n_events=600, n_months=13)
        cfg = bt.BacktestConfig(plan=bt.named_plan("mkl13"), horizons=(30,))
        labeling = cfg.labeling(30)
        records, _ = bt.prepare_feature_records(docs, prices, default_dictionary(), labeling)
        months = sorted({bt.month_of(r.timestamp) for r in records})
        [window] = bt.build_windows(months[0], months[-1])
        train, test = bt.window_records(cfg, window, records)
        y = market.label_records(train, labeling, market.label_threshold(train, labeling))
        return bt.build_kernels(cfg.plan, train, test), y.astype(np.float64)

    @staticmethod
    def _predict(kernels, d, y, monkeypatch):
        """`predict_records`' labels and decision values, and the dense
        mixture's, for an SVM solved on the mixed Gram of weights `d`."""
        problem = mkl.MklProblem(kernels=kernels.grams, labels=y, C=10.0)
        model = svm.solve_dual(mkl.mix_kernels(problem, d), y, 10.0)
        solution = mkl.MklSolution(d=d, model=model, objective=0.0, gap=0.0, iterations=0,
                                   svm_solves=1, smo_iterations=0, smo_not_converged=0,
                                   status="converged")
        seen = []

        def recording(*args):
            seen.append(svm.predict_many(*args))
            return seen[-1]
        monkeypatch.setattr(bt, "predict_many", recording)
        labels = bt.predict_records(kernels, solution, y)
        dense = sum(w * kernels.block(k) for k, w in enumerate(d) if w != 0.0)
        values = dense @ (y * model.alpha) + model.bias
        return labels, seen[0][1], np.where(values >= 0.0, 1, -1), values

    def test_mixed_weights_score_as_the_dense_mixture(self, window, monkeypatch):
        kernels, y = window
        rng = np.random.default_rng(0)
        n = len(kernels.plan)
        for _ in range(8):
            d = rng.dirichlet(np.ones(n))
            d[rng.permutation(n)[:n // 2]] = 0.0
            d /= d.sum()
            labels, values, dense_labels, dense_values = self._predict(kernels, d, y, monkeypatch)
            np.testing.assert_array_equal(labels, dense_labels)
            np.testing.assert_allclose(values, dense_values, rtol=0.0, atol=1e-12)

    def test_one_kernel_scores_as_its_block_bit_for_bit(self, window, monkeypatch):
        kernels, y = window
        for k in (0, 3, len(kernels.plan) - 1):
            d = np.eye(len(kernels.plan))[k]
            labels, values, dense_labels, dense_values = self._predict(kernels, d, y, monkeypatch)
            np.testing.assert_array_equal(labels, dense_labels)
            np.testing.assert_array_equal(values, dense_values)


class TestKernelReuse:
    """Each window builds its kernels once per training set: the early
    fold once for every C candidate and horizon, the full window once for
    the final fits of every horizon."""

    PLAN = [bt.PlanKernel(name="lin_text", feature="text", kind="linear"),
            bt.PlanKernel(name="gauss_text", feature="text", kind="gaussian", sigma_scale=1.0),
            bt.PlanKernel(name="gauss_text_wide", feature="text", kind="gaussian", sigma_scale=4.0),
            bt.PlanKernel(name="lin_absret", feature="absret", kind="linear"),
            bt.PlanKernel(name="gauss_absret", feature="absret", kind="gaussian", sigma_scale=1.0)]

    @pytest.fixture(scope="class")
    def traced(self):
        docs, prices, _ = synth_fixture(seed=4, n_events=260, n_months=14)
        dic = default_dictionary()
        cfg = bt.BacktestConfig(plan=self.PLAN, horizons=(10, 30), c_grid=(0.1, 10.0, 1000.0))
        kept = set()
        for h in cfg.horizons:
            records, _ = bt.prepare_feature_records(docs, prices, dic, cfg.labeling(h))
            kept |= {r.doc_id for r in records}
        calls = {"structured_gram": 0, "_gaussian_gram_in_place": 0, "median_sqdist": 0, "bag_of_words": 0}
        cv_runs = []
        mp = pytest.MonkeyPatch()

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            mp.setattr(module, name, wrapper)

        counted(bt, "structured_gram")
        counted(bt, "_gaussian_gram_in_place")
        counted(bt, "median_sqdist")
        counted(market, "bag_of_words")
        real_cv = bt.chrono_cv

        def recording_cv(train_records, y_train, c_grid, evaluate):
            preds = []

            def recorded(early, y_early, fold, C):
                out = evaluate(early, y_early, fold, C)
                preds.append(out)
                return out
            chosen = real_cv(train_records, y_train, c_grid, recorded)
            cv_runs.append((train_records, y_train, c_grid, preds, chosen))
            return chosen

        mp.setattr(bt, "chrono_cv", recording_cv)
        try:
            reports = bt.run_backtest(cfg, docs, prices, dic)
        finally:
            mp.undo()
        return cfg, reports, calls, cv_runs, len(kept)

    def test_kernels_built_once_per_training_set(self, traced):
        cfg, reports, calls, cv_runs, _ = traced
        windows = sum(len(r.windows) for r in reports.values())
        assert windows == 4 and all(r.n_skipped_windows == 0 for r in reports.values())
        assert len(cv_runs) == windows
        # synthetic events end by 15:30, so both horizons keep the same events
        # and a window's training sets are the same at both
        train_sets = {tuple(r.position for r in run[0]) for run in cv_runs}
        assert len(train_sets) == windows // 2
        # two training sets per window (early fold, full window); per set one
        # Gram per plan kernel and one bandwidth per gaussian feature (text, absret),
        # whose last gaussian Gram is mapped in its distance matrix
        grams = calls["structured_gram"] + calls["_gaussian_gram_in_place"]
        assert grams == len(train_sets) * 2 * len(self.PLAN)
        assert calls["median_sqdist"] == calls["_gaussian_gram_in_place"] == len(train_sets) * 2 * 2

    def test_documents_tokenized_once_per_run(self, traced):
        _, _, calls, _, n_kept = traced
        assert calls["bag_of_words"] == n_kept

    def test_cv_matches_fresh_fits(self, traced):
        cfg, _, _, cv_runs, _ = traced

        def fresh_fit(early, y_early, fold, C):
            kernels = bt.build_kernels(cfg.plan, early, fold)
            solution = bt.fit_plan(kernels, y_early, C, cfg.solver, cfg.gap_tol)
            return bt.predict_records(kernels, solution, y_early)

        for train_records, y_train, c_grid, preds, chosen in cv_runs:
            fresh_preds = []

            def recorded(early, y_early, fold, C):
                fresh_preds.append(fresh_fit(early, y_early, fold, C))
                return fresh_preds[-1]
            assert bt.chrono_cv(train_records, y_train, c_grid, recorded) == chosen
            assert len(preds) == len(c_grid)
            for a, b in zip(preds, fresh_preds):
                np.testing.assert_array_equal(a, b)


LIN_TEXT = [bt.PlanKernel(name="lin_text", feature="text", kind="linear")]


def _counting_builds(monkeypatch) -> list:
    """Record the training-set positions of every `build_kernels` call."""
    builds = []
    real = bt.build_kernels

    def counted(plan, train_records, test_records=()):
        builds.append(tuple(r.position for r in train_records))
        return real(plan, train_records, test_records)
    monkeypatch.setattr(bt, "build_kernels", counted)
    return builds


class TestWindowMajorSweep:
    """One window's horizons share its kernels wherever their events agree."""

    def test_sweep_equals_each_horizon_alone(self, monkeypatch):
        # synthetic events run 10:10-15:30: h=10 and h=20 keep the same events,
        # h=250 drops every event after 11:50 and must build its own kernels
        docs, prices, _ = synth_fixture(seed=3, n_events=300)
        dic = default_dictionary()
        cfg = bt.BacktestConfig(plan=LIN_TEXT, horizons=(10, 20, 250), c_grid=(10.0, 1000.0))
        extracted = market.prepare_records_by_horizon(docs, prices, dic, cfg.horizons, cfg.label_kind)
        assert extracted[250][1]["horizon_overflow"] > 0
        alone = {h: bt.run_horizon_on_records(cfg, h, *extracted[h]) for h in cfg.horizons}
        builds = _counting_builds(monkeypatch)
        swept = bt.run_backtest(cfg, docs, prices, dic)
        assert sorted(swept) == sorted(alone)
        for h in cfg.horizons:
            assert swept[h].n_skipped_windows == 0
            assert json.dumps(dataclasses.asdict(swept[h])) == json.dumps(dataclasses.asdict(alone[h]))
        n_windows = len(swept[10].windows)
        assert len(builds) == len(set(builds)) == 2 * 2 * n_windows  # h=10/20 shared, h=250 own

    @pytest.mark.parametrize("spec,keep,skipped,alone_error", [
        # h=250 keeps 15 of 40 events, too few to train its one window
        (SynthSpec(n_events=40, n_months=13, tickers=("AAA",)), None,
         [{"window_id": "2004-01..2004-12->2005-01", "reason": "only 12 training events"}],
         "every window was skipped"),
        # every event is after 11:50, so h=250 runs past the close for all of them
        (SynthSpec(n_events=300, n_months=13, tickers=("AAA",), event_start=time(12, 0)), None, [],
         "no usable events"),
        # from 2004-06 on only documents after 12:00 remain, and h=250 drops those,
        # so h=250 keeps the events of 5 months while h=10 keeps all 13
        (SynthSpec(n_events=300, n_months=13, tickers=("AAA",)),
         lambda d: bt.month_of(d.timestamp) < "2004-06" or d.timestamp.time() >= time(12, 0), [],
         "span of 5 months is too short"),
    ], ids=["too_few_events", "no_events", "too_short_span"])
    def test_a_horizon_with_nothing_to_evaluate_reports_no_predictions(self, tmp_path, spec, keep,
                                                                        skipped, alone_error):
        docs, prices, _ = synth_generate(3, spec)
        docs = [d for d in docs if keep is None or keep(d)]
        cfg = bt.BacktestConfig(plan=LIN_TEXT, horizons=(10, 250), c_grid=(1000.0,))
        extracted = market.prepare_records_by_horizon(docs, prices, default_dictionary(),
                                                       cfg.horizons, cfg.label_kind)
        with pytest.raises(bt.BacktestError, match=alone_error):  # alone, h=250 fails the run
            bt.run_horizon_on_records(cfg, 250, *extracted[250])
        reports = bt.run_sweep(cfg, extracted)
        alone = bt.run_horizon_on_records(cfg, 10, *extracted[10])
        assert json.dumps(dataclasses.asdict(reports[10])) == json.dumps(dataclasses.asdict(alone))
        assert dataclasses.asdict(reports[250]) == {
            "accuracy": None, "recall": None, "sharpe": None, "n_predictions": 0, "n_days": 0,
            "confusion": {"tp": 0, "tn": 0, "fp": 0, "fn": 0}, "mean_kernel_weights": {},
            "n_dropped": extracted[250][1], "windows_by_status": {}, "n_skipped_windows": len(skipped),
            "skipped_windows": skipped, "windows": []}
        bt.write_window_csv(tmp_path / "windows.csv", cfg, reports)
        with open(tmp_path / "windows.csv", encoding="utf-8") as fh:
            assert [row["horizon"] for row in csv.DictReader(fh)] == ["10"] * len(alone.windows)

    def test_identical_events_build_each_window_once(self, monkeypatch):
        docs, prices, _ = synth_fixture(seed=5, n_events=250)
        cfg = bt.BacktestConfig(plan=LIN_TEXT, horizons=(10, 20, 30), c_grid=(10.0, 100.0))
        builds = _counting_builds(monkeypatch)
        reports = bt.run_backtest(cfg, docs, prices, default_dictionary())
        n_windows = len(reports[10].windows)
        assert n_windows == 2 and all(len(r.windows) == n_windows for r in reports.values())
        assert len(builds) == 2 * n_windows  # early fold and full window, not 6 x n_windows

    def test_documents_sharing_an_id_stay_two_events(self):
        docs, prices, _ = synth_fixture(seed=5, n_events=250, n_months=13)
        first_month = bt.month_of(docs[0].timestamp)  # synthetic documents come in time order
        j, k = [i for i, d in enumerate(docs) if bt.month_of(d.timestamp) == first_month][:2]
        docs[k] = dataclasses.replace(docs[k], id=docs[j].id)
        assert docs[j].text != docs[k].text
        cfg = bt.BacktestConfig(plan=LIN_TEXT, horizons=(10,), c_grid=(10.0,))
        records, _ = bt.prepare_feature_records(docs, prices, default_dictionary(), cfg.labeling(10))
        rj, rk = (next(r for r in records if r.position == i) for i in (j, k))
        with_j = [r for r in records if r is not rk]
        with_k = [rk if r is rj else r for r in with_j]  # the same ids in the same order
        assert [r.doc_id for r in with_j] == [r.doc_id for r in with_k]
        [window] = bt.build_windows(first_month, bt.month_of(docs[-1].timestamp))
        shared: dict = {}
        bt.run_window(cfg, window, 10, with_j, shared)
        got = bt.run_window(cfg, window, 10, with_k, shared)
        assert len(shared) == 2
        fresh = bt.run_window(cfg, window, 10, with_k)
        np.testing.assert_array_equal(got.predictions, fresh.predictions)
        assert got.row == fresh.row

    @pytest.mark.parametrize("horizons,early_alive", [((10,), False), ((10, 20), True)])
    def test_early_fold_lives_only_while_another_horizon_may_read_it(self, monkeypatch, horizons,
                                                                       early_alive):
        docs, prices, _ = synth_fixture(seed=5, n_events=250, n_months=13)
        cfg = bt.BacktestConfig(plan=LIN_TEXT, horizons=horizons, c_grid=(10.0, 100.0))
        built, alive_at_full_fit = [], []
        real_build, real_fit = bt.build_kernels, bt.fit_plan

        def build(plan, train_records, test_records=()):
            kernels = real_build(plan, train_records, test_records)
            built.append(weakref.ref(kernels))
            return kernels

        def fit(kernels, *args):
            if len(built) == 2 and kernels is built[1]():  # the one window's full-window fit
                gc.collect()
                alive_at_full_fit.append(built[0]() is not None)
            return real_fit(kernels, *args)
        monkeypatch.setattr(bt, "build_kernels", build)
        monkeypatch.setattr(bt, "fit_plan", fit)
        bt.run_backtest(cfg, docs, prices, default_dictionary())
        assert alive_at_full_fit == [early_alive] * len(horizons)

    def test_window_kernels_are_freed_before_their_memory_is_released(self, monkeypatch):
        # the first window's h=20 is skipped by a frame that holds the window's
        # shared dict, as run_window's own frame does when it raises WindowSkipped
        docs, prices, _ = synth_fixture(seed=5, n_events=250)
        cfg = bt.BacktestConfig(plan=LIN_TEXT, horizons=(10, 20), c_grid=(10.0,))
        built, alive_at_release, building = [], [], []
        real_build, real_run = bt.build_kernels, bt.run_window

        def build(plan, train_records, test_records=()):
            building.append("building")
            kernels = real_build(plan, train_records, test_records)
            assert building.pop() == "released"
            built.append(weakref.ref(kernels))
            return kernels

        def run(cfg, window, horizon, records, shared=None):
            if horizon == 20 and not alive_at_release:
                raise bt.WindowSkipped("skipped after h=10 shared its kernels")
            return real_run(cfg, window, horizon, records, shared)

        def release():
            if building:  # the build's own release, before its fit
                building[-1] = "released"
            else:
                alive_at_release.append(sum(ref() is not None for ref in built))
        monkeypatch.setattr(bt, "build_kernels", build)
        monkeypatch.setattr(bt, "run_window", run)
        monkeypatch.setattr(bt, "release_freed_memory", release)
        reports = bt.run_backtest(cfg, docs, prices, default_dictionary())
        assert reports[20].n_skipped_windows == 1
        assert len(alive_at_release) == len(reports[10].windows) == 2
        assert built and alive_at_release == [0, 0]

    def test_release_freed_memory_runs_where_malloc_trim_is_missing(self, monkeypatch):
        kernels.release_freed_memory()
        monkeypatch.setattr(kernels, "_malloc_trim", None)
        kernels.release_freed_memory()
