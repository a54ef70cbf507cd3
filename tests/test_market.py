from datetime import datetime, time, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nearest_rank

from newsmkl.market import (DROP_REASONS, EventDropped, LabelingConfig, MarketError,
                            PriceSeries, SynthSpec, abnormal_threshold,
                            calendar_features, future_return, label_records,
                            prepare_feature_records, price_at, return_features,
                            synth_generate, trading_days)
from newsmkl.text import Document, parse_dictionary

UTC = timezone.utc


def dt(h, m, day=5, month=1, year=2004):
    return datetime(year, month, day, h, m, tzinfo=UTC)  # 2004-01-05 is a Monday


def minute_series(start, prices):
    t0 = int(start.timestamp())
    return PriceSeries(ticker="T", times=t0 + 60 * np.arange(len(prices)),
                       prices=np.asarray(prices, dtype=float))


class TestPriceAt:
    def test_previous_tick(self):
        s = minute_series(dt(10, 0), [100.0])
        assert price_at(s, dt(10, 5)) == 100.0

    def test_before_first_point_errors(self):
        s = minute_series(dt(10, 0), [100.0])
        with pytest.raises(MarketError):
            price_at(s, dt(9, 59))

    def test_at_or_before_includes_equality(self):
        t0 = dt(10, 0)
        s = PriceSeries(ticker="T", times=[int(t0.timestamp()), int(t0.timestamp()) + 240],
                        prices=[100.0, 101.0])
        assert price_at(s, dt(10, 4)) == 101.0

    def test_series_validation(self):
        with pytest.raises(MarketError):
            PriceSeries(ticker="T", times=[2, 1], prices=[1.0, 1.0])
        with pytest.raises(MarketError):
            PriceSeries(ticker="T", times=[1, 2], prices=[1.0, -1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(MarketError):
                PriceSeries(ticker="T", times=[1, 2], prices=[1.0, bad])


class TestReturnFeatures:
    def test_constant_prices_give_zeros(self):
        s = minute_series(dt(9, 30), [100.0] * 120)
        np.testing.assert_array_equal(return_features(s, dt(10, 30)), np.zeros(5))

    def test_step_price_formula(self):
        # price 100 strictly before t-15, 110 at and after: r_0 = 10%
        t = dt(10, 30)
        prices = [100.0] * 45 + [110.0] * 16  # step exactly at t-15
        s = minute_series(dt(9, 45), prices)
        r = return_features(s, t)
        assert r[0] == pytest.approx(0.10)

    def test_insufficient_history_drops_event(self):
        s = minute_series(dt(10, 0), [100.0] * 30)
        with pytest.raises(EventDropped) as exc:
            return_features(s, dt(10, 30))
        assert exc.value.reason == "insufficient_history"

    def test_matches_naive_recompute_on_random_walk(self):
        rng = np.random.default_rng(0)
        prices = 100.0 * np.exp(np.cumsum(0.001 * rng.standard_normal(100)))
        start = dt(9, 30)
        s = minute_series(start, prices)
        t = dt(10, 45)
        mine = return_features(s, t)
        for k in range(5):
            p_now = price_at(s, int(t.timestamp()) - 300 * k)
            p_lag = price_at(s, int(t.timestamp()) - 300 * k - 900)
            assert mine[k] == (p_now - p_lag) / p_lag

    def test_absolute_option(self):
        rng = np.random.default_rng(1)
        prices = 100.0 * np.exp(np.cumsum(0.002 * rng.standard_normal(100)))
        s = minute_series(dt(9, 30), prices)
        np.testing.assert_array_equal(return_features(s, dt(10, 45), absolute=True),
                                      np.abs(return_features(s, dt(10, 45))))


class TestAbnormalThreshold:
    def test_one_to_hundred_p75(self):
        assert abnormal_threshold(list(range(1, 101)), 75.0) == 75.0

    def test_single_element(self):
        for p in (1.0, 50.0, 99.0):
            assert abnormal_threshold([3.25], p) == 3.25

    def test_matches_nearest_rank_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            vals = rng.standard_normal(int(rng.integers(1, 50))).tolist()
            p = float(rng.uniform(1, 99))
            assert abnormal_threshold(vals, p) == nearest_rank(vals, p)

    def test_monotone_in_percentile(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(200)
        ps = np.linspace(5, 95, 19)
        ts = [abnormal_threshold(vals, p) for p in ps]
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_empty_rejected(self):
        with pytest.raises(MarketError):
            abnormal_threshold([], 50.0)


class TestCalendarFeatures:
    def test_before_1030(self):
        tod, _ = calendar_features(dt(9, 45))
        np.testing.assert_array_equal(tod, [1, 0, 0])

    def test_midday(self):
        tod, _ = calendar_features(dt(12, 0))
        np.testing.assert_array_equal(tod, [0, 1, 0])

    def test_after_1500(self):
        tod, _ = calendar_features(dt(15, 30))
        np.testing.assert_array_equal(tod, [0, 0, 1])

    def test_boundaries_fall_in_between(self):
        for hh, mm in ((10, 30), (15, 0)):
            tod, _ = calendar_features(dt(hh, mm))
            np.testing.assert_array_equal(tod, [0, 1, 0])

    def test_day_of_week_one_hot(self):
        _, dow = calendar_features(dt(12, 0, day=7))  # Wednesday
        np.testing.assert_array_equal(dow, [0, 0, 1, 0, 0])

    def test_weekend_rejected(self):
        with pytest.raises(MarketError):
            calendar_features(dt(12, 0, day=3))  # 2004-01-03 is a Saturday


DICTIONARY = parse_dictionary("hello\n")


def extract(series, doc, cfg):
    """The single extraction path on one document: (records, drop tally)."""
    return prepare_feature_records([doc], {series.ticker: series}, DICTIONARY, cfg)


def label_one(series, doc, cfg, threshold):
    records, _ = extract(series, doc, cfg)
    assert len(records) == 1
    return records[0], int(label_records(records, cfg, threshold)[0])


class TestLabelEvent:
    def _series_with_jump(self, jump_at_minute=45, jump=0.05):
        prices = [100.0] * 391
        for i in range(jump_at_minute, 391):
            prices[i] = 100.0 * (1 + jump)
        return minute_series(dt(9, 30), prices)

    def _doc(self, h, m):
        return Document(id="e1", timestamp=dt(h, m), ticker="T", text="hello")

    def _dropped_reason(self, series, doc, cfg):
        records, dropped = extract(series, doc, cfg)
        assert records == []
        return [r for r, n in dropped.items() if n]

    def test_planted_jump_labeled_abnormal(self):
        s = self._series_with_jump()
        cfg = LabelingConfig(horizon_minutes=10)
        rec, label = label_one(s, self._doc(10, 11), cfg, threshold=0.01)
        assert label == 1
        assert rec.abs_return == pytest.approx(0.05)

    def test_return_exactly_at_threshold_is_negative(self):
        s = self._series_with_jump(jump=0.05)
        cfg = LabelingConfig(horizon_minutes=10)
        _, label = label_one(s, self._doc(10, 11), cfg, threshold=0.05)
        assert label == -1  # strict inequality

    def test_horizon_overflow_dropped(self):
        s = self._series_with_jump()
        cfg = LabelingConfig(horizon_minutes=70)
        assert self._dropped_reason(s, self._doc(15, 0), cfg) == ["horizon_overflow"]

    def test_before_min_event_time_dropped(self):
        s = self._series_with_jump()
        cfg = LabelingConfig(horizon_minutes=10)
        assert self._dropped_reason(s, self._doc(10, 5), cfg) == ["before_min_event_time"]

    def test_direction_tie_rule_and_negation(self):
        rng = np.random.default_rng(4)
        prices = 100.0 * np.exp(np.cumsum(0.002 * rng.standard_normal(391)))
        s = minute_series(dt(9, 30), prices)
        cfg = LabelingConfig(horizon_minutes=20, label_kind="direction")
        _, label = label_one(s, self._doc(11, 0), cfg, threshold=0.0)
        r = future_return(s, dt(11, 0), 20)
        assert label == (1 if r > 0 else -1)
        # negated prices negate every non-tie label
        s_neg = minute_series(dt(9, 30), 1.0 / np.asarray(prices))
        _, label_neg = label_one(s_neg, self._doc(11, 0), cfg, threshold=0.0)
        if r != 0:
            assert label_neg == -label
        # a zero return labels -1
        flat = minute_series(dt(9, 30), [100.0] * 391)
        assert label_one(flat, self._doc(11, 0), cfg, threshold=0.0)[1] == -1

    def test_config_validation(self):
        with pytest.raises(MarketError):
            LabelingConfig(horizon_minutes=15)  # not a multiple of 10
        with pytest.raises(MarketError):
            LabelingConfig(horizon_minutes=10, percentile=99.0)
        with pytest.raises(MarketError):
            LabelingConfig(horizon_minutes=10, label_kind="both")


WEEK_START = dt(0, 0)  # Monday 2004-01-05; days 5 and 6 are the weekend


def _week_of_minute_prices():
    days = [WEEK_START + timedelta(days=d, hours=9, minutes=30) for d in range(5)]
    times = np.concatenate([int(d.timestamp()) + 60 * np.arange(391) for d in days])
    rng = np.random.default_rng(0)
    return PriceSeries(ticker="T", times=times,
                       prices=100.0 * np.exp(np.cumsum(0.001 * rng.standard_normal(times.size))))


WEEK_PRICES = {"T": _week_of_minute_prices()}

documents = st.lists(st.builds(
    lambda day, minute, ticker: Document(id="d", ticker=ticker, text="hello",
                                         timestamp=WEEK_START + timedelta(days=day, minutes=minute)),
    st.integers(0, 6), st.integers(0, 24 * 60 - 1), st.sampled_from(["T", "UNKNOWN"])), max_size=25)


@settings(max_examples=60, deadline=None)
@given(docs=documents, horizon=st.sampled_from([10, 60, 250]),
       label_kind=st.sampled_from(["abnormal", "direction"]),
       min_event_time=st.sampled_from([time(9, 30), time(10, 10), time(12, 0)]))
def test_extraction_accounts_for_every_document(docs, horizon, label_kind, min_event_time):
    cfg = LabelingConfig(horizon_minutes=horizon, label_kind=label_kind, min_event_time=min_event_time)
    records, dropped = prepare_feature_records(docs, WEEK_PRICES, DICTIONARY, cfg)
    assert len(records) + sum(dropped.values()) == len(docs)
    assert set(dropped) <= set(DROP_REASONS)
    for r in records:
        clock = r.timestamp.timetz().replace(tzinfo=None)
        end = r.timestamp + timedelta(minutes=horizon)
        assert r.timestamp.weekday() < 5
        assert clock >= min_event_time
        assert end.date() == r.timestamp.date() and end.timetz().replace(tzinfo=None) <= time(16, 0)


class TestSynth:
    def test_deterministic_given_seed(self):
        spec = SynthSpec(n_events=60, n_months=2, tickers=("AA", "BB"))
        docs1, prices1, truth1 = synth_generate(9, spec)
        docs2, prices2, truth2 = synth_generate(9, spec)
        assert [d.text for d in docs1] == [d.text for d in docs2]
        for tk in prices1:
            np.testing.assert_array_equal(prices1[tk].prices, prices2[tk].prices)
        assert [(t.doc_id, t.jump, t.jump_return) for t in truth1] == \
               [(t.doc_id, t.jump, t.jump_return) for t in truth2]

    def test_signal_one_every_keyword_doc_jumps(self):
        spec = SynthSpec(n_events=120, n_months=2, signal_strength=1.0, surprise_rate=0.0)
        docs, prices, truth = synth_generate(3, spec)
        for t in truth:
            assert t.jump == t.has_keyword

    def test_planted_jump_visible_in_prices(self):
        spec = SynthSpec(n_events=40, n_months=2, signal_strength=1.0, surprise_rate=0.0,
                         base_vol_per_min=1e-5)
        docs, prices, truth = synth_generate(5, spec)
        by_id = {t.doc_id: t for t in truth}
        for doc in docs:
            t = by_id[doc.id]
            r = future_return(prices[doc.ticker], doc.timestamp, 10)
            if t.jump:
                assert abs(r) > 0.02
            else:
                assert abs(r) < 0.01

    def test_keyword_appears_in_text(self):
        spec = SynthSpec(n_events=50, n_months=2, signal_strength=1.0)
        docs, _, truth = synth_generate(6, spec)
        by_id = {t.doc_id: t for t in truth}
        for doc in docs:
            assert (spec.signal_word in doc.text) == by_id[doc.id].has_keyword

    def test_trading_days_are_weekdays(self):
        days = trading_days("2004-01", 2)
        assert all(d.weekday() < 5 for d in days)
        assert len(days) == 42  # 22 weekdays in Jan 2004 + 20 in Feb 2004

    def test_events_within_trading_window(self):
        spec = SynthSpec(n_events=50, n_months=2)
        docs, _, _ = synth_generate(8, spec)
        for d in docs:
            clock = d.timestamp.timetz().replace(tzinfo=None)
            assert time(10, 10) <= clock <= time(15, 30)
