import re
import tempfile
from datetime import datetime, time, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_feature_records, nearest_rank

import newsmkl.market as market
from newsmkl.market import (DROP_REASONS, LabelingConfig, MarketError,
                            PriceSeries, SynthSpec, _price_rows, abnormal_threshold,
                            calendar_features, future_return, label_records,
                            prepare_feature_records, prepare_records_by_horizon,
                            read_prices, return_features,
                            synth_generate, trading_days, write_prices)
from newsmkl.text import Document, parse_dictionary

UTC = timezone.utc


def dt(h, m, day=5, month=1, year=2004):
    return datetime(year, month, day, h, m, tzinfo=UTC)  # 2004-01-05 is a Monday


def epochs(*times):
    return np.array([int(t.timestamp()) for t in times], dtype=np.int64)


def minute_series(start, prices):
    t0 = int(start.timestamp())
    return PriceSeries(ticker="T", times=t0 + 60 * np.arange(len(prices)),
                       prices=np.asarray(prices, dtype=float))


class TestPriceAt:
    """Previous-tick sampling, seen through the horizon returns."""

    def test_previous_tick(self):
        # a price at 10:00 only: 10:05 and 10:15 both sample it
        s = minute_series(dt(10, 0), [100.0])
        np.testing.assert_array_equal(future_return(s, epochs(dt(10, 5)), [10]), [[0.0]])

    def test_before_first_point_errors(self):
        s = minute_series(dt(10, 0), [100.0])
        with pytest.raises(MarketError):
            future_return(s, epochs(dt(9, 59)), [10])

    def test_at_or_before_includes_equality(self):
        t0 = dt(10, 0)
        s = PriceSeries(ticker="T", times=[int(t0.timestamp()), int(t0.timestamp()) + 240],
                        prices=[100.0, 101.0])
        # 10:02 samples 100 (10:00), 10:04 samples the tick at 10:04 itself
        np.testing.assert_array_equal(future_return(s, epochs(dt(10, 2), dt(10, 0)), [1, 2, 4]),
                                      [[0.0, (101.0 - 100.0) / 100.0, (101.0 - 100.0) / 100.0],
                                       [0.0, 0.0, (101.0 - 100.0) / 100.0]])

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
        np.testing.assert_array_equal(return_features(s, epochs(dt(10, 30), dt(11, 0))),
                                      np.zeros((2, 5)))

    def test_step_price_formula(self):
        # price 100 strictly before t-15, 110 at and after: r_0 = 10%
        t = dt(10, 30)
        prices = [100.0] * 45 + [110.0] * 16  # step exactly at t-15
        s = minute_series(dt(9, 45), prices)
        r = return_features(s, epochs(t))
        assert r.shape == (1, 5)
        assert r[0, 0] == pytest.approx(0.10)

    def test_insufficient_history_drops_event(self):
        # prices from 10:00: an event at 10:30 lacks the 35 minutes of history
        s = minute_series(dt(10, 0), [100.0] * 30)
        doc = Document(id="e", ticker="T", text="hello", timestamp=dt(10, 30))
        records, dropped = prepare_feature_records([doc], {"T": s}, DICTIONARY,
                                                   LabelingConfig(horizon_minutes=10))
        assert records == []
        assert {k: v for k, v in dropped.items() if v} == {"insufficient_history": 1}

    def test_matches_naive_recompute_on_random_walk(self):
        rng = np.random.default_rng(0)
        prices = 100.0 * np.exp(np.cumsum(0.001 * rng.standard_normal(100)))
        s = minute_series(dt(9, 30), prices)
        times = [dt(10, 45), dt(10, 5), dt(10, 52)]
        mine = return_features(s, epochs(*times))
        for row, t in zip(mine, times):
            offset = (t - dt(9, 30)) // timedelta(minutes=1)  # minute index of t in the series
            for k in range(5):
                p_now, p_lag = prices[offset - 5 * k], prices[offset - 5 * k - 15]
                assert row[k] == (p_now - p_lag) / p_lag

    def test_absolute_option(self):
        rng = np.random.default_rng(1)
        prices = 100.0 * np.exp(np.cumsum(0.002 * rng.standard_normal(100)))
        s = minute_series(dt(9, 30), prices)
        et = epochs(dt(10, 45), dt(10, 50))
        np.testing.assert_array_equal(return_features(s, et, absolute=True),
                                      np.abs(return_features(s, et)))


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
        r = future_return(s, epochs(dt(11, 0)), [20])[0, 0]
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


def _late_start_prices():
    """Minute prices of ticker L from 15:20 on the first day: events before
    15:55 that day lack history."""
    start = int((WEEK_START + timedelta(hours=15, minutes=20)).timestamp())
    times = start + 60 * np.arange(41 + 4 * 24 * 60)
    return PriceSeries(ticker="L", times=times, prices=100.0 + 0.01 * np.arange(times.size))


TWO_TICKERS = {**WEEK_PRICES, "L": _late_start_prices()}

# ticker L's first day has events (15:20-15:55) that lack history at every horizon
documents = st.lists(st.builds(
    lambda day, minute, ticker: Document(id="d", ticker=ticker, text="hello",
                                         timestamp=WEEK_START + timedelta(days=day, minutes=minute)),
    st.integers(0, 6), st.integers(0, 24 * 60 - 1) | st.integers(15 * 60, 16 * 60),
    st.sampled_from(["T", "L", "UNKNOWN"])), max_size=25)


def test_every_drop_reason_is_reachable():
    """Each drop reason, one document each."""
    day = [("T", 5, 11 * 60), ("T", 0, 8 * 60), ("T", 0, 10 * 60 + 9), ("T", 0, 15 * 60 + 55),
           ("L", 0, 15 * 60 + 30), ("UNKNOWN", 0, 11 * 60), ("T", 0, 10 * 60 + 10)]
    docs = [Document(id=f"d{i}", ticker=tk, text="hello", timestamp=WEEK_START + timedelta(days=d, minutes=m))
            for i, (tk, d, m) in enumerate(day)]
    records, dropped = prepare_feature_records(docs, TWO_TICKERS, DICTIONARY,
                                               LabelingConfig(horizon_minutes=10))
    assert [r.doc_id for r in records] == ["d6"]  # 10:10 is the earliest event kept
    assert [k for k, v in dropped.items() if v] == list(DROP_REASONS)


@settings(max_examples=60, deadline=None)
@given(docs=documents, horizon=st.sampled_from([10, 60, 250]),
       label_kind=st.sampled_from(["abnormal", "direction"]))
def test_extraction_accounts_for_every_document(docs, horizon, label_kind):
    cfg = LabelingConfig(horizon_minutes=horizon, label_kind=label_kind)
    records, dropped = prepare_feature_records(docs, TWO_TICKERS, DICTIONARY, cfg)
    assert len(records) + sum(dropped.values()) == len(docs)
    assert set(dropped) <= set(DROP_REASONS)
    for r in records:
        clock = r.timestamp.timetz().replace(tzinfo=None)
        end = r.timestamp + timedelta(minutes=horizon)
        assert r.timestamp.weekday() < 5
        assert clock >= time(10, 10)
        assert end.date() == r.timestamp.date() and end.timetz().replace(tzinfo=None) <= time(16, 0)


HORIZONS = (10, 30, 60, 250)


@settings(max_examples=60, deadline=None)
@given(docs=st.lists(st.builds(
           lambda day, minute, ticker, text: Document(
               id="d", ticker=ticker, text=text, timestamp=WEEK_START + timedelta(days=day, minutes=minute)),
           st.integers(0, 6), st.integers(0, 24 * 60 - 1) | st.integers(15 * 60, 16 * 60),
           st.sampled_from(["T", "L", "UNKNOWN"]),
           st.sampled_from(["hello", "hello hello world", "world"])), max_size=25),
       label_kind=st.sampled_from(["abnormal", "direction"]))
def test_horizons_extracted_together_match_each_alone(docs, label_kind):
    together = prepare_records_by_horizon(docs, TWO_TICKERS, DICTIONARY, HORIZONS, label_kind)
    assert list(together) == list(HORIZONS)
    for h, (records, dropped) in together.items():
        config = LabelingConfig(horizon_minutes=h, label_kind=label_kind)
        kept, naive_dropped = naive_feature_records(docs, TWO_TICKERS, DICTIONARY, config)
        assert dropped == naive_dropped
        assert [{"doc_id": r.doc_id, "ticker": r.ticker, "timestamp": r.timestamp, "position": r.position,
                 "text_counts": r.text_counts.tolist(), "token_count": r.token_count,
                 "return_features": r.return_features.tolist(), "time_of_day": r.time_of_day.tolist(),
                 "day_of_week": r.day_of_week.tolist(), "signed_return": r.signed_return}
                for r in records] == kept


class TestExtractionOrder:
    def test_overflow_wins_over_missing_history_at_the_horizon_that_overflows(self):
        # 15:40 on ticker L: no prices back to 15:05, and 30 minutes run past the close
        doc = Document(id="x", ticker="L", text="hello", timestamp=WEEK_START + timedelta(hours=15, minutes=40))
        together = prepare_records_by_horizon([doc], TWO_TICKERS, DICTIONARY, (10, 30), "abnormal")
        (kept10, dropped10), (kept30, dropped30) = together[10], together[30]
        assert not kept10 and not kept30
        assert {k: v for k, v in dropped10.items() if v} == {"insufficient_history": 1}
        assert {k: v for k, v in dropped30.items() if v} == {"horizon_overflow": 1}

    def test_features_computed_once_per_document(self, monkeypatch):
        import newsmkl.market as market

        looked_up = []
        real = market.return_features

        def recorded(series, et, absolute):
            looked_up.append((series.ticker, et.tolist()))
            return real(series, et, absolute)
        monkeypatch.setattr(market, "return_features", recorded)
        docs = [Document(id=f"d{i}", ticker="T", text="hello", timestamp=dt(11 + i, 0, day=6))
                for i in range(3)]
        together = prepare_records_by_horizon(docs, WEEK_PRICES, DICTIONARY, (10, 20, 30), "abnormal")
        assert [len(records) for records, _ in together.values()] == [3, 3, 3]
        # one batched lookup for the ticker, holding each document's event once
        assert looked_up == [("T", [int(d.timestamp.timestamp()) for d in docs])]
        # one document's records at every horizon share its feature arrays
        firsts = [records[0] for records, _ in together.values()]
        assert all(r.return_features is firsts[0].return_features for r in firsts)
        assert all(r.text_counts is firsts[0].text_counts for r in firsts)


def _edge_prices():
    """Ticker A: minute prices from 10:00 to 16:00 on Monday; ticker B: one
    day of minute prices from 9:30."""
    start = int((WEEK_START + timedelta(hours=10)).timestamp())
    rng = np.random.default_rng(5)
    a = start + 60 * np.arange(361)
    b = start - 30 * 60 + 60 * np.arange(391)
    return {tk: PriceSeries(ticker=tk, times=t, prices=p0 * np.exp(np.cumsum(0.002 * rng.standard_normal(t.size))))
            for tk, t, p0 in (("A", a, 100.0), ("B", b, 50.0))}


def test_extraction_edges_match_the_per_event_oracle():
    prices = _edge_prices()
    at = [("A", timedelta(hours=10, minutes=35)),  # 35 minutes after the first tick: kept
          ("A", timedelta(hours=10, minutes=34, seconds=59)),  # one second short of history
          ("A", timedelta(hours=11)),  # on a tick
          ("A", timedelta(hours=11, minutes=7, seconds=30)),  # between ticks
          ("A", timedelta(hours=15, minutes=30)),  # h=30 ends exactly at 16:00
          ("A", timedelta(hours=15)),  # h=60 ends exactly at 16:00
          ("B", timedelta(hours=12, minutes=41, seconds=1))]  # the ticker's only event
    docs = [Document(id=f"e{i}", ticker=tk, text="hello world", timestamp=WEEK_START + offset)
            for i, (tk, offset) in enumerate(at)]
    together = prepare_records_by_horizon(docs, prices, DICTIONARY, (10, 30, 60), "abnormal")
    for h, (records, dropped) in together.items():
        config = LabelingConfig(horizon_minutes=h)
        kept, naive_dropped = naive_feature_records(docs, prices, DICTIONARY, config)
        assert dropped == naive_dropped
        assert [{"doc_id": r.doc_id, "ticker": r.ticker, "timestamp": r.timestamp, "position": r.position,
                 "text_counts": r.text_counts.tolist(), "token_count": r.token_count,
                 "return_features": r.return_features.tolist(), "time_of_day": r.time_of_day.tolist(),
                 "day_of_week": r.day_of_week.tolist(), "signed_return": r.signed_return}
                for r in records] == kept
    ids = [[r.doc_id for r in records] for records, _ in together.values()]
    assert ids == [["e0", "e2", "e3", "e4", "e5", "e6"], ["e0", "e2", "e3", "e4", "e5", "e6"],
                   ["e0", "e2", "e3", "e5", "e6"]]
    assert [{k: v for k, v in dropped.items() if v} for _, dropped in together.values()] == \
        [{"insufficient_history": 1}, {"insufficient_history": 1},
         {"insufficient_history": 1, "horizon_overflow": 1}]


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
            [[r]] = future_return(prices[doc.ticker], epochs(doc.timestamp), [10])
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

    def test_trading_days_run_across_a_year_end(self):
        days = trading_days("2004-11", 3)
        d, weekdays = datetime(2004, 11, 1, tzinfo=UTC), []
        while d < datetime(2005, 2, 1, tzinfo=UTC):
            if d.weekday() < 5:
                weekdays.append(d)
            d += timedelta(days=1)
        assert days == weekdays

    def test_trading_days_end_on_the_last_day_of_the_calendar(self):
        days = trading_days("9999-12", 1)
        assert (len(days), days[-1]) == (23, datetime(9999, 12, 31, tzinfo=UTC))

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


class TestMonths:
    @given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31),
                        timezones=st.just(UTC)))
    def test_keys_count_months(self, t):
        month = market.month_of(t)
        assert market._month_key(month) == 12 * t.year + t.month - 1
        assert market._key_month(market._month_key(month)) == month
        assert market._datetime_month_key(t) == market._month_key(month)

    @pytest.mark.parametrize("month", ["2004-13", "2004-00", "2004-1", "04-01", "2004/01",
                                       "2004-01-05", " 2004-01", "2004-01\n", "\uff12004-01", ""])
    def test_anything_but_yyyy_mm_is_refused(self, month):
        with pytest.raises(MarketError, match=re.escape(f"expected a YYYY-MM month, got {month!r}")):
            market._month_key(month)


class TestReadPrices:
    @pytest.fixture(scope="class")
    def series(self):
        _, prices, _ = synth_generate(3, SynthSpec(n_events=10, n_months=1, tickers=("BBB", "AAA")))
        return prices

    @staticmethod
    def _same(a: dict, b: dict):
        assert list(a) == list(b)
        for tk in a:
            assert a[tk].times.tobytes() == b[tk].times.tobytes()
            assert a[tk].prices.tobytes() == b[tk].prices.tobytes()

    def test_column_parse_matches_row_parse(self, series, tmp_path):
        path = tmp_path / "prices.csv"
        write_prices(path, series)
        self._same(read_prices(path), _by_rows(path))

    def test_row_parser_reads_any_iso_form_in_utc(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"ticker,timestamp,price\r\nAAA,2004-01-05T09:30:00Z,1.0\r\n"
                         b"AAA,2004-01-05T04:31:00-05:00,2.0\r\nAAA,2004-01-05T09:32:00,3.0\r\n"
                         b"AAA,2004-01-05T09:33:00.750+00:00,4.0\r\n")
        s = read_prices(path)["AAA"]
        assert s.times.tolist() == [int(dt(9, m).timestamp()) for m in (30, 31, 32, 33)]
        assert s.prices.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_other_timestamp_forms_fall_back_to_rows(self, series, tmp_path):
        canonical = tmp_path / "prices.csv"
        write_prices(canonical, series)
        offset = tmp_path / "offset.csv"
        offset.write_text(canonical.read_text().replace("Z,", "+00:00,") + "\n\n")
        self._same(read_prices(offset), read_prices(canonical))

    @pytest.mark.parametrize("row", [b"A\xffA,2004-01-05T09:31:00Z,1.0",  # in a ticker
                                     b"AAA,2004-01-05T09:31:00Z,1.\xff"])  # in a price
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, row):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"ticker,timestamp,price\nAAA,2004-01-05T09:30:00Z,1.0\n" + row +
                         b"\nAAA,2004-01-05T09:32:00Z,1.0\n")
        message = f"{path}:3: bad price row: bytes that are not UTF-8"
        with pytest.raises(MarketError, match="^" + re.escape(message)):
            read_prices(path)

    @pytest.mark.parametrize("row", [
        "AAA,2004-01-05T09:31:00Z",  # two fields
        "AAA,2004-01-05T09:31:00Z,1.0,2",  # four fields
        "AAA,2004-02-30T09:31:00Z,1.0",  # canonical form, no such day
        "AAA,0000-01-05T09:31:00Z,1.0",  # year 0
        "AAA,yesterday,1.0",
        "AAA,2004-01-05T09:31:00Z,abc",
        "AAA,2004-01-05T09:31:00Z,-1.0",
        "AAA,2004-01-05T09:31:00Z,inf",
        "AAA,2004-01-05T09:31:00Z,nan",
    ])
    def test_bad_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "prices.csv"
        path.write_text(f"ticker,timestamp,price\nAAA,2004-01-05T09:30:00Z,1.0\n\n{row}\n"
                        "AAA,2004-01-05T09:32:00Z,1.0\n")
        with pytest.raises(MarketError, match="^" + re.escape(f"{path}:4: bad price row")):
            read_prices(path)

    def test_an_empty_ticker_names_its_line(self, tmp_path):
        # the file is otherwise in `write_prices` form: the block parser refuses it as well
        path = tmp_path / "prices.csv"
        path.write_text("ticker,timestamp,price\nAAA,2004-01-05T10:00:00Z,100.0\n"
                        ",2004-01-05T10:01:00Z,100.0\n")
        with pytest.raises(ValueError):
            market._price_blocks(path)
        with pytest.raises(MarketError, match="^" + re.escape(f"{path}:3: bad price row: empty ticker")):
            read_prices(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("stamp", ["10:01", "10:00"], ids=["repeated", "backwards"])
    def test_a_ticker_going_back_in_time_names_its_line(self, tmp_path, newline, stamp):
        # another ticker's earlier time between them is no fault
        rows = ["ticker,timestamp,price", "AAA,2004-01-05T10:00:00Z,100.000000",
                "AAA,2004-01-05T10:01:00Z,100.000000", "BBB,2004-01-05T10:00:00Z,100.000000",
                f"AAA,2004-01-05T{stamp}:00Z,100.000000"]
        path = tmp_path / "prices.csv"
        path.write_bytes((newline.join(rows) + newline).encode())
        message = f"{path}:5: bad price row: AAA's time '2004-01-05T{stamp}:00Z' is not after"
        with pytest.raises(MarketError, match="^" + re.escape(message)):
            read_prices(path)


def _by_rows(path) -> dict[str, PriceSeries]:
    """The row parser's per-ticker rows as series, in order of first appearance."""
    return {tk: PriceSeries(ticker=tk, times=times, prices=prices)
            for tk, (times, prices) in _price_rows(path).items()}


# tickers the block parser takes, and ones whose edges send the file to the row parser
PLAIN_TICKERS = ["AAA", "BBB", "B", "A B", "AÜB", "LONG.TICKER.NAME.OF.32.BYTES.XYZ",
                 "LONG.TICKER.NAME.OF.32.BYTES.XYW"]
ODD_TICKERS = [" PAD", "PAD ", "ÜBER", "X" * 33]
BAD_ROWS = ["AAA,2004-01-05T09:31:00Z", "AAA,2004-02-30T09:31:00Z,1.0", "AAA,0000-01-05T09:31:00Z,1.0",
            "AAA,2004-01-05T09:31:00Z,-1.0", "AAA,2004-01-05T09:31:00Z,nan",
            "AAA,2004-01-05T09:31:00Z,1.0,2"]


runs_of_rows = st.lists(st.tuples(st.sampled_from(PLAIN_TICKERS + ODD_TICKERS),
                                  st.lists(st.floats(1e-4, 1e6), min_size=1, max_size=4)),
                        min_size=1, max_size=12)


def _price_file(runs, form, odd=False, offset_stamps=False, blanks=(), bad=None) -> list[str]:
    """Rows of a price file: `runs` of consecutive rows per ticker, one minute apart."""
    t0 = int(dt(9, 30).timestamp())
    lines = []
    for ticker, run_prices in runs:
        if not odd and ticker in ODD_TICKERS:
            ticker = "AAA"
        for price in run_prices:
            stamp = datetime.fromtimestamp(t0 + 60 * len(lines), tz=UTC).strftime("%Y-%m-%dT%H:%M:%SZ")
            if offset_stamps:
                stamp = stamp.replace("Z", "+00:00")
            lines.append(f"{ticker},{stamp},{form.format(price)}")
    for i in sorted(blanks, reverse=True):
        lines.insert(min(i, len(lines)), "")
    if bad is not None:
        lines.insert(min(bad[0], len(lines)), bad[1])
    return ["ticker,timestamp,price", *lines]


def _read_both(lines, newline, final_newline, block_bytes):
    """read_prices with small blocks, the row parser's series (or the
    MarketError text of each), and whether read_prices fell back to rows."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode("utf-8"))
        rows_parsed = mock.Mock(wraps=_price_rows)
        with mock.patch.object(market, "_PRICE_BLOCK_BYTES", block_bytes), \
                mock.patch.object(market, "_price_rows", rows_parsed):
            results = []
            for read in (read_prices, _by_rows):
                try:
                    results.append(read(path))
                except MarketError as exc:
                    results.append(str(exc))
            return *results, rows_parsed.call_count > 0


def _assert_same(got, expected):
    if isinstance(expected, str):  # the same error, naming the same row
        assert got == expected
        return
    assert list(got) == list(expected)
    for tk in got:
        assert got[tk].times.tobytes() == expected[tk].times.tobytes()
        assert got[tk].prices.tobytes() == expected[tk].prices.tobytes()


@settings(max_examples=150, deadline=None)
@given(runs=runs_of_rows, form=st.sampled_from(["{:.6f}", "{!r}", "{:.3e}"]),
       final_newline=st.booleans(), block_bytes=st.integers(1, 160))
def test_block_parser_equals_row_parser(runs, form, final_newline, block_bytes):
    """Files in `write_prices` form, rows straddling small blocks: the block
    parser alone reads them, bitwise as the row parser does."""
    got, expected, fell_back = _read_both(_price_file(runs, form), "\n", final_newline, block_bytes)
    _assert_same(got, expected)
    assert not fell_back


@settings(max_examples=150, deadline=None)
@given(runs=runs_of_rows, form=st.sampled_from(["{:.6f}", "{!r}", "{:.3e}"]), odd=st.booleans(),
       crlf=st.booleans(), blanks=st.sets(st.integers(0, 40), max_size=3), final_newline=st.booleans(),
       offset_stamps=st.booleans(), block_bytes=st.integers(1, 160),
       bad=st.none() | st.tuples(st.integers(0, 40), st.sampled_from(BAD_ROWS)))
def test_any_price_file_reads_as_the_row_parser_reads_it(runs, form, odd, crlf, blanks, final_newline,
                                                        offset_stamps, block_bytes, bad):
    """Padded and non-ASCII-edged tickers, CRLF, blank lines, other stamp
    forms and bad rows: the same series, or the same error."""
    lines = _price_file(runs, form, odd, offset_stamps, blanks, bad)
    got, expected, _ = _read_both(lines, "\r\n" if crlf else "\n", final_newline, block_bytes)
    _assert_same(got, expected)
