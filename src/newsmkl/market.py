"""Price series, return features, event labeling, and synthetic data.

Events are news documents joined to intraday prices. An event is labeled
abnormal (+1) when the absolute return over the prediction horizon
strictly exceeds a threshold taken at a percentile of training-set
absolute returns; the direction task labels by the sign of the return
(zero return -> -1). Events without enough price history (35 minutes for
the return features) or whose horizon runs past the 16:00 close are
dropped and accounted for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, time, timedelta, timezone

import numpy as np

from .text import Dictionary, Document, bag_of_words, token_count

TRADING_DAY_START = time(9, 30)
TRADING_DAY_END = time(16, 0)
DEFAULT_MIN_EVENT_TIME = time(10, 10)
RETURN_LAG_MINUTES = 15
RETURN_STEP_MINUTES = 5
N_RETURN_FEATURES = 5
HISTORY_MINUTES = RETURN_LAG_MINUTES + RETURN_STEP_MINUTES * (N_RETURN_FEATURES - 1)  # 35

DROP_REASONS = (
    "weekend",
    "outside_trading_day",
    "before_min_event_time",
    "horizon_overflow",
    "insufficient_history",
    "missing_price",
    "unknown_ticker",
)


class MarketError(ValueError):
    """Malformed price series or labeling input."""


class EventDropped(Exception):
    """Event excluded from the experiment for a named reason."""

    def __init__(self, reason: str, detail: str = ""):
        if reason not in DROP_REASONS:
            raise ValueError(f"unknown drop reason {reason!r}")
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


def _epoch(t: datetime) -> int:
    if t.tzinfo is None:
        t = t.replace(tzinfo=timezone.utc)
    return int(t.timestamp())


@dataclass
class PriceSeries:
    """Strictly time-ordered positive prices for one ticker."""

    ticker: str
    times: np.ndarray  # int64 epoch seconds
    prices: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.int64)
        p = np.asarray(self.prices, dtype=np.float64)
        if t.shape != p.shape or t.ndim != 1 or t.size == 0:
            raise MarketError("times and prices must be equal-length nonempty 1-d arrays")
        if np.any(np.diff(t) <= 0):
            raise MarketError(f"{self.ticker}: timestamps must be strictly increasing")
        if not np.all(np.isfinite(p)):
            raise MarketError(f"{self.ticker}: prices must be finite")
        if np.any(p <= 0):
            raise MarketError(f"{self.ticker}: prices must be positive")
        self.times, self.prices = t, p

    @property
    def size(self) -> int:
        return self.times.size


def price_at(series: PriceSeries, t: datetime | int) -> float:
    """Previous-tick sampling: last price at or before t."""
    et = t if isinstance(t, (int, np.integer)) else _epoch(t)
    idx = int(np.searchsorted(series.times, et, side="right")) - 1
    if idx < 0:
        raise MarketError(f"{series.ticker}: no price at or before requested time")
    return float(series.prices[idx])


def return_features(series: PriceSeries, t: datetime | int, absolute: bool = False) -> np.ndarray:
    """Five lagged returns before t: r_k = [P(t-5k) - P(t-5k-15)] / P(t-5k-15).

    k runs 0..4 (5-minute spacing, 15-minute lag), so prices must exist
    back to t - 35 minutes; otherwise the event lacks history.
    """
    et = t if isinstance(t, (int, np.integer)) else _epoch(t)
    if series.times[0] > et - HISTORY_MINUTES * 60:
        raise EventDropped("insufficient_history",
                           f"{series.ticker}: need prices back to t-{HISTORY_MINUTES}min")
    out = np.empty(N_RETURN_FEATURES)
    for k in range(N_RETURN_FEATURES):
        p_now = price_at(series, et - RETURN_STEP_MINUTES * 60 * k)
        p_lag = price_at(series, et - (RETURN_STEP_MINUTES * k + RETURN_LAG_MINUTES) * 60)
        out[k] = (p_now - p_lag) / p_lag
    return np.abs(out) if absolute else out


def abnormal_threshold(training_abs_returns, percentile: float) -> float:
    """Nearest-rank percentile: sorted 1-based index ceil(p/100 * n)."""
    vals = np.sort(np.asarray(training_abs_returns, dtype=np.float64).ravel())
    if vals.size == 0:
        raise MarketError("cannot take a percentile of an empty sample")
    if not 0.0 < percentile < 100.0:
        raise MarketError("percentile must lie in (0, 100)")
    rank = max(1, math.ceil(percentile * vals.size / 100.0))
    return float(vals[min(rank, vals.size) - 1])


@dataclass(frozen=True)
class LabelingConfig:
    horizon_minutes: int
    percentile: float = 75.0
    label_kind: str = "abnormal"  # or "direction"
    day_start: time = TRADING_DAY_START
    day_end: time = TRADING_DAY_END
    min_event_time: time = DEFAULT_MIN_EVENT_TIME

    def __post_init__(self):
        h = self.horizon_minutes
        if h < 10 or h > 250 or h % 10 != 0:
            raise MarketError("horizon must be a multiple of 10 in [10, 250]")
        if not 50.0 <= self.percentile <= 95.0:
            raise MarketError("labeling percentile must lie in [50, 95]")
        if self.label_kind not in ("abnormal", "direction"):
            raise MarketError(f"unknown label kind {self.label_kind!r}")


def calendar_features(t: datetime) -> tuple[np.ndarray, np.ndarray]:
    """One-hot time-of-day bins [before 10:30, between, after 15:00] and Mon..Fri."""
    if t.weekday() >= 5:
        raise MarketError(f"weekend timestamp {t.isoformat()}")
    minutes = t.hour * 60 + t.minute
    tod = np.zeros(3)
    if minutes < 10 * 60 + 30:
        tod[0] = 1.0
    elif minutes > 15 * 60:
        tod[2] = 1.0
    else:
        tod[1] = 1.0
    dow = np.zeros(5)
    dow[t.weekday()] = 1.0
    return tod, dow


def future_return(series: PriceSeries, t: datetime, horizon_minutes: int) -> float:
    p0 = price_at(series, t)
    p1 = price_at(series, _epoch(t) + horizon_minutes * 60)
    return (p1 - p0) / p0


@dataclass
class FeatureRecord:
    """A document joined to prices: text counts, return and calendar
    features, and the signed return over the horizon (labels are assigned
    later, against a threshold from the training events)."""

    doc_id: str
    ticker: str
    timestamp: datetime
    text_counts: np.ndarray
    token_count: int
    return_features: np.ndarray
    time_of_day: np.ndarray
    day_of_week: np.ndarray
    signed_return: float

    @property
    def abs_return(self) -> float:
        return abs(self.signed_return)


def _feature_record(doc: Document, prices: dict[str, PriceSeries], dictionary: Dictionary,
                    config: LabelingConfig) -> FeatureRecord:
    """Join one document to its prices, or raise EventDropped with the exclusion reason."""
    series = prices.get(doc.ticker)
    if series is None:
        raise EventDropped("unknown_ticker", doc.ticker)
    t = doc.timestamp
    if t.weekday() >= 5:
        raise EventDropped("weekend", doc.id)
    clock = t.timetz().replace(tzinfo=None)
    if clock < config.day_start or clock > config.day_end:
        raise EventDropped("outside_trading_day", doc.id)
    if clock < config.min_event_time:
        raise EventDropped("before_min_event_time", doc.id)
    t_end = t + timedelta(minutes=config.horizon_minutes)
    if t_end.timetz().replace(tzinfo=None) > config.day_end or t_end.date() != t.date():
        raise EventDropped("horizon_overflow", doc.id)
    try:
        rets = return_features(series, t, absolute=(config.label_kind == "abnormal"))
        r = future_return(series, t, config.horizon_minutes)
    except MarketError as exc:
        raise EventDropped("missing_price", f"{doc.id}: {exc}") from exc
    tod, dow = calendar_features(t)
    return FeatureRecord(doc_id=doc.id, ticker=doc.ticker, timestamp=t,
                         text_counts=bag_of_words(doc, dictionary), token_count=token_count(doc.text),
                         return_features=rets, time_of_day=tod, day_of_week=dow,
                         signed_return=float(r))


def prepare_feature_records(
    docs: list[Document],
    prices: dict[str, PriceSeries],
    dictionary: Dictionary,
    config: LabelingConfig,
) -> tuple[list[FeatureRecord], dict[str, int]]:
    """Extract features and horizon returns for every usable document.

    Returns the kept records plus a tally of dropped documents by reason;
    kept + dropped always sums to the input count.
    """
    records: list[FeatureRecord] = []
    dropped = dict.fromkeys(DROP_REASONS, 0)
    for doc in docs:
        try:
            records.append(_feature_record(doc, prices, dictionary, config))
        except EventDropped as exc:
            dropped[exc.reason] += 1
    return records, dropped


def label_threshold(train_records: list[FeatureRecord], config: LabelingConfig) -> float:
    """The abnormal threshold from the training records' absolute returns
    (0.0 for the direction task, which ignores it)."""
    if config.label_kind == "abnormal":
        return abnormal_threshold([r.abs_return for r in train_records], config.percentile)
    return 0.0


def label_records(records: list[FeatureRecord], config: LabelingConfig, threshold: float) -> np.ndarray:
    """Labels under a fixed threshold.

    Abnormal task: +1 iff |return over horizon| > threshold (strict; a
    return exactly at the threshold is -1). Direction task: +1 iff
    return > 0, zero return -> -1.
    """
    if config.label_kind == "abnormal":
        return np.array([1 if r.abs_return > threshold else -1 for r in records], dtype=np.int64)
    return np.array([1 if r.signed_return > 0 else -1 for r in records], dtype=np.int64)


# ---------------------------------------------------------------------------
# Price / event file formats
# ---------------------------------------------------------------------------


def read_prices(path) -> dict[str, PriceSeries]:
    """Read a `ticker,timestamp,price` CSV into per-ticker series."""
    by_ticker: dict[str, tuple[list[int], list[float]]] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "ticker,timestamp,price":
            raise MarketError(f"bad price CSV header: {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                ticker, ts, price = line.split(",")
                et = _epoch(datetime.fromisoformat(ts.replace("Z", "+00:00")))
                p = float(price)
                if not 0.0 < p < math.inf:  # also false for nan
                    raise ValueError(f"price {price!r} is not a positive finite number")
                by_ticker.setdefault(ticker, ([], []))[0].append(et)
                by_ticker[ticker][1].append(p)
            except ValueError as exc:
                raise MarketError(f"{path}:{ln}: bad price row: {exc}") from exc
    return {tk: PriceSeries(ticker=tk, times=np.array(ts), prices=np.array(ps))
            for tk, (ts, ps) in by_ticker.items()}


def _iso(et: int) -> str:
    return datetime.fromtimestamp(et, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_prices(path, series: dict[str, PriceSeries]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("ticker,timestamp,price\n")
        for ticker in sorted(series):
            s = series[ticker]
            for et, p in zip(s.times, s.prices):
                fh.write(f"{ticker},{_iso(int(et))},{p:.6f}\n")


EVENT_CSV_HEADER = (
    "id,ticker,timestamp,horizon_minutes,"
    "r0,r1,r2,r3,r4,tod_early,tod_mid,tod_late,"
    "dow_mon,dow_tue,dow_wed,dow_thu,dow_fri,abs_future_return,label"
)


def write_events_csv(path, records: list[FeatureRecord], labels, horizon_minutes: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(EVENT_CSV_HEADER + "\n")
        for r, label in zip(records, labels):
            rets = ",".join(repr(float(v)) for v in r.return_features)
            tod = ",".join(str(int(v)) for v in r.time_of_day)
            dow = ",".join(str(int(v)) for v in r.day_of_week)
            fh.write(f"{r.doc_id},{r.ticker},{r.timestamp.strftime('%Y-%m-%dT%H:%M:%SZ')},"
                     f"{horizon_minutes},{rets},{tod},{dow},{repr(r.abs_return)},{int(label)}\n")


# ---------------------------------------------------------------------------
# Synthetic data generator
# ---------------------------------------------------------------------------

_FILLER_VOCAB = (
    "the company today said that its board of directors met to review the schedule for",
    "customers and employees across regional offices during the current fiscal period while",
    "management noted ordinary operations continued with routine maintenance of network systems and",
    "meeting quarterly report conference presentation webcast newsletter personnel facility program update",
)

_FILLER_WORDS = tuple(" ".join(_FILLER_VOCAB).split())


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the planted-signal generator.

    With signal_strength s, a keyword-bearing document is followed by a
    volatility jump with probability s + (1-s) * surprise_rate; documents
    without the keyword jump at surprise_rate, so s = 0 makes keyword and
    jump independent and s = 1 plants a jump after every keyword.
    """

    n_events: int = 2400
    tickers: tuple[str, ...] = ("AAA", "BBB", "CCC", "DDD")
    start_month: str = "2004-01"
    n_months: int = 18
    keyword_fraction: float = 0.22
    signal_strength: float = 1.0
    surprise_rate: float = 0.012
    jump_size: float = 0.05
    jump_jitter: float = 0.2
    jump_delay_minutes: int = 5
    base_vol_per_min: float = 0.0004
    u_shape_amplitude: float = 1.5
    event_start: time = time(10, 10)
    event_end: time = time(15, 30)
    signal_word: str = "acquisition"
    words_per_doc: int = 28
    base_price: float = 100.0
    min_event_gap_minutes: int = 30

    def __post_init__(self):
        if self.n_events < 1 or not self.tickers or self.n_months < 1:
            raise MarketError("synthetic spec needs events, tickers, and months")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise MarketError("signal_strength must lie in [0, 1]")
        if not 0.0 <= self.keyword_fraction <= 1.0:
            raise MarketError("keyword_fraction must lie in [0, 1]")


@dataclass
class SynthTruth:
    doc_id: str
    has_keyword: bool
    jump: bool
    jump_return: float


def _month_list(start_month: str, n_months: int) -> list[tuple[int, int]]:
    year, month = (int(p) for p in start_month.split("-"))
    out = []
    for _ in range(n_months):
        out.append((year, month))
        month += 1
        if month == 13:
            year, month = year + 1, 1
    return out


def trading_days(start_month: str, n_months: int) -> list[datetime]:
    """Weekdays of the month range, as midnight UTC datetimes."""
    days = []
    for year, month in _month_list(start_month, n_months):
        d = datetime(year, month, 1, tzinfo=timezone.utc)
        while d.month == month:
            if d.weekday() < 5:
                days.append(d)
            d += timedelta(days=1)
    return days


def _intraday_profile(n_minutes: int, amplitude: float) -> np.ndarray:
    x = np.linspace(-1.0, 1.0, n_minutes)
    return 1.0 + amplitude * x * x


def synth_generate(seed: int, spec: SynthSpec) -> tuple[list[Document], dict[str, PriceSeries], list[SynthTruth]]:
    """Deterministically generate documents, minute prices, and ground truth."""
    rng = np.random.default_rng(seed)
    days = trading_days(spec.start_month, spec.n_months)
    day_start_min = TRADING_DAY_START.hour * 60 + TRADING_DAY_START.minute
    day_end_min = TRADING_DAY_END.hour * 60 + TRADING_DAY_END.minute
    n_minutes = day_end_min - day_start_min + 1
    profile = _intraday_profile(n_minutes, spec.u_shape_amplitude)

    ev_lo = spec.event_start.hour * 60 + spec.event_start.minute - day_start_min
    ev_hi = spec.event_end.hour * 60 + spec.event_end.minute - day_start_min

    # events: (day index, ticker, minute offset), spaced per ticker-day
    minutes_used: dict[tuple[int, str], list[int]] = {}
    events = []
    attempts = 0
    max_attempts = 200 * spec.n_events
    while len(events) < spec.n_events:
        attempts += 1
        if attempts > max_attempts:
            raise MarketError("cannot place events: too many for the configured days/tickers/gap")
        di = int(rng.integers(0, len(days)))
        ticker = spec.tickers[int(rng.integers(0, len(spec.tickers)))]
        minute = int(rng.integers(ev_lo, ev_hi + 1))
        used = minutes_used.setdefault((di, ticker), [])
        if any(abs(minute - m) < spec.min_event_gap_minutes for m in used):
            continue
        used.append(minute)
        events.append((di, ticker, minute))
    events.sort()

    # per-event story: keyword / jump / signed jump return
    docs: list[Document] = []
    truths: list[SynthTruth] = []
    jumps: dict[tuple[int, str], list[tuple[int, float]]] = {}
    for idx, (di, ticker, minute) in enumerate(events):
        has_kw = bool(rng.random() < spec.keyword_fraction)
        p_jump = spec.signal_strength + (1.0 - spec.signal_strength) * spec.surprise_rate \
            if has_kw else spec.surprise_rate
        jump = bool(rng.random() < p_jump)
        jump_ret = 0.0
        if jump:
            size = spec.jump_size * (1.0 + spec.jump_jitter * float(rng.uniform(-1.0, 1.0)))
            jump_ret = float(np.copysign(size, rng.uniform(-1.0, 1.0)))
            jumps.setdefault((di, ticker), []).append((minute + spec.jump_delay_minutes, jump_ret))

        n_words = spec.words_per_doc + int(rng.integers(-8, 9))
        words = list(rng.choice(_FILLER_WORDS, size=max(n_words, 5)))
        if has_kw:
            pos = int(rng.integers(0, len(words) + 1))
            words.insert(pos, spec.signal_word)
        ts = days[di] + timedelta(minutes=day_start_min + minute)
        doc_id = f"evt-{idx:06d}"
        docs.append(Document(id=doc_id, timestamp=ts, ticker=ticker, text=" ".join(words)))
        truths.append(SynthTruth(doc_id=doc_id, has_keyword=has_kw, jump=jump, jump_return=jump_ret))

    # minute prices per ticker: U-shaped vol random walk plus planted jump steps
    series: dict[str, PriceSeries] = {}
    for ticker in spec.tickers:
        all_times = []
        all_prices = []
        price = spec.base_price
        for di, day in enumerate(days):
            eps = rng.standard_normal(n_minutes) * spec.base_vol_per_min * profile
            eps[0] = 0.0
            planted = jumps.get((di, ticker), ())
            for jump_minute, jump_ret in planted:
                if 0 <= jump_minute < n_minutes:
                    eps[jump_minute] += math.log1p(jump_ret)
            log_path = np.cumsum(eps)
            day_prices = price * np.exp(log_path)
            base_epoch = _epoch(day + timedelta(minutes=day_start_min))
            all_times.append(base_epoch + 60 * np.arange(n_minutes))
            all_prices.append(day_prices)
            price = float(day_prices[-1])
        series[ticker] = PriceSeries(ticker=ticker, times=np.concatenate(all_times),
                                     prices=np.concatenate(all_prices))
    return docs, series, truths


def write_truth_csv(path, truths: list[SynthTruth]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,has_keyword,jump,jump_return\n")
        for t in truths:
            fh.write(f"{t.doc_id},{int(t.has_keyword)},{int(t.jump)},{repr(t.jump_return)}\n")
