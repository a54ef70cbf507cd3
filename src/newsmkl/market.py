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

import calendar
import math
import re
from dataclasses import dataclass
from datetime import datetime, time, timedelta, timezone

import numpy as np

from .text import (Dictionary, Document, bag_of_words, tokenize, _csv_cell, _format_timestamp,
                   _parse_timestamp, _utf8_line)

TRADING_DAY_START = time(9, 30)
TRADING_DAY_END = time(16, 0)
MIN_EVENT_TIME = time(10, 10)  # earlier events are dropped
RETURN_LAG_MINUTES = 15
RETURN_STEP_MINUTES = 5
N_RETURN_FEATURES = 5
HISTORY_MINUTES = RETURN_LAG_MINUTES + RETURN_STEP_MINUTES * (N_RETURN_FEATURES - 1)  # 35

LABEL_KINDS = ("abnormal", "direction")
DROP_REASONS = (
    "weekend",
    "outside_trading_day",
    "before_min_event_time",
    "horizon_overflow",
    "insufficient_history",
    "unknown_ticker",
)


class MarketError(ValueError):
    """Malformed price series or labeling input."""


# months: "YYYY-MM" strings and their integer keys 12 * year + (month - 1)
_MONTH = re.compile(r"[0-9]{4}-(0[1-9]|1[0-2])")


def month_of(t: datetime) -> str:
    return f"{t.year:04d}-{t.month:02d}"


def _month_key(ym: str) -> int:
    """The key of a "YYYY-MM" month (01 to 12); MarketError for any other string."""
    if not _MONTH.fullmatch(ym):
        raise MarketError(f"expected a YYYY-MM month, got {ym!r}")
    return int(ym[:4]) * 12 + int(ym[5:]) - 1


def _datetime_month_key(t: datetime) -> int:
    """`_month_key(month_of(t))` without the string."""
    return 12 * t.year + t.month - 1


def _key_month(k: int) -> str:
    return f"{k // 12:04d}-{k % 12 + 1:02d}"


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


def _prices_at(series: PriceSeries, times) -> np.ndarray:
    """Previous-tick sampling at each of an array of epoch times."""
    idx = np.searchsorted(series.times, times, side="right") - 1
    if idx.size and idx.min() < 0:
        raise MarketError(f"{series.ticker}: no price at or before requested time")
    return series.prices[idx]


def _period_returns(series: PriceSeries, start, end) -> np.ndarray:
    """[P(end) - P(start)] / P(start), elementwise over (broadcast) arrays of epoch times."""
    p0 = _prices_at(series, start)
    return (_prices_at(series, end) - p0) / p0


# how far before the event each lagged return ends: 5k minutes, k = 0..4
_RETURN_ENDS = RETURN_STEP_MINUTES * 60 * np.arange(N_RETURN_FEATURES)


def _has_history(series: PriceSeries, et):
    return series.times[0] <= et - HISTORY_MINUTES * 60


def return_features(series: PriceSeries, et: np.ndarray, absolute: bool = False) -> np.ndarray:
    """The (n, 5) lagged returns of events at epoch times `et`:
    r_k = [P(t-5k) - P(t-5k-15)] / P(t-5k-15) for k = 0..4 (5-minute
    spacing, 15-minute lag). Every event needs prices back to t - 35
    minutes (`_has_history`)."""
    ends = np.asarray(et)[:, None] - _RETURN_ENDS
    out = _period_returns(series, ends - RETURN_LAG_MINUTES * 60, ends)
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
    label_kind: str = "abnormal"  # one of LABEL_KINDS

    def __post_init__(self):
        h = self.horizon_minutes
        if h < 10 or h > 250 or h % 10 != 0:
            raise MarketError("horizon must be a multiple of 10 in [10, 250]")
        if not 50.0 <= self.percentile <= 95.0:
            raise MarketError("labeling percentile must lie in [50, 95]")
        if self.label_kind not in LABEL_KINDS:
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


def future_return(series: PriceSeries, et: np.ndarray, horizons) -> np.ndarray:
    """The (n, len(horizons)) returns [P(t+h) - P(t)] / P(t) of events at
    epoch times `et`, one column per horizon h in minutes."""
    start = np.asarray(et)[:, None]
    return _period_returns(series, start, start + 60 * np.asarray(horizons))


@dataclass(slots=True)
class FeatureRecord:
    """A document joined to prices: text counts, return and calendar
    features, and the signed return over the horizon (labels are assigned
    later, against a threshold from the training events). `position` is
    the document's index in the input list, which names the event even
    where document ids repeat; the records of one document at several
    horizons share its feature arrays."""

    doc_id: str
    ticker: str
    timestamp: datetime
    text_counts: np.ndarray
    token_count: int
    return_features: np.ndarray
    time_of_day: np.ndarray
    day_of_week: np.ndarray
    signed_return: float
    position: int

    @property
    def abs_return(self) -> float:
        return abs(self.signed_return)


def _clock_drop(doc: Document, prices: dict[str, PriceSeries]) -> str | None:
    """The reason a document is dropped at every horizon, if any: its
    ticker, its day or its clock time."""
    if doc.ticker not in prices:
        return "unknown_ticker"
    t = doc.timestamp
    if t.weekday() >= 5:
        return "weekend"
    clock = t.time()
    if clock < TRADING_DAY_START or clock > TRADING_DAY_END:
        return "outside_trading_day"
    if clock < MIN_EVENT_TIME:
        return "before_min_event_time"
    return None


def _within_day(t: datetime, horizon_minutes: int) -> bool:
    """Whether the horizon ends by the close of the event's trading day."""
    t_end = t + timedelta(minutes=horizon_minutes)
    return t_end.time() <= TRADING_DAY_END and t_end.date() == t.date()


def prepare_records_by_horizon(
    docs: list[Document],
    prices: dict[str, PriceSeries],
    dictionary: Dictionary,
    horizons: tuple[int, ...],
    label_kind: str,
) -> dict[int, tuple[list[FeatureRecord], dict[str, int]]]:
    """Extract features and returns for every usable document at each
    horizon (in minutes), with the return features of `label_kind`.

    Returns, per horizon, the kept records plus a tally of dropped
    documents by reason; kept + dropped always sums to the input count.
    At each horizon the checks run in the order ticker, weekend, trading
    day, minimum event time (10:10), horizon overflow, price history, and the
    first that fails names the drop (with 35 minutes of history every
    price lookup succeeds). Everything but the horizon checks is done once
    per document: a kept document is tokenized once, and its counts
    array, return and calendar features are shared by its records at every
    horizon. Prices are looked up per ticker, for all of its events at once.
    """
    # per document: the reason it drops at every horizon, and which horizons end by the close
    checks = []
    by_ticker: dict[str, list[int]] = {}  # positions of the documents that need prices
    for position, doc in enumerate(docs):
        reason = _clock_drop(doc, prices)
        fits = [reason is None and _within_day(doc.timestamp, h) for h in horizons]
        if any(fits):
            by_ticker.setdefault(doc.ticker, []).append(position)
        checks.append((reason, fits))

    # each ticker's events at once: the history check, then every price lookup
    # (with history, every lookup finds a price)
    returns: dict[int, tuple[np.ndarray, list[float]]] = {}
    for ticker, positions in by_ticker.items():
        series = prices[ticker]
        et = np.array([int(docs[p].timestamp.timestamp()) for p in positions], dtype=np.int64)
        ok = _has_history(series, et)
        et = et[ok]
        rets = return_features(series, et, absolute=label_kind == "abnormal")
        future = future_return(series, et, horizons)
        kept = [p for p, has in zip(positions, ok.tolist()) if has]
        returns.update(zip(kept, zip(rets, future.tolist())))

    out = {h: ([], dict.fromkeys(DROP_REASONS, 0)) for h in horizons}
    for position, (doc, (reason, fits)) in enumerate(zip(docs, checks)):
        rets, future = returns.get(position, (None, None))
        kept = []
        for j, (fit, (records, dropped)) in enumerate(zip(fits, out.values())):
            if fit and rets is not None:
                kept.append((records, future[j]))
            else:
                dropped[reason or ("insufficient_history" if fit else "horizon_overflow")] += 1
        if kept:
            t = doc.timestamp
            tod, dow = calendar_features(t)
            tokens = tokenize(doc.text)
            counts = bag_of_words(tokens, dictionary)
            for records, r in kept:
                records.append(FeatureRecord(
                    doc_id=doc.id, ticker=doc.ticker, timestamp=t, text_counts=counts,
                    token_count=len(tokens), return_features=rets, time_of_day=tod,
                    day_of_week=dow, signed_return=r, position=position))
    return out


def prepare_feature_records(
    docs: list[Document],
    prices: dict[str, PriceSeries],
    dictionary: Dictionary,
    config: LabelingConfig,
) -> tuple[list[FeatureRecord], dict[str, int]]:
    """`prepare_records_by_horizon` for one configuration."""
    h = config.horizon_minutes
    return prepare_records_by_horizon(docs, prices, dictionary, (h,), config.label_kind)[h]


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


PRICE_HEADER = "ticker,timestamp,price"
_PRICE_BLOCK_BYTES = 1 << 20  # bytes read at a time; keeps every temporary of the parse small
_MAX_FIELD_BYTES = 32  # a longer ticker or price goes to the row parser
# each byte of a `write_prices` timestamp's YYYY-MM-DDTHH:MM:SS part lies in [lo, lo + span]
_STAMP_LO = np.frombuffer(b"0000-00-00T00:00:00", np.uint8)
_STAMP_SPAN = np.frombuffer(b"9999-99-99T99:99:99", np.uint8) - _STAMP_LO
_YEAR_ONE = int(np.datetime64("0001-01-01T00:00:00", "s").astype(np.int64))  # datetime's minimum


def _fixed_width(padded: np.ndarray, at: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each row's field of `lengths` bytes at offset `at` of `padded`, as one
    `S{width}` array NUL-padded to the longest."""
    width = int(lengths.max())
    fields = np.lib.stride_tricks.sliding_window_view(padded, width)[at]
    fields[np.arange(width) >= lengths[:, None]] = 0
    return fields.view(f"S{width}").ravel()


def _parse_price_block(buf: bytes, chunks: dict[bytes, tuple[list, list]]) -> None:
    """Parse whole rows (`buf` ends in a newline) into per-ticker chunks of
    times and prices, keyed by the ticker's bytes.

    ValueError unless every row is three fields `ticker,YYYY-MM-DDTHH:MM:SSZ,price`
    with a positive finite price, a nonempty ticker, ticker and price of at most
    `_MAX_FIELD_BYTES` bytes, no NUL or carriage return, and a printable,
    non-space ASCII first and last byte (so stripping a row cannot change
    it and no row is blank).
    """
    if b"\0" in buf or b"\r" in buf:
        raise ValueError("a NUL byte or carriage return")
    b = np.frombuffer(buf, np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    edges = np.concatenate((b[starts], b[ends - 1]))
    if not np.all(edges - np.uint8(33) <= 126 - 33):  # 33..126 (wrapping below 33 in uint8)
        raise ValueError("a row's first or last byte is not printable ASCII")
    commas = np.flatnonzero(b == ord(","))
    if commas.size != 2 * ends.size:
        raise ValueError("a row is not three fields")
    c1, c2 = commas[0::2], commas[1::2]
    if not (np.all(c1 > starts) and np.all(c2 < ends) and np.all(c2 - c1 == 21)):
        raise ValueError("a row is not three fields with a nonempty ticker and a 20-byte timestamp")
    lengths, widths = c1 - starts, ends - c2 - 1  # of the ticker and the price
    if max(lengths.max(), widths.max()) > _MAX_FIELD_BYTES:
        raise ValueError("a ticker or price is too long for the block parser")

    stamps = np.lib.stride_tricks.sliding_window_view(b, 19)[c1 + 1]
    if not (np.all(stamps - _STAMP_LO <= _STAMP_SPAN) and np.all(b[c2 - 1] == ord("Z"))):
        raise ValueError("a timestamp is not in YYYY-MM-DDTHH:MM:SSZ form")
    times = stamps.view("S19").ravel().astype("datetime64[s]").astype(np.int64)
    if np.min(times) < _YEAR_ONE:
        raise ValueError("a timestamp is before year 1")

    padded = np.concatenate((b, np.zeros(_MAX_FIELD_BYTES, np.uint8)))
    prices = _fixed_width(padded, c2 + 1, widths).astype(np.float64)
    if not np.all((prices > 0.0) & (prices < math.inf)):
        raise ValueError("a price is not a positive finite number")

    # a row starts a new run of its ticker unless its ticker equals the previous row's
    tickers = _fixed_width(padded, starts, lengths)
    heads = np.flatnonzero(np.concatenate(([True], tickers[1:] != tickers[:-1])))
    keys: dict[bytes, int] = {}
    run_code = [keys.setdefault(ticker, len(keys)) for ticker in tickers[heads].tolist()]
    code = np.repeat(run_code, np.diff(np.append(heads, ends.size)))
    for key, j in keys.items():
        rows = code == j if len(keys) > 1 else slice(None)
        t_parts, p_parts = chunks.setdefault(key, ([], []))
        t_parts.append(times[rows])
        p_parts.append(prices[rows])


def _price_blocks(path) -> dict[bytes, tuple[list, list]]:
    """Per-ticker chunks of a `write_prices` file, read in byte blocks cut at
    their last newline; ValueError for any other file."""
    chunks: dict[bytes, tuple[list, list]] = {}
    with open(path, "rb") as fh:
        if fh.readline() != f"{PRICE_HEADER}\n".encode():
            raise ValueError("not the header `write_prices` writes")
        tail = b""
        while block := fh.read(_PRICE_BLOCK_BYTES):
            data = tail + block
            cut = data.rfind(b"\n") + 1
            if cut:
                _parse_price_block(data[:cut], chunks)
            tail = data[cut:]
        if tail:  # a last row without its newline
            _parse_price_block(tail + b"\n", chunks)
    return chunks


def _price_rows(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse row by row (any ISO timestamp); a bad header raises MarketError,
    and so does a bad row, naming `path:line`."""
    tickers, times, prices = [], [], []
    last: dict[str, int] = {}  # each ticker's latest time so far
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if header != PRICE_HEADER:
            raise MarketError(f"bad price CSV header: {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                ticker, ts, price = _utf8_line(line).split(",")
                if not ticker:
                    raise ValueError("empty ticker")
                et = int(_parse_timestamp(ts).timestamp())
                if ticker in last and et <= last[ticker]:
                    raise ValueError(f"{ticker}'s time {ts!r} is not after its previous row's")
                p = float(price)
                if not 0.0 < p < math.inf:  # also false for nan
                    raise ValueError(f"price {price!r} is not a positive finite number")
            except ValueError as exc:
                raise MarketError(f"{path}:{ln}: bad price row: {exc}") from exc
            tickers.append(ticker)
            last[ticker] = et
            times.append(et)
            prices.append(p)
    return tickers, np.array(times, dtype=np.int64), np.array(prices, dtype=np.float64)


def read_prices(path) -> dict[str, PriceSeries]:
    """Read a price CSV (header `PRICE_HEADER`) into per-ticker series, in order
    of each ticker's first row.

    A file in `write_prices`'s form is parsed as arrays, a block of about
    1 MiB at a time; any other file (other timestamp forms, CRLF endings,
    blank lines, padded rows, a bad row, a ticker whose times do not
    increase) falls back to the row-by-row parser, which names the first
    bad row.
    """
    try:  # PriceSeries raises MarketError, a ValueError, for times that do not increase
        chunks = {key.decode("utf-8"): parts for key, parts in _price_blocks(path).items()}
        return {tk: PriceSeries(ticker=tk, times=np.concatenate(t_parts), prices=np.concatenate(p_parts))
                for tk, (t_parts, p_parts) in chunks.items()}
    except ValueError:
        tickers, times, prices = _price_rows(path)
    code = {tk: j for j, tk in enumerate(dict.fromkeys(tickers))}
    row_code = np.array([code[tk] for tk in tickers], dtype=np.int64)
    return {tk: PriceSeries(ticker=tk, times=times[row_code == j], prices=prices[row_code == j])
            for tk, j in code.items()}


def write_prices(path, series: dict[str, PriceSeries]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(PRICE_HEADER + "\n")
        for ticker in sorted(series):
            s = series[ticker]
            for et, p in zip(s.times, s.prices):
                stamp = _format_timestamp(datetime.fromtimestamp(int(et), tz=timezone.utc))
                fh.write(f"{ticker},{stamp},{p:.6f}\n")


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
            fh.write(f"{_csv_cell(r.doc_id)},{_csv_cell(r.ticker)},{_format_timestamp(r.timestamp)},"
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
        if len(set(self.tickers)) != len(self.tickers):
            raise MarketError(f"tickers repeats a value: {', '.join(self.tickers)}")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise MarketError("signal_strength must lie in [0, 1]")
        if not 0.0 <= self.keyword_fraction <= 1.0:
            raise MarketError("keyword_fraction must lie in [0, 1]")
        if _month_key(self.start_month) + self.n_months - 1 > _month_key("9999-12"):
            raise MarketError(f"{self.n_months} months from {self.start_month} run past 9999-12")
        if self.event_end < self.event_start:
            raise MarketError(f"event_end {self.event_end:%H:%M} is before "
                              f"event_start {self.event_start:%H:%M}")
        if self.event_start < TRADING_DAY_START:
            raise MarketError(f"event_start {self.event_start:%H:%M} is before the "
                              f"{TRADING_DAY_START:%H:%M} open")
        if self.jump_delay_minutes < 0:
            raise MarketError(f"jump_delay_minutes must be >= 0, got {self.jump_delay_minutes}")
        last_jump = self.event_end.hour * 60 + self.event_end.minute + self.jump_delay_minutes
        if last_jump > TRADING_DAY_END.hour * 60 + TRADING_DAY_END.minute:
            raise MarketError(f"a jump {self.jump_delay_minutes} minutes after event_end "
                              f"{self.event_end:%H:%M} falls past the {TRADING_DAY_END:%H:%M} close")
        if not 0.0 <= self.surprise_rate <= 1.0:
            raise MarketError("surprise_rate must lie in [0, 1]")
        if not abs(self.jump_size) * (1.0 + abs(self.jump_jitter)) < 1.0:
            raise MarketError("a jump must move the price by less than 100%: "
                              "|jump_size| * (1 + |jump_jitter|) must be below 1")


@dataclass
class SynthTruth:
    doc_id: str
    has_keyword: bool
    jump: bool
    jump_return: float


def trading_days(start_month: str, n_months: int) -> list[datetime]:
    """Weekdays of the month range, as midnight UTC datetimes."""
    days = []
    first = _month_key(start_month)
    for month in map(_key_month, range(first, first + n_months)):
        start = datetime.strptime(month, "%Y-%m").replace(tzinfo=timezone.utc)
        n_days = calendar.monthrange(start.year, start.month)[1]  # no step past the month's last day
        days += [d for d in (start.replace(day=k) for k in range(1, n_days + 1)) if d.weekday() < 5]
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
    gap = spec.min_event_gap_minutes
    if gap > 0:  # events on one ticker-day stand at least `gap` minutes apart
        fit = len(days) * len(spec.tickers) * ((ev_hi - ev_lo) // gap + 1)
        if spec.n_events > fit:
            raise MarketError(f"cannot place {spec.n_events} events: at most {fit} fit in "
                              f"{len(days)} days x {len(spec.tickers)} tickers at a {gap}-minute gap")

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
            base_epoch = int((day + timedelta(minutes=day_start_min)).timestamp())
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
