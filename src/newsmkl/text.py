"""Bag-of-words and tf-idf featurization of press-release text.

The dictionary is an ordered list of lowercase stems ("acqui",
"integrat", ...). A token counts toward stem j when its lowercase,
punctuation-stripped form begins with the stem, so "Acquired" and
"ACQUISITION" both hit "acqui". tf-idf weighting:

    TFIDF(i, j) = (count of stem i in doc j / tokens in doc j) * log(N / DF(i))

with DF fit on the training corpus only and IDF defined as 0 for stems
that never occur (DF = 0).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib import resources

import numpy as np

_CLEAN = re.compile(r"[^a-z0-9]+")


class TextError(ValueError):
    """Malformed dictionary, document, or featurization input."""


@dataclass(frozen=True)
class Dictionary:
    """Ordered, unique, lowercase stems, indexed by first letter as
    (stem, position) pairs, with a memo from each cleaned token seen by
    `bag_of_words` to the positions of the stems it starts with."""

    stems: tuple[str, ...]
    _by_first: dict[str, list[tuple[str, int]]] = field(init=False, repr=False, compare=False)
    _hits: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stems = tuple(self.stems)
        if not stems:
            raise TextError("dictionary is empty")
        seen = set()
        for s in stems:
            if not s or s != s.lower() or any(c.isspace() for c in s):
                raise TextError(f"invalid stem {s!r}: stems are nonempty, lowercase, no whitespace")
            if s in seen:
                raise TextError(f"duplicate stem {s!r}")
            seen.add(s)
        object.__setattr__(self, "stems", stems)
        by_first: dict[str, list[tuple[str, int]]] = {}
        for idx, s in enumerate(stems):
            by_first.setdefault(s[0], []).append((s, idx))
        object.__setattr__(self, "_by_first", by_first)
        object.__setattr__(self, "_hits", {})

    def _stems_hit(self, token: str) -> tuple[int, ...]:
        """Positions of the stems a cleaned token starts with, memoized."""
        hit = self._hits.get(token)
        if hit is None:
            hit = self._hits[token] = tuple(idx for stem, idx in self._by_first.get(token[0], ())
                                            if token.startswith(stem))
        return hit

    @property
    def size(self) -> int:
        return len(self.stems)


@dataclass(frozen=True)
class Document:
    id: str
    timestamp: datetime
    ticker: str
    text: str

    def __post_init__(self):
        if not self.ticker:
            raise TextError(f"document {self.id!r} has an empty ticker")
        object.__setattr__(self, "timestamp", _as_utc(self.timestamp))


def _as_utc(t: datetime) -> datetime:
    """`t` in UTC; a naive datetime is read as UTC."""
    return t.replace(tzinfo=timezone.utc) if t.tzinfo is None else t.astimezone(timezone.utc)


def tokenize(text: str) -> list[str]:
    """Whitespace-split tokens, lowercased, stripped of non-alphanumerics."""
    out = []
    for tok in text.split():
        clean = _CLEAN.sub("", tok.lower())
        if clean:
            out.append(clean)
    return out


def bag_of_words(doc: Document | str | list[str], dictionary: Dictionary) -> np.ndarray:
    """Count tokens whose cleaned form starts with each stem; `doc` may also
    be a list of tokens that `tokenize` already produced."""
    if isinstance(doc, list):
        tokens = doc
    else:
        tokens = tokenize(doc.text if isinstance(doc, Document) else doc)
    hits = [idx for tok in tokens for idx in dictionary._stems_hit(tok)]
    return np.bincount(np.array(hits, dtype=np.int64), minlength=dictionary.size)


@dataclass(frozen=True)
class TfidfModel:
    """Per-stem document frequencies fit on a (training) corpus."""

    doc_frequency: np.ndarray
    n_docs: int
    n_stems: int

    def __post_init__(self):
        df = np.asarray(self.doc_frequency, dtype=np.int64)
        if np.any(df < 0) or np.any(df > self.n_docs):
            raise TextError("document frequencies must lie in [0, n_docs]")
        df.flags.writeable = False
        object.__setattr__(self, "doc_frequency", df)

    @property
    def idf(self) -> np.ndarray:
        """log(N / DF), with 0 where DF = 0 (absent stems contribute nothing)."""
        df = self.doc_frequency
        out = np.zeros(self.n_stems, dtype=np.float64)
        present = df > 0
        out[present] = np.log(self.n_docs / df[present])
        return out


def fit_tfidf(corpus) -> TfidfModel:
    """Fit document frequencies from a corpus of count vectors."""
    X = np.asarray(corpus)
    if X.ndim != 2 or X.shape[0] == 0:
        raise TextError("corpus must be a nonempty (n_docs, n_stems) count array")
    df = (X > 0).sum(axis=0).astype(np.int64)
    return TfidfModel(doc_frequency=df, n_docs=X.shape[0], n_stems=X.shape[1])


def transform_tfidf_many(model: TfidfModel, counts: np.ndarray, doc_lengths: np.ndarray) -> np.ndarray:
    """TF-IDF rows for a (n_docs, n_stems) count matrix and each document's
    total token count (the TF denominator: all tokens, not just dictionary
    hits). A zero-length document must have zero counts."""
    C = np.asarray(counts, dtype=np.float64)
    L = np.asarray(doc_lengths, dtype=np.float64).ravel()
    if C.ndim != 2 or C.shape[1] != model.n_stems:
        raise TextError(f"count matrix of shape {C.shape} does not have {model.n_stems} stem columns")
    if L.shape[0] != C.shape[0]:
        raise TextError(f"{L.shape[0]} document lengths for {C.shape[0]} count rows")
    if np.any((L <= 0) & (C.sum(axis=1) > 0)):
        raise TextError("zero doc_length with nonzero counts")
    safe = np.maximum(L, 1.0)
    return (C / safe[:, None]) * model.idf[None, :]


# ---------------------------------------------------------------------------
# File formats: dictionary (newline stems, '#' comments), documents (JSONL),
# features (CSV: id column then one column per stem)
# ---------------------------------------------------------------------------


def load_dictionary(path) -> Dictionary:
    with open(path, encoding="utf-8") as fh:
        return parse_dictionary(fh.read())


def parse_dictionary(content: str) -> Dictionary:
    stems = []
    for line in content.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        stems.append(line.lower())
    return Dictionary(stems=tuple(stems))


def default_dictionary() -> Dictionary:
    """Starter dictionary of finance stems shipped with the package."""
    content = resources.files("newsmkl").joinpath("data/default_stems.txt").read_text("utf-8")
    return parse_dictionary(content)


def _parse_timestamp(raw: str) -> datetime:
    """An ISO-8601 timestamp in UTC (a naive one is read as UTC)."""
    return _as_utc(datetime.fromisoformat(raw.replace("Z", "+00:00")))


def _format_timestamp(t: datetime) -> str:
    """`t` in UTC as `YYYY-MM-DDTHH:MM:SSZ`, the form of every timestamp this package writes."""
    return _as_utc(t).strftime("%Y-%m-%dT%H:%M:%SZ")


def _utf8_line(line: str) -> str:
    """A line read with errors="surrogateescape", returned as it is;
    ValueError if the file's bytes on that line were not UTF-8."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("bytes that are not UTF-8") from None
    return line


def _document(rec) -> Document:
    """The Document of one parsed line: a JSON object whose timestamp,
    ticker and text are strings (the id may also be a number)."""
    if not isinstance(rec, dict):
        raise ValueError("a document line must be a JSON object")
    if isinstance(rec["id"], bool) or not isinstance(rec["id"], (str, int, float)):
        raise ValueError(f"id must be a string or a number, got {json.dumps(rec['id'])}")
    for key in ("timestamp", "ticker", "text"):
        if not isinstance(rec[key], str):
            raise ValueError(f"{key} must be a string, got {json.dumps(rec[key])}")
    return Document(id=str(rec["id"]), timestamp=_parse_timestamp(rec["timestamp"]),
                    ticker=rec["ticker"], text=rec["text"])


def read_documents(path) -> list[Document]:
    """Read a JSON-lines document file (fields: id, timestamp, ticker, text)."""
    docs = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                docs.append(_document(json.loads(_utf8_line(line))))
            except (KeyError, ValueError) as exc:
                raise TextError(f"{path}:{ln}: bad document record: {exc}") from exc
    return docs


def write_documents(path, docs: list[Document]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            rec = {"id": d.id, "timestamp": _format_timestamp(d.timestamp), "ticker": d.ticker,
                   "text": d.text}
            fh.write(json.dumps(rec) + "\n")


def write_features_csv(path, ids: list[str], counts: np.ndarray, dictionary: Dictionary) -> None:
    counts = np.asarray(counts)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id," + ",".join(dictionary.stems) + "\n")
        for doc_id, row in zip(ids, counts):
            fh.write(doc_id + "," + ",".join(str(int(v)) for v in row) + "\n")
