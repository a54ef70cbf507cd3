import json
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from oracles import naive_tfidf

from newsmkl.text import (Dictionary, Document, TextError,
                          bag_of_words, default_dictionary, fit_tfidf,
                          parse_dictionary, read_documents, tokenize, transform_tfidf_many,
                          write_documents)

# the worked example: a press release about an acquisition, scored against
# the ten stems shown with it
EXAMPLE_TEXT = (
    "LONDON — Dec. 12, 2007 — Microsoft Corp. has acquired Multimap, one of the "
    "United Kingdom’s top 100 technology companies and one of the leading online "
    "mapping services in the world. The acquisition gives Microsoft a powerful new "
    "location and mapping technology to complement existing offerings such as Virtual "
    "Earth, Live Search, Windows Live services, MSN and the aQuantive advertising "
    "platform, with future integration potential for a range of other Microsoft "
    "products and platforms. Terms of the deal were not disclosed."
)
EXAMPLE_STEMS = ("increas", "decreas", "acqui", "lead", "up", "down",
                 "bankrupt", "powerful", "potential", "integrat")
EXAMPLE_COUNTS = (0, 0, 2, 1, 0, 0, 0, 1, 1, 1)


class TestDictionary:
    def test_validation(self):
        with pytest.raises(TextError):
            Dictionary(stems=())
        with pytest.raises(TextError):
            Dictionary(stems=("ok", "ok"))
        with pytest.raises(TextError):
            Dictionary(stems=("Upper",))
        with pytest.raises(TextError):
            Dictionary(stems=("two words",))
        # tokenize strips every character but a-z and 0-9, so no cleaned token could match these
        for stem in ("m&a", "é", "\ufeffacqui", "up-"):
            with pytest.raises(TextError, match="a stem is made of a-z and 0-9"):
                Dictionary(stems=(stem,))

    def test_parse_skips_comments_and_blanks(self):
        d = parse_dictionary("# comment\nacqui\n\nlead\n# more\nup\n")
        assert d.stems == ("acqui", "lead", "up")

    def test_parse_lowercases_and_names_the_bad_line(self):
        assert parse_dictionary("ACQUI\r\nLead\n").stems == ("acqui", "lead")
        with pytest.raises(TextError, match="^stems.txt:4: bad dictionary line: duplicate stem 'up'$"):
            parse_dictionary("up\n\n# c\nUP\n", source="stems.txt")

    def test_stem_index_is_not_part_of_identity(self):
        import pickle

        d = Dictionary(stems=("up", "acqui", "upgrad"))
        assert d == Dictionary(stems=("up", "acqui", "upgrad")) and hash(d) == hash(Dictionary(stems=d.stems))
        assert "_by_first" not in repr(d)
        copy = pickle.loads(pickle.dumps(d))
        np.testing.assert_array_equal(bag_of_words("upgrade acquired", copy), [1, 1, 1])

    def test_default_dictionary_loads(self):
        d = default_dictionary()
        assert d.size > 100
        assert "acqui" in d.stems


class TestBagOfWords:
    def test_reproduces_worked_example_exactly(self):
        counts = bag_of_words(EXAMPLE_TEXT, Dictionary(stems=EXAMPLE_STEMS))
        assert tuple(counts.tolist()) == EXAMPLE_COUNTS

    def test_empty_text_gives_zero_vector(self):
        counts = bag_of_words("", Dictionary(stems=EXAMPLE_STEMS))
        np.testing.assert_array_equal(counts, 0)

    def test_case_folded_prefix_match(self):
        counts = bag_of_words("Acquired ACQUISITION acquirer", Dictionary(stems=("acqui",)))
        assert counts[0] == 3

    def test_punctuation_stripped_before_matching(self):
        counts = bag_of_words("'Acquired,' (acquisition)!", Dictionary(stems=("acqui",)))
        assert counts[0] == 2

    def test_token_can_hit_multiple_stems(self):
        counts = bag_of_words("upgrade", Dictionary(stems=("up", "upgrad")))
        np.testing.assert_array_equal(counts, [1, 1])

    def test_document_text_counts(self):
        from datetime import datetime, timezone

        doc = Document(id="d1", timestamp=datetime(2007, 12, 12, tzinfo=timezone.utc),
                       ticker="MSFT", text=EXAMPLE_TEXT)
        counts = bag_of_words(doc.text, Dictionary(stems=EXAMPLE_STEMS))
        assert tuple(counts.tolist()) == EXAMPLE_COUNTS


class TestTfidf:
    def test_df_of_ubiquitous_term_gives_zero_idf(self):
        idf = fit_tfidf(np.array([[1], [2], [5]]))
        assert idf.shape == (1,)
        assert idf[0] == 0.0

    def test_absent_stem_idf_zero_by_convention(self):
        idf = fit_tfidf(np.array([[0], [0], [0]]))
        assert idf.shape == (1,)
        assert idf[0] == 0.0

    def test_idf_log_formula(self):
        idf = fit_tfidf(np.array([[1], [0], [0], [0]]))
        assert idf[0] == pytest.approx(np.log(4.0), rel=1e-15)

    def test_transform_formula(self):
        idf = fit_tfidf(np.array([[1], [0], [0], [0]]))  # DF 1 of N 4
        v = transform_tfidf_many(idf, [[2]], [72])
        assert v.shape == (1, 1)
        assert v[0, 0] == pytest.approx((2 / 72) * np.log(4.0), rel=1e-15)

    def test_zero_idf_kills_component(self):
        idf = fit_tfidf(np.ones((5, 1)))  # DF 5 of N 5
        assert transform_tfidf_many(idf, [[17]], [10])[0, 0] == 0.0

    def test_zero_length_with_counts_rejected(self):
        idf = fit_tfidf(np.array([[1], [0]]))  # DF 1 of N 2
        with pytest.raises(TextError):
            transform_tfidf_many(idf, [[3]], [0])
        # a zero-length document without counts is a zero row
        np.testing.assert_array_equal(transform_tfidf_many(idf, [[0]], [0]), [[0.0]])

    def test_count_matrix_shape_checked(self):
        # DF (1, 2, 0) of N 4
        idf = fit_tfidf(np.array([[1, 1, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]]))
        with pytest.raises(TextError):
            transform_tfidf_many(idf, np.ones((2, 1)), [5, 5])  # would broadcast against idf
        with pytest.raises(TextError):
            transform_tfidf_many(idf, [1, 0, 2], [5])  # one row, not a (1, n_stems) matrix
        with pytest.raises(TextError):
            transform_tfidf_many(idf, np.ones((2, 3)), [5])

    def test_matches_naive_recompute_to_1e12(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            counts = rng.integers(0, 4, size=(12, 7))
            lengths = rng.integers(20, 100, size=12)
            model = fit_tfidf(counts)
            mine = transform_tfidf_many(model, counts, lengths)
            naive = naive_tfidf(counts, lengths)
            np.testing.assert_allclose(mine, naive, atol=1e-12)

    def test_componentwise_nonnegative(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 3, size=(10, 5))
        model = fit_tfidf(counts)
        v = transform_tfidf_many(model, counts, np.full(10, 30))
        assert np.all(v >= 0.0)

    def test_transform_never_mutates_model(self):
        train = np.array([[1, 0], [0, 2], [1, 1]])
        idf = fit_tfidf(train)
        idf_before = idf.copy()
        transform_tfidf_many(idf, [[5, 5]], [9])
        np.testing.assert_array_equal(idf, idf_before)
        assert not idf.flags.writeable
        with pytest.raises(ValueError):
            idf[0] = 1.0

    def test_duplicating_text_leaves_tf_unchanged(self):
        d = Dictionary(stems=("acqui", "lead"))
        text = "acquired the leading maker of things"
        once = bag_of_words(text, d) / len(tokenize(text))
        twice_text = text + " " + text
        twice = bag_of_words(twice_text, d) / len(tokenize(twice_text))
        np.testing.assert_allclose(once, twice, rtol=1e-15)


class TestTokenCount:
    def test_counts_all_words_not_just_dictionary_hits(self):
        assert len(tokenize("alpha beta gamma")) == 3

    def test_pure_punctuation_tokens_ignored(self):
        assert len(tokenize("alpha — beta --- gamma")) == 3


class TestReadDocuments:
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        good = b'{"id": "a", "timestamp": "2004-01-05T11:00:00Z", "ticker": "AAA", "text": "up"}\n'
        path.write_bytes(good + good.replace(b"up", b"up \xff down") + good)
        message = f"{path}:2: bad document record: bytes that are not UTF-8"
        with pytest.raises(TextError, match="^" + re.escape(message)):
            read_documents(path)

    def test_utf8_text_is_read(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "timestamp": "2004-01-05T11:00:00Z", "ticker": "AAA", '
                        '"text": "Zürich ↑"}\n', encoding="utf-8")
        [doc] = read_documents(path)
        assert doc.text == "Zürich ↑"

    GOOD = {"id": "a", "timestamp": "2004-01-05T11:00:00Z", "ticker": "AAA", "text": "up"}

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "a document line must be a JSON object"),
        ('"a document"', "a document line must be a JSON object"),
        ({**GOOD, "timestamp": 5}, "timestamp must be a string, got 5"),
        ({**GOOD, "ticker": None}, "ticker must be a string, got null"),
        ({**GOOD, "text": None}, "text must be a string, got null"),
        ({**GOOD, "text": ["up"]}, 'text must be a string, got ["up"]'),
        ({**GOOD, "id": None}, "id must be a string or a number, got null"),
        ({**GOOD, "id": True}, "id must be a string or a number, got true"),
        ({**GOOD, "id": ["a"]}, 'id must be a string or a number, got ["a"]'),
        ({**GOOD, "id": {"a": 1}}, 'id must be a string or a number, got {"a": 1}'),
    ])
    def test_record_of_the_wrong_shape_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "docs.jsonl"
        good = json.dumps(self.GOOD)
        bad = line if isinstance(line, str) else json.dumps(line)
        path.write_text("\n".join([good, good, bad, good]) + "\n", encoding="utf-8")
        with pytest.raises(TextError, match="^" + re.escape(f"{path}:3: bad document record: {message}")):
            read_documents(path)

    def test_timestamps_are_held_and_written_in_utc(self, tmp_path):
        eastern = timezone(timedelta(hours=-5))
        doc = Document(id="a", timestamp=datetime(2004, 1, 5, 10, 0, tzinfo=eastern), ticker="AAA",
                       text="up")
        naive = Document(id="b", timestamp=datetime(2004, 1, 5, 15, 1), ticker="AAA", text="up")
        assert doc.timestamp == naive.timestamp - timedelta(minutes=1)
        assert doc.timestamp.utcoffset() == naive.timestamp.utcoffset() == timedelta(0)
        path = tmp_path / "docs.jsonl"
        write_documents(path, [doc, naive])
        stamps = [json.loads(line)["timestamp"] for line in path.read_text().splitlines()]
        assert stamps == ["2004-01-05T15:00:00Z", "2004-01-05T15:01:00Z"]
        assert read_documents(path) == [doc, naive]

    def test_numeric_id_is_read_as_text(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({**self.GOOD, "id": 17}) + "\n", encoding="utf-8")
        [doc] = read_documents(path)
        assert doc.id == "17" and doc.ticker == "AAA" and doc.text == "up"
