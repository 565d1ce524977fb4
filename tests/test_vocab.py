"""Vocabulary tests: shortlist ranking, the total token-to-id mapping with
hashed OOV buckets, sample encoding, and the exact save/load round trip."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casreader import vocab as V
from casreader.datagen import ClozeSample
from casreader.errors import ParseError, UsageError, ValidationError


def fnv_oracle(s: str) -> int:
    """Independent FNV-1a 64 for cross-checking the shipped hash."""
    return reduce(lambda h, b: ((h ^ b) * 0x100000001B3) % 2**64, s.encode("utf-8"), 0xCBF29CE484222325)


class TestBuildVocab:
    def test_top_k_by_frequency(self):
        v = V.build_vocab(["a"] * 3 + ["b"] * 2 + ["c"], shortlist_size=2)
        assert "a" in v.tokens and "b" in v.tokens and "c" not in v.tokens
        assert v.token_to_id("a") == V.FIRST_REGULAR_ID
        assert v.token_to_id("b") == V.FIRST_REGULAR_ID + 1

    def test_tie_breaks_lexicographically(self):
        v = V.build_vocab(["b", "a", "b", "a"], shortlist_size=1)
        assert "a" in v.tokens and "b" not in v.tokens

    def test_shortlist_larger_than_vocab_keeps_all(self):
        v = V.build_vocab(["x", "y"], shortlist_size=100)
        assert "x" in v.tokens and "y" in v.tokens

    def test_unbounded_shortlist(self):
        v = V.build_vocab(["x", "y", "z"], shortlist_size=None)
        assert len(v.tokens) == 3

    def test_empty_stream_rejected(self):
        with pytest.raises(UsageError):
            V.build_vocab([], shortlist_size=10)

    def test_placeholder_never_enters_shortlist(self):
        v = V.build_vocab([V.PLACEHOLDER_TOKEN, "a", V.PLACEHOLDER_TOKEN], shortlist_size=5)
        assert v.tokens == ["a"]
        assert V.build_vocab([V.PAD_TOKEN, V.PLACEHOLDER_TOKEN], shortlist_size=5).tokens == []

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        stream = ["a"] * 5 + ["b"] * 3 + ["c"] * 3 + ["d"]
        shuffled = list(stream)
        rng.shuffle(shuffled)
        assert V.build_vocab(stream, 3) == V.build_vocab(shuffled, 3)


class TestTokenToId:
    def test_known_token(self):
        v = V.build_vocab(["a", "b", "a"], shortlist_size=10)
        assert v.token_to_id("a") == V.FIRST_REGULAR_ID

    def test_placeholder_maps_to_reserved_id(self):
        v = V.build_vocab(["a"], shortlist_size=10)
        assert v.token_to_id(V.PLACEHOLDER_TOKEN) == V.PLACEHOLDER_ID

    def test_oov_is_deterministic(self):
        v = V.build_vocab(["a"], shortlist_size=10)
        assert v.token_to_id("missing") == v.token_to_id("missing")

    def test_oov_bucket_matches_frozen_hash(self):
        # FNV-1a 64 of "zzz_unseen" is 6555436284104228490; mod 10 -> bucket 0.
        v = V.build_vocab(["a"], shortlist_size=10)
        assert fnv_oracle("zzz_unseen") == 6555436284104228490
        assert v.token_to_id("zzz_unseen") == V.OOV_BASE_ID + 0

    @settings(max_examples=100, deadline=None)
    @given(st.text(min_size=0, max_size=20))
    def test_fnv_matches_independent_oracle(self, s):
        assert V.fnv1a64(s.encode("utf-8")) == fnv_oracle(s)

    def test_bucket_spread_roughly_uniform(self):
        rng = np.random.default_rng(1)
        v = V.build_vocab(["a"], shortlist_size=10)
        counts = np.zeros(V.NUM_OOV_BUCKETS)
        for i in range(10_000):
            token = f"oov-{rng.integers(10**9)}-{i}"
            counts[v.token_to_id(token) - V.OOV_BASE_ID] += 1
        assert np.all(counts >= 500) and np.all(counts <= 1500)

    def test_id_to_token_round_trip(self):
        v = V.build_vocab(["alpha", "beta", "alpha"], shortlist_size=10)
        for tok in ("alpha", "beta"):
            assert v.id_to_token(v.token_to_id(tok)) == tok
        assert v.id_to_token(V.PLACEHOLDER_ID) == V.PLACEHOLDER_TOKEN


class TestEncodeSample:
    def make_sample(self, document, query, answer):
        return ClozeSample(document=document, query=query, answer=answer)

    def test_in_vocabulary_sample(self):
        v = V.build_vocab(["a", "b", "c", "a"], shortlist_size=10)
        s = self.make_sample(["a", "b", "a"], ["c", V.PLACEHOLDER_TOKEN], "a")
        enc = V.encode_sample(v, s)
        assert enc.answer_id == v.token_to_id("a")
        assert list(enc.query_ids).count(V.PLACEHOLDER_ID) == 1

    def test_oov_answer_still_matches_document(self):
        v = V.build_vocab(["filler"], shortlist_size=1)
        s = self.make_sample(["rareword", "filler", "rareword"], [V.PLACEHOLDER_TOKEN], "rareword")
        enc = V.encode_sample(v, s)
        assert enc.answer_id in enc.doc_ids  # same surface hashes to the same bucket

    def test_flag_set_when_answer_absent(self):
        # Only constructible by bypassing sample validation.
        v = V.build_vocab(["a", "b"], shortlist_size=10)
        s = self.make_sample(["a"], [V.PLACEHOLDER_TOKEN], "b")
        with pytest.raises(ValidationError, match="answer 'b'"):
            V.encode_sample(v, s)


class TestSaveLoad:
    def test_round_trip_identity(self, tmp_path):
        v = V.build_vocab(["a", "b", "b", "c", "c", "c"], shortlist_size=3)
        path = tmp_path / "vocab.txt"
        V.save_vocab(v, path)
        assert V.load_vocab(path) == v

    def test_round_trip_unbounded(self, tmp_path):
        v = V.build_vocab(["x", "y"], shortlist_size=None)
        path = tmp_path / "vocab.txt"
        V.save_vocab(v, path)
        loaded = V.load_vocab(path)
        assert loaded == v and loaded.shortlist_size is None

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("casreader-vocab-v99\tshortlist=5\na\t3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            V.load_vocab(path)

    def test_duplicate_token_names_token(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text(
            "casreader-vocab-v1\tshortlist=5\na\t3\na\t2\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="'a'"):
            V.load_vocab(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("casreader-vocab-v1\tshortlist=5\na\t3\nnotab\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3"):
            V.load_vocab(path)

    def test_empty_token_is_parse_error_naming_line(self, tmp_path):
        """`save_vocab` refuses an empty token, so loading one must fail too."""
        path = tmp_path / "vocab.txt"
        path.write_text("casreader-vocab-v1\tshortlist=none\n\t5\ncue01\t3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: empty token"):
            V.load_vocab(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("casreader-vocab-v1\tshortlist=5\na\t\u00b2\n", 2),
            ("casreader-vocab-v1\tshortlist=\u00b2\na\t3\n", 1),
            ("casreader-vocab-v1\tshortlist=5\na\t\u0663\n", 2),
            ("casreader-vocab-v1\tshortlist=\u0663\na\t3\n", 1),
            ("casreader-vocab-v1\tshortlist=5\na\t03\n", 2),
            ("casreader-vocab-v1\tshortlist=007\na\t3\n", 1),
            ("casreader-vocab-v1\tshortlist=0\na\t3\n", 1),
        ],
        ids=["frequency", "shortlist", "arabic-indic-frequency", "arabic-indic-shortlist",
             "leading-zero-frequency", "leading-zero-shortlist", "zero-shortlist"],
    )
    def test_non_decimal_digit_is_parse_error(self, tmp_path, text, line):
        """'²' passes `str.isdigit` but not `int`; '٣' and '007' pass `int` but
        `save_vocab` never writes them, nor a shortlist of 0 (it writes `none`)."""
        path = tmp_path / "vocab.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"line {line}"):
            V.load_vocab(path)

    def test_undecodable_line_is_parse_error_naming_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"casreader-vocab-v1\tshortlist=5\na\t3\nb\xff\t2\n")
        with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
            V.load_vocab(path)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.text(
                alphabet=st.characters(exclude_characters="\t\n\r", max_codepoint=0x2FFF),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, tokens):
        v = V.build_vocab(tokens, shortlist_size=20)
        if not v.tokens:
            return  # stream held only reserved literals
        path = tmp_path_factory.mktemp("vocab") / "v.txt"
        V.save_vocab(v, path)
        assert V.load_vocab(path) == v

    def test_unrepresentable_token_rejected_at_save(self, tmp_path):
        v = V.build_vocab(["ok", "bad\ttoken", "ok"], shortlist_size=None)
        with pytest.raises(ValidationError, match="not representable"):
            V.save_vocab(v, tmp_path / "v.txt")
        assert not (tmp_path / "v.txt").exists()
