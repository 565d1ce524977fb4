"""Triple-generation tests: candidate selection, the blanking procedure and
its invariants over random corpora, corpus parsing, and size statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casreader import datagen as dg
from casreader.errors import ParseError, UsageError, ValidationError
from casreader.vocab import PLACEHOLDER_TOKEN


def doc_from_sentences(sentences, doc_id="d0"):
    return dg.TaggedDocument(sentences=sentences, doc_id=doc_id)


RIVER_DOC = doc_from_sentences(
    [
        [("the", "DT"), ("river", "n"), ("flows", "v"), ("north", "n")],
        [("a", "DT"), ("river", "n"), ("bends", "v"), ("east", "n")],
        [("sky", "n"), ("is", "v"), ("blue", "ADJ")],
    ]
)


class TestCandidateAnswers:
    def test_noun_twice_qualifies_once_does_not(self):
        cands = dg.candidate_answers(RIVER_DOC)
        assert "river" in cands
        assert "sky" not in cands  # single occurrence
        assert "north" not in cands and "east" not in cands

    def test_no_nouns_gives_empty_set(self):
        doc = doc_from_sentences([[("run", "v"), ("run", "v"), ("run", "v")]])
        assert dg.candidate_answers(doc) == {}

    def test_mixed_tag_surface_counts_noun_occurrences_only(self):
        doc = doc_from_sentences(
            [[("bank", "n"), ("the", "DT")], [("bank", "v"), ("left", "v")]]
        )
        assert dg.candidate_answers(doc) == {}

    def test_positions_are_noun_tagged_only(self):
        doc = doc_from_sentences(
            [[("bank", "n"), ("x", "DT")], [("bank", "v"), ("y", "v")], [("bank", "n"), ("z", "DT")]]
        )
        cands = dg.candidate_answers(doc)
        assert cands["bank"] == [(0, 0), (2, 0)]

    def test_custom_noun_tags(self):
        doc = doc_from_sentences([[("w", "n"), ("w", "n")], [("x", "NOUN"), ("x", "NOUN")]])
        assert dg.candidate_answers(doc, frozenset({"NOUN"})) == {"x": [(1, 0), (1, 1)]}

    def test_default_noun_tags(self):
        doc = doc_from_sentences([[(tag, tag), (tag, tag)] for tag in ("n", "NN", "NNS", "NOUN", "v", "nn")])
        assert sorted(dg.candidate_answers(doc)) == ["NN", "NNS", "NOUN", "n"]


class TestGenerateSamples:
    def test_river_sample_structure(self):
        rng = np.random.default_rng(0)
        samples = dg.generate_samples(RIVER_DOC, rng)
        assert len(samples) == 1
        s = samples[0]
        assert s.answer == "river"
        assert s.query.count(PLACEHOLDER_TOKEN) == 1
        assert s.document.count("river") >= 1
        dg.validate_sample(s)

    def test_zero_candidates_gives_zero_samples(self):
        doc = doc_from_sentences([[("go", "v"), ("go", "v")]])
        assert dg.generate_samples(doc, np.random.default_rng(0)) == []

    def test_deterministic_given_seed(self):
        a = dg.generate_samples(RIVER_DOC, np.random.default_rng(7), samples_per_doc=2)
        b = dg.generate_samples(RIVER_DOC, np.random.default_rng(7), samples_per_doc=2)
        assert a == b

    def test_pairs_never_reused(self):
        samples = dg.generate_samples(RIVER_DOC, np.random.default_rng(1), samples_per_doc=10)
        blanked = {(s.meta["query_sentence"], tuple(s.query)) for s in samples}
        assert len(blanked) == len(samples)
        assert len(samples) == 2  # "river" has exactly two eligible occurrences

    def test_same_sentence_duplicate_answer_is_ineligible(self):
        doc = doc_from_sentences([[("w", "n"), ("w", "n")], [("u", "v"), ("q", "n")]])
        assert dg.generate_samples(doc, np.random.default_rng(0), samples_per_doc=5) == []

    def test_splice_back_reproduces_sentence(self):
        samples = dg.generate_samples(RIVER_DOC, np.random.default_rng(3), samples_per_doc=2)
        for s in samples:
            original = [tok for tok, _ in RIVER_DOC.sentences[s.meta["query_sentence"]]]
            spliced = [s.answer if t == PLACEHOLDER_TOKEN else t for t in s.query]
            assert spliced == original

    def test_answer_count_drops_by_exactly_one(self):
        samples = dg.generate_samples(RIVER_DOC, np.random.default_rng(4), samples_per_doc=2)
        full = [tok for sent in RIVER_DOC.sentences for tok, _ in sent]
        for s in samples:
            assert s.document.count(s.answer) == full.count(s.answer) - 1
            assert s.document.count(s.answer) >= 1


class TestGenerateCorpus:
    def test_skips_reported_not_raised(self):
        docs = [
            RIVER_DOC,
            doc_from_sentences([[("go", "v"), ("go", "v")]], doc_id="verbs"),
        ]
        samples, skips = dg.generate_corpus(docs, seed=5)
        assert len(samples) == 1
        assert [s.doc_id for s in skips] == ["verbs"]
        assert skips[0].reason == "no-candidates"

    def test_skip_reason_tells_missing_candidates_from_ineligible_ones(self):
        twice_in_one_sentence = doc_from_sentences([[("w", "n"), ("w", "n")]], doc_id="same")
        samples, skips = dg.generate_corpus([twice_in_one_sentence], seed=5)
        assert samples == [] and [(s.doc_id, s.reason) for s in skips] == [("same", "no-eligible-occurrence")]
        _, skips = dg.generate_corpus([twice_in_one_sentence], seed=5, noun_tags=frozenset({"NOUN"}))
        assert [(s.doc_id, s.reason) for s in skips] == [("same", "no-candidates")]

    def test_order_independent_per_document_streams(self):
        other = doc_from_sentences(
            [[("tree", "n"), ("grows", "v")], [("tree", "n"), ("falls", "v")]], doc_id="d1"
        )
        forward, _ = dg.generate_corpus([RIVER_DOC, other], seed=9)
        backward, _ = dg.generate_corpus([other, RIVER_DOC], seed=9)
        assert sorted(map(repr, forward)) == sorted(map(repr, backward))


@st.composite
def tagged_documents(draw):
    noun_pool = [f"n{i}" for i in range(6)]
    other_pool = ["go", "see", "red", "the"]
    n_sent = draw(st.integers(min_value=1, max_value=6))
    sentences = []
    for _ in range(n_sent):
        length = draw(st.integers(min_value=1, max_value=7))
        sent = []
        for _ in range(length):
            if draw(st.booleans()):
                sent.append((draw(st.sampled_from(noun_pool)), "n"))
            else:
                sent.append((draw(st.sampled_from(other_pool)), "v"))
        sentences.append(sent)
    return dg.TaggedDocument(sentences=sentences, doc_id=f"h{draw(st.integers(0, 10**6))}")


@settings(max_examples=150, deadline=None)
@given(tagged_documents(), st.integers(min_value=1, max_value=4), st.integers(0, 2**31 - 1))
def test_every_generated_sample_satisfies_invariants(doc, per_doc, seed):
    samples = dg.generate_samples(doc, np.random.default_rng(seed), samples_per_doc=per_doc)
    full = [tok for sent in doc.sentences for tok, _ in sent]
    for s in samples:
        dg.validate_sample(s)
        assert s.document.count(s.answer) == full.count(s.answer) - 1
        original = [tok for tok, _ in doc.sentences[s.meta["query_sentence"]]]
        spliced = [s.answer if t == PLACEHOLDER_TOKEN else t for t in s.query]
        assert spliced == original
        position = (s.meta["query_sentence"], s.query.index(PLACEHOLDER_TOKEN))
        assert dg.candidate_answers(doc)[s.answer][s.meta["answer_occurrence"]] == position


class TestValidateSample:
    def test_rejects_double_placeholder(self):
        s = dg.ClozeSample(
            document=["a", "b", "a"], query=[PLACEHOLDER_TOKEN, PLACEHOLDER_TOKEN], answer="a"
        )
        with pytest.raises(ValidationError, match="placeholder"):
            dg.validate_sample(s)

    def test_rejects_answer_still_in_query(self):
        s = dg.ClozeSample(document=["a", "b", "a"], query=[PLACEHOLDER_TOKEN, "a"], answer="a")
        with pytest.raises(ValidationError, match="query"):
            dg.validate_sample(s)

    def test_rejects_answer_missing_from_document(self):
        s = dg.ClozeSample(document=["b", "c"], query=[PLACEHOLDER_TOKEN, "b"], answer="a")
        with pytest.raises(ValidationError, match="document"):
            dg.validate_sample(s)


class TestParseTaggedCorpus:
    def test_round_trip_parse(self, tmp_path):
        text = (
            "#doc d0\n"
            "the\tDT\nriver\tn\n\n"
            "sky\tn\nis\tv\n\n"
            "#doc d1\n"
            "tree\tn\n"
        )
        path = tmp_path / "corpus.txt"
        path.write_text(text, encoding="utf-8")
        docs = dg.parse_tagged_corpus(path)
        assert [d.doc_id for d in docs] == ["d0", "d1"]
        assert docs[0].sentences == [[("the", "DT"), ("river", "n")], [("sky", "n"), ("is", "v")]]
        assert docs[1].sentences == [[("tree", "n")]]

    def test_malformed_token_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("#doc d0\nnotab\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            dg.parse_tagged_corpus(path)

    def test_token_before_header(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("tok\tn\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            dg.parse_tagged_corpus(path)

    def test_token_starting_with_doc_is_not_a_header(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("#doc d0\nriver\tn\n#doctor\tNN\n\n#doc\td1\nsky\tn\n", encoding="utf-8")
        docs = dg.parse_tagged_corpus(path)
        assert [d.doc_id for d in docs] == ["d0", "d1"]
        assert docs[0].sentences == [[("river", "n"), ("#doctor", "NN")]]

    def test_undecodable_line_is_parse_error_naming_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"#doc d0\nriver\tn\nsk\xffy\tn\n")
        with pytest.raises(ParseError, match="line 3: not valid UTF-8"):
            dg.parse_tagged_corpus(path)

    def test_empty_document_rejected(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("#doc d0\n\n#doc d1\nx\tn\n", encoding="utf-8")
        with pytest.raises(ParseError, match="d0"):
            dg.parse_tagged_corpus(path)


class TestDatasetStats:
    def test_single_sample(self):
        s = dg.ClozeSample(
            document=list("abcdefghij"), query=["x", PLACEHOLDER_TOKEN, "y", "z"], answer="a"
        )
        stats = dg.dataset_stats([s])
        assert stats.query_count == 1
        assert stats.max_doc_tokens == 10 and stats.avg_doc_tokens == 10
        assert stats.max_query_tokens == 4 and stats.avg_query_tokens == 4

    def test_average_of_two(self):
        s1 = dg.ClozeSample(document=["a"] * 10, query=[PLACEHOLDER_TOKEN, "a"], answer="a")
        s2 = dg.ClozeSample(document=["a"] * 20, query=[PLACEHOLDER_TOKEN, "a"], answer="a")
        stats = dg.dataset_stats([s1, s2])
        assert stats.avg_doc_tokens == 15

    def test_vocabulary_excludes_placeholder(self):
        s = dg.ClozeSample(document=["a", "b", "a"], query=[PLACEHOLDER_TOKEN, "c"], answer="a")
        assert dg.dataset_stats([s]).vocabulary_size == 3

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            dg.dataset_stats([])
