"""Dataset I/O, synthetic corpus, and evaluation-report tests."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casreader import data, reader, synthetic, train
from casreader import evaluate as evaluate_module
from casreader.datagen import ClozeSample, dataset_stats, generate_corpus, parse_tagged_corpus, validate_sample
from casreader.errors import CasReaderError, ConfigurationError, ParseError, UsageError, ValidationError
from casreader.evaluate import evaluate
from casreader.vocab import PLACEHOLDER_TOKEN, build_vocab, load_vocab, save_vocab

from helpers import FRAGMENTS

GOLDEN = Path(__file__).parent / "golden" / "synth_seed0_stats.json"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record(document, query, answer, **extra):
    return json.dumps({"document": document, "query": query, "answer": answer, **extra})


class TestLoadDataset:
    def test_two_valid_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(
            path,
            [
                record(["a", "b", "a"], [PLACEHOLDER_TOKEN, "b"], "a"),
                record(["x", "y", "x"], ["y", PLACEHOLDER_TOKEN], "x"),
            ],
        )
        samples, skipped = data.load_dataset(path)
        assert len(samples) == 2 and skipped == []
        assert samples[0].answer == "a"

    def test_zero_placeholders_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(
            path,
            [
                record(["a", "b", "a"], [PLACEHOLDER_TOKEN, "b"], "a"),
                record(["a", "b", "a"], ["b", "c"], "a"),
            ],
        )
        with pytest.raises(ValidationError, match="line 2"):
            data.load_dataset(path)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (record(["a", "b", "a"], ["b", "c"], "a"), "query must contain exactly one placeholder, found 0"),
            (json.dumps({"document": ["a"], "query": [PLACEHOLDER_TOKEN]}), "missing field 'answer'"),
        ],
        ids=["invariant", "field"],
    )
    def test_validation_error_carries_its_line(self, tmp_path, bad, message):
        path = tmp_path / "d.jsonl"
        write_lines(path, [record(["a", "b", "a"], [PLACEHOLDER_TOKEN, "b"], "a"), "", bad])
        with pytest.raises(ValidationError) as caught:
            data.load_dataset(path)
        assert caught.value.line == 3 and str(caught.value) == f"line 3: {message}"

    @pytest.mark.parametrize("meta", [[], 0, "", False], ids=["list", "zero", "empty-string", "false"])
    def test_falsy_non_object_meta_is_rejected_naming_line(self, tmp_path, meta):
        path = tmp_path / "d.jsonl"
        write_lines(path, [record(["a", "b", "a"], [PLACEHOLDER_TOKEN, "b"], "a", meta=meta)])
        with pytest.raises(ValidationError, match="^line 1: 'meta' must be an object$"):
            data.load_dataset(path)

    def test_null_meta_loads_as_no_meta(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [record(["a", "b", "a"], [PLACEHOLDER_TOKEN, "b"], "a", meta=None)])
        samples, _ = data.load_dataset(path)
        assert samples[0].meta == {}

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [record(["a", "a"], [PLACEHOLDER_TOKEN], "a"), "{not json"])
        with pytest.raises(ParseError, match="line 2"):
            data.load_dataset(path)

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_undecodable_line_is_parse_error_naming_line(self, tmp_path, final_newline):
        """The bad line is the last one, with or without a line break after it."""
        path = tmp_path / "d.jsonl"
        valid = record(["a", "b", "a"], [PLACEHOLDER_TOKEN, "b"], "a").encode()
        end = b"\n" if final_newline else b""
        path.write_bytes(valid + b"\n" + valid.replace(b'"b"', b'"\xff"', 1) + end)
        with pytest.raises(ParseError, match="line 2: not valid UTF-8"):
            data.load_dataset(path)

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_lone_surrogate_is_parse_error_naming_line(self, tmp_path, final_newline):
        """JSON can escape a lone surrogate, which no UTF-8 file written from it could hold.

        The escaped line is the last one, with or without a line break after it.
        """
        path = tmp_path / "d.jsonl"
        end = "\n" if final_newline else ""
        pair = record(["a", "\U0001f600", "a"], [PLACEHOLDER_TOKEN, "\U0001f600"], "a")  # escaped as a valid pair
        assert "\\ud83d\\ude00" in pair
        lone = record(["a", "\udc80", "a"], [PLACEHOLDER_TOKEN, "\udc80"], "a")
        path.write_text(pair + "\n" + lone + end, encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: lone surrogate"):
            data.load_dataset(path)
        path.write_text(pair + end, encoding="utf-8")
        samples, _ = data.load_dataset(path)
        data.save_dataset(samples, tmp_path / "out.jsonl")
        assert data.load_dataset(tmp_path / "out.jsonl")[0] == samples

    @pytest.mark.parametrize("line", ["[" * 100_000, "1" * 5000], ids=["deep-nesting", "long-integer"])
    def test_json_beyond_parser_limits_is_parse_error(self, tmp_path, line):
        path = tmp_path / "d.jsonl"
        write_lines(path, [record(["a", "a"], [PLACEHOLDER_TOKEN], "a"), line])
        with pytest.raises(ParseError, match="line 2: malformed JSON"):
            data.load_dataset(path)

    def test_round_trip(self, tmp_path):
        samples = [
            ClozeSample(
                document=["a", "b", "a"],
                query=[PLACEHOLDER_TOKEN, "b"],
                answer="a",
                candidates=["a", "b"],
                meta={"doc_id": "d0"},
            )
        ]
        path = tmp_path / "d.jsonl"
        data.save_dataset(samples, path)
        loaded, _ = data.load_dataset(path)
        assert loaded == samples

    @pytest.mark.parametrize("final_break", [True, False])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lines_end_where_text_mode_ends_them(self, tmp_path, end, final_break):
        """CRLF and a bare CR end a line as LF does, and an error on the last line
        names it whether or not a line break follows it."""
        path = tmp_path / "d.jsonl"
        good = record(["a", "b", "a"], [PLACEHOLDER_TOKEN, "b"], "a")
        bad = record(["a", "b", "a"], ["b", "c"], "a")
        tail = end if final_break else ""
        path.write_bytes((good + end + good + tail).encode())
        samples, _ = data.load_dataset(path)
        write_lines(path, [good, good])
        assert samples == data.load_dataset(path)[0]
        path.write_bytes((good + end + end + bad + tail).encode())
        with pytest.raises(ValidationError, match="^line 3: query must contain exactly one placeholder"):
            data.load_dataset(path)

    def test_failed_save_leaves_the_earlier_file(self, tmp_path):
        """A sample UTF-8 cannot encode fails the save partway; the file written
        before stays byte-identical and no temporary is left beside it."""
        path = tmp_path / "d.jsonl"
        good = ClozeSample(document=["a", "b", "a"], query=[PLACEHOLDER_TOKEN, "b"], answer="a")
        data.save_dataset([good, good], path)
        before = path.read_bytes()
        lone = ClozeSample(document=["a", "\udc80", "a"], query=[PLACEHOLDER_TOKEN, "b"], answer="a")
        with pytest.raises(UnicodeEncodeError):
            data.save_dataset([good, lone], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]


def _write_dataset(result, path):
    data.save_dataset(result[0], path)


# Each text reader with well-formed starts of its own format, so that the
# arbitrary bytes after them reach past the first line, and the writer that
# must accept whatever the reader returns. The checkpoint manifest has its
# own fuzz in test_train.py: a manifest needs its params.bin beside it, and
# that fuzz also rewrites shapes keeping their element count.
SURROGATE_LINE = record(["a", "\udc80", "a"], [PLACEHOLDER_TOKEN, "b"], "a").encode() + b"\n"
TEXT_READERS = {
    "dataset": (data.load_dataset, _write_dataset,
                [b"", record(["a", "b", "a"], [PLACEHOLDER_TOKEN, "b"], "a").encode() + b"\n", SURROGATE_LINE]),
    "vocab": (load_vocab, save_vocab,
              [b"", b"casreader-vocab-v1\tshortlist=none\n", b"casreader-vocab-v1\tshortlist=3\na\t2\n"]),
    "tagged": (parse_tagged_corpus, None, [b"", b"#doc d0\n", b"#doc d0\nriver\tn\n"]),
}


@settings(max_examples=400, deadline=None)
@example(name="vocab", start=1, body=b"\t5\n")  # an empty token, which save_vocab refuses
@given(
    name=st.sampled_from(sorted(TEXT_READERS)),
    start=st.integers(0, 2),
    body=st.one_of(st.binary(max_size=200), st.lists(st.sampled_from(FRAGMENTS), max_size=60).map(b"".join)),
)
def test_text_readers_raise_only_typed_errors_on_arbitrary_bytes(tmp_path_factory, name, start, body):
    read, write, starts = TEXT_READERS[name]
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(starts[start % len(starts)] + body)
    try:
        result = read(path)
    except CasReaderError:
        return
    if write is not None:
        write(result, path.with_name("written"))


class TestSyntheticCorpus:
    @pytest.mark.parametrize("split", ["train_docs", "valid_docs", "test_docs"])
    @pytest.mark.parametrize("size", [0, -1])
    def test_split_sizes_below_one_rejected(self, split, size):
        with pytest.raises(UsageError, match=f"{split} must be >= 1, got {size}"):
            synthetic.SyntheticConfig(**{split: size})

    def test_vocab_size_floor(self):
        """49 ids leave the 25 distinct fillers a tied document draws."""
        with pytest.raises(UsageError, match="49"):
            synthetic.SyntheticConfig(vocab_size=48)
        for samples in synthetic.generate_synthetic_corpus(synthetic.SyntheticConfig(vocab_size=49, seed=2)).values():
            for s in samples:
                validate_sample(s)

    @pytest.mark.parametrize("size", [synthetic.MAX_VOCAB_SIZE + 1, 2**70])
    def test_vocab_size_ceiling(self, size):
        """A size past the cap is refused before any filler name is built."""
        with pytest.raises(UsageError, match=f"got {size}"):
            synthetic.SyntheticConfig(vocab_size=size)

    def test_vocab_size_at_the_ceiling_is_served(self):
        cfg = synthetic.SyntheticConfig(vocab_size=synthetic.MAX_VOCAB_SIZE, train_docs=1, valid_docs=1, test_docs=1)
        for samples in synthetic.generate_synthetic_corpus(cfg).values():
            for s in samples:
                validate_sample(s)

    def test_every_record_passes_validation(self):
        splits = synthetic.generate_synthetic_corpus(synthetic.SyntheticConfig(seed=3))
        for samples in splits.values():
            for s in samples:
                validate_sample(s)
                assert s.candidates and s.answer in s.candidates

    def test_deterministic(self):
        a = synthetic.generate_synthetic_corpus(synthetic.SyntheticConfig(seed=5))
        b = synthetic.generate_synthetic_corpus(synthetic.SyntheticConfig(seed=5))
        assert a == b

    def test_splits_disjoint_by_document(self):
        splits = synthetic.generate_synthetic_corpus(synthetic.SyntheticConfig(seed=1))
        ids = [s.meta["doc_id"] for samples in splits.values() for s in samples]
        assert len(ids) == len(set(ids))

    def test_baseline_in_band(self):
        splits = synthetic.generate_synthetic_corpus(synthetic.SyntheticConfig(seed=0))
        acc = synthetic.baseline_accuracy(splits["test"])
        assert 0.6 <= acc <= 0.9

    def test_stats_match_golden(self):
        golden = json.loads(GOLDEN.read_text())
        splits = synthetic.generate_synthetic_corpus(synthetic.SyntheticConfig(seed=0))
        for split, samples in splits.items():
            assert dataset_stats(samples).as_dict() == golden[split]
        assert synthetic.baseline_accuracy(splits["test"]) == golden["baseline_test_accuracy"]

    def test_frequency_baseline_tie_break(self):
        s = ClozeSample(
            document=["noun01", "noun00", "noun01", "noun00"],
            query=[PLACEHOLDER_TOKEN, "x"],
            answer="noun01",
            candidates=["noun00", "noun01"],
        )
        assert synthetic.frequency_baseline(s) == "noun00"  # tie -> lexicographic


# Three documents: two with nouns to blank at sentence starts, middles and
# ends, and one with no noun that occurs twice, which is skipped.
TAGGED_TEXT = (
    "#doc river\n"
    "the\tDT\nriver\tn\nflows\tv\nnorth\tn\n\n"
    "north\tn\nof\tIN\nthe\tDT\nriver\tn\n\n"
    "a\tDT\nriver\tn\nbends\tv\neast\tn\n\n"
    "east\tn\nis\tv\nnot\tRB\nnorth\tn\n"
    "#doc market\n"
    "traders\tn\nsell\tv\nfish\tn\n\n"
    "fish\tn\nand\tCC\nbread\tn\nfeed\tv\ntraders\tn\n\n"
    "bread\tn\nis\tv\ncheap\tADJ\n"
    "#doc lone\n"
    "sky\tn\nis\tv\nblue\tADJ\n"
)

DATA_PATH_SHA256 = {
    "synth-train.jsonl": "ce5876e0ec087682326a192d176e6ca94dc39e86ba574fc56890102d38243cf1",
    "synth-valid.jsonl": "9a4adcf24394e0ff85d4a5f19562c2cc03ce78ec7e688f13b907a8faa73133f8",
    "synth-test.jsonl": "3cd054358cb92a6714931a799b4ad642d1f03a5e65aeff510758a1feb7aac862",
    "vocab.txt": "570f8b20db352829c84b49600ab847909d175cc2940eabbb5d4a7d2c1d0d83dc",
    "tagged.jsonl": "1ce9872754532aac615513aaa023d166dbeaae70142163f7850bae127a9e5549",
}


def test_data_path_bytes_are_pinned(tmp_path):
    """The synthetic splits, the vocabulary built from the training split and
    the samples generated from a tagged text are byte-identical to the files
    these digests were taken from, so a reordered draw or a misplaced
    placeholder shows even where the counts and lengths do not change."""
    splits = synthetic.generate_synthetic_corpus(synthetic.SyntheticConfig(seed=0))
    for split, samples in splits.items():
        data.save_dataset(samples, tmp_path / f"synth-{split}.jsonl")
    train_tokens = (tok for s in splits["train"] for part in (s.document, s.query) for tok in part)
    save_vocab(build_vocab(train_tokens, None), tmp_path / "vocab.txt")
    (tmp_path / "tagged.txt").write_text(TAGGED_TEXT, encoding="utf-8")
    samples, skips = generate_corpus(parse_tagged_corpus(tmp_path / "tagged.txt"), seed=3, samples_per_doc=3)
    assert [(s.doc_id, s.reason) for s in skips] == [("lone", "no-candidates")]
    data.save_dataset(samples, tmp_path / "tagged.jsonl")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DATA_PATH_SHA256}
    assert digests == DATA_PATH_SHA256


def tiny_model(vocab, mode="avg", seed=0):
    config = train.TrainConfig(embed_dim=4, hidden_dim=4, merge_mode=mode)
    return reader.init_model_params(config, vocab.total_size, np.random.default_rng(seed))


def small_dataset():
    docs = [
        (["w1", "w2", "w1", "w3"], [PLACEHOLDER_TOKEN, "w2"], "w1"),
        (["w2", "w3", "w2"], ["w3", PLACEHOLDER_TOKEN], "w2"),
        (["w3", "w1", "w3"], [PLACEHOLDER_TOKEN, "w1"], "w3"),
        (["w1", "w4", "w1"], ["w4", PLACEHOLDER_TOKEN], "w1"),
    ]
    return [ClozeSample(document=d, query=q, answer=a) for d, q, a in docs]


class TestEvaluate:
    def test_accuracy_is_exact_fraction(self):
        samples = small_dataset()
        vocab = build_vocab(
            [t for s in samples for t in s.document + s.query + [s.answer]], shortlist_size=None
        )
        params = tiny_model(vocab)
        report = evaluate(params, vocab, samples, dataset_name="small")
        assert report.total == 4
        assert report.accuracy == report.correct / report.total
        assert report.dataset == "small"

    def test_empty_dataset_rejected(self):
        vocab = build_vocab(["a"], shortlist_size=None)
        with pytest.raises(UsageError):
            evaluate(tiny_model(vocab), vocab, [])

    def test_vocab_mismatch_is_configuration_error(self):
        vocab = build_vocab(["a", "b"], shortlist_size=None)
        bigger = build_vocab(["a", "b", "c"], shortlist_size=None)
        params = tiny_model(bigger)
        with pytest.raises(ConfigurationError):
            evaluate(params, vocab, small_dataset())

    def test_constant_prediction_dummy_scores_its_base_rate(self):
        # A document set where exactly 1 of 10 answers equals the token a
        # constant-prediction model must emit.
        samples = []
        for i in range(10):
            answer = "common" if i == 0 else f"rare{i}"
            doc = [answer, "common", answer] if i else [answer, "filler", answer]
            samples.append(
                ClozeSample(document=doc, query=[PLACEHOLDER_TOKEN, "q"], answer=answer)
            )
        vocab = build_vocab(
            [t for s in samples for t in s.document + [s.answer]], shortlist_size=None
        )
        correct = sum(
            1
            for s in samples
            if vocab.token_to_id("common") == vocab.token_to_id(s.answer)
        )
        assert correct == 1  # constant "common" predictor -> 0.10 by construction

    def test_records_and_rank(self):
        samples = small_dataset()
        vocab = build_vocab(
            [t for s in samples for t in s.document + s.query + [s.answer]], shortlist_size=None
        )
        report = evaluate(tiny_model(vocab), vocab, samples, keep_records=True)
        assert len(report.records) == 4
        for rec in report.records:
            assert rec.gold_rank is not None and rec.gold_rank >= 1
            assert 0 < len(rec.top_words) <= 5

    def test_record_ranks_ties_by_id_and_gives_no_rank_to_an_absent_gold(self):
        vocab = build_vocab(["a", "b", "c"], shortlist_size=None)  # ids 12, 13, 14
        probs = {14: 0.25, 13: 0.5, 12: 0.25}
        rec = evaluate_module._record(vocab, probs, 13, 14)
        assert (rec.gold_rank, list(rec.top_words)) == (3, ["b", "a", "c"])
        assert evaluate_module._record(vocab, probs, 13, 2).gold_rank is None  # an OOV bucket

    def test_unknown_mode_is_rejected_before_the_dump_is_opened(self, tmp_path):
        samples = small_dataset()
        vocab = build_vocab([t for s in samples for t in s.document + s.query], shortlist_size=None)
        dump = tmp_path / "attn.jsonl"
        with pytest.raises(UsageError, match="'bogus'"):
            evaluate(tiny_model(vocab), vocab, samples, mode="bogus", dump_attention=dump)
        assert not dump.exists()

    def test_failed_scoring_leaves_an_earlier_dump_as_it_was(self, tmp_path, monkeypatch):
        """The dump is written by replace: an error after the first batch leaves the
        earlier dump byte-identical and no temporary beside it."""
        samples = small_dataset()
        vocab = build_vocab([t for s in samples for t in s.document + s.query], shortlist_size=None)
        dump = tmp_path / "attn.jsonl"
        evaluate(tiny_model(vocab), vocab, samples, dump_attention=dump, batch_size=2)
        before = dump.read_bytes()
        score = reader.score

        def first_batch_then_fail(*args, **kwargs):
            yield next(score(*args, **kwargs))
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(reader, "score", first_batch_then_fail)
        with pytest.raises(RuntimeError, match="scoring failed"):
            evaluate(tiny_model(vocab, seed=1), vocab, samples, dump_attention=dump, batch_size=2)
        assert dump.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["attn.jsonl"]

    def test_attention_dump_satisfies_invariants(self, tmp_path):
        samples = small_dataset()
        vocab = build_vocab(
            [t for s in samples for t in s.document + s.query + [s.answer]], shortlist_size=None
        )
        dump = tmp_path / "attn.jsonl"
        evaluate(tiny_model(vocab), vocab, samples, dump_attention=dump)
        lines = dump.read_text().strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            rec = json.loads(line)
            alpha = np.array(rec["alpha"])
            merged = np.array(rec["merged"])
            np.testing.assert_allclose(alpha.sum(axis=1), np.ones(alpha.shape[0]), atol=1e-12)
            assert abs(merged.sum() - 1.0) < 1e-12
            assert abs(sum(rec["word_probs"].values()) - 1.0) < 1e-10

    def test_evaluation_does_not_touch_parameters(self):
        samples = small_dataset()
        vocab = build_vocab(
            [t for s in samples for t in s.document + s.query + [s.answer]], shortlist_size=None
        )
        params = tiny_model(vocab)
        before = {k: p.data.copy() for k, p in params.named().items()}
        first = evaluate(params, vocab, samples)
        second = evaluate(params, vocab, samples)
        assert first.accuracy == second.accuracy
        for k, p in params.named().items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_restrict_candidates(self):
        sample = ClozeSample(
            document=["a", "b", "a", "b"],
            query=[PLACEHOLDER_TOKEN, "c"],
            answer="b",
            candidates=["b"],
        )
        vocab = build_vocab(["a", "b", "c"], shortlist_size=None)
        params = tiny_model(vocab)
        unrestricted = evaluate(params, vocab, [sample])
        restricted = evaluate(params, vocab, [sample], restrict_candidates=True)
        assert restricted.accuracy == 1.0
        assert restricted.accuracy >= unrestricted.accuracy
