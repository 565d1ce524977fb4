"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Full-corpus replication is out of reach at desk scale, so these gates are
property-based plus scaled-down experiments: gradient fidelity against
central differences, distribution invariants over random models, merge-mode
algebra, generation contracts over random corpora, a learnable synthetic
task with a frequency baseline to beat, whole-pipeline determinism, and
bit-exact persistence.
"""

import contextlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from casreader import datagen as dg
from casreader import reader
from casreader import tensor as T
from casreader import train as tr
from casreader.cli import cli
from casreader.errors import CorruptionError, ParseError
from casreader.evaluate import evaluate
from casreader.synthetic import SyntheticConfig, baseline_accuracy, generate_synthetic_corpus
from casreader.tensor import Tensor
from casreader.vocab import build_vocab, encode_sample, load_vocab, save_vocab

from helpers import Sample, generic_params


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    print(f"[PASS] criterion {num}: {name}")


def test_criterion_1_gradient_fidelity():
    with criterion(1, "gradient fidelity of the full forward + NLL, all merge modes"):
        started = time.monotonic()
        rng = np.random.default_rng(1003)
        sample = Sample(rng.integers(0, 20, 12), rng.integers(0, 20, 5))
        answer = int(sample.doc_ids[0])
        for mode in reader.MERGE_MODES:
            params = generic_params(20, 8, 8, np.random.default_rng(2003), mode=mode)
            named = params.named()

            def loss(p):
                model = reader.ModelParams.from_named(p, params.config)
                return tr.nll_loss(reader.forward([sample], model, mode=mode), [answer])

            err = T.grad_check(loss, named, epsilon=1e-5)
            assert err < 1e-4, f"mode {mode}: max relative error {err:.3e}"
        assert time.monotonic() - started < 60.0


def test_criterion_2_normalization_suite():
    with criterion(2, "1000 random models/inputs keep all distributions normalized"):
        started = time.monotonic()
        rng = np.random.default_rng(77)

        def check(alpha, merged, word_probs, mask):
            sums = alpha.data.sum(axis=1)
            assert np.all(np.abs(sums - 1.0) < 1e-12)
            assert np.all(alpha.data[:, ~mask] == 0.0)
            assert abs(merged.data.sum() - 1.0) < 1e-12
            assert np.all(merged.data[~mask] == 0.0)
            assert abs(sum(word_probs.values()) - 1.0) < 1e-10

        # 700 random encodings with masks, exercising the attention ops directly.
        for i in range(700):
            n, m, width = int(rng.integers(2, 12)), int(rng.integers(1, 6)), int(rng.integers(2, 9))
            mask = rng.random(n) < 0.8
            if not mask.any():
                mask[int(rng.integers(n))] = True
            h_doc = Tensor(rng.normal(size=(n, width)) * 3)
            h_query = Tensor(rng.normal(size=(m, width)) * 3)
            mode = reader.MERGE_MODES[i % 3]
            alpha = reader.attention_per_step(h_doc, h_query, mask)
            merged = reader.merge_attention(alpha, mode, np.ones(m, dtype=bool), mask)
            words = reader.attention_sum(merged, rng.integers(0, 9, n), doc_mask=mask)
            check(alpha, merged, words.as_dict(), mask)

        # 300 full forward passes through random tiny models.
        for i in range(300):
            params = generic_params(12, 3, 3, np.random.default_rng(9000 + i), mode=reader.MERGE_MODES[i % 3])
            sample = Sample(rng.integers(0, 12, int(rng.integers(2, 10))),
                            rng.integers(0, 12, int(rng.integers(1, 5))))
            (out,) = reader.forward([sample], params)
            full = np.ones(out.merged.data.shape[0], dtype=bool)
            check(out.alpha, out.merged, out.words.as_dict(), full)
        assert time.monotonic() - started < 30.0


def test_criterion_3_mode_properties():
    with criterion(3, "merge-mode algebra: m=1 degeneracy, rank preservation, exact aggregation"):
        rng = np.random.default_rng(101)
        # (a) single query step: all modes agree to 1e-15.
        for _ in range(50):
            row = Tensor(rng.dirichlet(np.ones(int(rng.integers(2, 12)))).reshape(1, -1))
            masks = np.ones(1, dtype=bool), np.ones(row.data.shape[1], dtype=bool)
            outs = [reader.merge_attention(row, mode, *masks).data for mode in reader.MERGE_MODES]
            assert np.max(np.abs(outs[0] - outs[1])) <= 1e-15
            assert np.max(np.abs(outs[0] - outs[2])) <= 1e-15
        # (b) sum and avg agree on the position ranking, 1000 random alphas.
        for _ in range(1000):
            m, n = int(rng.integers(1, 7)), int(rng.integers(2, 12))
            alpha = Tensor(rng.dirichlet(np.ones(n), size=m))
            masks = np.ones(m, dtype=bool), np.ones(n, dtype=bool)
            s_sum = reader.merge_attention(alpha, "sum", *masks).data
            s_avg = reader.merge_attention(alpha, "avg", *masks).data
            assert np.array_equal(np.argsort(-s_sum), np.argsort(-s_avg))
        # (c) word aggregation equals the dictionary oracle exactly.
        for _ in range(200):
            n = int(rng.integers(1, 60))
            ids = rng.integers(0, 15, n)
            merged = rng.dirichlet(np.ones(n))
            got = reader.attention_sum(Tensor(merged), ids, np.ones(n, dtype=bool)).as_dict()
            oracle: dict[int, float] = {}
            for p, tid in zip(merged, ids):
                oracle[int(tid)] = oracle.get(int(tid), 0.0) + float(p)
            assert got == oracle


def random_tagged_document(rng, doc_id):
    nouns = [f"n{i}" for i in range(8)]
    others = [("go", "v"), ("the", "DT"), ("red", "ADJ"), ("fast", "ADV")]
    sentences = []
    for _ in range(int(rng.integers(1, 7))):
        sent = []
        for _ in range(int(rng.integers(1, 8))):
            if rng.random() < 0.45:
                sent.append((nouns[int(rng.integers(len(nouns)))], "n"))
            else:
                sent.append(others[int(rng.integers(len(others)))])
        sentences.append(sent)
    return dg.TaggedDocument(sentences=sentences, doc_id=doc_id)


def test_criterion_4_datagen_contract():
    with criterion(4, "500 random documents: every sample valid, candidate-free docs skipped"):
        rng = np.random.default_rng(2024)
        docs = [random_tagged_document(rng, f"doc-{i}") for i in range(480)]
        docs += [
            dg.TaggedDocument(sentences=[[("run", "v"), ("jump", "v")]], doc_id=f"verbs-{i}")
            for i in range(20)
        ]
        samples, skips = dg.generate_corpus(docs, seed=11, samples_per_doc=2)
        assert samples, "expected at least some generated samples"
        sampled_ids = {s.meta["doc_id"] for s in samples}
        skipped_ids = {s.doc_id for s in skips}
        assert sampled_ids | skipped_ids == {d.doc_id for d in docs}
        assert sampled_ids.isdisjoint(skipped_ids)
        assert {f"verbs-{i}" for i in range(20)} <= skipped_ids
        by_id = {d.doc_id: d for d in docs}
        for s in samples:
            dg.validate_sample(s)
            doc = by_id[s.meta["doc_id"]]
            full = [tok for sent in doc.sentences for tok, _ in sent]
            assert s.document.count(s.answer) == full.count(s.answer) - 1
            assert s.document.count(s.answer) >= 1
            original = [tok for tok, _ in doc.sentences[s.meta["query_sentence"]]]
            assert [s.answer if t == dg.PLACEHOLDER_TOKEN else t for t in s.query] == original


def test_criterion_5_learning_smoke():
    with criterion(5, "synthetic-task learning beats the frequency baseline"):
        started = time.monotonic()
        splits = generate_synthetic_corpus(SyntheticConfig(seed=0))
        assert len(splits["train"]) == 200 and len(splits["valid"]) == 50 and len(splits["test"]) == 50
        baseline = baseline_accuracy(splits["test"])
        assert 0.6 <= baseline <= 0.9, f"baseline {baseline} outside its design band"
        tokens = []
        for s in splits["train"]:
            tokens.extend(s.document)
            tokens.extend(s.query)
            tokens.append(s.answer)
        vocab = build_vocab(tokens, shortlist_size=None)
        enc = {k: [encode_sample(vocab, s) for s in v] for k, v in splits.items()}
        config = tr.TrainConfig(
            embed_dim=16, hidden_dim=16, dropout_rate=0.0, merge_mode="avg",
            lr=0.0005, batch_size=32, clip_threshold=10.0, epochs=30, seed=7,
            shortlist_size=None,
        )
        result = tr.train(config, enc["train"], enc["valid"], vocab_size=vocab.total_size)
        assert not result.aborted
        train_acc = evaluate(result.params, vocab, enc["train"]).accuracy
        test_acc = evaluate(result.params, vocab, enc["test"]).accuracy
        max_acc = evaluate(result.params, vocab, enc["test"], mode="max").accuracy
        elapsed = time.monotonic() - started
        print(
            f"        train={train_acc:.3f} test(avg)={test_acc:.3f} test(max)={max_acc:.3f} "
            f"baseline={baseline:.3f} epochs={len(result.history)} elapsed={elapsed:.0f}s"
        )
        if test_acc < max_acc:
            print("        note: avg < max on this run (mode ordering is seed-dependent at toy scale)")
        assert train_acc >= 0.95, f"train accuracy {train_acc}"
        assert test_acc >= 0.80, f"test accuracy {test_acc}"
        assert test_acc > baseline, f"model {test_acc} did not beat baseline {baseline}"
        assert elapsed < 300.0


def _end_to_end(tmp_path: Path, tag: str) -> tuple[bytes, str]:
    runner = CliRunner()
    root = tmp_path / tag
    corpus = root / "corpus"
    result = runner.invoke(
        cli,
        ["synth", "--out", str(corpus), "--seed", "5", "--train-docs", "40",
         "--valid-docs", "10", "--test-docs", "10"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    vocab_path = root / "vocab.txt"
    result = runner.invoke(
        cli,
        ["build-vocab", "--input", str(corpus / "train.jsonl"), "--shortlist", "0",
         "--output", str(vocab_path)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "embed_dim": 8, "hidden_dim": 8, "epochs": 3, "batch_size": 16,
        "seed": 21, "merge_mode": "avg", "shortlist_size": None,
    }))
    ckpt = root / "ckpt"
    result = runner.invoke(
        cli,
        ["train", "--train", str(corpus / "train.jsonl"), "--valid", str(corpus / "valid.jsonl"),
         "--vocab", str(vocab_path), "--config", str(cfg), "--out", str(ckpt)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        cli,
        ["eval", "--checkpoint", str(ckpt), "--data", str(corpus / "test.jsonl"), "--mode", "avg"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    return (ckpt / "params.bin").read_bytes(), result.output.strip()


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "two identically seeded end-to-end runs agree bit for bit"):
        params_a, report_a = _end_to_end(tmp_path, "run_a")
        params_b, report_b = _end_to_end(tmp_path, "run_b")
        assert params_a == params_b, "checkpoint parameter bytes differ between runs"
        assert report_a == report_b, "evaluation reports differ between runs"


def test_criterion_7_persistence(tmp_path):
    with criterion(7, "bit-exact persistence round trips and typed corruption errors"):
        # Vocabulary round trip, bit for bit.
        vocab = build_vocab(["alpha", "beta", "alpha", "gamma", "beta", "alpha"], shortlist_size=2)
        vpath = tmp_path / "vocab.txt"
        save_vocab(vocab, vpath)
        first_bytes = vpath.read_bytes()
        loaded = load_vocab(vpath)
        assert loaded == vocab
        save_vocab(loaded, tmp_path / "vocab2.txt")
        assert (tmp_path / "vocab2.txt").read_bytes() == first_bytes

        # Checkpoint round trip, bit for bit.
        config = tr.TrainConfig(embed_dim=4, hidden_dim=4, epochs=1, seed=9)
        params = reader.init_model_params(config, vocab.total_size, np.random.default_rng(3))
        named = params.named()
        state = tr.AdamState.init(named, lr=config.lr)
        rng = np.random.default_rng(4)
        tr.adam_step(named, {k: rng.normal(size=p.data.shape) for k, p in named.items()}, state)
        ckpt = tmp_path / "ckpt"
        tr.save_checkpoint(params, state, config, ckpt, vocab=vocab)
        loaded_ckpt = tr.load_checkpoint(ckpt)
        for name, p in named.items():
            assert p.data.tobytes() == loaded_ckpt.params.named()[name].data.tobytes()
        assert loaded_ckpt.config == config
        ckpt2 = tmp_path / "ckpt2"
        tr.save_checkpoint(loaded_ckpt.params, None, loaded_ckpt.config, ckpt2, vocab=loaded_ckpt.vocab)
        assert (ckpt2 / "params.bin").read_bytes() == (ckpt / "params.bin").read_bytes()
        assert (ckpt2 / "manifest.txt").read_bytes() == (ckpt / "manifest.txt").read_bytes()

        # Corruption surfaces as the right error classes.
        with pytest.raises(ParseError):
            bad = tmp_path / "bad_vocab.txt"
            bad.write_text("wrong-header\tshortlist=2\n", encoding="utf-8")
            load_vocab(bad)
        with pytest.raises(CorruptionError):
            blob = (ckpt / "params.bin").read_bytes()
            (ckpt / "params.bin").write_bytes(blob[:-4])
            tr.load_checkpoint(ckpt)
        (ckpt / "params.bin").write_bytes(blob)
        with pytest.raises(CorruptionError):
            wrong = build_vocab(["a", "b", "c", "d", "a", "b", "c", "d"], shortlist_size=4)
            save_vocab(wrong, ckpt / "vocab.txt")
            tr.load_checkpoint(ckpt)
