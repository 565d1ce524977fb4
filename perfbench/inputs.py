"""Preparation step: write one workload's inputs and reference answers.

    python3 perfbench/inputs.py --workload paper-eval --seed 3 --src src --out DIR

Everything here is a pure function of the workload seed. Files are written
and fsynced before the measured process starts, and `DIR/manifest.json`
tells that process what to load and which reference values to check
against. The references come from `reference.py`, which shares no code with
the program.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

import reference

# Paper shape: 16 sentences x 25 tokens per document, Zipf(0.9) over a fixed
# 300k-type inventory. 1000 documents (400k tokens) hold ~113k distinct
# types, so a 100k shortlist is full and the tail lands in the OOV buckets.
SENTENCES, SENTENCE_LEN = 16, 25
INVENTORY, ZIPF_EXPONENT = 300_000, 0.9
CORPUS_DOCS = 1000
SHORTLIST = 100_000
PAPER_TRAIN, PAPER_VALID = 32, 8
EVAL_SAMPLES, EVAL_BATCH = 32, 16
# Desk shape: the README recipe with the synthetic corpus scaled 10x.
DESK_DOCS = {"train_docs": 2000, "valid_docs": 500, "test_docs": 500}
# Relative margin below which an argmax could flip under re-association.
AMBIGUOUS_MARGIN = 1e-9


def _fsync_tree(path: Path) -> None:
    for root, _, files in os.walk(path):
        for name in files:
            with open(Path(root) / name, "rb+") as fh:
                os.fsync(fh.fileno())
        fd = os.open(root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class ZipfCorpus:
    """Tagged documents whose token ranks follow a Zipf law; ~40% of types are nouns."""

    def __init__(self, rng: np.random.Generator, docs: int):
        weights = np.arange(1, INVENTORY + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        cdf = np.cumsum(weights)
        draws = rng.random(docs * SENTENCES * SENTENCE_LEN) * cdf[-1]
        self.ranks = np.searchsorted(cdf, draws, side="right").reshape(docs, SENTENCES, SENTENCE_LEN)
        self.words = np.array([f"w{r}" for r in range(INVENTORY)])
        mixed = (np.arange(INVENTORY, dtype=np.uint64) * np.uint64(2654435761)) % np.uint64(10)
        self.tags = np.where(mixed < 4, "NN", np.array(["VB", "JJ", "DT", "IN", "RB"])[np.arange(INVENTORY) % 5])

    def doc_id(self, d: int) -> str:
        return f"doc{d:05d}"

    def sentences(self, d: int) -> list[list[tuple[str, str]]]:
        ranks = self.ranks[d]
        return [list(zip(self.words[row].tolist(), self.tags[row].tolist())) for row in ranks]

    def tagged_text(self) -> str:
        words, tags = self.words[self.ranks], self.tags[self.ranks]
        lines = []
        for d in range(self.ranks.shape[0]):
            lines.append(f"#doc {self.doc_id(d)}")
            for s in range(SENTENCES):
                lines.extend(f"{w}\t{t}" for w, t in zip(words[d, s].tolist(), tags[d, s].tolist()))
                lines.append("")
        return "\n".join(lines) + "\n"


def _sample_tokens(samples):
    for s in samples:
        yield from s.document
        yield from s.query
        yield s.answer


def _train_reference(config: dict, encoded, vocab_size: int) -> dict:
    triples = [(s.doc_ids, s.query_ids, s.answer_id) for s in encoded]
    losses, params = reference.train(config, triples, vocab_size)
    return {"final_loss": losses[-1], "fingerprint": reference.fingerprint(params), "vocab_size": vocab_size}


def prepare_desk(cr, seed: int, out: Path) -> dict:
    synthetic_cfg = dict(DESK_DOCS, seed=seed)
    splits = cr.synthetic.generate_synthetic_corpus(cr.synthetic.SyntheticConfig(**synthetic_cfg))
    vocab = cr.vocab.build_vocab(_sample_tokens(splits["train"]), shortlist_size=None)
    train_set = [cr.vocab.encode_sample(vocab, s) for s in splits["train"]]
    config = dict(cr.train.TrainConfig(
        embed_dim=16, hidden_dim=16, dropout_rate=0.0, merge_mode="avg",
        batch_size=32, epochs=1, seed=seed, shortlist_size=None,
    ).__dict__)
    return {"synthetic": synthetic_cfg, "train_config": config,
            "reference": _train_reference(config, train_set, vocab.total_size)}


def prepare_paper_train(cr, seed: int, out: Path) -> dict:
    corpus = ZipfCorpus(np.random.default_rng(seed), CORPUS_DOCS)
    _write_text(out / "corpus.txt", corpus.tagged_text())
    # The reference needs the encoded training set; derive it with the same
    # preparation path the measured set-up runs, minus the file round trip.
    docs = cr.datagen.parse_tagged_corpus(out / "corpus.txt")
    samples, _ = cr.datagen.generate_corpus(docs, seed=seed)
    vocab = cr.vocab.build_vocab(_sample_tokens(samples), shortlist_size=SHORTLIST)
    train_set = [cr.vocab.encode_sample(vocab, s) for s in samples[:PAPER_TRAIN]]
    config = dict(cr.train.PRESETS["news-full"].__dict__, batch_size=8, epochs=1, seed=seed)
    return {"corpus": "corpus.txt", "dataset": "generated.jsonl", "generate_seed": seed,
            "shortlist": SHORTLIST, "train_count": PAPER_TRAIN, "valid_count": PAPER_VALID,
            "train_config": config, "reference": _train_reference(config, train_set, vocab.total_size)}


def prepare_paper_eval(cr, seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    # The vocabulary comes from the first CORPUS_DOCS documents; the eval
    # samples come from held-out documents after them.
    corpus = ZipfCorpus(rng, CORPUS_DOCS + 2 * EVAL_SAMPLES)
    vocab_tokens = corpus.words[corpus.ranks[:CORPUS_DOCS]].ravel().tolist()
    vocab = cr.vocab.build_vocab(vocab_tokens, shortlist_size=SHORTLIST)
    del vocab_tokens
    samples = []
    for d in range(CORPUS_DOCS, corpus.ranks.shape[0]):
        doc = cr.datagen.TaggedDocument(sentences=corpus.sentences(d), doc_id=corpus.doc_id(d))
        samples.extend(cr.datagen.generate_samples(doc, rng))
    if len(samples) < EVAL_SAMPLES:
        raise RuntimeError(f"only {len(samples)} eval samples from the held-out documents")
    samples = samples[:EVAL_SAMPLES]
    config = cr.train.TrainConfig(**dict(cr.train.PRESETS["news-full"].__dict__, seed=seed))
    params = cr.reader.init_model_params(config.reader_config(), vocab.total_size, rng)
    named = params.named()
    state = cr.train.AdamState.init(named, config.lr, config.beta1, config.beta2, config.epsilon)
    cr.train.save_checkpoint(params, state, config, out / "checkpoint", vocab=vocab)
    del state

    # Half the answers are relabelled to the reference's own prediction, so
    # `correct` is a sharp check of the forward pass rather than ~0.
    encoded = [cr.vocab.encode_sample(vocab, s) for s in samples]
    preds = reference.predictions(
        {name: t.data for name, t in named.items()},
        [(e.doc_ids, e.query_ids) for e in encoded], EVAL_BATCH,
    )
    records, correct, ambiguous = [], 0, 0
    for i, (s, (pred, margin)) in enumerate(zip(samples, preds)):
        answer = s.answer
        if i % 2 == 0:
            answer = next(
                (t for t in s.document if vocab.token_to_id(t) == pred and t not in s.query), answer
            )
        correct += vocab.token_to_id(answer) == pred
        ambiguous += margin < AMBIGUOUS_MARGIN
        records.append(json.dumps({"document": s.document, "query": s.query, "answer": answer}))
    _write_text(out / "eval.jsonl", "\n".join(records) + "\n")
    return {"checkpoint": "checkpoint", "data": "eval.jsonl", "mode": "avg", "batch_size": EVAL_BATCH,
            "reference": {"total": len(records), "correct": correct, "ambiguous": ambiguous,
                          "vocab_size": vocab.total_size}}


PREPARE = {"desk-train": prepare_desk, "paper-train": prepare_paper_train, "paper-eval": prepare_paper_eval}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PREPARE))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    from measure import import_program

    cr = import_program(args.src)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = PREPARE[args.workload](cr, args.seed, out)
    manifest.update(workload=args.workload, seed=args.seed)
    _write_text(out / "manifest.json", json.dumps(manifest))
    _fsync_tree(out)


if __name__ == "__main__":
    sys.exit(main())
