"""Command-line surface: generate, build-vocab, train, eval, synth, stats.

All subcommands print machine-readable JSON on stdout; failures emit one
JSON line on stderr and exit with the code their error class carries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import data, datagen, synthetic
from . import train as training
from . import vocab as V
from .errors import CasReaderError, ConfigurationError, CorruptionError, ParseError, UsageError, read_text, replacing
from .evaluate import evaluate
from .reader import HEAD_MODES


def _fail(kind: str, code: int, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    sys.exit(code)


@click.group()
def cli():
    """Cloze reading comprehension with consensus attention, at desk scale."""


@cli.command()
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--samples-per-doc", default=1, show_default=True, type=int)
@click.option("--noun-tags", default=None, help="Comma-separated POS tags treated as nouns.")
@click.option("--skip-log", default=None, type=click.Path(), help="Write skipped-document reasons here.")
def generate(input_path, output_path, seed, samples_per_doc, noun_tags, skip_log):
    """Generate cloze triples from a tagged corpus."""
    tags = frozenset(t.strip() for t in noun_tags.split(",")) if noun_tags else datagen.DEFAULT_NOUN_TAGS
    docs = datagen.parse_tagged_corpus(input_path)
    samples, skips = datagen.generate_corpus(docs, seed=seed, samples_per_doc=samples_per_doc, noun_tags=tags)
    data.save_dataset(samples, output_path)
    if skip_log:
        with replacing((skip_log, "w")) as [fh]:
            for skip in skips:
                fh.write(json.dumps({"doc_id": skip.doc_id, "reason": skip.reason}) + "\n")
    click.echo(json.dumps({"documents": len(docs), "samples": len(samples), "skipped": len(skips)}))


@cli.command("build-vocab")
@click.option("--input", "input_paths", required=True, multiple=True, type=click.Path())
@click.option("--shortlist", default=V.DEFAULT_SHORTLIST, show_default=True, type=int,
              help="Shortlist size; 0 keeps the full vocabulary.")
@click.option("--output", "output_path", required=True, type=click.Path())
def build_vocab_cmd(input_paths, shortlist, output_path):
    """Build a frequency-ranked vocabulary from JSONL sample files."""

    def stream():
        for path in input_paths:
            samples, _ = data.load_dataset(path)
            for s in samples:
                yield from s.tokens()

    vocab = V.build_vocab(stream(), shortlist_size=shortlist or None)
    V.save_vocab(vocab, output_path)
    click.echo(json.dumps({"tokens": len(vocab.tokens), "total_ids": vocab.total_size}))


@cli.command("train")
@click.option("--train", "train_path", required=True, type=click.Path())
@click.option("--valid", "valid_path", required=True, type=click.Path())
@click.option("--vocab", "vocab_path", required=True, type=click.Path())
@click.option("--config", "config_path", default=None, type=click.Path(),
              help="JSON file overriding TrainConfig fields.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def train_cmd(train_path, valid_path, vocab_path, config_path, out_dir):
    """Train a reader and keep the best-by-validation checkpoint."""
    config = _load_config(config_path)
    vocab = V.load_vocab(vocab_path)
    train_samples = _encode_file(train_path, vocab)
    valid_samples = _encode_file(valid_path, vocab)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = training.train(
        config, train_samples, valid_samples,
        vocab_size=vocab.total_size, log_path=out / "training_log.jsonl",
    )
    training.save_checkpoint(result.params, None, config, out, vocab=vocab)
    click.echo(
        json.dumps(
            {
                "best_epoch": result.best_epoch,
                "best_valid_accuracy": result.best_accuracy,
                "epochs_run": len(result.history),
                "aborted": result.aborted,
                "checkpoint": str(out),
            }
        )
    )


@cli.command("eval")
@click.option("--checkpoint", "ckpt_dir", required=True, type=click.Path())
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--mode", default=None, type=click.Choice(HEAD_MODES),
              help="Head to score with; defaults to the checkpoint's merge_mode.")
@click.option("--restrict-candidates", is_flag=True, default=False)
@click.option("--dump-attention", "dump_path", default=None, type=click.Path())
@click.option("--records", is_flag=True, default=False, help="Include per-sample records.")
def eval_cmd(ckpt_dir, data_path, mode, restrict_candidates, dump_path, records):
    """Evaluate a checkpoint; prints an accuracy report as JSON."""
    ckpt = training.load_checkpoint(ckpt_dir)
    samples, _ = data.load_dataset(data_path)
    report = evaluate(
        ckpt.params,
        ckpt.vocab,
        samples,
        mode=mode,
        restrict_candidates=restrict_candidates,
        keep_records=records,
        dump_attention=dump_path,
        dataset_name=Path(data_path).name,
    )
    click.echo(json.dumps(report.as_dict()))


@cli.command()
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--vocab-size", default=50, show_default=True, type=int)
@click.option("--train-docs", default=200, show_default=True, type=int)
@click.option("--valid-docs", default=50, show_default=True, type=int)
@click.option("--test-docs", default=50, show_default=True, type=int)
def synth(out_dir, **fields):
    """Generate the synthetic verification corpus."""
    cfg = synthetic.SyntheticConfig(**fields)
    splits = synthetic.generate_synthetic_corpus(cfg, out_dir=out_dir)
    summary = {split: len(samples) for split, samples in splits.items()}
    summary["baseline_test_accuracy"] = synthetic.baseline_accuracy(splits["test"])
    summary["out"] = str(out_dir)
    click.echo(json.dumps(summary))


@cli.command()
@click.option("--data", "data_path", required=True, type=click.Path())
def stats(data_path):
    """Dataset size statistics (counts, lengths, vocabulary)."""
    samples, _ = data.load_dataset(data_path)
    click.echo(json.dumps(datagen.dataset_stats(samples).as_dict()))


def _load_config(config_path) -> training.TrainConfig:
    if config_path is None:
        return training.TrainConfig()
    try:
        raw = json.loads(read_text(config_path))
    except json.JSONDecodeError as err:
        raise ParseError(f"config is not valid JSON: {err.msg}", line=err.lineno) from None
    except (ValueError, RecursionError) as err:  # nesting too deep, an integer too long
        raise ParseError(f"config is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError("config file must hold a JSON object")
    if "preset" in raw:
        preset = raw.pop("preset")
        if not isinstance(preset, str) or preset not in training.PRESETS:
            raise ConfigurationError(f"unknown preset {preset!r}; have {sorted(training.PRESETS)}")
        base = training.PRESETS[preset].__dict__ | raw
    else:
        base = raw
    allowed = set(training.TrainConfig().__dict__)
    unknown = set(base) - allowed
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    return training.TrainConfig(**base)


def _encode_file(path, vocab: V.Vocabulary):
    samples, _ = data.load_dataset(path)
    return [V.encode_sample(vocab, s) for s in samples]


def main():
    try:
        cli(standalone_mode=False)
    except click.UsageError as err:
        _fail(UsageError.kind, UsageError.exit_code, err.format_message())
    except click.exceptions.Exit as err:
        sys.exit(err.exit_code)
    except click.Abort:
        sys.exit(UsageError.exit_code)
    except CasReaderError as err:
        _fail(err.kind, err.exit_code, str(err))
    except OSError as err:  # the one class from outside the package with a code: I/O, as for a corrupt file
        _fail(CorruptionError.kind, CorruptionError.exit_code, str(err))


if __name__ == "__main__":
    main()
