"""End-to-end command-line tests: the synth -> build-vocab -> train -> eval
pipeline, the tagged-corpus path, stats golden, and the error surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import casreader
from casreader.cli import cli

GOLDEN = Path(__file__).parent / "golden" / "synth_seed0_stats.json"

TRAIN_CONFIG = {
    "embed_dim": 8,
    "hidden_dim": 8,
    "epochs": 2,
    "batch_size": 16,
    "seed": 3,
    "merge_mode": "avg",
    "shortlist_size": 0,
}


@pytest.fixture()
def runner():
    return CliRunner()


def invoke_ok(runner, args):
    result = runner.invoke(cli, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output.strip().splitlines()[-1])


def small_synth(runner, tmp_path, seed=0):
    out = tmp_path / "corpus"
    summary = invoke_ok(
        runner,
        ["synth", "--out", str(out), "--seed", str(seed), "--train-docs", "24",
         "--valid-docs", "8", "--test-docs", "8"],
    )
    assert summary["train"] == 24
    return out


def config_file(tmp_path, **overrides):
    path = tmp_path / "config.json"
    cfg = dict(TRAIN_CONFIG)
    cfg.update(overrides)
    cfg["shortlist_size"] = cfg.get("shortlist_size") or None
    path.write_text(json.dumps(cfg))
    return path


class TestPipeline:
    def test_synth_vocab_train_eval(self, runner, tmp_path):
        corpus = small_synth(runner, tmp_path)
        vocab_path = tmp_path / "vocab.txt"
        invoke_ok(
            runner,
            ["build-vocab", "--input", str(corpus / "train.jsonl"), "--shortlist", "0",
             "--output", str(vocab_path)],
        )
        ckpt = tmp_path / "ckpt"
        train_summary = invoke_ok(
            runner,
            ["train", "--train", str(corpus / "train.jsonl"), "--valid", str(corpus / "valid.jsonl"),
             "--vocab", str(vocab_path), "--config", str(config_file(tmp_path)), "--out", str(ckpt)],
        )
        assert train_summary["epochs_run"] == 2
        assert (ckpt / "manifest.txt").exists()
        assert (ckpt / "training_log.jsonl").exists()
        report = invoke_ok(
            runner,
            ["eval", "--checkpoint", str(ckpt), "--data", str(corpus / "test.jsonl"), "--mode", "avg"],
        )
        assert report["total"] == 8
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["accuracy"] == report["correct"] / report["total"]

    def test_eval_modes_share_one_checkpoint(self, runner, tmp_path):
        corpus = small_synth(runner, tmp_path)
        vocab_path = tmp_path / "vocab.txt"
        invoke_ok(runner, ["build-vocab", "--input", str(corpus / "train.jsonl"),
                           "--shortlist", "0", "--output", str(vocab_path)])
        ckpt = tmp_path / "ckpt"
        invoke_ok(
            runner,
            ["train", "--train", str(corpus / "train.jsonl"), "--valid", str(corpus / "valid.jsonl"),
             "--vocab", str(vocab_path), "--config", str(config_file(tmp_path)), "--out", str(ckpt)],
        )
        for mode in ("sum", "avg", "max", "as-baseline"):
            report = invoke_ok(
                runner,
                ["eval", "--checkpoint", str(ckpt), "--data", str(corpus / "test.jsonl"),
                 "--mode", mode],
            )
            assert report["mode"] == mode

    def test_dump_attention_and_records(self, runner, tmp_path):
        corpus = small_synth(runner, tmp_path)
        vocab_path = tmp_path / "vocab.txt"
        invoke_ok(runner, ["build-vocab", "--input", str(corpus / "train.jsonl"),
                           "--shortlist", "0", "--output", str(vocab_path)])
        ckpt = tmp_path / "ckpt"
        invoke_ok(
            runner,
            ["train", "--train", str(corpus / "train.jsonl"), "--valid", str(corpus / "valid.jsonl"),
             "--vocab", str(vocab_path), "--config", str(config_file(tmp_path)), "--out", str(ckpt)],
        )
        dump = tmp_path / "attn.jsonl"
        report = invoke_ok(
            runner,
            ["eval", "--checkpoint", str(ckpt), "--data", str(corpus / "test.jsonl"),
             "--records", "--dump-attention", str(dump)],
        )
        assert len(report["records"]) == 8
        assert len(dump.read_text().strip().splitlines()) == 8


class TestGenerate:
    def test_tagged_corpus_to_samples(self, runner, tmp_path):
        corpus = tmp_path / "tagged.txt"
        corpus.write_text(
            "#doc d0\n"
            "the\tDT\nriver\tn\nflows\tv\n\n"
            "a\tDT\nriver\tn\nbends\tv\n\n"
            "#doc d1\n"
            "go\tv\nnow\tADV\n",
            encoding="utf-8",
        )
        out = tmp_path / "samples.jsonl"
        skip_log = tmp_path / "skips.jsonl"
        summary = invoke_ok(
            runner,
            ["generate", "--input", str(corpus), "--output", str(out), "--seed", "1",
             "--samples-per-doc", "2", "--skip-log", str(skip_log)],
        )
        assert summary == {"documents": 2, "samples": 2, "skipped": 1}
        skip = json.loads(skip_log.read_text().strip())
        assert skip == {"doc_id": "d1", "reason": "no-candidates"}
        stats = invoke_ok(runner, ["stats", "--data", str(out)])
        assert stats["query_count"] == 2

    def test_custom_noun_tags(self, runner, tmp_path):
        corpus = tmp_path / "tagged.txt"
        corpus.write_text("#doc d0\nw\tNOUNX\n\nw\tNOUNX\n", encoding="utf-8")
        out = tmp_path / "samples.jsonl"
        summary = invoke_ok(
            runner,
            ["generate", "--input", str(corpus), "--output", str(out), "--noun-tags", "NOUNX"],
        )
        assert summary["samples"] == 1


class TestStatsGolden:
    def test_synth_test_split_matches_golden(self, runner, tmp_path):
        out = tmp_path / "corpus"
        invoke_ok(runner, ["synth", "--out", str(out), "--seed", "0"])
        stats = invoke_ok(runner, ["stats", "--data", str(out / "test.jsonl")])
        golden = json.loads(GOLDEN.read_text())
        assert stats == golden["test"]


class TestErrorSurface:
    """Exit codes must separate usage, validation, numeric, and I/O failures.

    These go through a real subprocess so the exit status is the genuine
    article.
    """

    def run_cli(self, *args):
        # The child imports the same casreader as this process, installed or not.
        src = str(Path(casreader.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "casreader.cli", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def trained_checkpoint(self, tmp_path):
        runner = CliRunner()
        corpus = small_synth(runner, tmp_path)
        vocab_path = tmp_path / "vocab.txt"
        invoke_ok(runner, ["build-vocab", "--input", str(corpus / "train.jsonl"),
                           "--shortlist", "0", "--output", str(vocab_path)])
        ckpt = tmp_path / "ckpt"
        invoke_ok(
            runner,
            ["train", "--train", str(corpus / "train.jsonl"), "--valid", str(corpus / "valid.jsonl"),
             "--vocab", str(vocab_path), "--config", str(config_file(tmp_path)), "--out", str(ckpt)],
        )
        return corpus, ckpt

    def test_unknown_flag_is_usage_error(self):
        proc = self.run_cli("stats", "--no-such-flag")
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "usage"

    def test_unknown_command_is_usage_error(self):
        proc = self.run_cli("frobnicate")
        assert proc.returncode == 2

    def test_invalid_data_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"document": ["a"], "query": ["a"], "answer": "a"}\n')
        proc = self.run_cli("stats", "--data", str(bad))
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == "validation"

    def test_missing_file_is_io_error(self, tmp_path):
        proc = self.run_cli("stats", "--data", str(tmp_path / "nope.jsonl"))
        assert proc.returncode == 5
        assert json.loads(proc.stderr)["error"] == "io"

    def test_vocab_mismatch_is_usage_class_error(self, tmp_path):
        corpus, ckpt = self.trained_checkpoint(tmp_path)
        # Overwrite the checkpoint vocabulary with a truncated, smaller one.
        invoke_ok(CliRunner(), ["build-vocab", "--input", str(corpus / "train.jsonl"),
                           "--shortlist", "10", "--output", str(ckpt / "vocab.txt")])
        proc = self.run_cli("eval", "--checkpoint", str(ckpt), "--data", str(corpus / "test.jsonl"))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "usage"

    def test_corrupt_checkpoint_is_io_error(self, tmp_path):
        corpus, ckpt = self.trained_checkpoint(tmp_path)
        blob = (ckpt / "params.bin").read_bytes()
        (ckpt / "params.bin").write_bytes(blob[: len(blob) // 2])
        proc = self.run_cli("eval", "--checkpoint", str(ckpt), "--data", str(corpus / "test.jsonl"))
        assert proc.returncode == 5
        assert json.loads(proc.stderr)["error"] == "io"

    def test_missing_checkpoint_binary_is_io_error(self, tmp_path):
        corpus, ckpt = self.trained_checkpoint(tmp_path)
        for part in ("params.bin", "adam.bin"):
            blob = (ckpt / part).read_bytes()
            (ckpt / part).unlink()
            proc = self.run_cli("eval", "--checkpoint", str(ckpt), "--data", str(corpus / "test.jsonl"))
            (ckpt / part).write_bytes(blob)
            assert proc.returncode == 5, proc.stderr
            error = json.loads(proc.stderr)
            assert error["error"] == "io" and error["message"].startswith(f"no {part} under")

    def test_malformed_manifest_values_are_io_errors(self, tmp_path):
        corpus, ckpt = self.trained_checkpoint(tmp_path)
        manifest = ckpt / "manifest.txt"
        original = manifest.read_text()
        for old, new in [("embed_dim\t8", "embed_dim\tfour"), ("param\tembedding\t", "param\tembedding\tx,")]:
            assert old in original
            manifest.write_text(original.replace(old, new))
            proc = self.run_cli("eval", "--checkpoint", str(ckpt), "--data", str(corpus / "test.jsonl"))
            assert proc.returncode == 5, proc.stderr
            assert json.loads(proc.stderr)["error"] == "io"

    def test_bad_config_field_is_usage_error(self, tmp_path):
        runner = CliRunner()
        corpus = small_synth(runner, tmp_path)
        vocab_path = tmp_path / "vocab.txt"
        invoke_ok(runner, ["build-vocab", "--input", str(corpus / "train.jsonl"),
                           "--shortlist", "0", "--output", str(vocab_path)])
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"learning_rate": 1}')
        proc = self.run_cli(
            "train", "--train", str(corpus / "train.jsonl"), "--valid", str(corpus / "valid.jsonl"),
            "--vocab", str(vocab_path), "--config", str(cfg), "--out", str(tmp_path / "c"),
        )
        assert proc.returncode == 2
        assert "learning_rate" in json.loads(proc.stderr)["message"]
