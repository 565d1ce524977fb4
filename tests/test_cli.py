"""End-to-end command-line tests: the synth -> build-vocab -> train -> eval
pipeline, the tagged-corpus path, stats golden, the error surface, and an
in-process fuzz of every subcommand's exit code."""

import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casreader
from casreader.cli import cli, main
from casreader.synthetic import MAX_VOCAB_SIZE

from helpers import FRAGMENTS

GOLDEN = Path(__file__).parent / "golden" / "synth_seed0_stats.json"
SAMPLE_LINE = b'{"document": ["a", "b", "a"], "query": ["\xe2\x9f\xa8X\xe2\x9f\xa9", "b"], "answer": "a"}\n'

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
        for part in ("vocab.txt", "params.bin"):
            kept = (ckpt / part).read_bytes()
            (ckpt / part).unlink()
            proc = self.run_cli("eval", "--checkpoint", str(ckpt), "--data", str(corpus / "test.jsonl"))
            assert proc.returncode == 5, proc.stderr
            error = json.loads(proc.stderr)
            assert error["error"] == "io" and error["message"].startswith(f"no {part} under")
            (ckpt / part).write_bytes(kept)

    @pytest.mark.parametrize(
        "args, content, code",
        [
            (["stats", "--data"], b'{"document": ["a\xff"]}\n', 3),
            (["stats", "--data"], b"[" * 100_000 + b"\n", 3),
            (["generate", "--output", "-", "--input"], b"#doc d0\nriver\tn\n\xff\tn\n", 3),
            (["train", "--train", "-", "--valid", "-", "--out", "-", "--vocab"],
             b"casreader-vocab-v1\tshortlist=none\nfoo\t\xc2\xb2\n", 3),
            (["train", "--train", "-", "--valid", "-", "--vocab", "-", "--out", "-", "--config"], b'{"epochs": 1, \xff}', 3),
            (["train", "--train", "-", "--valid", "-", "--vocab", "-", "--out", "-", "--config"], b'{"embed_dim": "16"}', 2),
            (["train", "--train", "-", "--valid", "-", "--vocab", "-", "--out", "-", "--config"], b'{"epochs": 1.5}', 2),
            (["train", "--train", "-", "--valid", "-", "--vocab", "-", "--out", "-", "--config"], b'{"seed": -1}', 2),
            (["train", "--train", "-", "--valid", "-", "--vocab", "-", "--out", "-", "--config"], b'{"beta1": 1.0}', 2),
            (["train", "--train", "-", "--valid", "-", "--vocab", "-", "--out", "-", "--config"], b'{"lr": NaN}', 2),
            (["build-vocab", "--shortlist", "-5", "--output", "-", "--input"], SAMPLE_LINE, 2),
            (["synth", "--test-docs", "0", "--out"], b"", 2),
            (["synth", "--train-docs", "-1", "--out"], b"", 2),
            (["synth", "--seed", "-1", "--out"], b"", 2),
            (["generate", "--seed", "-1", "--output", "-", "--input"], b"#doc d0\nriver\tn\n\nriver\tn\n", 2),
            (["train", "--train", "-", "--valid", "-", "--vocab", "-", "--out", "-", "--config"], b'{"preset": []}', 2),
        ],
        ids=["jsonl-not-utf8", "jsonl-too-deep", "tagged-not-utf8", "vocab-superscript-frequency",
             "config-not-utf8", "config-str-dim", "config-float-epochs", "config-negative-seed",
             "config-beta1-one", "config-nan-lr", "vocab-negative-shortlist", "synth-zero-test-docs",
             "synth-negative-train-docs", "synth-negative-seed", "generate-negative-seed", "config-list-preset"],
    )
    def test_malformed_input_is_typed_error(self, tmp_path, args, content, code):
        """The path named by the last flag fails before any "-" path is used."""
        path = tmp_path / "input"
        path.write_bytes(content)
        proc = self.run_cli(*args, str(path))
        assert proc.returncode == code, proc.stderr
        assert json.loads(proc.stderr)["error"] == {2: "usage", 3: "validation"}[code]

    def test_malformed_manifest_values_are_io_errors(self, tmp_path):
        corpus, ckpt = self.trained_checkpoint(tmp_path)
        manifest = ckpt / "manifest.txt"
        original = manifest.read_text()
        for old, new in [
            ("embed_dim\t8", "embed_dim\tfour"),
            ("param\tembedding\t", "param\tembedding\tx,"),
            ("param\tdoc_fwd.w_z\t8,8", "param\tdoc_fwd.w_z\t1000000,1000000"),  # 7.3 TiB if allocated
            ("param\tdoc_fwd.u_z\t8,8", "param\tdoc_fwd.u_z\t4,16"),  # same element count: only the layout differs
        ]:
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


def run_main(*args):
    """Run the `casreader` entry point in this process: (exit code, stdout, stderr).

    An exception that escapes `main` is not caught: it is the traceback and
    exit status 1 a shell would see.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["casreader", *map(str, args)]), redirect_stdout(out), redirect_stderr(err):
        try:
            main()
            code = 0
        except SystemExit as exit_:
            code = exit_.code or 0
    return code, out.getvalue(), err.getvalue()


def assert_documented_exit(code, stderr):
    """Exit 0, or a documented failure code with one JSON line naming its class."""
    assert code in (0, 2, 3, 4, 5), (code, stderr)
    if code:
        line, rest = stderr.split("\n", 1)
        assert rest == ""
        error = json.loads(line)
        assert error["error"] == {2: "usage", 3: "validation", 4: "numeric", 5: "io"}[code]
        assert isinstance(error["message"], str)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A tiny corpus, its vocabulary, a one-epoch config and the checkpoint it trains."""
    base = tmp_path_factory.mktemp("cli-base")
    runs = [
        ("synth", "--out", base, "--train-docs", 6, "--valid-docs", 3, "--test-docs", 3),
        ("build-vocab", "--input", base / "train.jsonl", "--shortlist", 0, "--output", base / "vocab.txt"),
        ("train", "--train", base / "train.jsonl", "--valid", base / "valid.jsonl", "--vocab", base / "vocab.txt",
         "--config", config_file(base, embed_dim=4, hidden_dim=4, epochs=1, batch_size=4), "--out", base / "ckpt"),
    ]
    for args in runs:
        code, _, stderr = run_main(*args)
        assert code == 0, stderr
    return base


JSONL_STARTS = [b"", SAMPLE_LINE, b'{"document": ["a"]}\n']
# Each subcommand, the flag whose file gets the fuzzed bytes, the well-formed
# starts of that file's format, and the rest of a valid command line;
# `{base}` names the fixture's files, `{out}` a fresh output directory.
CLI_RUNS = {
    "stats": ("stats", "--data", JSONL_STARTS, []),
    "generate": ("generate", "--input", [b"", b"#doc d0\n", b"#doc d0\nriver\tn\n\nriver\tn\n"],
                 ["--output", "{out}/samples.jsonl", "--skip-log", "{out}/skips.jsonl", "--noun-tags", "n,NN"]),
    "build-vocab": ("build-vocab", "--input", JSONL_STARTS, ["--shortlist", "3", "--output", "{out}/vocab.txt"]),
    "train-data": ("train", "--train", JSONL_STARTS, ["--valid", "{base}/valid.jsonl", "--vocab", "{base}/vocab.txt",
                                                      "--config", "{base}/config.json", "--out", "{out}/ckpt"]),
    "train-vocab": ("train", "--vocab", [b"", b"casreader-vocab-v1\tshortlist=none\n", b"casreader-vocab-v1\tshortlist=3\na\t2\n"],
                    ["--train", "{base}/train.jsonl", "--valid", "{base}/valid.jsonl",
                     "--config", "{base}/config.json", "--out", "{out}/ckpt"]),
    "train-config": ("train", "--config", [b"", b'{"epochs": 1, "embed_dim": 4, "hidden_dim": 4, "batch_size": 4, '],
                     ["--train", "{base}/train.jsonl", "--valid", "{base}/valid.jsonl",
                      "--vocab", "{base}/vocab.txt", "--out", "{out}/ckpt"]),
    "eval": ("eval", "--data", JSONL_STARTS, ["--checkpoint", "{base}/ckpt", "--records", "--restrict-candidates",
                                              "--dump-attention", "{out}/attention.jsonl"]),
}
CLI_FRAGMENTS = FRAGMENTS + [b'"candidates"', b'"meta"', b"casreader-vocab-v1", b"shortlist=", b"none", b"\tn",
                             b"\tNN", b'"merge_mode"', b'"preset"', b'"sum"', b"true", b"1e999"]


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(CLI_RUNS)),
    start=st.integers(0, 2),
    body=st.one_of(st.binary(max_size=200), st.lists(st.sampled_from(CLI_FRAGMENTS), max_size=60).map(b"".join)),
)
def test_every_subcommand_exits_with_a_documented_code_on_arbitrary_bytes(
    fuzz_base, tmp_path_factory, name, start, body
):
    command, flag, starts, rest = CLI_RUNS[name]
    out = tmp_path_factory.mktemp("cli-fuzz")
    path = out / "input"
    path.write_bytes(starts[start % len(starts)] + body)
    code, _, stderr = run_main(command, flag, path, *(arg.format(base=fuzz_base, out=out) for arg in rest))
    assert_documented_exit(code, stderr)


@settings(max_examples=60, deadline=None)
@given(
    vocab_size=st.integers(40, 60),
    sizes=st.tuples(st.integers(-2, 3), st.integers(-2, 3), st.integers(-2, 3)),
    seed=st.integers(-1, 2),
)
# 2**70 filler names would never fit in memory: the size is refused before any is built.
@example(vocab_size=2**70, sizes=(1, 1, 1), seed=0)
def test_synth_exits_with_a_documented_code_on_any_sizes(tmp_path_factory, vocab_size, sizes, seed):
    out = tmp_path_factory.mktemp("synth-fuzz") / "corpus"
    train_docs, valid_docs, test_docs = sizes
    code, _, stderr = run_main("synth", "--out", out, "--seed", seed, "--vocab-size", vocab_size,
                               "--train-docs", train_docs, "--valid-docs", valid_docs, "--test-docs", test_docs)
    assert_documented_exit(code, stderr)
    assert out.exists() == (code == 0)
    if vocab_size > MAX_VOCAB_SIZE:
        assert code == 2 and "vocab_size must be in" in json.loads(stderr)["message"], stderr


def test_embedding_numpy_refuses_is_usage_error(fuzz_base, tmp_path):
    config = config_file(tmp_path, epochs=1, embed_dim=2**50)  # 2**50 columns: numpy refuses before allocating
    code, _, stderr = run_main("train", "--train", fuzz_base / "train.jsonl", "--valid", fuzz_base / "valid.jsonl",
                               "--vocab", fuzz_base / "vocab.txt", "--config", config, "--out", tmp_path / "ckpt")
    assert code == 2, stderr
    assert f"x {2**50}] embedding" in json.loads(stderr)["message"]


def test_huge_learning_rate_exits_numeric_without_warnings(fuzz_base, tmp_path):
    config = config_file(tmp_path, epochs=1, embed_dim=4, hidden_dim=4, batch_size=4, lr=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, stderr = run_main("train", "--train", fuzz_base / "train.jsonl", "--valid", fuzz_base / "valid.jsonl",
                                   "--vocab", fuzz_base / "vocab.txt", "--config", config, "--out", tmp_path / "ckpt")
    assert code == 4, stderr
    assert json.loads(stderr)["message"] == "training diverged before completing the first epoch"
