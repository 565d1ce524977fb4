"""Run the README quick start and its eval variants through the CLI, then
print one sha256 per file written.

    python tools/quickstart_digest.py --src CHECKOUT --out DIR

Every command runs as `python -m casreader.cli` with `CHECKOUT/src` first on
`PYTHONPATH`, inside DIR, which must be missing or empty. The commands are:

- `synth --seed 0` and `build-vocab --shortlist 0`, as in the README;
- `train` with the README's config plus dropout 0.2, so the dropout draws
  are covered too;
- `eval` as in the README, then `--records`, and `--restrict-candidates`
  with `--dump-attention`, in each of the four modes;
- `generate --skip-log` over a small fixed tagged corpus, and `stats` on the
  synthetic test split and the generated samples.

Each command's stdout is kept as `stdout/<step>.json`. Every
`"wall_time_s": <number>` is masked before hashing, so two checkouts that
compute the same thing print the same lines: compare them with `diff`. The
script exits 1, printing the command's stderr, when a command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

MODES = ("sum", "avg", "max", "as-baseline")

CONFIG = {"embed_dim": 16, "hidden_dim": 16, "epochs": 30, "seed": 7, "merge_mode": "avg",
          "shortlist_size": None, "dropout_rate": 0.2}

# Two documents with nouns to blank at sentence starts, middles and ends, and
# one without a noun that occurs twice, which `generate` skips.
TAGGED = (
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

WALL_TIME = re.compile(rb'"wall_time_s": [-+0-9.eE]+')


def steps() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) in run order."""
    out = [
        ("synth", ["synth", "--out", "corpus", "--seed", "0"]),
        ("build-vocab", ["build-vocab", "--input", "corpus/train.jsonl", "--shortlist", "0", "--output", "vocab.txt"]),
        ("train", ["train", "--train", "corpus/train.jsonl", "--valid", "corpus/valid.jsonl",
                   "--vocab", "vocab.txt", "--config", "config.json", "--out", "ckpt"]),
        ("eval", ["eval", "--checkpoint", "ckpt", "--data", "corpus/test.jsonl", "--mode", "avg"]),
    ]
    for mode in MODES:
        base = ["eval", "--checkpoint", "ckpt", "--data", "corpus/test.jsonl", "--mode", mode]
        out.append((f"eval-records-{mode}", base + ["--records"]))
        out.append((f"eval-restricted-{mode}",
                    base + ["--restrict-candidates", "--dump-attention", f"attention-{mode}.jsonl"]))
    out += [
        ("generate", ["generate", "--input", "tagged.txt", "--output", "generated.jsonl", "--seed", "3",
                      "--samples-per-doc", "3", "--skip-log", "skips.jsonl"]),
        ("stats-test", ["stats", "--data", "corpus/test.jsonl"]),
        ("stats-generated", ["stats", "--data", "generated.jsonl"]),
    ]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="checkout whose src/ holds the casreader package")
    parser.add_argument("--out", required=True, type=Path, help="directory to run in; must be missing or empty")
    args = parser.parse_args()
    package = (args.src / "src").resolve()
    if not (package / "casreader" / "cli.py").is_file():
        parser.error(f"no casreader package under {package}")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        parser.error(f"{out} is not empty")
    (out / "config.json").write_text(json.dumps(CONFIG) + "\n", encoding="utf-8")
    (out / "tagged.txt").write_text(TAGGED, encoding="utf-8")
    (out / "stdout").mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(package), os.environ.get("PYTHONPATH")])))
    for name, cli_args in steps():
        run = subprocess.run([sys.executable, "-m", "casreader.cli", *cli_args],
                             cwd=out, env=env, capture_output=True)
        if run.returncode != 0:
            sys.stderr.write(f"{name} exited {run.returncode}:\n{run.stderr.decode(errors='replace')}")
            return 1
        (out / "stdout" / f"{name}.json").write_bytes(run.stdout)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        masked = WALL_TIME.sub(b'"wall_time_s": "masked"', path.read_bytes())
        print(f"{hashlib.sha256(masked).hexdigest()}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
