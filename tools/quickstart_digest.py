"""Run the README quick start and its eval variants through the CLI, then
print one sha256 per file written.

    python tools/quickstart_digest.py --src CHECKOUT --out DIR

The recipe is read from the README beside this script, not copied: the
config is the `<<'EOF'` heredoc of the first `sh` block under `## Quick
start`, and the steps are that block's `casreader …` lines, each named after
its subcommand. On top of the recipe the script adds:

- `dropout_rate` 0.2 in the config, so the dropout draws are covered too;
- `eval --records`, and `eval --restrict-candidates --dump-attention`, in
  each of the four modes;
- `generate --skip-log` over a small fixed tagged corpus, and `stats` on the
  synthetic test split and the generated samples.

Every command runs as `python -m casreader.cli` with `CHECKOUT/src` first on
`PYTHONPATH`, inside DIR, which must be missing or empty. Each command's
stdout is kept as `stdout/<step>.json`. Every `"wall_time_s": <number>` is
masked before hashing, so two checkouts that compute the same thing print
the same lines: compare them with `diff`. The script exits 1, printing the
command's stderr, when a command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

MODES = ("sum", "avg", "max", "as-baseline")

README = Path(__file__).parent.parent / "README.md"
CONFIG_OVERRIDES = {"dropout_rate": 0.2}

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


def sh_blocks(markdown: str) -> list[str]:
    """The bodies of the fenced `sh` blocks of a Markdown text, in order."""
    return re.findall(r"^```sh\n(.*?)^```$", markdown, re.M | re.S)


def sh_commands(block: str) -> list[list[str]]:
    """The CLI arguments of each `casreader …` line of an `sh` block, with
    `\\`-continued lines joined."""
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("casreader ")]


def quick_start(readme: Path = README) -> tuple[dict, list[tuple[str, list[str]]]]:
    """The config and the (subcommand, CLI arguments) steps of the first `sh`
    block under `## Quick start`."""
    section = readme.read_text(encoding="utf-8").split("\n## Quick start", 1)[1]
    block = sh_blocks(section)[0]
    config = json.loads(re.search(r"<<'EOF'\n(.*?)^EOF$", block, re.M | re.S).group(1))
    return config, [(args[0], args) for args in sh_commands(block)]


def steps(recipe: list[tuple[str, list[str]]]) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) in run order: the quick start's, then the variants."""
    out = list(recipe)
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
    config, recipe = quick_start()
    (out / "config.json").write_text(json.dumps({**config, **CONFIG_OVERRIDES}) + "\n", encoding="utf-8")
    (out / "tagged.txt").write_text(TAGGED, encoding="utf-8")
    (out / "stdout").mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(package), os.environ.get("PYTHONPATH")])))
    for name, cli_args in steps(recipe):
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
