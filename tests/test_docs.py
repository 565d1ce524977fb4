"""README checks that need no run: its layout table has one row per module,
every command line it shows parses against the real CLI, and
`tools/quickstart_digest.py` reads a recipe it can run from the README's
quick start."""

import importlib.util
import re
from pathlib import Path

import pytest

from casreader.cli import cli
from casreader.train import TrainConfig

ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("quickstart_digest", ROOT / "tools" / "quickstart_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_layout_table_names_every_module():
    rows = re.findall(r"^\| `casreader\.(\w+)` \|", (ROOT / "README.md").read_text(encoding="utf-8"), re.M)
    modules = [p.stem for p in (ROOT / "src" / "casreader").glob("*.py") if p.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def test_every_readme_command_line_parses_against_the_cli(digest):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = [args for block in digest.sh_blocks(text) for args in digest.sh_commands(block)]
    for name, *args in commands:
        cli.commands[name].make_context(name, args)  # raises on a renamed flag or an unknown mode
    assert {name for name, *_ in commands} == set(cli.commands)


def test_digest_reads_the_readme_quick_start(digest):
    config, recipe = digest.quick_start()
    assert [name for name, _ in digest.steps(recipe)[:4]] == ["synth", "build-vocab", "train", "eval"]
    TrainConfig(**config, **digest.CONFIG_OVERRIDES)
