"""The README stays in step with the program: default config and command table."""
import argparse
import json
import re
from dataclasses import asdict
from pathlib import Path

from instance_embed.cli import build_parser
from instance_embed.config import default_run_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title):
    """Text under the README's '## title' heading, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_default_config_block_matches_parsed_defaults():
    block = re.search(r"```json\n(.*?)```", _section("Configuration"), re.S).group(1)
    want = asdict(default_run_config())
    want["optimizer"]["dim"] = want.pop("embedding_dim")
    # a JSON round trip turns tuples such as metrics.classes into lists
    assert json.loads(block) == json.loads(json.dumps(want))


def test_command_table_lists_exactly_the_subcommands():
    table = re.findall(r"^\| `([a-z]+)` \|", _section("Command-line interface"), re.M)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(table) == sorted(sub.choices)
