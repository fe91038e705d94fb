"""The README stays in step with the program: default config, command table
and library names."""
import argparse
import ast
import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np

import instance_embed
from instance_embed import BinaryMask, fileio
from instance_embed.cli import build_parser, main
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


def test_entry_point_names_are_public():
    bullets = _section("Library use").split("Useful entry points beyond the pipeline:", 1)[1]
    heads = [b.split(":", 1)[0] for b in bullets.split("\n- ")[1:]]
    names = [n for head in heads for n in re.findall(r"`(\w+)`", head)]
    assert "trace_receptive_field" in names
    assert sorted(set(names) - set(instance_embed.__all__)) == []


def test_library_example_imports_are_public():
    code = re.search(r"```python\n(.*?)```", _section("Library use"), re.S).group(1)
    names = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "instance_embed"
        for alias in node.names
    ]
    assert "cluster_field" in names
    assert sorted(set(names) - set(instance_embed.__all__)) == []


def test_every_modes_json_key_is_named(tmp_path):
    fileio.write_embf(tmp_path / "emb.embf", np.random.default_rng(0).standard_normal((8, 8, 3)))
    fileio.write_mask(tmp_path / "mask.pgm", BinaryMask(np.ones((8, 8), dtype=np.uint8)))
    out = tmp_path / "out"
    assert main(["cluster", "--embeddings", str(tmp_path / "emb.embf"),
                 "--mask", str(tmp_path / "mask.pgm"), "--out", str(out)]) == 0
    keys = json.loads((out / "modes.json").read_text())
    assert sorted(set(keys) - set(re.findall(r"`(\w+)`", README))) == []
