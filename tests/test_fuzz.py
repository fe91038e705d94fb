"""Fuzz gate: mutated input files end in a documented exit code, never a traceback.

Seven inputs of one 32x32 scene (the three PGMs the commands read, the EMBF
field, both box files and a run config) are mutated with a fixed seed: bit
flips, truncation, appended bytes, duplicated runs and JSON-character edits,
half of them aimed at the first 32 bytes, where the headers are. Each
mutant is fed to the command that reads that input. optimize and cluster
always read the fixed config below, so a mutated config reaches only eval,
where no key can scale up the work or the memory.
"""
import json
import random

import pytest

from instance_embed.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}
CASES_PER_INPUT = 29  # 203 cases over the seven inputs
JSON_CHARS = b'{}[]:,"-.0123456789eE '

CONFIG = {
    "scene": {"width": 32, "height": 32, "num_instances": 3, "seed": 3},
    "optimizer": {"max_steps": 20, "seed": 3},
    "cluster": {"max_iters": 20, "seed_stride": 4, "merge_tolerance": 1.65},
}

# Mutated input -> the command that reads it; "{x}" is the mutant's path and
# every other path names a clean file of the scene.
COMMANDS = {
    "labels.pgm": ["optimize", "--config", "run.json", "--labels", "{x}"],
    "drivable.pgm": ["cluster", "--config", "run.json", "--embeddings", "embeddings.embf",
                     "--mask", "{x}"],
    "embeddings.embf": ["cluster", "--config", "run.json", "--embeddings", "{x}",
                        "--mask", "drivable.pgm"],
    "instances.pgm": ["eval", "--pred-instances", "{x}", "--gt-labels", "labels.pgm",
                      "--pred-drivable", "{x}", "--gt-drivable", "drivable.pgm"],
    "boxes.json": ["eval", "--pred-boxes", "pred_boxes.json", "--gt-boxes", "{x}"],
    "pred_boxes.json": ["eval", "--pred-boxes", "{x}", "--gt-boxes", "boxes.json"],
    "run.json": ["eval", "--config", "{x}", "--pred-instances", "instances.pgm",
                 "--gt-labels", "labels.pgm", "--pred-boxes", "pred_boxes.json",
                 "--gt-boxes", "boxes.json"],
}


def _pos(data, rng):
    return rng.randrange(min(len(data), 32) if rng.random() < 0.5 else len(data))


def _flip(data, rng):
    i = _pos(data, rng)
    return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]


def _truncate(data, rng):
    return data[:_pos(data, rng)]


def _append(data, rng):
    return data + rng.randbytes(rng.randint(1, 16))


def _duplicate(data, rng):
    i = _pos(data, rng)
    j = min(len(data), i + rng.randint(1, 64))
    return data[:j] + data[i:j] + data[j:]


def _json_char(data, rng):
    i = _pos(data, rng)
    return data[:i] + bytes([rng.choice(JSON_CHARS)]) + data[i + 1:]


MUTATIONS = (_flip, _truncate, _append, _duplicate, _json_char)

# Every modes.json a cluster command writes holds exactly these keys.
MODES_KEYS = {
    "num_clusters", "modes", "basin_pixels", "dropped_seeds", "unconverged_seeds",
    "capture_groups", "unconfirmed_groups", "capture_sweeps", "merged_captures",
}


def _argv(template, scene, mutant=None):
    """Resolve file names against the scene directory and "{x}" to the mutant."""
    return [str(mutant) if a == "{x}" else str(scene / a) if "." in a else a for a in template]


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "run.json").write_text(json.dumps(CONFIG))
    for argv in (
        ["gen"],
        ["optimize", "--labels", "labels.pgm"],
        ["cluster", "--embeddings", "embeddings.embf", "--mask", "drivable.pgm"],
    ):
        assert main(_argv(argv + ["--config", "run.json"], d) + ["--out", str(d)]) == 0
    return d


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mutated_input_exits_with_a_documented_code(scene, tmp_path, name):
    original = (scene / name).read_bytes()
    rng = random.Random(name)
    for case in range(CASES_PER_INPUT):
        mutate = MUTATIONS[case % len(MUTATIONS)]
        mutant = tmp_path / f"{case}_{name}"
        mutant.write_bytes(mutate(original, rng))
        what = f"{name} case {case} ({mutate.__name__[1:]})"
        try:
            code = main(_argv(COMMANDS[name], scene, mutant) + ["--out", str(tmp_path / "out")])
        except Exception as exc:
            pytest.fail(f"{what} raised {type(exc).__name__}: {exc}")
        assert code in EXIT_CODES, f"{what} exited {code}"
        if code == 0 and COMMANDS[name][0] == "cluster":
            keys = set(json.loads((tmp_path / "out" / "modes.json").read_text()))
            assert keys == MODES_KEYS, f"{what} wrote modes.json keys {sorted(keys)}"
