"""Benchmark workloads: the run configs each one feeds the program.

A workload turns the benchmark seed into a fixed list of scene jobs (one
pass). Every job is a run config plus the CLI commands that consume it; the
program sees nothing but the written config files and the files its own
earlier commands wrote.
"""
from __future__ import annotations

from dataclasses import dataclass

LAYOUTS = ("parallel_stripes", "fork", "curved_bands")

PIPELINE_FILES = (
    "labels.pgm", "drivable.pgm", "lanes.pgm", "boxes.json", "scene.json",
    "embeddings.embf", "trace.json", "instances.pgm", "modes.json", "metrics.json",
)

STAGED_FILES = (
    "gen/labels.pgm", "gen/drivable.pgm", "gen/lanes.pgm", "gen/boxes.json", "gen/scene.json",
    "optimize/embeddings.embf", "optimize/trace.json",
    "cluster/instances.pgm", "cluster/modes.json",
    "eval/metrics.json",
)


@dataclass(frozen=True)
class Job:
    """One scene of a closed loop: a config and how the CLI consumes it."""

    key: str
    config: dict
    staged: bool = False

    def commands(self, cfg: str, out: str) -> list:
        if not self.staged:
            return [["pipeline", "--config", cfg, "--out", out]]
        return [
            ["gen", "--config", cfg, "--out", f"{out}/gen"],
            ["optimize", "--config", cfg, "--labels", f"{out}/gen/labels.pgm",
             "--out", f"{out}/optimize"],
            ["cluster", "--config", cfg, "--embeddings", f"{out}/optimize/embeddings.embf",
             "--mask", f"{out}/gen/drivable.pgm", "--out", f"{out}/cluster"],
            ["eval", "--config", cfg, "--pred-instances", f"{out}/cluster/instances.pgm",
             "--gt-labels", f"{out}/gen/labels.pgm", "--out", f"{out}/eval"],
        ]

    @property
    def expected_files(self) -> tuple:
        return STAGED_FILES if self.staged else PIPELINE_FILES

    @property
    def metrics_file(self) -> str:
        return "eval/metrics.json" if self.staged else "metrics.json"


def scene_seed(seed: int, i: int) -> int:
    """Scene i of benchmark seed `seed`; distinct seeds never share scenes."""
    return seed * 1000 + i


def small_scenes(seed: int) -> list:
    # Acceptance criterion 3 settings on 64x64 scenes; twelve scenes cover
    # every (1..4 instances) x (3 layouts) pair once.
    jobs = []
    for i in range(12):
        s = scene_seed(seed, i)
        jobs.append(Job(f"s{i:02d}", {
            "scene": {"num_instances": 1 + i % 4, "layout": LAYOUTS[i % 3], "seed": s},
            "optimizer": {"max_steps": 300, "loss_tolerance": 1e-3, "seed": s},
            "cluster": {"seed_stride": 5, "merge_tolerance": 1.65},
        }))
    return jobs


def dense_128(seed: int) -> list:
    # Default cluster config: stride 1 gives about 11.8k mean-shift seeds.
    s = scene_seed(seed, 0)
    return [Job("d00", {
        "scene": {"width": 128, "height": 128, "num_instances": 4,
                  "layout": "parallel_stripes", "seed": s},
        "optimizer": {"seed": s},
    })]


def staged_96(seed: int) -> list:
    s = scene_seed(seed, 0)
    return [Job("g00", {
        "scene": {"width": 96, "height": 96, "num_instances": 3,
                  "layout": "curved_bands", "seed": s},
        "optimizer": {"seed": s},
        "cluster": {"seed_stride": 2},
    }, staged=True)]


WORKLOADS = {
    "small-scenes": small_scenes,
    "dense-128": dense_128,
    "staged-96": staged_96,
}
