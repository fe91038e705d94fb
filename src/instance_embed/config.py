"""Run configuration: one strict JSON document for the whole pipeline.

Sections scene, loss, optimizer, cluster, and metrics map onto the matching
module configs; every field is optional and falls back to that config's
default. Unknown sections or keys are rejected with the offending path.
The embedding dimension rides in the optimizer section as "dim".
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace

from .clustering import VmfConfig
from .errors import ConfigError
from .fileio import read_json
from .losses import DiscriminativeConfig
from .metrics import _is_int
from .optimize import OptimizerConfig
from .scenes import MAX_CANVAS_SIDE, SceneConfig

DEFAULT_EMBEDDING_DIM = 8
# Largest accepted optimizer.dim. The descent holds several (H, W, dim)
# float64 arrays, so a larger dim runs out of memory or time before it helps.
MAX_EMBEDDING_DIM = 256
# Largest accepted scene.width x scene.height x optimizer.dim: the largest
# canvas at the default dim, where each (H, W, dim) float64 array of the
# descent takes 1 GiB. The two bounds above alone let a 4096x4096 canvas at
# dim 256 ask for 32 GiB arrays.
MAX_FIELD_VALUES = MAX_CANVAS_SIDE * MAX_CANVAS_SIDE * DEFAULT_EMBEDDING_DIM


@dataclass(frozen=True)
class MetricsConfig:
    """Evaluation settings: class list and recall thresholds."""

    classes: tuple[int, ...] = (0,)
    recall_iou_threshold: float = 0.5
    recall_score_threshold: float = 0.5

    def __post_init__(self):
        for c in self.classes:
            if not _is_int(c):
                raise ValueError(f"classes entries must be integers, got {c!r}")
        object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))
        if not self.classes:
            raise ValueError("classes must be non-empty")
        for name in ("recall_iou_threshold", "recall_score_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class RunConfig:
    scene: SceneConfig
    loss: DiscriminativeConfig
    optimizer: OptimizerConfig
    cluster: VmfConfig
    metrics: MetricsConfig
    embedding_dim: int = DEFAULT_EMBEDDING_DIM
    output_dir: str = ""


_SECTION_TYPES = {
    "scene": SceneConfig,
    "loss": DiscriminativeConfig,
    "optimizer": OptimizerConfig,
    "cluster": VmfConfig,
    "metrics": MetricsConfig,
}

# Accepted JSON values per field type; every config module postpones
# annotations, so a field's type is its name as a string. Ints must fit
# int64 and floats must be finite doubles, so no huge JSON integer overflows.
_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63,
    "float": lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    ),
    "str": lambda v: isinstance(v, str),
    "tuple[int, ...]": lambda v: (
        isinstance(v, (list, tuple)) and all(_TYPE_CHECKS["int"](c) for c in v)
    ),
}


def _build_section(name: str, cls, data: dict):
    field_types = {f.name: f.type for f in fields(cls)}
    for key, value in data.items():
        if key not in field_types:
            raise ConfigError(f"{name}: unknown key {key!r}")
        if not _TYPE_CHECKS[field_types[key]](value):
            raise ConfigError(f"{name}.{key}: expected {field_types[key]}, got {value!r}")
    try:
        return cls(**data)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_run_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    known = set(_SECTION_TYPES) | {"output_dir"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown section {key!r}")
    output_dir = doc.get("output_dir", "")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")

    section_docs = {}
    for name in _SECTION_TYPES:
        data = doc.get(name, {})
        if not isinstance(data, dict):
            raise ConfigError(f"section {name!r} must be an object")
        section_docs[name] = dict(data)

    dim = DEFAULT_EMBEDDING_DIM
    if "dim" in section_docs["optimizer"]:
        dim = section_docs["optimizer"].pop("dim")
        if not _TYPE_CHECKS["int"](dim) or not 1 <= dim <= MAX_EMBEDDING_DIM:
            raise ConfigError(
                f"optimizer.dim must be an integer in [1, {MAX_EMBEDDING_DIM}], got {dim!r}"
            )

    sections = {
        name: _build_section(name, cls, section_docs[name])
        for name, cls in _SECTION_TYPES.items()
    }
    scene = sections["scene"]
    if scene.width * scene.height * dim > MAX_FIELD_VALUES:
        raise ConfigError(
            f"scene.width x scene.height x optimizer.dim must be at most {MAX_FIELD_VALUES}, "
            f"got {scene.width}x{scene.height}x{dim}"
        )
    return RunConfig(
        scene=scene,
        loss=sections["loss"],
        optimizer=sections["optimizer"],
        cluster=sections["cluster"],
        metrics=sections["metrics"],
        embedding_dim=dim,
        output_dir=output_dir,
    )


def load_run_config(path) -> RunConfig:
    """Read and validate a JSON run config from disk."""
    try:
        doc = read_json(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    return parse_run_config(doc)


def default_run_config() -> RunConfig:
    return parse_run_config({})


def override_seed(cfg: RunConfig, seed: int) -> RunConfig:
    """Apply a CLI --seed to both the scene and the optimizer."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return replace(
        cfg,
        scene=replace(cfg.scene, seed=seed),
        optimizer=replace(cfg.optimizer, seed=seed),
    )
