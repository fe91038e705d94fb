"""Instance segmentation via discriminative pixel embeddings.

The package covers the full loop on synthetic driving scenes: generate a
labeled scene, fit per-pixel embeddings under a pull/push/regularize loss
with analytic gradients, cluster the normalized embeddings with spherical
mean shift, and score the result (segmentation IoU, detection AP, instance
mask AP). A receptive-field tracer for stacked deformable kernels rounds
out the toolkit.
"""
from .core import (
    BinaryMask,
    EmbeddingField,
    Grid2D,
    LabelMap,
    relabel_contiguous,
    validate_pair,
)
from .errors import (
    ConfigError,
    DegenerateShift,
    DegenerateVector,
    DimensionMismatch,
    EmptyForeground,
    EmptyInstance,
    FormatError,
    InfeasibleLayout,
    InstanceEmbedError,
    NoGroundTruth,
    NonFiniteLoss,
    OriginOnBackground,
)
from .losses import (
    DiscriminativeConfig,
    LossBreakdown,
    cluster_means,
    discriminative_grad,
    discriminative_loss,
    finite_diff_grad,
)
from .optimize import (
    OptimizationTrace,
    OptimizerConfig,
    normalize_field,
    optimize_embeddings,
)
from .clustering import (
    ClusterResult,
    FlatIndex,
    ModeSearch,
    VmfConfig,
    assign_to_modes,
    cluster_field,
    flatten_foreground,
    mean_shift_modes,
    vmf_shift_step,
)
from .sampling import (
    KernelGrid,
    OffsetField,
    ReceptiveTrace,
    bilinear_sample,
    centroid_pull_score,
    deformable_sample,
    fit_offsets_to_centroid,
    trace_receptive_field,
    uniform_offsets,
)
from .metrics import (
    MAP_THRESHOLDS,
    ConfusionCounts,
    Detection,
    DetectionSet,
    box_iou,
    detection_ap,
    detection_empty,
    detection_recall,
    instance_map50_empty,
    instance_map50_labels,
    map_50_95,
    pixel_accuracy,
    pixel_confusion,
    seg_iou,
    seg_iou_undefined,
)
from .scenes import LAYOUTS, Scene, SceneConfig, gen_scene
from .config import (
    DEFAULT_EMBEDDING_DIM,
    MetricsConfig,
    RunConfig,
    default_run_config,
    load_run_config,
    override_seed,
    parse_run_config,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMask",
    "EmbeddingField",
    "Grid2D",
    "LabelMap",
    "relabel_contiguous",
    "validate_pair",
    "ConfigError",
    "DegenerateShift",
    "DegenerateVector",
    "DimensionMismatch",
    "EmptyForeground",
    "EmptyInstance",
    "FormatError",
    "InfeasibleLayout",
    "InstanceEmbedError",
    "NoGroundTruth",
    "NonFiniteLoss",
    "OriginOnBackground",
    "DiscriminativeConfig",
    "LossBreakdown",
    "cluster_means",
    "discriminative_grad",
    "discriminative_loss",
    "finite_diff_grad",
    "OptimizationTrace",
    "OptimizerConfig",
    "normalize_field",
    "optimize_embeddings",
    "ClusterResult",
    "FlatIndex",
    "ModeSearch",
    "VmfConfig",
    "assign_to_modes",
    "cluster_field",
    "flatten_foreground",
    "mean_shift_modes",
    "vmf_shift_step",
    "KernelGrid",
    "OffsetField",
    "ReceptiveTrace",
    "bilinear_sample",
    "centroid_pull_score",
    "deformable_sample",
    "fit_offsets_to_centroid",
    "trace_receptive_field",
    "uniform_offsets",
    "MAP_THRESHOLDS",
    "ConfusionCounts",
    "Detection",
    "DetectionSet",
    "box_iou",
    "detection_ap",
    "detection_empty",
    "detection_recall",
    "instance_map50_empty",
    "instance_map50_labels",
    "map_50_95",
    "pixel_accuracy",
    "pixel_confusion",
    "seg_iou",
    "seg_iou_undefined",
    "LAYOUTS",
    "Scene",
    "SceneConfig",
    "gen_scene",
    "DEFAULT_EMBEDDING_DIM",
    "MetricsConfig",
    "RunConfig",
    "default_run_config",
    "load_run_config",
    "override_seed",
    "parse_run_config",
    "cli_main",
]


def cli_main(argv=None) -> int:
    """Entry point for the command line, importable without side effects."""
    from .cli import main

    return main(argv)
