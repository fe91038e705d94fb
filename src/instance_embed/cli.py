"""Command-line pipeline: gen, optimize, cluster, eval, pipeline.

Every command is deterministic given its config and inputs; rerunning with
the same arguments produces byte-identical files. Exit codes are a stable
contract:

  0  success
  2  configuration or parse problem (bad JSON, unknown keys, bad shapes)
  3  I/O failure
  4  numerical divergence or degeneracy
  5  empty input domain (no foreground, no instances)

The INSTANCE_EMBED_LOG environment variable (error, info, or debug) sets the
stderr log level; the default is error.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .clustering import cluster_field
from .core import BinaryMask, EmbeddingField, LabelMap
from .config import RunConfig, default_run_config, load_run_config, override_seed
from .errors import (
    ConfigError,
    DegenerateShift,
    DegenerateVector,
    EmptyForeground,
    EmptyInstance,
    InstanceEmbedError,
    NoGroundTruth,
    NonFiniteLoss,
)
from . import fileio
from .metrics import (
    detection_empty,
    detection_recall,
    instance_map50_empty,
    instance_map50_labels,
    label_boxes,
    map_50_95,
    pixel_accuracy,
    pixel_confusion,
    seg_iou,
    seg_iou_undefined,
)
from .optimize import optimize_embeddings
from .scenes import Scene, gen_scene

log = logging.getLogger("instance_embed")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _gen_stage(cfg: RunConfig, out: Path) -> Scene:
    scene = gen_scene(cfg.scene)
    fileio.write_labels(out / "labels.pgm", scene.labels)
    fileio.write_mask(out / "drivable.pgm", scene.drivable_mask)
    fileio.write_mask(out / "lanes.pgm", scene.lane_mask)
    fileio.write_boxes(out / "boxes.json", [scene.gt_boxes])
    fileio.write_json(out / "scene.json", asdict(cfg.scene))
    log.info("wrote scene with %d instances to %s", cfg.scene.num_instances, out)
    return scene


def _optimize_stage(labels: LabelMap, cfg: RunConfig, out: Path) -> None:
    start = time.perf_counter()
    trace = optimize_embeddings(labels, cfg.embedding_dim, cfg.loss, cfg.optimizer)
    seconds = time.perf_counter() - start
    fileio.write_embf(out / "embeddings.embf", trace.final.values)
    fileio.write_json(
        out / "trace.json",
        {
            "steps_taken": trace.steps_taken,
            "pixel_steps": trace.pixel_steps,
            "stop_reason": trace.stop_reason,
            "final_grad_norm": trace.final_grad_norm,
            "entries": [
                {"l_var": b.l_var, "l_dist": b.l_dist, "l_reg": b.l_reg, "total": b.total}
                for b in trace.breakdowns
            ],
        },
    )
    log.info(
        "optimized %d steps (%d on every pixel) in %.3f s, final total %s, "
        "stop_reason %s, final_grad_norm %.3g, step %.6g",
        trace.steps_taken, trace.pixel_steps, seconds, trace.breakdowns[-1].total,
        trace.stop_reason, trace.final_grad_norm, trace.step_size,
    )


def _cluster_stage(emb: EmbeddingField, mask: BinaryMask, cfg: RunConfig, out: Path) -> None:
    start = time.perf_counter()
    result, search = cluster_field(emb, mask, cfg.cluster, cfg.loss.delta_v, cfg.loss.delta_d)
    seconds = time.perf_counter() - start
    if result.num_clusters > fileio.MAX_LABEL:
        raise ConfigError(
            f"found {result.num_clusters} clusters, but instances.pgm holds at most "
            f"{fileio.MAX_LABEL} instance labels; raise cluster.merge_tolerance or "
            "cluster.min_cluster_pixels"
        )
    fileio.write_labels(out / "instances.pgm", result.instances)
    # Each predicted box is scored by its basin's share of the foreground.
    basin = result.basin_pixels
    total_fg = max(mask.count(), 1)
    scores = [min(1.0, float(b) / total_fg) for b in basin]
    fileio.write_boxes(out / "pred_boxes.json", [label_boxes(result.instances.values, scores)])
    fileio.write_json(
        out / "modes.json",
        {
            "num_clusters": result.num_clusters,
            "modes": [list(m) for m in result.modes],
            "basin_pixels": [int(b) for b in basin],
            "dropped_seeds": search.dropped_seeds,
            "unconverged_seeds": search.unconverged_seeds,
            "capture_groups": search.capture_groups,
            "unconfirmed_groups": search.unconfirmed_groups,
            "capture_sweeps": search.capture_sweeps,
            "merged_captures": search.merged_captures,
        },
    )
    if search.unconverged_seeds:
        seeds = int(search.basin_seeds.sum()) + search.dropped_seeds
        log.warning(
            "%d of %d mean-shift seeds (%.1f%%) still moving after %d passes",
            search.unconverged_seeds, seeds, 100.0 * search.unconverged_seeds / seeds,
            cfg.cluster.max_iters,
        )
    if search.merged_captures:
        log.warning(
            "the mean-shift merge joined %d confirmed capture groups to another group's mode",
            search.merged_captures,
        )
    dissolved = len(search.modes) - result.num_clusters
    if not result.num_clusters:
        log.warning(
            "no cluster kept: %d mean-shift modes, none with at least %d pixels; "
            "%d foreground pixels stay unassigned",
            dissolved, max(cfg.cluster.min_cluster_pixels, 1), mask.count(),
        )
    log.info(
        "found %d clusters in %.3f s (%d passes, %d row updates, %d modes dissolved as runts) "
        "from %d capture groups (%d unconfirmed, %d sweeps)",
        result.num_clusters, seconds, search.passes, search.row_updates, dissolved,
        search.capture_groups, search.unconfirmed_groups, search.capture_sweeps,
    )


def _segmentation_report(pred: BinaryMask, gt: BinaryMask, _metrics_cfg) -> dict:
    counts = pixel_confusion(pred, gt)
    flags = []
    if seg_iou_undefined(counts):
        flags.append("iou_empty_vs_empty")
    return {"iou": seg_iou(counts), "accuracy": pixel_accuracy(counts), "flags": flags}


def _detection_report(preds, gts, metrics_cfg) -> dict:
    flags = []
    for cls in metrics_cfg.classes:
        if detection_empty(preds, gts, cls):
            flags.append(f"class_{cls}_no_gt_no_pred")
    report = {"map_50_95": map_50_95(preds, gts, metrics_cfg.classes), "flags": flags}
    try:
        report["recall"] = detection_recall(
            preds,
            gts,
            metrics_cfg.classes,
            metrics_cfg.recall_iou_threshold,
            metrics_cfg.recall_score_threshold,
        )
    except NoGroundTruth:
        flags.append("recall_no_ground_truth")
    return report


def _instance_report(pred: LabelMap, gt: LabelMap, _metrics_cfg) -> dict:
    flags = []
    if instance_map50_empty(pred.num_instances, gt.num_instances):
        flags.append("map50_empty_vs_empty")
    return {"map50": instance_map50_labels(pred, gt), "flags": flags}


# Evaluation task -> (prediction flag, target flag, reader, report). A report
# takes the prediction, the target and the metrics config.
_EVAL_TASKS = {
    "drivable_segmentation": (
        "pred_drivable", "gt_drivable", fileio.read_mask, _segmentation_report
    ),
    "lane_segmentation": ("pred_lanes", "gt_lanes", fileio.read_mask, _segmentation_report),
    "instance_segmentation": ("pred_instances", "gt_labels", fileio.read_labels, _instance_report),
    "detection": ("pred_boxes", "gt_boxes", fileio.read_boxes, _detection_report),
}


def _eval_stage(pairs: dict, cfg: RunConfig, out: Path) -> None:
    """Score each task's (prediction path, target path) pair into metrics.json."""
    report = {}
    for task, (pred_path, gt_path) in pairs.items():
        read, task_report = _EVAL_TASKS[task][2:]
        report[task] = task_report(read(pred_path), read(gt_path), cfg.metrics)
    fileio.write_json(out / "metrics.json", report)
    log.info("wrote %s", ", ".join(report))


# Each command gets its parsed arguments, the run config and the --out
# directory, which main has already loaded and created.
def cmd_gen(args, cfg: RunConfig, out: Path) -> None:
    _gen_stage(cfg, out)


def cmd_optimize(args, cfg: RunConfig, out: Path) -> None:
    _optimize_stage(fileio.read_labels(args.labels), cfg, out)


def cmd_cluster(args, cfg: RunConfig, out: Path) -> None:
    emb = EmbeddingField(fileio.read_embf(args.embeddings))
    _cluster_stage(emb, fileio.read_mask(args.mask), cfg, out)


def cmd_eval(args, cfg: RunConfig, out: Path) -> None:
    pairs = {}
    for task, (pred_flag, gt_flag, _, _) in _EVAL_TASKS.items():
        pred, gt = getattr(args, pred_flag), getattr(args, gt_flag)
        if (pred is None) != (gt is None):
            flags = f"--{pred_flag} and --{gt_flag}".replace("_", "-")
            raise ConfigError(f"{task.split('_')[0]} evaluation needs both {flags}")
        if pred:
            pairs[task] = (pred, gt)
    if not pairs:
        raise ConfigError("nothing to evaluate: supply at least one prediction/target pair")
    _eval_stage(pairs, cfg, out)


def cmd_pipeline(args, cfg: RunConfig, out: Path) -> None:
    scene = _gen_stage(cfg, out)
    _optimize_stage(scene.labels, cfg, out)
    # Cluster and score the files just written, exactly what the staged commands read.
    emb = EmbeddingField(fileio.read_embf(out / "embeddings.embf"))
    _cluster_stage(emb, scene.drivable_mask, cfg, out)
    pairs = {
        "drivable_segmentation": (out / "instances.pgm", out / "drivable.pgm"),
        "instance_segmentation": (out / "instances.pgm", out / "labels.pgm"),
        "detection": (out / "pred_boxes.json", out / "boxes.json"),
    }
    _eval_stage(pairs, cfg, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instance-embed",
        description="Embedding-based instance segmentation pipeline on synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="JSON run config path")
        p.add_argument("--out", help="output directory (overrides config output_dir)")
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("gen", help="generate a synthetic scene")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("optimize", help="fit embeddings to a label map")
    common(p)
    p.add_argument("--labels", required=True, help="label map PGM")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("cluster", help="cluster an embedding field into instances")
    common(p, seed=False)
    p.add_argument("--embeddings", required=True, help="embedding EMBF blob")
    p.add_argument("--mask", required=True, help="foreground mask PGM")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("eval", help="compute metrics from prediction/target files")
    common(p, seed=False)
    for pred_flag, gt_flag, _, _ in _EVAL_TASKS.values():
        p.add_argument("--" + pred_flag.replace("_", "-"))
        p.add_argument("--" + gt_flag.replace("_", "-"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="gen, optimize, cluster and eval on the files they write")
    common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    level_name = os.environ.get("INSTANCE_EMBED_LOG", "error")
    if level_name not in _LOG_LEVELS:
        print(
            f"INSTANCE_EMBED_LOG must be one of {sorted(_LOG_LEVELS)}, got {level_name!r}",
            file=sys.stderr,
        )
        return 2
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(_LOG_LEVELS[level_name])

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config) if args.config else default_run_config()
        if getattr(args, "seed", None) is not None:
            cfg = override_seed(cfg, args.seed)
        out = args.out or cfg.output_dir
        if not out:
            raise ConfigError("no output directory: pass --out or set output_dir")
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, cfg, out)
        return 0
    except (NonFiniteLoss, DegenerateVector, DegenerateShift) as exc:
        log.error("numerical failure: %s", exc)
        return 4
    except (EmptyForeground, EmptyInstance) as exc:
        log.error("empty input: %s", exc)
        return 5
    except OSError as exc:
        log.error("I/O failure: %s", exc)
        return 3
    except (InstanceEmbedError, ValueError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
