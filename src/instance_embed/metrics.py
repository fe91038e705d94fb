"""Segmentation and detection evaluation metrics.

Covers per-pixel IoU and accuracy from confusion counts, greedy box matching
with average precision over one or many IoU thresholds, recall at a score
cutoff, and single-class mask AP for instance partitions. Average precision
always uses all-point interpolation: the precision curve is made monotone
non-increasing from the right and integrated over recall.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import BinaryMask, LabelMap, validate_pair
from .errors import NoGroundTruth

# mAP@0.5:0.95 thresholds; built from integers so 0.60 etc. are exact doubles
MAP_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))


@dataclass(frozen=True)
class Detection:
    """One scored, class-labeled box; ground truth carries no score."""

    box: tuple
    class_id: int
    score: Optional[float] = None

    def __post_init__(self):
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise ValueError(f"box corners must be ordered, got {self.box}")
        if not all(math.isfinite(v) for v in self.box):
            raise ValueError(f"box coordinates must be finite, got {self.box}")
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score}")
        object.__setattr__(self, "box", tuple(float(v) for v in self.box))


@dataclass(frozen=True)
class DetectionSet:
    """Detections belonging to one image."""

    detections: tuple
    image_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))


def label_boxes(values: np.ndarray, scores: Optional[Sequence[float]] = None) -> DetectionSet:
    """Class-0 bounding box of each instance 1..C of a label grid (0 = background).

    Boxes are (x_min, y_min, x_max + 1, y_max + 1) in pixel units, in label
    order. Without scores C is the largest label; with scores there is one
    score per label and C is their count. Every label 1..C must own a pixel.
    """
    n = int(values.max(initial=0)) if scores is None else len(scores)
    dets = []
    for i in range(n):
        ys, xs = np.nonzero(values == i + 1)
        box = (float(xs.min()), float(ys.min()), float(xs.max() + 1), float(ys.max() + 1))
        dets.append(Detection(box, class_id=0, score=None if scores is None else scores[i]))
    return DetectionSet(tuple(dets), image_id=0)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def pixel_confusion(pred: BinaryMask, gt: BinaryMask) -> ConfusionCounts:
    """Per-pixel true/false positive/negative counts."""
    validate_pair(pred, gt)
    p = pred.values.astype(bool)
    g = gt.values.astype(bool)
    tp = int((p & g).sum())
    fp = int((p & ~g).sum())
    fn = int((~p & g).sum())
    tn = int((~p & ~g).sum())
    return ConfusionCounts(tp, fp, fn, tn)


def seg_iou(counts: ConfusionCounts) -> float:
    """tp / (tp + fp + fn); defined as 1.0 when both masks are empty."""
    denom = counts.tp + counts.fp + counts.fn
    if denom == 0:
        return 1.0
    return counts.tp / denom


def seg_iou_undefined(counts: ConfusionCounts) -> bool:
    """True when seg_iou hit the empty-vs-empty convention."""
    return counts.tp + counts.fp + counts.fn == 0


def pixel_accuracy(counts: ConfusionCounts) -> float:
    """(tp + tn) / total."""
    if counts.total == 0:
        raise ValueError("accuracy needs at least one pixel")
    return (counts.tp + counts.tn) / counts.total


def box_iou(a: tuple, b: tuple) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes; 0 if disjoint."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def _gt_pools(gts: Sequence[DetectionSet], class_id: int):
    """Ground-truth boxes of one class, pooled per image_id."""
    pools = {}
    for ds in gts:
        pool = pools.setdefault(ds.image_id, [])
        for det in ds.detections:
            if det.class_id == class_id:
                pool.append(det.box)
    return pools


def _ranked_predictions(preds: Sequence[DetectionSet], class_id: int):
    """Class predictions sorted by descending score, ties by insertion order."""
    items = []
    for ds in preds:
        for det in ds.detections:
            if det.class_id != class_id:
                continue
            if det.score is None:
                raise ValueError("predictions must carry scores")
            items.append((det.score, ds.image_id, det.box))
    items.sort(key=lambda it: -it[0])  # stable: insertion order breaks ties
    return items


def _greedy_match_flags(ranked, pools, iou_thr: float):
    """True/false positive flag per ranked prediction under greedy matching.

    Each prediction takes the unmatched same-image ground truth with the
    highest IoU, provided that IoU reaches the threshold.
    """
    unmatched = {img: list(range(len(boxes))) for img, boxes in pools.items()}
    flags = []
    for _, img, box in ranked:
        open_ids = unmatched.get(img)
        best_iou = -1.0
        best_pos = -1
        if open_ids:
            boxes = pools[img]
            for pos, gi in enumerate(open_ids):
                iou = box_iou(box, boxes[gi])
                if iou > best_iou:
                    best_iou = iou
                    best_pos = pos
        if best_pos >= 0 and best_iou >= iou_thr:
            open_ids.pop(best_pos)
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _ap_from_flags(flags, n_gt: int) -> float:
    """All-point interpolated AP from ranked TP/FP flags."""
    if n_gt == 0:
        return 1.0 if not flags else 0.0
    if not flags:
        return 0.0
    tp = np.cumsum(np.asarray(flags, dtype=np.float64))
    ranks = np.arange(1, len(flags) + 1, dtype=np.float64)
    recall = tp / n_gt
    precision = tp / ranks
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.concatenate(([0.0], recall[:-1]))
    return float(((recall - prev) * envelope).sum())


def detection_ap(
    preds: Sequence[DetectionSet],
    gts: Sequence[DetectionSet],
    class_id: int,
    iou_thr: float,
) -> float:
    """Average precision of one class at one box-IoU threshold.

    Empty conventions: with no ground truth, AP is 1.0 when there are also no
    predictions and 0.0 otherwise.
    """
    pools = _gt_pools(gts, class_id)
    ranked = _ranked_predictions(preds, class_id)
    n_gt = sum(len(v) for v in pools.values())
    flags = _greedy_match_flags(ranked, pools, iou_thr)
    return _ap_from_flags(flags, n_gt)


def detection_empty(
    preds: Sequence[DetectionSet], gts: Sequence[DetectionSet], class_id: int
) -> bool:
    """True when a class has neither ground truth nor predictions."""
    no_gt = not any(d.class_id == class_id for ds in gts for d in ds.detections)
    no_pred = not any(d.class_id == class_id for ds in preds for d in ds.detections)
    return no_gt and no_pred


def map_50_95(
    preds: Sequence[DetectionSet],
    gts: Sequence[DetectionSet],
    classes: Sequence[int],
) -> float:
    """Mean over classes of mean AP across thresholds 0.50..0.95 step 0.05."""
    if not classes:
        raise ValueError("classes must be non-empty")
    per_class = []
    for cls in classes:
        aps = [detection_ap(preds, gts, cls, thr) for thr in MAP_THRESHOLDS]
        per_class.append(sum(aps) / len(aps))
    return sum(per_class) / len(per_class)


def detection_recall(
    preds: Sequence[DetectionSet],
    gts: Sequence[DetectionSet],
    classes: Sequence[int],
    iou_thr: float,
    score_thr: float,
) -> float:
    """TP / (TP + FN) over all classes, counting predictions at score_thr up."""
    total_gt = 0
    total_tp = 0
    for cls in classes:
        pools = _gt_pools(gts, cls)
        n_gt = sum(len(v) for v in pools.values())
        total_gt += n_gt
        ranked = [it for it in _ranked_predictions(preds, cls) if it[0] >= score_thr]
        flags = _greedy_match_flags(ranked, pools, iou_thr)
        total_tp += sum(flags)
    if total_gt == 0:
        raise NoGroundTruth("recall needs at least one ground-truth box")
    return total_tp / total_gt


def _label_masks(values: np.ndarray):
    """(id, boolean mask) per distinct non-zero label, ascending by id."""
    ids = np.unique(values)
    ids = ids[ids > 0]
    return [(int(i), values == i) for i in ids]


def instance_map50_labels(pred: LabelMap, gt: LabelMap) -> float:
    """Single-class mask AP at IoU 0.5 between two instance partitions.

    Predicted instances are scored by pixel count (larger first; ties by
    ascending label), matched greedily to the unmatched ground-truth instance
    with the highest mask IoU.
    """
    validate_pair(pred, gt)
    gt_masks = [m for _, m in _label_masks(gt.values)]
    pred_masks = [m for _, m in _label_masks(pred.values)]
    order = sorted(range(len(pred_masks)), key=lambda i: -int(pred_masks[i].sum()))
    open_gt = list(range(len(gt_masks)))
    flags = []
    for i in order:
        pm = pred_masks[i]
        best_iou = -1.0
        best_pos = -1
        for pos, gi in enumerate(open_gt):
            gm = gt_masks[gi]
            inter = int((pm & gm).sum())
            union = int((pm | gm).sum())
            iou = inter / union if union else 0.0
            if iou > best_iou:
                best_iou = iou
                best_pos = pos
        if best_pos >= 0 and best_iou >= 0.5:
            open_gt.pop(best_pos)
            flags.append(True)
        else:
            flags.append(False)
    return _ap_from_flags(flags, len(gt_masks))


def instance_map50_empty(pred_instances: int, gt_instances: int) -> bool:
    """True when the empty-vs-empty AP convention applied."""
    return pred_instances == 0 and gt_instances == 0
