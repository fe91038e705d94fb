"""Segmentation and detection evaluation metrics.

Covers per-pixel IoU and accuracy from confusion counts, box average
precision over one or many IoU thresholds, recall at a score cutoff, and
single-class mask AP for instance partitions. Boxes and masks are scored
through one path: an IoU table is built once, with predictions as rows in
rank order and ground truths as columns (`_class_table` for boxes, a joint
label histogram for masks), and one greedy matcher (`_greedy_flags`) walks
its rows at each threshold. Average precision always uses all-point
interpolation: the precision curve is made monotone non-increasing from the
right and integrated over recall.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import BinaryMask, LabelMap, validate_pair
from .errors import NoGroundTruth

# mAP@0.5:0.95 thresholds; built from integers so 0.60 etc. are exact doubles
MAP_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))


def _is_int(value) -> bool:
    """True for Python and numpy integers; a bool is not an id."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not all(abs(v) <= sys.float_info.max for v in self.box):
            raise ValueError(f"box coordinates must be finite, got {self.box}")
        if not _is_int(self.class_id):
            raise ValueError(f"class_id must be an integer, got {self.class_id!r}")
        object.__setattr__(self, "class_id", int(self.class_id))
        if isinstance(self.score, bool):
            raise ValueError(f"score must be a number, got {self.score!r}")
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score}")
        object.__setattr__(self, "box", tuple(float(v) for v in self.box))


@dataclass(frozen=True)
class DetectionSet:
    """Detections belonging to one image."""

    detections: tuple
    image_id: int = 0

    def __post_init__(self):
        if not _is_int(self.image_id):
            raise ValueError(f"image_id must be an integer, got {self.image_id!r}")
        object.__setattr__(self, "image_id", int(self.image_id))
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


def _iou_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) IoU of (x1, y1, x2, y2) box rows; 0 where disjoint."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def _boxes(boxes) -> np.ndarray:
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def box_iou(a: tuple, b: tuple) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes; 0 if disjoint."""
    return float(_iou_table(_boxes([a]), _boxes([b]))[0, 0])


def _class_table(preds: Sequence[DetectionSet], gts: Sequence[DetectionSet], class_id: int):
    """Ranked scores and the (P, G) box-IoU table of one class.

    Rows are the class's predictions by descending score, ties in insertion
    order; columns are its ground-truth boxes in insertion order. Pairs from
    different images get -inf, so they never match.
    """
    rows = []
    for ds in preds:
        for det in ds.detections:
            if det.class_id == class_id:
                if det.score is None:
                    raise ValueError("predictions must carry scores")
                rows.append((det.score, ds.image_id, det.box))
    rows.sort(key=lambda r: -r[0])  # stable: insertion order breaks ties
    cols = [(ds.image_id, d.box) for ds in gts for d in ds.detections if d.class_id == class_id]
    iou = _iou_table(_boxes([r[2] for r in rows]), _boxes([c[1] for c in cols]))
    iou[np.array([r[1] for r in rows])[:, None] != np.array([c[0] for c in cols])] = -np.inf
    return np.array([r[0] for r in rows], dtype=np.float64), iou


def _greedy_flags(iou: np.ndarray, thr: float) -> np.ndarray:
    """True/false positive flag per row of a (P, G) IoU table in rank order.

    Each row takes the open column with the highest IoU (the first one on
    ties) and is a true positive, closing that column, when the IoU reaches
    the threshold.
    """
    flags = np.zeros(iou.shape[0], dtype=bool)
    if iou.shape[1] == 0:
        return flags
    open_iou = iou.copy()
    for i, row in enumerate(open_iou):
        j = int(np.argmax(row))
        if row[j] >= thr:
            flags[i] = True
            open_iou[:, j] = -np.inf
    return flags


def _ap_from_flags(flags: np.ndarray, n_gt: int) -> float:
    """All-point interpolated AP from ranked TP/FP flags."""
    if n_gt == 0:
        return 1.0 if flags.size == 0 else 0.0
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags, dtype=np.float64)
    ranks = np.arange(1, flags.size + 1, dtype=np.float64)
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
    _, iou = _class_table(preds, gts, class_id)
    return _ap_from_flags(_greedy_flags(iou, iou_thr), iou.shape[1])


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
        _, iou = _class_table(preds, gts, cls)
        aps = [_ap_from_flags(_greedy_flags(iou, thr), iou.shape[1]) for thr in MAP_THRESHOLDS]
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
        scores, iou = _class_table(preds, gts, cls)
        total_gt += iou.shape[1]
        # scores descend, so the rows at score_thr and up are a prefix
        total_tp += int(_greedy_flags(iou[: int((scores >= score_thr).sum())], iou_thr).sum())
    if total_gt == 0:
        raise NoGroundTruth("recall needs at least one ground-truth box")
    return total_tp / total_gt


def instance_map50_labels(pred: LabelMap, gt: LabelMap) -> float:
    """Single-class mask AP at IoU 0.5 between two instance partitions.

    Predicted instances are scored by pixel count (larger first; ties by
    ascending label), matched greedily to the unmatched ground-truth instance
    with the highest mask IoU.
    """
    validate_pair(pred, gt)
    p_ids, p_inv = np.unique(pred.values, return_inverse=True)
    g_ids, g_inv = np.unique(gt.values, return_inverse=True)
    # joint pixel counts of every (pred label, gt label) pair, background included
    joint = np.bincount(
        p_inv.ravel() * g_ids.size + g_inv.ravel(), minlength=p_ids.size * g_ids.size
    ).reshape(p_ids.size, g_ids.size)
    p_size = joint.sum(axis=1)[p_ids > 0]
    order = np.argsort(-p_size, kind="stable")  # labels ascend, so ties go to the lower one
    inter = joint[p_ids > 0][order][:, g_ids > 0]
    iou = inter / (p_size[order, None] + joint.sum(axis=0)[g_ids > 0] - inter)
    return _ap_from_flags(_greedy_flags(iou, 0.5), iou.shape[1])


def instance_map50_empty(pred_instances: int, gt_instances: int) -> bool:
    """True when the empty-vs-empty AP convention applied."""
    return pred_instances == 0 and gt_instances == 0
