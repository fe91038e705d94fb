"""Deterministic synthetic scenes: multi-instance drivable bands plus lanes.

Scenes are vertical band layouts (straight, diverging, or curved) rasterized
with integer arithmetic only, so a (config, seed) pair produces bit-identical
pixels on any platform. Bands are near-equal in width and separated so that
the minimum pixel distance between distinct instances respects gap_pixels
even for slanted or curved bands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BinaryMask, LabelMap
from .errors import InfeasibleLayout
from .metrics import DetectionSet, label_boxes

LAYOUTS = ("parallel_stripes", "fork", "curved_bands")

_MIN_BAND_WIDTH = 2
# Largest accepted canvas side. The descent holds several (H, W, D) float64
# arrays, so a larger canvas runs out of memory or time before it helps.
MAX_CANVAS_SIDE = 4096


@dataclass(frozen=True)
class SceneConfig:
    width: int = 64
    height: int = 64
    num_instances: int = 2
    layout: str = "parallel_stripes"
    gap_pixels: int = 3
    seed: int = 0
    lane_thickness: int = 2

    def __post_init__(self):
        if not (1 <= self.width <= MAX_CANVAS_SIDE and 1 <= self.height <= MAX_CANVAS_SIDE):
            raise ValueError(
                f"canvas sides must lie in [1, {MAX_CANVAS_SIDE}], got {self.width}x{self.height}"
            )
        if not 1 <= self.num_instances <= 6:
            raise ValueError(f"num_instances must be 1..6, got {self.num_instances}")
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")
        if self.gap_pixels < 1:
            raise ValueError(f"gap_pixels must be >= 1, got {self.gap_pixels}")
        if self.lane_thickness < 1:
            raise ValueError(f"lane_thickness must be >= 1, got {self.lane_thickness}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Scene:
    labels: LabelMap
    drivable_mask: BinaryMask
    lane_mask: BinaryMask
    gt_boxes: DetectionSet


def _edge_distance(gap: int, slanted: bool) -> int:
    """Minimum same-row distance between adjacent band edge columns.

    Straight vertical bands need exactly gap_pixels. Bands whose lateral
    offset changes by at most one column per row can approach each other
    diagonally, and the worst case shrinks the separation by sqrt(2); the
    smallest integer G with G/sqrt(2) >= gap is isqrt(2*gap^2 - 1) + 1.
    """
    if not slanted:
        return gap
    return math.isqrt(2 * gap * gap - 1) + 1


def _split_slack(rng: np.random.Generator, slack: int, slots: int) -> list:
    """Randomly split non-negative slack into `slots` integer parts."""
    parts = []
    remaining = slack
    for i in range(slots - 1):
        a = int(rng.integers(0, remaining + 1)) if remaining > 0 else 0
        parts.append(a)
        remaining -= a
    parts.append(remaining)
    return parts


def gen_scene(cfg: SceneConfig) -> Scene:
    """Rasterize one scene; deterministic for a fixed config.

    The fork layout fans its bands out from the bottom row, which needs at
    least two bands: with num_instances 1, layout "fork" draws exactly the
    parallel_stripes scene of the same config.

    Raises InfeasibleLayout when the bands plus required separations cannot
    fit inside the canvas.
    """
    rng = np.random.default_rng(cfg.seed)
    c = cfg.num_instances
    h, w = cfg.height, cfg.width
    slanted = cfg.layout in ("fork", "curved_bands")
    edge = _edge_distance(cfg.gap_pixels, slanted)
    empty = edge - 1  # empty columns between adjacent bands

    avail = w - (c - 1) * empty
    if avail < c * _MIN_BAND_WIDTH:
        raise InfeasibleLayout(
            f"{c} bands of width >= {_MIN_BAND_WIDTH} with {empty}-column gaps "
            f"need {c * _MIN_BAND_WIDTH + (c - 1) * empty} columns, have {w}"
        )
    # near-equal widths: base or base+1, leaving breathing room when possible
    base = min(avail // c, max(_MIN_BAND_WIDTH, (3 * avail) // (4 * c)))
    widths = base + rng.integers(0, 2, size=c)
    while int(widths.sum()) + (c - 1) * empty > w:
        widths = np.maximum(_MIN_BAND_WIDTH, widths - 1)
        if widths.max() == _MIN_BAND_WIDTH and int(widths.sum()) + (c - 1) * empty > w:
            raise InfeasibleLayout("bands cannot fit even at minimum width")

    slack = w - int(widths.sum()) - (c - 1) * empty
    parts = _split_slack(rng, slack, c + 1)
    starts = []
    cursor = parts[0]
    for i in range(c):
        starts.append(cursor)
        cursor += int(widths[i]) + empty + (parts[i + 1] if i + 1 < c else 0)
    left_margin = starts[0]
    right_margin = w - (starts[-1] + int(widths[-1]))

    # integer lateral shift per (band, row); identical per band for curved
    rows_up = (h - 1) - np.arange(h)  # distance from the bottom row
    shifts = np.zeros((c, h), dtype=np.int64)
    if cfg.layout == "fork" and c > 1 and h > 1:
        m = 2 * min(left_margin, right_margin)
        m = min(m, h // 2)
        if m > 0:
            nums = np.array([-m + (2 * m * i) // (c - 1) for i in range(c)], dtype=np.int64)
            den = 2 * (h - 1)
            shifts = (nums[:, None] * rows_up[None, :]) // den
    elif cfg.layout == "curved_bands" and h > 2:
        amp = min((h - 1) // 8, 2 * min(left_margin, right_margin))
        if amp > 0:
            t = 2 * np.arange(h) - (h - 1)
            curve = (amp * t * t) // ((h - 1) * (h - 1)) - amp // 2
            direction = 1 if int(rng.integers(0, 2)) else -1
            shifts = np.broadcast_to(direction * curve, (c, h)).copy()

    labels = np.zeros((h, w), dtype=np.int64)
    spans = np.zeros((c, h, 2), dtype=np.int64)  # [start, end) per band per row
    for i in range(c):
        s = starts[i] + shifts[i]
        e = s + int(widths[i])
        if s.min() < 0 or e.max() > w:
            raise InfeasibleLayout("lateral shifts push a band outside the canvas")
        spans[i, :, 0] = s
        spans[i, :, 1] = e
        for y in range(h):
            labels[y, s[y] : e[y]] = i + 1

    lanes = np.zeros((h, w), dtype=np.uint8)
    lt = cfg.lane_thickness

    def draw_lane(lo: np.ndarray, hi: np.ndarray):
        # vertical line centered in the per-row empty span [lo, hi)
        for y in range(h):
            room = int(hi[y] - lo[y])
            if room < 1:
                continue
            width_here = min(lt, room)
            start = int(lo[y]) + (room - width_here) // 2
            lanes[y, start : start + width_here] = 1

    if c > 1:
        for i in range(c - 1):
            draw_lane(spans[i, :, 1], spans[i + 1, :, 0])
    else:
        draw_lane(np.zeros(h, dtype=np.int64), spans[0, :, 0])
        draw_lane(spans[0, :, 1], np.full(h, w, dtype=np.int64))

    return Scene(
        labels=LabelMap(labels),
        drivable_mask=BinaryMask((labels != 0).astype(np.uint8)),
        lane_mask=BinaryMask(lanes),
        gt_boxes=label_boxes(labels),
    )
