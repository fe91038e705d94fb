"""Deformable kernel sampling and receptive-field tracing.

A deformable sample displaces each tap of a regular k x k kernel by a
real-valued 2D offset and reads the grid by bilinear interpolation (zero
outside the bounds). Stacking such layers and expanding one output pixel's
taps recursively yields the set of input locations that influence it: the
receptive-field trace, k^(2L) leaf points for L layers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabelMap, _Plane, _check_plane, _freeze
from .errors import OriginOnBackground


@dataclass(frozen=True)
class KernelGrid:
    """Regular k x k tap lattice: offsets (-r..r) x (-r..r), r = (k-1)/2."""

    k: int = 3

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"kernel size must be odd and >= 1, got {self.k}")

    @property
    def taps(self) -> np.ndarray:
        r = (self.k - 1) // 2
        span = np.arange(-r, r + 1)
        dy, dx = np.meshgrid(span, span, indexing="ij")
        return _freeze(np.stack([dy.ravel(), dx.ravel()], axis=1), np.float64)


@dataclass(frozen=True)
class OffsetField(_Plane):
    """Per-output-pixel (dy, dx) displacement for each kernel tap.

    values has shape (H, W, k*k, 2).
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        _check_plane(arr, "OffsetField", "H", "W", "k*k", "2")
        if arr.shape[3] != 2:
            raise ValueError(f"OffsetField values must be (H, W, k*k, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("offsets must be finite")
        object.__setattr__(self, "values", _freeze(arr, np.float64))

    @property
    def taps(self) -> int:
        return self.values.shape[2]


def uniform_offsets(height: int, width: int, pairs: np.ndarray) -> OffsetField:
    """Spatially constant OffsetField: the same (k*k, 2) pairs everywhere."""
    pairs = np.asarray(pairs, dtype=np.float64)
    return OffsetField(np.broadcast_to(pairs, (height, width) + pairs.shape).copy())


def _bilinear_planes(planes: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of (H, W, C) planes at n fractional points.

    Out-of-bounds neighbors contribute zero. Returns (n, C).
    """
    h, w = planes.shape[:2]
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    fy = ys - y0
    fx = xs - x0
    out = np.zeros((ys.shape[0], planes.shape[2]), dtype=np.float64)
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            yy = y0 + dy
            xx = x0 + dx
            inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            vals = planes[yy.clip(0, h - 1), xx.clip(0, w - 1)]
            out += (wy * wx * inside)[:, None] * vals
    return out


def deformable_sample(
    grid: np.ndarray,
    kernel: KernelGrid,
    offsets: np.ndarray,
    weights: np.ndarray,
    center: tuple,
) -> float:
    """Weighted sum of bilinear reads at center + tap + offset per tap.

    With all offsets zero this reduces exactly to standard k x k correlation
    (zero padded) at the center pixel.
    """
    grid = np.asarray(grid, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    k2 = kernel.k * kernel.k
    if offsets.shape != (k2, 2):
        raise ValueError(f"offsets must be ({k2}, 2), got {offsets.shape}")
    if weights.shape != (k2,):
        raise ValueError(f"weights must be ({k2},), got {weights.shape}")
    cy, cx = center
    taps = kernel.taps
    ys = cy + taps[:, 0] + offsets[:, 0]
    xs = cx + taps[:, 1] + offsets[:, 1]
    vals = _bilinear_planes(grid[:, :, None], ys, xs)[:, 0]
    return float(weights @ vals)


@dataclass(frozen=True)
class ReceptiveTrace:
    """All sampling locations reached from one output pixel.

    points holds the k^(2L) leaf points at the input grid, read-only.
    """

    origin: tuple
    points: np.ndarray


def trace_receptive_field(
    offset_stack: Sequence,
    kernel: KernelGrid,
    origin: tuple,
) -> ReceptiveTrace:
    """Expand one output pixel through L stacked stride-1 deformable layers.

    offset_stack lists each layer's OffsetField from the top layer down; None
    entries mean zero offsets. Each point p expands into p + tap + offset(p)
    for every tap, where offset(p) is the layer's offset field bilinearly
    interpolated at p (fractional points included, zero padded outside). The
    final expansion yields the leaf points.
    """
    if len(offset_stack) < 1:
        raise ValueError("offset_stack must contain at least one layer")
    taps = kernel.taps
    k2 = taps.shape[0]
    pts = np.array([origin], dtype=np.float64)
    for field in offset_stack:
        n = pts.shape[0]
        if field is None:
            off = np.zeros((n, k2, 2), dtype=np.float64)
        else:
            if field.taps != k2:
                raise ValueError(f"offset field has {field.taps} taps, kernel needs {k2}")
            planes = field.values.reshape(field.height, field.width, k2 * 2)
            off = _bilinear_planes(planes, pts[:, 0], pts[:, 1]).reshape(n, k2, 2)
        pts = (pts[:, None, :] + taps[None, :, :] + off).reshape(n * k2, 2)
    return ReceptiveTrace((float(origin[0]), float(origin[1])), _freeze(pts, np.float64))


def centroid_pull_score(trace: ReceptiveTrace, labels: LabelMap) -> float:
    """Fraction of leaf points landing on the origin pixel's own instance.

    Each leaf maps to its nearest integer pixel (floor(coord + 0.5));
    out-of-bounds leaves count as mismatches. The origin must lie on a
    labeled instance.
    """
    oy = int(np.floor(trace.origin[0] + 0.5))
    ox = int(np.floor(trace.origin[1] + 0.5))
    arr = labels.values
    h, w = arr.shape
    if not (0 <= oy < h and 0 <= ox < w) or arr[oy, ox] == 0:
        raise OriginOnBackground(f"trace origin ({oy}, {ox}) is not on an instance")
    target = arr[oy, ox]
    leaves = trace.points
    py = np.floor(leaves[:, 0] + 0.5).astype(np.int64)
    px = np.floor(leaves[:, 1] + 0.5).astype(np.int64)
    inside = (py >= 0) & (py < h) & (px >= 0) & (px < w)
    hits = np.zeros(leaves.shape[0], dtype=bool)
    hits[inside] = arr[py[inside], px[inside]] == target
    return float(hits.mean())


def fit_offsets_to_centroid(
    labels: LabelMap,
    origin: tuple,
    kernel: KernelGrid,
    levels: int,
    steps: int = 200,
    rate: float = 0.2,
) -> list:
    """Fit one constant offset set per layer by descending a smooth surrogate.

    The surrogate is the mean squared distance of all k^(2L) leaf points to
    the centroid of the origin's instance, with stride-1 layers and offsets
    treated as exact (no interpolation or padding). Its gradient w.r.t. the
    offset of tap t at layer l is (2/k^2) * (mean leaf over paths using that
    tap - centroid), which has the closed form used below. Returns one
    spatially constant OffsetField per layer, shaped like the label map.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    oy, ox = int(origin[0]), int(origin[1])
    arr = labels.values
    h, w = arr.shape
    if not (0 <= oy < h and 0 <= ox < w) or arr[oy, ox] == 0:
        raise OriginOnBackground(f"fit origin ({oy}, {ox}) is not on an instance")
    rows, cols = np.nonzero(arr == arr[oy, ox])
    centroid = np.array([rows.mean(), cols.mean()])
    origin_pt = np.array([float(oy), float(ox)])

    taps = kernel.taps
    k2 = taps.shape[0]
    offsets = np.zeros((levels, k2, 2), dtype=np.float64)
    for _ in range(steps):
        level_means = offsets.mean(axis=1)  # (L, 2)
        total_mean = level_means.sum(axis=0)
        # grad[l, t] = (2/k^2)*(origin + tap_t + o[l,t] + sum_{m != l} mean(o_m) - c)
        others = total_mean[None, :] - level_means  # (L, 2)
        grad = (2.0 / k2) * (
            origin_pt[None, None, :]
            + taps[None, :, :]
            + offsets
            + others[:, None, :]
            - centroid[None, None, :]
        )
        offsets = offsets - rate * grad
    return [uniform_offsets(h, w, offsets[lvl]) for lvl in range(levels)]
