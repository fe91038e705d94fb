"""Grid-backed value types shared by every other module.

All types wrap dense row-major numpy arrays, validate on construction, and
are immutable afterwards (the backing arrays are marked read-only). Mutation
means building a new value.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch


def _freeze(values: np.ndarray, dtype) -> np.ndarray:
    """Copy to a contiguous array of the requested dtype and mark read-only."""
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr is values or arr.base is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _check_plane(values: np.ndarray, what: str, *axes: str) -> None:
    """Require exactly the named axes, led by a plane of height and width >= 1."""
    if values.ndim != len(axes):
        raise ValueError(f"{what} values must be ({', '.join(axes)}), got ndim {values.ndim}")
    h, w = values.shape[:2]
    if h < 1 or w < 1:
        raise ValueError(f"{what} needs height >= 1 and width >= 1, got {h}x{w}")


class _Plane:
    """Height and width of a value whose array leads with (H, W) axes."""

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class EmbeddingField(_Plane):
    """H x W grid of D-dimensional real vectors."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        _check_plane(arr, "EmbeddingField", "H", "W", "D")
        if arr.shape[2] < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("EmbeddingField values must be finite")
        object.__setattr__(self, "values", _freeze(arr, np.float64))

    @property
    def dim(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class LabelMap(_Plane):
    """H x W grid of non-negative integer instance IDs; 0 is background.

    Construction accepts any non-negative IDs. num_instances counts the
    distinct non-zero IDs actually present; the loss and metric operations
    expect the canonical {1..C} numbering.
    """

    values: np.ndarray
    num_instances: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.values)
        _check_plane(arr, "LabelMap", "H", "W")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("LabelMap values must be integers")
        if arr.min() < 0:
            raise ValueError("LabelMap IDs must be non-negative")
        frozen = _freeze(arr, np.int64)
        object.__setattr__(self, "values", frozen)
        distinct = np.unique(frozen)
        object.__setattr__(self, "num_instances", int((distinct > 0).sum()))


@dataclass(frozen=True)
class BinaryMask(_Plane):
    """H x W grid of {0, 1}."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        _check_plane(arr, "BinaryMask", "H", "W")
        if not np.issubdtype(arr.dtype, np.integer) and arr.dtype != np.bool_:
            raise ValueError("BinaryMask values must be integers or booleans")
        arr = arr.astype(np.uint8)
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("BinaryMask values must be 0 or 1")
        object.__setattr__(self, "values", _freeze(arr, np.uint8))

    def count(self) -> int:
        return int(self.values.sum())


def validate_pair(a, b) -> None:
    """Check that two grid-backed values share the same width and height.

    Raises DimensionMismatch reporting both (height, width) shapes.
    """
    shape_a = (a.height, a.width)
    shape_b = (b.height, b.width)
    if shape_a != shape_b:
        raise DimensionMismatch(shape_a, shape_b)
