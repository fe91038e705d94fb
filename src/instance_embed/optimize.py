"""Gradient-descent optimization of a free embedding field.

Stands in for training an embedding head at desk scale: initialize every
pixel's embedding uniformly at random, then run fixed-step gradient descent
on the discriminative loss against a ground-truth label map. Also provides
post-hoc normalization onto the unit sphere for clustering.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BinaryMask, EmbeddingField, LabelMap, validate_pair
from .errors import DegenerateVector, NonFiniteLoss
from .losses import DiscriminativeConfig, _gather, _plan_labels, _value_and_grad

_INIT_SCALE = 1.0  # half-width of the uniform initial embeddings


@dataclass(frozen=True)
class OptimizerConfig:
    """Fixed-step gradient-descent settings.

    step_size scales with foreground pixel count: the pull term's per-pixel
    gradient carries a 1/(C*n_c) factor, so useful steps on dense maps are
    much larger than 1.
    """

    step_size: float = 40.0
    max_steps: int = 600
    loss_tolerance: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.step_size) or self.step_size <= 0:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if not math.isfinite(self.loss_tolerance) or self.loss_tolerance < 0:
            raise ValueError(f"loss_tolerance must be >= 0, got {self.loss_tolerance}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OptimizationTrace:
    """Loss curve of a descent run.

    breakdowns[0] is the loss at initialization and each later entry follows
    one update, so len(breakdowns) == steps_taken + 1.
    """

    breakdowns: tuple
    final: EmbeddingField
    steps_taken: int


def optimize_embeddings(
    labels: LabelMap,
    d: int,
    loss_cfg: DiscriminativeConfig,
    opt_cfg: OptimizerConfig,
) -> OptimizationTrace:
    """Descend the discriminative loss from a seeded uniform initialization.

    Embeddings start uniform in [-1, +1] per coordinate.
    Each step subtracts step_size times the analytic gradient; the breakdown
    at initialization and after every update is recorded. Stops when the
    total drops to loss_tolerance or after max_steps updates, whichever
    comes first. Only foreground rows move: background pixels keep their
    initial values, since the loss does not depend on them.
    """
    if d < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {d}")
    plan = _plan_labels(labels.values)
    rng = np.random.default_rng(opt_cfg.seed)
    shape = (labels.height, labels.width, d)
    field = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=shape)
    pts = _gather(field, plan)

    bd, grad = _value_and_grad(pts, plan, loss_cfg)
    if not bd.finite():
        raise NonFiniteLoss("loss is not finite at initialization")
    breakdowns = [bd]
    steps = 0
    while bd.total > opt_cfg.loss_tolerance and steps < opt_cfg.max_steps:
        pts -= opt_cfg.step_size * grad
        steps += 1
        if not np.all(np.isfinite(pts)):
            raise NonFiniteLoss(f"embeddings diverged after {steps} steps; reduce step_size")
        bd, grad = _value_and_grad(pts, plan, loss_cfg)
        if not bd.finite():
            raise NonFiniteLoss(f"loss diverged after {steps} steps; reduce step_size")
        breakdowns.append(bd)
    field.reshape(-1, d)[plan.fg] = pts
    return OptimizationTrace(tuple(breakdowns), EmbeddingField(field), steps)


def normalize_field(emb: EmbeddingField, mask: BinaryMask | None = None) -> EmbeddingField:
    """Scale vectors to unit Euclidean norm.

    With a mask, only mask-1 pixels are normalized and background vectors are
    copied through unchanged (they are exempt from the unit-norm contract).
    Raises DegenerateVector if any vector to be normalized has norm < 1e-12.
    """
    values = emb.values
    norms = np.sqrt(np.einsum("hwd,hwd->hw", values, values))
    if mask is not None:
        validate_pair(emb, mask)
        select = mask.values.astype(bool)
    else:
        select = np.ones(norms.shape, dtype=bool)
    picked = norms[select]
    if picked.size and picked.min() < 1e-12:
        raise DegenerateVector("cannot normalize a vector with norm < 1e-12")
    out = values.copy()
    out[select] = values[select] / norms[select][:, None]
    return EmbeddingField(out, normalized=True)
