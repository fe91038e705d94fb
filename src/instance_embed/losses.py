"""Loss functions for embedding-based instance segmentation.

The centerpiece is a three-term metric-learning loss over per-pixel
embeddings and its exact analytic gradient:

  l_var   pulls each embedding within delta_v of its instance mean,
  l_dist  pushes instance means pairwise apart beyond 2*delta_d,
  l_reg   draws the means toward the origin,
  total = alpha*l_var + beta*l_dist + gamma*l_reg.

Both hinges are squared and averaged (per instance, then over instances for
l_var; over ordered pairs for l_dist).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EmbeddingField, LabelMap, validate_pair
from .errors import EmptyInstance

# Gradient of a scalar loss w.r.t. every pixel embedding, shaped (H, W, D).
# Background rows are exactly zero.
GradientField = np.ndarray


@dataclass(frozen=True)
class DiscriminativeConfig:
    """Hyperparameters of the three-term embedding loss."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.001
    delta_v: float = 0.5
    delta_d: float = 1.5

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta_v", "delta_d"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.delta_d <= 0:
            raise ValueError(f"delta_d must be > 0, got {self.delta_d}")


@dataclass(frozen=True)
class LossBreakdown:
    """The three loss terms and their weighted total."""

    l_var: float
    l_dist: float
    l_reg: float
    total: float

    def finite(self) -> bool:
        return all(
            math.isfinite(v) for v in (self.l_var, self.l_dist, self.l_reg, self.total)
        )


@dataclass(frozen=True)
class _LabelPlan:
    """Foreground layout of a label map; fixed while its embeddings move."""

    fg: np.ndarray  # (n,) raveled pixel index of each foreground pixel
    ids: np.ndarray  # (n,) 0-based instance index of each foreground pixel
    counts: np.ndarray  # (C,) pixels per instance, as float64


def _plan_labels(label_values: np.ndarray) -> _LabelPlan:
    """Index the foreground of a label map once for any number of loss calls.

    Raises EmptyInstance when there is no foreground or some ID in 1..C has
    no pixels.
    """
    labels_flat = label_values.ravel()
    c = int(labels_flat.max(initial=0))
    if c == 0:
        raise EmptyInstance("label map has no foreground instances")
    fg = np.flatnonzero(labels_flat)
    ids = labels_flat[fg] - 1
    counts = np.bincount(ids, minlength=c)
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0]) + 1
        raise EmptyInstance(f"instance ID {missing} owns zero pixels")
    return _LabelPlan(fg, ids, counts.astype(np.float64))


def _segment_sum(plan: _LabelPlan, rows: np.ndarray) -> np.ndarray:
    """Per-instance sums of the rows of an (n, D) matrix, shaped (C, D)."""
    c = plan.counts.size
    return np.stack(
        [np.bincount(plan.ids, weights=col, minlength=c) for col in rows.T], axis=1
    )


def _gather(values: np.ndarray, plan: _LabelPlan) -> np.ndarray:
    """The foreground rows of an (H, W, D) array in plan order, shaped (n, D)."""
    return values.reshape(-1, values.shape[2])[plan.fg]


def _scatter(rows: np.ndarray, plan: _LabelPlan, shape: tuple) -> np.ndarray:
    """An (H, W, D) array holding the (n, D) rows at the foreground, zero elsewhere."""
    out = np.zeros(shape, dtype=np.float64)
    out.reshape(-1, shape[2])[plan.fg] = rows
    return out


def _loss_terms(pts: np.ndarray, plan: _LabelPlan, cfg: DiscriminativeConfig):
    """The three loss terms of the foreground rows, plus the intermediates their gradient reuses.

    Returns (breakdown, parts). parts holds the instance means; the pull
    differences, distances and hinges per foreground pixel; the mean
    separations and push hinges (None with one instance); and the mean norms.
    """
    ids, counts = plan.ids, plan.counts
    c = counts.size
    means = _segment_sum(plan, pts) / counts[:, None]

    diff = means[ids] - pts
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    hinge = np.maximum(dist - cfg.delta_v, 0.0)
    l_var = float((np.bincount(ids, weights=hinge * hinge, minlength=c) / counts).mean())

    l_dist = 0.0
    sep = h = None
    if c > 1:
        gram = means @ means.T
        sq = np.diag(gram)
        sep = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0))
        h = np.maximum(2.0 * cfg.delta_d - sep, 0.0)
        np.fill_diagonal(h, 0.0)
        l_dist = float((h * h).sum() / (c * (c - 1)))

    norms = np.sqrt(np.einsum("ij,ij->i", means, means))
    l_reg = float(norms.mean())

    total = cfg.alpha * l_var + cfg.beta * l_dist + cfg.gamma * l_reg
    parts = (means, diff, dist, hinge, sep, h, norms)
    return LossBreakdown(l_var, l_dist, l_reg, float(total)), parts


def _value_and_grad(pts: np.ndarray, plan: _LabelPlan, cfg: DiscriminativeConfig):
    """Loss terms and their exact gradient w.r.t. the (n, D) foreground rows.

    Returns (breakdown, grad) with grad shaped (n, D) like pts. The gradient
    differentiates through the instance means. Hinge boundaries and the
    regularizer at mu = 0 take the zero subgradient.
    """
    ids, counts = plan.ids, plan.counts
    c = counts.size
    bd, (means, diff, dist, hinge, sep, h, norms) = _loss_terms(pts, plan, cfg)

    # Pull term. For pixel k of instance c with d_i = mu_c - x_i,
    # h_i = [|d_i| - delta_v]+ and unit directions dhat_i:
    #   dL/dx_k = 2/(C*n_c) * (S_c/n_c - h_k*dhat_k),  S_c = sum_i h_i*dhat_i.
    active = hinge > 0.0
    dhat = np.zeros_like(diff)
    dhat[active] = diff[active] / dist[active, None]
    # An overflowed distance gives inf * 0 here, and then l_var is inf too.
    with np.errstate(invalid="ignore"):
        hd = hinge[:, None] * dhat
    s_c = _segment_sum(plan, hd)
    scale = 2.0 / (c * counts)
    grad_pts = cfg.alpha * scale[ids, None] * (s_c[ids] / counts[ids, None] - hd)

    # Push term. For pixel k of instance A:
    #   dL/dx_k = -4/(C*(C-1)*n_A) * sum_{B != A} [2*delta_d - s_AB]+ * e_AB
    # with e_AB the unit vector from mu_B to mu_A.
    if c > 1:
        # unit difference directions e_AB, zero where the hinge is inactive
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where((h > 0.0) & (sep > 0.0), h / sep, 0.0)
        acc = coef.sum(axis=1)[:, None] * means - coef @ means
        per_mean = -4.0 / (c * (c - 1) * counts)[:, None] * acc
        grad_pts += cfg.beta * per_mean[ids]

    # Regularizer. d|mu_c|/dx_k = mu_c/(n_c*|mu_c|); zero at mu_c = 0.
    unit = np.zeros_like(means)
    nz = norms > 0.0
    unit[nz] = means[nz] / norms[nz, None]
    grad_pts += cfg.gamma * (unit / (c * counts)[:, None])[ids]
    return bd, grad_pts


def cluster_means(emb: EmbeddingField, labels: LabelMap) -> np.ndarray:
    """Arithmetic mean embedding of each instance, shaped (C, D)."""
    validate_pair(emb, labels)
    plan = _plan_labels(labels.values)
    return _segment_sum(plan, _gather(emb.values, plan)) / plan.counts[:, None]


def discriminative_loss(
    emb: EmbeddingField, labels: LabelMap, cfg: DiscriminativeConfig
) -> LossBreakdown:
    """Evaluate all three terms of the discriminative loss."""
    validate_pair(emb, labels)
    plan = _plan_labels(labels.values)
    return _loss_terms(_gather(emb.values, plan), plan, cfg)[0]


def discriminative_grad(
    emb: EmbeddingField, labels: LabelMap, cfg: DiscriminativeConfig
) -> GradientField:
    """Exact gradient of the total loss w.r.t. every pixel embedding.

    Differentiates through the instance means. Hinge boundaries and the
    regularizer at mu = 0 take the zero subgradient. Background pixels get
    exactly zero.
    """
    validate_pair(emb, labels)
    plan = _plan_labels(labels.values)
    grad = _value_and_grad(_gather(emb.values, plan), plan, cfg)[1]
    return _scatter(grad, plan, emb.values.shape)
