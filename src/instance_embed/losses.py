"""Loss functions for embedding-based instance segmentation.

The centerpiece is a three-term metric-learning loss over per-pixel
embeddings and its exact analytic gradient:

  l_var   pulls each embedding within delta_v of its instance mean,
  l_dist  pushes instance means pairwise apart beyond 2*delta_d,
  l_reg   draws the means toward the origin,
  total = alpha*l_var + beta*l_dist + gamma*l_reg.

Both hinges are squared and averaged (per instance, then over instances for
l_var; over ordered pairs for l_dist). A central finite-difference gradient
of the same loss cross-checks the analytic one.
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
    regularizer at mu = 0 take the zero subgradient. All of it but each
    pixel's own pull term is one (C, D) per-instance table, gathered once.
    """
    ids, counts = plan.ids, plan.counts
    c = counts.size
    bd, (means, diff, dist, hinge, sep, h, norms) = _loss_terms(pts, plan, cfg)

    # For pixel k of instance c (n_c pixels, C instances) with d_k = mu_c - x_k
    # and hd_k = [|d_k| - delta_v]+ * d_k/|d_k| (zero where the hinge is off):
    #   pull  dL/dx_k = a_c*(S_c/n_c - hd_k),  a_c = 2*alpha/(C*n_c),  S_c = sum_i hd_i
    #   push  dL/dx_k = -4*beta/(C*(C-1)*n_c) * sum_{B != c} [2*delta_d - s_cB]+ * e_cB
    #         with e_cB the unit vector from mu_B to mu_c
    #   reg   dL/dx_k = gamma*mu_c/(C*n_c*|mu_c|), zero at mu_c = 0
    # So grad_k = T_c - a_c*hd_k, where the table T_c holds a_c*S_c/n_c plus
    # the push and regularizer terms.
    a = 2.0 * cfg.alpha / (c * counts)
    # An overflowed distance gives inf/inf here, and then l_var is inf too.
    with np.errstate(invalid="ignore"):
        ratio = np.divide(hinge, dist, out=np.zeros_like(hinge), where=hinge > 0.0)
    hd = ratio[:, None] * diff
    table = (a / counts)[:, None] * _segment_sum(plan, hd)
    if c > 1:
        # push coefficients [2*delta_d - s_AB]+ / s_AB, zero where the hinge is off
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where((h > 0.0) & (sep > 0.0), h / sep, 0.0)
        acc = coef.sum(axis=1)[:, None] * means - coef @ means
        table -= (4.0 * cfg.beta / (c * (c - 1) * counts))[:, None] * acc
    reg = np.divide(cfg.gamma / (c * counts), norms, out=np.zeros_like(norms), where=norms > 0.0)
    table += reg[:, None] * means
    grad = table[ids]
    grad -= a[ids, None] * hd
    return bd, grad


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


def finite_diff_grad(
    emb: EmbeddingField,
    labels: LabelMap,
    cfg: DiscriminativeConfig,
    step: float = 1e-5,
) -> GradientField:
    """Central finite-difference gradient of the total loss.

    Perturbs every foreground coordinate by +-step; background entries stay
    zero. This is the oracle the analytic gradient is validated against.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    validate_pair(emb, labels)
    plan = _plan_labels(labels.values)
    pts = _gather(emb.values, plan)
    out = np.zeros_like(pts)
    for k in range(pts.shape[0]):
        for d in range(pts.shape[1]):
            saved = pts[k, d]
            pts[k, d] = saved + step
            hi = _loss_terms(pts, plan, cfg)[0].total
            pts[k, d] = saved - step
            lo = _loss_terms(pts, plan, cfg)[0].total
            pts[k, d] = saved
            out[k, d] = (hi - lo) / (2.0 * step)
    return _scatter(out, plan, emb.values.shape)
