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
    """Foreground layout of a label map; fixed while its embeddings move.

    Rows are ordered by instance, and by raster order within an instance, so
    instance c owns the contiguous rows spans[c]. A per-instance sum over
    these rows adds them in raster order, exactly as a sum over the raster
    scan of the foreground would, so it is bit-equal to that sum.
    """

    fg: np.ndarray  # (n,) raveled pixel index of each row
    ids: np.ndarray  # (n,) 0-based instance index of each row, ascending
    counts: np.ndarray  # (C,) pixels per instance, as float64
    spans: tuple  # (C,) (start, stop) row range of each instance
    keys: np.ndarray  # (n*D,) ids*D + column: the bin of each entry of an (n, D) matrix


def _plan_labels(label_values: np.ndarray, d: int) -> _LabelPlan:
    """Index the foreground of a label map once for any number of loss calls.

    d is the embedding dimension of the rows the plan will sum. The rows are
    a stable argsort of the raveled labels with the background dropped from
    its head: sorted by instance, raster order within each instance.

    Raises EmptyInstance when there is no foreground or some ID in 1..C has
    no pixels.
    """
    labels_flat = label_values.ravel()
    c = int(labels_flat.max(initial=0))
    if c == 0:
        raise EmptyInstance("label map has no foreground instances")
    n = labels_flat.size
    # At most n IDs own pixels, so with c > n some ID in 1..n is empty:
    # count only the IDs up to n rather than allocate c + 1 bins.
    counts = np.bincount(labels_flat[labels_flat <= n] if c > n else labels_flat,
                         minlength=min(c, n) + 1)
    sizes = counts[1:]
    if (sizes == 0).any():
        missing = int(np.flatnonzero(sizes == 0)[0]) + 1
        raise EmptyInstance(f"instance ID {missing} owns zero pixels")
    # On labels of at most 16 bits numpy runs the stable sort as a radix sort.
    fg = np.argsort(labels_flat.astype(np.min_scalar_type(c)), kind="stable")[counts[0]:]
    ids = np.repeat(np.arange(c), sizes)
    keys = np.repeat(np.arange(c * d).reshape(c, d), sizes, axis=0).ravel()
    stops = np.cumsum(sizes)
    spans = tuple(zip((stops - sizes).tolist(), stops.tolist()))
    return _LabelPlan(fg, ids, sizes.astype(np.float64), spans, keys)


def _segment_sum(plan: _LabelPlan, rows: np.ndarray) -> np.ndarray:
    """Per-instance sums of the rows of an (n, D) matrix, shaped (C, D).

    One bincount over the plan's keys. Each bin adds its entries in plan
    order, which is raster order within the instance, so every sum is
    bit-equal to a sequential raster-order sum.
    """
    c, d = plan.counts.size, rows.shape[1]
    return np.bincount(plan.keys, weights=rows.ravel(), minlength=c * d).reshape(c, d)


def _gather(values: np.ndarray, plan: _LabelPlan) -> np.ndarray:
    """The foreground rows of an (H, W, D) array in plan order, shaped (n, D)."""
    return values.reshape(-1, values.shape[2])[plan.fg]


def _scatter(rows: np.ndarray, plan: _LabelPlan, shape: tuple) -> np.ndarray:
    """An (H, W, D) array holding the (n, D) rows at the foreground, zero elsewhere."""
    out = np.zeros(shape, dtype=np.float64)
    out.reshape(-1, shape[2])[plan.fg] = rows
    return out


def _instance_means(pts: np.ndarray, plan: _LabelPlan) -> np.ndarray:
    """The (C, D) instance means of the (n, D) foreground rows."""
    return _segment_sum(plan, pts) / plan.counts[:, None]


def _pull_terms(pts: np.ndarray, plan: _LabelPlan, cfg: DiscriminativeConfig):
    """l_var of the foreground rows, their instance means and their pull vectors.

    Returns (l_var, means, hd), hd holding for each foreground row x_k of
    instance c the vector hd_k = [|d_k| - delta_v]+ * d_k/|d_k| of its pull
    difference d_k = mu_c - x_k, zero where the hinge is off: the Newton step
    of the row's own pull hinge, which would put it on the delta_v ball
    around mu_c.
    """
    ids, counts = plan.ids, plan.counts
    c = counts.size
    means = _instance_means(pts, plan)
    diff = np.empty_like(pts)
    for k, (start, stop) in enumerate(plan.spans):
        np.subtract(means[k], pts[start:stop], out=diff[start:stop])
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    hinge = np.maximum(dist - cfg.delta_v, 0.0)
    l_var = float((np.bincount(ids, weights=hinge * hinge, minlength=c) / counts).mean())
    # An overflowed distance gives inf/inf here, and then l_var is inf too.
    with np.errstate(invalid="ignore"):
        ratio = np.divide(hinge, dist, out=np.zeros_like(hinge), where=hinge > 0.0)
    return l_var, means, np.multiply(diff, ratio[:, None], out=diff)


def _mean_terms(means: np.ndarray, counts: np.ndarray, cfg: DiscriminativeConfig,
                l_var: float, table: np.ndarray | None = None) -> LossBreakdown:
    """The breakdown with the given l_var; l_dist and l_reg read the (C, D) means alone.

    A (C, D) table given gains, in place, the push and regularizer terms of
    the gradient of each instance's rows (see _value_and_grad). They are
    the same for every row of an instance, and the pull rows sum to zero
    over it, so a table of zeros that gains them is the direction in which
    a step along the whole gradient moves each instance mean.
    """
    c = counts.size
    l_dist = 0.0
    # Overflowed means give inf or nan here, in the terms and in the table
    # alike, and then the breakdown is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        if c > 1:
            gram = means @ means.T
            sq = np.diag(gram)
            sep = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0))
            h = np.maximum(2.0 * cfg.delta_d - sep, 0.0)
            np.fill_diagonal(h, 0.0)
            l_dist = float((h * h).sum() / (c * (c - 1)))
            if table is not None:
                # push coefficients [2*delta_d - s_AB]+ / s_AB, zero where the hinge is off
                with np.errstate(divide="ignore"):
                    coef = np.where((h > 0.0) & (sep > 0.0), h / sep, 0.0)
                acc = coef.sum(axis=1)[:, None] * means - coef @ means
                table -= (4.0 * cfg.beta / (c * (c - 1) * counts))[:, None] * acc

        norms = np.sqrt(np.einsum("ij,ij->i", means, means))
        l_reg = float(norms.mean())
        if table is not None:
            reg = np.divide(cfg.gamma / (c * counts), norms, out=np.zeros_like(norms),
                            where=norms > 0.0)
            table += reg[:, None] * means

    total = cfg.alpha * l_var + cfg.beta * l_dist + cfg.gamma * l_reg
    return LossBreakdown(l_var, l_dist, l_reg, float(total))


def _loss_terms(pts: np.ndarray, plan: _LabelPlan, cfg: DiscriminativeConfig) -> LossBreakdown:
    """The three loss terms of the (n, D) foreground rows."""
    l_var, means = _pull_terms(pts, plan, cfg)[:2]
    return _mean_terms(means, plan.counts, cfg, l_var)


def _value_and_grad(pts: np.ndarray, plan: _LabelPlan, cfg: DiscriminativeConfig):
    """Loss terms and their exact gradient w.r.t. the (n, D) foreground rows.

    Returns (breakdown, grad) with grad shaped (n, D) like pts. The gradient
    differentiates through the instance means. Hinge boundaries and the
    regularizer at mu = 0 take the zero subgradient. All of it but each
    pixel's own pull term is one (C, D) per-instance table, added to each
    instance's rows in place.
    """
    counts = plan.counts
    c = counts.size
    l_var, means, hd = _pull_terms(pts, plan, cfg)

    # For pixel k of instance c (n_c pixels, C instances) with d_k = mu_c - x_k
    # and hd_k = [|d_k| - delta_v]+ * d_k/|d_k| (zero where the hinge is off):
    #   pull  dL/dx_k = a_c*(S_c/n_c - hd_k),  a_c = 2*alpha/(C*n_c),  S_c = sum_i hd_i
    #   push  dL/dx_k = -4*beta/(C*(C-1)*n_c) * sum_{B != c} [2*delta_d - s_cB]+ * e_cB
    #         with e_cB the unit vector from mu_B to mu_c
    #   reg   dL/dx_k = gamma*mu_c/(C*n_c*|mu_c|), zero at mu_c = 0
    # So grad_k = T_c - a_c*hd_k, where the table T_c holds a_c*S_c/n_c plus
    # the push and regularizer terms.
    a = 2.0 * cfg.alpha / (c * counts)
    table = (a / counts)[:, None] * _segment_sum(plan, hd)
    bd = _mean_terms(means, counts, cfg, l_var, table)
    # hd becomes the gradient, one instance's rows at a time.
    for k, (start, stop) in enumerate(plan.spans):
        rows = hd[start:stop]
        rows *= -a[k]
        rows += table[k]
    return bd, hd


def discriminative_loss(
    emb: EmbeddingField, labels: LabelMap, cfg: DiscriminativeConfig
) -> LossBreakdown:
    """Evaluate all three terms of the discriminative loss."""
    validate_pair(emb, labels)
    plan = _plan_labels(labels.values, emb.dim)
    return _loss_terms(_gather(emb.values, plan), plan, cfg)


def discriminative_grad(
    emb: EmbeddingField, labels: LabelMap, cfg: DiscriminativeConfig
) -> GradientField:
    """Exact gradient of the total loss w.r.t. every pixel embedding.

    Differentiates through the instance means. Hinge boundaries and the
    regularizer at mu = 0 take the zero subgradient. Background pixels get
    exactly zero.
    """
    validate_pair(emb, labels)
    plan = _plan_labels(labels.values, emb.dim)
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
    plan = _plan_labels(labels.values, emb.dim)
    pts = _gather(emb.values, plan)
    out = np.zeros_like(pts)
    for k in range(pts.shape[0]):
        for d in range(pts.shape[1]):
            saved = pts[k, d]
            pts[k, d] = saved + step
            hi = _loss_terms(pts, plan, cfg).total
            pts[k, d] = saved - step
            lo = _loss_terms(pts, plan, cfg).total
            pts[k, d] = saved
            out[k, d] = (hi - lo) / (2.0 * step)
    return _scatter(out, plan, emb.values.shape)
