"""Descent of a free embedding field on the discriminative loss.

Stands in for training an embedding head at desk scale: initialize every
pixel's embedding uniformly at random, then descend the discriminative loss
against a ground-truth label map. Only the pull term reads a pixel's offset
from its instance mean; the push and regularizer terms read the means
alone. So each step moves the (C, D) instance means as fixed-step gradient
descent moves them, and each pixel by its pull hinge's Newton step less
the instance's mean of that step, which leaves every mean in place; each
instance's pixels then move by its mean's displacement at the end. The
factors of the means' step that only the instance sizes and the loss
config set are computed once per descent, not once per step. The
field is returned as descended; clustering lifts each foreground row x to
[x, delta_v] and then scales it to unit norm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EmbeddingField, LabelMap
from .errors import NonFiniteLoss
from .losses import (
    DiscriminativeConfig,
    _gather,
    _instance_means,
    _mean_constants,
    _mean_errstate,
    _mean_terms,
    _plan_labels,
    _pull_terms,
    _value_and_grad,
)

_INIT_SCALE = 1.0  # half-width of the uniform initial embeddings
_REFERENCE_PIXELS = 64 * 64  # the canvas the default step_size was chosen on


@dataclass(frozen=True)
class OptimizerConfig:
    """Descent settings.

    step_size sets the step of the instance means, through the push and
    regularizer terms. Their per-pixel gradient carries a 1/(C*n_c) factor,
    so useful steps are much larger than 1. The step taken is step_size
    times max(1, C*n_min/4096), with C instances of which the smallest has
    n_min pixels, which keeps the means' rate on a large map at its value on
    the 64x64 canvas (4096 pixels) the default was chosen on. Maps with
    C*n_min <= 4096 step by exactly step_size. The pull term does not use
    step_size: a step moves each pixel x of instance c by its pull hinge's
    full Newton step hd less the instance's mean of hd, so a pixel's
    overshoot past delta_v is removed at a fixed rate whatever its
    instance's size, and the means are not moved by it. A positive
    loss_tolerance stops descent once the hinge part
    alpha*l_var + beta*l_dist is at or below it; the gamma*l_reg term never
    reaches zero, so it is left out. The default 2.5e-5 is
    (delta_v / 100)**2 at the default delta_v of 0.5: the hinge part when
    every pixel's pull overshoots delta_v by 1% of delta_v and no push hinge
    is active. On 168 seeded 64 and 96 px scenes the steps past it changed
    no pixel's cluster (default VmfConfig, seed_stride 3 at 96 px). 0.0
    runs all max_steps.

    The pull moves the pixels only while the unweighted l_var is above
    loss_tolerance * 2**-52, its rounding level (above 0.0 at a tolerance
    of 0.0); after that a step moves the means alone. The means follow
    plain gradient descent's path to rounding, and the steps and the stop
    are those of a descent that moves every pixel along the whole step.
    """

    step_size: float = 40.0
    max_steps: int = 600
    loss_tolerance: float = 2.5e-5
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
    one update, so len(breakdowns) == steps_taken + 1. stop_reason is
    "loss_tolerance" or "max_steps", and final_grad_norm is the Frobenius
    norm of the foreground gradient at the returned field, summed without
    BLAS so that it does not depend on the BLAS thread count. step_size is
    the step the instance means took (see OptimizerConfig). pixel_steps
    counts the steps on which the pull moved the pixels, at most
    steps_taken: the first ones, taken while the unweighted l_var was above
    loss_tolerance * 2**-52 (above 0.0 at a tolerance of 0.0). The entries
    after them carry that last l_var.
    """

    breakdowns: tuple
    final: EmbeddingField
    steps_taken: int
    pixel_steps: int
    stop_reason: str
    final_grad_norm: float
    step_size: float


def optimize_embeddings(
    labels: LabelMap,
    d: int,
    loss_cfg: DiscriminativeConfig,
    opt_cfg: OptimizerConfig,
) -> OptimizationTrace:
    """Descend the discriminative loss from a seeded uniform initialization.

    Embeddings start uniform in [-1, +1] per coordinate. Each step moves
    the instance means by the step (step_size scaled by instance size, see
    OptimizerConfig) times their push and regularizer gradient, and, until
    every pull is met, each pixel by its pull's Newton step. The breakdown
    at initialization and after every update is recorded. Stops when a
    positive loss_tolerance is met by the hinge part
    alpha*l_var + beta*l_dist, or after max_steps updates, whichever comes
    first; a tolerance of 0.0 runs all max_steps. Only foreground rows move:
    background pixels keep their initial values, since the loss does not
    depend on them.
    """
    if d < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {d}")
    plan = _plan_labels(labels.values, d)
    rng = np.random.default_rng(opt_cfg.seed)
    shape = (labels.height, labels.width, d)
    field = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=shape)
    pts = _gather(field, plan)
    scale = float(plan.counts.size * plan.counts.min()) / _REFERENCE_PIXELS
    step = opt_cfg.step_size * max(1.0, scale)

    tol = opt_cfg.loss_tolerance
    consts = _mean_constants(plan.counts, loss_cfg)
    # The rows keep their instance means; these (C, D) copies descend.
    l_var, means, hd = _pull_terms(pts, plan, loss_cfg)
    start = means.copy()
    direction = np.empty_like(means)
    breakdowns = []
    steps = pixel_steps = 0
    while True:
        direction.fill(0.0)
        # An overflow here leaves inf or nan means and terms, which raise.
        with _mean_errstate():
            bd = _mean_terms(means, consts, l_var, direction)
            if not bd.finite():
                raise NonFiniteLoss(
                    f"loss diverged after {steps} steps; reduce step_size" if steps
                    else "loss is not finite at initialization"
                )
            breakdowns.append(bd)
            separated = tol > 0.0 and loss_cfg.alpha * l_var + loss_cfg.beta * bd.l_dist <= tol
            if separated or steps == opt_cfg.max_steps:
                break
            direction *= step
            means -= direction
        steps += 1
        if not np.isfinite(means).all():
            raise NonFiniteLoss(f"embeddings diverged after {steps} steps; reduce step_size")
        # Until the pull is met to the tolerance's rounding level, each row
        # takes its pull's Newton step less the instance's mean of it. The
        # test is unweighted: with alpha 0 the pull still moves the rows.
        if l_var > tol * 2.0**-52:
            shift = _instance_means(hd, plan)
            for k, (lo, hi) in enumerate(plan.spans):
                hd[lo:hi] -= shift[k]
                pts[lo:hi] += hd[lo:hi]
            pixel_steps += 1
            l_var, _, hd = _pull_terms(pts, plan, loss_cfg)
    del hd  # free the (n, D) pull vectors before the final gradient forms its own
    for (lo, hi), moved in zip(plan.spans, means - start):
        pts[lo:hi] += moved
    field.reshape(-1, d)[plan.fg] = pts
    reason = "loss_tolerance" if separated else "max_steps"
    grad = _value_and_grad(pts, plan, loss_cfg)[1]
    # einsum, not np.linalg.norm: a multi-threaded ddot splits the sum by
    # thread count, and leaves an OpenBLAS worker spinning after it.
    grad_norm = math.sqrt(float(np.einsum("ij,ij->", grad, grad)))
    return OptimizationTrace(
        tuple(breakdowns), EmbeddingField(field), steps, pixel_steps, reason, grad_norm, step
    )
