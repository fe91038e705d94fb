"""Mean-shift clustering of lifted, unit-norm embeddings on the hypersphere.

Each embedding x is lifted to [x, r] / ||[x, r]|| before clustering, with r
the loss's delta_v, so an instance whose mean lies near the origin maps near
one pole rather than over the whole sphere. Seed rows are shifted toward
the local mean direction under a von Mises-Fisher kernel until they stop
moving; endpoints that agree in direction are merged into modes, and every
foreground pixel is assigned to its angularly nearest mode. No cluster
count is ever supplied: the number of recovered modes is purely a property
of the data and the kernel width.

cluster_field first captures the raw embeddings as De Brabandere et al.
(arXiv:1708.02551, section 3.2) do: the lowest unlabelled row is shifted
with a flat kernel of the loss's delta_d to its fixed point, and every
unlabelled row within delta_d of it joins its group. The strided seeds of
each group then share one search row, started at the group's lifted
centre. In the same passes up to _CHECK_ROWS of the group's own seeds,
the farthest from its centre, are shifted as check rows; the fold stands
only when the centre and its check rows end in one single-linkage
component, moving or not, and otherwise the group's seeds are shifted one
row each. So the modes are still fixed points of the same vMF kernel
density, and on a loss-trained field the search shifts about five rows
per instance rather than one per seed. The capture stops after one sweep per seed, so
on a field with no structure, where nearly every row is a group of its
own, it costs about one pass over the seeds and leaves the rest as seeds
of their own. mean_shift_modes without a capture shifts every strided
seed.

The seeds of a search move together, one pass at a time. Between passes,
seeds still moving within merge_tolerance / 10 of each other are folded
into one row that carries their count, and only the kept rows are shifted
further; every reported counter is in original seeds. One kernel forms
every pass's sums, in strips of _SEED_BLOCK rows by _STRIP_COLUMNS points:
two matrix products against [x | 1] and one exp per strip. The weights are
exp(kappa * (<x, y> - 1)), at most 1 for unit rows, and the second
product's last column is their total; the rare row whose total is not
finite or vanishes is recomputed with its own largest dot subtracted. The
whole search runs on one OpenBLAS thread, and the capture's O(n D) sweeps
reduce with np.einsum, not BLAS.

Besides the caller's points, a pass holds the seeds, [x | 1], the moving
rows' copy (none while every row moves) and their sums, which the new
directions overwrite; the fold holds one copy of the kept rows. Each pass
frees its copies before the next fold, and both pass and fold work in
_SEED_BLOCK x _STRIP_COLUMNS strips, so passes and folds hold a few point
matrices plus fixed-size strips. The merge is single linkage over the
seed endpoints, found by a breadth-first search that expands a whole
frontier at once in the same strips of frontier rows against the still
unlabelled endpoints. Traced with tracemalloc (numpy 2.4.6), cluster_field
peaks at 3.5 MB on the 128x128 four-stripe field of scene seed 1000
(11 648 lifted rows of 9 coordinates, 0.8 MB) and at 13.8 MB on a 256x256
four-stripe field (scene seed 5000, 47 104 rows, 3.4 MB), flatten_foreground
and capture included. The search over every seed, the path a field takes
when no fold stands, peaks at 3.8 and 13.2 MB there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blas
from .core import BinaryMask, EmbeddingField, LabelMap, _freeze, validate_pair
from .errors import DegenerateShift, DegenerateVector, EmptyForeground
from .losses import DiscriminativeConfig

# Seeds are shifted, folded and merge frontiers expanded in fixed-size
# blocks, which bounds the block x n dot and angle matrices.
_SEED_BLOCK = 64
# Between passes, still-moving seeds closer than this share of
# merge_tolerance are folded into one row.
_FOLD_FRACTION = 0.1
# A row of _kernel_sums whose total weight falls below this is recomputed
# with its row max subtracted.
_TOTAL_FLOOR = 1e-100
# _kernel_sums forms its weights, and _fold_rows its cosines, in strips of
# _SEED_BLOCK rows by this many points, 512 KiB that stay in L2. On a
# 2-vCPU guest, one pass of all 11 648 points against themselves took 0.26
# to 0.27 s on one thread, against 0.35 to 0.36 s with strips as wide as
# the point set.
_STRIP_COLUMNS = 1024
# A capture group's fold is checked by this many of its own seeds, the
# farthest from its centre first.
_CHECK_ROWS = 4
# Flat-kernel sweeps after which a capture's centre stops where it is.
_CAPTURE_SWEEPS = 50


@dataclass(frozen=True)
class VmfConfig:
    """Spherical mean-shift settings.

    kappa is the kernel concentration (larger = narrower kernel). Seeds are
    every seed_stride-th foreground point; stride 1 takes every point. In
    cluster_field the seeds of a confirmed capture group share one row and
    count as that many seeds, so the stride sets which pixels check and
    weigh the groups, and the rows shifted when a group is refused.
    merge_tolerance is transitive: seed endpoints chain into one mode
    whenever each link of the chain is within the tolerance.
    """

    kappa: float = 10.0
    max_iters: int = 100
    shift_tolerance: float = 1e-4
    merge_tolerance: float = 0.1
    seed_stride: int = 1
    min_cluster_pixels: int = 16

    def __post_init__(self):
        if not math.isfinite(self.kappa) or self.kappa <= 0:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not math.isfinite(self.shift_tolerance) or self.shift_tolerance <= 0:
            raise ValueError(f"shift_tolerance must be > 0, got {self.shift_tolerance}")
        if not math.isfinite(self.merge_tolerance) or self.merge_tolerance <= 0:
            raise ValueError(f"merge_tolerance must be > 0, got {self.merge_tolerance}")
        if self.seed_stride < 1:
            raise ValueError(f"seed_stride must be >= 1, got {self.seed_stride}")
        if self.min_cluster_pixels < 0:
            raise ValueError(f"min_cluster_pixels must be >= 0, got {self.min_cluster_pixels}")


@dataclass(frozen=True)
class ModeSearch:
    """Modes recovered by mean-shift, sorted by descending seed-basin size."""

    modes: np.ndarray  # (M, D), unit rows
    basin_seeds: np.ndarray  # (M,) seeds merged into each mode, folded and unconverged included
    dropped_seeds: int
    unconverged_seeds: int  # seeds still moving after max_iters; merged as usual
    passes: int  # passes over the still-moving rows
    row_updates: int  # single-row kernel updates over all passes
    capture_groups: int = 0  # groups of the Capture the search was given
    unconfirmed_groups: int = 0  # groups whose fold the check rows refused
    capture_sweeps: int = 0  # the capture's O(n D) sweeps
    merged_captures: int = 0  # confirmed groups minus the modes they end in

    def __post_init__(self):
        object.__setattr__(self, "modes", _freeze(self.modes, np.float64))
        object.__setattr__(self, "basin_seeds", _freeze(self.basin_seeds, np.int64))


@dataclass(frozen=True)
class Capture:
    """Flat-kernel capture groups of the foreground rows, from _capture.

    group[i] is the group of row i, numbered in the order the groups were
    captured, or -1 when the sweep budget ran out first; centres[g] is
    group g's flat-shift centre, lifted and scaled like the rows; sweeps
    counts the capture's O(n D) distance sweeps.
    """

    group: np.ndarray  # (n,)
    centres: np.ndarray  # (G, D+1)
    sweeps: int


@dataclass(frozen=True)
class ClusterResult:
    """Cluster modes and the instance map that labels cluster k as k+1.

    Label 0 marks pixels off the mask, or every pixel when no mode survives.
    """

    modes: np.ndarray  # (num_clusters, D+1) from cluster_field: lifted unit rows
    instances: LabelMap

    def __post_init__(self):
        m = _freeze(self.modes, np.float64)
        object.__setattr__(self, "modes", m)
        norms = np.sqrt(np.einsum("ij,ij->i", m, m))
        if np.abs(norms - 1.0).max(initial=0.0) > 1e-9:
            raise ValueError("every mode must have unit norm within 1e-9")
        k = m.shape[0]
        # k distinct non-zero labels, the largest k: exactly 1..k
        if self.instances.num_instances != k or self.instances.values.max() != k:
            raise ValueError(f"instance labels must be exactly 1..{k}, one per mode")

    @property
    def num_clusters(self) -> int:
        return self.modes.shape[0]

    @property
    def basin_pixels(self) -> np.ndarray:
        """(num_clusters,) pixels labelled with each cluster."""
        return np.bincount(self.instances.values.ravel())[1:]


def flatten_foreground(
    emb: EmbeddingField, mask: BinaryMask, lift: float = DiscriminativeConfig.delta_v
) -> np.ndarray:
    """Stack the mask-1 embeddings, lifted and scaled to unit norm, into (n, D+1).

    Row i is [v_i, lift] / ||[v_i, lift]|| for the i-th mask-1 pixel,
    np.flatnonzero(mask.values)[i], in row-major pixel order. lift is in the
    loss's units: pass the delta_v of the loss that made the field (the
    default is DiscriminativeConfig's). The loss leaves an instance as a
    ball of radius delta_v around its mean; with a mean near the origin the
    plain directions of that ball cover the whole sphere, while the lifted
    rows all lie near the pole. Background vectors are never read. Raises
    EmptyForeground when the mask selects no pixel and DegenerateVector
    when a selected vector has norm < 1e-12 before the lift.
    """
    if not math.isfinite(lift) or lift < 0:
        raise ValueError(f"lift must be finite and >= 0, got {lift}")
    validate_pair(emb, mask)
    sel = mask.values.ravel().astype(bool)
    if not sel.any():
        raise EmptyForeground("mask selects no pixels")
    x = emb.values.reshape(-1, emb.dim)[sel]
    if np.sqrt(np.einsum("ij,ij->i", x, x).min()) < 1e-12:
        raise DegenerateVector("cannot normalize a vector with norm < 1e-12")
    return _lift(x, lift)


def _lift(x: np.ndarray, lift: float) -> np.ndarray:
    """The rows [x_i, lift] scaled to unit norm; a zero row stays zero."""
    y = np.hstack([x, np.full((x.shape[0], 1), lift)])
    norms = np.sqrt(np.einsum("ij,ij->i", y, y))[:, None]
    return np.divide(y, norms, out=y, where=norms > 0)


def _augment(x_points: np.ndarray) -> np.ndarray:
    """The operand [x | 1] that _kernel_sums multiplies against."""
    return np.hstack([x_points, np.ones((x_points.shape[0], 1))])


def _kernel_sums(cur: np.ndarray, a: np.ndarray, kappa: float):
    """The weighted sums [sum_j w_j x_j | sum_j w_j] of each row y of cur.

    a is _augment(x_points) and w_j = exp(kappa * (<x_j, y> - 1)). Each
    block of _SEED_BLOCK rows is scaled to [kappa*y, -kappa], so one matrix
    product gives the exponents and w = exp(...) needs no row max: for unit
    rows every weight is at most 1 and cannot overflow. The block meets the
    points _STRIP_COLUMNS at a time in one reused buffer, and the product
    of a strip's weights with its rows of a adds to the block's sums. An
    inf or NaN weight spreads into its row's total and leaves that row to
    _finish_rows' fallback. Memory is the rows x (D+1) sums plus the strip
    buffers.
    """
    m, n, d = cur.shape[0], a.shape[0], cur.shape[1]
    s = np.zeros((m, d + 1))
    q = np.empty((_SEED_BLOCK, d + 1))
    strip = np.empty(min(m, _SEED_BLOCK) * min(n, _STRIP_COLUMNS))
    with np.errstate(over="ignore", invalid="ignore"):  # inf weights: recomputed later
        for i0 in range(0, m, _SEED_BLOCK):
            i1 = min(i0 + _SEED_BLOCK, m)
            b = i1 - i0
            np.multiply(cur[i0:i1], kappa, out=q[:b, :d])
            q[:b, d] = -kappa
            for j0 in range(0, n, _STRIP_COLUMNS):
                j1 = min(j0 + _STRIP_COLUMNS, n)
                w = strip[: b * (j1 - j0)].reshape(b, j1 - j0)
                np.matmul(q[:b], a[j0:j1].T, out=w)
                np.exp(w, out=w)
                s[i0:i1] += w @ a[j0:j1]
    return s


def _finish_rows(s: np.ndarray, cur: np.ndarray, a: np.ndarray, kappa: float):
    """Renormalize the weighted sums s = [sum_j w_j x_j | sum_j w_j] of each row of cur.

    A row whose total is not finite or below _TOTAL_FLOOR (kappa*(1 - max
    dot) above about 230, or rows that are not unit vectors) is computed
    again on its own with its largest dot subtracted inside the
    exponential, which rescales sum and total alike. The floor also keeps
    the squared norm of a sum that is not degenerate clear of float64
    underflow.

    Returns (new, bad): the renormalized weighted means, written over the
    first D columns of s and returned as a view of them, and the rows whose
    weighted sum has near-zero norm relative to the total weight (exactly
    antipodal mass cancels). Bad rows of new are the unnormalized sums.
    """
    d = cur.shape[1]
    for r in np.flatnonzero(~(np.isfinite(s[:, d]) & (s[:, d] >= _TOTAL_FLOOR))):
        wr = a[:, :d] @ cur[r]
        wr -= wr.max()
        wr *= kappa
        np.exp(wr, out=wr)
        s[r] = wr @ a
    s, total = s[:, :d], s[:, d]
    norms = np.sqrt(np.einsum("ij,ij->i", s, s))
    bad = norms < 1e-12 * total
    s /= np.where(bad, 1.0, norms)[:, None]
    return s, bad


def _shift_rows(cur: np.ndarray, a: np.ndarray, kappa: float):
    """One kernel-weighted mean-direction update of each row of cur: (new, bad)."""
    return _finish_rows(_kernel_sums(cur, a, kappa), cur, a, kappa)


def vmf_shift_step(x_points: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """One kernel-weighted mean-direction update of a single unit vector.

    Computes (sum_j x_j * exp(kappa * <x_j, x>)) renormalized to unit length,
    with the same arithmetic as the pipeline's seed iteration. Raises
    DegenerateShift when the weighted sum has near-zero norm relative to the
    total weight (exactly antipodal mass cancels).
    """
    new, bad = _shift_rows(x[None, :], _augment(x_points), kappa)
    if bad[0]:
        raise DegenerateShift("weighted mean direction has near-zero norm")
    return new[0]


def _single_linkage(pts: np.ndarray, tol: float) -> np.ndarray:
    """Connected components of the graph joining rows within angle tol.

    Components are numbered by their smallest row index. Each breadth-first
    search expands its whole frontier at once against the rows that have no
    component yet, _STRIP_COLUMNS of them at a time, and each strip meets
    the frontier _SEED_BLOCK rows at a time in one reused buffer until every
    row of the strip is reached. Every row is expanded once, so beyond a few
    index vectors memory is bounded by _SEED_BLOCK x _STRIP_COLUMNS, not
    len(pts) squared.
    """
    n = pts.shape[0]
    comp = np.full(n, -1, dtype=np.int64)
    free = np.arange(n)  # unlabelled rows, ascending
    strip = np.empty(min(n, _SEED_BLOCK) * min(n, _STRIP_COLUMNS))
    n_comp = 0
    while free.size:
        frontier, free = free[:1], free[1:]
        comp[frontier] = n_comp
        while frontier.size and free.size:
            hit = np.zeros(free.size, dtype=bool)
            for j0 in range(0, free.size, _STRIP_COLUMNS):
                cand = pts[free[j0 : j0 + _STRIP_COLUMNS]]
                reached = hit[j0 : j0 + cand.shape[0]]
                for i in range(0, frontier.size, _SEED_BLOCK):
                    blk = pts[frontier[i : i + _SEED_BLOCK]]
                    ang = strip[: blk.shape[0] * cand.shape[0]].reshape(blk.shape[0], -1)
                    np.matmul(blk, cand.T, out=ang)
                    np.clip(ang, -1.0, 1.0, out=ang)
                    np.arccos(ang, out=ang)
                    reached |= (ang <= tol).any(axis=0)
                    if reached.all():
                        break
            frontier, free = free[hit], free[~hit]
            comp[frontier] = n_comp
        n_comp += 1
    return comp


def _fold_rows(pts: np.ndarray, rows: np.ndarray, weight: np.ndarray, cos_fold: float):
    """Fold rows that already agree into one: a greedy ascending leader scan.

    Each of rows (ascending) is kept unless its cosine with an earlier kept
    row is at least cos_fold; then its weight is added to the first such
    row and its own weight set to 0. Rows are compared _SEED_BLOCK at a time
    against the rows kept so far, _STRIP_COLUMNS kept rows at a time in one
    reused buffer, and a block stops scanning once each of its rows has its
    leader. So beyond the copy of the kept rows, memory is bounded by
    _SEED_BLOCK x _STRIP_COLUMNS, not _SEED_BLOCK x kept rows. Returns the
    kept rows, ascending.
    """
    kept = np.empty(rows.size, dtype=np.int64)
    kept_pts = np.empty((rows.size, pts.shape[1]))
    strip = np.empty(min(rows.size, _SEED_BLOCK) * min(rows.size, _STRIP_COLUMNS))
    n_kept = 0
    for i in range(0, rows.size, _SEED_BLOCK):
        blk = rows[i : i + _SEED_BLOCK]
        cur = pts[blk]
        leader = np.full(blk.size, -1)  # index into kept of each row's first near row
        for j0 in range(0, n_kept, _STRIP_COLUMNS):
            j1 = min(j0 + _STRIP_COLUMNS, n_kept)
            dots = strip[: blk.size * (j1 - j0)].reshape(blk.size, j1 - j0)
            near = np.matmul(cur, kept_pts[j0:j1].T, out=dots) >= cos_fold
            hit = near.any(axis=1) & (leader < 0)
            leader[hit] = j0 + near[hit].argmax(axis=1)
            if leader.min() >= 0:
                break
        taken = leader >= 0
        np.add.at(weight, kept[leader[taken]], weight[blk[taken]])
        later = np.triu(cur @ cur.T >= cos_fold, 1)
        for r in np.flatnonzero(later.any(axis=1) & ~taken):
            if not taken[r]:
                joins = later[r] & ~taken
                weight[blk[r]] += weight[blk[joins]].sum()
                taken |= joins
        weight[blk[taken]] = 0
        lead = np.flatnonzero(~taken)
        kept[n_kept : n_kept + lead.size] = blk[lead]
        kept_pts[n_kept : n_kept + lead.size] = cur[lead]
        n_kept += lead.size
    return kept[:n_kept]


def _capture(raw: np.ndarray, radius: float, lift: float, budget: int) -> Capture:
    """Flat-kernel capture groups of the raw rows (arXiv:1708.02551, section 3.2).

    Picks the lowest unlabelled row and shifts it, with a flat kernel of the
    given radius, to the mean of every row within the radius, labelled or
    not, until that set of rows stops changing or _CAPTURE_SWEEPS sweeps
    have run. Then every unlabelled row within the radius of the centre
    joins the group, and the picked row always does, so each capture labels
    at least one row. Each sweep is one O(n D) pass of squared distances
    |r|^2 - 2<r, c> + |c|^2, reduced with np.einsum rather than BLAS.
    No capture starts once budget sweeps have run, and the rows left keep
    group -1: on a field with no structure nearly every row is a group of
    its own, and capturing them all would cost more than the search saves.
    """
    group = np.full(raw.shape[0], -1, dtype=np.int64)
    sq = np.einsum("ij,ij->i", raw, raw)
    r2 = radius * radius
    centres, sweeps = [], 0

    def within(c):
        return sq - 2.0 * np.einsum("ij,j->i", raw, c) + np.einsum("j,j->", c, c) <= r2

    while sweeps < budget and (unlabelled := group < 0).any():
        i = int(unlabelled.argmax())
        c = raw[i]
        near = within(c)
        sweeps += 1
        for _ in range(_CAPTURE_SWEEPS):
            if not near.any():
                break
            c = raw[near].mean(axis=0)
            was, near = near, within(c)
            sweeps += 1
            if np.array_equal(near, was):  # c is the mean of the rows within reach
                break
        near &= unlabelled
        near[i] = True
        group[near] = len(centres)
        centres.append(c)
    return Capture(group, _lift(np.array(centres), lift), sweeps)


def _farthest(rows: np.ndarray, start: np.ndarray, k: int) -> np.ndarray:
    """Up to k rows, by farthest-point traversal from start in cosine distance."""
    gap = 1.0 - np.einsum("ij,j->i", rows, start)
    picked = []
    for _ in range(min(k, rows.shape[0])):
        picked.append(int(gap.argmax()))
        np.minimum(gap, 1.0 - np.einsum("ij,j->i", rows, rows[picked[-1]]), out=gap)
        gap[picked] = -np.inf
    return np.array(picked, dtype=np.int64)


def _descend(pts, moving, a, cfg: VmfConfig, weight=None):
    """Shift the rows `moving` (ascending) of pts jointly until each stops moving.

    Each pass shifts every still-moving row once, with one _kernel_sums call,
    and writes the new directions into pts. Given the rows' weight in
    original seeds, moving rows within _FOLD_FRACTION * merge_tolerance of an
    earlier kept moving row are folded into it between passes (_fold_rows);
    without it, every row keeps its own path. Returns (dropped, moving,
    passes, row_updates): the rows whose update degenerated and the rows
    still moving after max_iters.
    """
    dropped = np.zeros(pts.shape[0], dtype=bool)
    cos_fold = math.cos(_FOLD_FRACTION * cfg.merge_tolerance)
    passes = row_updates = 0
    for it in range(cfg.max_iters):
        if not moving.size:
            break
        if it and weight is not None:
            moving = _fold_rows(pts, moving, weight, cos_fold)
        passes += 1
        row_updates += moving.size
        # moving is ascending, so when every row moves it is all of pts.
        cur = pts if moving.size == pts.shape[0] else pts[moving]
        new, bad = _shift_rows(cur, a, cfg.kappa)
        moved = np.arccos(np.clip(np.einsum("ij,ij->i", new, cur), -1.0, 1.0))
        pts[moving] = new  # a bad row is dropped, and its row of pts never read again
        dropped[moving[bad]] = True
        moving = moving[~(bad | (moved < cfg.shift_tolerance))]
        del cur, new  # this pass's copies go before the next fold allocates
    return dropped, moving, passes, row_updates


def _confirm_folds(seeds, seed_group, centres, a, cfg: VmfConfig):
    """Shift each capture group's centre with its check rows; keep the folds that hold.

    seeds are the strided seed rows and seed_group their capture groups.
    Every group with two or more seeds gets one row at its lifted centre
    and up to _CHECK_ROWS check rows, its own seeds picked by _farthest
    from that centre. All rows are shifted jointly and unfolded.
    A group's fold stands when none of its rows is dropped and its centre
    and check rows end in one single-linkage component, also when some of
    them are still moving after max_iters. Returns (confirmed groups, their
    centres' endpoints, which of them ended still moving, groups tried,
    passes, row_updates).
    """
    by_group = np.argsort(seed_group, kind="stable")
    # the uncaptured seeds (group -1) sort first; the last split is empty
    members = np.split(by_group, np.cumsum(np.bincount(seed_group + 1)))[1:-1]
    tried = [g for g, m in enumerate(members) if m.size >= 2]
    rows, spans = [], []
    for g in tried:
        mine = seeds[members[g]]
        checks = mine[_farthest(mine, centres[g], _CHECK_ROWS)]
        spans.append((len(rows), len(rows) + 1 + checks.shape[0]))
        rows += [centres[g], *checks]
    if not rows:
        return np.zeros(0, dtype=np.int64), None, None, 0, 0, 0
    ends = np.array(rows)
    dropped, moving, passes, row_updates = _descend(ends, np.arange(len(rows)), a, cfg)
    still = np.isin(np.arange(len(rows)), moving)
    held = [
        not dropped[i0:i1].any() and not _single_linkage(ends[i0:i1], cfg.merge_tolerance).any()
        for i0, i1 in spans
    ]
    unsettled = np.array([still[i0:i1].any() for i0, i1 in spans], dtype=bool)[held]
    confirmed = np.array(tried, dtype=np.int64)[held]
    centre_rows = np.array([i0 for i0, _ in spans], dtype=np.int64)[held]
    return confirmed, ends[centre_rows], unsettled, len(tried), passes, row_updates


@_blas.single_thread()
def mean_shift_modes(
    x_points: np.ndarray, cfg: VmfConfig, capture: Capture | None = None
) -> ModeSearch:
    """Iterate strided seeds to their modes and merge coinciding directions.

    All seeds are iterated jointly (_descend): each pass shifts every
    still-moving row once, with one _kernel_sums call. Between passes,
    moving rows within _FOLD_FRACTION * merge_tolerance of an earlier kept
    moving row are folded into it (_fold_rows), and a row carries the count
    of original seeds it stands for; a folded seed shares its row's fate
    from then on. Seeds whose update degenerates (DegenerateShift) are
    dropped and counted; seeds still moving after max_iters are counted as
    unconverged and merged from where they stopped. Surviving rows are
    merged by single linkage: rows within merge_tolerance angular distance
    share a mode, transitively. Each mode is the renormalized seed-weighted
    mean of its rows, and modes are sorted by descending basin seed count
    (ties: the earliest contributing seed first). Every seed counter is in
    original seeds; passes and row_updates count the passes and the
    single-row updates, folded rows once each.

    Given the Capture of the same rows, every group whose fold
    _confirm_folds confirms enters the search in its first seed's row: that
    row takes the centre's endpoint and the group's seed count and is not
    shifted again, and the group's other seeds weigh 0. The other seeds are
    shifted as above. A confirmed group whose rows were still moving after
    max_iters counts its seeds as unconverged. When no fold stands, the
    search is the one without capture.

    Every search runs on one OpenBLAS thread, so its result does not
    depend on the caller's thread count, and then restores that count. The
    count is process-wide, so this is not safe to call concurrently from
    several Python threads that also use BLAS: their products can run on
    one thread, and overlapping calls can leave the count at 1.
    """
    if x_points.ndim != 2 or x_points.shape[0] == 0:
        raise ValueError("point matrix must be non-empty (n, D)")
    a = _augment(x_points)
    pts = x_points[:: cfg.seed_stride].copy()
    weight = np.ones(pts.shape[0], dtype=np.int64)  # original seeds per row
    moving = np.arange(pts.shape[0])
    passes = row_updates = tried = n_unconverged = 0
    confirmed = heads = np.zeros(0, dtype=np.int64)
    if capture is not None:
        seed_group = capture.group[:: cfg.seed_stride]
        confirmed, ends, unsettled, tried, passes, row_updates = _confirm_folds(
            pts, seed_group, capture.centres, a, cfg)
    if confirmed.size:
        folded = np.isin(seed_group, confirmed)
        # each confirmed group's first seed and seed count, in the order of confirmed
        _, first, count = np.unique(seed_group[folded], return_index=True, return_counts=True)
        heads = np.flatnonzero(folded)[first]
        weight[folded] = 0
        pts[heads], weight[heads] = ends, count
        moving = np.flatnonzero(~folded)
        n_unconverged = int(count[unsettled].sum())
    dropped, moving, p, r = _descend(pts, moving, a, cfg, weight)
    passes, row_updates = passes + p, row_updates + r
    n_unconverged += int(weight[moving].sum())
    n_dropped = int(weight[dropped].sum())

    alive = np.flatnonzero(~dropped & (weight > 0))
    comp = _single_linkage(pts[alive], cfg.merge_tolerance)
    # the confirmed rows are never shifted here and carry seeds, so all are alive
    merged = heads.size - np.unique(comp[np.isin(alive, heads)]).size
    pts, weight = pts[alive], weight[alive]
    modes, counts = [], []
    # members of each component in ascending row order; the last split is empty
    by_comp = np.argsort(comp, kind="stable")
    for members in np.split(by_comp, np.cumsum(np.bincount(comp)))[:-1]:
        count = int(weight[members].sum())
        mean = weight[members] @ pts[members] / count
        norm = float(np.sqrt(mean @ mean))
        if norm < 1e-12:
            n_dropped += count
            continue
        modes.append(mean / norm)
        counts.append(count)
    # Components are numbered by their smallest row and rows are ordered by
    # their first seed, so a stable sort breaks count ties by the earliest
    # contributing seed.
    counts = np.array(counts, dtype=np.int64)
    order = np.argsort(-counts, kind="stable")
    modes = np.reshape(modes, (-1, x_points.shape[1]))[order]
    return ModeSearch(
        modes, counts[order], n_dropped, n_unconverged, passes, row_updates,
        capture_groups=0 if capture is None else len(capture.centres),
        unconfirmed_groups=tried - confirmed.size,
        capture_sweeps=0 if capture is None else capture.sweeps,
        merged_captures=merged,
    )


def assign_to_modes(
    x_points: np.ndarray, mask: BinaryMask, modes: np.ndarray, cfg: VmfConfig
) -> ClusterResult:
    """Assign every point to its angularly nearest mode and dissolve runts.

    x_points holds one row per mask-1 pixel in row-major order, as
    flatten_foreground returns them; the instance map has the mask's shape,
    label k+1 on the pixels of the k-th surviving mode and 0 off the mask.
    Clusters owning fewer than min_cluster_pixels pixels, or no pixel at
    all, are dissolved and their pixels reassigned to the nearest surviving
    mode; ties go to the lowest mode index. With no mode or no survivor at
    all, every pixel is left at 0.
    """
    if modes.ndim != 2:
        raise ValueError("modes must be an (M, D) matrix")
    pixels = np.flatnonzero(mask.values)
    if pixels.size != x_points.shape[0]:
        raise ValueError(
            f"{x_points.shape[0]} point rows for a mask that selects {pixels.size} pixels"
        )
    n_modes = modes.shape[0]
    labels = np.zeros(mask.values.shape, dtype=np.int64)
    keep = np.zeros(n_modes, dtype=bool)
    if n_modes:
        dots = x_points @ modes.T
        assign = np.argmax(dots, axis=1)
        keep = np.bincount(assign, minlength=n_modes) >= max(cfg.min_cluster_pixels, 1)
    if not keep.any():
        return ClusterResult(np.zeros((0, modes.shape[1])), LabelMap(labels))

    # A pixel whose nearest mode survives picks that same mode here too.
    survivors = np.flatnonzero(keep)
    labels.ravel()[pixels] = np.argmax(dots[:, survivors], axis=1) + 1
    return ClusterResult(modes[survivors], LabelMap(labels))


def cluster_field(
    emb: EmbeddingField,
    mask: BinaryMask,
    cfg: VmfConfig,
    lift: float = DiscriminativeConfig.delta_v,
    radius: float = DiscriminativeConfig.delta_d,
) -> tuple[ClusterResult, ModeSearch]:
    """flatten_foreground, _capture, mean_shift_modes, and assign_to_modes end to end.

    Takes raw embeddings: flatten_foreground lifts the mask-1 vectors by
    lift, the delta_v of the loss that made the field, and scales them to
    unit norm, so the modes have D+1 coordinates. The result depends on the
    field's scale, not only on its directions. The raw mask-1 vectors are
    captured at radius, the delta_d of the same loss, and the mode search
    shifts one row per confirmed capture group. Returns the ClusterResult,
    whose instance map labels cluster k as k+1, and the mode search it came
    from, whose seed and capture counters the result does not carry.
    """
    if not math.isfinite(radius) or radius <= 0:
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    x_points = flatten_foreground(emb, mask, lift)
    sel = mask.values.ravel().astype(bool)
    # A budget of one sweep per seed costs about one pass over every seed.
    budget = len(range(0, x_points.shape[0], cfg.seed_stride))
    capture = _capture(emb.values.reshape(-1, emb.dim)[sel], radius, lift, budget)
    search = mean_shift_modes(x_points, cfg, capture)
    return assign_to_modes(x_points, mask, search.modes, cfg), search
