"""Independent reference implementations used to check the package.

Everything here is written with plain Python loops and basic numpy, sharing
no helper code with the package under test. Slow on purpose: these exist to
be obviously correct, not fast.
"""
from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# embedding loss
# ---------------------------------------------------------------------------

def oracle_loss(emb: np.ndarray, labels: np.ndarray, alpha, beta, gamma, dv, dd):
    """(l_var, l_dist, l_reg, total) computed with explicit loops."""
    ids = sorted(int(v) for v in np.unique(labels) if v != 0)
    c = len(ids)
    if c == 0:
        raise ValueError("no instances")
    means = {}
    for ident in ids:
        pts = [emb[y, x] for y in range(labels.shape[0])
               for x in range(labels.shape[1]) if labels[y, x] == ident]
        means[ident] = sum(pts) / len(pts)

    l_var = 0.0
    for ident in ids:
        pts = [emb[y, x] for y in range(labels.shape[0])
               for x in range(labels.shape[1]) if labels[y, x] == ident]
        acc = 0.0
        for p in pts:
            dist = math.sqrt(float(np.sum((means[ident] - p) ** 2)))
            acc += max(dist - dv, 0.0) ** 2
        l_var += acc / len(pts)
    l_var /= c

    l_dist = 0.0
    if c > 1:
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                sep = math.sqrt(float(np.sum((means[a] - means[b]) ** 2)))
                l_dist += max(2.0 * dd - sep, 0.0) ** 2
        l_dist /= c * (c - 1)

    l_reg = sum(math.sqrt(float(np.sum(means[i] ** 2))) for i in ids) / c
    total = alpha * l_var + beta * l_dist + gamma * l_reg
    return l_var, l_dist, l_reg, total


def oracle_grad(emb: np.ndarray, labels: np.ndarray, alpha, beta, gamma, dv, dd,
                step: float = 1e-6) -> np.ndarray:
    """Central finite differences of oracle_loss over foreground pixels."""
    grad = np.zeros_like(emb, dtype=np.float64)
    h, w, d = emb.shape
    for y in range(h):
        for x in range(w):
            if labels[y, x] == 0:
                continue
            for k in range(d):
                lo = emb.copy()
                hi = emb.copy()
                lo[y, x, k] -= step
                hi[y, x, k] += step
                f_lo = oracle_loss(lo, labels, alpha, beta, gamma, dv, dd)[3]
                f_hi = oracle_loss(hi, labels, alpha, beta, gamma, dv, dd)[3]
                grad[y, x, k] = (f_hi - f_lo) / (2.0 * step)
    return grad


def oracle_grad_closed_form(emb: np.ndarray, labels: np.ndarray, alpha, beta, gamma,
                            dv, dd) -> np.ndarray:
    """The loss gradient from its three closed-form terms, one pixel at a time.

    For pixel k of instance a (n_a pixels, C instances), d_k = mu_a - x_k and
    hd_k = [|d_k| - dv]+ * d_k/|d_k|:
      pull  2*alpha/(C*n_a) * (sum_{i in a} hd_i / n_a - hd_k)
      push  -4*beta/(C*(C-1)*n_a) * sum_{b != a} [2*dd - s_ab]+ * (mu_a - mu_b)/s_ab
      reg   gamma * mu_a/(C*n_a*|mu_a|)
    Inactive hinges, coincident means (s_ab = 0) and mu_a = 0 contribute zero.
    """
    ids = sorted(int(v) for v in np.unique(labels) if v != 0)
    c = len(ids)
    pixels = {i: [(y, x) for y in range(labels.shape[0]) for x in range(labels.shape[1])
                  if labels[y, x] == i] for i in ids}
    means = {i: sum(emb[y, x] for y, x in pixels[i]) / len(pixels[i]) for i in ids}

    def hd(ident, y, x):
        d = means[ident] - emb[y, x]
        dist = math.sqrt(float(np.sum(d * d)))
        if dist <= dv:
            return np.zeros_like(d)
        return (dist - dv) * d / dist

    grad = np.zeros_like(emb, dtype=np.float64)
    for a in ids:
        n = len(pixels[a])
        s_a = sum(hd(a, y, x) for y, x in pixels[a])
        push = np.zeros(emb.shape[2])
        for b in ids:
            if b == a:
                continue
            e = means[a] - means[b]
            sep = math.sqrt(float(np.sum(e * e)))
            if 0.0 < sep < 2.0 * dd:
                push += (2.0 * dd - sep) * e / sep
        norm = math.sqrt(float(np.sum(means[a] * means[a])))
        for y, x in pixels[a]:
            g = 2.0 * alpha / (c * n) * (s_a / n - hd(a, y, x))
            if c > 1:
                g = g - 4.0 * beta / (c * (c - 1) * n) * push
            if norm > 0.0:
                g = g + gamma * means[a] / (c * n * norm)
            grad[y, x] = g
    return grad


# ---------------------------------------------------------------------------
# detection average precision
# ---------------------------------------------------------------------------

def oracle_box_iou(a, b) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def _max_matching(adj: list) -> int:
    """Maximum bipartite matching size via augmenting paths.

    adj[i] lists the right-side vertices reachable from left vertex i.
    """
    match_right = {}

    def try_augment(i, seen):
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_right or try_augment(match_right[j], seen):
                match_right[j] = i
                return True
        return False

    size = 0
    for i in range(len(adj)):
        if try_augment(i, set()):
            size += 1
    return size


def oracle_ap(preds, gts, class_id: int, thr: float) -> float:
    """AP via per-prefix maximum matching and all-point interpolation.

    preds and gts are sequences of (image_id, [(box, class_id, score), ...]).
    Unlike the package's greedy matcher this solves each prefix's matching
    exactly, so agreement is only guaranteed when ground-truth boxes within
    an image are pairwise disjoint (greedy is then provably optimal).
    """
    gt_list = []
    for image_id, dets in gts:
        for box, cls, _ in dets:
            if cls == class_id:
                gt_list.append((image_id, box))
    n_gt = len(gt_list)

    pred_list = []
    for image_id, dets in preds:
        for box, cls, score in dets:
            if cls == class_id:
                pred_list.append((-score, len(pred_list), image_id, box))
    pred_list.sort(key=lambda t: (t[0], t[1]))

    if not pred_list:
        return 1.0 if n_gt == 0 else 0.0
    if n_gt == 0:
        return 0.0

    adj_full = []
    for _, _, image_id, box in pred_list:
        row = [j for j, (gt_img, gt_box) in enumerate(gt_list)
               if gt_img == image_id and oracle_box_iou(box, gt_box) >= thr]
        adj_full.append(row)

    precisions = []
    recalls = []
    for k in range(1, len(pred_list) + 1):
        tp = _max_matching(adj_full[:k])
        precisions.append(tp / k)
        recalls.append(tp / n_gt)

    ap = 0.0
    prev_recall = 0.0
    for k in range(len(pred_list)):
        if recalls[k] > prev_recall:
            envelope = max(precisions[k:])
            ap += (recalls[k] - prev_recall) * envelope
            prev_recall = recalls[k]
    return ap


def oracle_recall(preds, gts, classes, iou_thr: float, score_thr: float) -> float:
    """Recall via maximum matching of the predictions scored score_thr and up.

    Same input form and the same disjoint-ground-truth caveat as oracle_ap.
    True positives and ground-truth boxes are pooled over the classes.
    """
    tp = 0
    n_gt = 0
    for cls in classes:
        gt_list = [(image_id, box) for image_id, dets in gts
                   for box, c, _ in dets if c == cls]
        adj = [
            [j for j, (gt_img, gt_box) in enumerate(gt_list)
             if gt_img == image_id and oracle_box_iou(box, gt_box) >= iou_thr]
            for image_id, dets in preds
            for box, c, score in dets
            if c == cls and score >= score_thr
        ]
        tp += _max_matching(adj)
        n_gt += len(gt_list)
    return tp / n_gt


def disjoint_boxes(rng: np.random.Generator, count: int, span: float = 100.0,
                   min_side: float = 4.0, max_side: float = 16.0, gap: float = 2.0):
    """Axis-aligned boxes that are pairwise separated by at least gap."""
    boxes = []
    attempts = 0
    while len(boxes) < count:
        attempts += 1
        if attempts > 5000:
            raise RuntimeError("could not place disjoint boxes")
        wdt = float(rng.uniform(min_side, max_side))
        hgt = float(rng.uniform(min_side, max_side))
        x0 = float(rng.uniform(0, span - wdt))
        y0 = float(rng.uniform(0, span - hgt))
        cand = (x0, y0, x0 + wdt, y0 + hgt)
        ok = True
        for b in boxes:
            if not (cand[2] + gap <= b[0] or b[2] + gap <= cand[0]
                    or cand[3] + gap <= b[1] or b[3] + gap <= cand[1]):
                ok = False
                break
        if ok:
            boxes.append(cand)
    return boxes


def jitter_box(rng: np.random.Generator, box, scale: float):
    """Shift and resize a box by up to scale in each coordinate."""
    dx0, dy0, dx1, dy1 = rng.uniform(-scale, scale, size=4)
    x0, y0, x1, y1 = box[0] + dx0, box[1] + dy0, box[2] + dx1, box[3] + dy1
    if x1 <= x0:
        x1 = x0 + 0.5
    if y1 <= y0:
        y1 = y0 + 0.5
    return (float(x0), float(y0), float(x1), float(y1))


# ---------------------------------------------------------------------------
# instance mask AP at 0.5
# ---------------------------------------------------------------------------

def oracle_instance_map50(pred: np.ndarray, gt: np.ndarray) -> float:
    """Greedy size-ordered mask matching at IoU 0.5, written with loops."""
    pred_ids = sorted(int(v) for v in np.unique(pred) if v != 0)
    gt_ids = sorted(int(v) for v in np.unique(gt) if v != 0)
    if not gt_ids:
        return 1.0 if not pred_ids else 0.0
    if not pred_ids:
        return 0.0

    order = sorted(pred_ids, key=lambda i: (-int(np.sum(pred == i)), pred_ids.index(i)))
    taken = set()
    flags = []
    for pid in order:
        pmask = pred == pid
        best_iou = 0.0
        best_gt = None
        for gid in gt_ids:
            if gid in taken:
                continue
            gmask = gt == gid
            inter = int(np.sum(pmask & gmask))
            union = int(np.sum(pmask | gmask))
            iou = inter / union if union else 0.0
            if iou > best_iou:
                best_iou = iou
                best_gt = gid
        if best_gt is not None and best_iou >= 0.5:
            taken.add(best_gt)
            flags.append(True)
        else:
            flags.append(False)

    n_gt = len(gt_ids)
    ap = 0.0
    prev_recall = 0.0
    tp = 0
    precisions = []
    recalls = []
    for k, flag in enumerate(flags, start=1):
        tp += int(flag)
        precisions.append(tp / k)
        recalls.append(tp / n_gt)
    for k in range(len(flags)):
        if recalls[k] > prev_recall:
            ap += (recalls[k] - prev_recall) * max(precisions[k:])
            prev_recall = recalls[k]
    return ap


# ---------------------------------------------------------------------------
# mean shift on the sphere
# ---------------------------------------------------------------------------

def oracle_vmf_step(x_points: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """One kernel-weighted mean shift step, loop form with max subtraction."""
    dots = [float(np.dot(p, x)) for p in x_points]
    peak = max(dots)
    weights = [math.exp(kappa * (d - peak)) for d in dots]
    num = sum(w * p for w, p in zip(weights, x_points))
    norm = math.sqrt(float(np.sum(num ** 2)))
    return num / norm


def oracle_kde(x_points: np.ndarray, x: np.ndarray, kappa: float) -> float:
    """Unnormalized spherical kernel density at x.

    exp(kappa*(dot - 1)) never overflows for unit vectors and differs from
    exp(kappa*dot) by one constant factor, so comparisons across locations
    are unaffected.
    """
    dots = [float(np.dot(p, x)) for p in x_points]
    return sum(math.exp(kappa * (d - 1.0)) for d in dots)


def oracle_single_linkage(pts: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage component of each row, numbered by smallest row.

    Dense form: the full angle matrix, then a depth-first search from each
    unlabelled row in ascending order. Memory is quadratic in the rows.
    """
    adj = np.arccos(np.clip(pts @ pts.T, -1.0, 1.0)) <= tol
    comp = np.full(pts.shape[0], -1, dtype=np.int64)
    n_comp = 0
    for root in range(pts.shape[0]):
        if comp[root] >= 0:
            continue
        stack = [root]
        comp[root] = n_comp
        while stack:
            node = stack.pop()
            for nb in np.flatnonzero(adj[node]):
                if comp[nb] < 0:
                    comp[nb] = n_comp
                    stack.append(nb)
        n_comp += 1
    return comp


def oracle_mean_shift(x_points: np.ndarray, kappa: float, max_iters: int,
                      shift_tolerance: float, merge_tolerance: float, seed_stride: int):
    """Uncollapsed mean shift: (modes, basin_seeds, dropped, unconverged).

    Every strided seed is shifted on its own, in blocks of 64 run to
    convergence one after the other, and the endpoints are merged by
    oracle_single_linkage into plain means, sorted by descending basin seed
    count, ties by earliest seed.
    """
    seeds = x_points[::seed_stride]
    ends, dropped, moving = [], [], []
    for start in range(0, seeds.shape[0], 64):
        pts = seeds[start:start + 64].copy()
        gone = np.zeros(pts.shape[0], dtype=bool)
        active = np.ones(pts.shape[0], dtype=bool)
        for _ in range(max_iters):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            cur = pts[idx]
            w = cur @ x_points.T
            w -= w.max(axis=1, keepdims=True)
            w *= kappa
            np.exp(w, out=w)
            s = w @ x_points
            norms = np.sqrt(np.einsum("ij,ij->i", s, s))
            bad = norms < 1e-12 * w.sum(axis=1)
            new = s / np.where(bad, 1.0, norms)[:, None]
            moved = np.arccos(np.clip(np.einsum("ij,ij->i", new, cur), -1.0, 1.0))
            pts[idx[~bad]] = new[~bad]
            gone[idx[bad]] = True
            active[idx] = ~(bad | (moved < shift_tolerance))
        ends.append(pts)
        dropped.append(gone)
        moving.append(active)
    ends = np.concatenate(ends)
    dropped = np.concatenate(dropped)
    n_unconverged = int(np.concatenate(moving).sum())
    n_dropped = int(dropped.sum())
    alive = np.flatnonzero(~dropped)
    found = []  # (count, first seed, mode)
    if alive.size:
        comp = oracle_single_linkage(ends[alive], merge_tolerance)
        for c in range(comp.max() + 1):
            members = alive[comp == c]
            mean = ends[members].mean(axis=0)
            norm = math.sqrt(float(mean @ mean))
            if norm < 1e-12:
                n_dropped += members.size
                continue
            found.append((members.size, int(members[0]), mean / norm))
    found.sort(key=lambda f: (-f[0], f[1]))
    modes = np.array([f[2] for f in found]).reshape(len(found), x_points.shape[1])
    basin = np.array([f[0] for f in found], dtype=np.int64)
    return modes, basin, n_dropped, n_unconverged


# ---------------------------------------------------------------------------
# deformable sampling
# ---------------------------------------------------------------------------

def oracle_bilinear(grid: np.ndarray, y: float, x: float) -> float:
    """Four-corner interpolation with zeros outside the grid, loop form."""
    h, w = grid.shape
    y0 = math.floor(y)
    x0 = math.floor(x)
    total = 0.0
    for yy, wy in ((y0, 1.0 - (y - y0)), (y0 + 1, y - y0)):
        for xx, wx in ((x0, 1.0 - (x - x0)), (x0 + 1, x - x0)):
            if 0 <= yy < h and 0 <= xx < w:
                total += wy * wx * float(grid[yy, xx])
    return total


def oracle_correlate(grid: np.ndarray, taps, weights, center) -> float:
    """Integer-tap correlation at one pixel, zero padded."""
    h, w = grid.shape
    total = 0.0
    for (dy, dx), wt in zip(taps, weights):
        yy = center[0] + dy
        xx = center[1] + dx
        if 0 <= yy < h and 0 <= xx < w:
            total += wt * float(grid[yy, xx])
    return total
