"""Whole-package acceptance suite.

Eight numbered end-to-end checks, each validating one headline property of
the package at its stated tolerance: analytic gradients against central
finite differences, exact loss hand values, instance recovery through the
full optimize / normalize / cluster pipeline, mean-shift fixed points and
density ascent, deformable sampling reductions, offset fitting gains,
detection AP against an exhaustive-matching oracle, and bytewise
reproducibility of the command-line pipeline.

Every test prints one PASS/FAIL verdict line directly to the terminal
(capture is suspended for that single line), so a plain pytest run of this
file shows eight verdicts.
"""
import json
import time

import numpy as np
import pytest

from instance_embed import (
    Detection,
    DetectionSet,
    DiscriminativeConfig,
    EmbeddingField,
    KernelGrid,
    LabelMap,
    LAYOUTS,
    OptimizerConfig,
    SceneConfig,
    VmfConfig,
    centroid_pull_score,
    cluster_field,
    deformable_sample,
    detection_ap,
    discriminative_grad,
    discriminative_loss,
    finite_diff_grad,
    fit_offsets_to_centroid,
    gen_scene,
    instance_map50_labels,
    map_50_95,
    optimize_embeddings,
    pixel_accuracy,
    pixel_confusion,
    seg_iou,
    trace_receptive_field,
    vmf_shift_step,
)
from instance_embed.cli import main as cli_main

from _oracles import (
    disjoint_boxes,
    jitter_box,
    oracle_ap,
    oracle_correlate,
    oracle_kde,
    oracle_loss,
)


@pytest.fixture
def verdict(capfd):
    """Emit one uncaptured PASS/FAIL line per criterion."""

    def emit(number: int, label: str, ok: bool, detail: str) -> None:
        word = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[acceptance] criterion {number} ({label}): {word}  [{detail}]",
                  flush=True)

    return emit


# ---------------------------------------------------------------------------
# criterion 1: analytic gradient vs central finite differences


def _hinge_margin(vals: np.ndarray, lab: np.ndarray, cfg: DiscriminativeConfig) -> float:
    """Smallest distance of the configuration to any non-smooth point."""
    margins = []
    mus = []
    for ident in np.unique(lab):
        if ident == 0:
            continue
        pts = vals[lab == ident]
        mu = pts.mean(axis=0)
        mus.append(mu)
        margins.append(float(np.linalg.norm(mu)))
        for p in pts:
            margins.append(abs(float(np.linalg.norm(p - mu)) - cfg.delta_v))
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            gap = float(np.linalg.norm(mus[i] - mus[j]))
            margins.append(abs(gap - 2.0 * cfg.delta_d))
    return min(margins)


def test_gradient_matches_central_differences(verdict):
    """200 random small cases: max relative error < 1e-5 in under 30 s."""
    t0 = time.monotonic()
    cfg = DiscriminativeConfig()
    worst = 0.0
    for case in range(200):
        rng = np.random.default_rng(case)
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        dim = int(rng.integers(1, 5))
        count = int(rng.integers(1, 5))
        flat = rng.integers(0, count + 1, size=h * w)
        forced = rng.choice(h * w, size=count, replace=False)
        flat[forced] = np.arange(1, count + 1)
        lab = flat.reshape(h, w)
        for _ in range(50):
            vals = rng.normal(0.0, 2.0, size=(h, w, dim))
            if _hinge_margin(vals, lab, cfg) > 1e-3:
                break
        else:
            raise RuntimeError(f"case {case}: found no draw clear of hinge boundaries")
        emb = EmbeddingField(vals)
        labels = LabelMap(lab)
        analytic = discriminative_grad(emb, labels, cfg)
        numeric = finite_diff_grad(emb, labels, cfg, step=1e-5)
        rel = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
        worst = max(worst, float(rel))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    verdict(1, "analytic gradient vs central differences", ok,
            f"200 cases, max rel err {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 2: exact hand-worked loss values


def test_loss_hand_case_exact(verdict):
    """Two flat 1D instances with means 2 apart give (0, 1, 1, 2) exactly."""
    labels = LabelMap(np.array([[1, 1], [2, 2]]))
    emb = EmbeddingField(np.array([[[-1.0], [-1.0]], [[1.0], [1.0]]]))
    cfg = DiscriminativeConfig(alpha=1.0, beta=1.0, gamma=1.0)
    bd = discriminative_loss(emb, labels, cfg)
    got = (bd.l_var, bd.l_dist, bd.l_reg, bd.total)
    want = (0.0, 1.0, 1.0, 2.0)
    errs = [abs(g - w) for g, w in zip(got, want)]
    # independent scripted confirmation via the loop-based reference
    ref = oracle_loss(emb.values, labels.values, 1.0, 1.0, 1.0,
                      cfg.delta_v, cfg.delta_d)
    ref_errs = [abs(g - r) for g, r in zip(got, ref)]
    ok = max(errs) <= 1e-12 and max(ref_errs) <= 1e-12
    verdict(2, "loss hand case", ok,
            f"(l_var, l_dist, l_reg, total) = {got}, max err {max(errs):.1e}")
    assert max(errs) <= 1e-12
    assert max(ref_errs) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 3: optimize -> normalize -> cluster recovers the instances


PIPELINE_OPT = {"step_size": 40.0, "max_steps": 300, "loss_tolerance": 1e-3}
PIPELINE_VMF = VmfConfig(kappa=10.0, merge_tolerance=1.65, seed_stride=5)
PIPELINE_DIM = 8


def _mean_instance_iou(gt: np.ndarray, pred: np.ndarray, count: int,
                       clusters: int) -> float:
    ious = []
    for ident in range(1, count + 1):
        g = gt == ident
        best = 0.0
        for j in range(1, clusters + 1):
            p = pred == j
            inter = int(np.logical_and(g, p).sum())
            union = int(np.logical_or(g, p).sum())
            if union:
                best = max(best, inter / union)
        ious.append(best)
    return float(np.mean(ious)) if ious else 0.0


def test_pipeline_recovers_instances(verdict):
    """100 seeded 64x64 scenes across all layouts and 1..4 instances.

    The time gate reads this process's CPU time, so other processes that
    share the CPUs cannot fail it; the verdict line gives wall seconds.
    """
    t0, cpu0 = time.monotonic(), time.process_time()
    ok_recovery = 0
    ok_map50 = 0
    loss_cfg = DiscriminativeConfig()
    for i in range(100):
        count = 1 + i % 4
        layout = LAYOUTS[(i // 4) % len(LAYOUTS)]
        scene = gen_scene(SceneConfig(num_instances=count, layout=layout, seed=i))
        opt_cfg = OptimizerConfig(seed=i, **PIPELINE_OPT)
        trace = optimize_embeddings(scene.labels, PIPELINE_DIM, loss_cfg, opt_cfg)
        result, _ = cluster_field(trace.final, scene.drivable_mask, PIPELINE_VMF)
        mean_iou = _mean_instance_iou(scene.labels.values, result.instances.values,
                                      count, result.num_clusters)
        if result.num_clusters == count and mean_iou >= 0.95:
            ok_recovery += 1
        m50 = instance_map50_labels(result.instances, scene.labels)
        if m50 == 1.0:
            ok_map50 += 1
    elapsed, cpu = time.monotonic() - t0, time.process_time() - cpu0
    ok = ok_recovery >= 95 and ok_map50 >= 90 and cpu < 300.0
    verdict(3, "pipeline instance recovery", ok,
            f"count+IoU {ok_recovery}/100 (need 95), map50 {ok_map50}/100 "
            f"(need 90), {elapsed:.0f}s")
    assert ok_recovery >= 95
    assert ok_map50 >= 90
    assert cpu < 300.0


# ---------------------------------------------------------------------------
# criterion 4: mean-shift fixed points and density ascent


def test_mean_shift_fixed_points(verdict):
    """Fixed point exact, antipodal closed form to 1e-12, KDE never drops."""
    # single-direction data: the update returns that direction bit-exactly
    fixed_ok = True
    for dim, axis in ((2, 0), (3, 1), (5, 4)):
        e = np.zeros(dim)
        e[axis] = 1.0
        pts = np.tile(e, (7, 1))
        out = vmf_shift_step(pts, e.copy(), 10.0)
        fixed_ok = fixed_ok and bool(np.array_equal(out, e))

    # antipodal data: the update lands on +-u by the sign of the weighted
    # kernel masses, and the winner flips with the starting hemisphere
    anti_err = 0.0
    anti_ok = True
    u = np.array([1.0, 0.0])
    for theta, n_plus, n_minus, kappa in [
        (0.3, 5, 2, 4.0),
        (1.2, 5, 2, 4.0),
        (2.6, 5, 2, 4.0),
        (0.4, 2, 9, 7.0),
        (2.9, 9, 2, 7.0),
    ]:
        pts = np.concatenate([np.tile(u, (n_plus, 1)), np.tile(-u, (n_minus, 1))])
        x = np.array([np.cos(theta), np.sin(theta)])
        cos = float(np.cos(theta))
        m = max(cos, -cos)
        mass_plus = n_plus * np.exp(kappa * (cos - m))
        mass_minus = n_minus * np.exp(kappa * (-cos - m))
        want = u if mass_plus > mass_minus else -u
        got = vmf_shift_step(pts, x, kappa)
        anti_err = max(anti_err, float(np.max(np.abs(got - want))))
    anti_ok = anti_err <= 1e-12

    # planted bundles: the kernel density never decreases along any orbit
    worst_drop = 0.0
    iterations = 0
    for suite in range(5):
        rng = np.random.default_rng(4000 + suite)
        dim = 6
        q, _ = np.linalg.qr(rng.normal(size=(dim, 3)))
        chunks = []
        for center in q.T:
            bundle = center[None, :] + 0.08 * rng.normal(size=(40, dim))
            chunks.append(bundle / np.linalg.norm(bundle, axis=1, keepdims=True))
        pts = np.concatenate(chunks)
        kappa = 40.0
        for si in range(0, pts.shape[0], 4):
            x = pts[si].copy()
            dens = oracle_kde(pts, x, kappa)
            for _ in range(60):
                nxt = vmf_shift_step(pts, x, kappa)
                nd = oracle_kde(pts, nxt, kappa)
                worst_drop = min(worst_drop, nd - dens)
                iterations += 1
                if float(np.linalg.norm(nxt - x)) < 1e-10:
                    break
                x, dens = nxt, nd
    ascent_ok = worst_drop >= -1e-10

    ok = fixed_ok and anti_ok and ascent_ok
    verdict(4, "mean-shift fixed points", ok,
            f"fixed point exact {fixed_ok}, antipodal err {anti_err:.1e}, "
            f"worst density step {worst_drop:.1e} over {iterations} iterations")
    assert fixed_ok
    assert anti_ok
    assert ascent_ok


# ---------------------------------------------------------------------------
# criterion 5: zero offsets reduce to plain correlation; leaf counts


def test_zero_offset_equivalence(verdict):
    """50 random grids and kernels agree with direct correlation < 1e-12."""
    worst = 0.0
    for case in range(50):
        rng = np.random.default_rng(5000 + case)
        h = int(rng.integers(5, 15))
        w = int(rng.integers(5, 15))
        grid = rng.normal(size=(h, w))
        k = int(rng.choice([3, 5]))
        kernel = KernelGrid(k)
        weights = rng.normal(size=k * k)
        zeros = np.zeros((k * k, 2))
        for _ in range(4):
            cy = int(rng.integers(-1, h + 1))
            cx = int(rng.integers(-1, w + 1))
            got = deformable_sample(grid, kernel, zeros, weights, (cy, cx))
            want = oracle_correlate(grid, kernel.taps.astype(int), weights, (cy, cx))
            worst = max(worst, abs(got - want))

    counts_ok = True
    observed = []
    for k, levels in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2)):
        trace = trace_receptive_field([None] * levels, KernelGrid(k), (10, 10))
        n = trace.points.shape[0]
        observed.append(n)
        counts_ok = counts_ok and n == k ** (2 * levels)
    has_729 = 729 in observed

    ok = worst < 1e-12 and counts_ok and has_729
    verdict(5, "zero-offset equivalence", ok,
            f"max abs diff {worst:.1e}, leaf counts {observed}")
    assert worst < 1e-12
    assert counts_ok
    assert has_729


# ---------------------------------------------------------------------------
# criterion 6: fitted offsets beat the zero-offset baseline


def test_fitted_offsets_beat_baseline(verdict):
    """Strict score gain on at least 45 of 50 seeded boundary origins."""
    kernel = KernelGrid(3)
    wins = 0
    total = 0
    for s in range(10):
        scene = gen_scene(SceneConfig(num_instances=1 + s % 4,
                                      layout=LAYOUTS[s % 3], seed=200 + s))
        lab = scene.labels.values
        padded = np.pad(lab, 1, constant_values=0)
        fg = lab > 0
        has_bg_neighbor = np.zeros_like(fg)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                shifted = padded[1 + dy: 1 + dy + lab.shape[0],
                                 1 + dx: 1 + dx + lab.shape[1]]
                has_bg_neighbor |= shifted == 0
        boundary = np.argwhere(fg & has_bg_neighbor)
        rng = np.random.default_rng(900 + s)
        picks = boundary[rng.choice(boundary.shape[0], size=5, replace=False)]
        for oy, ox in picks:
            origin = (int(oy), int(ox))
            base = centroid_pull_score(
                trace_receptive_field([None, None], kernel, origin), scene.labels)
            fields = fit_offsets_to_centroid(scene.labels, origin, kernel,
                                             levels=2, steps=300, rate=0.2)
            fitted = centroid_pull_score(
                trace_receptive_field(fields, kernel, origin), scene.labels)
            total += 1
            if fitted > base:
                wins += 1
    ok = total == 50 and wins >= 45
    verdict(6, "fitted offsets vs zero baseline", ok,
            f"strict wins {wins}/{total} (need 45)")
    assert total == 50
    assert wins >= 45


# ---------------------------------------------------------------------------
# criterion 7: detection AP against an exhaustive-matching oracle


def test_detection_ap_matches_oracle(verdict):
    """500 random cases to 1e-12, the 0.6-IoU counting case, seg hand cases."""
    thresholds = [0.5, 0.6, 0.75, 0.9]
    worst = 0.0
    for case in range(500):
        rng = np.random.default_rng(3000 + case)
        n_img = int(rng.integers(1, 4))
        preds_pkg, gts_pkg, preds_ref, gts_ref = [], [], [], []
        for img in range(n_img):
            n_gt = int(rng.integers(0, 5))
            boxes = disjoint_boxes(rng, n_gt, span=60.0) if n_gt else []
            gts_pkg.append(DetectionSet(
                tuple(Detection(b, 0) for b in boxes), image_id=img))
            gts_ref.append((img, [(b, 0, None) for b in boxes]))
            scored = []
            for b in boxes:
                if rng.random() < 0.8:
                    scored.append((jitter_box(rng, b, 1.5), float(rng.random())))
            for _ in range(int(rng.integers(0, 3))):
                x0 = float(rng.uniform(0, 50))
                y0 = float(rng.uniform(0, 50))
                spurious = (x0, y0, x0 + float(rng.uniform(3, 12)),
                            y0 + float(rng.uniform(3, 12)))
                scored.append((spurious, float(rng.random())))
            preds_pkg.append(DetectionSet(
                tuple(Detection(b, 0, sc) for b, sc in scored), image_id=img))
            preds_ref.append((img, [(b, 0, sc) for b, sc in scored]))
        thr = thresholds[case % len(thresholds)]
        got = detection_ap(preds_pkg, gts_pkg, 0, thr)
        want = oracle_ap(preds_ref, gts_ref, 0, thr)
        worst = max(worst, abs(got - want))
    oracle_ok = worst <= 1e-12

    # one box pair at IoU exactly 0.6 passes 3 of the 10 thresholds
    gt = [DetectionSet((Detection((0.0, 0.0, 5.0, 4.0), 0),),)]
    pred = [DetectionSet((Detection((0.0, 1.0, 5.0, 5.0), 0, 0.9),),)]
    counting = map_50_95(pred, gt, [0])
    counting_ok = counting == 0.30

    counts = pixel_confusion(
        pred=_mask([[1, 1], [0, 0]]), gt=_mask([[1, 0], [1, 0]]))
    seg_ok = (abs(seg_iou(counts) - 1.0 / 3.0) <= 1e-12
              and abs(pixel_accuracy(counts) - 0.5) <= 1e-12)

    ok = oracle_ok and counting_ok and seg_ok
    verdict(7, "metric oracles", ok,
            f"500 cases max diff {worst:.1e}, threshold-counting map "
            f"{counting}, seg hand cases {seg_ok}")
    assert oracle_ok
    assert counting_ok
    assert seg_ok


def _mask(rows):
    from instance_embed import BinaryMask

    return BinaryMask(np.array(rows, dtype=bool))


# ---------------------------------------------------------------------------
# criterion 8: the command-line pipeline is bytewise reproducible


def test_pipeline_determinism(verdict, tmp_path):
    """Two runs with one config produce byte-identical output trees."""
    cfg = {
        "scene": {"num_instances": 2, "layout": "curved_bands", "seed": 11},
        "optimizer": {"max_steps": 250, "step_size": 40.0, "seed": 11},
        "cluster": {"merge_tolerance": 1.65, "seed_stride": 5},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    rc_a = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(run_a)])
    rc_b = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(run_b)])
    names_a = sorted(p.name for p in run_a.iterdir())
    names_b = sorted(p.name for p in run_b.iterdir())
    same_names = names_a == names_b
    same_bytes = same_names and all(
        (run_a / name).read_bytes() == (run_b / name).read_bytes()
        for name in names_a
    )
    ok = rc_a == 0 and rc_b == 0 and same_bytes
    verdict(8, "pipeline determinism", ok,
            f"{len(names_a)} files, byte-identical {same_bytes}")
    assert rc_a == 0 and rc_b == 0
    assert same_names
    assert same_bytes
