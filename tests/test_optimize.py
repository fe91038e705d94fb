"""Gradient descent driver."""
import math

import numpy as np
import pytest

from instance_embed import (
    LAYOUTS,
    BinaryMask,
    DiscriminativeConfig,
    EmbeddingField,
    EmptyInstance,
    LabelMap,
    NonFiniteLoss,
    OptimizerConfig,
    SceneConfig,
    VmfConfig,
    cluster_field,
    discriminative_grad,
    discriminative_loss,
    flatten_foreground,
    gen_scene,
    optimize_embeddings,
)
from _oracles import oracle_descent, oracle_grad_closed_form, oracle_loop_descent


def _two_band_labels(h=16, w=16):
    lab = np.zeros((h, w), dtype=np.int64)
    lab[2:7, 2:14] = 1
    lab[9:14, 2:14] = 2
    return LabelMap(lab)


def _large_bands():
    # two 40x60 bands: C*n_min = 2*2400 = 4800 > 4096, a step scale of 75/64
    lab = np.zeros((90, 64), dtype=np.int64)
    lab[2:42, 2:62] = 1
    lab[48:88, 2:62] = 2
    return LabelMap(lab)


def _speck_on_large_canvas():
    # 128x128 with one 3-pixel instance: C*n_min = 3 <= 4096, so no scaling
    lab = np.zeros((128, 128), dtype=np.int64)
    lab[60, 70:73] = 1
    return LabelMap(lab)


class TestDeterminism:
    def test_same_seed_same_floats(self):
        labels = _two_band_labels()
        loss_cfg = DiscriminativeConfig()
        opt = OptimizerConfig(step_size=10.0, max_steps=20, seed=7)
        t1 = optimize_embeddings(labels, 4, loss_cfg, opt)
        t2 = optimize_embeddings(labels, 4, loss_cfg, opt)
        np.testing.assert_array_equal(t1.final.values, t2.final.values)
        assert [b.total for b in t1.breakdowns] == [b.total for b in t2.breakdowns]

    def test_different_seed_different_field(self):
        labels = _two_band_labels()
        loss_cfg = DiscriminativeConfig()
        t1 = optimize_embeddings(labels, 4, loss_cfg, OptimizerConfig(max_steps=1, seed=0))
        t2 = optimize_embeddings(labels, 4, loss_cfg, OptimizerConfig(max_steps=1, seed=1))
        assert not np.array_equal(t1.final.values, t2.final.values)


class TestDescent:
    def test_small_steps_mostly_decrease(self):
        labels = _two_band_labels()
        trace = optimize_embeddings(
            labels, 4, DiscriminativeConfig(),
            OptimizerConfig(step_size=1e-3, max_steps=200, seed=3),
        )
        totals = [b.total for b in trace.breakdowns]
        drops = sum(1 for a, b in zip(totals, totals[1:]) if b < a)
        assert drops >= 0.95 * (len(totals) - 1)

    def test_converges_to_saturated_hinges(self):
        labels = _two_band_labels()
        loss_cfg = DiscriminativeConfig()
        trace = optimize_embeddings(
            labels, 8, loss_cfg, OptimizerConfig(step_size=40.0, max_steps=400, seed=0)
        )
        last = trace.breakdowns[-1]
        assert loss_cfg.alpha * last.l_var + loss_cfg.beta * last.l_dist <= 1e-3

    def test_trace_entries_match_recomputation(self):
        labels = _two_band_labels(8, 8)
        loss_cfg = DiscriminativeConfig()
        trace = optimize_embeddings(
            labels, 3, loss_cfg, OptimizerConfig(step_size=5.0, max_steps=10, seed=2)
        )
        recomputed = discriminative_loss(trace.final, labels, loss_cfg)
        assert trace.breakdowns[-1].total == pytest.approx(recomputed.total, rel=1e-12)

    def test_means_follow_plain_descent(self):
        # x <- x - step * grad(x), with step = step_size * max(1, C*n_min/4096),
        # through the public gradient: the pull rows of each instance sum to
        # zero, so moving the rows by the pull's Newton step instead leaves
        # every instance mean on this path. At the default tolerance the
        # pull stops moving the 90x64 two-band map's rows once it is met.
        loss_cfg = DiscriminativeConfig()
        d = 3
        cases = [
            (_two_band_labels(8, 8), 1.0),
            (_large_bands(), 4800 / 4096),
            (_speck_on_large_canvas(), 1.0),
        ]
        for tol, max_steps in [(0.0, 12), (OptimizerConfig().loss_tolerance, 40)]:
            opt = OptimizerConfig(step_size=5.0, max_steps=max_steps, loss_tolerance=tol, seed=4)
            for labels, scale in cases:
                self._check_means_follow_plain_descent(labels, scale, d, loss_cfg, opt)

    @staticmethod
    def _check_means_follow_plain_descent(labels, scale, d, loss_cfg, opt):
        trace = optimize_embeddings(labels, d, loss_cfg, opt)
        step = opt.step_size * scale
        assert trace.step_size == step
        if opt.loss_tolerance == 0.0:
            assert trace.pixel_steps == trace.steps_taken == opt.max_steps
        elif labels.values.max() > 1:
            assert 0 < trace.pixel_steps < trace.steps_taken
        x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(labels.height, labels.width, d))
        for _ in range(trace.steps_taken):
            x = x - step * discriminative_grad(EmbeddingField(x), labels, loss_cfg)
        for ident in range(1, int(labels.values.max()) + 1):
            inside = labels.values == ident
            np.testing.assert_allclose(
                trace.final.values[inside].mean(axis=0), x[inside].mean(axis=0),
                rtol=0, atol=1e-12,
            )
        background = labels.values == 0
        np.testing.assert_array_equal(trace.final.values[background], x[background])

    @pytest.mark.parametrize("alpha", [1.0, 0.0])
    def test_pull_steps_keep_instance_means(self, alpha):
        # with no push or regularizer the means stay put, so only the pull
        # moves the rows, alpha 0 included; each mean, summed exactly, moves
        # by at most 1e-15 of its length (1.7e-16 measured)
        labels = _two_band_labels()
        loss_cfg = DiscriminativeConfig(alpha=alpha, beta=0.0, gamma=0.0, delta_v=0.1)
        opt = OptimizerConfig(max_steps=5, loss_tolerance=0.0, seed=3)
        trace = optimize_embeddings(labels, 4, loss_cfg, opt)
        assert trace.pixel_steps == trace.steps_taken == 5
        x = np.random.default_rng(3).uniform(-1.0, 1.0, size=(16, 16, 4))
        for ident in (1, 2):
            inside = labels.values == ident
            before, after = x[inside], trace.final.values[inside]
            assert np.abs(after - before).max() > 0.1
            mean = np.array([math.fsum(b) for b in before.T]) / inside.sum()
            drift = np.array([math.fsum(a) for a in after.T]) / inside.sum() - mean
            assert np.linalg.norm(drift) <= 1e-15 * np.linalg.norm(mean)

    @pytest.mark.parametrize("labels", [_two_band_labels(8, 8), _two_band_labels(10, 9)])
    def test_one_step_matches_loop_oracle(self, labels):
        # one update is x - step * (the closed-form gradient with every
        # own-pull coefficient set to 1/step)
        loss_cfg = DiscriminativeConfig()
        opt = OptimizerConfig(step_size=5.0, max_steps=1, loss_tolerance=0.0, seed=6)
        d = 3
        trace = optimize_embeddings(labels, d, loss_cfg, opt)
        x = np.random.default_rng(6).uniform(-1.0, 1.0, size=(labels.height, labels.width, d))
        direction = oracle_grad_closed_form(
            x, labels.values, loss_cfg.alpha, loss_cfg.beta, loss_cfg.gamma,
            loss_cfg.delta_v, loss_cfg.delta_d, pull=1.0 / opt.step_size,
        )
        np.testing.assert_allclose(
            trace.final.values, x - opt.step_size * direction, rtol=0, atol=1e-12
        )


class TestStopping:
    def test_zero_steps_returns_initialization(self):
        labels = _two_band_labels(8, 8)
        trace = optimize_embeddings(
            labels, 3, DiscriminativeConfig(), OptimizerConfig(max_steps=0, seed=5)
        )
        assert trace.steps_taken == 0
        assert len(trace.breakdowns) == 1  # the initial evaluation only
        rng = np.random.default_rng(5)
        want = rng.uniform(-1.0, 1.0, size=(8, 8, 3))
        np.testing.assert_allclose(trace.final.values, want, rtol=0, atol=0)

    def test_stop_at_step_zero_returns_initialization(self):
        # two one-pixel instances further apart than 2*delta_d meet the
        # tolerance before any step, so neither the means nor the rows move
        lab = np.zeros((4, 4), dtype=np.int64)
        lab[1, 2] = 1
        lab[3, 0] = 2
        trace = optimize_embeddings(
            LabelMap(lab), 3, DiscriminativeConfig(delta_d=0.01),
            OptimizerConfig(loss_tolerance=1e-3, seed=5),
        )
        assert (trace.steps_taken, trace.pixel_steps, trace.stop_reason) == (0, 0, "loss_tolerance")
        want = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 4, 3))
        np.testing.assert_array_equal(trace.final.values, want)

    def test_tolerance_stops_early(self):
        labels = _two_band_labels()
        trace = optimize_embeddings(
            labels, 8, DiscriminativeConfig(),
            OptimizerConfig(step_size=40.0, max_steps=600, loss_tolerance=0.05, seed=0),
        )
        assert trace.steps_taken < 600
        assert trace.breakdowns[-1].total <= 0.05

    def test_tolerance_compares_hinge_part_not_total(self):
        # gamma*l_reg keeps the total above 1e-3 on two separated bands
        labels = _two_band_labels()
        loss_cfg = DiscriminativeConfig()
        tol = 1e-3
        trace = optimize_embeddings(
            labels, 8, loss_cfg,
            OptimizerConfig(step_size=40.0, max_steps=600, loss_tolerance=tol, seed=0),
        )
        hinges = [loss_cfg.alpha * b.l_var + loss_cfg.beta * b.l_dist for b in trace.breakdowns]
        assert trace.stop_reason == "loss_tolerance"
        assert trace.steps_taken < 600
        assert all(b.total > tol for b in trace.breakdowns)
        assert hinges[-1] <= tol
        assert all(h > tol for h in hinges[:-1])  # stops at the first step that meets it

    @pytest.mark.parametrize(
        "tol, steps, reason", [(1e-3, 0, "loss_tolerance"), (0.0, 7, "max_steps")]
    )
    def test_one_pixel_instance_has_zero_hinges(self, tol, steps, reason):
        lab = np.zeros((4, 4), dtype=np.int64)
        lab[1, 2] = 1
        trace = optimize_embeddings(
            LabelMap(lab), 3, DiscriminativeConfig(),
            OptimizerConfig(max_steps=7, loss_tolerance=tol, seed=1),
        )
        assert all(b.l_var == b.l_dist == 0.0 for b in trace.breakdowns)
        assert trace.steps_taken == steps
        assert trace.stop_reason == reason

    def test_final_grad_norm_is_gradient_at_returned_field(self):
        # two steps leave pull hinges active, where the descent direction
        # is not the gradient
        labels = _two_band_labels(8, 8)
        loss_cfg = DiscriminativeConfig()
        trace = optimize_embeddings(
            labels, 3, loss_cfg,
            OptimizerConfig(step_size=5.0, max_steps=2, loss_tolerance=0.0, seed=2),
        )
        want = np.linalg.norm(discriminative_grad(trace.final, labels, loss_cfg))
        assert trace.stop_reason == "max_steps"
        assert want > 0.0
        assert trace.final_grad_norm == pytest.approx(want, rel=1e-15)

    def test_huge_step_raises_nonfinite(self):
        labels = _two_band_labels()
        with pytest.raises(NonFiniteLoss):
            optimize_embeddings(
                labels, 4, DiscriminativeConfig(),
                OptimizerConfig(step_size=1e300, max_steps=600, seed=0),
            )

    @pytest.mark.parametrize("tol", [0.0, OptimizerConfig().loss_tolerance])
    @pytest.mark.parametrize("step_size", [1e300, 1.7e308])
    def test_both_phases_raise_nonfinite_like_the_oracle(self, tol, step_size):
        # two one-pixel instances: every pull is met from the start, so at
        # either tolerance no step moves the rows and only the means step,
        # where oracle_descent steps every pixel. 1e300 overflows the loss,
        # 1.7e308 the embeddings.
        lab = np.zeros((4, 4), dtype=np.int64)
        lab[1, 2] = 1
        lab[3, 0] = 2
        loss_cfg = DiscriminativeConfig()
        finite = optimize_embeddings(
            LabelMap(lab), 4, loss_cfg, OptimizerConfig(max_steps=3, loss_tolerance=tol)
        )
        assert finite.pixel_steps == 0
        with pytest.raises(NonFiniteLoss) as err:
            optimize_embeddings(
                LabelMap(lab), 4, loss_cfg, OptimizerConfig(step_size=step_size, loss_tolerance=tol)
            )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError) as want:
            oracle_descent(lab, 4, *_loss_args(loss_cfg), step_size, 600, tol, 0)
        assert str(err.value) == str(want.value)
        assert str(err.value).startswith("loss" if step_size == 1e300 else "embeddings")

    def test_overflowing_means_raise_nonfinite_without_warning(self):
        # the suite turns a RuntimeWarning into an error, so an overflow in
        # the push and regularizer table would raise that instead
        scene = gen_scene(SceneConfig())
        with pytest.raises(NonFiniteLoss, match="loss diverged after 1 steps"):
            optimize_embeddings(scene.labels, 8, DiscriminativeConfig(),
                                OptimizerConfig(step_size=1e308))

    def test_large_step_stays_finite_and_recovers_instances(self):
        # the pull runs at a fixed rate whatever step_size is, so a huge step
        # only throws the two means far apart
        labels = _two_band_labels()
        trace = optimize_embeddings(
            labels, 4, DiscriminativeConfig(),
            OptimizerConfig(step_size=1e6, max_steps=600, seed=0),
        )
        assert trace.stop_reason == "loss_tolerance"
        assert np.all(np.isfinite(trace.final.values))
        mask = BinaryMask((labels.values > 0).astype(np.uint8))
        result, _ = cluster_field(trace.final, mask, VmfConfig())
        got = result.instances.values
        assert result.num_clusters == 2
        for ident in (1, 2):
            assert np.unique(got[labels.values == ident]).size == 1
        assert got[labels.values == 1][0] != got[labels.values == 2][0]

    def test_empty_labels_raise(self):
        labels = LabelMap(np.zeros((4, 4), dtype=np.int64))
        with pytest.raises(EmptyInstance):
            optimize_embeddings(labels, 3, DiscriminativeConfig(), OptimizerConfig())

    def test_gap_id_raises_named_instance(self):
        lab = np.zeros((4, 4), dtype=np.int64)
        lab[0, :] = 1
        lab[2, :] = 3
        with pytest.raises(EmptyInstance) as err:
            optimize_embeddings(LabelMap(lab), 3, DiscriminativeConfig(), OptimizerConfig())
        assert "instance ID 2" in str(err.value)


def _loss_args(cfg):
    return cfg.alpha, cfg.beta, cfg.gamma, cfg.delta_v, cfg.delta_d


class TestOracleDescent:
    """The descent against two raster-order oracles.

    oracle_loop_descent is the package's loop, which steps the instance
    means and the rows apart, and must match it bit for bit. oracle_descent
    steps every pixel along the whole direction on every step, so each mean
    is recomputed from its pixels and rounds differently; it must give the
    same steps, stop and partition.
    """

    @staticmethod
    def _run(scene, loss_cfg, opt):
        trace = optimize_embeddings(scene.labels, 8, loss_cfg, opt)
        args = (scene.labels.values, 8, *_loss_args(loss_cfg), trace.step_size,
                opt.max_steps, opt.loss_tolerance, opt.seed)
        got = [(b.l_var, b.l_dist, b.l_reg, b.total) for b in trace.breakdowns]
        entries, field, steps, pixel_steps, reason = oracle_loop_descent(*args)
        assert got == entries
        np.testing.assert_array_equal(trace.final.values, field)
        assert (trace.steps_taken, trace.pixel_steps, trace.stop_reason) == (
            steps, pixel_steps, reason)
        return trace, got, oracle_descent(*args)

    def _check(self, scene, loss_cfg, opt):
        trace, got, (entries, field, steps, reason) = self._run(scene, loss_cfg, opt)
        assert (trace.steps_taken, trace.stop_reason) == (steps, reason)
        k = trace.pixel_steps
        assert 0 < k < trace.steps_taken  # the pull was met before the stop
        assert all(g[0] == got[k][0] for g in got[k:])  # l_var held from then on
        # The oracle moves each pixel by its instance's whole step, not by
        # its pull alone: l_var reads up to 2.8e-20 apart over the pull's
        # steps.
        np.testing.assert_allclose([g[0] for g in got[:k + 1]], [e[0] for e in entries[:k + 1]],
                                   rtol=0, atol=1e-18)
        # The oracle recomputes each mean from its pixels every step, which
        # rounds more than stepping the means: on the 64 px map at the
        # default tolerance the last l_dist entries differ by 1.3e-12
        # relative, and a long-double replay of the means' steps lies
        # within 1.4e-13 of the package's entries and 1.2e-12 of the oracle's.
        np.testing.assert_allclose([g[1] for g in got], [e[1] for e in entries],
                                   rtol=2e-12, atol=0)
        np.testing.assert_allclose([g[2] for g in got], [e[2] for e in entries],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(trace.final.values, field, rtol=0, atol=1e-8)
        clusters = [
            cluster_field(f, scene.drivable_mask, VmfConfig(), loss_cfg.delta_v)[0]
            for f in (trace.final, EmbeddingField(field))
        ]
        np.testing.assert_array_equal(clusters[0].instances.values,
                                      clusters[1].instances.values)
        return trace

    @pytest.mark.parametrize("tol", [OptimizerConfig().loss_tolerance, 1e-3])
    @pytest.mark.parametrize(
        "size, num_instances, layout, seed",
        [(64, 2, "fork", 3), (96, 3, "curved_bands", 2), (128, 4, "parallel_stripes", 1000)],
    )
    def test_matches_oracle(self, size, num_instances, layout, seed, tol):
        scene = gen_scene(SceneConfig(width=size, height=size, num_instances=num_instances,
                                      layout=layout, seed=seed))
        self._check(scene, DiscriminativeConfig(), OptimizerConfig(loss_tolerance=tol, seed=seed))

    def test_zero_tolerance_is_the_oracle_bit_for_bit(self):
        # at 0.0 the rows move while l_var > 0: the first 15 of the 60 steps
        # here. Later steps of oracle_descent move each pixel by its mean's
        # step alone, so the fields agree to rounding (2.4e-15 measured).
        scene = gen_scene(SceneConfig(num_instances=2, layout="fork", seed=3))
        opt = OptimizerConfig(max_steps=60, loss_tolerance=0.0, seed=3)
        trace, got, (entries, field, steps, reason) = self._run(scene, DiscriminativeConfig(), opt)
        assert trace.steps_taken == steps == 60
        assert trace.stop_reason == reason == "max_steps"
        k = trace.pixel_steps
        assert [g[0] > 0.0 for g in got] == [i < k for i in range(61)]
        assert 0 < k < 60
        np.testing.assert_allclose([g[0] for g in got], [e[0] for e in entries], rtol=0, atol=1e-18)
        np.testing.assert_allclose(trace.final.values, field, rtol=0, atol=1e-13)

    def test_zero_alpha_still_steps_every_pixel_first(self):
        # with alpha 0 the pull still moves every pixel; the switch tests the
        # unweighted l_var, so it does not fire at step 0
        scene = gen_scene(SceneConfig(num_instances=2, layout="fork", seed=3))
        trace = self._check(scene, DiscriminativeConfig(alpha=0.0), OptimizerConfig(seed=3))
        assert trace.breakdowns[0].l_var > 0.0

    def test_dense_map_switches_within_15_pixel_steps(self):
        # the dense-128 benchmark scene: 155 steps, of which 7 on every pixel
        scene = gen_scene(SceneConfig(width=128, height=128, num_instances=4,
                                      layout="parallel_stripes", seed=1000))
        trace = optimize_embeddings(scene.labels, 8, DiscriminativeConfig(), OptimizerConfig(seed=1000))
        assert trace.stop_reason == "loss_tolerance"
        assert 0 < trace.pixel_steps <= 15 < trace.steps_taken


class TestNormalizeField:
    """The descent returns a raw field; clustering lifts its rows to unit norm."""

    def _optimized(self):
        labels = _two_band_labels(8, 8)
        trace = optimize_embeddings(
            labels, 3, DiscriminativeConfig(), OptimizerConfig(step_size=5.0, max_steps=10, seed=2)
        )
        return trace.final, BinaryMask(np.ones((8, 8), dtype=np.uint8))

    def test_unit_norm_everywhere(self):
        emb, mask = self._optimized()
        raw = np.linalg.norm(emb.values, axis=2)
        assert np.abs(raw - 1.0).max() > 0.1  # the optimized field is not unit
        x = flatten_foreground(emb, mask)
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_direction_preserved(self):
        emb, mask = self._optimized()
        before = emb.values.copy()
        x = flatten_foreground(emb, mask, 0.5)
        rows = before.reshape(-1, emb.dim)
        lifted = np.hstack([rows, np.full((rows.shape[0], 1), 0.5)])
        np.testing.assert_allclose(
            x, lifted / np.linalg.norm(lifted, axis=1)[:, None], rtol=1e-12, atol=0
        )
        np.testing.assert_array_equal(emb.values, before)


class TestDefaultStop:
    @pytest.mark.parametrize("num_instances", [1, 2, 3, 4])
    def test_default_tolerance_keeps_partition(self, num_instances):
        # the default stop ends the descent once every pull is within 1% of
        # delta_v; the remaining steps of a full run change no pixel's cluster
        layout = LAYOUTS[num_instances % len(LAYOUTS)]
        scene = gen_scene(SceneConfig(num_instances=num_instances, layout=layout, seed=1))
        loss_cfg = DiscriminativeConfig()

        def run(opt):
            trace = optimize_embeddings(scene.labels, 8, loss_cfg, opt)
            result, search = cluster_field(
                trace.final, scene.drivable_mask, VmfConfig(), loss_cfg.delta_v
            )
            return trace, result, search

        trace, result, search = run(OptimizerConfig(seed=1))
        full, full_result, full_search = run(OptimizerConfig(loss_tolerance=0.0, seed=1))
        assert trace.stop_reason == "loss_tolerance"
        assert trace.steps_taken < OptimizerConfig().max_steps == full.steps_taken
        assert result.num_clusters == full_result.num_clusters == num_instances
        np.testing.assert_array_equal(result.instances.values, full_result.instances.values)
        assert search.unconverged_seeds <= full_search.unconverged_seeds

    def test_one_instance_scene_stops_at_once_and_clusters_converge(self):
        # benchmark small-scenes s08 at seed 1 (scene seed 1008) at criterion
        # 3's settings: plain descent took 136 steps and left a broad blob on
        # which all 615 mean-shift seeds ran out of max_iters
        scene = gen_scene(SceneConfig(num_instances=1, layout="curved_bands", seed=1008))
        trace = optimize_embeddings(
            scene.labels, 8, DiscriminativeConfig(),
            OptimizerConfig(step_size=40.0, max_steps=300, loss_tolerance=1e-3, seed=1008),
        )
        result, search = cluster_field(
            trace.final, scene.drivable_mask,
            VmfConfig(kappa=10.0, merge_tolerance=1.65, seed_stride=5),
        )
        assert trace.stop_reason == "loss_tolerance"
        assert trace.steps_taken <= 5
        assert result.num_clusters == 1
        assert search.unconverged_seeds == 0
