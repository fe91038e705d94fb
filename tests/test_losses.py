"""Pull/push/regularize loss against loop-based and raster-order references."""
import numpy as np
import pytest

from instance_embed import (
    DiscriminativeConfig,
    EmbeddingField,
    EmptyInstance,
    LabelMap,
    discriminative_grad,
    discriminative_loss,
)
from instance_embed.losses import _gather, _plan_labels, _segment_sum

from _oracles import oracle_loss, oracle_value_and_grad


def _random_case(seed, h=6, w=7, d=3, c=3):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, c + 1, size=(h, w))
    # make sure every instance id up to c owns at least one pixel
    flat = labels.ravel()
    for ident in range(1, c + 1):
        flat[ident - 1] = ident
    emb = rng.standard_normal((h, w, d)) * 2.0
    return EmbeddingField(emb), LabelMap(labels.reshape(h, w))


class TestHandCase:
    """Two flat instances exactly delta_d apart with unit-norm means."""

    def setup_method(self):
        v = np.zeros((2, 2, 2))
        v[0, 0] = [1.0, 0.0]
        v[0, 1] = [1.0, 0.0]
        v[1, 0] = [-1.0, 0.0]
        v[1, 1] = [-1.0, 0.0]
        self.emb = EmbeddingField(v)
        self.labels = LabelMap(np.array([[1, 1], [2, 2]]))

    def test_exact_breakdown(self):
        cfg = DiscriminativeConfig(alpha=1.0, beta=1.0, gamma=1.0, delta_v=0.5, delta_d=1.5)
        bd = discriminative_loss(self.emb, self.labels, cfg)
        # means at (+-1, 0): zero variance, separation 2 against margin 3,
        # so the push term is (3 - 2)^2 averaged over both ordered pairs.
        assert bd.l_var == pytest.approx(0.0, abs=1e-12)
        assert bd.l_dist == pytest.approx(1.0, abs=1e-12)
        assert bd.l_reg == pytest.approx(1.0, abs=1e-12)
        assert bd.total == pytest.approx(2.0, abs=1e-12)

    def test_weights_scale_terms(self):
        cfg = DiscriminativeConfig(alpha=2.0, beta=0.5, gamma=0.25, delta_v=0.5, delta_d=1.5)
        bd = discriminative_loss(self.emb, self.labels, cfg)
        assert bd.total == pytest.approx(2.0 * 0.0 + 0.5 * 1.0 + 0.25 * 1.0, abs=1e-12)


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_fields(self, seed):
        emb, labels = _random_case(seed, c=1 + seed % 4)
        cfg = DiscriminativeConfig()
        bd = discriminative_loss(emb, labels, cfg)
        ref = oracle_loss(
            emb.values, labels.values, cfg.alpha, cfg.beta, cfg.gamma,
            cfg.delta_v, cfg.delta_d,
        )
        assert bd.l_var == pytest.approx(ref[0], rel=1e-12, abs=1e-12)
        assert bd.l_dist == pytest.approx(ref[1], rel=1e-12, abs=1e-12)
        assert bd.l_reg == pytest.approx(ref[2], rel=1e-12, abs=1e-12)
        assert bd.total == pytest.approx(ref[3], rel=1e-12, abs=1e-12)

    def test_nondefault_margins(self):
        emb, labels = _random_case(99, c=3)
        cfg = DiscriminativeConfig(alpha=1.5, beta=0.7, gamma=0.01, delta_v=0.2, delta_d=0.9)
        bd = discriminative_loss(emb, labels, cfg)
        ref = oracle_loss(emb.values, labels.values, 1.5, 0.7, 0.01, 0.2, 0.9)
        assert bd.total == pytest.approx(ref[3], rel=1e-12)


class TestStructure:
    def test_single_instance_has_zero_push(self):
        rng = np.random.default_rng(5)
        labels = LabelMap(np.ones((4, 4), dtype=np.int64))
        emb = EmbeddingField(rng.standard_normal((4, 4, 3)))
        bd = discriminative_loss(emb, labels, DiscriminativeConfig())
        assert bd.l_dist == 0.0

    def test_var_hinge_saturates(self):
        # all embeddings within delta_v of the mean: zero pull loss
        v = np.zeros((1, 4, 2))
        v[0, :, 0] = [0.0, 0.1, 0.2, 0.3]
        labels = LabelMap(np.ones((1, 4), dtype=np.int64))
        bd = discriminative_loss(
            EmbeddingField(v), labels, DiscriminativeConfig(delta_v=0.5)
        )
        assert bd.l_var == 0.0

    def test_dist_hinge_saturates(self):
        # means 4 apart with margin 2*1.5 = 3: zero push loss
        v = np.zeros((1, 2, 2))
        v[0, 0, 0] = 0.0
        v[0, 1, 0] = 4.0
        labels = LabelMap(np.array([[1, 2]]))
        bd = discriminative_loss(
            EmbeddingField(v), labels, DiscriminativeConfig(delta_d=1.5)
        )
        assert bd.l_dist == 0.0

    def test_permutation_of_ids_invariant(self):
        emb, labels = _random_case(7, c=3)
        swapped = labels.values.copy()
        swapped[labels.values == 1] = 3
        swapped[labels.values == 3] = 1
        bd1 = discriminative_loss(emb, labels, DiscriminativeConfig())
        bd2 = discriminative_loss(emb, LabelMap(swapped), DiscriminativeConfig())
        assert bd1.total == pytest.approx(bd2.total, rel=1e-12)

    def test_translation_moves_only_reg(self):
        emb, labels = _random_case(11, c=2)
        shift = np.full_like(np.asarray(emb.values), 0.0) + np.array([10.0, 0.0, 0.0])
        moved = EmbeddingField(emb.values + shift)
        cfg = DiscriminativeConfig(gamma=0.0)
        bd1 = discriminative_loss(emb, labels, cfg)
        bd2 = discriminative_loss(moved, labels, cfg)
        assert bd1.l_var == pytest.approx(bd2.l_var, rel=1e-9)
        assert bd1.l_dist == pytest.approx(bd2.l_dist, rel=1e-9, abs=1e-12)

    def test_empty_foreground_raises(self):
        emb = EmbeddingField(np.zeros((2, 2, 2)))
        labels = LabelMap(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(EmptyInstance):
            discriminative_loss(emb, labels, DiscriminativeConfig())

    def test_gap_id_raises_named_instance(self):
        emb = EmbeddingField(np.zeros((2, 2, 2)))
        labels = LabelMap(np.array([[0, 1], [3, 3]]))
        with pytest.raises(EmptyInstance) as err:
            discriminative_loss(emb, labels, DiscriminativeConfig())
        assert "2" in str(err.value)

    @pytest.mark.parametrize("grid, missing", [
        ([[0, 1], [1, 2**40]], 2),
        ([[1, 2], [3, 2**40]], 4),
        ([[2, 2], [5, 2**62]], 1),
    ])
    def test_huge_id_raises_before_allocating(self, grid, missing):
        # 2**40 bins would take 8 TiB; an ID above the pixel count leaves
        # some ID up to the pixel count empty, and that one is named
        emb = EmbeddingField(np.zeros((2, 2, 2)))
        with pytest.raises(EmptyInstance, match=f"instance ID {missing} "):
            discriminative_loss(emb, LabelMap(np.array(grid)), DiscriminativeConfig())


def _layout(kind, rng, c, h=9, w=11):
    """A label map with IDs 1..c all present: random, interleaved or blocky."""
    if kind == "random":
        flat = rng.integers(0, c + 1, size=h * w)
    elif kind == "interleaved":
        flat = np.arange(h * w) % (c + 1)
    else:
        blocks = rng.integers(0, c + 1, size=(-(-h // 3), -(-w // 4)))
        flat = np.kron(blocks, np.ones((3, 4), dtype=np.int64))[:h, :w].ravel()
    flat[rng.choice(h * w, size=c, replace=False)] = np.arange(1, c + 1)
    return flat.reshape(h, w)


_KINDS = ("random", "interleaved", "blocky")


class TestBitEqualToRasterKernel:
    """216 cases: 3 layouts x D in {1, 2, 3, 8} x C in 1..6 x 3 configs."""

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_terms_and_gradient(self, kind, d):
        rng = np.random.default_rng([_KINDS.index(kind), d])
        cfgs = (
            DiscriminativeConfig(),
            DiscriminativeConfig(delta_v=0.0, delta_d=2.0),
            DiscriminativeConfig(alpha=0.7, beta=1.3, gamma=0.0, delta_v=0.3),
        )
        for c in range(1, 7):
            labels = _layout(kind, rng, c)
            emb = rng.standard_normal(labels.shape + (d,))
            for cfg in cfgs:
                args = (cfg.alpha, cfg.beta, cfg.gamma, cfg.delta_v, cfg.delta_d)
                want_terms, want_grad = oracle_value_and_grad(emb, labels, *args)
                field, lab = EmbeddingField(emb), LabelMap(labels)
                bd = discriminative_loss(field, lab, cfg)
                assert (bd.l_var, bd.l_dist, bd.l_reg, bd.total) == want_terms
                assert np.array_equal(discriminative_grad(field, lab, cfg), want_grad)


class TestLabelPlan:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_rows_grouped_by_instance_in_raster_order(self, kind):
        rng = np.random.default_rng(_KINDS.index(kind))
        for c in range(1, 7):
            labels = _layout(kind, rng, c)
            plan = _plan_labels(labels, 3)
            flat = labels.ravel()
            stops = [stop for _, stop in plan.spans]
            assert [start for start, _ in plan.spans] == [0] + stops[:-1]
            assert stops[-1] == plan.fg.size == np.count_nonzero(flat)
            for k, (start, stop) in enumerate(plan.spans):
                np.testing.assert_array_equal(plan.fg[start:stop], np.flatnonzero(flat == k + 1))
                assert (plan.ids[start:stop] == k).all()

    @pytest.mark.parametrize("kind", _KINDS)
    def test_segment_sum_adds_each_instance_in_row_order(self, kind):
        rng = np.random.default_rng(10 + _KINDS.index(kind))
        for c in range(1, 7):
            labels = _layout(kind, rng, c)
            plan = _plan_labels(labels, 3)
            rows = _gather(rng.standard_normal(labels.shape + (3,)), plan)
            want = np.zeros((c, 3))
            for k, (start, stop) in enumerate(plan.spans):
                for r in range(start, stop):
                    want[k] += rows[r]
            assert np.array_equal(_segment_sum(plan, rows), want)
