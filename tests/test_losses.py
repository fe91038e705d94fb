"""Pull/push/regularize loss against a loop-based reference."""
import numpy as np
import pytest

from instance_embed import (
    DiscriminativeConfig,
    EmbeddingField,
    EmptyInstance,
    LabelMap,
    cluster_means,
    discriminative_loss,
)

from _oracles import oracle_loss


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

    def test_cluster_means_match_averages(self):
        emb, labels = _random_case(3, c=3)
        means = cluster_means(emb, labels)
        for ident in (1, 2, 3):
            sel = labels.values == ident
            np.testing.assert_allclose(
                means[ident - 1], emb.values[sel].mean(axis=0), rtol=1e-12
            )

