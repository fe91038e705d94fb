"""Analytic loss gradient against its closed form and loop-based central differences."""
import numpy as np
import pytest

from instance_embed import (
    DiscriminativeConfig,
    EmbeddingField,
    LabelMap,
    discriminative_grad,
    discriminative_loss,
    finite_diff_grad,
)

from _oracles import oracle_grad, oracle_grad_closed_form


def _case(seed, h=5, w=5, d=3, c=3, scale=2.0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, c + 1, size=(h, w))
    flat = labels.ravel()
    for ident in range(1, c + 1):
        flat[ident - 1] = ident
    emb = rng.standard_normal((h, w, d)) * scale
    return EmbeddingField(emb), LabelMap(labels.reshape(h, w))


def _rel_err(got, want):
    denom = max(np.abs(want).max(), 1e-8)
    return np.abs(got - want).max() / denom


class TestAgainstFiniteDifferences:
    @pytest.mark.parametrize("seed", range(8))
    def test_default_margins(self, seed):
        emb, labels = _case(seed)
        cfg = DiscriminativeConfig()
        got = discriminative_grad(emb, labels, cfg)
        want = oracle_grad(
            emb.values, labels.values, cfg.alpha, cfg.beta, cfg.gamma,
            cfg.delta_v, cfg.delta_d,
        )
        assert _rel_err(got, want) < 1e-6

    def test_single_instance(self):
        emb, labels = _case(3, c=1)
        cfg = DiscriminativeConfig()
        got = discriminative_grad(emb, labels, cfg)
        want = oracle_grad(
            emb.values, labels.values, cfg.alpha, cfg.beta, cfg.gamma,
            cfg.delta_v, cfg.delta_d,
        )
        assert _rel_err(got, want) < 1e-6

    def test_tight_pull_margin(self):
        # small delta_v keeps the pull hinge active for most pixels
        emb, labels = _case(4, scale=3.0)
        cfg = DiscriminativeConfig(delta_v=0.05, delta_d=2.5)
        got = discriminative_grad(emb, labels, cfg)
        want = oracle_grad(
            emb.values, labels.values, cfg.alpha, cfg.beta, cfg.gamma, 0.05, 2.5
        )
        assert _rel_err(got, want) < 1e-6

    def test_nondefault_weights(self):
        emb, labels = _case(6)
        cfg = DiscriminativeConfig(alpha=0.3, beta=2.0, gamma=0.05)
        got = discriminative_grad(emb, labels, cfg)
        want = oracle_grad(
            emb.values, labels.values, 0.3, 2.0, 0.05, cfg.delta_v, cfg.delta_d
        )
        assert _rel_err(got, want) < 1e-6


def _closed_form(emb, labels, cfg):
    return oracle_grad_closed_form(
        emb.values, labels.values, cfg.alpha, cfg.beta, cfg.gamma, cfg.delta_v, cfg.delta_d
    )


class TestAgainstClosedForm:
    """The kernel against a per-pixel loop over the three closed-form terms."""

    TOL = 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_random_cases(self, seed):
        emb, labels = _case(seed)
        cfg = DiscriminativeConfig()
        got = discriminative_grad(emb, labels, cfg)
        assert _rel_err(got, _closed_form(emb, labels, cfg)) <= self.TOL

    def test_single_instance(self):
        emb, labels = _case(3, c=1)
        cfg = DiscriminativeConfig(gamma=0.1)
        got = discriminative_grad(emb, labels, cfg)
        assert _rel_err(got, _closed_form(emb, labels, cfg)) <= self.TOL

    def test_every_pull_hinge_inactive(self):
        emb, labels = _case(5)
        cfg = DiscriminativeConfig(gamma=0.1, delta_v=100.0, delta_d=10.0)
        got = discriminative_grad(emb, labels, cfg)
        assert np.abs(got).max() > 0.0
        assert _rel_err(got, _closed_form(emb, labels, cfg)) <= self.TOL

    def test_instance_mean_at_origin(self):
        # instance 1 is symmetric about the origin, so its mean is exactly 0
        v = np.array([[[1.0, -2.0], [-1.0, 2.0], [3.0, 1.0], [2.5, 1.5]]])
        labels = LabelMap(np.array([[1, 1, 2, 2]]))
        emb = EmbeddingField(v)
        cfg = DiscriminativeConfig(gamma=0.5)
        got = discriminative_grad(emb, labels, cfg)
        assert _rel_err(got, _closed_form(emb, labels, cfg)) <= self.TOL

    def test_two_coincident_means(self):
        # instances 1 and 2 both have mean exactly (2, 2); instance 3 is apart
        v = np.array([[[1.0, 2.0], [3.0, 2.0], [0.0, 2.0], [4.0, 2.0], [2.5, 3.0], [2.0, 3.5]]])
        labels = LabelMap(np.array([[1, 1, 2, 2, 3, 3]]))
        emb = EmbeddingField(v)
        cfg = DiscriminativeConfig(gamma=0.1)
        got = discriminative_grad(emb, labels, cfg)
        assert _rel_err(got, _closed_form(emb, labels, cfg)) <= self.TOL


class TestPackagedFiniteDifferences:
    def test_matches_analytic(self):
        emb, labels = _case(9, h=4, w=4)
        cfg = DiscriminativeConfig()
        analytic = discriminative_grad(emb, labels, cfg)
        numeric = finite_diff_grad(emb, labels, cfg)
        assert _rel_err(numeric, analytic) < 1e-5


class TestConventions:
    def test_background_gradient_is_zero(self):
        emb, labels = _case(2)
        grad = discriminative_grad(emb, labels, DiscriminativeConfig())
        bg = labels.values == 0
        assert bg.any()
        assert np.all(grad[bg] == 0.0)

    def test_saturated_hinges_give_zero_gradient(self):
        # two tight unit-norm clusters far apart with gamma disabled
        v = np.zeros((1, 4, 2))
        v[0, 0] = [10.0, 0.0]
        v[0, 1] = [10.0, 0.0]
        v[0, 2] = [-10.0, 0.0]
        v[0, 3] = [-10.0, 0.0]
        labels = LabelMap(np.array([[1, 1, 2, 2]]))
        cfg = DiscriminativeConfig(gamma=0.0)
        grad = discriminative_grad(EmbeddingField(v), labels, cfg)
        assert np.all(grad == 0.0)

    def test_hinge_boundary_uses_zero_subgradient(self):
        # both pixels exactly delta_v from the mean: hinge kink, zero side
        v = np.zeros((1, 2, 1))
        v[0, 0, 0] = 0.0
        v[0, 1, 0] = 1.0  # mean 0.5, distances exactly 0.5 = delta_v
        labels = LabelMap(np.array([[1, 1]]))
        cfg = DiscriminativeConfig(alpha=1.0, beta=0.0, gamma=0.0, delta_v=0.5)
        grad = discriminative_grad(EmbeddingField(v), labels, cfg)
        assert np.all(grad == 0.0)

    def test_mean_at_origin_reg_subgradient_zero(self):
        # symmetric pixels: mean exactly at the origin, reg gradient 0
        v = np.zeros((1, 2, 2))
        v[0, 0] = [1.0, 0.0]
        v[0, 1] = [-1.0, 0.0]
        labels = LabelMap(np.array([[1, 1]]))
        cfg = DiscriminativeConfig(alpha=0.0, beta=0.0, gamma=1.0)
        grad = discriminative_grad(EmbeddingField(v), labels, cfg)
        assert np.all(grad == 0.0)

    def test_descent_direction(self):
        emb, labels = _case(12)
        cfg = DiscriminativeConfig()
        grad = discriminative_grad(emb, labels, cfg)
        before = discriminative_loss(emb, labels, cfg).total
        stepped = EmbeddingField(emb.values - 1e-4 * grad)
        after = discriminative_loss(stepped, labels, cfg).total
        assert after < before
