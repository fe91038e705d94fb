"""Spherical mean-shift clustering: fixed points, merging, assignment."""
import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from instance_embed import (
    BinaryMask,
    ClusterResult,
    DegenerateShift,
    DegenerateVector,
    DiscriminativeConfig,
    EmbeddingField,
    EmptyForeground,
    LabelMap,
    OptimizerConfig,
    SceneConfig,
    VmfConfig,
    assign_to_modes,
    cluster_field,
    flatten_foreground,
    gen_scene,
    mean_shift_modes,
    optimize_embeddings,
    vmf_shift_step,
)

from instance_embed import _blas, clustering, fileio
from instance_embed.scenes import LAYOUTS
from instance_embed.cli import main
from instance_embed.clustering import (
    _STRIP_COLUMNS,
    _TOTAL_FLOOR,
    _augment,
    _capture,
    _fold_rows,
    _kernel_sums,
    _shift_rows,
    _single_linkage,
)

from _oracles import (
    oracle_fold_rows,
    oracle_kde,
    oracle_mean_shift,
    oracle_single_linkage,
    oracle_vmf_step,
)


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _bundle(rng, center, n, spread, d):
    pts = center[None, :] + spread * rng.standard_normal((n, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _full_mask(h, w):
    return BinaryMask(np.ones((h, w), dtype=np.uint8))


def _planted(seed=0, n_per=60, d=4, centers=None, spread=0.05):
    rng = np.random.default_rng(seed)
    if centers is None:
        centers = np.eye(d)[:3]
    parts = [_bundle(rng, c, n_per, spread, d) for c in centers]
    x = np.concatenate(parts, axis=0)
    truth = np.repeat(np.arange(len(centers)), n_per)
    return x, truth, np.asarray(centers, dtype=np.float64)


class TestShiftStep:
    def test_coincident_bundle_is_fixed_point(self):
        x_points = np.tile(_unit([1.0, 2.0, -0.5]), (7, 1))
        x = x_points[0]
        out = vmf_shift_step(x_points, x, kappa=10.0)
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        x_points = _bundle(rng, _unit([1, 1, 0, 0]), 40, 0.3, 4)
        x = _unit(rng.standard_normal(4))
        got = vmf_shift_step(x_points, x, kappa=7.5)
        want = oracle_vmf_step(x_points, x, 7.5)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_antipodal_imbalance_closed_form(self):
        # n+ copies of +e1 and n- of -e1 seen from +e1: weights exp(0) and
        # exp(-2 kappa), so the numerator is (n+ - n- exp(-2k)) e1 and the
        # normalized result is exactly +e1.
        e1 = np.array([1.0, 0.0])
        x_points = np.concatenate([np.tile(e1, (3, 1)), np.tile(-e1, (2, 1))])
        out = vmf_shift_step(x_points, e1, kappa=5.0)
        np.testing.assert_allclose(out, e1, atol=1e-15)

    def test_balanced_antipodal_from_equator_degenerates(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        x_points = np.stack([e1, -e1])
        with pytest.raises(DegenerateShift):
            vmf_shift_step(x_points, e2, kappa=3.0)

    def test_large_kappa_does_not_overflow(self):
        rng = np.random.default_rng(9)
        x_points = _bundle(rng, _unit([1, 0, 0]), 20, 0.1, 3)
        out = vmf_shift_step(x_points, x_points[0], kappa=5000.0)
        assert np.all(np.isfinite(out))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_iteration_ascends_kernel_density(self):
        rng = np.random.default_rng(11)
        x_points, _, _ = _planted(seed=11, n_per=50, d=3, centers=np.eye(3)[:2])
        x = _unit(rng.standard_normal(3))
        densities = [oracle_kde(x_points, x, 10.0)]
        for _ in range(30):
            x = vmf_shift_step(x_points, x, 10.0)
            densities.append(oracle_kde(x_points, x, 10.0))
        diffs = np.diff(densities)
        assert np.all(diffs >= -1e-12)


def _far_seed(x_points, axis, angle):
    """Unit vector at `angle` from `axis` in the plane of axis and e_last."""
    v = np.cos(angle) * axis + np.sin(angle) * np.eye(x_points.shape[1])[-1]
    return _unit(v)


def _falls_back(cur, x_points, kappa):
    """Rows whose plain exp(kappa * (dot - 1)) total is not finite or under the floor."""
    with np.errstate(over="ignore"):
        total = np.exp(kappa * (cur @ x_points.T - 1.0)).sum(axis=1)
    return ~(np.isfinite(total) & (total >= _TOTAL_FLOOR))


class TestShiftKernel:
    """_shift_rows against the max-subtracting loop oracle, fallback rows included."""

    def test_far_seed_at_large_kappa_matches_oracle(self):
        # every weight exp(5000 * (cos - 1)) underflows at >= 0.5 rad
        rng = np.random.default_rng(21)
        axis = _unit([1.0, 0.0, 0.0])
        x_points = _bundle(rng, axis, 30, 0.05, 3)
        x = _far_seed(x_points, axis, 1.0)
        assert np.arccos(np.clip(x_points @ x, -1, 1)).min() >= 0.5
        assert _falls_back(x[None, :], x_points, 5000.0).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = vmf_shift_step(x_points, x, kappa=5000.0)
        np.testing.assert_allclose(got, oracle_vmf_step(x_points, x, 5000.0), atol=1e-12)

    def test_points_of_norm_three_match_oracle(self):
        # exp(1000 * (3 * cos - 1)) overflows: the total is inf
        rng = np.random.default_rng(22)
        x_points = 3.0 * _bundle(rng, _unit([0.0, 1.0, 1.0]), 25, 0.1, 3)
        x = _unit([0.1, 1.0, 0.9])
        assert _falls_back(x[None, :], x_points, 1000.0).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = vmf_shift_step(x_points, x, kappa=1000.0)
        np.testing.assert_allclose(got, oracle_vmf_step(x_points, x, 1000.0), atol=1e-12)

    @pytest.mark.parametrize("angle", [0.05, 0.2, 0.3, 0.4, 0.45, 0.6])
    def test_exponents_across_the_floor_match_oracle(self, angle):
        # at kappa 5000 the largest exponent runs from about -6 to -900, so
        # the totals cross the floor and, below it, the squared norm of the
        # weighted sum would underflow without the recomputation
        rng = np.random.default_rng(23)
        axis = _unit([0.0, 0.0, 1.0, 0.0])
        x_points = _bundle(rng, axis, 40, 0.01, 4)
        x = _far_seed(x_points, axis, angle)
        got = vmf_shift_step(x_points, x, kappa=5000.0)
        np.testing.assert_allclose(got, oracle_vmf_step(x_points, x, 5000.0), atol=1e-12)

    def test_mixed_block_rows_match_single_rows(self):
        rng = np.random.default_rng(24)
        axis = _unit([1.0, 1.0, 0.0, 0.0])
        x_points = _bundle(rng, axis, 200, 0.02, 4)
        far = np.stack([_far_seed(x_points, axis, t) for t in (0.4, 0.7, 1.5, 3.0)])
        cur = np.concatenate([x_points[:30], far, x_points[30:60] + 1e-3, far[::-1]])
        cur /= np.linalg.norm(cur, axis=1, keepdims=True)
        cur = cur[rng.permutation(cur.shape[0])]
        kappa = 3000.0
        fallback = _falls_back(cur, x_points, kappa)
        assert fallback.any() and not fallback.all()
        a = _augment(x_points)
        new, bad = _shift_rows(cur, a, kappa)
        assert not bad.any()
        for r in range(cur.shape[0]):
            one, one_bad = _shift_rows(cur[r : r + 1], a, kappa)
            assert not one_bad[0]
            np.testing.assert_allclose(new[r], one[0], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("kappa", [0.5, 10.0, 50.0, 350.0, 3000.0])
    def test_random_blocks_match_oracle(self, d, kappa):
        for seed in range(4):
            rng = np.random.default_rng(100 * d + seed)
            x_points = _bundle_set(rng, d)
            if seed == 3:
                # three strips of points, the last one partial, in one tight
                # bundle that the far rows of off fall back from at kappa 3000
                n = 2 * _STRIP_COLUMNS + 300
                x_points = _bundle(rng, _unit(rng.standard_normal(d)), n, 0.05, d)
            off = rng.standard_normal((10, d))
            off /= np.linalg.norm(off, axis=1, keepdims=True)
            cur = np.concatenate([x_points[rng.choice(x_points.shape[0], 10)], off])
            if seed == 3 and kappa == 3000.0:
                assert _falls_back(cur, x_points, kappa).any()
            new, bad = _shift_rows(cur, _augment(x_points), kappa)
            assert not bad.any()
            for r in range(cur.shape[0]):
                want = oracle_vmf_step(x_points, cur[r], kappa)
                assert np.linalg.norm(new[r] - want) <= 1e-12 * np.linalg.norm(want)


class TestModeSearch:
    def test_recovers_planted_bundles(self):
        x, truth, centers = _planted(seed=0)
        search = mean_shift_modes(x, VmfConfig(kappa=10.0))
        assert search.modes.shape[0] == 3
        assert search.dropped_seeds == 0
        # every mode sits close to one distinct planted center
        owner = np.argmax(search.modes @ centers.T, axis=1)
        assert sorted(owner.tolist()) == [0, 1, 2]
        angles = np.arccos(np.clip(
            np.einsum("ij,ij->i", search.modes, centers[owner]), -1, 1))
        assert angles.max() < 0.15

    def test_strided_seeds_find_same_modes(self):
        x, _, _ = _planted(seed=1)
        full = mean_shift_modes(x, VmfConfig(kappa=10.0, seed_stride=1))
        strided = mean_shift_modes(x, VmfConfig(kappa=10.0, seed_stride=5))
        assert full.modes.shape == strided.modes.shape
        cos = np.clip(np.einsum("ij,ij->i", full.modes, strided.modes), -1, 1)
        assert np.arccos(cos).max() < 1e-3

    def test_merge_is_transitive_chain(self):
        # three tight bundles at pairwise link angles ~0.09 < tolerance 0.1,
        # but 0.18 end to end: single linkage must still give one mode
        rng = np.random.default_rng(2)
        c0 = _unit([1.0, 0.0, 0.0])
        c1 = _unit([np.cos(0.09), np.sin(0.09), 0.0])
        c2 = _unit([np.cos(0.18), np.sin(0.18), 0.0])
        x = np.concatenate([_bundle(rng, c, 30, 0.002, 3) for c in (c0, c1, c2)])
        search = mean_shift_modes(x, VmfConfig(kappa=3000.0, merge_tolerance=0.1))
        assert search.modes.shape[0] == 1

    def test_distant_modes_stay_separate(self):
        rng = np.random.default_rng(3)
        c0 = _unit([1.0, 0.0, 0.0])
        c1 = _unit([np.cos(0.5), np.sin(0.5), 0.0])
        x = np.concatenate([_bundle(rng, c, 30, 0.002, 3) for c in (c0, c1)])
        search = mean_shift_modes(x, VmfConfig(kappa=3000.0, merge_tolerance=0.1))
        assert search.modes.shape[0] == 2

    def test_modes_sorted_by_basin_size(self):
        rng = np.random.default_rng(5)
        big = _bundle(rng, _unit([1, 0, 0, 0]), 50, 0.01, 4)
        small = _bundle(rng, _unit([0, 1, 0, 0]), 20, 0.01, 4)
        x = np.concatenate([small, big])  # small first in input order
        search = mean_shift_modes(x, VmfConfig(kappa=50.0))
        assert search.basin_seeds[0] == 50
        assert search.basin_seeds[1] == 20
        assert abs(search.modes[0] @ _unit([1, 0, 0, 0])) > 0.99

    def test_rotation_equivariance(self):
        x, _, _ = _planted(seed=7, d=4)
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        base = mean_shift_modes(x, VmfConfig(kappa=10.0))
        rotated = mean_shift_modes(x @ q, VmfConfig(kappa=10.0))
        assert base.modes.shape == rotated.modes.shape
        np.testing.assert_allclose(base.modes @ q, rotated.modes, atol=1e-6)

    def test_deterministic_rerun(self):
        x, _, _ = _planted(seed=9)
        a = mean_shift_modes(x, VmfConfig(kappa=10.0))
        b = mean_shift_modes(x, VmfConfig(kappa=10.0))
        np.testing.assert_array_equal(a.modes, b.modes)
        np.testing.assert_array_equal(a.basin_seeds, b.basin_seeds)
        assert a.dropped_seeds == b.dropped_seeds

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            mean_shift_modes(np.zeros((0, 3)), VmfConfig())

    def test_cancelling_component_leaves_no_mode(self):
        # both antipodal seeds stay put and a merge tolerance above pi joins
        # them; their mean is the origin, so both seeds are dropped
        x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        search = mean_shift_modes(x, VmfConfig(kappa=1.0, merge_tolerance=3.2))
        assert search.modes.shape == (0, 3)
        assert search.basin_seeds.shape == (0,)
        assert search.dropped_seeds == 2

    def test_equal_basins_keep_the_earliest_seed_first(self):
        rng = np.random.default_rng(3)
        a = _bundle(rng, _unit([1, 0, 0]), 20, 0.01, 3)
        b = _bundle(rng, _unit([0, 1, 0]), 20, 0.01, 3)
        for x, first in ((np.concatenate([a, b]), 0), (np.concatenate([b, a]), 1)):
            search = mean_shift_modes(x, VmfConfig(kappa=50.0))
            np.testing.assert_array_equal(search.basin_seeds, [20, 20])
            assert np.argmax(search.modes[0]) == first

    def test_isotropic_directions_chain_into_one_mode(self):
        # directions spread over the whole sphere: with a merge tolerance
        # near the right angle, single linkage chains everything together
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((300, 8))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            cfg = VmfConfig(kappa=10.0, merge_tolerance=1.65, seed_stride=3)
            search = mean_shift_modes(x, cfg)
            assert search.modes.shape[0] == 1

    def test_planted_bundles_all_converge(self):
        x, _, _ = _planted(seed=0)
        assert mean_shift_modes(x, VmfConfig(kappa=10.0)).unconverged_seeds == 0

    def test_seeds_out_of_iterations_are_counted(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((200, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        search = mean_shift_modes(x, VmfConfig(kappa=10.0, max_iters=1, seed_stride=2))
        assert 0 < search.unconverged_seeds <= 100
        assert search.dropped_seeds == 0

    def test_counts_passes_and_row_updates(self):
        x, _, _ = _planted(seed=0)
        one = mean_shift_modes(x, VmfConfig(kappa=10.0, max_iters=1, seed_stride=2))
        assert (one.passes, one.row_updates) == (1, 90)
        full = mean_shift_modes(x, VmfConfig(kappa=10.0, seed_stride=2))
        # every seed converges before max_iters, and folding shrinks later passes
        assert 1 < full.passes < 100
        assert 90 + full.passes - 1 <= full.row_updates < 90 * full.passes


needs_openblas = pytest.mark.skipif(
    _blas._thread_functions() is None,
    reason="numpy loaded no OpenBLAS with a settable thread count",
)


def _threads():
    return _blas._thread_functions()[0]()


@pytest.fixture
def two_blas_threads():
    """Two OpenBLAS threads during the test, whatever the environment set."""
    get, put = _blas._thread_functions()
    before = get()
    put(2)
    yield
    put(before)


def _bundled_points(n, seed=0):
    """n unit points in 8-D around four directions, spread 0.3."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((4, 8))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    x = centers[rng.integers(0, 4, n)] + 0.3 * rng.standard_normal((n, 8))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@needs_openblas
@pytest.mark.usefixtures("two_blas_threads")
class TestBlasThreadPolicy:
    def test_single_thread_restores_count(self):
        with _blas.single_thread():
            assert _threads() == 1
        assert _threads() == 2

    def test_single_thread_restores_count_after_exception(self):
        with pytest.raises(KeyError):
            with _blas.single_thread():
                assert _threads() == 1
                raise KeyError("body failed")
        assert _threads() == 2

    def test_no_op_without_openblas(self, monkeypatch):
        get, _ = _blas._thread_functions()
        monkeypatch.setattr(_blas, "_thread_functions", lambda: None)
        with _blas.single_thread():
            assert get() == 2
        assert get() == 2

    # Every search runs on one thread, whatever its size and stride.
    @pytest.mark.parametrize("n, stride", [(3000, 1), (5000, 2)])
    def test_search_runs_on_one_thread(self, monkeypatch, n, stride):
        seen = []

        def recording(cur, a, kappa):
            seen.append(_threads())
            return _kernel_sums(cur, a, kappa)

        monkeypatch.setattr(clustering, "_kernel_sums", recording)
        mean_shift_modes(_bundled_points(n), VmfConfig(seed_stride=stride, merge_tolerance=0.5))
        assert seen and set(seen) == {1}
        assert _threads() == 2

    def test_every_stride_one_pass_runs_on_one_thread(self):
        seen = []

        def recording(fn):
            def call(*args):
                seen.append((fn.__name__, _threads()))
                return fn(*args)
            return call

        x = _bundled_points(5000, seed=6)
        cfg = VmfConfig(merge_tolerance=0.5, max_iters=3)
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_kernel_sums", "_finish_rows"):
                mp.setattr(clustering, name, recording(getattr(clustering, name)))
            two = mean_shift_modes(x, cfg)
        assert two.passes > 1
        assert [name for name, _ in seen] == ["_kernel_sums", "_finish_rows"] * two.passes
        assert {threads for _, threads in seen} == {1}
        assert _threads() == 2
        with _blas.single_thread():
            one = mean_shift_modes(x, cfg)
        assert one.modes.tobytes() == two.modes.tobytes()
        np.testing.assert_array_equal(one.basin_seeds, two.basin_seeds)
        assert (one.dropped_seeds, one.unconverged_seeds, one.passes, one.row_updates) == (
            two.dropped_seeds, two.unconverged_seeds, two.passes, two.row_updates)

    @pytest.mark.parametrize("n", [3000, 4133])  # 4133: not a multiple of 32
    def test_result_ignores_the_callers_count(self, n):
        x = _bundled_points(n, seed=4)
        cfg = VmfConfig(seed_stride=5, merge_tolerance=0.5)
        two = mean_shift_modes(x, cfg)
        with _blas.single_thread():
            one = mean_shift_modes(x, cfg)
        assert one.modes.tobytes() == two.modes.tobytes()
        np.testing.assert_array_equal(one.basin_seeds, two.basin_seeds)


def _bundle_set(rng, d):
    """One to four bundles of 20 to 199 points, spreads 0.02 to 0.3, shuffled."""
    parts = [
        _bundle(rng, _unit(rng.standard_normal(d)), int(rng.integers(20, 200)),
                float(rng.uniform(0.02, 0.3)), d)
        for _ in range(rng.integers(1, 5))
    ]
    x = np.concatenate(parts)
    return x[rng.permutation(x.shape[0])]


class TestSeedCollapse:
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_matches_uncollapsed_oracle(self, d):
        # Folded seeds move the modes slightly (largest angle to the
        # oracle's over these 36 cases: 1.1e-3 rad), but not the partition.
        for seed in range(12):
            rng = np.random.default_rng(1000 * d + seed)
            x = _bundle_set(rng, d)
            cfg = VmfConfig(
                kappa=float(rng.choice([10.0, 50.0])),
                merge_tolerance=float(rng.choice([0.1, 0.3])),
                seed_stride=int(rng.integers(1, 4)),
            )
            got = mean_shift_modes(x, cfg)
            modes, basin, dropped, _ = oracle_mean_shift(
                x, cfg.kappa, cfg.max_iters, cfg.shift_tolerance, cfg.merge_tolerance,
                cfg.seed_stride)
            mask = _full_mask(1, x.shape[0])
            np.testing.assert_array_equal(
                assign_to_modes(x, mask, got.modes, cfg).instances.values,
                assign_to_modes(x, mask, modes, cfg).instances.values,
            )
            np.testing.assert_array_equal(got.basin_seeds, basin)
            assert got.dropped_seeds == dropped
            # every strided seed ends in exactly one basin or is dropped
            assert int(got.basin_seeds.sum()) + got.dropped_seeds == len(x[:: cfg.seed_stride])

    def test_fold_is_greedy_leader_scan(self):
        # rows 0.004 rad apart with a 0.01 rad fold: each kept row takes the
        # next two, so every third row is kept; rows 64 and 65 open the
        # second block and join row 63, kept in the first
        theta = 0.004 * np.arange(130)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weight = np.ones(130, dtype=np.int64)
        kept = _fold_rows(pts, np.arange(130), weight, np.cos(0.01))
        np.testing.assert_array_equal(kept, np.arange(0, 130, 3))
        np.testing.assert_array_equal(weight[kept], [3] * 43 + [1])
        assert weight.sum() == 130

    def test_fold_past_the_first_strip_matches_greedy_scan(self):
        # Leaders 0.004 rad apart on a circle, in shuffled order, with a
        # 0.003 rad fold: none folds into another, and the kept leaders span
        # two strips. The rows after them sit midway between two leaders
        # (they join the one kept first), 0.0005 rad from a leader past the
        # first strip, or beyond the last leader, where they lead or join
        # each other. No cosine lies within 1e-6 of the fold's.
        rng = np.random.default_rng(5)
        n_lead = _STRIP_COLUMNS + 476
        slot = rng.permutation(n_lead)  # leader i sits at angle 0.004 * slot[i]
        mid = 0.004 * rng.integers(0, n_lead - 1, 300) + 0.002
        late = 0.004 * slot[rng.integers(_STRIP_COLUMNS, n_lead, 300)]
        late += rng.choice([-0.0005, 0.0005], 300)
        beyond = 0.004 * n_lead + 0.0025 * rng.integers(0, 40, 100)
        theta = np.concatenate([0.004 * slot, rng.permutation(np.concatenate([mid, late, beyond]))])
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        start = rng.integers(1, 6, theta.size)
        weight, want_weight = start.copy(), start.copy()
        kept = _fold_rows(pts, np.arange(theta.size), weight, np.cos(0.003))
        want = oracle_fold_rows(pts, range(theta.size), want_weight, np.cos(0.003))
        np.testing.assert_array_equal(kept, want)
        np.testing.assert_array_equal(weight, want_weight)
        # rows did join leaders that only the second strip holds
        assert (weight[_STRIP_COLUMNS:n_lead] > start[_STRIP_COLUMNS:n_lead]).sum() > 100

    def test_memory_bounded_by_point_copies(self):
        # Four broad bundles in D = 9 that the fold shrinks over several
        # passes. Folding each 64-row block against all kept rows at once
        # would take 64 x 8192 doubles, 7 times the point matrix, on top of
        # the search's own copies. After one pass no seed has converged, so
        # all 8192 rows reach the merge, which must stay as small.
        rng = np.random.default_rng(23)
        x = np.concatenate([_bundle(rng, c, 2048, 0.2, 9) for c in np.eye(9)[:4]])
        for max_iters, n_modes in ((100, 4), (1, 581)):
            tracemalloc.start()
            try:
                search = mean_shift_modes(x, VmfConfig(max_iters=max_iters))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert search.basin_seeds.size == n_modes and search.basin_seeds.sum() == 8192
            assert peak < 8 * x.nbytes, max_iters

    def test_memory_bounded_by_block_rows(self):
        # 20000 seeds and points in D = 8: one dense seeds x points kernel
        # matrix alone would take 20000^2 * 8 bytes = 3.2 GB
        rng = np.random.default_rng(13)
        x = np.concatenate([_bundle(rng, c, 5000, 0.01, 8) for c in np.eye(8)[:4]])
        tracemalloc.start()
        try:
            search = mean_shift_modes(x, VmfConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(search.basin_seeds, [5000] * 4)
        assert peak < 64 * 2**20


def _endpoint_set(rng, d, tol):
    """Bundles, chains and stray singletons, with no angle within 1e-6 of tol.

    Bundles of more than 64 rows make a frontier span several blocks; chains
    step below tol along a great circle out of a bundle's center, so they
    link only transitively and often only to a few rows of that bundle.
    Rows closer to the tol boundary than 1e-6 rad are dropped: blocked and
    full matrix products may differ in the last bit there.
    """
    parts = []
    centers = []
    for _ in range(rng.integers(1, 4)):
        centers.append(_unit(rng.standard_normal(d)))
        parts.append(_bundle(rng, centers[-1], int(rng.integers(5, 150)), 0.2 * tol, d))
    for _ in range(rng.integers(0, 3)):
        basis = np.column_stack([centers[rng.integers(len(centers))], rng.standard_normal(d)])
        u, v = np.linalg.qr(basis)[0].T
        steps = rng.uniform(0.5 * tol, 0.95 * tol, size=int(rng.integers(3, 30)))
        theta = np.cumsum(steps)
        parts.append(np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v)
    parts.append(np.stack([_unit(rng.standard_normal(d)) for _ in range(rng.integers(1, 20))]))
    x = np.concatenate(parts)[rng.permutation(sum(p.shape[0] for p in parts))]
    ang = np.arccos(np.clip(x @ x.T, -1.0, 1.0))
    keep = np.ones(x.shape[0], dtype=bool)
    for i, j in zip(*np.nonzero(np.triu(np.abs(ang - tol) < 1e-6, 1))):
        if keep[i] and keep[j]:
            keep[j] = False
    return x[keep]


class TestSingleLinkage:
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_matches_dense_oracle(self, d):
        for seed in range(12):
            rng = np.random.default_rng(100 * d + seed)
            tol = float(rng.choice([0.05, 0.1, 0.3]))
            x = _endpoint_set(rng, d, tol)
            np.testing.assert_array_equal(_single_linkage(x, tol), oracle_single_linkage(x, tol))

    def test_chain_links_transitively(self):
        theta = 0.09 * np.arange(60)  # 5.31 rad: the ends stay far apart
        x = np.stack([np.cos(theta), np.sin(theta), np.zeros(60)], axis=1)
        np.testing.assert_array_equal(_single_linkage(x, 0.1), np.zeros(60, dtype=np.int64))
        np.testing.assert_array_equal(_single_linkage(x, 0.05), np.arange(60))

    def test_every_frontier_block_is_expanded(self):
        # rows 1..100 fan out from row 0 up to 0.04 rad and form one frontier;
        # the last row, at 0.1305 rad, is within 0.1 only of rows 77..100,
        # which lie in the frontier's second block of 64
        theta = np.concatenate([0.0004 * np.arange(101), [0.1305]])
        x = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        np.testing.assert_array_equal(_single_linkage(x, 0.1), np.zeros(102, dtype=np.int64))

    def test_components_numbered_by_first_row(self):
        e = np.eye(3)
        x = e[[2, 0, 2, 1, 0]]
        np.testing.assert_array_equal(_single_linkage(x, 0.1), [0, 1, 0, 2, 1])

    def test_memory_bounded_by_block_rows(self):
        # four tight bundles of 5000 endpoints in D = 8: a dense angle matrix
        # alone would take 20000^2 * 8 bytes = 3.2 GB, and a copy of the
        # unlabelled rows with a 64-row block against all of them 13 times
        # the rows themselves
        rng = np.random.default_rng(13)
        centers = np.eye(8)[:4]
        x = np.concatenate([_bundle(rng, c, 5000, 0.01, 8) for c in centers])
        tracemalloc.start()
        try:
            comp = _single_linkage(x, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(comp, np.repeat(np.arange(4), 5000))
        assert peak < 2 * x.nbytes


class TestAssignment:
    def test_planted_assignment_matches_truth(self):
        x, truth, centers = _planted(seed=0)
        h, w = 12, 15  # 180 = 3 * 60 points
        cfg = VmfConfig(kappa=10.0)
        search = mean_shift_modes(x, cfg)
        result = assign_to_modes(x, _full_mask(h, w), search.modes, cfg)
        assert result.num_clusters == 3
        got = result.instances.values.ravel()
        # same partition: each planted cluster maps to exactly one mode
        for t in range(3):
            assert len(set(got[truth == t].tolist())) == 1
        assert int(result.basin_pixels.sum()) == 180
        np.testing.assert_array_equal(result.basin_pixels, np.bincount(got)[1:])

    def test_runt_cluster_dissolves(self):
        rng = np.random.default_rng(6)
        a = _bundle(rng, _unit([1, 0, 0.2]), 30, 0.01, 3)
        b = _bundle(rng, _unit([0, 1, 0.2]), 30, 0.01, 3)
        runt = _bundle(rng, _unit([0.1, 0, -1]), 5, 0.01, 3)
        x = np.concatenate([a, b, runt])
        cfg = VmfConfig(kappa=50.0, min_cluster_pixels=16)
        search = mean_shift_modes(x, cfg)
        assert search.modes.shape[0] == 3
        result = assign_to_modes(x, _full_mask(1, 65), search.modes, cfg)
        assert result.num_clusters == 2
        assert np.all(result.instances.values >= 1)
        assert int(result.basin_pixels.sum()) == 65
        # dissolved points go to the angularly nearest survivor
        runt_assign = result.instances.values.ravel()[60:]
        want = np.argmax(runt @ result.modes.T, axis=1) + 1
        np.testing.assert_array_equal(runt_assign, want)

    def test_no_survivor_leaves_everything_unassigned(self):
        rng = np.random.default_rng(7)
        x = _bundle(rng, _unit([1, 1, 1]), 10, 0.01, 3)
        cfg = VmfConfig(kappa=50.0, min_cluster_pixels=16)
        search = mean_shift_modes(x, cfg)
        result = assign_to_modes(x, _full_mask(2, 5), search.modes, cfg)
        assert result.num_clusters == 0
        assert result.basin_pixels.shape == (0,)
        assert np.all(result.instances.values == 0)

    def test_zero_modes_leave_everything_unassigned(self):
        # what mean shift returns when every seed was dropped
        rng = np.random.default_rng(8)
        x = _bundle(rng, _unit([1, 0, 0]), 6, 0.01, 3)
        result = assign_to_modes(x, _full_mask(2, 3), np.zeros((0, 3)), VmfConfig())
        assert result.num_clusters == 0
        assert result.modes.shape == (0, 3)
        assert result.basin_pixels.shape == (0,)
        assert np.all(result.instances.values == 0)

    def test_mode_without_pixels_dissolves_at_zero_minimum(self):
        # the second mode is antipodal to every point, so it wins no pixel
        x = _bundle(np.random.default_rng(5), _unit([1, 0, 0]), 6, 0.01, 3)
        modes = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        result = assign_to_modes(x, _full_mask(2, 3), modes, VmfConfig(min_cluster_pixels=0))
        assert result.num_clusters == 1
        np.testing.assert_array_equal(result.basin_pixels, [6])
        assert np.all(result.instances.values == 1)

    def test_background_pixels_stay_zero(self):
        x, _, _ = _planted(seed=0, n_per=20)
        # place the 60 points into a 10x10 grid, leaving 40 background cells
        mask = np.zeros(100, dtype=np.uint8)
        mask[:60] = 1
        cfg = VmfConfig(kappa=10.0, min_cluster_pixels=4)
        search = mean_shift_modes(x, cfg)
        result = assign_to_modes(x, BinaryMask(mask.reshape(10, 10)), search.modes, cfg)
        flat = result.instances.values.ravel()
        assert np.all(flat[60:] == 0)
        assert np.all(flat[:60] >= 1)

    def test_scatters_rows_to_mask_pixels_in_row_major_order(self):
        mask = np.zeros((3, 4), dtype=np.uint8)
        mask[0, 2] = mask[1, 0] = mask[2, 3] = 1
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        modes = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = assign_to_modes(x, BinaryMask(mask), modes, VmfConfig(min_cluster_pixels=1))
        want = np.zeros((3, 4))
        want[0, 2], want[1, 0], want[2, 3] = 1, 2, 1
        np.testing.assert_array_equal(result.instances.values, want)

    def test_row_count_must_match_mask(self):
        x = _bundle(np.random.default_rng(5), _unit([1, 0, 0]), 6, 0.01, 3)
        mask = np.ones((2, 4), dtype=np.uint8)
        with pytest.raises(ValueError) as err:
            assign_to_modes(x, BinaryMask(mask), np.eye(3)[:1], VmfConfig())
        assert "6" in str(err.value) and "8" in str(err.value)


def _lifted(v, lift):
    """The contract of flatten_foreground for one raw vector: [v, lift], unit."""
    row = np.append(v, lift)
    return row / np.linalg.norm(row)


class TestFlattenForeground:
    def test_row_major_order_and_index(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((3, 4, 2))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        emb = EmbeddingField(v)
        mask = np.zeros((3, 4), dtype=np.uint8)
        mask[0, 2] = mask[1, 0] = mask[2, 3] = 1
        x = flatten_foreground(emb, BinaryMask(mask), 0.5)
        assert x.shape == (3, 3)
        np.testing.assert_allclose(x[0], _lifted(v[0, 2], 0.5))
        np.testing.assert_allclose(x[1], _lifted(v[1, 0], 0.5))
        np.testing.assert_allclose(x[2], _lifted(v[2, 3], 0.5))

    def test_empty_mask_raises(self):
        emb = EmbeddingField(np.ones((2, 2, 2)) / np.sqrt(2))
        with pytest.raises(EmptyForeground):
            flatten_foreground(emb, BinaryMask(np.zeros((2, 2), dtype=np.uint8)))

    def test_rows_are_unit_and_keep_direction(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((5, 6, 4)) * 3.0
        x = flatten_foreground(EmbeddingField(v), _full_mask(5, 6), 0.5)
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-12)
        want = np.stack([_lifted(row, 0.5) for row in v.reshape(-1, 4)])
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-12)
        x = flatten_foreground(EmbeddingField(np.full((1, 1, 2), 3.0)), _full_mask(1, 1), 0.5)
        np.testing.assert_allclose(x[0], np.array([3.0, 3.0, 0.5]) / np.sqrt(18.25), rtol=1e-12)

    def test_default_lift_is_the_default_delta_v(self):
        v = np.random.default_rng(1).standard_normal((3, 3, 2))
        emb, mask = EmbeddingField(v), _full_mask(3, 3)
        np.testing.assert_array_equal(
            flatten_foreground(emb, mask),
            flatten_foreground(emb, mask, DiscriminativeConfig().delta_v),
        )

    def test_zero_lift_keeps_plain_directions(self):
        v = np.random.default_rng(2).standard_normal((2, 3, 4))
        x = flatten_foreground(EmbeddingField(v), _full_mask(2, 3), 0.0)
        rows = v.reshape(-1, 4)
        np.testing.assert_allclose(x[:, :4], rows / np.linalg.norm(rows, axis=1)[:, None],
                                   rtol=1e-15)
        np.testing.assert_array_equal(x[:, 4], 0.0)

    @pytest.mark.parametrize("lift", [-0.5, float("nan"), float("inf")])
    def test_bad_lift_rejected(self, lift):
        with pytest.raises(ValueError):
            flatten_foreground(EmbeddingField(np.ones((2, 2, 2))), _full_mask(2, 2), lift)

    def test_zero_vector_raises(self):
        v = np.ones((2, 2, 3))
        v[0, 1] = 0.0
        with pytest.raises(DegenerateVector):
            flatten_foreground(EmbeddingField(v), _full_mask(2, 2))

    def test_unnormalized_field_rejected(self):
        # rows of norm 1e-13 are not zero, but too short to scale to unit norm
        emb = EmbeddingField(np.full((2, 2, 2), 1e-13 / np.sqrt(2)))
        with pytest.raises(DegenerateVector):
            flatten_foreground(emb, _full_mask(2, 2))
        x = flatten_foreground(EmbeddingField(np.full((2, 2, 2), 1e-11)), _full_mask(2, 2), 0.5)
        np.testing.assert_allclose(x, np.tile(_lifted([1e-11, 1e-11], 0.5), (4, 1)), rtol=1e-15)

    def test_zero_vector_outside_mask_ignored(self):
        v = np.ones((2, 2, 3))
        v[0, 1] = 0.0
        mask = np.ones((2, 2), dtype=np.uint8)
        mask[0, 1] = 0
        x = flatten_foreground(EmbeddingField(v), BinaryMask(mask), 0.5)
        np.testing.assert_allclose(x, np.tile(_lifted(np.ones(3), 0.5), (3, 1)), rtol=1e-15)


class TestClusterField:
    def _field_from_points(self, x, h, w):
        v = x.reshape(h, w, x.shape[1])
        return EmbeddingField(v)

    def test_end_to_end_recovery(self):
        x, truth, _ = _planted(seed=0)
        emb = self._field_from_points(x, 12, 15)
        mask = BinaryMask(np.ones((12, 15), dtype=np.uint8))
        result, _ = cluster_field(emb, mask, VmfConfig(kappa=10.0))
        assert result.num_clusters == 3
        got = result.instances.values.ravel()
        for t in range(3):
            assert len(set(got[truth == t].tolist())) == 1

    def test_unnormalized_input_normalized_internally(self):
        x, _, _ = _planted(seed=0)
        emb_raw = EmbeddingField(3.5 * x.reshape(12, 15, 4))
        mask = BinaryMask(np.ones((12, 15), dtype=np.uint8))
        a, _ = cluster_field(emb_raw, mask, VmfConfig(kappa=10.0))
        b, _ = cluster_field(self._field_from_points(x, 12, 15), mask, VmfConfig(kappa=10.0))
        assert a.num_clusters == b.num_clusters
        np.testing.assert_array_equal(a.instances.values, b.instances.values)

    @pytest.mark.parametrize("seed", [2, 12])
    def test_cli_drops_modes_that_win_no_pixel(self, tmp_path, seed):
        # random 8x8x3 fields where merge_tolerance 0.02 leaves modes that no
        # pixel is nearest to; even at min_cluster_pixels 0 they must be
        # dissolved, since every predicted instance gets a box
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"cluster": {"kappa": 3.0, "merge_tolerance": 0.02, "min_cluster_pixels": 0}}
        ))
        fileio.write_embf(tmp_path / "emb.embf",
                          np.random.default_rng(seed).standard_normal((8, 8, 3)))
        fileio.write_mask(tmp_path / "mask.pgm", BinaryMask(np.ones((8, 8), dtype=np.uint8)))
        rc = main(["cluster", "--config", str(cfg), "--embeddings", str(tmp_path / "emb.embf"),
                   "--mask", str(tmp_path / "mask.pgm"), "--out", str(tmp_path / "out")])
        assert rc == 0
        basin = json.loads((tmp_path / "out" / "modes.json").read_text())["basin_pixels"]
        assert basin and min(basin) >= 1
        assert sum(basin) == 64


def _all_seeds_instances(emb, mask, cfg):
    """The instance map of the search that shifts every strided seed."""
    x = flatten_foreground(emb, mask)
    return assign_to_modes(x, mask, mean_shift_modes(x, cfg).modes, cfg).instances.values


def _two_blobs(spread, separation, origin, seed=0, h=16, w=16, d=8):
    """Two blobs of raw embeddings, separation apart, centred origin from zero."""
    rng = np.random.default_rng(seed)
    half = np.zeros(d)
    half[1] = separation / 2
    centre = np.zeros(d)
    centre[0] = origin
    side = np.where(rng.integers(0, 2, (h * w, 1)) == 1, half, -half)
    v = centre + side + spread * rng.standard_normal((h * w, d))
    return EmbeddingField(v.reshape(h, w, d)), _full_mask(h, w)


class TestCaptureFold:
    def _check(self, emb, mask, cfg):
        result, search = cluster_field(emb, mask, cfg)
        want = _all_seeds_instances(emb, mask, cfg)
        np.testing.assert_array_equal(result.instances.values, want)
        # every strided seed ends in exactly one basin or is dropped
        seeds = -(-mask.count() // cfg.seed_stride)
        assert int(search.basin_seeds.sum()) + search.dropped_seeds == seeds
        return result, search

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("spread, separation, origin, refused", [
        # Both blobs lie within delta_d, so one capture takes them together.
        # Raw group radius is about 0.45 and 0.3, so a radius check would
        # pass the fold, and the unchecked fold finds one instance.
        (0.03, 0.9, 0.5, 1),
        (0.06, 0.6, 0.0, 1),
        # far apart: each blob is its own group and its fold stands
        (0.05, 3.5, 1.0, 0),
    ])
    def test_two_blobs_match_the_all_seeds_search(self, spread, separation, origin, refused,
                                                 stride):
        emb, mask = _two_blobs(spread, separation, origin)
        result, search = self._check(emb, mask, VmfConfig(seed_stride=stride))
        assert result.num_clusters == 2
        assert search.capture_groups == 2 - refused
        assert search.unconfirmed_groups == refused
        assert search.merged_captures == 0

    @pytest.mark.parametrize("width, instances, layout, seed, cfg", [
        # dense-128 and staged-96 at benchmark seed 1
        (128, 4, "parallel_stripes", 1000, VmfConfig()),
        (96, 3, "curved_bands", 1000, VmfConfig(seed_stride=2)),
    ])
    def test_benchmark_fields_match_the_all_seeds_search(
        self, width, instances, layout, seed, cfg
    ):
        scene = gen_scene(SceneConfig(width=width, height=width, num_instances=instances,
                                      layout=layout, seed=seed))
        trace = optimize_embeddings(scene.labels, 8, DiscriminativeConfig(),
                                    OptimizerConfig(seed=seed))
        result, search = self._check(trace.final, scene.drivable_mask, cfg)
        assert result.num_clusters == search.capture_groups == instances
        assert (search.unconfirmed_groups, search.merged_captures) == (0, 0)
        # one row per instance and its check rows, not one per seed
        assert search.row_updates < 10 * instances * search.passes

    def test_criterion_three_fields_match_the_all_seeds_search(self):
        cfg = VmfConfig(kappa=10.0, merge_tolerance=1.65, seed_stride=5)
        for i in range(8):
            layout = LAYOUTS[(i // 4) % len(LAYOUTS)]
            scene = gen_scene(SceneConfig(num_instances=1 + i % 4, layout=layout, seed=i))
            trace = optimize_embeddings(
                scene.labels, 8, DiscriminativeConfig(),
                OptimizerConfig(step_size=40.0, max_steps=300, loss_tolerance=1e-3, seed=i))
            self._check(trace.final, scene.drivable_mask, cfg)

    @pytest.mark.parametrize("scene_cfg, opt_cfg, cfg, settled_at", [
        # the one-instance 128 px stripes scene: its check rows, on the edge
        # of the loss's flat delta_v ball, settle after 51 passes
        (SceneConfig(width=128, height=128, num_instances=1, layout="parallel_stripes",
                     seed=11),
         OptimizerConfig(seed=11), VmfConfig(), 51),
        # small-scenes s00 of benchmark seed 147: its rows settle on pass 100
        (SceneConfig(num_instances=1, layout="parallel_stripes", seed=147000),
         OptimizerConfig(step_size=40.0, max_steps=300, loss_tolerance=1e-3, seed=147000),
         VmfConfig(kappa=10.0, merge_tolerance=1.65, seed_stride=5), 100),
    ], ids=["one-128-stripes", "small-147000"])
    def test_fold_stands_while_its_rows_still_move(self, scene_cfg, opt_cfg, cfg, settled_at):
        # A group whose rows end linked keeps its fold when max_iters runs
        # out first, and its seeds count as unconverged; refusing it would
        # shift every seed of the instance instead.
        scene = gen_scene(scene_cfg)
        trace = optimize_embeddings(scene.labels, 8, DiscriminativeConfig(), opt_cfg)
        full, _ = cluster_field(trace.final, scene.drivable_mask, cfg)
        seeds = -(-scene.drivable_mask.count() // cfg.seed_stride)
        for max_iters in (40, 99):
            short = dataclasses.replace(cfg, max_iters=max_iters)
            result, search = cluster_field(trace.final, scene.drivable_mask, short)
            assert (search.capture_groups, search.unconfirmed_groups) == (1, 0)
            assert search.unconverged_seeds == (seeds if max_iters < settled_at else 0)
            assert search.passes == min(max_iters, settled_at)
            np.testing.assert_array_equal(result.instances.values, full.instances.values)

    def test_capture_stops_at_one_sweep_per_seed(self):
        # On a field with no structure nearly every pixel is a group of its
        # own; past the budget the rest stay uncaptured and are shifted as
        # seeds of their own.
        v = np.random.default_rng(0).standard_normal((32, 32, 8))
        cfg = VmfConfig(seed_stride=4, max_iters=20)
        _, search = self._check(EmbeddingField(v), _full_mask(32, 32), cfg)
        assert 256 <= search.capture_sweeps < 256 + clustering._CAPTURE_SWEEPS + 1
        assert search.capture_groups < 256
        cap = _capture(v.reshape(-1, 8), 1.5, 0.5, budget=256)
        assert cap.sweeps == search.capture_sweeps and (cap.group == -1).any()
        assert cap.group.max() == len(cap.centres) - 1

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_radius_rejected(self, radius):
        emb, mask = _two_blobs(0.05, 3.5, 1.0)
        with pytest.raises(ValueError, match="radius"):
            cluster_field(emb, mask, VmfConfig(), radius=radius)

    def test_without_capture_the_search_is_unchanged(self):
        x, _, _ = _planted(seed=0)
        search = mean_shift_modes(x, VmfConfig(kappa=10.0))
        assert (search.capture_groups, search.unconfirmed_groups, search.capture_sweeps,
                search.merged_captures) == (0, 0, 0, 0)

    def test_capture_picks_the_lowest_unlabelled_row_and_labels_it(self):
        # Row 0 shifts through 1.27 and 1.95 onto the two clusters to its
        # right and ends at 2.05, past the radius, yet it joins the group
        # it started.
        x = np.concatenate([[0.0], np.full(10, 1.4), np.full(10, 2.7), np.full(5, 9.0)])
        raw = np.stack([x, np.zeros_like(x)], axis=1)[np.r_[0, 25, 1:25]]
        cap = _capture(raw, 1.5, 0.5, budget=100)
        assert cap.group[0] == 0 and np.all(cap.group[2:12] == 0) and np.all(cap.group[12:22] == 0)
        assert abs(cap.centres[0][0] / cap.centres[0][2] * 0.5 - 2.05) < 1e-12
        # the lowest row left unlabelled is picked next, and so on
        assert cap.group[1] == 1 and np.all(cap.group[22:] == 1)
        assert cap.group.max() == 1
        # each capture sweeps once, then until its set of rows stops changing
        assert cap.sweeps == 4 + 2

    def test_capture_groups_random_rows_in_pick_order(self):
        raw = np.random.default_rng(3).standard_normal((300, 3))
        cap = _capture(raw, 0.8, 0.5, budget=10**6)
        assert cap.group.min() == 0 and cap.centres.shape == (cap.group.max() + 1, 4)
        for g in range(cap.group.max() + 1):
            # group g holds the lowest row that no earlier group labelled
            assert cap.group[np.flatnonzero(cap.group >= g)[0]] == g
        np.testing.assert_allclose(np.linalg.norm(cap.centres, axis=1), 1.0, rtol=1e-12)


class TestConfigAndResultValidation:
    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            VmfConfig(kappa=0.0)

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            VmfConfig(seed_stride=0)

    def test_bad_merge_tolerance(self):
        with pytest.raises(ValueError):
            VmfConfig(merge_tolerance=0.0)

    def test_non_unit_mode_rejected(self):
        instances = LabelMap(np.ones((1, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="unit norm"):
            ClusterResult(np.array([[2.0, 0.0]]), instances)

    def test_out_of_range_assignment_rejected(self):
        # a label above the mode count
        instances = LabelMap(np.array([[1, 2]]))
        with pytest.raises(ValueError, match=r"exactly 1\.\.1"):
            ClusterResult(np.array([[1.0, 0.0]]), instances)

    def test_missing_label_rejected(self):
        # two modes, but no pixel carries label 1
        instances = LabelMap(np.array([[0, 2]]))
        with pytest.raises(ValueError, match=r"exactly 1\.\.2"):
            ClusterResult(np.array([[1.0, 0.0], [0.0, 1.0]]), instances)
