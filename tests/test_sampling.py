"""Bilinear reads, deformable correlation, and receptive-field tracing."""
import numpy as np
import pytest

from instance_embed import (
    KernelGrid,
    LabelMap,
    OffsetField,
    OriginOnBackground,
    centroid_pull_score,
    deformable_sample,
    fit_offsets_to_centroid,
    trace_receptive_field,
    uniform_offsets,
)

from _oracles import oracle_bilinear, oracle_correlate


class TestKernelGrid:
    def test_taps_row_major(self):
        taps = KernelGrid(3).taps
        want = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
                (1, -1), (1, 0), (1, 1)]
        np.testing.assert_array_equal(taps, want)

    def test_k5_extent(self):
        taps = KernelGrid(5).taps
        assert taps.shape == (25, 2)
        assert taps.min() == -2 and taps.max() == 2

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            KernelGrid(4)


def bilinear_read(grid, y, x):
    """One bilinear read: a 1x1 kernel with weight 1 offset to (y, x) from (0, 0)."""
    return deformable_sample(grid, KernelGrid(1), [[y, x]], [1.0], (0, 0))


class TestBilinear:
    def test_integer_points_exact(self):
        rng = np.random.default_rng(0)
        grid = rng.standard_normal((5, 7))
        for y in range(5):
            for x in range(7):
                assert bilinear_read(grid, float(y), float(x)) == grid[y, x]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal((6, 6))
        for _ in range(20):
            y = float(rng.uniform(-2, 7))
            x = float(rng.uniform(-2, 7))
            assert bilinear_read(grid, y, x) == pytest.approx(
                oracle_bilinear(grid, y, x), abs=1e-12
            )

    def test_far_outside_is_zero(self):
        grid = np.ones((4, 4))
        assert bilinear_read(grid, -5.0, 2.0) == 0.0
        assert bilinear_read(grid, 2.0, 100.0) == 0.0

    def test_boundary_fades_linearly(self):
        grid = np.ones((4, 4))
        # half a pixel outside the edge: one neighbor row remains
        assert bilinear_read(grid, -0.5, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_linear_in_grid_values(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        y, x = 1.3, 2.7
        lhs = bilinear_read(2.0 * a + 3.0 * b, y, x)
        rhs = 2.0 * bilinear_read(a, y, x) + 3.0 * bilinear_read(b, y, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_continuity_small_steps(self):
        rng = np.random.default_rng(4)
        grid = rng.standard_normal((8, 8))
        bound = np.abs(np.diff(grid, axis=0)).max() + np.abs(np.diff(grid, axis=1)).max()
        y, x = 3.4, 4.6
        base = bilinear_read(grid, y, x)
        for eps in (1e-3, 1e-5):
            moved = bilinear_read(grid, y + eps, x)
            assert abs(moved - base) <= bound * eps + 1e-12


class TestDeformableSample:
    @pytest.mark.parametrize("seed", range(6))
    def test_zero_offsets_equal_plain_correlation(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal((7, 9))
        kernel = KernelGrid(3)
        weights = rng.standard_normal(9)
        offsets = np.zeros((9, 2))
        taps = [(int(t[0]), int(t[1])) for t in kernel.taps]
        for center in [(0, 0), (3, 4), (6, 8), (1, 7)]:
            got = deformable_sample(grid, kernel, offsets, weights, center)
            want = oracle_correlate(grid, taps, weights, center)
            assert got == pytest.approx(want, abs=1e-12)

    def test_integer_offsets_shift_taps(self):
        rng = np.random.default_rng(7)
        grid = rng.standard_normal((10, 10))
        kernel = KernelGrid(3)
        weights = np.zeros(9)
        weights[4] = 1.0  # center tap only
        offsets = np.zeros((9, 2))
        offsets[4] = [2.0, -1.0]
        got = deformable_sample(grid, kernel, offsets, weights, (5, 5))
        assert got == pytest.approx(grid[7, 4], abs=1e-12)

    def test_fractional_offset_blends(self):
        grid = np.zeros((3, 3))
        grid[1, 1] = 1.0
        grid[1, 2] = 3.0
        kernel = KernelGrid(1)
        got = deformable_sample(grid, kernel, np.array([[0.0, 0.5]]), np.array([1.0]), (1, 1))
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_wrong_shapes_rejected(self):
        grid = np.zeros((3, 3))
        kernel = KernelGrid(3)
        with pytest.raises(ValueError):
            deformable_sample(grid, kernel, np.zeros((4, 2)), np.zeros(9), (1, 1))
        with pytest.raises(ValueError):
            deformable_sample(grid, kernel, np.zeros((9, 2)), np.zeros(4), (1, 1))


class TestTrace:
    def test_leaf_counts_per_level(self):
        kernel = KernelGrid(3)
        counts = [
            trace_receptive_field([None] * levels, kernel, (10, 10)).points.shape
            for levels in (1, 2, 3)
        ]
        assert counts == [(9, 2), (81, 2), (729, 2)]

    def test_two_level_dilated_lattice(self):
        # two stacked 3x3 layers at stride 1 cover a 5x5 lattice with
        # separable multiplicities (1,2,3,2,1) per axis
        kernel = KernelGrid(3)
        trace = trace_receptive_field([None, None], kernel, (0, 0))
        leaves = trace.points
        uniq, counts = np.unique(leaves, axis=0, return_counts=True)
        assert uniq.shape[0] == 25
        assert uniq[:, 0].min() == -2 and uniq[:, 0].max() == 2
        per_axis = np.array([1, 2, 3, 2, 1], dtype=np.int64)
        want = np.outer(per_axis, per_axis)
        got = np.zeros((5, 5), dtype=np.int64)
        for (y, x), c in zip(uniq, counts):
            got[int(y) + 2, int(x) + 2] = c
        np.testing.assert_array_equal(got, want)

    def test_constant_offsets_translate_leaves(self):
        kernel = KernelGrid(3)
        base = trace_receptive_field([None], kernel, (4, 4))
        field = uniform_offsets(9, 9, np.full((9, 2), [0.5, -1.5]))
        moved = trace_receptive_field([field], kernel, (4, 4))
        np.testing.assert_allclose(moved.points, base.points + [0.5, -1.5], atol=1e-12)

    def test_offsets_interpolated_at_fractional_points(self):
        # layer-2 offsets push points to fractional coords; the layer-1
        # offset field must then be read bilinearly at those coords
        kernel = KernelGrid(1)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((6, 6, 1, 2))
        lvl1 = OffsetField(vals)
        push = uniform_offsets(6, 6, np.array([[0.5, 0.25]]))
        trace = trace_receptive_field([push, lvl1], kernel, (2, 3))
        mid = trace_receptive_field([push], kernel, (2, 3)).points[0]
        np.testing.assert_allclose(mid, [2.5, 3.25], atol=1e-12)
        want_dy = oracle_bilinear(vals[:, :, 0, 0], 2.5, 3.25)
        want_dx = oracle_bilinear(vals[:, :, 0, 1], 2.5, 3.25)
        np.testing.assert_allclose(
            trace.points[0], [2.5 + want_dy, 3.25 + want_dx], atol=1e-12
        )

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            trace_receptive_field([], KernelGrid(3), (0, 0))

    def test_points_read_only(self):
        trace = trace_receptive_field([None], KernelGrid(3), (0, 0))
        with pytest.raises(ValueError):
            trace.points[0, 0] = 5.0


class TestCentroidPullScore:
    def _labels(self):
        arr = np.zeros((9, 9), dtype=np.int64)
        arr[0:9, 0:4] = 1  # left slab
        arr[0:9, 6:9] = 2  # right slab
        return LabelMap(arr)

    def test_interior_origin_scores_one(self):
        labels = self._labels()
        trace = trace_receptive_field([None], KernelGrid(3), (4, 2))
        assert centroid_pull_score(trace, labels) == 1.0

    def test_boundary_origin_scores_fraction(self):
        labels = self._labels()
        # taps at column 4 fall off instance 1 (background), 3 of 9 miss
        trace = trace_receptive_field([None], KernelGrid(3), (4, 3))
        assert centroid_pull_score(trace, labels) == pytest.approx(6.0 / 9.0)

    def test_out_of_bounds_leaves_count_as_misses(self):
        labels = self._labels()
        trace = trace_receptive_field([None], KernelGrid(3), (0, 0))
        # row -1 and column -1 are outside: only the 2x2 in-bounds corner hits
        assert centroid_pull_score(trace, labels) == pytest.approx(4.0 / 9.0)

    def test_background_origin_raises(self):
        labels = self._labels()
        trace = trace_receptive_field([None], KernelGrid(3), (4, 5))
        with pytest.raises(OriginOnBackground):
            centroid_pull_score(trace, labels)

    def test_nearest_pixel_rounding(self):
        labels = self._labels()
        # fractional origin 0.4 rounds down to pixel 0; offset leaves at
        # +-0.6 from integer coordinates round to the adjacent pixel
        field = uniform_offsets(9, 9, np.full((1, 2), [0.0, 0.6]))
        trace = trace_receptive_field([field], KernelGrid(1), (4, 3))
        # leaf at column 3.6 rounds to column 4: background, score 0
        assert centroid_pull_score(trace, labels) == 0.0


class TestFitOffsets:
    def test_returns_constant_fields_shaped_like_labels(self):
        arr = np.zeros((15, 15), dtype=np.int64)
        arr[2:13, 9:14] = 1
        labels = LabelMap(arr)
        fields = fit_offsets_to_centroid(labels, (7, 11), KernelGrid(3), levels=2)
        assert len(fields) == 2
        for f in fields:
            assert f.height == 15 and f.width == 15 and f.taps == 9
            # spatially constant: every pixel carries the same pairs
            np.testing.assert_array_equal(
                f.values, np.broadcast_to(f.values[0, 0], f.values.shape)
            )

    def test_fit_raises_off_instance(self):
        arr = np.zeros((8, 8), dtype=np.int64)
        arr[2:6, 2:6] = 1
        with pytest.raises(OriginOnBackground):
            fit_offsets_to_centroid(LabelMap(arr), (0, 0), KernelGrid(3), levels=1)

    def test_fitted_offsets_improve_pull_score(self):
        arr = np.zeros((15, 15), dtype=np.int64)
        arr[2:13, 9:14] = 1
        labels = LabelMap(arr)
        origin = (7, 10)  # on the instance, near its left edge
        kernel = KernelGrid(3)
        before = centroid_pull_score(
            trace_receptive_field([None, None], kernel, origin), labels
        )
        fields = fit_offsets_to_centroid(labels, origin, kernel, levels=2)
        after = centroid_pull_score(
            trace_receptive_field(fields, kernel, origin), labels
        )
        assert after >= before
        assert after == 1.0

    def test_surrogate_converges_to_centroid_mean(self):
        # with enough steps the mean leaf position equals the centroid
        arr = np.zeros((12, 12), dtype=np.int64)
        arr[1:11, 7:12] = 1
        labels = LabelMap(arr)
        origin = (5, 8)
        kernel = KernelGrid(3)
        fields = fit_offsets_to_centroid(labels, origin, kernel, levels=2, steps=500)
        trace = trace_receptive_field(fields, kernel, origin)
        rows, cols = np.nonzero(arr)
        centroid = np.array([rows.mean(), cols.mean()])
        np.testing.assert_allclose(trace.points.mean(axis=0), centroid, atol=1e-6)

    def test_zero_steps_returns_zero_offsets(self):
        arr = np.zeros((6, 6), dtype=np.int64)
        arr[2:5, 2:5] = 1
        fields = fit_offsets_to_centroid(
            LabelMap(arr), (3, 3), KernelGrid(3), levels=1, steps=0
        )
        assert np.all(fields[0].values == 0.0)


class TestOffsetField:
    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            OffsetField(np.zeros((4, 4, 9)))

    def test_uniform_offsets_broadcast(self):
        pairs = np.arange(18, dtype=np.float64).reshape(9, 2)
        field = uniform_offsets(3, 5, pairs)
        assert field.height == 3 and field.width == 5 and field.taps == 9
        np.testing.assert_array_equal(field.values[2, 4], pairs)
