"""Synthetic scene generator invariants."""
import numpy as np
import pytest

from instance_embed import (
    InfeasibleLayout,
    LAYOUTS,
    SceneConfig,
    gen_scene,
)


def _min_cross_distance(labels: np.ndarray) -> float:
    """Brute-force minimum Euclidean distance between distinct instances."""
    ids = [int(v) for v in np.unique(labels) if v != 0]
    best = np.inf
    for i, a in enumerate(ids):
        pa = np.argwhere(labels == a).astype(np.float64)
        for b in ids[i + 1:]:
            pb = np.argwhere(labels == b).astype(np.float64)
            d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
            best = min(best, float(np.sqrt(d2.min())))
    return best


def _row_starts(labels: np.ndarray, ident: int) -> np.ndarray:
    """First column of an instance in every row (instances span all rows)."""
    hits = labels == ident
    assert hits.any(axis=1).all()
    return np.argmax(hits, axis=1)


class TestDeterminism:
    def test_same_config_same_scene(self):
        cfg = SceneConfig(num_instances=3, layout="fork", seed=11)
        s1 = gen_scene(cfg)
        s2 = gen_scene(cfg)
        np.testing.assert_array_equal(s1.labels.values, s2.labels.values)
        np.testing.assert_array_equal(s1.lane_mask.values, s2.lane_mask.values)
        assert s1.gt_boxes == s2.gt_boxes

    def test_seed_changes_scene(self):
        a = gen_scene(SceneConfig(num_instances=3, seed=0))
        b = gen_scene(SceneConfig(num_instances=3, seed=1))
        assert not np.array_equal(a.labels.values, b.labels.values)


class TestStructure:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_instance_count_and_drivable(self, layout, c):
        scene = gen_scene(SceneConfig(num_instances=c, layout=layout, seed=5))
        assert scene.labels.num_instances == c
        np.testing.assert_array_equal(np.unique(scene.labels.values), np.arange(c + 1))
        np.testing.assert_array_equal(
            scene.drivable_mask.values, (scene.labels.values != 0).astype(np.uint8)
        )

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_min_separation_at_least_gap(self, layout, seed, c):
        cfg = SceneConfig(num_instances=c, layout=layout, seed=seed, gap_pixels=3)
        scene = gen_scene(cfg)
        assert _min_cross_distance(scene.labels.values) >= cfg.gap_pixels

    @pytest.mark.parametrize("gap", [1, 2, 5])
    def test_other_gap_values_respected(self, gap):
        for layout in LAYOUTS:
            scene = gen_scene(SceneConfig(num_instances=2, layout=layout,
                                          seed=3, gap_pixels=gap))
            assert _min_cross_distance(scene.labels.values) >= gap

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_every_instance_covers_five_percent(self, layout, c):
        scene = gen_scene(SceneConfig(num_instances=c, layout=layout, seed=7))
        arr = scene.labels.values
        floor = 0.05 * arr.size
        for ident in range(1, c + 1):
            assert int((arr == ident).sum()) >= floor

    def test_instances_span_all_rows(self):
        for layout in LAYOUTS:
            scene = gen_scene(SceneConfig(num_instances=3, layout=layout, seed=1))
            arr = scene.labels.values
            for ident in (1, 2, 3):
                assert ((arr == ident).any(axis=1)).all()


class TestLanes:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_lanes_disjoint_from_instances(self, layout, c):
        scene = gen_scene(SceneConfig(num_instances=c, layout=layout, seed=2))
        overlap = scene.lane_mask.values & scene.drivable_mask.values
        assert overlap.sum() == 0
        assert scene.lane_mask.count() > 0

    def test_lane_rows_at_most_thickness(self):
        scene = gen_scene(SceneConfig(num_instances=2, seed=4, lane_thickness=2))
        runs = scene.lane_mask.values.sum(axis=1)
        # two bands produce one separator lane per row
        assert runs.max() <= 2


class TestLayoutShapes:
    def test_parallel_bands_are_straight(self):
        scene = gen_scene(SceneConfig(num_instances=3, layout="parallel_stripes", seed=9))
        for ident in (1, 2, 3):
            starts = _row_starts(scene.labels.values, ident)
            assert np.all(starts == starts[0])

    @pytest.mark.parametrize("seed", range(6))
    def test_fork_spreads_toward_top(self, seed):
        scene = gen_scene(SceneConfig(num_instances=2, layout="fork", seed=seed))
        arr = scene.labels.values
        s1 = _row_starts(arr, 1)
        s2 = _row_starts(arr, 2)
        spread = s2 - s1
        # bands share a trunk at the bottom and fan out going up
        assert spread[0] >= spread[-1]

    @pytest.mark.parametrize("seed", range(6))
    def test_curved_bands_shift_together(self, seed):
        scene = gen_scene(SceneConfig(num_instances=2, layout="curved_bands", seed=seed))
        arr = scene.labels.values
        s1 = _row_starts(arr, 1)
        s2 = _row_starts(arr, 2)
        assert np.all((s2 - s1) == (s2 - s1)[0])

    def test_curved_bands_actually_curve(self):
        seen_curve = False
        for seed in range(6):
            scene = gen_scene(SceneConfig(num_instances=2, layout="curved_bands",
                                          seed=seed, height=64, width=64))
            starts = _row_starts(scene.labels.values, 1)
            if len(set(starts.tolist())) > 1:
                seen_curve = True
        assert seen_curve


class TestBoxes:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_boxes_are_tight_bounds(self, layout):
        scene = gen_scene(SceneConfig(num_instances=3, layout=layout, seed=6))
        arr = scene.labels.values
        assert len(scene.gt_boxes.detections) == 3
        for i, det in enumerate(scene.gt_boxes.detections):
            ys, xs = np.nonzero(arr == i + 1)
            want = (float(xs.min()), float(ys.min()),
                    float(xs.max() + 1), float(ys.max() + 1))
            assert det.box == want
            assert det.class_id == 0
            assert det.score is None
        assert scene.gt_boxes.image_id == 0


class TestInfeasible:
    def test_too_many_bands_for_width(self):
        with pytest.raises(InfeasibleLayout):
            gen_scene(SceneConfig(width=10, height=16, num_instances=4, gap_pixels=5))

    def test_narrow_canvas(self):
        with pytest.raises(InfeasibleLayout):
            gen_scene(SceneConfig(width=7, height=16, num_instances=2, gap_pixels=5))

    def test_feasible_boundary_succeeds(self):
        # 2 bands of width 2 and a 2-column gap fit exactly into 6 columns
        scene = gen_scene(SceneConfig(width=6, height=8, num_instances=2, gap_pixels=3))
        assert scene.labels.num_instances == 2


class TestConfigValidation:
    def test_bad_layout(self):
        with pytest.raises(ValueError):
            SceneConfig(layout="spiral")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            SceneConfig(num_instances=0)
        with pytest.raises(ValueError):
            SceneConfig(num_instances=7)

    def test_bad_gap_and_thickness(self):
        with pytest.raises(ValueError):
            SceneConfig(gap_pixels=0)
        with pytest.raises(ValueError):
            SceneConfig(lane_thickness=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError):
            SceneConfig(seed=-1)
