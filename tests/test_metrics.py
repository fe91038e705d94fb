"""Segmentation, detection, and instance metrics against references."""
import numpy as np
import pytest

from instance_embed import (
    BinaryMask,
    Detection,
    DetectionSet,
    LabelMap,
    MAP_THRESHOLDS,
    NoGroundTruth,
    box_iou,
    detection_ap,
    detection_empty,
    detection_recall,
    instance_map50_empty,
    instance_map50_labels,
    map_50_95,
    pixel_accuracy,
    pixel_confusion,
    seg_iou,
    seg_iou_undefined,
)

from _oracles import (
    disjoint_boxes,
    jitter_box,
    oracle_ap,
    oracle_box_iou,
    oracle_instance_map50,
    oracle_recall,
)


def _det(box, cls=0, score=1.0):
    return Detection(tuple(float(v) for v in box), cls, score)


def _sets_to_pairs(sets):
    """Convert DetectionSets to the plain tuples the oracle consumes."""
    return [
        (s.image_id, [(d.box, d.class_id, d.score if d.score is not None else 1.0)
                      for d in s.detections])
        for s in sets
    ]


class TestPixelMetrics:
    def test_confusion_counts(self):
        pred = BinaryMask(np.array([[1, 1], [0, 0]], dtype=np.uint8))
        gt = BinaryMask(np.array([[1, 0], [1, 0]], dtype=np.uint8))
        c = pixel_confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
        assert c.total == 4

    def test_iou_closed_form(self):
        pred = BinaryMask(np.array([[1, 1, 0, 0]], dtype=np.uint8))
        gt = BinaryMask(np.array([[0, 1, 1, 0]], dtype=np.uint8))
        c = pixel_confusion(pred, gt)
        assert seg_iou(c) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert pixel_accuracy(c) == pytest.approx(0.5, rel=1e-12)

    def test_empty_vs_empty_convention(self):
        z = BinaryMask(np.zeros((2, 2), dtype=np.uint8))
        c = pixel_confusion(z, z)
        assert seg_iou(c) == 1.0
        assert seg_iou_undefined(c)
        assert pixel_accuracy(c) == 1.0

    def test_perfect_match(self):
        m = BinaryMask(np.array([[1, 0], [0, 1]], dtype=np.uint8))
        c = pixel_confusion(m, m)
        assert seg_iou(c) == 1.0
        assert not seg_iou_undefined(c)


class TestBoxIou:
    def test_one_seventh(self):
        assert box_iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1.0 / 7.0, rel=1e-12)

    def test_disjoint_zero(self):
        assert box_iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_identical_one(self):
        assert box_iou((1, 2, 4, 7), (1, 2, 4, 7)) == 1.0

    def test_touching_edges_zero(self):
        assert box_iou((0, 0, 2, 2), (2, 0, 4, 2)) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            a = tuple(np.sort(rng.uniform(0, 20, 2)).tolist()
                      + np.sort(rng.uniform(0, 20, 2)).tolist())
            a = (a[0], a[2], a[1], a[3])
            b = tuple(np.sort(rng.uniform(0, 20, 2)).tolist()
                      + np.sort(rng.uniform(0, 20, 2)).tolist())
            b = (b[0], b[2], b[1], b[3])
            assert box_iou(a, b) == pytest.approx(oracle_box_iou(a, b), abs=1e-12)


class TestDetectionApHandCases:
    def test_single_perfect_detection(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), score=None),))]
        pred = [DetectionSet((_det((0, 0, 4, 4), score=0.9),))]
        assert detection_ap(pred, gt, 0, 0.5) == 1.0

    def test_miss_below_threshold(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), score=None),))]
        pred = [DetectionSet((_det((10, 10, 14, 14), score=0.9),))]
        assert detection_ap(pred, gt, 0, 0.5) == 0.0

    def test_half_recall(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), score=None),
                            _det((10, 10, 14, 14), score=None)))]
        pred = [DetectionSet((_det((0, 0, 4, 4), score=0.9),))]
        assert detection_ap(pred, gt, 0, 0.5) == pytest.approx(0.5)

    def test_score_order_matters(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), score=None),))]
        # true positive outscores the false positive: perfect AP
        pred_hi = [DetectionSet((_det((0, 0, 4, 4), score=0.9),
                                 _det((10, 10, 14, 14), score=0.1)))]
        assert detection_ap(pred_hi, gt, 0, 0.5) == 1.0
        # false positive outscores it: precision at the match is 1/2
        pred_lo = [DetectionSet((_det((0, 0, 4, 4), score=0.1),
                                 _det((10, 10, 14, 14), score=0.9)))]
        assert detection_ap(pred_lo, gt, 0, 0.5) == pytest.approx(0.5)

    def test_equal_scores_keep_insertion_order(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), score=None),))]
        pred = [DetectionSet((_det((10, 10, 14, 14), score=0.5),
                              _det((0, 0, 4, 4), score=0.5)))]
        # the false positive is ranked first at the tie, so AP is 0.5
        assert detection_ap(pred, gt, 0, 0.5) == pytest.approx(0.5)

    def test_one_gt_matched_once(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), score=None),))]
        pred = [DetectionSet((_det((0, 0, 4, 4), score=0.9),
                              _det((0, 0, 4, 4), score=0.8)))]
        # the duplicate cannot match the same box again
        assert detection_ap(pred, gt, 0, 0.5) == 1.0

    def test_greedy_takes_highest_iou(self):
        # one prediction straddles two ground truths; it must consume the
        # better-overlapping one, leaving the other for the second prediction
        gt = [DetectionSet((_det((0, 0, 10, 10), score=None),
                            _det((9, 0, 17, 10), score=None)))]
        pred = [DetectionSet((_det((1, 0, 11, 10), score=0.9),
                              _det((9, 0, 17, 10), score=0.8)))]
        assert detection_ap(pred, gt, 0, 0.5) == 1.0

    def test_classes_isolated(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), cls=1, score=None),))]
        pred = [DetectionSet((_det((0, 0, 4, 4), cls=0, score=0.9),))]
        assert detection_ap(pred, gt, 1, 0.5) == 0.0
        assert detection_ap(pred, gt, 0, 0.5) == 0.0

    def test_images_isolated(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), score=None),), image_id=0)]
        pred = [DetectionSet((_det((0, 0, 4, 4), score=0.9),), image_id=1)]
        assert detection_ap(pred, gt, 0, 0.5) == 0.0

    def test_empty_conventions(self):
        assert detection_ap([], [], 0, 0.5) == 1.0
        gt = [DetectionSet((_det((0, 0, 4, 4), score=None),))]
        assert detection_ap([], gt, 0, 0.5) == 0.0
        pred = [DetectionSet((_det((0, 0, 4, 4), score=0.9),))]
        assert detection_ap(pred, [], 0, 0.5) == 0.0
        assert detection_empty([], [], 0)
        assert not detection_empty(pred, [], 0)

    def test_unscored_prediction_rejected(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), score=None),))]
        pred = [DetectionSet((_det((0, 0, 4, 4), score=None),))]
        with pytest.raises(ValueError):
            detection_ap(pred, gt, 0, 0.5)


class TestDetectionApAgainstOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_disjoint_scenes(self, seed):
        rng = np.random.default_rng(seed)
        gts = []
        preds = []
        for image_id in range(3):
            boxes = disjoint_boxes(rng, int(rng.integers(1, 5)))
            gts.append(DetectionSet(
                tuple(_det(b, cls=int(rng.integers(0, 2)), score=None) for b in boxes),
                image_id=image_id,
            ))
            dets = []
            for b in boxes:
                if rng.random() < 0.8:  # jittered copy of a true box
                    dets.append(_det(jitter_box(rng, b, 2.0),
                                     cls=int(rng.integers(0, 2)),
                                     score=float(rng.uniform(0.1, 1.0))))
            for _ in range(int(rng.integers(0, 3))):  # spurious
                w, h = rng.uniform(3, 10, 2)
                x0, y0 = rng.uniform(0, 80, 2)
                dets.append(_det((x0, y0, x0 + w, y0 + h),
                                 cls=int(rng.integers(0, 2)),
                                 score=float(rng.uniform(0.1, 1.0))))
            preds.append(DetectionSet(tuple(dets), image_id=image_id))
        pred_pairs, gt_pairs = _sets_to_pairs(preds), _sets_to_pairs(gts)
        for cls in (0, 1):
            for thr in (0.5, 0.6, 0.75, 0.9):
                got = detection_ap(preds, gts, cls, thr)
                want = oracle_ap(pred_pairs, gt_pairs, cls, thr)
                assert got == pytest.approx(want, abs=1e-12), (cls, thr)
        for thr in (0.5, 0.75):
            for score_thr in (0.0, 0.5, 0.8):
                got = detection_recall(preds, gts, [0, 1], thr, score_thr)
                want = oracle_recall(pred_pairs, gt_pairs, [0, 1], thr, score_thr)
                assert got == pytest.approx(want, abs=1e-12), (thr, score_thr)
        want_map = np.mean([
            np.mean([oracle_ap(pred_pairs, gt_pairs, cls, thr) for thr in MAP_THRESHOLDS])
            for cls in (0, 1)
        ])
        assert map_50_95(preds, gts, [0, 1]) == pytest.approx(want_map, abs=1e-12)


class TestMap5095:
    def test_thresholds_exact_floats(self):
        assert MAP_THRESHOLDS == tuple((50 + 5 * i) / 100.0 for i in range(10))
        assert MAP_THRESHOLDS[0] == 0.5 and MAP_THRESHOLDS[-1] == 0.95

    def test_exact_three_tenths(self):
        # pred against gt at IoU exactly 0.6: matched at thresholds
        # 0.50, 0.55, 0.60 and missed at the rest, so the mean is 0.30
        gt = [DetectionSet((_det((0, 0, 5, 4), score=None),))]
        pred = [DetectionSet((_det((0, 1, 5, 5), score=0.9),))]
        assert box_iou((0, 0, 5, 4), (0, 1, 5, 5)) == 0.6
        assert map_50_95(pred, gt, [0]) == 0.30

    def test_perfect_is_one(self):
        gt = [DetectionSet((_det((2, 2, 9, 9), score=None),))]
        pred = [DetectionSet((_det((2, 2, 9, 9), score=0.7),))]
        assert map_50_95(pred, gt, [0]) == 1.0

    def test_mean_over_classes(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), cls=0, score=None),
                            _det((10, 10, 14, 14), cls=1, score=None)))]
        pred = [DetectionSet((_det((0, 0, 4, 4), cls=0, score=0.9),))]
        # class 0 perfect (1.0), class 1 missed entirely (0.0)
        assert map_50_95(pred, gt, [0, 1]) == 0.5

    def test_empty_class_list_rejected(self):
        with pytest.raises(ValueError):
            map_50_95([], [], [])


class TestDetectionRecall:
    def test_two_of_three(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), score=None),
                            _det((10, 0, 14, 4), score=None),
                            _det((20, 0, 24, 4), score=None)))]
        pred = [DetectionSet((_det((0, 0, 4, 4), score=0.9),
                              _det((10, 0, 14, 4), score=0.8)))]
        assert detection_recall(pred, gt, [0], 0.5, 0.5) == pytest.approx(2.0 / 3.0)

    def test_score_threshold_filters(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), score=None),))]
        pred = [DetectionSet((_det((0, 0, 4, 4), score=0.3),))]
        assert detection_recall(pred, gt, [0], 0.5, 0.5) == 0.0
        assert detection_recall(pred, gt, [0], 0.5, 0.25) == 1.0
        assert detection_recall(pred, gt, [0], 0.5, 0.3) == 1.0  # the cutoff is inclusive

    def test_micro_average_over_classes(self):
        gt = [DetectionSet((_det((0, 0, 4, 4), cls=0, score=None),
                            _det((10, 0, 14, 4), cls=1, score=None),
                            _det((20, 0, 24, 4), cls=1, score=None)))]
        pred = [DetectionSet((_det((0, 0, 4, 4), cls=0, score=0.9),
                              _det((10, 0, 14, 4), cls=1, score=0.9)))]
        # 2 matches over 3 boxes pooled across classes
        assert detection_recall(pred, gt, [0, 1], 0.5, 0.5) == pytest.approx(2.0 / 3.0)

    def test_no_ground_truth_raises(self):
        pred = [DetectionSet((_det((0, 0, 4, 4), score=0.9),))]
        with pytest.raises(NoGroundTruth):
            detection_recall(pred, [], [0], 0.5, 0.5)


class TestInstanceMap50:
    def test_perfect_partition(self):
        arr = np.zeros((6, 6), dtype=np.int64)
        arr[:, :2] = 1
        arr[:, 4:] = 2
        m = LabelMap(arr)
        assert instance_map50_labels(m, m) == 1.0

    def test_ids_permuted_still_perfect(self):
        arr = np.zeros((6, 6), dtype=np.int64)
        arr[:, :2] = 1
        arr[:, 4:] = 2
        swapped = arr.copy()
        swapped[arr == 1] = 2
        swapped[arr == 2] = 1
        assert instance_map50_labels(LabelMap(swapped), LabelMap(arr)) == 1.0

    def test_one_of_two_found(self):
        arr = np.zeros((6, 6), dtype=np.int64)
        arr[:, :2] = 1
        arr[:, 4:] = 2
        pred = arr.copy()
        pred[arr == 2] = 0  # second instance never predicted
        got = instance_map50_labels(LabelMap(pred), LabelMap(arr))
        assert got == pytest.approx(0.5)

    def test_below_half_iou_fails(self):
        arr = np.zeros((4, 10), dtype=np.int64)
        arr[:, :6] = 1
        pred = np.zeros((4, 10), dtype=np.int64)
        pred[:, 4:6] = 1  # IoU 8/24 = 1/3 < 0.5
        assert instance_map50_labels(LabelMap(pred), LabelMap(arr)) == 0.0

    def test_empty_conventions(self):
        empty = LabelMap(np.zeros((2, 2), dtype=np.int64))
        nonempty = LabelMap(np.array([[0, 1], [0, 1]]))
        assert instance_map50_labels(empty, empty) == 1.0
        assert instance_map50_labels(nonempty, empty) == 0.0
        assert instance_map50_labels(empty, nonempty) == 0.0
        assert instance_map50_empty(0, 0)
        assert not instance_map50_empty(1, 0)

    def test_equal_sizes_rank_the_lower_label_first(self):
        gt = np.zeros((4, 8), dtype=np.int64)
        gt[:, :4] = 1
        miss_first = np.zeros((4, 8), dtype=np.int64)
        miss_first[:, :4] = 2  # the match carries the higher label
        miss_first[:, 4:] = 1  # a miss of the same size
        hit_first = np.where(miss_first > 0, 3 - miss_first, 0)
        # the miss ranks first, so precision at full recall is 1/2
        assert instance_map50_labels(LabelMap(miss_first), LabelMap(gt)) == 0.5
        assert instance_map50_labels(LabelMap(hit_first), LabelMap(gt)) == 1.0
        assert oracle_instance_map50(miss_first, gt) == 0.5

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        # random block partitions with dropped and split instances
        gt = np.zeros((12, 12), dtype=np.int64)
        n = int(rng.integers(1, 5))
        cols = np.sort(rng.choice(np.arange(1, 12), size=n, replace=False))
        prev = 0
        for i, c in enumerate(list(cols) + [12]):
            gt[:, prev:c] = i + 1 if i < n + 1 else 0
            prev = c
        pred = gt.copy()
        if rng.random() < 0.5 and n >= 1:
            pred[pred == 1] = 0  # drop one instance
        if rng.random() < 0.5:
            pred[:6][pred[:6] == 2] = n + 2  # split an instance in two
        got = instance_map50_labels(LabelMap(pred), LabelMap(gt))
        want = oracle_instance_map50(pred, gt)
        assert got == pytest.approx(want, abs=1e-12)
