"""Container validation."""
import numpy as np
import pytest

from instance_embed import (
    BinaryMask,
    DimensionMismatch,
    EmbeddingField,
    LabelMap,
    OffsetField,
    validate_pair,
)


class TestEmbeddingField:
    def test_accepts_float_3d(self):
        f = EmbeddingField(np.zeros((4, 5, 3)))
        assert f.height == 4 and f.width == 5 and f.dim == 3

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            EmbeddingField(np.zeros((4, 5)))

    def test_rejects_nonfinite(self):
        v = np.zeros((2, 2, 2))
        v[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            EmbeddingField(v)
        v[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            EmbeddingField(v)

    def test_values_frozen(self):
        f = EmbeddingField(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0

    def test_copy_on_construct(self):
        src = np.zeros((2, 2, 2))
        f = EmbeddingField(src)
        src[0, 0, 0] = 7.0
        assert f.values[0, 0, 0] == 0.0


class TestLabelMap:
    def test_counts_distinct_nonzero(self):
        m = LabelMap(np.array([[0, 1], [3, 3]]))
        assert m.num_instances == 2

    def test_gap_ids_allowed_but_not_contiguous(self):
        # construction keeps the IDs as given; nothing renumbers them 1..C
        m = LabelMap(np.array([[0, 1], [3, 3]]))
        np.testing.assert_array_equal(m.values, [[0, 1], [3, 3]])

    def test_all_background_contiguous(self):
        m = LabelMap(np.zeros((3, 3), dtype=np.int64))
        assert m.num_instances == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LabelMap(np.array([[0, -1]]))

    def test_rejects_float(self):
        with pytest.raises(ValueError):
            LabelMap(np.array([[0.0, 1.0]]))


class TestMasks:
    def test_binary_mask_accepts_01(self):
        m = BinaryMask(np.array([[0, 1], [1, 0]], dtype=np.uint8))
        assert m.count() == 2

    def test_binary_mask_rejects_other_values(self):
        with pytest.raises(ValueError):
            BinaryMask(np.array([[0, 2]], dtype=np.uint8))

    def test_plane_rejects_extra_axis(self):
        for make, shape in [
            (LabelMap, (3, 4, 5)),
            (BinaryMask, (3, 4, 5)),
            (EmbeddingField, (3, 4, 2, 1)),
            (OffsetField, (3, 4, 9, 2, 1)),
        ]:
            with pytest.raises(ValueError, match=f"{make.__name__} values must be .*ndim"):
                make(np.zeros(shape, dtype=np.int64))

    def test_every_plane_reports_height_and_width(self):
        planes = [
            EmbeddingField(np.zeros((3, 4, 2))),
            LabelMap(np.zeros((3, 4), dtype=np.int64)),
            BinaryMask(np.zeros((3, 4), dtype=np.uint8)),
            OffsetField(np.zeros((3, 4, 9, 2))),
        ]
        assert [(p.height, p.width) for p in planes] == [(3, 4)] * 4

    def test_offset_field_rejects_zero_height(self):
        with pytest.raises(ValueError, match="OffsetField needs height >= 1 and width >= 1, got 0x3"):
            OffsetField(np.zeros((0, 3, 9, 2)))


class TestValidatePair:
    def test_matching_ok(self):
        a = BinaryMask(np.zeros((3, 4), dtype=np.uint8))
        b = LabelMap(np.zeros((3, 4), dtype=np.int64))
        validate_pair(a, b)

    def test_mismatch_raises_with_both_shapes(self):
        a = BinaryMask(np.zeros((3, 4), dtype=np.uint8))
        b = BinaryMask(np.zeros((4, 3), dtype=np.uint8))
        with pytest.raises(DimensionMismatch) as err:
            validate_pair(a, b)
        assert err.value.shape_a == (3, 4)
        assert err.value.shape_b == (4, 3)
        assert "(3, 4)" in str(err.value) and "(4, 3)" in str(err.value)
