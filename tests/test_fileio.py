"""Round trips and format edge cases for every file format."""
import json
import tracemalloc

import numpy as np
import pytest

from instance_embed import BinaryMask, FormatError, LabelMap
from instance_embed import fileio
from instance_embed.metrics import Detection, DetectionSet


class TestPgm:
    def test_mask_round_trip(self, tmp_path):
        mask = BinaryMask((np.arange(30).reshape(5, 6) % 3 == 0).astype(np.uint8))
        p = tmp_path / "m.pgm"
        fileio.write_mask(p, mask)
        back = fileio.read_mask(p)
        np.testing.assert_array_equal(back.values, mask.values)

    def test_mask_written_as_0_255(self, tmp_path):
        mask = BinaryMask(np.array([[0, 1]], dtype=np.uint8))
        p = tmp_path / "m.pgm"
        fileio.write_mask(p, mask)
        raw = p.read_bytes()
        assert raw.startswith(b"P5")
        assert raw[-2:] == bytes([0, 255])

    def test_labels_round_trip(self, tmp_path):
        lab = LabelMap(np.array([[0, 1, 2], [3, 3, 0]]))
        p = tmp_path / "l.pgm"
        fileio.write_labels(p, lab)
        back = fileio.read_labels(p)
        np.testing.assert_array_equal(back.values, lab.values)

    def test_labels_over_255_rejected(self, tmp_path):
        lab = LabelMap(np.array([[0, 300]]))
        with pytest.raises(FormatError):
            fileio.write_labels(tmp_path / "l.pgm", lab)

    def test_header_comments_tolerated(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([0, 7]))
        arr = fileio.read_pgm(p)
        np.testing.assert_array_equal(arr, [[0, 7]])

    def test_wrong_magic_raises(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FormatError):
            fileio.read_pgm(p)

    def test_truncated_body_raises(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n3 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(FormatError):
            fileio.read_pgm(p)

    def test_zero_maxval_raises(self, tmp_path):
        p = tmp_path / "zero.pgm"
        p.write_bytes(b"P5\n2 2\n0\n" + bytes(4))
        with pytest.raises(FormatError, match="zero.pgm.*maxval 0"):
            fileio.read_pgm(p)

    def test_pixel_above_maxval_raises(self, tmp_path):
        # Read as raw bytes this would be instance 5 in a file whose maxval is 1.
        p = tmp_path / "over.pgm"
        p.write_bytes(b"P5\n2 2\n1\n" + bytes([0, 5, 1, 1]))
        with pytest.raises(FormatError, match="over.pgm.*5.*maxval 1"):
            fileio.read_labels(p)


class TestEmbf:
    def test_round_trip_values(self, tmp_path):
        rng = np.random.default_rng(0)
        blob = rng.standard_normal((4, 5, 3)).astype(np.float32).astype(np.float64)
        p = tmp_path / "e.embf"
        fileio.write_embf(p, blob)
        back = fileio.read_embf(p)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, blob)

    def test_round_trip_of_a_strided_view(self, tmp_path):
        blob = np.arange(24, dtype=np.float64).reshape(3, 4, 2).transpose(1, 0, 2)
        p = tmp_path / "e.embf"
        fileio.write_embf(p, blob)
        np.testing.assert_array_equal(fileio.read_embf(p), blob)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "e.embf"
        fileio.write_embf(p, np.zeros((2, 3, 4)))
        raw = p.read_bytes()
        assert raw[:4] == b"EMBF"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 3
        assert int.from_bytes(raw[12:16], "little") == 4
        assert len(raw) == 16 + 2 * 3 * 4 * 4

    def test_write_takes_no_payload_sized_copies(self, tmp_path):
        # the float32 payload is the one copy a write needs; a bytes copy
        # of it, or of header + payload, would each add another
        blob = np.random.default_rng(1).standard_normal((256, 256, 8))
        p = tmp_path / "e.embf"
        payload_bytes = blob.size * 4
        tracemalloc.start()
        try:
            fileio.write_embf(p, blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * payload_bytes

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "e.embf"
        p.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(FormatError):
            fileio.read_embf(p)

    def test_values_beyond_float32_rejected(self, tmp_path):
        blob = np.full((1, 1, 1), 1e39)
        with pytest.raises(FormatError):
            fileio.write_embf(tmp_path / "e.embf", blob)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "e.embf"
        fileio.write_embf(p, np.zeros((2, 2, 2)))
        data = p.read_bytes()
        p.write_bytes(data[:-1])
        with pytest.raises(FormatError):
            fileio.read_embf(p)


class TestJson:
    def test_stable_bytes(self, tmp_path):
        obj = {"b": 2, "a": [1, 2], "c": {"z": 0.5, "y": None}}
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        fileio.write_json(p1, obj)
        fileio.write_json(p2, {"c": {"y": None, "z": 0.5}, "a": [1, 2], "b": 2})
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")

    def test_keys_sorted(self, tmp_path):
        p = tmp_path / "s.json"
        fileio.write_json(p, {"zeta": 1, "alpha": 2})
        text = p.read_text()
        assert text.index("alpha") < text.index("zeta")

    def test_parse_error_has_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"a": }\n')
        with pytest.raises(FormatError) as err:
            fileio.read_json(p)
        assert "line 1" in str(err.value)

    def test_deep_nesting_is_a_format_error(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000)
        with pytest.raises(FormatError, match="nested too deeply"):
            fileio.read_json(p)


class TestBoxes:
    def test_round_trip(self, tmp_path):
        sets = [
            DetectionSet(
                (
                    Detection((0.0, 1.0, 2.0, 3.0), 0, 0.9),
                    Detection((5.0, 5.0, 8.0, 9.0), 1, None),
                ),
                image_id=4,
            )
        ]
        p = tmp_path / "boxes.json"
        fileio.write_boxes(p, sets)
        back = fileio.read_boxes(p)
        assert len(back) == 1
        assert back[0].image_id == 4
        assert back[0].detections[0].box == (0.0, 1.0, 2.0, 3.0)
        assert back[0].detections[0].score == 0.9
        assert back[0].detections[1].score is None
        assert back[0].detections[1].class_id == 1

    @pytest.mark.parametrize(
        "image_id, det",
        [
            (0, {"box": [0, 0, 1, 1]}),
            (0, {"box": [0, 0, 1, 1], "class_id": 0.7}),
            (0, {"box": [0, 0, 1, 1], "class_id": "0"}),
            (0, {"box": [0, 0, 1, 1], "class_id": True}),
            (0, {"box": [0, 0, 1, 1], "class_id": 0, "score": True}),
            (1.9, {"box": [0, 0, 1, 1], "class_id": 0}),
        ],
        ids=["missing_class_id", "fractional_class_id", "string_class_id", "bool_class_id",
             "bool_score", "fractional_image_id"],
    )
    def test_missing_fields_rejected(self, tmp_path, image_id, det):
        p = tmp_path / "boxes.json"
        p.write_text(json.dumps([{"image_id": image_id, "detections": [det]}]))
        with pytest.raises(FormatError, match="detection set 0 is malformed"):
            fileio.read_boxes(p)
