"""File formats: binary PGM images, embedding-field blobs, and JSON.

Everything here is writable and readable with the standard library alone.
Writers are deterministic: the same value always produces the same bytes.

Formats
  masks/labels  binary PGM (P5, maxval 255). Masks store 0/255; any non-zero
                pixel reads back as foreground. Label and instance maps store
                raw IDs (0 = background), which caps IDs at 255.
  embeddings    "EMBF" blob: 4-byte magic, then u32 height, width, depth
                (little endian), then height*width*depth float32 values in
                row-major order.
  boxes/modes/  JSON with sorted keys and 2-space indentation.
  trace/metrics
"""
from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import BinaryMask, LabelMap
from .errors import FormatError
from .metrics import Detection, DetectionSet

_EMBF_MAGIC = b"EMBF"
MAX_LABEL = 255  # largest ID a label or instance PGM can hold


def write_pgm(path, values: np.ndarray) -> None:
    """Write a 2D uint array as binary (P5) PGM with maxval 255."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise FormatError(f"PGM needs a 2D array, got ndim {arr.ndim}")
    if arr.min() < 0 or arr.max() > 255:
        raise FormatError("values must lie in 0..255 to fit one byte per pixel")
    h, w = arr.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM into a uint8 array of shape (height, width)."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (missing P5 magic)")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with optional '#' comment lines
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise FormatError(f"{path}: truncated PGM header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            token = data[start:pos]
            if not token.isdigit():
                raise FormatError(f"{path}: bad PGM header token {token!r}")
            fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise FormatError(f"{path}: bad PGM dimensions {w}x{h}")
    if maxval < 1:
        raise FormatError(f"{path}: bad PGM maxval {maxval}")
    if maxval > 255:
        raise FormatError(f"{path}: 16-bit PGM not supported (maxval {maxval})")
    pixels = data[pos:]
    if len(pixels) != w * h:
        raise FormatError(f"{path}: expected {w * h} pixel bytes, found {len(pixels)}")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w).copy()
    if arr.max() > maxval:
        raise FormatError(f"{path}: pixel value {arr.max()} exceeds PGM maxval {maxval}")
    return arr


def write_mask(path, mask: BinaryMask) -> None:
    write_pgm(path, mask.values * np.uint8(255))


def read_mask(path) -> BinaryMask:
    return BinaryMask((read_pgm(path) != 0).astype(np.uint8))


def write_labels(path, labels: LabelMap) -> None:
    if labels.values.max(initial=0) > MAX_LABEL:
        raise FormatError(f"label IDs above {MAX_LABEL} do not fit 8-bit PGM")
    write_pgm(path, labels.values)


def read_labels(path) -> LabelMap:
    return LabelMap(read_pgm(path).astype(np.int64))


def write_embf(path, values: np.ndarray) -> None:
    """Write an (H, W, D) float array as an EMBF blob (float32 payload)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 3:
        raise FormatError(f"EMBF needs an (H, W, D) array, got ndim {arr.ndim}")
    h, w, d = arr.shape
    with np.errstate(over="ignore"):
        payload = arr.astype("<f4", order="C")  # row-major: the file takes this buffer as is
    if not np.all(np.isfinite(payload)):
        raise FormatError("values do not fit the float32 range of the format")
    with open(path, "wb") as f:
        f.write(_EMBF_MAGIC + struct.pack("<III", h, w, d))
        f.write(payload.data)


def read_embf(path) -> np.ndarray:
    """Read an EMBF blob back into an (H, W, D) float64 array."""
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != _EMBF_MAGIC:
        raise FormatError(f"{path}: not an EMBF blob")
    h, w, d = struct.unpack("<III", data[4:16])
    expected = 16 + h * w * d * 4
    if h < 1 or w < 1 or d < 1 or len(data) != expected:
        raise FormatError(f"{path}: EMBF payload size mismatch")
    flat = np.frombuffer(data, dtype="<f4", offset=16)
    return flat.reshape(h, w, d).astype(np.float64)


def write_json(path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    Path(path).write_bytes((text + "\n").encode("utf-8"))


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply to parse") from exc


def write_boxes(path, sets: Sequence[DetectionSet]) -> None:
    out = []
    for ds in sets:
        dets = []
        for det in ds.detections:
            item = {"box": list(det.box), "class_id": det.class_id}
            if det.score is not None:
                item["score"] = det.score
            dets.append(item)
        out.append({"image_id": ds.image_id, "detections": dets})
    write_json(path, out)


def read_boxes(path) -> list:
    obj = read_json(path)
    if not isinstance(obj, list):
        raise FormatError(f"{path}: expected a list of detection sets")
    sets = []
    for i, entry in enumerate(obj):
        try:
            dets = tuple(
                Detection(tuple(d["box"]), d["class_id"], d.get("score"))
                for d in entry["detections"]
            )
            sets.append(DetectionSet(dets, image_id=entry.get("image_id", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: detection set {i} is malformed: {exc}") from exc
    return sets
