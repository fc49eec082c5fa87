import json

import numpy as np
import pytest

from jseg import (
    DimMismatchError,
    InstanceLabelMap,
    LogitField,
    MalformedHeaderError,
    ProbabilityField,
    SemanticLabelMap,
    TruncatedPayloadError,
    read_grid,
    write_grid,
)


def test_instance_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    grid = InstanceLabelMap(rng.integers(0, 9, size=(5, 5)).astype(np.int32))
    path = tmp_path / "g.grd"
    write_grid(grid, path)
    back = read_grid(path, "instance")
    assert np.array_equal(back.labels, grid.labels)
    # writing the read-back grid reproduces the file byte for byte
    path2 = tmp_path / "g2.grd"
    write_grid(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_probability_round_trip_exact_to_float32(tmp_path):
    rng = np.random.default_rng(1)
    raw = rng.random((4, 4, 4, 4))
    field = ProbabilityField(raw / raw.sum(axis=-1, keepdims=True))
    path = tmp_path / "z.grd"
    write_grid(field, path)
    back = read_grid(path, "probs")
    assert np.array_equal(back.values, field.values.astype(np.float32).astype(np.float64))
    # second round trip is lossless
    path2 = tmp_path / "z2.grd"
    write_grid(back, path2)
    assert np.abs(read_grid(path2, "probs").values - back.values).max() == 0.0


def test_logits_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    field = LogitField(rng.normal(size=(3, 3, 3, 4)))
    path = tmp_path / "t.grd"
    write_grid(field, path)
    back = read_grid(path, "logits")
    assert np.array_equal(back.values, field.values.astype(np.float32).astype(np.float64))


def test_semantic_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    grid = SemanticLabelMap(rng.integers(0, 4, size=(6, 7)).astype(np.int32))
    path = tmp_path / "h.pgm"
    write_grid(grid, path)
    back = read_grid(path, "semantic")
    assert np.array_equal(back.classes, grid.classes)


def test_rejects_six_dims(tmp_path):
    path = tmp_path / "bad.grd"
    header = {"magic": "GRD1", "dims": [2] * 6, "channels": 1, "dtype": "u16", "order": "C"}
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 128)
    with pytest.raises(DimMismatchError):
        read_grid(path, "instance")


def test_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.grd"
    path.write_bytes(b"not json at all\n\x00\x00")
    with pytest.raises(MalformedHeaderError):
        read_grid(path, "instance")
    path.write_bytes(json.dumps({"magic": "NOPE", "dims": [2, 2]}).encode() + b"\n")
    with pytest.raises(MalformedHeaderError):
        read_grid(path, "instance")


def test_rejects_truncated_payload(tmp_path):
    grid = InstanceLabelMap(np.ones((4, 4), dtype=np.int32))
    path = tmp_path / "g.grd"
    write_grid(grid, path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(TruncatedPayloadError):
        read_grid(path, "instance")


def test_error_kinds_are_distinct():
    assert not issubclass(MalformedHeaderError, DimMismatchError)
    assert not issubclass(DimMismatchError, TruncatedPayloadError)
    assert not issubclass(TruncatedPayloadError, MalformedHeaderError)


def test_kind_mismatch_is_rejected(tmp_path):
    grid = InstanceLabelMap(np.ones((4, 4), dtype=np.int32))
    path = tmp_path / "g.grd"
    write_grid(grid, path)
    with pytest.raises(MalformedHeaderError):
        read_grid(path, "probs")


def test_u16_overflow_rejected(tmp_path):
    grid = InstanceLabelMap(np.full((2, 2), 70000, dtype=np.int32))
    with pytest.raises(ValueError):
        write_grid(grid, tmp_path / "g.grd")


def test_rejects_boolean_dims_and_channels(tmp_path):
    # JSON true is a Python bool, and bool is a subclass of int.
    path = tmp_path / "bool.grd"

    def write(dims, channels):
        header = {"magic": "GRD1", "dims": dims, "channels": channels, "dtype": "u16",
                  "order": "C"}
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * (2 * 2 * 2))

    write([4, True], 1)
    with pytest.raises(DimMismatchError):
        read_grid(path, "instance")
    write([2, 2], True)
    with pytest.raises(MalformedHeaderError):
        read_grid(path, "instance")
