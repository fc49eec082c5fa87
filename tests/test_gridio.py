import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import jseg.gridio
from jseg import (
    DimMismatchError,
    GridIOError,
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


def test_read_grid_casts_each_payload_once(tmp_path):
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 4, size=(256, 256)).astype(np.int32)
    raw = rng.random((64, 64, 4))
    probs = ProbabilityField(raw / raw.sum(axis=-1, keepdims=True))
    cases = (
        ("i.grd", InstanceLabelMap(labels), "instance", "labels"),
        ("i.pgm", InstanceLabelMap(labels), "instance", "labels"),
        ("s.grd", SemanticLabelMap(labels), "semantic", "classes"),
        ("s.pgm", SemanticLabelMap(labels), "semantic", "classes"),
        ("p.grd", probs, "probs", "values"),
        ("l.grd", LogitField(rng.normal(size=(256, 256, 4))), "logits", "values"),
    )
    for name, grid, kind, attr in cases:
        path = tmp_path / name
        write_grid(grid, path)
        tracemalloc.start()
        try:
            arr = getattr(read_grid(path, kind), attr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.dtype == (np.float64 if attr == "values" else np.int32)
        assert arr.flags.c_contiguous and not arr.flags.writeable
        if kind != "probs":  # the simplex check's own temporaries hide a second copy
            # The file's bytes plus one copy in the container's dtype, and for
            # logits the finiteness mask (an eighth of the copy).
            assert peak < path.stat().st_size + 1.25 * arr.nbytes


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


def test_pgm_writer_rejections(tmp_path):
    path = tmp_path / "g.pgm"
    probs = ProbabilityField(np.full((3, 4, 2), 0.5))
    cube = InstanceLabelMap(np.ones((2, 3, 4), dtype=np.int32))
    for grid in (probs, cube):
        with pytest.raises(ValueError, match="2-D single-channel integer maps only"):
            write_grid(grid, path)
    with pytest.raises(ValueError, match="16-bit range"):
        write_grid(InstanceLabelMap(np.full((2, 2), 70000, dtype=np.int32)), path)
    assert not path.exists()


_TEN = bytes(20)  # ten big-endian samples, all 0

# Netpbm's P5 header: the magic at byte 0, three fields of 1 to 10 ASCII
# digits after whitespace or ``#`` comments, one whitespace byte, samples.
_PGM_FILES = {
    "minimal": (b"P5 10 1 65535 " + _TEN, None),
    "comment between fields": (b"P5\n5 # width, then height\n2\n65535\n" + _TEN, None),
    "comment after the magic": (b"P5#c\n10 1\n65535\n" + _TEN, None),
    # Python's int() reads 1_0 as 10 and +2 as 2.
    "underscore in width": (b"P5\n1_0 1\n65535\n" + _TEN, MalformedHeaderError),
    "plus sign in width": (b"P5\n+2 5\n65535\n" + _TEN, MalformedHeaderError),
    "space before the magic": (b" P5\n10 1\n65535\n" + _TEN, MalformedHeaderError),
    "comment before the magic": (b"#c\nP5\n10 1\n65535\n" + _TEN, MalformedHeaderError),
    "negative width": (b"P5\n-1 1\n65535\n" + _TEN, MalformedHeaderError),
    "no byte after maxval": (b"P5\n10 1\n65535", MalformedHeaderError),
    "ASCII PGM": (b"P2\n10 1\n65535\n" + _TEN, MalformedHeaderError),
    "maxval 255": (b"P5\n10 1\n255\n" + bytes(10), MalformedHeaderError),
    "5000-digit width": (b"P5\n" + b"9" * 5000 + b" 1\n65535\n" + _TEN, MalformedHeaderError),
    "header past 64 KiB": (b"P5" + b" " * 70000 + b"10 1\n65535\n" + _TEN, MalformedHeaderError),
    "zero width": (b"P5\n0 1\n65535\n", DimMismatchError),
}


@pytest.mark.parametrize("name", list(_PGM_FILES))
def test_pgm_header_grammar(tmp_path, name):
    data, error = _PGM_FILES[name]
    path = tmp_path / "g.pgm"
    path.write_bytes(data)
    if error is None:
        labels = read_grid(path, "instance").labels
        assert labels.size == 10 and not labels.any()
    else:
        with pytest.raises(error):
            read_grid(path, "instance")


def _grd1_line_ending_at(index: int) -> bytes:
    """A valid 1x1 instance file whose header line has its newline at ``index``."""
    header = json.dumps({"magic": "GRD1", "dims": [1, 1], "channels": 1, "dtype": "u16",
                         "order": "C"}).encode()
    return header + b" " * (index - len(header)) + b"\n\x07\x00"


def test_grd1_header_line_ends_within_64_kib(tmp_path):
    path = tmp_path / "g.grd"
    path.write_bytes(_grd1_line_ending_at(65535))
    assert read_grid(path, "instance").labels.tolist() == [[7]]
    path.write_bytes(_grd1_line_ending_at(65536))
    with pytest.raises(MalformedHeaderError, match="unterminated"):
        read_grid(path, "instance")


def _read_peak(path, kind):
    """The error ``read_grid`` raises for ``path``, and its traced peak."""
    tracemalloc.start()
    try:
        with pytest.raises(GridIOError) as info:
            read_grid(path, kind)
        return info.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_costs_no_more_than_the_header_bound_until_the_payload_size_holds(tmp_path):
    # A header that declares 100000 x 100000 (20 GB of u16), in a GRD1 file
    # and a PGM file of a few bytes, is rejected before any allocation.
    huge = tmp_path / "huge.grd"
    header = {"magic": "GRD1", "dims": [100000, 100000], "channels": 1, "dtype": "u16", "order": "C"}
    huge.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 8)
    huge_pgm = tmp_path / "huge.pgm"
    huge_pgm.write_bytes(b"P5 100000 100000 65535\n" + b"\x00" * 8)
    for path in (huge, huge_pgm):
        error, peak = _read_peak(path, "instance")
        assert isinstance(error, TruncatedPayloadError)
        assert str(error) == "payload holds 8 bytes, header declares 20000000000"
        assert peak < 1 << 18
    # A 64 MiB file of zero bytes has no header line within the first 64 KiB:
    # it is rejected after reading those, not the whole file.
    junk = tmp_path / "junk.grd"
    with open(junk, "wb") as fh:
        fh.truncate(64 << 20)
    error, peak = _read_peak(junk, "instance")
    assert isinstance(error, MalformedHeaderError) and "unterminated" in str(error)
    assert peak < 1 << 18


def test_only_regular_files_are_read(tmp_path):
    # A pipe has no size to check the header against before reading.
    path = tmp_path / "g.grd"
    write_grid(InstanceLabelMap(np.ones((3, 4), np.int32)), path)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, path.read_bytes())
        os.close(write_end)
        with pytest.raises(GridIOError, match="is not a regular file"):
            read_grid(f"/dev/fd/{read_end}", "instance")
    finally:
        os.close(read_end)


def test_read_grid_checks_kind_channels_dtype_and_order(tmp_path):
    def grd(name, channels, dtype, payload):
        path = tmp_path / name
        header = {"magic": "GRD1", "dims": [2, 3], "channels": channels, "dtype": dtype,
                  "order": "C"}
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload.tobytes())
        return path

    flat_real = grd("real.grd", 1, "f32", np.zeros(6, "<f4"))
    field = grd("field.grd", 2, "f32", np.full(12, 0.5, "<f4"))
    with pytest.raises(ValueError, match="unknown grid kind 'mask'"):
        read_grid(field, "mask")
    with pytest.raises(DimMismatchError, match="instance map must be single-channel, file has 2"):
        read_grid(field, "instance")
    with pytest.raises(MalformedHeaderError, match="semantic map requires an integer payload"):
        read_grid(flat_real, "semantic")
    with pytest.raises(DimMismatchError, match="logits field needs a channel axis"):
        read_grid(flat_real, "logits")
    assert read_grid(field, "probs").values.shape == (2, 3, 2)
    header = {"magic": "GRD1", "dims": [2, 3], "channels": 1, "dtype": "u16", "order": "F"}
    path = tmp_path / "order.grd"
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(12))
    with pytest.raises(MalformedHeaderError, match="unsupported order 'F'"):
        read_grid(path, "instance")
    del header["order"]
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(12))
    with pytest.raises(MalformedHeaderError, match="header lacks 'order'"):
        read_grid(path, "instance")


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


# -- fuzzing: arbitrary bytes give a grid or a GridIOError, nothing else -------

_KIND_TYPES = {
    "instance": InstanceLabelMap,
    "semantic": SemanticLabelMap,
    "probs": ProbabilityField,
    "logits": LogitField,
}

# Derandomized, so every run of the suite draws the same examples.
_FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _grd1_case(draw):
    """A GRD1 file and the kind to read it as: a header that fits the kind,
    at times with one field replaced by arbitrary JSON, and mostly a payload
    of the declared size."""
    kind = draw(st.sampled_from(sorted(_KIND_TYPES)))
    real = kind in ("probs", "logits")
    dims = draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))
    header = {
        "magic": "GRD1",
        "dims": dims,
        "channels": draw(st.integers(2, 4)) if real else 1,
        "dtype": "f32" if real else "u16",
        "order": "C",
    }
    if draw(st.integers(0, 3)) == 0:
        header[draw(st.sampled_from(sorted(header)))] = draw(_json)
    size = int(np.prod(dims)) * (4 if real else 2)
    if type(header["channels"]) is int and 0 < header["channels"] < 9:
        size *= header["channels"]
    if draw(st.integers(0, 3)) > 0:
        payload = draw(st.binary(min_size=size, max_size=size))
    else:
        payload = draw(st.binary(max_size=48))
    return json.dumps(header).encode("ascii") + b"\n" + payload, kind


@st.composite
def _pgm_bytes(draw):
    """A binary PGM file with header fields drawn around the valid ones."""
    magic = draw(st.sampled_from([b"P5", b"P5", b"P2"]))
    fields = [draw(st.sampled_from([b"0", b"-1", b"1_0", b"x"]) | st.integers(1, 6).map(
        lambda n: str(n).encode())) for _ in range(2)]
    maxval = draw(st.sampled_from([b"65535", b"65535", b"255"]))
    comment = draw(st.sampled_from([b"", b"# note\n"]))
    header = magic + b"\n" + comment + b" ".join(fields) + b"\n" + maxval + b"\n"
    size = 2 * int(fields[0]) * int(fields[1]) if all(f.isdigit() for f in fields) else 0
    if draw(st.booleans()):
        payload = draw(st.binary(min_size=size, max_size=size))
    else:
        payload = draw(st.binary(max_size=48))
    return header + payload


def _read_or_reject(path, data: bytes, kind: str) -> None:
    path.write_bytes(data)
    try:
        grid = read_grid(path, kind)
    except GridIOError:
        return
    assert isinstance(grid, _KIND_TYPES[kind])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@_FUZZ
@given(_grd1_case() | st.tuples(st.binary(max_size=96), st.sampled_from(sorted(_KIND_TYPES))))
@example((b"[" * 60000 + b"\n", "instance"))  # nesting deeper than the JSON parser recurses
@example((b'{"magic": "GRD1", "dims": [' + b"9" * 5000 + b"]}\n", "instance"))  # int too long
@example((  # 2**32 * 2**32 elements: an int64 product would wrap to 0, the empty payload's size
    b'{"channels": 1, "dims": [4294967296, 4294967296], "dtype": "u16", "magic": "GRD1", '
    b'"order": "C"}\n',
    "semantic",
))
@example((  # a class label the semantic map does not allow
    b'{"channels": 1, "dims": [1, 2], "dtype": "u16", "magic": "GRD1", "order": "C"}\n'
    b"\x00\x00\x09\x00",
    "semantic",
))
@example((  # a signalling NaN, which warns when cast to float64
    b'{"channels": 2, "dims": [1, 1], "dtype": "f32", "magic": "GRD1", "order": "C"}\n'
    b"\x00\x00\x00\x00\x01\x00\x81\x7f",
    "logits",
))
@example((_grd1_line_ending_at(65535), "instance"))  # the last newline the header bound admits
@example((_grd1_line_ending_at(65536), "instance"))  # one byte past it
def test_grd1_reader_survives_arbitrary_bytes(fuzz_dir, case):
    _read_or_reject(fuzz_dir / "fuzz.grd", *case)


@_FUZZ
@given(st.one_of(_pgm_bytes(), st.binary(max_size=96)), st.sampled_from(["instance", "semantic"]))
@example(b"P5\n" + b"9" * 5000 + b" 1\n65535\n", "instance")  # int() refuses 5000 digits
def test_pgm_reader_survives_arbitrary_bytes(fuzz_dir, data, kind):
    _read_or_reject(fuzz_dir / "fuzz.pgm", data, kind)


# -- round trips: every grid the writer accepts reads back --------------------


def test_writer_refuses_a_sum_that_float32_carries_past_the_tolerance(tmp_path, monkeypatch):
    # The check runs in slabs of one row here; only the last of five holds the
    # element off by 1.0e-6 in float64 (within the tolerance), 1.03e-6 in float32.
    monkeypatch.setattr(jseg.gridio, "_CHECK_ELEMENTS", 8)
    values = np.full((5, 2, 4), 0.25)
    write_grid(ProbabilityField(values), tmp_path / "ok.grd")
    values[-1, -1] = [0.20670468, 0.12887593, 0.33495928, 0.32945911]
    path = tmp_path / "p.grd"
    with pytest.raises(ValueError, match="sum to 1"):
        write_grid(ProbabilityField(values), path)
    assert not path.exists()


def test_writer_refuses_logits_past_the_float32_range(tmp_path, monkeypatch):
    monkeypatch.setattr(jseg.gridio, "_CHECK_ELEMENTS", 8)
    values = np.zeros((5, 2, 2, 2))
    values[-1, -1, -1, -1] = 1e39
    path = tmp_path / "t.grd"
    with pytest.raises(ValueError, match="finite"):
        write_grid(LogitField(values), path)
    assert not path.exists()


@st.composite
def _grid(draw):
    """A grid container, its kind and a file suffix, with values at and past
    the edges the writer accepts: labels past u16, probability sums at the
    tolerance, logits past the float32 range.  Integer maps are written as
    PGM half the time they are 2-D."""
    kind = draw(st.sampled_from(sorted(_KIND_TYPES)))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=3)))
    integer = kind in ("instance", "semantic")
    suffix = ".pgm" if integer and len(dims) == 2 and draw(st.booleans()) else ".grd"
    if kind == "semantic":
        classes = draw(hnp.arrays(np.int64, dims, elements=st.integers(0, 3)))
        return SemanticLabelMap(classes), kind, suffix
    if kind == "instance":
        labels = draw(hnp.arrays(np.int64, dims, elements=st.integers(0, 9)))
        edge = draw(st.sampled_from([9, 65535, 65536]))
        labels.flat[draw(st.integers(0, labels.size - 1))] = edge
        return InstanceLabelMap(labels), kind, suffix
    shape = dims + (draw(st.integers(2, 4)),)
    if kind == "logits":
        values = draw(hnp.arrays(np.float64, shape, elements=st.floats(-10.0, 10.0)))
        edge = draw(st.sampled_from([10.0, -3e38, 1e39]))
        values.flat[draw(st.integers(0, values.size - 1))] = edge
        return LogitField(values), kind, suffix
    raw = draw(hnp.arrays(np.float64, shape, elements=st.floats(1e-3, 1.0)))
    scale = draw(st.floats(1.0 - 9.9e-7, 1.0 + 9.9e-7))
    return ProbabilityField(raw / raw.sum(axis=-1, keepdims=True) * scale), kind, suffix


@_FUZZ
@given(_grid())
def test_every_grid_the_writer_accepts_reads_back(fuzz_dir, case):
    grid, kind, suffix = case
    path = fuzz_dir / f"round-trip{suffix}"
    try:
        write_grid(grid, path)
    except ValueError:
        return
    back = read_grid(path, kind)
    if kind == "instance":
        assert np.array_equal(back.labels, grid.labels)
    elif kind == "semantic":
        assert np.array_equal(back.classes, grid.classes)
    else:
        assert np.array_equal(back.values, grid.values.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("grid", [np.zeros((2, 3), np.int32), None], ids=["ndarray", "None"])
def test_named_errors(grid, tmp_path):
    with pytest.raises(TypeError, match=f"cannot serialize {type(grid).__name__}"):
        write_grid(grid, tmp_path / "grid.grd")
