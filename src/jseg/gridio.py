"""Bit-exact file I/O for grids.

Two formats are supported:

* ``GRD1``: a single-line JSON header followed by the raw little-endian
  payload in C order, channel-last.  Integer maps are stored as ``u16``,
  real fields as ``f32``.
* Binary PGM (``P5``, maxval 65535, big-endian two-byte samples), for 2-D
  single-channel integer maps only.

Write-then-read round trips are bit exact for integer grids and exact to
float32 representation for real fields.  The writer refuses, before it
opens the file, any grid the reader would reject.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .grids import InstanceLabelMap, LogitField, ProbabilityField, SemanticLabelMap

__all__ = [
    "GridIOError",
    "MalformedHeaderError",
    "DimMismatchError",
    "TruncatedPayloadError",
    "InvalidValuesError",
    "write_grid",
    "read_grid",
]

MAGIC = "GRD1"
_U16_MAX = 65535

#: Most elements of a real payload that :func:`write_grid` checks at once.
_CHECK_ELEMENTS = 1 << 18


class GridIOError(Exception):
    """Base class for grid file errors."""


class MalformedHeaderError(GridIOError):
    """The header line is not valid or is missing required fields."""


class DimMismatchError(GridIOError):
    """The declared dimensions are unusable (wrong rank or non-positive)."""


class TruncatedPayloadError(GridIOError):
    """The payload does not hold exactly the declared number of samples."""


class InvalidValuesError(GridIOError):
    """The payload holds values the requested grid kind does not allow."""


#: kind -> (container, array attribute, payload dtype, channels or None for >= 2)
_KINDS = {
    "instance": (InstanceLabelMap, "labels", "u16", 1),
    "semantic": (SemanticLabelMap, "classes", "u16", 1),
    "probs": (ProbabilityField, "values", "f32", None),
    "logits": (LogitField, "values", "f32", None),
}


def _payload_dtype(name: str) -> np.dtype:
    if name == "u16":
        return np.dtype("<u2")
    if name == "f32":
        return np.dtype("<f4")
    raise MalformedHeaderError(f"unsupported dtype {name!r}")


def write_grid(grid, path: str | os.PathLike) -> None:
    """Write any grid container to ``path``; format picked by extension.

    ``.pgm`` selects binary PGM (2-D integer maps only), anything else the
    GRD1 container.  Raises ``ValueError`` and writes nothing when the file
    would not read back: labels past u16, or a real field whose float32
    values no longer form a valid container of its kind.
    """
    if str(path).lower().endswith(".pgm"):
        _write_pgm(grid, path)
    else:
        _write_grd(grid, path)


def _split(grid) -> tuple[np.ndarray, str, int]:
    for container, attr, dtype, channels in _KINDS.values():
        if isinstance(grid, container):
            arr = getattr(grid, attr)
            return arr, dtype, channels or arr.shape[-1]
    raise TypeError(f"cannot serialize {type(grid).__name__}")


def _write_grd(grid, path) -> None:
    arr, dtype, channels = _split(grid)
    dims = list(arr.shape[:-1]) if channels > 1 else list(arr.shape)
    if dtype == "u16" and arr.max(initial=0) > _U16_MAX:
        raise ValueError("labels exceed the u16 range of the container")
    header = {"magic": MAGIC, "dims": dims, "channels": channels, "dtype": dtype, "order": "C"}
    with np.errstate(over="ignore"):  # a value past the f32 range is rejected below
        payload = np.ascontiguousarray(arr).astype(_payload_dtype(dtype))
    if dtype == "f32":
        # Rounding to f32 can carry a valid field out of its container's range,
        # such as a probability sum just inside the tolerance, or a logit to inf.
        # The container checks each element on its own, so slabs along the
        # first axis give the same verdict with a fraction of the memory.
        rows = max(1, _CHECK_ELEMENTS // payload[0].size)
        try:
            for start in range(0, len(payload), rows):
                type(grid)(payload[start : start + rows])
        except ValueError as exc:
            raise ValueError(f"the float32 payload would not read back: {exc}") from exc
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(payload.tobytes(order="C"))


def _write_pgm(grid, path) -> None:
    arr, dtype, channels = _split(grid)
    if dtype != "u16" or channels != 1 or arr.ndim != 2:
        raise ValueError("PGM holds 2-D single-channel integer maps only")
    if arr.max(initial=0) > _U16_MAX:
        raise ValueError("labels exceed the PGM 16-bit range")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{_U16_MAX}\n".encode("ascii"))
        fh.write(arr.astype(">u2").tobytes(order="C"))


def read_grid(path: str | os.PathLike, kind: str):
    """Read a grid of the given ``kind``: instance | semantic | probs | logits."""
    if kind not in _KINDS:
        raise ValueError(f"unknown grid kind {kind!r}")
    if str(path).lower().endswith(".pgm"):
        arr, channels = _read_pgm(path), 1
    else:
        arr, channels = _read_grd(path)
    container, _, want_dtype, want_channels = _KINDS[kind]
    if want_channels == 1 and channels != 1:
        raise DimMismatchError(f"{kind} map must be single-channel, file has {channels}")
    if want_dtype == "u16" and not np.issubdtype(arr.dtype, np.integer):
        raise MalformedHeaderError(f"{kind} map requires an integer payload")
    if want_dtype == "f32" and np.issubdtype(arr.dtype, np.integer):
        raise MalformedHeaderError(f"{kind} field requires a real payload")
    if want_channels is None and channels == 1:
        raise DimMismatchError(f"{kind} field needs a channel axis, file is single-channel")
    try:
        # A signalling NaN warns when the container casts it; it rejects every NaN.
        with np.errstate(invalid="ignore"):
            return container(arr)
    except ValueError as exc:
        raise InvalidValuesError(str(exc)) from exc


def _read_grd(path) -> tuple[np.ndarray, int]:
    with open(path, "rb") as fh:
        line = fh.readline(65536)
        if not line.endswith(b"\n"):
            raise MalformedHeaderError("header line missing or unterminated")
        try:
            header = json.loads(line.decode("ascii"))
        # ValueError also covers over-long integers; RecursionError, deep nesting.
        except (ValueError, RecursionError) as exc:
            raise MalformedHeaderError(f"header is not single-line JSON: {exc}") from exc
        if not isinstance(header, dict) or header.get("magic") != MAGIC:
            raise MalformedHeaderError("missing GRD1 magic")
        for key in ("dims", "channels", "dtype", "order"):
            if key not in header:
                raise MalformedHeaderError(f"header lacks {key!r}")
        if header["order"] != "C":
            raise MalformedHeaderError(f"unsupported order {header['order']!r}")
        # JSON true/false parse as bool, a subclass of int: test the exact type.
        dims = header["dims"]
        if (
            not isinstance(dims, list)
            or len(dims) not in (2, 3)
            or not all(type(n) is int and n >= 1 for n in dims)
        ):
            raise DimMismatchError(f"dims must be 2 or 3 positive integers, got {dims!r}")
        channels = header["channels"]
        if type(channels) is not int or channels < 1:
            raise MalformedHeaderError(f"bad channel count {channels!r}")
        dtype = _payload_dtype(header["dtype"])
        count = math.prod(dims) * channels  # exact: no int64 wrap
        payload = fh.read()
        expected = count * dtype.itemsize
        if len(payload) != expected:
            raise TruncatedPayloadError(
                f"payload holds {len(payload)} bytes, header declares {expected}"
            )
        shape = tuple(dims) + ((channels,) if channels > 1 else ())
        return np.frombuffer(payload, dtype=dtype).reshape(shape), channels


def _read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":  # comment line
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedHeaderError("PGM header ended early")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P5":
        raise MalformedHeaderError(f"not a binary PGM: magic {fields[0]!r}")
    try:
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError as exc:
        raise MalformedHeaderError("PGM header fields must be integers") from exc
    if w < 1 or h < 1:
        raise DimMismatchError(f"PGM size {w}x{h} is not a grid")
    if maxval != _U16_MAX:
        raise MalformedHeaderError(f"expected maxval {_U16_MAX}, got {maxval}")
    payload = data[pos:]
    if len(payload) != w * h * 2:
        raise TruncatedPayloadError(
            f"payload holds {len(payload)} bytes, header declares {w * h * 2}"
        )
    return np.frombuffer(payload, dtype=">u2").reshape(h, w)
