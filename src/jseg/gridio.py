"""Bit-exact file I/O for grids.

Two formats are supported:

* ``GRD1``: a single-line JSON header followed by the raw little-endian
  payload in C order, channel-last.  Integer maps are stored as ``u16``,
  real fields as ``f32``.
* Binary PGM (``P5``, maxval 65535, big-endian two-byte samples), for 2-D
  single-channel integer maps only.

Write-then-read round trips are bit exact for integer grids and exact to
float32 representation for real fields.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .grids import InstanceLabelMap, LogitField, ProbabilityField, SemanticLabelMap

__all__ = [
    "GridIOError",
    "MalformedHeaderError",
    "DimMismatchError",
    "TruncatedPayloadError",
    "write_grid",
    "read_grid",
]

MAGIC = "GRD1"
_U16_MAX = 65535


class GridIOError(Exception):
    """Base class for grid file errors."""


class MalformedHeaderError(GridIOError):
    """The header line is not valid or is missing required fields."""


class DimMismatchError(GridIOError):
    """The declared dimensions are unusable (wrong rank or non-positive)."""


class TruncatedPayloadError(GridIOError):
    """The payload does not hold exactly the declared number of samples."""


_KINDS = {
    "instance": ("u16", 1),
    "semantic": ("u16", 1),
    "probs": ("f32", None),
    "logits": ("f32", None),
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
    GRD1 container.
    """
    if str(path).lower().endswith(".pgm"):
        _write_pgm(grid, path)
    else:
        _write_grd(grid, path)


def _split(grid) -> tuple[np.ndarray, str, int]:
    if isinstance(grid, InstanceLabelMap):
        return grid.labels, "u16", 1
    if isinstance(grid, SemanticLabelMap):
        return grid.classes, "u16", 1
    if isinstance(grid, ProbabilityField):
        return grid.values, "f32", grid.channels
    if isinstance(grid, LogitField):
        return grid.values, "f32", grid.channels
    raise TypeError(f"cannot serialize {type(grid).__name__}")


def _write_grd(grid, path) -> None:
    arr, dtype, channels = _split(grid)
    dims = list(arr.shape[:-1]) if channels > 1 else list(arr.shape)
    if dtype == "u16" and arr.max(initial=0) > _U16_MAX:
        raise ValueError("labels exceed the u16 range of the container")
    header = {"magic": MAGIC, "dims": dims, "channels": channels, "dtype": dtype, "order": "C"}
    payload = np.ascontiguousarray(arr).astype(_payload_dtype(dtype))
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
    want_dtype, want_channels = _KINDS[kind]
    if want_channels == 1 and channels != 1:
        raise DimMismatchError(f"{kind} map must be single-channel, file has {channels}")
    if want_dtype == "u16" and not np.issubdtype(arr.dtype, np.integer):
        raise MalformedHeaderError(f"{kind} map requires an integer payload")
    if want_dtype == "f32" and np.issubdtype(arr.dtype, np.integer):
        raise MalformedHeaderError(f"{kind} field requires a real payload")
    if kind == "instance":
        return InstanceLabelMap(arr.astype(np.int32))
    if kind == "semantic":
        return SemanticLabelMap(arr.astype(np.int32))
    if channels == 1:
        raise DimMismatchError(f"{kind} field needs a channel axis, file is single-channel")
    if kind == "probs":
        return ProbabilityField(arr)
    return LogitField(arr)


def _read_grd(path) -> tuple[np.ndarray, int]:
    with open(path, "rb") as fh:
        line = fh.readline(65536)
        if not line.endswith(b"\n"):
            raise MalformedHeaderError("header line missing or unterminated")
        try:
            header = json.loads(line.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
        count = int(np.prod(dims)) * channels
        payload = fh.read()
        expected = count * dtype.itemsize
        if len(payload) != expected:
            raise TruncatedPayloadError(
                f"payload holds {len(payload)} bytes, header declares {expected}"
            )
        arr = np.frombuffer(payload, dtype=dtype)
        shape = tuple(dims) + ((channels,) if channels > 1 else ())
        arr = arr.reshape(shape)
        if dtype.kind == "u":
            return arr.astype(np.int32), channels
        return arr.astype(np.float64), channels


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
    return np.frombuffer(payload, dtype=">u2").reshape(h, w).astype(np.int32)
