"""Bit-exact file I/O for grids.

Two formats are supported, picked by the path's extension in both
directions: a path ending in ``.pgm`` (any case) is PGM, any other GRD1.

* ``GRD1``: a single-line JSON header followed by the raw little-endian
  payload in C order, channel-last.  Integer maps are stored as ``u16``,
  real fields as ``f32``.
* Binary PGM (``P5``, maxval 65535, big-endian two-byte samples), for 2-D
  single-channel integer maps only.  The header follows Netpbm's grammar:
  ``P5`` at byte 0, then the width, the height and the maxval, each 1 to 10
  ASCII digits after one or more separators, then exactly one whitespace
  byte before the samples.  A separator is one whitespace byte or a ``#``
  comment through the next ``\\n``.  So ``+2``, ``1_0`` and ``-1`` are not
  sizes, and nothing may precede the magic.

The header of either format lies within the file's first 64 KiB: a GRD1
header line ends with its newline at byte 65 535 at the latest.

Write-then-read round trips are bit exact for integer grids and exact to
float32 representation for real fields.  The writer refuses, before it
opens the file, any grid the reader would reject.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat

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

#: Bytes from the start of a file within which its header must end.
_HEADER_LIMIT = 1 << 16

#: GRD1 dtype name -> payload dtype.
_DTYPES = {"u16": np.dtype("<u2"), "f32": np.dtype("<f4")}
_PGM_DTYPE = np.dtype(">u2")

#: The P5 header of the module docstring; the digit bound keeps ``int`` within
#: Python's limit on the length of an integer string.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d{1,10})" * 3 + rb"\s")


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


def _is_pgm(path) -> bool:
    return str(path).lower().endswith(".pgm")


def write_grid(grid, path: str | os.PathLike) -> None:
    """Write any grid container to ``path``; format picked by extension.

    ``.pgm`` selects binary PGM (2-D integer maps only), anything else the
    GRD1 container.  Raises ``ValueError`` and writes nothing when the file
    would not read back: labels past u16, or a real field whose float32
    values no longer form a valid container of its kind.
    """
    found = [spec for spec in _KINDS.values() if isinstance(grid, spec[0])]
    if not found:
        raise TypeError(f"cannot serialize {type(grid).__name__}")
    _, attr, name, channels = found[0]
    arr = getattr(grid, attr)
    if name == "u16" and arr.max(initial=0) > _U16_MAX:
        raise ValueError("labels exceed the 16-bit range of grid files")
    if _is_pgm(path):
        if name != "u16" or arr.ndim != 2:
            raise ValueError("PGM holds 2-D single-channel integer maps only")
        header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{_U16_MAX}\n".encode("ascii")
        dtype = _PGM_DTYPE
    else:
        dims = list(arr.shape) if channels == 1 else list(arr.shape[:-1])
        fields = {"magic": MAGIC, "dims": dims, "channels": channels or arr.shape[-1],
                  "dtype": name, "order": "C"}
        header = json.dumps(fields, sort_keys=True).encode("ascii") + b"\n"
        dtype = _DTYPES[name]
    with np.errstate(over="ignore"):  # a value past the f32 range is rejected below
        payload = np.ascontiguousarray(arr, dtype)
    if name == "f32":
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
        fh.write(header)
        fh.write(payload)


def read_grid(path: str | os.PathLike, kind: str):
    """Read a grid of the given ``kind``: instance | semantic | probs | logits.

    The reader takes the header from the file's first 64 KiB and checks the
    payload size it declares against the file's size before it allocates
    anything; then it reads the payload straight into one array, the one
    the container casts.  So a file that is no grid costs at most 64 KiB
    to reject, whatever its size or its header declares.  A pipe or device
    has no size to check, so only a regular file is read.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown grid kind {kind!r}")
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise GridIOError(f"{os.fspath(path)} is not a regular file")
        header = _pgm_header if _is_pgm(path) else _grd_header
        shape, channels, dtype, offset = header(fh.read(_HEADER_LIMIT))
        expected = math.prod(shape) * dtype.itemsize  # exact: no int64 wrap
        held = info.st_size - offset
        if held == expected:
            arr = np.empty(shape, dtype)
            fh.seek(offset)
            held = fh.readinto(arr)  # fewer bytes only if the file shrank meanwhile
    if held != expected:
        raise TruncatedPayloadError(f"payload holds {held} bytes, header declares {expected}")
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


def _grd_header(data: bytes) -> tuple[tuple[int, ...], int, np.dtype, int]:
    """The payload's shape, channel count, dtype and offset in a GRD1 file
    whose first 64 KiB (or all, if shorter) are ``data``."""
    end = data.find(b"\n") + 1
    if not end:
        raise MalformedHeaderError("header line missing or unterminated")
    try:
        header = json.loads(data[:end].decode("ascii"))
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
    name = header["dtype"]
    if type(name) is not str or name not in _DTYPES:  # a JSON list is unhashable
        raise MalformedHeaderError(f"unsupported dtype {name!r}")
    shape = tuple(dims) + ((channels,) if channels > 1 else ())
    return shape, channels, _DTYPES[name], end


def _pgm_header(data: bytes) -> tuple[tuple[int, int], int, np.dtype, int]:
    """The payload's shape, channel count, dtype and offset in a PGM file
    whose first 64 KiB (or all, if shorter) are ``data``."""
    match = _PGM_HEADER.match(data)
    if match is None:
        raise MalformedHeaderError(f"not a binary PGM header: {data[:32]!r}")
    w, h, maxval = map(int, match.groups())
    if w < 1 or h < 1:
        raise DimMismatchError(f"PGM size {w}x{h} is not a grid")
    if maxval != _U16_MAX:
        raise MalformedHeaderError(f"expected maxval {_U16_MAX}, got {maxval}")
    return (h, w), 1, _PGM_DTYPE, match.end()
