"""Small shared helpers: deterministic thread mapping, the integer rule of
every config, seed derivation, a thread-count-independent norm, the
column table of a step loop's trace and the one CSV writer.

The CSV writer formats cells, not rows: per chunk of rows, each numeric
column formats each of its distinct values once, and one pass can write
several files that share columns, so a shared column is formatted once
for all of them."""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Callable, Sequence
from contextlib import ExitStack
from typing import TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

#: Rows formatted per batch in :func:`write_csv`, so a long table never
#: holds all of its cell strings in memory at once; also the span over
#: which a repeated value is formatted once.
CSV_CHUNK_ROWS = 4096


def ordered_thread_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Map ``fn`` over ``items``, optionally on a thread pool.

    Results come back in submission order, so the output is bitwise
    identical for any thread count as long as ``fn`` shares no mutable
    state between items, as a landscape scan's rows share none.  The pool
    never gets more workers than there are items.  ``threads`` must be an
    integer: NaN or 2.5 raise ``TypeError``.
    ``concurrent.futures`` is imported only when a pool runs, so a launch
    that maps on one thread does not load it.
    """
    threads = operator.index(threads)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def set_integers(config, *names: str) -> None:
    """Set each named field of the frozen dataclass ``config`` to
    ``operator.index`` of its value: an integer stays (a numpy one becomes
    a Python int), and 2.5 or NaN raise ``TypeError``."""
    for name in names:
        object.__setattr__(config, name, operator.index(getattr(config, name)))


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) slot of a larger run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def l2_norm(x: np.ndarray, out: np.ndarray | None = None) -> float:
    """Euclidean norm of all entries by numpy's pairwise sum; unlike the BLAS
    dot of ``np.linalg.norm``, its last bit does not depend on the number of
    BLAS threads.  The squares go to ``out`` when given, a C-order array
    shaped like ``x``, and else to a fresh one."""
    squares = np.square(x, out=np.empty(x.shape) if out is None else out)
    return math.sqrt(np.add.reduce(squares, axis=None))


def _quote(cell: str) -> str:
    """A cell as the csv module's default dialect writes it: quoted, with
    inner quotes doubled, when it holds a delimiter, a quote or a line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _numeric_cells(values: np.ndarray) -> list[str]:
    """One cell per entry of a numeric array, each distinct value formatted
    once: ``.17g`` for floats, which round-trips exactly, ``str`` for
    integers and bools.  Floats are told apart by their bit pattern, so
    ``-0.0``, ``0.0`` and every NaN payload keep their own cell."""
    if values.dtype.kind == "f":
        distinct, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
        texts = [format(v, ".17g") for v in distinct.view(values.dtype).tolist()]
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
        texts = [str(v) for v in distinct.tolist()]
    return np.array(texts, dtype=object)[inverse].tolist()


def _cells(column, array: np.ndarray, start: int, stop: int) -> list[str]:
    """The cells of rows ``start:stop`` of ``column``, whose array is ``array``.

    A numeric column goes through :func:`_numeric_cells`.  Any other column
    is read from the caller's values, since a numpy string array would
    strip trailing NULs: None in a float-or-None column gives an empty cell
    and its floats ``.17g``; strings keep the csv module's minimal quoting.
    """
    if array.dtype.kind in "biuf":
        return _numeric_cells(array[start:stop])
    if array.dtype.kind == "O":  # floats mixed with None
        return ["" if v is None else format(v, ".17g") for v in column[start:stop]]
    return [_quote(str(v)) for v in column[start:stop]]


def _rows(cells: Sequence[Sequence[str]]) -> str:
    """CSV lines of the given column cells.  The csv module quotes an empty
    cell that is its row's only one, so that the row does not read as a
    blank line."""
    if len(cells) == 1:
        lines = [cell or '""' for cell in cells[0]]
    else:
        lines = map(",".join, zip(*cells))
    return "\r\n".join(lines) + "\r\n"


def columns(header: Sequence[str], rows: Sequence[tuple]) -> dict[str, np.ndarray]:
    """The table of a step loop's trace: ``rows`` holds one tuple per step,
    in the order of ``header``, and each name gets its column as an array.
    A column of ints is int64, of floats float64, and of floats mixed with
    None an object array.  No rows give no columns."""
    return dict(zip(header, map(np.asarray, zip(*rows))))


def write_csv(path, header: Sequence[str], columns: Sequence, subsets: Sequence = ()) -> None:
    """Write equal-length ``columns`` under ``header``, byte for byte as the
    csv module's default dialect would.

    The rows go out in chunks of :data:`CSV_CHUNK_ROWS`.  Per chunk each
    column becomes one list of cells: a numeric column formats each of its
    distinct values once (:func:`_numeric_cells`), any other column each
    value (:func:`_cells`).  Each line is its cells joined by ``,``, and
    the lines are joined by CRLF.  Only one chunk of cells is alive at a
    time.

    ``subsets`` holds ``(path, names)`` pairs.  Each one gets a file of its
    own, written in the same pass from the same cells: the columns under
    ``names`` (the first column of each name in ``header``), in that order,
    under ``names`` as the header.  So a column two files share is formatted
    once.  Every path must be a different file.
    """
    files = [(path, range(len(header)))]
    files += [(sub_path, [header.index(name) for name in names]) for sub_path, names in subsets]
    if subsets and len({os.path.realpath(os.fspath(p)) for p, _ in files}) < len(files):
        raise ValueError("each CSV of one pass needs its own path")
    arrays = [np.asarray(column) for column in columns]
    n_rows = len(arrays[0]) if arrays else 0
    with ExitStack() as stack:
        handles = []
        for file_path, picks in files:
            fh = stack.enter_context(open(file_path, "w", newline=""))
            fh.write(_rows([[_quote(header[i])] for i in picks]))
            handles.append((fh, picks))
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            cells = [_cells(c, a, start, stop) for c, a in zip(columns, arrays)]
            for fh, picks in handles:
                fh.write(_rows([cells[i] for i in picks]))
            del cells  # so the next chunk's cells never live beside these
