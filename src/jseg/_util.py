"""Small shared helpers: deterministic thread mapping, seed derivation, the
per-run workspace of the step loops, a thread-count-independent norm, the
column table of a step loop's trace and the one CSV writer.

The CSV writer formats cells, not rows: per chunk of rows, each numeric
column formats each of its distinct values once, and one pass can write
several files that share columns, so a shared column is formatted once
for all of them."""

from __future__ import annotations

import operator
import os
from collections.abc import Callable, Hashable, Sequence
from concurrent.futures import ThreadPoolExecutor
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

    Results come back in submission order and every item carries its own
    state (e.g. a child RNG), so the output is bitwise identical for any
    thread count.  The pool never gets more workers than there are items.
    ``threads`` must be an integer: NaN or 2.5 raise ``TypeError``.
    """
    threads = operator.index(threads)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) slot of a larger run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


class Workspace:
    """The arrays one run of a step loop reuses on every step.

    A step that is handed a workspace writes each of its large
    intermediates into ``scratch(ws, key, like)``: the array made for
    ``key`` (shaped like ``like``) on the first step, the same one on every
    later step.  So a run allocates its buffers once, and a step computes
    the same ufuncs, in the same order, as one without a workspace, which
    gets a fresh C-order array from ``scratch`` per call.
    A workspace belongs to one run on one thread; the functions that take
    one keep no state of their own.
    """

    def __init__(self):
        self._arrays: dict[tuple, np.ndarray] = {}

    def take(
        self, key: Hashable, shape: tuple[int, ...], dtype=np.float64, fill=None
    ) -> np.ndarray:
        """The array for ``key`` of this shape and dtype, made on first use.

        With ``fill`` the array is filled with that value when it is made,
        and only then: a caller that writes part of it on every step keeps
        the rest as filled.  Such an array holds what one caller put there,
        so its key must belong to that caller alone, e.g. a tuple holding
        an ``object()`` of its own.
        """
        slot = (key, shape, dtype)
        array = self._arrays.get(slot)
        if array is None:
            array = self._arrays[slot] = np.empty(shape, dtype)
            if fill is not None:
                array.fill(fill)
        return array


def scratch(ws: Workspace | None, key: Hashable, like: np.ndarray, dtype=np.float64,
            fill=None) -> np.ndarray:
    """``ws``'s array for ``key`` shaped like ``like``, or a fresh one
    without a workspace: a C-order array either way, so that a ufunc
    writing into it as ``out`` leaves C-order output, whatever its
    ``order`` of iteration.  ``fill`` fills a fresh array, and a workspace
    array when it is made (:meth:`Workspace.take`)."""
    if ws is not None:
        return ws.take(key, like.shape, dtype, fill)
    return np.empty(like.shape, dtype) if fill is None else np.full(like.shape, fill, dtype)


def l2_norm(x: np.ndarray, ws: Workspace | None = None) -> float:
    """Euclidean norm of all entries by numpy's pairwise sum; unlike the BLAS
    dot of ``np.linalg.norm``, its last bit does not depend on the number of
    BLAS threads.  The squares go to ``ws``'s scratch array when given."""
    return float(np.sqrt(np.square(x, out=scratch(ws, "l2_norm", x)).sum()))


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
