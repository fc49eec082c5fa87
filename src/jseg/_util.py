"""Small shared helpers: deterministic thread mapping, seed derivation, a
thread-count-independent norm, the window fold behind every morphology
filter and the one CSV writer."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

#: Rows formatted per batch in :func:`write_csv`, so a long table never
#: holds all of its cell strings in memory at once.
CSV_CHUNK_ROWS = 4096


def ordered_thread_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Map ``fn`` over ``items``, optionally on a thread pool.

    Results come back in submission order and every item carries its own
    state (e.g. a child RNG), so the output is bitwise identical for any
    thread count.  The pool never gets more workers than there are items.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) slot of a larger run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def l2_norm(x: np.ndarray) -> float:
    """Euclidean norm of all entries by numpy's pairwise sum; unlike the BLAS
    dot of ``np.linalg.norm``, its last bit does not depend on the number of
    BLAS threads."""
    return float(np.sqrt(np.square(x).sum()))


def fold_windows(ufunc: np.ufunc, padded: np.ndarray, structure: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fold ``ufunc`` into ``out`` over one window of ``padded`` per true
    element of the boolean ``structure``, in place.

    The window at offset ``off`` is the block of ``out``'s shape that starts
    at ``off`` in ``padded``, which is therefore ``structure.shape - 1``
    larger than ``out`` along each axis.  So ``out[i]`` folds in
    ``padded[i + off]`` for every ``off``: with ``padded`` the grid padded by
    half the structure on each side, that is the structure read as a
    neighbourhood centred on ``i``.  ``out`` holds the fold's starting value
    on entry.  Each window is a view, so nothing is copied.
    """
    for off in np.argwhere(structure):
        ufunc(out, padded[tuple(slice(o, o + n) for o, n in zip(off, out.shape))], out=out)
    return out


def _quote(cell: str) -> str:
    """A cell as the csv module's default dialect writes it: quoted, with
    inner quotes doubled, when it holds a delimiter, a quote or a line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length ``columns`` under ``header``, byte for byte as the
    csv module's default dialect would.

    Every row is formatted by one ``%``-template built from the columns'
    dtypes: ``%.17g`` for a float column, which round-trips exactly, and
    ``%d`` for an integer column.  Any other column is converted to cells
    once and enters the template as ``%s``: None in a float-or-None column
    gives an empty cell and its floats ``.17g``; strings keep the csv
    module's minimal quoting and bools read ``True``/``False``.
    """
    # The csv module quotes an empty cell that is its row's only one, so
    # that the row does not read as a blank line.
    empty = '""' if len(columns) == 1 else ""
    fields, values = [], []
    for column in columns:
        array = np.asarray(column)
        kind = array.dtype.kind
        if kind in "fiu":
            fields.append("%.17g" if kind == "f" else "%d")
        else:
            # Cells come from the caller's values: a numpy string array
            # would strip trailing NULs.
            if kind == "O":  # floats mixed with None
                cells = [empty if v is None else format(v, ".17g") for v in column]
            else:
                cells = [_quote(str(v)) or empty for v in column]
            fields.append("%s")
            array = np.array(cells, dtype=object)
        values.append(array)
    template = ",".join(fields) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_quote(name) or empty for name in header) + "\r\n")
        for start in range(0, len(values[0]), CSV_CHUNK_ROWS):
            rows = zip(*(v[start : start + CSV_CHUNK_ROWS].tolist() for v in values))
            fh.write("".join([template % row for row in rows]))
