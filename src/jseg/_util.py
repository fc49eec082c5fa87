"""Small shared helpers: deterministic thread mapping, seed derivation, a
thread-count-independent norm and the one CSV writer."""

from __future__ import annotations

import csv
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


def _cells(column) -> list:
    values = np.asarray(column)
    if values.dtype.kind in "fO":  # floats, or floats mixed with None
        return ["" if v is None else format(v, ".17g") for v in values.tolist()]
    return values.tolist()


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length ``columns`` under ``header`` in the csv module's
    default dialect.

    Float columns are written with ``.17g``, which round-trips exactly;
    integer and string columns as ``str`` does; None in a float column
    gives an empty field.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            writer.writerows(zip(*(_cells(col[start:stop]) for col in columns)))
