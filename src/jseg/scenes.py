"""Synthetic instance scenes used by the simulators and property tests."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ._util import check_seed, set_integers
from .grids import InstanceLabelMap, _check_dims
from .transform import ball_footprint

__all__ = ["SceneSpec", "generate_scene", "TWO_SQUARES_NOTCH", "RANDOM_BLOBS"]

TWO_SQUARES_NOTCH = "two-squares-notch"
RANDOM_BLOBS = "random-blobs"

#: Extra Euclidean clearance between blob surfaces.  At 1.5 no two labels can
#: share a face (or a diagonal in 2-D), so rasterized blobs always keep at
#: least one background element between them, while staying close enough for
#: the touching and gap classes to arise across the separation.
_BLOB_CLEARANCE = 1.5


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for a deterministic synthetic scene.

    ``two-squares-notch``: two axis-aligned side-``cell_size`` squares (cubes
    in 3-D) labelled 1 and 2 sharing a side, with a ``notch_width`` by
    ``notch_length`` strip carved out of the shared side (spanning the full
    depth in 3-D); the rest of the side is left touching.

    ``random-blobs``: ``n_blobs`` non-overlapping discs/spheres of diameter
    about ``cell_size``, placed by the seeded generator.  Same spec, same
    scene, down to the byte.  Placement and rasterization cost scales with
    the blob count and the blob volume, not with the grid; the output is
    byte-identical to the full-grid reference in ``tests/oracles.py``.

    ``dims``, ``cell_size``, ``notch_width``, ``notch_length``, ``seed``
    and ``n_blobs`` must be integers (``operator.index``): 2.5 raises
    ``TypeError``.  Each kind checks the ranges of only the fields it
    reads: the notch fields for the notch, ``n_blobs`` and ``seed``, which
    must be >= 0, for the blobs.
    """

    kind: str
    dims: tuple[int, ...]
    cell_size: int = 8
    notch_width: int = 1
    notch_length: int = 4
    seed: int = 0
    n_blobs: int = 3

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(map(operator.index, self.dims)))
        set_integers(self, "cell_size", "notch_width", "notch_length", "seed", "n_blobs")
        if self.kind not in (TWO_SQUARES_NOTCH, RANDOM_BLOBS):
            raise ValueError(f"unknown scene kind {self.kind!r}")
        _check_dims(self.dims)
        if self.cell_size < 1:
            raise ValueError("cell_size must be >= 1")
        if self.kind == TWO_SQUARES_NOTCH and self.notch_width < 1:
            raise ValueError("notch width must be >= 1")
        if self.kind == TWO_SQUARES_NOTCH and not 0 <= self.notch_length <= self.cell_size:
            raise ValueError("notch length must lie in [0, cell_size]")
        if self.kind == RANDOM_BLOBS and self.n_blobs < 1:
            raise ValueError("need at least one blob")
        if self.kind == RANDOM_BLOBS:
            check_seed(self.seed)


def generate_scene(spec: SceneSpec) -> InstanceLabelMap:
    """Rasterize the scene described by ``spec``; pure function of the spec."""
    if spec.kind == TWO_SQUARES_NOTCH:
        return _two_squares_notch(spec)
    return _random_blobs(spec)


def _two_squares_notch(spec: SceneSpec) -> InstanceLabelMap:
    s = spec.cell_size
    dims = spec.dims
    block = (2 * s,) + (s,) * (len(dims) - 1)
    if any(b > n for b, n in zip(block, dims)):
        raise ValueError(f"cells of size {block} overlap the {dims} grid boundary")
    origin = tuple((n - b) // 2 for n, b in zip(dims, block))

    labels = np.zeros(dims, dtype=np.int32)
    inner = tuple(slice(o, o + b) for o, b in zip(origin, block))
    body = np.ones(block, dtype=np.int32)
    body[s:] = 2

    # Carve the notch from the shared side: ceil(w/2) planes from cell 1,
    # floor(w/2) from cell 2, running notch_length elements from one end of
    # the side (full depth along any third axis).
    w, length = spec.notch_width, spec.notch_length
    lo = max(0, s - (w + 1) // 2)
    hi = min(2 * s, s + w // 2)
    body[(slice(lo, hi), slice(0, length)) + (slice(None),) * (len(dims) - 2)] = 0

    labels[inner] = body
    return InstanceLabelMap(labels)


def _random_blobs(spec: SceneSpec) -> InstanceLabelMap:
    """Rejection-sample non-overlapping balls, then rasterize each inside
    its bounding box: the cost scales with the blob count and the blob
    volume, not with the grid, and the output is byte-identical to the
    full-grid reference (``tests/oracles.py::full_grid_blobs``)."""
    rng = np.random.default_rng(spec.seed)
    dims = spec.dims
    base_radius = max(1, spec.cell_size // 2)

    centers = np.zeros((spec.n_blobs, len(dims)), dtype=np.int64)
    radii = np.zeros(spec.n_blobs, dtype=np.int64)
    for k in range(spec.n_blobs):
        for _attempt in range(5000):
            radius = int(rng.integers(max(1, base_radius - 1), base_radius + 2))
            if any(n < 2 * radius + 1 for n in dims):
                continue  # this radius cannot fit; retry (possibly smaller)
            center = [int(rng.integers(radius, n - radius)) for n in dims]
            # An exact integer sum of squares: the same float distance as a norm call.
            dist = np.sqrt(((centers[:k] - center) ** 2).sum(axis=1))
            if np.all(dist >= radii[:k] + radius + _BLOB_CLEARANCE):
                centers[k], radii[k] = center, radius
                break
        else:
            raise ValueError(
                f"could not place {spec.n_blobs} blobs of diameter ~{spec.cell_size} "
                f"inside the {dims} grid boundary"
            )

    labels = np.zeros(dims, dtype=np.int32)
    for label, (center, radius) in enumerate(zip(centers.tolist(), radii.tolist()), start=1):
        # Centres lie in [radius, n - radius), so every box lies inside the grid.
        box = tuple(slice(c - radius, c + radius + 1) for c in center)
        labels[box][ball_footprint(radius, len(dims))] = label
    return InstanceLabelMap(labels)
