"""Instance-to-semantic ground-truth transform.

Turns an instance annotation into the three- or four-class semantic map
used for training: background, cell, touching, and (in four-class mode)
gap.  Gaps are the background elements filled by a morphological closing
of the foreground; touching elements are foreground elements that see a
different nonzero label within a Chebyshev-``k`` neighbourhood.  Both
tests are folds of a ufunc over the windows of a padded grid, one window
per offset of a structuring element (``fold_windows``).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from ._util import set_integers
from .grids import InstanceLabelMap, SemanticLabelMap

__all__ = [
    "BACKGROUND",
    "CELL",
    "TOUCHING",
    "GAP",
    "TransformConfig",
    "ball_footprint",
    "bottom_hat",
    "to_semantic",
]

BACKGROUND, CELL, TOUCHING, GAP = 0, 1, 2, 3

THREE_CLASS = "three-class"
FOUR_CLASS = "four-class"


@dataclass(frozen=True)
class TransformConfig:
    """Neighbourhood radius, closing radius and class mode of the transform.

    ``k`` is the Chebyshev radius of the touching test.  ``gap_radius`` is
    the radius of the closing's hyper-spherical structuring element; it is
    data dependent, so it stays configurable.  Both must be integers
    (``operator.index``): 2.5 or NaN raise ``TypeError``.
    """

    k: int = 2
    gap_radius: int = 3
    mode: str = FOUR_CLASS

    def __post_init__(self):
        set_integers(self, "k", "gap_radius")
        if self.k < 1:
            raise ValueError("neighbourhood radius k must be >= 1")
        if self.mode not in (THREE_CLASS, FOUR_CLASS):
            raise ValueError(f"unknown transform mode {self.mode!r}")
        if self.mode == FOUR_CLASS and self.gap_radius < 1:
            raise ValueError("gap radius must be >= 1 in four-class mode")

    @property
    def channels(self) -> int:
        return 3 if self.mode == THREE_CLASS else 4


def ball_footprint(radius: int, d: int) -> np.ndarray:
    """Discrete hyper-sphere: offsets within Euclidean distance ``radius``.

    ``radius`` and ``d`` must be integers (``TypeError`` otherwise), at
    least 1.  The array is read-only and made once per ``(radius, d)`` of
    the last few used: scene generation asks for one ball per blob, from a
    handful of radii.
    """
    return _ball(operator.index(radius), operator.index(d))


@functools.lru_cache(maxsize=16)
def _ball(radius: int, d: int) -> np.ndarray:
    if radius < 1:
        raise ValueError("structuring-element radius must be >= 1")
    if d < 1:
        raise ValueError(f"a structuring element needs at least 1 axis, got d={d}")
    offsets = np.ogrid[(slice(-radius, radius + 1),) * d]
    ball = sum(o * o for o in offsets) <= radius * radius
    ball.setflags(write=False)
    return ball


def bottom_hat(instance: InstanceLabelMap, radius: int) -> np.ndarray:
    """Closing of the binarized foreground minus the foreground itself, as
    a boolean mask of the background elements the closing fills.

    Border policy: the foreground pattern is extended by ``radius`` elements
    of edge replication, and the closing runs on that grid with false
    beyond it, the border of ``scipy.ndimage``'s binary morphology.
    Cavities between cells keep their walls when they run into the border
    and still fill, while open background at the border stays open; no
    interior foreground appears out of nothing.

    The dilation is folded with ``np.logical_or`` over the ball on the grid
    edge-padded by ``2 * radius``, which gives it on the ``radius``-padded
    grid; the erosion folds ``np.logical_and`` back onto the grid.  Reading
    edge values instead of false beyond the ``radius``-padded grid changes
    nothing: an offset that leaves that grid reads the same edge value as
    the offset clamped to its border, which is no longer along any axis and
    so lies inside the ball too.  The erosion of a grid element never
    reaches beyond the ``radius``-padded grid.
    """
    fg = instance.labels > 0
    padded = np.pad(fg, 2 * radius, mode="edge")
    dilated = np.zeros([n + 2 * radius for n in fg.shape], dtype=bool)
    _fold_ball(np.logical_or, padded, radius, dilated)
    # Each grid is dropped once read, so at most four are alive at a time.
    del padded
    closed = _fold_ball(np.logical_and, dilated, radius, np.ones(fg.shape, dtype=bool))
    del dilated
    closed &= ~fg
    return closed


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


def _fold_ball(ufunc: np.ufunc, padded: np.ndarray, radius: int, out: np.ndarray) -> np.ndarray:
    """``fold_windows(ufunc, padded, ball_footprint(radius, d), out)`` for
    ``np.logical_or`` or ``np.logical_and``, in fewer passes.

    The ball is a stack of lines along the last axis: through the leading
    offset ``p`` runs the line of half-length ``h(p)``, the largest ``h``
    with ``|p|**2 + h**2 <= radius**2``.  A running fold over the centred
    line grows with ``h = 0..radius`` by the offsets ``+-h``; after each
    step, the offsets ``p`` with ``h(p) = h`` fold it into ``out``.  Both
    ufuncs are exact, so no order of the offsets changes a bit.  At radius
    3 that is 3 + 29 passes for the 123 offsets of the 3-D ball.
    """
    d = padded.ndim
    ball = ball_footprint(radius, d)
    height = np.where(ball.any(axis=-1), ball.sum(axis=-1) // 2, -1)
    lines = padded[..., radius:-radius].copy()
    for h in range(radius + 1):
        if h:
            step = np.zeros((1,) * (d - 1) + (2 * radius + 1,), dtype=bool)
            step[..., [radius - h, radius + h]] = True
            fold_windows(ufunc, padded, step, lines)
        fold_windows(ufunc, lines, (height == h)[..., None], out)
    return out


def _fold_box(ufunc: np.ufunc, values: np.ndarray, k: int, fill: int) -> np.ndarray:
    """``ufunc`` folded over the Chebyshev-``k`` box around every element,
    with ``fill`` beyond the grid.

    The box is separable: one pass per axis folds the 2r+1 windows of a line
    structure over the previous pass, with ``r = min(k, n)`` on an axis of
    length ``n``: offset ``n`` already reads ``fill`` from every element, and
    folding ``fill`` in again changes no ``np.maximum`` or ``np.minimum``, so
    a larger ``k`` gives the same box.  Every pass reads the same buffer,
    padded by each axis's ``r`` with ``fill`` on all sides: it copies its
    input into the interior and reads the view padded along its own axis
    only.
    """
    d = values.ndim
    radii = [min(k, n) for n in values.shape]
    padded = np.full([n + 2 * r for n, r in zip(values.shape, radii)], fill, dtype=values.dtype)
    inner = tuple(slice(r, r + n) for n, r in zip(values.shape, radii))
    out = np.empty_like(values)
    src = values
    for axis, r in enumerate(radii):
        padded[inner] = src
        line = np.ones([2 * r + 1 if a == axis else 1 for a in range(d)], dtype=bool)
        out.fill(fill)
        fold_windows(ufunc, padded[inner[:axis] + (slice(None),) + inner[axis + 1 :]], line, out)
        src = out
    return out


def _touching_mask(labels: np.ndarray, k: int) -> np.ndarray:
    """Foreground elements with a different nonzero label within Chebyshev k.

    A window maximum and a window minimum over nonzero labels decide the test:
    some other nonzero label exists in the window exactly when the window
    maximum exceeds the element's own label or the nonzero minimum undercuts
    it.  On the foreground the window holds the element itself, so the
    minimum is at most its label and the maximum at least, and the test is
    the two differing.
    """
    fg = labels > 0
    win_max = _fold_box(np.maximum, labels, k, 0)
    # The int32 maximum is never below a label, so it stands in for +inf.
    top = np.iinfo(np.int32).max
    win_min = _fold_box(np.minimum, np.where(fg, labels, top), k, top)
    return fg & (win_max != win_min)


def to_semantic(instance: InstanceLabelMap, cfg: TransformConfig) -> SemanticLabelMap:
    """Classify every element as background, cell, touching or gap.

    The class cases are evaluated top-down per element: background elements
    are split into plain background and gap by the bottom-hat indicator;
    foreground elements are split into touching and cell by the
    neighbourhood test.  Three-class mode drops the gap case, so those
    elements stay background.
    """
    labels = instance.labels
    fg = labels > 0
    out = np.zeros(labels.shape, dtype=np.int32)
    out[fg] = CELL
    out[_touching_mask(labels, cfg.k)] = TOUCHING
    if cfg.mode == FOUR_CLASS:
        out[bottom_hat(instance, cfg.gap_radius)] = GAP
    return SemanticLabelMap(out)
