"""Instance-to-semantic ground-truth transform.

Turns an instance annotation into the three- or four-class semantic map
used for training: background, cell, touching, and (in four-class mode)
gap.  Gaps are the background elements filled by a morphological closing
of the foreground; touching elements are foreground elements that see a
different nonzero label within a Chebyshev-``k`` neighbourhood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

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
    data dependent, so it stays configurable.
    """

    k: int = 2
    gap_radius: int = 3
    mode: str = FOUR_CLASS

    def __post_init__(self):
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
    """Discrete hyper-sphere: offsets within Euclidean distance ``radius``."""
    if radius < 1:
        raise ValueError("structuring-element radius must be >= 1")
    axes = np.meshgrid(*[np.arange(-radius, radius + 1)] * d, indexing="ij")
    return sum(a**2 for a in axes) <= radius**2


def bottom_hat(instance: InstanceLabelMap, radius: int) -> np.ndarray:
    """Closing of the binarized foreground minus the foreground itself, as
    a boolean mask of the background elements the closing fills.

    Border policy: the foreground pattern is extended by edge replication
    before the closing.  Cavities between cells keep their walls when they
    run into the border and still fill, while open background at the
    border stays open; no interior foreground appears out of nothing.
    """
    fg = instance.labels > 0
    d = fg.ndim
    ball = ball_footprint(radius, d)
    padded = np.pad(fg, radius, mode="edge")
    dilated = ndimage.binary_dilation(padded, structure=ball)
    closed = ndimage.binary_erosion(dilated, structure=ball)
    core = closed[(slice(radius, -radius),) * d]
    return core & ~fg


def _touching_mask(labels: np.ndarray, k: int) -> np.ndarray:
    """Foreground elements with a different nonzero label within Chebyshev k.

    A window maximum and a window minimum over nonzero labels decide the test:
    some other nonzero label exists in the window exactly when the window
    maximum exceeds the element's own label or the nonzero minimum undercuts
    it.  The element itself never triggers (its label equals its own).
    """
    fg = labels > 0
    size = 2 * k + 1
    win_max = ndimage.maximum_filter(labels, size=size, mode="constant", cval=0)
    # The int32 maximum is never below a label, so it stands in for +inf.
    top = np.iinfo(np.int32).max
    as_top = np.where(fg, labels, top)
    win_min = ndimage.minimum_filter(as_top, size=size, mode="constant", cval=top)
    return fg & ((win_max > labels) | (win_min < labels))


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
