"""From probability fields to panoptic instance maps.

Three steps: a per-element MAP decision, reassignment of gap elements to
one of the first three classes, and instance labelling of the cell
components with iterative absorption of the touching band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import fold_windows
from .grids import InstanceLabelMap, ProbabilityField, SemanticLabelMap, argmax_channels
from .transform import CELL, GAP, TOUCHING, ball_footprint

__all__ = [
    "PostprocessConfig",
    "resolve_gaps",
    "to_instances",
    "instances_from_probs",
]

MAP3 = "map3"
GAP_TO_BACKGROUND = "background"
DUBIOUS = "dubious"

FACE = "face"
FULL = "full"


@dataclass(frozen=True)
class PostprocessConfig:
    """Gap handling and component connectivity.

    ``map3`` re-decides every gap element as the most likely of the first
    three classes (which already covers sending it to background when
    background wins).  ``background`` sends gaps to background outright.
    ``dubious`` does so too unless the top probabilities are within ``tau``
    of each other, in which case the restricted MAP decides.
    """

    gap_mode: str = MAP3
    tau: float = 0.1
    connectivity: str = FACE

    def __post_init__(self):
        if self.gap_mode not in (MAP3, GAP_TO_BACKGROUND, DUBIOUS):
            raise ValueError(f"unknown gap mode {self.gap_mode!r}")
        if self.gap_mode == DUBIOUS and not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.connectivity not in (FACE, FULL):
            raise ValueError(f"unknown connectivity {self.connectivity!r}")


def resolve_gaps(
    semantic: SemanticLabelMap, probs: ProbabilityField, cfg: PostprocessConfig
) -> SemanticLabelMap:
    """Re-decide every gap element onto the first three classes.

    Non-gap elements pass through unchanged; the output never contains the
    gap class.
    """
    classes = semantic.classes
    if classes.shape != probs.values.shape[:-1]:
        raise ValueError("semantic map and probability field shapes differ")
    out = classes.copy()
    gap = classes == GAP
    if not gap.any():
        return SemanticLabelMap(out)
    if probs.channels < 3:
        raise ValueError("gap resolution needs at least 3 channels")

    first3 = probs.values[gap][:, :3]
    restricted, top = argmax_channels(first3)
    if cfg.gap_mode == MAP3:
        out[gap] = restricted
    elif cfg.gap_mode == GAP_TO_BACKGROUND:
        out[gap] = 0
    else:
        spread = top - np.median(first3, axis=-1)
        out[gap] = np.where(spread < cfg.tau, restricted, 0)
    return SemanticLabelMap(out)


def _structure(connectivity: str, d: int) -> np.ndarray:
    """The neighbourhood of an element, centre included: face neighbours
    or the full Chebyshev-1 cube."""
    if connectivity == FULL:
        return np.ones((3,) * d, dtype=bool)
    return ball_footprint(1, d)


def to_instances(semantic: SemanticLabelMap, cfg: PostprocessConfig | None = None) -> InstanceLabelMap:
    """Label cell components, then grow them into the touching band.

    Components of the cell class receive labels 1..m in scan order.  The
    touching elements are absorbed by repeated one-element label dilation:
    each round assigns every still-unlabelled touching element adjacent to
    a labelled element the smallest adjacent label, until nothing changes.
    Touching elements no component can reach become background.
    """
    # Imported here, not at module level, so that only the subcommands that
    # label instances pay for loading scipy.ndimage.
    from scipy import ndimage

    cfg = cfg or PostprocessConfig()
    classes = semantic.classes
    if (classes == GAP).any():
        raise ValueError("instance labelling expects gaps to be resolved first")
    d = classes.ndim

    cells = classes == CELL
    structure = _structure(cfg.connectivity, d)
    labels, m = ndimage.label(cells, structure=structure)
    labels = labels.astype(np.int32)

    touching = classes == TOUCHING
    sentinel = np.int32(m + 1)
    padded = np.full([n + 2 for n in labels.shape], sentinel)
    interior = padded[(slice(1, -1),) * d]
    best = np.empty_like(labels)
    while True:
        unassigned = touching & (labels == 0)
        if not unassigned.any():
            break
        np.copyto(interior, np.where(labels > 0, labels, sentinel))
        best.fill(sentinel)
        # The centre window reads the unassigned element itself, a sentinel,
        # so it changes no minimum where ``grow`` looks.
        fold_windows(np.minimum, padded, structure, best)
        grow = unassigned & (best <= m)
        if not grow.any():
            break  # remaining touching elements are unreachable
        labels[grow] = best[grow]

    return InstanceLabelMap(labels)


def instances_from_probs(
    probs: ProbabilityField, cfg: PostprocessConfig | None = None
) -> InstanceLabelMap:
    """Full pipeline: MAP decision, gap resolution, instance labelling."""
    cfg = cfg or PostprocessConfig()
    decided = probs.argmax_classes()
    if probs.channels >= 4:
        decided = resolve_gaps(decided, probs, cfg)
    return to_instances(decided, cfg)
