"""From probability fields to panoptic instance maps.

Three steps: a per-element MAP decision, reassignment of gap elements to
one of the first three classes, and instance labelling of the cell
components with iterative absorption of the touching band.  Each
absorption round reads the band elements still unlabelled and their
neighbours, not the whole grid; the band left when no element grows
becomes background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import InstanceLabelMap, ProbabilityField, SemanticLabelMap
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
GAP_MODES = (MAP3, GAP_TO_BACKGROUND, DUBIOUS)

FACE = "face"
FULL = "full"
CONNECTIVITIES = (FACE, FULL)


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
        if self.gap_mode not in GAP_MODES:
            raise ValueError(f"unknown gap mode {self.gap_mode!r}")
        if self.gap_mode == DUBIOUS and not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.connectivity not in CONNECTIVITIES:
            raise ValueError(f"unknown connectivity {self.connectivity!r}")


def resolve_gaps(
    semantic: SemanticLabelMap, probs: ProbabilityField, cfg: PostprocessConfig | None = None
) -> SemanticLabelMap:
    """Re-decide every gap element onto the first three classes.

    Non-gap elements pass through unchanged; the output never contains the
    gap class.  A map without gap elements is returned as it is, since
    containers are immutable.  The restricted MAP is numpy's argmax over
    the first three channels, so a tie goes to the lowest class.
    """
    classes = semantic.classes
    if classes.shape != probs.values.shape[:-1]:
        raise ValueError("semantic map and probability field shapes differ")
    gap = classes == GAP
    if not gap.any():
        return semantic
    if probs.channels < 3:
        raise ValueError("gap resolution needs at least 3 channels")

    cfg = cfg or PostprocessConfig()
    out = classes.copy()
    first3 = probs.values[gap][:, :3]
    if cfg.gap_mode == MAP3:
        out[gap] = first3.argmax(axis=-1)
    elif cfg.gap_mode == GAP_TO_BACKGROUND:
        out[gap] = 0
    else:
        spread = first3.max(axis=-1) - np.median(first3, axis=-1)
        out[gap] = np.where(spread < cfg.tau, first3.argmax(axis=-1), 0)
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
    each round gives every still-unlabelled touching element adjacent to a
    labelled element the smallest adjacent label, until nothing changes.

    The rounds read the band only.  The labels live in one copy padded by
    one element, where ``m + 1`` stands for "no label" on the border and on
    unlabelled elements; the band is a list of flat indices into that copy,
    and a round folds ``np.minimum`` over the band's neighbours one flat
    offset at a time, writes the elements that found a label and drops them
    from the band.  Whatever is left of the band when no element grows
    becomes background.
    """
    # Imported here, not at module level, so that only the subcommands that
    # label instances pay for loading scipy.ndimage.
    from scipy import ndimage

    cfg = cfg or PostprocessConfig()
    classes = semantic.classes
    if (classes == GAP).any():
        raise ValueError("instance labelling expects gaps to be resolved first")
    d = classes.ndim

    structure = _structure(cfg.connectivity, d)
    inner = (slice(1, -1),) * d
    labels = np.zeros([n + 2 for n in classes.shape], dtype=np.int32)
    m = ndimage.label(classes == CELL, structure=structure, output=labels[inner])
    band = np.flatnonzero(classes == TOUCHING)
    if m and band.size:
        band = np.ravel_multi_index(np.add(np.unravel_index(band, classes.shape), 1), labels.shape)
        flat = labels.reshape(-1)
        flat[flat == 0] = m + 1
        # Flat offsets of the neighbours; the centre's would read the band
        # element itself, which has no label.
        centre = np.ravel_multi_index((1,) * d, labels.shape)
        offsets = np.ravel_multi_index(np.nonzero(structure), labels.shape) - centre
        offsets = offsets[offsets != 0]
        while band.size:
            best = flat[band + offsets[0]]
            for off in offsets[1:]:
                np.minimum(best, flat[band + off], out=best)
            grow = best <= m
            if not grow.any():
                break  # the rest of the band is unreachable
            flat[band[grow]] = best[grow]
            band = band[~grow]
        flat[flat > m] = 0
    return InstanceLabelMap(labels[inner])


def instances_from_probs(
    probs: ProbabilityField, cfg: PostprocessConfig | None = None
) -> InstanceLabelMap:
    """Full pipeline: MAP decision, gap resolution, instance labelling.

    With fewer than four channels the decision holds no gap element, so
    gap resolution returns it at once.
    """
    cfg = cfg or PostprocessConfig()
    return to_instances(resolve_gaps(probs.argmax_classes(), probs, cfg), cfg)
