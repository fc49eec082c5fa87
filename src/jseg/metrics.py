"""Binary classification measures, Pearson correlation, and panoptic metrics.

:func:`confusion_measures` holds the one definition of the six binary
measures, on count arrays of any shape; :func:`binary_measures` applies it
to one confusion matrix and the imbalance sweep to every trial at once.
Measures with a zero denominator report 0 and flag the measure name in the
report instead of raising, which keeps batch evaluation total and explicit.
Both paths take counts through one check, :func:`_checked_counts`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import InstanceLabelMap

#: The binary measures, in the order of every table that lists them.
MEASURES = ("j", "mcc", "jaccard", "f1", "tversky", "accuracy")

#: Largest confusion count: every whole number up to it is a float64, and
#: the product of four such sums in MCC stays finite.
MAX_COUNT = 2**53

__all__ = [
    "MEASURES",
    "ConfusionCounts",
    "MetricReport",
    "InstanceMatching",
    "confusion_measures",
    "binary_measures",
    "pearson",
    "match_instances",
    "panoptic",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        _checked_counts(self.tp, self.fp, self.fn, self.tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricReport:
    """Named scalar measures plus provenance metadata.

    ``flagged`` lists measures whose denominator was zero and whose value
    was therefore reported as 0.
    """

    values: dict[str, float]
    flagged: frozenset[str] = frozenset()
    meta: dict = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        return self.values[name]


@dataclass(frozen=True)
class InstanceMatching:
    """Unique IoU>0.5 matching between two instance maps.

    Each label appears in at most one match; IoU above one half makes the
    matching unique, no assignment problem needs solving.
    """

    matches: tuple[tuple[int, int, float], ...]
    unmatched_gt: tuple[int, ...]
    unmatched_pred: tuple[int, ...]


def _checked_counts(*counts) -> tuple[np.ndarray, ...]:
    """The counts as float64 arrays.  Raises ``ValueError`` unless every
    count is a whole number in ``[0, MAX_COUNT]``, so NaN, infinities,
    fractions and negative counts fail."""
    out = []
    for c in counts:
        a = np.asarray(c)
        try:  # kind O: Python ints beyond 64 bits
            f = a.astype(np.float64) if a.dtype.kind in "biufO" else None
        except (TypeError, ValueError, OverflowError):
            f = None
        # A NaN passes into the minimum and fails there.  The maximum is of
        # integer counts as given, so they compare exactly (2**53 + 1 rounds
        # to 2**53 as a float), and of float counts as float64, which holds
        # 2**53 where a float16 would overflow.
        if f is None or f.size and not (
            f.min() >= 0 and (f if a.dtype.kind == "f" else a).max() <= MAX_COUNT
            and (a.dtype.kind in "biu" or (np.floor(f) == f).all())
        ):
            raise ValueError(f"confusion counts must be whole numbers in [0, 2**53], got {c!r}")
        out.append(f)
    return tuple(out)


def _ratio(num, den) -> tuple[np.ndarray, np.ndarray]:
    """``num / den`` with 0 where ``den`` is zero, and the mask of those places."""
    zero = np.asarray(den) == 0
    out = np.zeros(np.broadcast_shapes(np.shape(num), np.shape(den)))
    return np.divide(num, den, out=out, where=~zero), zero


def confusion_measures(tp, fp, fn, tn) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Youden's J, MCC, Jaccard, F1, Tversky (false negatives and positives
    weighted one half each) and Accuracy from count arrays of one shape.

    Returns two dicts keyed by :data:`MEASURES`: the float64 values, and
    masks of the entries whose denominator is zero (for J, that of either
    rate), where the value is 0.  J is sensitivity plus specificity minus
    one, so it sits at zero for any classifier independent of the truth, at
    every imbalance ratio.  Raises ``ValueError`` for counts that
    :func:`_checked_counts` rejects.
    """
    tp, fp, fn, tn = _checked_counts(tp, fp, fn, tn)
    tpr, no_pos = _ratio(tp, tp + fn)
    tnr, no_neg = _ratio(tn, tn + fp)
    j_zero = no_pos | no_neg
    measures = (
        (np.where(j_zero, 0.0, tpr + tnr - 1.0), j_zero),
        _ratio(tp * tn - fp * fn, np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))),
        _ratio(tp, tp + fp + fn),
        _ratio(2 * tp, 2 * tp + fp + fn),
        _ratio(tp, tp + 0.5 * fn + 0.5 * fp),
        _ratio(tp + tn, tp + fp + fn + tn),
    )
    values, zero = (dict(zip(MEASURES, part)) for part in zip(*measures))
    return values, zero


def binary_measures(counts: ConfusionCounts) -> MetricReport:
    """The measures of :func:`confusion_measures` from one confusion matrix."""
    if counts.total == 0:
        raise ValueError("cannot compute rates from an empty confusion matrix")
    values, zero = confusion_measures(counts.tp, counts.fp, counts.fn, counts.tn)
    return MetricReport(
        values={m: float(values[m]) for m in MEASURES},
        flagged=frozenset(m for m in MEASURES if zero[m]),
        meta={"tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "tn": counts.tn},
    )


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient of two equal-length sequences.

    Each sequence is first scaled by the power of two that brings its
    largest magnitude into [1/2, 1), so that its sums and squares cannot
    overflow and tiny data keeps its variance.  Scaling by a power of two
    is exact and the coefficient does not depend on scale, so data in the
    normal range gets the bits of the unscaled formula.  Raises ``ValueError`` for
    values that are not real numbers or not finite, for sequences of unequal
    length or shorter than 2, and for zero variance.
    """
    x, y = np.asarray(xs), np.asarray(ys)
    if x.dtype.kind not in "biuf" or y.dtype.kind not in "biuf":
        raise ValueError("Pearson correlation needs real numbers")
    x, y = x.astype(np.float64, copy=False), y.astype(np.float64, copy=False)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-D sequences of length >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("Pearson correlation needs finite values")
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float((dx**2).sum())
    sy = float((dy**2).sum())
    if sx == 0.0 or sy == 0.0:
        raise ValueError("Pearson correlation is undefined for zero variance")
    return float((dx * dy).sum() / np.sqrt(sx * sy))


def _ranked(labels: InstanceLabelMap) -> tuple[np.ndarray, np.ndarray]:
    """The flat labels as int64 ranks whose bincount grows with the element
    count, and the label of each rank.  A map whose largest label exceeds
    its element count is ranked among its labels and 0, which keeps rank 0;
    any other map's labels are their own ranks."""
    flat = labels.labels.ravel().astype(np.int64)
    if (m := labels.m) <= flat.size:
        return flat, np.arange(m + 1)
    names, ranks = np.unique(np.append(0, flat), return_inverse=True)
    return ranks[1:], names


def match_instances(gt: InstanceLabelMap, pred: InstanceLabelMap) -> InstanceMatching:
    """All instance pairs with IoU strictly above one half.

    Background (label 0) is not an instance.  Strict ``> 0.5`` inherits the
    uniqueness guarantee: no label can clear one half with two partners.
    Memory grows with the element count, whatever the largest label: labels
    are matched by rank (see :func:`_ranked`), which keeps their order.
    """
    if gt.labels.shape != pred.labels.shape:
        raise ValueError(
            f"shape mismatch: gt {gt.labels.shape} vs prediction {pred.labels.shape}"
        )
    g, names_g = _ranked(gt)
    p, names_p = _ranked(pred)
    areas_g = np.bincount(g, minlength=1)
    areas_p = np.bincount(p, minlength=1)
    stride = len(areas_p)

    # Unique keys come sorted, so the matches come in (gt, pred) order.
    both = (g > 0) & (p > 0)
    pair_keys, inter = np.unique(g[both] * stride + p[both], return_counts=True)
    lg, lp = np.divmod(pair_keys, stride)
    iou = inter / (areas_g[lg] + areas_p[lp] - inter)
    hit = iou > 0.5
    lg, lp = lg[hit], lp[hit]
    areas_g[lg] = areas_p[lp] = 0  # the labels that still have an area are unmatched
    return InstanceMatching(
        matches=tuple(zip(names_g[lg].tolist(), names_p[lp].tolist(), iou[hit].tolist())),
        unmatched_gt=tuple(names_g[np.flatnonzero(areas_g[1:]) + 1].tolist()),
        unmatched_pred=tuple(names_p[np.flatnonzero(areas_p[1:]) + 1].tolist()),
    )


def panoptic(gt: InstanceLabelMap, pred: InstanceLabelMap) -> MetricReport:
    """Detection precision (P05), recognition (RQ), segmentation (SQ) and
    panoptic quality (PQ) of a predicted instance map.

    PQ equals the summed IoU of matches over ``TP + FP/2 + FN/2`` and
    factors exactly into SQ times RQ whenever matches exist.
    """
    matching = match_instances(gt, pred)
    tp = len(matching.matches)
    fp = len(matching.unmatched_pred)
    fn = len(matching.unmatched_gt)
    iou_sum = sum(iou for _, _, iou in matching.matches)
    ratios = {
        "p05": _ratio(tp, tp + fp),
        "rq": _ratio(2 * tp, 2 * tp + fp + fn),
        "sq": _ratio(iou_sum, tp),
        "pq": _ratio(iou_sum, tp + fp / 2 + fn / 2),
    }
    return MetricReport(
        values={m: float(value) for m, (value, _) in ratios.items()},
        flagged=frozenset(m for m, (_, zero) in ratios.items() if zero),
        meta={"tp": tp, "fp": fp, "fn": fn, "matches": matching},
    )
