"""Independent brute-force references used by the tests.

Everything here is deliberately written with plain shifts, Python loops and
first-principles set arithmetic, not with the library's scipy-filter code
paths, so the tests compare two genuinely different routes to the same
definitions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def ball_offsets(radius: int, d: int) -> list[tuple[int, ...]]:
    """All integer offsets within Euclidean distance ``radius``."""
    rng = range(-radius, radius + 1)
    return [
        off
        for off in itertools.product(rng, repeat=d)
        if sum(o * o for o in off) <= radius * radius
    ]


def chebyshev_offsets(k: int, d: int) -> list[tuple[int, ...]]:
    """All nonzero offsets with Chebyshev norm at most ``k``."""
    rng = range(-k, k + 1)
    return [off for off in itertools.product(rng, repeat=d) if any(off)]


def _shift_bool(mask: np.ndarray, offset: tuple[int, ...], fill: bool) -> np.ndarray:
    out = np.full_like(mask, fill)
    src, dst = [], []
    for n, o in zip(mask.shape, offset):
        if o >= 0:
            src.append(slice(0, n - o))
            dst.append(slice(o, n))
        else:
            src.append(slice(-o, n))
            dst.append(slice(0, n + o))
    out[tuple(dst)] = mask[tuple(src)]
    return out


def brute_closing(mask: np.ndarray, radius: int) -> np.ndarray:
    """Dilation-then-erosion with a Euclidean ball, edge-replicated border.

    Replication continues the grid pattern outward, so cavities whose
    walls run into the border still fill while open border background
    stays open.
    """
    offsets = ball_offsets(radius, mask.ndim)
    padded = np.pad(mask, radius, mode="edge")
    dilated = np.zeros_like(padded)
    for off in offsets:
        dilated |= _shift_bool(padded, off, False)
    eroded = np.ones_like(padded)
    for off in offsets:
        eroded &= _shift_bool(dilated, off, True)
    core = tuple(slice(radius, n - radius) for n in padded.shape)
    return eroded[core]


def brute_bottom_hat(labels: np.ndarray, radius: int) -> np.ndarray:
    fg = labels > 0
    return (brute_closing(fg, radius) & ~fg).astype(np.uint8)


def brute_semantic(labels: np.ndarray, k: int, gap_radius: int, four_class: bool = True) -> np.ndarray:
    """Shift-based reference for the four-class transform."""
    fg = labels > 0
    touching = np.zeros_like(fg)
    for off in chebyshev_offsets(k, labels.ndim):
        neighbor = _shift_int(labels, off)
        touching |= fg & (neighbor != labels) & (neighbor != 0)
    out = np.zeros(labels.shape, dtype=np.int32)
    out[fg] = 1
    out[touching] = 2
    if four_class:
        gap = brute_bottom_hat(labels, gap_radius) > 0
        out[gap & ~fg] = 3
    return out


def _shift_int(arr: np.ndarray, offset: tuple[int, ...]) -> np.ndarray:
    out = np.zeros_like(arr)
    src, dst = [], []
    for n, o in zip(arr.shape, offset):
        if o >= 0:
            src.append(slice(0, n - o))
            dst.append(slice(o, n))
        else:
            src.append(slice(-o, n))
            dst.append(slice(0, n + o))
    out[tuple(dst)] = arr[tuple(src)]
    return out


def pointwise_semantic(labels: np.ndarray, k: int, gap_radius: int) -> np.ndarray:
    """Per-element Python-loop transform; the slowest, most literal reference.

    Used on tiny grids to validate the shift-based reference above.
    """
    dims = labels.shape
    d = len(dims)
    fg_closed = brute_closing(labels > 0, gap_radius)
    out = np.zeros(dims, dtype=np.int32)
    for idx in itertools.product(*[range(n) for n in dims]):
        own = labels[idx]
        if own == 0:
            out[idx] = 3 if fg_closed[idx] else 0
            continue
        touching = False
        for off in chebyshev_offsets(k, d):
            nb = tuple(i + o for i, o in zip(idx, off))
            if all(0 <= j < n for j, n in zip(nb, dims)):
                other = labels[nb]
                if other != own and other != 0:
                    touching = True
                    break
        out[idx] = 2 if touching else 1
    return out


def brute_confusion(gt: np.ndarray, pred: np.ndarray) -> tuple[int, int, int, int]:
    tp = int(np.sum(gt & pred))
    fp = int(np.sum(~gt & pred))
    fn = int(np.sum(gt & ~pred))
    tn = int(np.sum(~gt & ~pred))
    return tp, fp, fn, tn


def brute_iou_table(gt: np.ndarray, pred: np.ndarray) -> dict[tuple[int, int], float]:
    """IoU of every overlapping (gt, pred) instance pair, by set arithmetic."""
    table = {}
    for lg in np.unique(gt):
        if lg == 0:
            continue
        mask_g = gt == lg
        for lp in np.unique(pred[mask_g]):
            if lp == 0:
                continue
            mask_p = pred == lp
            inter = int(np.sum(mask_g & mask_p))
            union = int(np.sum(mask_g | mask_p))
            table[(int(lg), int(lp))] = inter / union
    return table


def pair_loop_j(y: np.ndarray, z: np.ndarray, lam: np.ndarray, log_eps: float = 1e-7):
    """Pairwise Youden's-J surrogate and its gradient in ``z``, one class
    pair at a time.

    ``y`` is a one-hot target and ``z`` a probability field of the same
    shape, channel last; ``lam`` holds the pair weights.  Each ordered pair
    (i positive, k negative) of present classes adds
    ``-lam[i, k] * log(clamp(a_ik))`` with ``a_ik = 1/2 + sum_p z_i(p) *
    (y_i(p) / n_i - y_k(p) / n_k) / 2``, clamped to ``[log_eps, 1]``; the
    diagonal, zero weights and absent classes add nothing.
    """
    channels = y.shape[-1]
    counts = [float(y[..., l].sum()) for l in range(channels)]
    total = 0.0
    dz = np.zeros_like(z)
    for i in range(channels):
        for k in range(channels):
            if i == k or counts[i] == 0 or counts[k] == 0 or lam[i, k] == 0:
                continue
            delta = 0.5 * (y[..., i] / counts[i] - y[..., k] / counts[k])
            a = 0.5 + float((z[..., i] * delta).sum())
            total -= lam[i, k] * math.log(min(max(a, log_eps), 1.0))
            if log_eps < a < 1.0:
                dz[..., i] -= lam[i, k] * delta / a
    return total, dz
