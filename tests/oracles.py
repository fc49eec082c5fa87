"""Independent brute-force references used by the tests.

Everything here is deliberately written with plain shifts, Python loops,
first-principles set arithmetic or the scipy filters a library path has
replaced, never with the code path under test, so the tests compare two
genuinely different routes to the same definitions.  Some references are
library paths that a faster one replaced, kept here so the tests can pin
the new path to their bits: ``dense_core`` holds the dense loss bodies.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import ndimage

from jseg import (
    InstanceLabelMap,
    InstanceMatching,
    LogitField,
    PostprocessConfig,
    ProbabilityField,
    evaluate_loss,
    generate_scene,
    instances_from_probs,
    one_hot,
    panoptic,
    probs_to_logits,
    softmax,
    to_semantic,
)
from jseg._util import child_rng, l2_norm
from jseg.postprocess import GAP_TO_BACKGROUND
from jseg.train import TrainTrace
from jseg.transform import CELL, GAP, ball_footprint


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


def face_offsets(d: int) -> list[tuple[int, ...]]:
    """The 2*d nonzero offsets with one coordinate of +-1."""
    return [off for off in chebyshev_offsets(1, d) if sum(map(abs, off)) == 1]


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


def ndimage_bottom_hat(labels: np.ndarray, radius: int) -> np.ndarray:
    """The bottom-hat as ``jseg.transform.bottom_hat`` computed it before its
    window folds: the foreground edge-padded by ``radius`` and closed by
    ``ndimage.binary_dilation`` and ``binary_erosion`` with the ball, false
    beyond the padded grid."""
    fg = labels > 0
    ball = ball_footprint(radius, fg.ndim)
    padded = np.pad(fg, radius, mode="edge")
    dilated = ndimage.binary_dilation(padded, structure=ball)
    closed = ndimage.binary_erosion(dilated, structure=ball)
    core = closed[(slice(radius, -radius),) * fg.ndim]
    return core & ~fg


def ndimage_touching_mask(labels: np.ndarray, k: int) -> np.ndarray:
    """The touching test as ``jseg.transform._touching_mask`` computed it
    before its box folds: ``ndimage.maximum_filter`` over the labels and
    ``minimum_filter`` over the labels with background raised to the int32
    maximum, both constant beyond the grid."""
    fg = labels > 0
    size = 2 * k + 1
    win_max = ndimage.maximum_filter(labels, size=size, mode="constant", cval=0)
    top = np.iinfo(np.int32).max
    as_top = np.where(fg, labels, top)
    win_min = ndimage.minimum_filter(as_top, size=size, mode="constant", cval=top)
    return fg & ((win_max > labels) | (win_min < labels))


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
    """``arr`` moved by ``offset``, zero where nothing moves in; an offset
    as long as its axis or longer moves nothing in."""
    out = np.zeros_like(arr)
    src, dst = [], []
    for n, o in zip(arr.shape, offset):
        o = max(-n, min(n, o))
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


def pair_loop_matching(gt: InstanceLabelMap, pred: InstanceLabelMap) -> InstanceMatching:
    """The IoU>0.5 matching of two instance maps, one overlapping pair at a
    time, with the matched labels collected in sets."""
    g = gt.labels.ravel().astype(np.int64)
    p = pred.labels.ravel().astype(np.int64)
    areas_g = np.bincount(g, minlength=1)
    areas_p = np.bincount(p, minlength=1)
    stride = int(p.max(initial=0)) + 1
    both = (g > 0) & (p > 0)
    pair_keys, inter = np.unique(g[both] * stride + p[both], return_counts=True)

    matches = []
    matched_g: set[int] = set()
    matched_p: set[int] = set()
    for pair_key, overlap in zip(pair_keys, inter):
        lg = int(pair_key // stride)
        lp = int(pair_key % stride)
        union = int(areas_g[lg]) + int(areas_p[lp]) - int(overlap)
        iou = overlap / union
        if iou > 0.5:
            matches.append((lg, lp, float(iou)))
            matched_g.add(lg)
            matched_p.add(lp)
    matches.sort()
    gt_labels = [int(l) for l in np.flatnonzero(areas_g) if l > 0]
    pred_labels = [int(l) for l in np.flatnonzero(areas_p) if l > 0]
    return InstanceMatching(
        matches=tuple(matches),
        unmatched_gt=tuple(l for l in gt_labels if l not in matched_g),
        unmatched_pred=tuple(l for l in pred_labels if l not in matched_p),
    )


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


def dense_core(loss_id: str, y: np.ndarray, lam: np.ndarray, log_eps: float = 1e-7):
    """The dense body of a ``jseg.losses`` core: ``z -> (parts, dL/dz)``
    for ``(..., n, C)`` probabilities, one value per leading item.

    ``y`` is the ``(n, C)`` one-hot target and ``lam`` the J pair weights
    (used by j and jc).  Every term is taken at every entry and every pair,
    in the matrix form, with the ufuncs of the library's cores in their
    order, so the parts and ``dz`` are the cores' bits: CE as ``w y log z``
    over the whole field, J with ``S = phi^T z`` and the gradient ``y @ m``
    over the full C x C matrices.
    """
    n, channels = y.shape
    counts = y.sum(axis=0)
    present = counts > 0

    def ce(z, class_weights=None):
        wy = y if class_weights is None else class_weights * y
        clamped = np.maximum(z, log_eps)
        value = -(wy * np.log(clamped)).sum(axis=(-2, -1)) / n
        dz = -wy / clamped
        dz[z <= log_eps] = -0.0
        return value, dz / n

    def j(z):
        n_l = np.where(present, counts, 1.0)
        phi_t = (y / n_l).T
        pairs = (lam != 0.0) & present & present[:, None]
        np.fill_diagonal(pairs, False)
        s = phi_t @ z
        a = 0.5 + 0.5 * (np.diagonal(s, axis1=-2, axis2=-1)[..., None] - np.swapaxes(s, -1, -2))
        log_a = np.log(np.minimum(np.maximum(a, log_eps), 1.0))
        value = -np.where(pairs, lam * log_a, 0.0).sum(axis=(-2, -1))
        active = pairs & (a > log_eps) & (a < 1.0)
        half = np.where(active, 0.5 * lam, 0.0)
        a = np.where(active, a, 1.0)
        m = np.swapaxes(half / (a * n_l), -1, -2).copy()
        ch = np.arange(channels)
        m[..., ch, ch] -= (half / (a * n_l[:, None])).sum(axis=-1)
        return value, y @ m

    def core(z):
        if loss_id == "ce":
            value, dz = ce(z)
            return {"ce": value}, dz
        if loss_id == "bwm":
            w = np.divide(n, channels * counts, out=np.zeros(channels), where=present)
            value, dz = ce(z, w)
            return {"bwm": value}, dz
        if loss_id == "j":
            value, dz = j(z)
            return {"j": value}, dz
        if loss_id == "jc":
            j_value, j_dz = j(z)
            ce_value, ce_dz = ce(z)
            return {"ce": ce_value, "j": j_value}, j_dz + ce_dz
        ce_value, dz = ce(z)  # dsc
        share = present / np.count_nonzero(present)
        inter = (z * y).sum(axis=-2)[..., None, :]
        denom = np.where(present, (z * z).sum(axis=-2) + counts, 1.0)[..., None, :]
        dice = 1.0 - (2.0 * inter / denom * share).sum(axis=(-2, -1))
        term = 2.0 * y * denom
        term -= 4.0 * inter * z
        term /= denom**2
        term *= share
        return {"ce": ce_value, "dice": dice}, dz - term

    return core


#: Extra clearance between blob surfaces, as in ``jseg.scenes``.
BLOB_CLEARANCE = 1.5


def full_grid_blobs(dims: tuple[int, ...], n_blobs: int, cell_size: int, seed: int) -> np.ndarray:
    """Random-blobs scene labels, placed with one norm call per placed blob
    and rasterized over the whole grid for every blob.

    The literal rejection sampler: same generator, same draw order, so it
    must agree with ``generate_scene`` byte for byte.
    """
    rng = np.random.default_rng(seed)
    base_radius = max(1, cell_size // 2)

    placed: list[tuple[np.ndarray, int]] = []
    for _ in range(n_blobs):
        for _attempt in range(5000):
            radius = int(rng.integers(max(1, base_radius - 1), base_radius + 2))
            if any(n < 2 * radius + 1 for n in dims):
                continue  # this radius cannot fit; retry (possibly smaller)
            center = np.array([int(rng.integers(radius, n - radius)) for n in dims])
            ok = all(
                np.linalg.norm(center - c) >= radius + r + BLOB_CLEARANCE for c, r in placed
            )
            if ok:
                placed.append((center, radius))
                break
        else:
            raise ValueError(
                f"could not place {n_blobs} blobs of diameter ~{cell_size} "
                f"inside the {dims} grid boundary"
            )

    labels = np.zeros(dims, dtype=np.int32)
    grids = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    for label, (center, radius) in enumerate(placed, start=1):
        dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
        labels[dist2 <= radius**2] = label
    return labels


def bernoulli_trials(
    pi: float, p_pred: float, samples: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference sampler for the imbalance sweep, one element at a time.

    Draws ``(trials, samples)`` Bernoulli(pi) truths and Bernoulli(p_pred)
    predictions and redraws both rows of every trial where the truth or the
    prediction misses a class, until none does.  Returns the truths, the
    predictions and the number of trials redrawn; the library samples the
    same law as confusion counts.
    """
    gt = rng.random((trials, samples)) < pi
    pred = rng.random((trials, samples)) < p_pred
    resampled = 0
    while True:
        pos = gt.sum(axis=1)
        ppos = pred.sum(axis=1)
        bad = (pos == 0) | (pos == samples) | (ppos == 0) | (ppos == samples)
        n_bad = int(bad.sum())
        if n_bad == 0:
            return gt, pred, resampled
        resampled += n_bad
        gt[bad] = rng.random((n_bad, samples)) < pi
        pred[bad] = rng.random((n_bad, samples)) < p_pred


def trial_measures(gt: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vectorized confusion measures for a (trials, samples) boolean pair.

    Reference for ``jseg.metrics.confusion_measures`` on the imbalance
    sweep's trials: four boolean reductions, then one expression per
    measure in the order of ``MEASURES``.  Every trial must have both
    classes in the truth and in the prediction.
    """
    tp = (gt & pred).sum(axis=1).astype(np.float64)
    fp = (~gt & pred).sum(axis=1).astype(np.float64)
    fn = (gt & ~pred).sum(axis=1).astype(np.float64)
    tn = (~gt & ~pred).sum(axis=1).astype(np.float64)
    tpr = tp / (tp + fn)
    tnr = tn / (tn + fp)
    j = tpr + tnr - 1.0
    mcc = (tp * tn - fp * fn) / np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    jaccard = tp / (tp + fp + fn)
    f1 = 2 * tp / (2 * tp + fp + fn)
    tversky = tp / (tp + 0.5 * fn + 0.5 * fp)
    accuracy = (tp + tn) / gt.shape[1]
    return j, mcc, jaccard, f1, tversky, accuracy


def scalar_binary_measures(tp: int, fp: int, fn: int, tn: int) -> tuple[dict[str, float], set[str]]:
    """The six binary measures of one confusion matrix, one Python float
    division at a time, and the set of measures whose denominator is zero
    (reported as 0; J when either of its rates has one)."""
    flags: set[str] = set()

    def rate(num, den, name):
        if den == 0:
            flags.add(name)
            return 0.0
        return num / den

    total = tp + fp + fn + tn
    tp, fp, fn, tn = float(tp), float(fp), float(fn), float(tn)
    tpr = rate(tp, tp + fn, "j")
    tnr = rate(tn, tn + fp, "j")
    mcc_den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    values = {
        "j": 0.0 if "j" in flags else tpr + tnr - 1.0,
        "mcc": rate(tp * tn - fp * fn, mcc_den, "mcc"),
        "jaccard": rate(tp, tp + fp + fn, "jaccard"),
        "f1": rate(2 * tp, 2 * tp + fp + fn, "f1"),
        "tversky": rate(tp, tp + 0.5 * fn + 0.5 * fp, "tversky"),
        "accuracy": rate(tp + tn, total, "accuracy"),
    }
    return values, flags


def brute_instances(classes: np.ndarray, connectivity: str) -> np.ndarray:
    """Instance labelling with absorption of the touching band, one element
    at a time.

    Cell components (class 1) are flood-filled over the literal face or
    Chebyshev-1 offsets and numbered 1..m in scan order of their first
    element.  Each round then gives every unlabelled touching element
    (class 2) with a labelled neighbour the smallest such label, all read
    from the labels of the previous round; touching elements that no round
    reaches stay 0.
    """
    dims = classes.shape
    offsets = face_offsets(len(dims)) if connectivity == "face" else chebyshev_offsets(1, len(dims))

    def neighbours(idx):
        for off in offsets:
            nb = tuple(i + o for i, o in zip(idx, off))
            if all(0 <= j < n for j, n in zip(nb, dims)):
                yield nb

    labels = np.zeros(dims, dtype=np.int32)
    m = 0
    for idx in itertools.product(*[range(n) for n in dims]):
        if classes[idx] != 1 or labels[idx]:
            continue
        m += 1
        labels[idx] = m
        stack = [idx]
        while stack:
            for nb in neighbours(stack.pop()):
                if classes[nb] == 1 and not labels[nb]:
                    labels[nb] = m
                    stack.append(nb)

    while True:
        grown = {}
        for idx in itertools.product(*[range(n) for n in dims]):
            if classes[idx] == 2 and not labels[idx]:
                found = [int(labels[nb]) for nb in neighbours(idx) if labels[nb]]
                if found:
                    grown[idx] = min(found)
        if not grown:
            return labels
        for idx, label in grown.items():
            labels[idx] = label


def shift_instances(classes: np.ndarray, connectivity: str) -> np.ndarray:
    """The whole-grid shift loop that ``jseg.postprocess.to_instances`` ran
    before it read its neighbourhood from the labelling structure; its
    output is the byte-for-byte reference for the windowed loop."""
    d = classes.ndim
    structure = ndimage.generate_binary_structure(d, 1 if connectivity == "face" else d)
    labels, m = ndimage.label(classes == 1, structure=structure)
    labels = labels.astype(np.int32)

    touching = classes == 2
    offsets = face_offsets(d) if connectivity == "face" else chebyshev_offsets(1, d)
    sentinel = np.int32(m + 1)
    while True:
        unassigned = touching & (labels == 0)
        if not unassigned.any():
            break
        best = np.full_like(labels, sentinel)
        for off in offsets:
            neighbor = _shift_int(labels, off)
            np.minimum(best, np.where(neighbor > 0, neighbor, sentinel), out=best)
        grow = unassigned & (best <= m)
        if not grow.any():
            break  # remaining touching elements are unreachable
        labels[grow] = best[grow]
    return labels


def shrinkwrap_grad_norms(cfg) -> dict[str, np.ndarray]:
    """The columns of ``jseg.simulate.run_shrinkwrap`` by the literal route.

    Each margin's mask is ``ndimage.binary_dilation`` of the cells by the
    ball of that radius (the cells themselves at margin 0), and every step
    makes three checked ``evaluate_loss`` calls, one per loss, on the
    logits of its prescribed probabilities.  The schedule of margins,
    confidences and ramp is spelled out step by step.
    """
    scene = generate_scene(cfg.scene)
    channels = cfg.transform.channels
    target = one_hot(to_semantic(scene, cfg.transform), channels)
    fg = scene.labels > 0
    t_shrink = cfg.margin_start * cfg.iters_per_margin_step + 1
    masks = {0: fg}
    rows = []
    for t in range(1, cfg.iterations + 1):
        if t <= t_shrink:
            margin = max(0, cfg.margin_start - (t - 1) // cfg.iters_per_margin_step)
            confidence = cfg.confidence_final
            if t_shrink > 1:
                confidence = cfg.confidence_start + (
                    cfg.confidence_final - cfg.confidence_start
                ) * (t - 1) / (t_shrink - 1)
            if margin not in masks:
                masks[margin] = ndimage.binary_dilation(fg, structure=ball_footprint(margin, fg.ndim))
            rest = (1.0 - confidence) / (channels - 1)
            z = np.full(fg.shape + (channels,), rest)
            z[masks[margin], CELL] = confidence
            z[~masks[margin], 0] = confidence
            ramp = 0.0
            if t == t_shrink:
                z_at_shrinkwrap = z
        else:
            margin = 0
            confidence = cfg.confidence_final
            ramp = (t - t_shrink) / (cfg.iterations - t_shrink)
            z = (1.0 - ramp) * z_at_shrinkwrap + ramp * target.values
        logits = probs_to_logits(ProbabilityField(z))
        norms = [evaluate_loss(loss_id, target, logits).grad_norm for loss_id in ("ce", "j", "jc")]
        rows.append([t, margin, confidence, ramp, *norms])
    header = ("iteration", "margin", "confidence", "ramp", "grad_ce", "grad_j", "grad_jc")
    return {name: np.array([row[i] for row in rows]) for i, name in enumerate(header)}


def evaluate_loss_train(target, source, cfg, weights=None):
    """The trace of ``jseg.train.train`` by the literal route.

    Every iteration builds a ``LogitField`` of the logits and makes one
    checked ``evaluate_loss`` call, and every log iteration runs softmax,
    the full post-processing pipeline (gap elements to background) and
    panoptic quality, with no memo.  Adam's update is spelled out step by
    step.  Stops quietly where ``train`` would raise ``TrainDiverged``.
    """
    rng = child_rng(cfg.seed, 0)
    theta = np.zeros(target.values.shape)
    if cfg.init_noise > 0:
        theta += cfg.init_noise * rng.standard_normal(theta.shape)
    gap = target.values[..., GAP] == 1.0 if target.channels > GAP else np.zeros(theta.shape[:-1], bool)
    post = PostprocessConfig(gap_mode=GAP_TO_BACKGROUND)
    m = v = np.zeros(theta.shape)
    lr, beta1, beta2, eps = 1e-4, 0.9, 0.999, 1e-8
    rows = []
    first_gap_correct = None
    final_pq = float("nan")
    for it in range(cfg.iterations + 1):
        logits = LogitField(theta)
        value = evaluate_loss(cfg.loss, target, logits, weights)
        if not np.isfinite(value.total):
            break
        fixed = gap.any() and np.all(np.argmax(theta[gap], axis=-1) == GAP)
        if first_gap_correct is None and fixed:
            first_gap_correct = it
        pq = None
        if it % cfg.log_every == 0 or it == cfg.iterations:
            pq = final_pq = panoptic(source, instances_from_probs(softmax(logits), post))["pq"]
        rows.append([it, value.total, *value.components.values(), value.grad_norm, pq])
        if it == cfg.iterations:
            break
        grad = value.gradient
        if cfg.optimizer == "adam":
            t = it + 1
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad**2
            theta = theta - lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
        else:
            theta = theta - cfg.step_size * grad
        if not np.isfinite(theta).all():
            break
    header = ["iteration", "total", *value.components, "grad_norm", "pq"]
    columns = {name: np.array([row[i] for row in rows]) for i, name in enumerate(header)}
    return TrainTrace(columns if rows else {}, first_gap_correct, final_pq)


def landscape_values(loss_id, target, center, seed=0, resolution=41, span=1.0) -> np.ndarray:
    """The values of ``jseg.simulate.landscape_scan`` by the literal route.

    The directions are drawn and channel-normalised as the scan draws them;
    then every grid cell builds a ``LogitField`` of its perturbed logits
    and makes one checked ``evaluate_loss`` call, one cell at a time.
    """
    rng = np.random.default_rng(seed)
    theta = center.values

    def direction():
        delta = rng.standard_normal(theta.shape)
        for c in range(theta.shape[-1]):
            ref = l2_norm(theta[..., c])
            norm = l2_norm(delta[..., c])
            delta[..., c] *= ref / norm if norm > 0 else 0.0
        return delta

    d1 = direction()
    d2 = direction()
    grid = np.linspace(-span, span, resolution)
    values = np.zeros((resolution, resolution))
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            values[i, j] = evaluate_loss(loss_id, target, LogitField(theta + a * d1 + b * d2)).total
    return values
