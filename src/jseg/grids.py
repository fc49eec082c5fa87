"""Grid containers shared by every other module.

Instance label maps, semantic class maps, probability fields and logit
fields over 2-D or 3-D element grids, plus the softmax / one-hot bridges
between them.  Container arrays are stored C-order with the class channel
last and are marked read-only once a container is built, so instances
can move between threads freely.  All reductions run in a fixed order
(numpy's pairwise summation, or an in-order fold over the channels),
which keeps results independent of worker count.

Each construction checks its input once and makes exactly one copy, in
the container's dtype (int32 for maps, float64 for fields), so no caller
array is ever aliased or frozen.  Callers therefore hand over arrays as
they have them: the grid readers pass the raw file payload (``<u2``,
``>u2`` or ``<f4``) and the container does the cast.

The step loops of training, the shrinkwrap run and the loss layer work
on bare planar arrays instead: ``(C, n)``, one contiguous row (plane) of
``n`` elements per channel, the grid flattened in C order, or ``(k, C,
n)`` for a stack of ``k`` fields.  :func:`planar` makes that copy of a
channel-last array; callers transpose once, at the API boundary.  On
planes every channel fold is one reduction over the channel axis and
every lane operation, which applies one value per element to every
channel, runs one contiguous plane at a time (:func:`lane_op`), so no
operation reads a stride-C view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InstanceLabelMap",
    "SemanticLabelMap",
    "ProbabilityField",
    "LogitField",
    "softmax",
    "one_hot",
    "probs_to_logits",
]

#: Per-element tolerance for the simplex constraint of a ProbabilityField.
PROB_ATOL = 1e-6

#: Default floor that probabilities are raised to before their log is taken.
LOG_FLOOR = 1e-12

_INT32_MAX = np.iinfo(np.int32).max


def _check_dims(dims: tuple[int, ...]) -> None:
    if len(dims) not in (2, 3):
        raise ValueError(f"grid must be 2-D or 3-D, got {len(dims)} dims")
    if min(dims) < 1:
        raise ValueError(f"every grid dimension must be >= 1, got {dims}")


def _label_copy(values, what: str, top: int, bounds: str) -> np.ndarray:
    """The one read-only int32 copy of an integer grid with values in [0, top].

    The range is checked in the input's own dtype, before the cast could wrap.
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise ValueError(f"{what} must be integers")
    _check_dims(values.shape)
    if values.min() < 0 or values.max() > top:
        raise ValueError(f"{what} must {bounds}")
    out = np.array(values, dtype=np.int32, order="C", copy=True)
    out.setflags(write=False)
    return out


def _field_copy(values, what: str, finite: bool = True) -> np.ndarray:
    """The one read-only float64 copy of a real field with >= 2 channels,
    scanned for non-finite values unless ``finite`` is false."""
    if np.asarray(values).dtype.kind not in "biuf":
        raise ValueError(f"{what} values must be real numbers")
    out = np.array(values, dtype=np.float64, order="C", copy=True)
    if out.ndim not in (3, 4):
        raise ValueError(f"{what} field needs spatial dims plus a channel axis")
    _check_dims(out.shape[:-1])
    if out.shape[-1] < 2:
        raise ValueError(f"{what} field needs at least 2 channels")
    if finite and not np.all(np.isfinite(out)):
        raise ValueError(f"{what} values must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class InstanceLabelMap:
    """Non-negative integer instance labels, 0 meaning background."""

    labels: np.ndarray

    def __post_init__(self):
        bounds = f"be non-negative and fit in int32 (at most {_INT32_MAX})"
        labels = _label_copy(self.labels, "instance labels", _INT32_MAX, bounds)
        object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        """Largest label present (0 for an empty map)."""
        return int(self.labels.max(initial=0))


@dataclass(frozen=True)
class SemanticLabelMap:
    """Per-element class indices over {0..3}: background, cell, touching, gap."""

    classes: np.ndarray

    def __post_init__(self):
        classes = _label_copy(self.classes, "semantic classes", 3, "lie in {0, 1, 2, 3}")
        object.__setattr__(self, "classes", classes)


@dataclass(frozen=True)
class ProbabilityField:
    """Per-element simplex vectors over the class channels (channel-last).

    NaN and ±inf fail the range test, which reads only the field's minimum
    and maximum, so the field is scanned for them once; a non-finite
    minimum or maximum then names them.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _field_copy(self.values, "probability", finite=False)
        low, high = values.min(), values.max()
        if not (low >= -PROB_ATOL and high <= 1.0 + PROB_ATOL):
            if not (np.isfinite(low) and np.isfinite(high)):
                raise ValueError("probability values must be finite")
            raise ValueError("probabilities must lie in [0, 1]")
        sums = fold_views(np.add, channel_views(values))
        worst = float(max(sums.max() - 1.0, 1.0 - sums.min()))
        if worst > PROB_ATOL:
            raise ValueError(f"per-element probabilities must sum to 1 (off by {worst:.3g})")
        object.__setattr__(self, "values", values)

    @property
    def channels(self) -> int:
        return int(self.values.shape[-1])

    def is_one_hot(self) -> bool:
        """True when every element puts exactly mass 1 on a single channel.

        Every value 0 or 1 suffices: the channel sum then counts the ones
        exactly, and validation already held each sum within 1e-6 of 1.
        """
        return bool(np.all((self.values == 1.0) | (self.values == 0.0)))

    def argmax_classes(self) -> SemanticLabelMap:
        """Per-element most likely class; ties go to the lowest index."""
        return SemanticLabelMap(argmax_channels(self.values)[0])


@dataclass(frozen=True)
class LogitField:
    """Unbounded per-element class scores; softmax yields a ProbabilityField."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _field_copy(self.values, "logit"))


def channel_views(x: np.ndarray) -> list[np.ndarray]:
    """The channel (last-axis) slices of ``x``, in order."""
    return [x[..., c] for c in range(x.shape[-1])]


def fold_views(ufunc: np.ufunc, views: list[np.ndarray]):
    """Fold ``ufunc`` over ``views`` in order (at least two): the first step
    writes the result and the rest fold into it, so no view is written and
    no other array is made.

    Folded over ``channel_views(x)``, it gives the same result as
    ``ufunc.reduce(x, axis=-1)`` for fewer than 8 channels (bar the sign of
    an all-negative-zero sum), where numpy folds in order too, at a
    fraction of the cost, since numpy's reduction over a short last axis
    pays a loop overhead per element.
    """
    acc = ufunc(views[0], views[1])
    for view in views[2:]:
        ufunc(acc, view, out=acc)
    return acc


def planar(x: np.ndarray) -> np.ndarray:
    """The planar ``(C, n)`` copy of a channel-last array ``x``: row ``c``
    holds channel ``c`` of every element, in the C order of ``x``'s grid."""
    return np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)


def channel_planes(x: np.ndarray) -> list[np.ndarray]:
    """The channel planes of a planar ``(..., C, n)`` array, in order: the
    rows of a ``(C, n)`` field, contiguous."""
    return [x[..., c, :] for c in range(x.shape[-2])]


def lane_op(ufunc: np.ufunc, planes: list, lane: np.ndarray, outs: list) -> None:
    """``ufunc(plane, lane)`` into each of ``outs``, one channel plane of a
    planar array at a time, for a ``(..., n)`` lane: the lane operation
    that applies one value per element to every channel.

    Per element it is the same ufunc on the same operands as a broadcast
    of ``lane[..., None, :]`` over the channel axis, so the same bits.  The
    broadcast is as fast at 96², but over an array that fits in numpy's
    ufunc buffer (8192 elements) it goes through a buffer of numpy's own: a
    field-sized allocation per call at 24×16.
    """
    for plane, out in zip(planes, outs):
        ufunc(plane, lane, out=out)


def argmax_channels(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index (int32) and value of the largest channel, per element.

    Walks the channel slices in order and moves only to a strictly larger
    value, so ties go to the lowest index: for finite ``x``, the same as
    ``np.argmax`` and ``max`` over the last axis, at a fraction of the cost.
    """
    best = x[..., 0]
    index = np.zeros(best.shape, dtype=np.int32)
    for c in range(1, x.shape[-1]):
        larger = x[..., c] > best
        index[larger] = c
        best = np.where(larger, x[..., c], best)
    return index, best


class BoundSoftmax:
    """Softmax over the channel axis of one finite planar array ``x``,
    ``(..., C, n)``, with max-subtraction, and its pull-back, on arrays made
    once: each call reads ``x`` as it is then and writes the same C-order
    ``out``, and each :meth:`pull_back` writes the same C-order pull-back
    array, made at the first pull-back, so a softmax that is never pulled
    back (``BoundSoftmax(x)()``) makes none.  ``y``, the planar one-hot
    target, is needed only to pull back cross entropy in closed form.

    The subtraction keeps every exponent at or below 0, so nothing
    overflows and every output lies in [0, 1] with per-element sums of 1
    up to rounding: the result needs no ProbabilityField checks.  Each
    channel fold is one ``reduce`` over the channel axis into ``lane``,
    shaped ``(..., n)``; numpy folds the planes in order there, as a loop
    over the channels would (bar a single element with more than 8
    channels, which numpy sums pairwise).  Each lane operation, ``x -
    max``, ``e / sum``, ``dz - sum`` and ``(z - y) * c`` for a lane ``c``,
    runs plane by plane (:func:`lane_op`), on planes taken once: those of
    ``x``, ``out`` and the cross-entropy array here, those of the pull-back
    array when it is made, and those of a ``dz`` when it is first pulled
    back (a core writes one ``dz`` array each call).  At 24×16, taking them
    per call cost a tenth of the softmax.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray | None = None):
        self._x, self._y = x, y
        self.out = np.empty(x.shape)
        self.lane = np.empty(x.shape[:-2] + x.shape[-1:])
        self._planes = channel_planes(x), channel_planes(self.out)
        self._pulled = self._pulled_planes = None
        ce = None if y is None else np.empty(x.shape)  # c * (z - y), beside a dz
        self._ce = ce, None if ce is None else channel_planes(ce)
        self._dz = self._dz_planes = None

    def __call__(self) -> np.ndarray:
        e, lane = self.out, self.lane
        x_planes, e_planes = self._planes
        np.maximum.reduce(self._x, axis=-2, out=lane)
        lane_op(np.subtract, x_planes, lane, e_planes)
        np.exp(e, out=e)
        np.add.reduce(e, axis=-2, out=lane)
        lane_op(np.divide, e_planes, lane, e_planes)
        return e

    def pull_back(self, dz: np.ndarray | None = None,
                  c: float | np.ndarray | None = None) -> np.ndarray:
        """Pull a loss's gradient in the last call's probabilities ``z`` back
        to ``x``, into the pull-back array, which holds until the next
        pull-back; at least one part must be given.

        ``dz``, shaped like ``x``, goes through the chain rule: ``z * (dz -
        sum_c dz_c z_c)``, the sum in ``lane``, which the output no longer
        needs.  ``c`` is cross entropy's coefficient per element (``w_t /
        n``, or 0 where its term is clamped): a lane, shaped like ``lane``,
        or a float that every element shares.  Its pull-back is ``c * (z -
        y)`` in closed form: no reduction, and no cancellation of ``z_t c``
        against ``c`` as ``z_t`` nears 1.  A float scales ``z - y`` in one
        multiply, the same operands per element as its lane.  With both
        parts, the result is ``z * (dz - sum_c dz_c z_c) + c * (z - y)``."""
        if self._pulled is None:
            self._pulled = np.empty(self.out.shape)
            self._pulled_planes = channel_planes(self._pulled)
        z, lane, pulled = self.out, self.lane, self._pulled
        ce, ce_planes = pulled, self._pulled_planes
        if dz is not None:
            if dz is not self._dz:
                self._dz, self._dz_planes = dz, channel_planes(dz)
            np.multiply(dz, z, out=pulled)
            np.add.reduce(pulled, axis=-2, out=lane)
            lane_op(np.subtract, self._dz_planes, lane, ce_planes)
            np.multiply(z, pulled, out=pulled)
            ce, ce_planes = self._ce
        if c is not None:
            np.subtract(z, self._y, out=ce)
            if isinstance(c, float):
                np.multiply(ce, c, out=ce)
            else:
                lane_op(np.multiply, ce_planes, c, ce_planes)
            if ce is not pulled:
                pulled += ce
        return pulled


def softmax(logits: LogitField) -> ProbabilityField:
    """Per-element softmax with max-subtraction, so no exponent overflows.

    The subtraction leaves the per-element argmax unchanged and makes the
    output shift-invariant per element.
    """
    x = logits.values
    return ProbabilityField(BoundSoftmax(planar(x))().T.reshape(x.shape))


def one_hot(semantic: SemanticLabelMap, channels: int) -> ProbabilityField:
    """Exact one-hot encoding of a semantic map into ``channels`` channels.

    Channel sums recover the per-class element counts.
    """
    classes = semantic.classes
    if channels < 2:
        raise ValueError("one-hot encoding needs at least 2 channels")
    top = int(classes.max(initial=0))
    if top >= channels:
        raise ValueError(f"class value {top} does not fit into {channels} channels")
    values = np.zeros(classes.shape + (channels,), dtype=np.float64)
    np.put_along_axis(values, classes[..., None].astype(np.intp), 1.0, axis=-1)
    return ProbabilityField(values)


def logit_values(p: np.ndarray, floor: float = LOG_FLOOR, out=None) -> np.ndarray:
    """``log(max(p, floor))``, into ``out`` when given: logits whose softmax
    reproduces the probabilities ``p`` up to the zero-probability floor.

    For probabilities the library derives itself, so, like
    :class:`BoundSoftmax`, it checks nothing: ``floor`` must lie in (0, 1).
    """
    logits = np.maximum(p, floor, out=out)
    return np.log(logits, out=logits)


def probs_to_logits(field: ProbabilityField, floor: float = LOG_FLOOR) -> LogitField:
    """Logits whose softmax reproduces ``field`` up to the zero-probability floor."""
    if not 0.0 < floor < 1.0:
        raise ValueError("floor must lie in (0, 1)")
    return LogitField(logit_values(field.values, floor))
