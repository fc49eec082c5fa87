"""Grid containers shared by every other module.

Instance label maps, semantic class maps, probability fields and logit
fields over 2-D or 3-D element grids, plus the softmax / one-hot bridges
between them.  Arrays are stored C-order with the class channel last and
are marked read-only once a container is built, so instances can move
between threads freely.  All reductions run in a fixed order (numpy's
pairwise summation, or an in-order fold over the channels), which keeps
results independent of worker count.

Each construction checks its input once and makes exactly one copy, in
the container's dtype (int32 for maps, float64 for fields), so no caller
array is ever aliased or frozen.  Callers therefore hand over arrays as
they have them: the grid readers pass the raw file payload (``<u2``,
``>u2`` or ``<f4``) and the container does the cast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import Workspace, scratch

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

#: numpy's ufunc buffer, in elements, read once (the call costs about 1 µs).
_UFUNC_BUFFER = np.getbufsize()


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


def _field_copy(values, what: str) -> np.ndarray:
    """The one read-only float64 copy of a finite field with >= 2 channels."""
    out = np.array(values, dtype=np.float64, order="C", copy=True)
    if out.ndim not in (3, 4):
        raise ValueError(f"{what} field needs spatial dims plus a channel axis")
    _check_dims(out.shape[:-1])
    if out.shape[-1] < 2:
        raise ValueError(f"{what} field needs at least 2 channels")
    if not np.all(np.isfinite(out)):
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
    """Per-element simplex vectors over the class channels (channel-last)."""

    values: np.ndarray

    def __post_init__(self):
        values = _field_copy(self.values, "probability")
        if values.min() < -PROB_ATOL or values.max() > 1.0 + PROB_ATOL:
            raise ValueError("probabilities must lie in [0, 1]")
        off = fold_channels(np.add, values)
        off -= 1.0
        worst = float(np.abs(off, out=off).max())
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


def fold_channels(ufunc: np.ufunc, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``ufunc.reduce`` over the channel (last) axis, keeping that axis.

    Folds one channel slice at a time, in order: the same result as
    ``ufunc.reduce(x, axis=-1)`` for fewer than 8 channels (bar the sign of
    an all-negative-zero sum), where numpy folds in order too, at a fraction
    of the cost, since numpy's reduction over a short last axis pays a loop
    overhead per element.  ``x`` needs at least 2 channels; the first step
    writes the result, into ``out`` (shaped like ``x[..., :1]``) when given,
    and the rest fold into it, so ``x`` is never written and no other array
    is made.
    """
    acc = ufunc(x[..., 0], x[..., 1], out=None if out is None else out[..., 0])
    for c in range(2, x.shape[-1]):
        ufunc(acc, x[..., c], out=acc)
    return acc[..., None]


def lane_order(x: np.ndarray) -> str:
    """The iteration order for a lane operation on ``x``: one that
    broadcasts a ``(..., 1)`` lane over the channels.

    numpy's default order runs one inner loop of C elements per row.  On a
    flattened ``(rows, C)`` array, ``"F"`` runs the inner loop down the rows
    instead, about twice as fast at 96².  This returns ``"F"`` only there:
    on an N-D array F order is slower, so callers flatten first; and an
    F-order pass over an array that fits in numpy's ufunc buffer goes
    through the buffer and loses to the default order (at 384 rows it
    took 4.1 µs against 3.0).  Both orders apply the same ufunc to the
    same operands per element, so the bits do not depend on the order.
    The ``out`` of an F-order pass must be a C-order array: left to
    allocate, it would return F-order output, and sums over that run in
    another order.
    """
    return "F" if x.ndim == 2 and x.size > _UFUNC_BUFFER else "K"


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


def softmax_values(x: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Softmax over the last axis of a finite array, with max-subtraction.

    The subtraction keeps every exponent at or below 0, so nothing
    overflows and every output lies in [0, 1] with per-element sums of 1
    up to rounding: the result needs no ProbabilityField checks.  With a
    workspace the result and both channel folds live in its arrays.

    The two lane operations, ``x - max`` and ``e / sum``, iterate in
    :func:`lane_order` into a C-order ``out``, the workspace's array or a
    fresh one: down the rows for a large flattened ``(rows, C)`` array,
    which is how every caller passes its field.  So the result is C-order
    and has the bits of numpy's default order.
    """
    lane = x[..., :1]
    order = lane_order(x)
    e = np.subtract(x, fold_channels(np.maximum, x, scratch(ws, "softmax.max", lane)),
                    out=scratch(ws, "softmax", x), order=order)
    np.exp(e, out=e)
    return np.divide(e, fold_channels(np.add, e, scratch(ws, "softmax.sum", lane)), out=e,
                     order=order)


def softmax(logits: LogitField) -> ProbabilityField:
    """Per-element softmax with max-subtraction, so no exponent overflows.

    The subtraction leaves the per-element argmax unchanged and makes the
    output shift-invariant per element.
    """
    x = logits.values
    return ProbabilityField(softmax_values(x.reshape(-1, x.shape[-1])).reshape(x.shape))


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


def logit_values(p: np.ndarray, floor: float = LOG_FLOOR, ws: Workspace | None = None) -> np.ndarray:
    """``log(max(p, floor))``: logits whose softmax reproduces the
    probabilities ``p`` up to the zero-probability floor.

    For probabilities the library derives itself, so, like
    :func:`softmax_values`, it checks nothing: ``floor`` must lie in (0, 1).
    """
    logits = np.maximum(p, floor, out=scratch(ws, "logits", p))
    return np.log(logits, out=logits)


def probs_to_logits(field: ProbabilityField, floor: float = LOG_FLOOR) -> LogitField:
    """Logits whose softmax reproduces ``field`` up to the zero-probability floor."""
    if not 0.0 < floor < 1.0:
        raise ValueError("floor must lie in (0, 1)")
    return LogitField(logit_values(field.values, floor))
