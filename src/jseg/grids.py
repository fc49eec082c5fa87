"""Grid containers shared by every other module.

Instance label maps, semantic class maps, probability fields and logit
fields over 2-D or 3-D element grids, plus the softmax / one-hot bridges
between them.  Arrays are stored C-order with the class channel last and
are marked read-only once a container is built, so instances can move
between threads freely.  All reductions run in a fixed order (numpy's
pairwise summation, or an in-order fold over the channels), which keeps
results independent of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridShape",
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

_INT32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class GridShape:
    """Extent of a d-dimensional element grid, d restricted to 2 or 3."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) not in (2, 3):
            raise ValueError(f"grid must be 2-D or 3-D, got {len(dims)} dims")
        if any(n < 1 for n in dims):
            raise ValueError(f"every grid dimension must be >= 1, got {dims}")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def n_elements(self) -> int:
        return int(np.prod(self.dims))


def _freeze(arr: np.ndarray) -> np.ndarray:
    # Always copy: marking a view read-only would freeze the caller's array.
    out = np.array(arr, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class InstanceLabelMap:
    """Non-negative integer instance labels, 0 meaning background."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("instance labels must be integers")
        GridShape(labels.shape)
        if labels.size and labels.min() < 0:
            raise ValueError("instance labels must be non-negative")
        if labels.size and labels.max() > _INT32_MAX:
            raise ValueError(f"instance labels must fit in int32 (at most {_INT32_MAX})")
        object.__setattr__(self, "labels", _freeze(labels.astype(np.int32)))

    @property
    def shape(self) -> GridShape:
        return GridShape(self.labels.shape)

    @property
    def m(self) -> int:
        """Largest label present (0 for an empty map)."""
        return int(self.labels.max(initial=0))


@dataclass(frozen=True)
class SemanticLabelMap:
    """Per-element class indices over {0..3}: background, cell, touching, gap."""

    classes: np.ndarray

    def __post_init__(self):
        classes = np.asarray(self.classes)
        if not np.issubdtype(classes.dtype, np.integer):
            raise ValueError("semantic classes must be integers")
        GridShape(classes.shape)
        if classes.size and (classes.min() < 0 or classes.max() > 3):
            raise ValueError("semantic classes must lie in {0, 1, 2, 3}")
        object.__setattr__(self, "classes", _freeze(classes.astype(np.int32)))

    @property
    def shape(self) -> GridShape:
        return GridShape(self.classes.shape)


@dataclass(frozen=True)
class ProbabilityField:
    """Per-element simplex vectors over the class channels (channel-last)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim not in (3, 4):
            raise ValueError("probability field needs spatial dims plus a channel axis")
        GridShape(values.shape[:-1])
        if values.shape[-1] < 2:
            raise ValueError("probability field needs at least 2 channels")
        if not np.all(np.isfinite(values)):
            raise ValueError("probabilities must be finite")
        if values.min() < -PROB_ATOL or values.max() > 1.0 + PROB_ATOL:
            raise ValueError("probabilities must lie in [0, 1]")
        sums = values.sum(axis=-1)
        if not np.allclose(sums, 1.0, rtol=0.0, atol=PROB_ATOL):
            worst = float(np.abs(sums - 1.0).max())
            raise ValueError(f"per-element probabilities must sum to 1 (off by {worst:.3g})")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def shape(self) -> GridShape:
        return GridShape(self.values.shape[:-1])

    @property
    def channels(self) -> int:
        return int(self.values.shape[-1])

    def is_one_hot(self) -> bool:
        """True when every element puts exactly mass 1 on a single channel.

        Computed on the first call and stored on the (immutable) instance.
        """
        if "_one_hot" not in self.__dict__:
            ones = self.values == 1.0
            zeros = self.values == 0.0
            ok = bool(np.all(ones.sum(axis=-1) == 1) and np.all(ones | zeros))
            object.__setattr__(self, "_one_hot", ok)
        return self.__dict__["_one_hot"]

    def argmax_classes(self) -> SemanticLabelMap:
        """Per-element most likely class; ties go to the lowest index."""
        return SemanticLabelMap(np.argmax(self.values, axis=-1).astype(np.int32))


@dataclass(frozen=True)
class LogitField:
    """Unbounded per-element class scores; softmax yields a ProbabilityField."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim not in (3, 4):
            raise ValueError("logit field needs spatial dims plus a channel axis")
        GridShape(values.shape[:-1])
        if values.shape[-1] < 2:
            raise ValueError("logit field needs at least 2 channels")
        if not np.all(np.isfinite(values)):
            raise ValueError("logits must be finite")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def shape(self) -> GridShape:
        return GridShape(self.values.shape[:-1])

    @property
    def channels(self) -> int:
        return int(self.values.shape[-1])


def fold_channels(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` over the channel (last) axis, keeping that axis.

    Folds one channel slice at a time, in order: the same result as
    ``ufunc.reduce(x, axis=-1)`` for fewer than 8 channels, where numpy
    folds in order too, at a fraction of the cost, since numpy's reduction
    over a short last axis pays a loop overhead per element.
    """
    out = x[..., 0]
    for c in range(1, x.shape[-1]):
        out = ufunc(out, x[..., c])
    return out[..., None]


def softmax_values(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a finite array, with max-subtraction.

    The subtraction keeps every exponent at or below 0, so nothing
    overflows and every output lies in [0, 1] with per-element sums of 1
    up to rounding: the result needs no ProbabilityField checks.
    """
    e = np.exp(x - fold_channels(np.maximum, x))
    return e / fold_channels(np.add, e)


def softmax(logits: LogitField) -> ProbabilityField:
    """Per-element softmax with max-subtraction, so no exponent overflows.

    The subtraction leaves the per-element argmax unchanged and makes the
    output shift-invariant per element.
    """
    return ProbabilityField(softmax_values(logits.values))


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


def probs_to_logits(field: ProbabilityField, floor: float = 1e-12) -> LogitField:
    """Logits whose softmax reproduces ``field`` up to the zero-probability floor."""
    if not 0.0 < floor < 1.0:
        raise ValueError("floor must lie in (0, 1)")
    return LogitField(np.log(np.maximum(field.values, floor)))
