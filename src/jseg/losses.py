"""Segmentation losses with analytic gradients.

Implements the pairwise Youden's-J surrogate, plain cross entropy, their
sum (the JC training loss), and the two comparison baselines: class-balanced
weighted cross entropy (BWM) and cross entropy with soft-Dice
regularization (DSC).

Every loss accepts a one-hot target field together with either a logit
field or a bare probability field.  Logits are pushed through softmax
internally and the returned gradient is taken with respect to the logits,
i.e. the trainable parameters; probability input yields the forward value
only.  Every logarithm argument is clamped at ``LOG_EPS`` and the analytic
gradients are the exact gradients of the clamped forward functions, so
they match central finite differences away from the (measure-zero) clamp
boundaries.

Each loss has one core ``(y, z, weights) -> (components, dL/dz)`` on bare
arrays: the ``(n, C)`` target with its spatial axes flattened and ``(...,
n, C)`` probabilities.  Cores reduce over the spatial axis only, so leading
batch axes of ``z`` give one value per item; the public losses,
:func:`evaluate_loss` and :func:`gradient_check` all run them.  J uses the
matrix form of its pair sum: with ``phi_l = y_l / n_l``, ``S = phi^T z``
gives ``a_ik = 1/2 + (S_ii - S_ki) / 2`` for every pair, and ``phi M`` the
gradient.

Only :func:`evaluate_loss` checks inputs: types, shapes, and a one-hot
target (once per target container).  Arrays the library derives, such as
the softmax of a checked logit field, are not checked again.  Sums run in a
fixed order (pairwise over the field, in order over the channels); training
output is byte-identical with one and two OpenBLAS threads, as tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import LogitField, ProbabilityField, fold_channels, softmax_values

__all__ = [
    "LOG_EPS",
    "FD_CHUNK_ELEMENTS",
    "PairWeights",
    "LossValue",
    "cross_entropy",
    "j_loss",
    "jc_loss",
    "bwm_loss",
    "dsc_loss",
    "LOSSES",
    "evaluate_loss",
    "finite_difference_gradient",
    "gradient_check",
]

#: Clamp applied to every logarithm argument.
LOG_EPS = 1e-7

#: Most array elements one batched call of the function handed to
#: :func:`finite_difference_gradient` receives (2 MiB of float64).
FD_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class PairWeights:
    """Non-negative pairwise class weights for the J surrogate.

    Entry ``[i, k]`` weights the binary problem with ``i`` positive and
    ``k`` negative.  The diagonal never contributes: its pair term is the
    constant ``-w * log(1/2)`` with zero gradient, so it is skipped.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64, order="C", copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("pair weights must form a square matrix")
        if not np.all(np.isfinite(m)) or m.min() < 0:
            raise ValueError("pair weights must be finite and non-negative")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def default(cls, channels: int) -> "PairWeights":
        """Weight 1 for every off-diagonal pair."""
        return cls(np.ones((channels, channels)) - np.eye(channels))

    @property
    def channels(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class LossValue:
    """Scalar loss, its named parts, and (optionally) the logit gradient."""

    total: float
    components: dict[str, float] = field(default_factory=dict)
    gradient: np.ndarray | None = None

    def __post_init__(self):
        if abs(self.total - sum(self.components.values())) > 1e-12 * max(1.0, abs(self.total)):
            raise ValueError("total must equal the sum of the components")
        if self.gradient is not None:
            g = np.array(self.gradient, dtype=np.float64, order="C", copy=True)
            g.setflags(write=False)
            object.__setattr__(self, "gradient", g)

    @property
    def grad_norm(self) -> float:
        if self.gradient is None:
            raise ValueError("loss was evaluated without a gradient")
        # Pairwise summation, not BLAS dot: the norm must not depend on the
        # number of BLAS threads.
        return float(np.sqrt(np.square(self.gradient).sum()))


def _softmax_vjp(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Pull a gradient in probabilities back through softmax to the logits."""
    return z * (dz - fold_channels(np.add, dz * z))


def _weighted_ce(y: np.ndarray, z: np.ndarray, class_weights: np.ndarray | None):
    """Mean (optionally class-weighted) negative log likelihood and dL/dz."""
    n = y.shape[0]
    wy = y if class_weights is None else class_weights * y
    clamped = np.maximum(z, LOG_EPS)
    value = -(wy * np.log(clamped)).sum(axis=(-2, -1)) / n
    active = z > LOG_EPS  # below the clamp the log is constant
    return value, -wy / clamped * active / n


def _ce_core(y, z, weights):
    value, dz = _weighted_ce(y, z, None)
    return {"ce": value}, dz


def _bwm_core(y, z, weights):
    counts = y.sum(axis=0)
    channels = y.shape[-1]
    w = np.divide(y.shape[0], channels * counts, out=np.zeros(channels), where=counts > 0)
    value, dz = _weighted_ce(y, z, w)
    return {"bwm": value}, dz


def _dsc_core(y, z, weights):
    ce, dz = _weighted_ce(y, z, None)
    counts = y.sum(axis=0)
    present = counts > 0
    share = present / np.count_nonzero(present)  # mean over present classes
    inter = (z * y).sum(axis=-2)[..., None, :]
    # sum(y_l^2) = n_l; absent classes get a unit denominator and no share.
    denom = np.where(present, (z * z).sum(axis=-2) + counts, 1.0)[..., None, :]
    dice = 1.0 - (2.0 * inter / denom * share).sum(axis=(-2, -1))
    # d dice_l / d z_l = (2 y_l denom - 4 inter z_l) / denom^2
    dz = dz - (2.0 * y * denom - 4.0 * inter * z) / denom**2 * share
    return {"ce": ce, "dice": dice}, dz


def _j_core(y, z, weights):
    channels = y.shape[-1]
    lam = np.ones((channels, channels)) - np.eye(channels) if weights is None else weights.matrix
    if len(lam) != channels:
        raise ValueError(f"pair weights are {len(lam)}x{len(lam)}, field has {channels} channels")
    counts = y.sum(axis=0)
    present = counts > 0
    n = np.where(present, counts, 1.0)
    phi = y / n  # phi_l = y_l / n_l; absent classes keep all-zero columns
    s = phi.T @ z  # s[l, m] = sum_p phi_l(p) z_m(p)
    a = 0.5 + 0.5 * (np.diagonal(s, axis1=-2, axis2=-1)[..., :, None] - np.swapaxes(s, -1, -2))
    eye = np.eye(channels, dtype=bool)
    pairs = (lam != 0.0) & ~eye & present & present[:, None]
    log_a = np.log(np.minimum(np.maximum(a, LOG_EPS), 1.0))
    value = -np.where(pairs, lam * log_a, 0.0).sum(axis=(-2, -1))
    # dL/dz_i = -sum_k h_ik (phi_i - phi_k) with h = lam / (2a) on pairs inside
    # the clamp: dz = phi @ M = y @ m, with m[l, i] = h_il / n_l for l != i and
    # m[i, i] = -sum_k h_ik / n_i.  Dividing by n first keeps m finite where dz is.
    active = pairs & (a > LOG_EPS) & (a < 1.0)
    half = np.where(active, 0.5 * lam, 0.0)
    a = np.where(active, a, 1.0)
    diag = (half / (a * n[:, None])).sum(axis=-1)[..., None, :]
    m = np.swapaxes(half / (a * n), -1, -2) - eye * diag
    return {"j": value}, y @ m


def _jc_core(y, z, weights):
    ce, ce_dz = _weighted_ce(y, z, None)
    j, j_dz = _j_core(y, z, weights)
    return {"ce": ce, **j}, ce_dz + j_dz


_CORES = {"ce": _ce_core, "j": _j_core, "jc": _jc_core, "bwm": _bwm_core, "dsc": _dsc_core}


def evaluate_loss(
    loss_id: str, target: ProbabilityField, pred, weights: PairWeights | None = None
) -> LossValue:
    """Evaluate a loss by identifier: ce | j | jc | bwm | dsc.

    ``weights`` applies to j and jc; the other losses ignore it.
    """
    if loss_id not in _CORES:
        raise ValueError(f"unknown loss {loss_id!r}; expected one of {sorted(_CORES)}")
    if not isinstance(target, ProbabilityField):
        raise TypeError("target must be a ProbabilityField")
    if not target.is_one_hot():
        raise ValueError("target must be one-hot")
    if isinstance(pred, LogitField):
        z = softmax_values(pred.values)
    elif isinstance(pred, ProbabilityField):
        z = pred.values
    else:
        raise TypeError("prediction must be a LogitField or a ProbabilityField")
    y = target.values
    if z.shape != y.shape:
        raise ValueError(f"shape mismatch: target {y.shape}, prediction {z.shape}")
    flat = (-1, y.shape[-1])
    parts, dz = _CORES[loss_id](y.reshape(flat), z.reshape(flat), weights)
    components = {name: float(value) for name, value in parts.items()}
    logits = isinstance(pred, LogitField)
    gradient = _softmax_vjp(z, dz.reshape(z.shape)) if logits else None
    return LossValue(total=sum(components.values()), components=components, gradient=gradient)


def cross_entropy(target: ProbabilityField, pred) -> LossValue:
    """Mean negative log likelihood over elements.

    With logit input the gradient reduces to ``(z - y) / n`` per element
    wherever the clamp is inactive.
    """
    return evaluate_loss("ce", target, pred)


def j_loss(target: ProbabilityField, pred, weights: PairWeights | None = None) -> LossValue:
    """Pairwise surrogate of Youden's J statistic.

    For every ordered pair of present classes (i positive, k negative) the
    soft true-positive and true-negative rates combine into a log term
    ``-w[i,k] * log(1/2 + sum_p z_i(p) * (phi_i(p) - phi_k(p)) / 2)`` with
    ``phi_l = y_l / n_l``.  Pairs with an absent class contribute exactly
    zero, and the diagonal is skipped.
    """
    return evaluate_loss("j", target, pred, weights)


def jc_loss(target: ProbabilityField, pred, weights: PairWeights | None = None) -> LossValue:
    """Cross entropy plus the J surrogate; components report both parts."""
    return evaluate_loss("jc", target, pred, weights)


def bwm_loss(target: ProbabilityField, pred) -> LossValue:
    """Cross entropy with per-class balance weights ``n / (channels * n_l)``.

    Absent classes get weight zero.  With perfectly balanced targets every
    weight collapses to one and the loss equals plain cross entropy.
    """
    return evaluate_loss("bwm", target, pred)


def dsc_loss(target: ProbabilityField, pred) -> LossValue:
    """Cross entropy plus one minus the mean soft Dice over present classes.

    Soft Dice of class l is ``2 * sum(z_l y_l) / (sum(z_l^2) + sum(y_l^2))``.
    """
    return evaluate_loss("dsc", target, pred)


LOSSES: dict[str, Callable[..., LossValue]] = {
    "ce": cross_entropy,
    "j": j_loss,
    "jc": jc_loss,
    "bwm": bwm_loss,
    "dsc": dsc_loss,
}


def finite_difference_gradient(
    fn: Callable[[np.ndarray], np.ndarray], theta: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central finite differences of a scalar function of a logit array.

    ``fn`` is batched: it receives a stack of shape ``(k,) + theta.shape``
    holding ``k`` perturbed copies of ``theta`` and returns a vector of
    ``k`` values, the function at each copy.  Entry ``i`` of the result is
    ``(f(theta + step e_i) - f(theta - step e_i)) / (2 step)``, where both
    copies differ from ``theta`` in entry ``i`` only.  A stack holds at
    most ``FD_CHUNK_ELEMENTS`` elements, or one pair of copies when a pair
    is larger, so memory grows with ``theta.size``, not with its square.
    """
    shape = np.shape(theta)
    base = np.asarray(theta, dtype=np.float64).ravel()
    grad = np.empty(base.size)
    per_call = max(1, FD_CHUNK_ELEMENTS // (2 * base.size))
    for start in range(0, base.size, per_call):
        idx = np.arange(start, min(start + per_call, base.size))
        k = idx.size
        stack = np.tile(base, (2, k, 1))  # [0]: +step copies, [1]: -step copies
        stack[0, np.arange(k), idx] += step
        stack[1, np.arange(k), idx] -= step
        values = np.asarray(fn(stack.reshape((2 * k,) + shape)), dtype=np.float64)
        if values.shape != (2 * k,):
            raise ValueError(f"fn returned shape {values.shape} for a stack of {2 * k} arrays")
        grad[idx] = (values[:k] - values[k:]) / (2.0 * step)
    return grad.reshape(shape)


def _stack_totals(loss_id: str, y: np.ndarray, weights: PairWeights | None):
    """``fn`` for :func:`finite_difference_gradient`: the loss total of
    target ``y`` at each logit array of a stack."""
    y_flat = y.reshape(-1, y.shape[-1])

    def totals(stack: np.ndarray) -> np.ndarray:
        z = softmax_values(stack).reshape((len(stack),) + y_flat.shape)
        return sum(_CORES[loss_id](y_flat, z, weights)[0].values())

    return totals


#: Grid shapes cycled through by the gradient checker.
_CHECK_SHAPES = ((4, 4), (6, 5), (8, 8), (3, 3, 3), (4, 4, 4))


def gradient_check(
    loss_id: str,
    seed: int = 0,
    trials: int = 100,
    step: float = 1e-5,
    channels: int = 4,
    rel_floor: float = 1e-6,
) -> dict:
    """Compare analytic and finite-difference gradients on random fields.

    Relative error per entry uses ``max(|analytic|, |numeric|, rel_floor)``
    as the denominator, so near-zero entries are compared at the floor
    scale.  Returns the maximum and mean over all trials.
    """
    rng = np.random.default_rng(seed)
    weights = PairWeights.default(channels)
    worst = 0.0
    total = 0.0
    for trial in range(trials):
        dims = _CHECK_SHAPES[trial % len(_CHECK_SHAPES)]
        classes = rng.integers(0, channels, size=dims).astype(np.int32)
        y = np.zeros(dims + (channels,))
        np.put_along_axis(y, classes[..., None].astype(np.intp), 1.0, axis=-1)
        theta = rng.normal(0.0, 1.5, size=dims + (channels,))

        analytic = evaluate_loss(loss_id, ProbabilityField(y), LogitField(theta), weights).gradient
        numeric = finite_difference_gradient(_stack_totals(loss_id, y, weights), theta, step=step)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), rel_floor)
        rel = float((np.abs(analytic - numeric) / scale).max())
        worst = max(worst, rel)
        total += rel
    return {
        "loss": loss_id,
        "trials": trials,
        "step": step,
        "grad_max_rel_err": worst,
        "grad_mean_rel_err": total / trials,
    }
