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

Each loss has one core on bare planar arrays (see :mod:`jseg.grids`),
built per target: ``_CORES[id](y, weights)`` takes the ``(C, n)`` target,
one row of ``n`` elements per class, does the target-side work once
(class counts, presence, ``phi``, the pair list, class weights) and
returns ``core(z)``, which has two modes, both reading that one table:

- a ``(C, n)`` field of probabilities gives ``(components, dz, c)``, the
  loss's gradient in two parts: ``dz``, a ``(C, n)`` gradient in the
  probabilities for the chain rule (J's, DSC's Dice term, None for ce and
  bwm), and ``c``, cross entropy's coefficient per element (None for j):
  a float that every element shares or a lane of ``n`` values, which the
  softmax pull-back takes in closed form: the training step and every
  other gradient caller;
- a ``(k, C, n)`` stack gives ``(components, None, None)``, each component
  a vector of ``k`` values, one per item: the finite-difference and
  landscape stacks, and probability input as a stack of one.

An item's values are the bits of the same field's components.  Each
core's docstring defines its loss.  J uses the matrix form of its pair
sum: with ``phi_l = y_l / n_l``, ``S = phi z^T`` gives ``a_ik = 1/2 +
(S_ii - S_ki) / 2`` for every pair, and ``M^T y`` the gradient.  Per
class, DSC's sums are row sums.  The cores use what the target fixes,
and give the bits of the dense bodies that compute every term at every
entry and every pair (kept in ``tests/oracles.py`` as ``dense_core``, and
tested against them):

- **CE at the target entries, pulled back in closed form** (ce and bwm,
  and the ce parts of dsc and jc).  Off the target the terms ``w y log
  z`` are ``-0.0``, so the core gathers ``z`` at the ``n`` target entries,
  found once per target in element order as flat indices into a ``(C,
  n)`` plane, which a stack takes along each item's flattened plane; it
  takes the clamp and log there and sums the ``n`` terms.  It keeps no
  ``(C, n)`` array.  For the gradient it gives ``c = w_t / n`` per
  element, 0 where ``z_t <= LOG_EPS`` (the clamped term is constant), as
  the float ``1 / n`` while the weights are 1 and no term is clamped:
  through the softmax, ``dL/dz = -w y / (n z)`` pulls back to
  ``c * (z - y)``, which :meth:`~jseg.grids.BoundSoftmax.pull_back`
  computes with no reduction and without the chain rule's cancellation
  as ``z_t`` nears 1.  It
  differs from the chain rule by at most ``CLOSED_FORM_RTOL`` of the
  gradient's largest entry on softmax fields, as tested, and is the
  closer of the two to an extended-precision evaluation where every
  target is confident.
- **The J tail on the pair list.**  After ``S = phi z^T`` the pair terms
  run on the pair list, precomputed per target in row order: a stack as
  numpy arrays indexed by the pairs' ``(i, k)``, a field in Python floats,
  each with the same IEEE operations per pair as the matrix form.  The log
  is one ``np.log`` call on the pair terms, and the value the exactly
  rounded sum of the pair terms (``math.fsum``) in both modes.  The
  diagonal of ``M`` sums each row in numpy's order: below 8 channels,
  where numpy sums a row in order, the pair loop adds each term to its
  row's sum in Python floats; from 8 on, where numpy sums pairwise, it is
  a numpy sum over the C x C layout.
- **JC and DSC hand on the two parts.**  JC gives J's ``dz`` and CE's
  ``c``, DSC its negated Dice gradient and CE's ``c``; the pull-back adds
  ``z * (dz - sum_c dz_c z_c)`` and ``c * (z - y)``.  So no core adds a
  CE gradient into another array, and JC's logit gradient is J's plus
  CE's, bit for bit.

A caller that evaluates one target many times builds its core once
(``_build_core``) and reuses it: :func:`evaluate_loss` per call,
:func:`gradient_check` per trial (for the analytic and the
finite-difference side), ``train`` per run, ``landscape_scan`` per scan
and ``run_shrinkwrap`` per trajectory.  Logits reach a core by one of two
paths: a :class:`~jseg.grids.BoundSoftmax` of one planar logit array
and the target, whose output goes to the core and whose
:meth:`pull_back <jseg.grids.BoundSoftmax.pull_back>` takes the core's
``dz`` and ``c`` back to the logits, and ``_stack_totals`` for the loss
totals of a stack of fields.  ``run_shrinkwrap`` runs the ce and j cores
on one softmax and pulls back three gradients, as it needs them apart.

Each caller transposes once, at the API boundary (:func:`~jseg.grids.planar`):
``train`` and ``run_shrinkwrap`` per run, :func:`evaluate_loss` per call
(its gradient goes back to channel-last), :func:`gradient_check` per
trial, whose finite-difference stacks are ``(2k, C, n)``, and
``landscape_scan`` per scan.  The softmax makes its output, its lane and
the array of CE's part beside a ``dz`` once, and the pull-back array at
its first pull-back; each core makes its field mode's arrays when it is
built: CE the gather, the terms, the coefficient lane for clamped targets
and its mask, J its ``dz``, DSC its two arrays.  So every step writes the
same arrays with ``out=`` and in-place ufuncs: the same ufuncs
in the same order on the same operands as on fresh arrays, so the same
bits, and no large allocation after the first step.  Each operation that
applies one value per element or per class to every entry runs one
contiguous plane at a time, with no buffer of numpy's own: the softmax's
lane operations (:func:`~jseg.grids.lane_op`) and DSC's class terms.  As
tested, a step's peak is below 0.3 of one field for every loss at 96²
and at 24×16.  A stack runs on fresh arrays each call.  A core's field
mode writes its own arrays, so a core runs one field at a time, and the
gradient it returns holds until its next field call; its stack mode
writes nothing the core holds, so one core can run stacks on several
threads at once (``landscape_scan`` does).

Elementwise results are the bits of the channel-last layout the step
loops used before, with CE pulled back in closed form there too, but
spatial sums now run along the planes: CE's value (over its ``n``
terms), ``S``, DSC's class sums and the gradient norm.  They agree with
that layout within ``SUM_ORDER_RTOL``, as tested against the channel-last
step kept in ``tests/oracles.py``.

Only :func:`evaluate_loss` checks inputs: types, shapes, a one-hot target
and the size of the pair weights.  Building a core checks nothing but the
loss id and the pair weights' size, and running one checks nothing; the
callers above pass targets and logits that are checked or derived by the
library.  Sums run in a fixed order (pairwise along a plane, in order
over the channels); training output is byte-identical with one and two
OpenBLAS threads, as tested.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import check_seed, l2_norm
from .grids import BoundSoftmax, LogitField, ProbabilityField, SemanticLabelMap, one_hot, planar

__all__ = [
    "LOG_EPS",
    "SUM_ORDER_RTOL",
    "CLOSED_FORM_RTOL",
    "FD_CHUNK_ELEMENTS",
    "GRAD_CHECK_FLOOR",
    "PairWeights",
    "LossValue",
    "LOSS_IDS",
    "evaluate_loss",
    "finite_difference_gradient",
    "gradient_check",
]

#: Clamp applied to every logarithm argument.
LOG_EPS = 1e-7

#: Relative tolerance between a spatial sum of the planar step arrays and the
#: same sum taken over the channel-last layout: the sums differ only in their
#: order (CE's value, J's ``S``, DSC's class sums and the gradient norm).
SUM_ORDER_RTOL = 1e-12

#: Largest difference between a logit gradient with cross entropy pulled back
#: in closed form, ``c * (z - y)``, and the same gradient by the chain rule
#: through ``dL/dz = -w y / (n z)``, relative to the gradient's largest entry.
#: The forms are equal in exact arithmetic; the chain rule cancels ``z_t c``
#: against ``c`` where ``z_t`` nears 1, so on fields whose every target is
#: that confident the chain rule, not the closed form, strays further.
CLOSED_FORM_RTOL = 1e-13

#: Most array elements one batched call of the function handed to
#: :func:`finite_difference_gradient` receives (2 MiB of float64).
FD_CHUNK_ELEMENTS = 1 << 18

#: Smallest denominator of a relative error in :func:`gradient_check`.
GRAD_CHECK_FLOOR = 1e-6


@dataclass(frozen=True)
class PairWeights:
    """Non-negative pairwise class weights for the J surrogate.

    Entry ``[i, k]`` weights the binary problem with ``i`` positive and
    ``k`` negative.  The diagonal never contributes: its pair term is the
    constant ``-w * log(1/2)`` with zero gradient, so it is skipped.
    Raises ``ValueError`` unless the matrix is real (bool, integer or
    floating dtype), square, finite and non-negative, with at least one
    class.
    """

    matrix: np.ndarray

    def __post_init__(self):
        if np.asarray(self.matrix).dtype.kind not in "biuf":
            raise ValueError("pair weights must be real")
        m = np.array(self.matrix, dtype=np.float64, order="C", copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("pair weights must form a square matrix")
        if m.size == 0:
            raise ValueError("pair weights need at least one class")
        if not np.all(np.isfinite(m)) or m.min() < 0:
            raise ValueError("pair weights must be finite and non-negative")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def default(cls, channels: int) -> "PairWeights":
        """Weight 1 for every off-diagonal pair."""
        return cls(np.ones((channels, channels)) - np.eye(channels))


@dataclass(frozen=True)
class LossValue:
    """A loss's named parts and (optionally) its logit gradient; the total
    is the sum of the parts."""

    components: dict[str, float] = field(default_factory=dict)
    gradient: np.ndarray | None = None

    def __post_init__(self):
        if self.gradient is not None:
            g = np.array(self.gradient, dtype=np.float64, order="C", copy=True)
            g.setflags(write=False)
            object.__setattr__(self, "gradient", g)

    @property
    def total(self) -> float:
        return sum(self.components.values())

    @property
    def grad_norm(self) -> float:
        """The gradient's Euclidean norm, its squares summed channel plane
        by channel plane: the order of the step loops' norms, which equal
        it bit for bit."""
        if self.gradient is None:
            raise ValueError("loss was evaluated without a gradient")
        return l2_norm(np.moveaxis(self.gradient, -1, 0))


def _weighted_ce(y: np.ndarray, class_weights: np.ndarray | None, name: str = "ce"):
    """Mean (optionally class-weighted) negative log likelihood: the core
    ``z -> ({name: value}, None, c)`` for the target ``y``.

    It runs at the target entries (see the module docstring): off the
    target ``w y log z`` is ``-0.0``, so the value is the sum of the ``n``
    gathered terms.  Both modes gather at the one index array ``at``, built
    per target: a field from its flattened plane into the core's own
    array, a stack along each item's flattened plane into a fresh one,
    which its log overwrites; the class weights broadcast over the items.
    A field's gradient is the coefficient ``c`` per element, ``w_t / n``,
    whose pull-back is ``c * (z - y)``
    (:meth:`~jseg.grids.BoundSoftmax.pull_back`); at and below ``LOG_EPS``
    the clamped term is constant, so ``c`` is 0 there.  While no ``z_t``
    is clamped and the weights are 1, every element has the same ``c``, and
    the core hands on the Python float ``1 / n``; else ``c`` is a lane of
    ``n`` values.
    """
    n = y.shape[-1]
    classes = np.argmax(y, axis=0)  # each element's target class
    at = classes * n + np.arange(n)  # the flat index of each element's target entry
    w_at = None if class_weights is None else class_weights[classes]  # None: weight 1
    unclamped = np.full(n, 1.0 / n) if w_at is None else w_at / n  # c while no z_t is clamped
    unclamped.setflags(write=False)
    c_unclamped = 1.0 / n if w_at is None else unclamped  # handed on: at weight 1, one float
    field = np.empty(n), np.empty(n), np.empty(n), np.empty(n, bool)

    def ce(z):
        # A stack's gather is fresh, and its log overwrites it.
        gathered, terms, c, clamp = field if z.ndim == 2 else (None,) * 4
        # The indices are in range; any mode but the default "raise" takes
        # straight into the buffer instead of through a copy.
        gathered = z.reshape(z.shape[:-2] + (-1,)).take(at, axis=-1, out=gathered, mode="wrap")
        clamps = not gathered.min() > LOG_EPS  # a NaN counts; the clamp passes it on
        if clamps:  # else the clamp would change no bit
            np.maximum(gathered, LOG_EPS, out=gathered)
        terms = np.log(gathered, out=gathered if terms is None else terms)
        if w_at is not None:  # a weight of 1 would change no bit
            np.multiply(w_at, terms, out=terms)
        value = -np.add.reduce(terms, axis=-1) / n
        if z.ndim > 2:
            return {name: value}, None, None
        if not clamps:
            return {name: value}, None, c_unclamped
        # z <= LOG_EPS exactly where its clamp is LOG_EPS.
        np.copyto(c, unclamped)
        np.copyto(c, 0.0, where=np.less_equal(gathered, LOG_EPS, out=clamp))
        return {name: value}, None, c

    return ce


def _ce_core(y, weights):
    """Cross entropy: the mean negative log likelihood over elements.

    With logit input the gradient reduces to ``(z - y) / n`` per element
    wherever the clamp is inactive.
    """
    return _weighted_ce(y, None)


def _bwm_core(y, weights):
    """BWM: cross entropy with per-class balance weights ``n / (channels * n_l)``.

    Absent classes get weight zero.  With perfectly balanced targets every
    weight collapses to one and the loss equals plain cross entropy.
    """
    counts = y.sum(axis=-1)
    channels = len(y)
    w = np.divide(y.shape[-1], channels * counts, out=np.zeros(channels), where=counts > 0)
    return _weighted_ce(y, w, "bwm")


def _dsc_core(y, weights):
    """DSC: cross entropy plus one minus the mean soft Dice over present classes.

    Soft Dice of class l is ``2 * sum(z_l y_l) / (sum(z_l^2) + sum(y_l^2))``.
    Its gradient applies each class's terms to that class's plane, one plane
    at a time, with no buffer of numpy's own.
    """
    ce = _ce_core(y, None)
    counts = y.sum(axis=-1)
    present = counts > 0
    share = present / np.count_nonzero(present)  # mean over present classes
    two_y = 2.0 * y
    field = np.empty(y.shape), np.empty(y.shape)  # a field's product and cross terms

    def core(z):
        parts, _, c = ce(z)
        product, cross = field if z.ndim == 2 else (np.empty(z.shape), None)
        inter = np.multiply(z, y, out=product).sum(axis=-1)
        # sum(y_l^2) = n_l; absent classes get a unit denominator and no share.
        squares = np.multiply(z, z, out=product).sum(axis=-1)
        denom = np.where(present, squares + counts, 1.0)
        dice = 1.0 - (2.0 * inter / denom * share).sum(axis=-1)
        parts = {**parts, "dice": dice}
        if z.ndim > 2:
            return parts, None, None
        # -d dice_l / d z_l = (4 inter_l z_l - 2 y_l denom_l) / denom_l^2, times share_l
        classes = zip(product, cross, two_y, z, denom.tolist(), (4.0 * inter).tolist(), share.tolist())
        for term, cross_l, two_y_l, z_l, denom_l, four_inter_l, share_l in classes:
            np.multiply(four_inter_l, z_l, out=term)
            term -= np.multiply(two_y_l, denom_l, out=cross_l)
            term /= denom_l * denom_l
            term *= share_l
        return parts, product, c

    return core


def _pair_sum(terms: list[float]) -> float:
    """The exactly rounded sum of J's pair terms (``math.fsum``).  Every
    term is at most 0 (or NaN), so a sum past the float range is -inf:
    numpy's sum gives it, with numpy's overflow warning."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return float(np.sum(terms))


def _j_core(y, weights):
    """J: the pairwise surrogate of Youden's J statistic.

    For every ordered pair of present classes (i positive, k negative) the
    soft true-positive and true-negative rates combine into a log term
    ``-w[i,k] * log(1/2 + sum_p z_i(p) * (phi_i(p) - phi_k(p)) / 2)`` with
    ``phi_l = y_l / n_l``.  Pairs with an absent class contribute exactly
    zero, and the diagonal is skipped.  ``weights`` None means
    :meth:`PairWeights.default`.  The pair terms are summed exactly rounded
    (``math.fsum``), so the value's round-off stays far below what central
    differences resolve at :func:`gradient_check`'s floor.
    """
    channels = len(y)
    lam = (PairWeights.default(channels) if weights is None else weights).matrix
    if len(lam) != channels:
        raise ValueError(f"pair weights are {len(lam)}x{len(lam)}, field has {channels} channels")
    counts = y.sum(axis=-1)
    present = counts > 0
    n = np.where(present, counts, 1.0)
    phi = y / n[:, None]  # phi_l = y_l / n_l; absent classes keep all-zero rows
    pairs = (lam != 0.0) & present & present[:, None]
    np.fill_diagonal(pairs, False)
    half_lam = 0.5 * lam
    # Both modes run the pairs in row order: a stack as numpy arrays over
    # the pair list, a field the tail in Python floats.  Per pair they are
    # the same IEEE operations as the matrix form over all C x C pairs,
    # which ``dense_core`` in tests/oracles.py runs for the value and the
    # gradient.  A field's log stays one numpy call.  M is held as a flat
    # list; flat index i * C + k is entry [i, k].  numpy sums a row of fewer
    # than 8 terms in order, so below 8 channels each pair adds its term to
    # its row's sum (slot i) as the pair loop meets it, in row order; the
    # terms are >= 0, so the skipped zeros change no bit.  From 8 on numpy
    # sums pairwise, and the terms go to a C x C list (slot i * C + k) that
    # one numpy sum reduces.
    size = channels * channels
    in_order = channels < 8
    pi, pk = np.nonzero(pairs)  # the pairs' (i, k), in row order
    lam_pairs = lam[pi, pk]
    ik = list(zip(pi.tolist(), pk.tolist()))
    lam_p = lam_pairs.tolist()
    grad_p = [(i * channels + k, i if in_order else i * channels + k, float(half_lam[i, k]),
               float(n[i]), float(n[k])) for i, k in ik]
    dz = np.empty(y.shape)  # a field's gradient

    def core(z):
        if z.ndim > 2:
            s = phi @ np.swapaxes(z, -1, -2)  # s[..., l, m] = sum_p phi_l(p) z_m(p)
            a = 0.5 + 0.5 * (s[..., pi, pi] - s[..., pk, pi])
            log_a = np.log(np.minimum(np.maximum(a, LOG_EPS), 1.0))
            terms = (lam_pairs * log_a).tolist()  # one row of pair terms per item
            return {"j": -np.array([_pair_sum(row) for row in terms])}, None, None
        s = (phi @ z.T).tolist()
        a = [0.5 + 0.5 * (s[i][i] - s[k][i]) for i, k in ik]
        # The clamp of np.minimum(np.maximum(a, LOG_EPS), 1.0), NaN included.
        log_a = np.log([LOG_EPS if v < LOG_EPS else 1.0 if v > 1.0 else v for v in a]).tolist()
        value = -np.float64(_pair_sum([w * log_v for w, log_v in zip(lam_p, log_a)]))
        # dL/dz_i = -sum_k h_ik (phi_i - phi_k) with h = lam / (2a) on pairs inside
        # the clamp: dz = M^T phi = mt @ y, with mt[i, k] = h_ik / n_k for k != i
        # and mt[i, i] = -sum_k h_ik / n_i.  Dividing by n first keeps mt finite
        # where dz is.
        mt = [0.0] * size
        row_sums = [0.0] * (channels if in_order else size)  # of h_ik / n_i over k
        for (at, slot, h, n_i, n_k), v in zip(grad_p, a):
            if LOG_EPS < v < 1.0:
                mt[at] = h / (v * n_k)
                row_sums[slot] += h / (v * n_i)
        if not in_order:
            row_sums = np.array(row_sums).reshape(channels, channels).sum(axis=-1).tolist()
        for i, row_sum in enumerate(row_sums):
            mt[i * (channels + 1)] = 0.0 - row_sum  # the matrix form's diagonal starts at +0.0
        mt = np.array(mt).reshape(channels, channels)
        return {"j": value}, np.matmul(mt, y, out=dz), None

    return core


def _jc_core(y, weights):
    """JC: cross entropy plus the J surrogate; components report both parts."""
    ce = _ce_core(y, None)
    j = _j_core(y, weights)

    def core(z):
        j_parts, j_dz, _ = j(z)
        ce_parts, _, c = ce(z)
        return {**ce_parts, **j_parts}, j_dz, c

    return core


_CORES = {"ce": _ce_core, "j": _j_core, "jc": _jc_core, "bwm": _bwm_core, "dsc": _dsc_core}

#: Identifiers of the losses :func:`evaluate_loss` accepts.
LOSS_IDS = tuple(_CORES)


def _build_core(loss_id: str, y: np.ndarray, weights: PairWeights | None):
    """The core of ``loss_id`` for the planar ``(C, n)`` one-hot target
    array ``y``.  Raises ``ValueError`` for an unknown id."""
    if loss_id not in _CORES:
        raise ValueError(f"unknown loss {loss_id!r}; expected one of {sorted(_CORES)}")
    return _CORES[loss_id](y, weights)


def evaluate_loss(
    loss_id: str, target: ProbabilityField, pred, weights: PairWeights | None = None
) -> LossValue:
    """Evaluate a loss by identifier: ce | j | jc | bwm | dsc.

    Each loss is defined on its core (``_ce_core``, ``_j_core``, ...).
    ``weights`` applies to j and jc; the other losses ignore it.  Raises
    ``TypeError`` for a target or prediction of the wrong container and
    for ``weights`` that are neither None nor :class:`PairWeights`.
    """
    if not isinstance(target, ProbabilityField):
        raise TypeError("target must be a ProbabilityField")
    if not target.is_one_hot():
        raise ValueError("target must be one-hot")
    if not isinstance(pred, (LogitField, ProbabilityField)):
        raise TypeError("prediction must be a LogitField or a ProbabilityField")
    if weights is not None and not isinstance(weights, PairWeights):
        raise TypeError(f"weights must be PairWeights or None, got {type(weights).__name__}")
    y = target.values
    if pred.values.shape != y.shape:
        raise ValueError(f"shape mismatch: target {y.shape}, prediction {pred.values.shape}")
    y_planar = planar(y)
    core = _build_core(loss_id, y_planar, weights)
    if isinstance(pred, LogitField):
        softmax = BoundSoftmax(planar(pred.values), y_planar)
        parts, dz, c = core(softmax())
        gradient = softmax.pull_back(dz, c).T.reshape(y.shape)  # LossValue copies it C-order
    else:  # a stack of one: its values, no gradient
        parts, gradient = core(planar(pred.values)[None])[0], None
    return LossValue({name: value.item() for name, value in parts.items()}, gradient)


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
    An empty ``theta`` gets an empty gradient of its shape, and ``fn`` is
    not called.  Raises ``ValueError`` unless ``step`` is finite and
    positive.
    """
    if not 0.0 < step < np.inf:  # written so that NaN fails too
        raise ValueError(f"finite-difference step must be finite and > 0, got {step}")
    shape = np.shape(theta)
    base = np.asarray(theta, dtype=np.float64).ravel()
    grad = np.empty(base.size)
    per_call = max(1, FD_CHUNK_ELEMENTS // max(1, 2 * base.size))
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


def _stack_totals(core):
    """The loss total of a prepared core at each planar logit array of a
    ``(k, C, n)`` stack: ``fn`` for :func:`finite_difference_gradient`, and
    the landscape scan's evaluator of stacked grid cells."""

    def totals(stack: np.ndarray) -> np.ndarray:
        return sum(core(BoundSoftmax(stack)())[0].values())

    return totals


#: Grid shapes cycled through by the gradient checker.
_CHECK_SHAPES = ((4, 4), (6, 5), (8, 8), (3, 3, 3), (4, 4, 4))

#: Class channels of the gradient checker's fields.
_CHECK_CHANNELS = 4


def gradient_check(loss_id: str, seed: int = 0, trials: int = 100, step: float = 1e-5) -> dict:
    """Compare analytic and finite-difference gradients on random fields.

    Relative error per entry uses ``max(|analytic|, |numeric|,
    GRAD_CHECK_FLOOR)`` as the denominator, so near-zero entries are
    compared at the floor scale.  J pairs carry the default weights.
    Returns the maximum and mean over all trials; a NaN error in any trial
    makes both NaN.  Each trial builds one core for its target, used by
    the analytic and the finite-difference side, on the trial's planar
    logits, so the finite-difference stacks are ``(2k, C, n)``.  Raises
    ``ValueError`` for an unknown loss, for ``trials < 1`` and, from the
    first trial's :func:`finite_difference_gradient`, for a ``step`` that
    is not finite and positive.  ``seed`` and ``trials`` must be integers
    (``operator.index``), and ``seed`` must be >= 0.
    """
    seed, trials = check_seed(seed), operator.index(trials)
    if trials < 1:
        raise ValueError(f"gradient check needs trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    total = 0.0
    for trial in range(trials):
        dims = _CHECK_SHAPES[trial % len(_CHECK_SHAPES)]
        classes = rng.integers(0, _CHECK_CHANNELS, size=dims).astype(np.int32)
        y = planar(one_hot(SemanticLabelMap(classes), _CHECK_CHANNELS).values)
        theta = planar(rng.normal(0.0, 1.5, size=dims + (_CHECK_CHANNELS,)))

        core = _build_core(loss_id, y, None)
        softmax = BoundSoftmax(theta, y)
        analytic = softmax.pull_back(*core(softmax())[1:])
        numeric = finite_difference_gradient(_stack_totals(core), theta, step=step)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), GRAD_CHECK_FLOOR)
        rel = float((np.abs(analytic - numeric) / scale).max())
        worst = float(np.maximum(worst, rel))  # max() would drop a NaN
        total += rel
    return {
        "loss": loss_id,
        "trials": trials,
        "step": step,
        "grad_max_rel_err": worst,
        "grad_mean_rel_err": total / trials,
    }
