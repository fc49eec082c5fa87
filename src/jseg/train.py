"""Desk-scale gradient descent on a per-element logit field.

The parameters are the logits themselves, not a network, which isolates
how each loss moves the optimization.  Plain cross entropy does converge
under this parameterization; the reproducible effect is the speed gap on
the rare classes, tracked as the first iteration at which every gap
element of the target is classified correctly under MAP.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._util import child_rng, columns, l2_norm, set_integers
from .grids import (BoundSoftmax, InstanceLabelMap, LogitField, ProbabilityField, SemanticLabelMap,
                    argmax_channels, planar)
from .losses import LOSS_IDS, PairWeights, _build_core, evaluate_loss
from .metrics import panoptic
from .postprocess import to_instances
from .transform import BACKGROUND, GAP

__all__ = ["TrainConfig", "TrainTrace", "TrainDiverged", "train"]

#: Adam's learning rate, moment decay rates and denominator offset.
_ADAM_LR = 1e-4
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings for the toy logit-field training loop.

    ``step_size`` is the gradient-descent step; ``adam`` runs at its fixed
    rate of 1e-4 and ignores it.  ``init_noise`` scales a seeded Gaussian
    perturbation added to the all-zero initial logits.  At zero the start
    is exactly uniform and a single descent step already classifies every
    element correctly, which makes timing comparisons between losses
    degenerate; a small noise level gives every loss actual work to do and
    gives the seed its role.  ``iterations``, ``log_every`` and ``seed``
    must be integers (``operator.index``): 1.5 raises ``TypeError``.
    ``seed`` must be >= 0.
    """

    loss: str = "jc"
    step_size: float = 1.0
    iterations: int = 5000
    log_every: int = 50
    seed: int = 0
    optimizer: str = "gd"
    init_noise: float = 0.5

    def __post_init__(self):
        set_integers(self, "iterations", "log_every", "seed")
        if self.loss not in LOSS_IDS:
            raise ValueError(f"unknown loss {self.loss!r}")
        if not self.step_size > 0:  # written so that NaN fails too
            raise ValueError("step size must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.log_every < 1:
            raise ValueError("log period must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.optimizer not in ("gd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not self.init_noise >= 0:
            raise ValueError("init noise must be >= 0")


@dataclass(frozen=True)
class TrainTrace:
    """The trace of a run.  ``columns`` holds one array per CSV column, in
    CSV order: ``iteration``, ``total``, the loss's parts, ``grad_norm`` and
    ``pq``, which is None on iterations that do not log.
    ``first_gap_correct`` is the first iteration at which MAP classifies
    every gap element of the target correctly, or None when the target has
    no gap element or the run never fixes them."""

    columns: dict[str, np.ndarray]
    first_gap_correct: int | None
    final_pq: float


class TrainDiverged(RuntimeError):
    """Raised when the loss or the updated logits stop being finite;
    carries the trace of the iterations done (no columns before the first)."""

    def __init__(self, message: str, trace: TrainTrace):
        super().__init__(message)
        self.trace = trace


class _Adam:
    """Adam for one run on arrays shaped like ``like``, with the ``_ADAM_*``
    settings: its moments and its one scratch array are made here and
    updated in place by every step."""

    def __init__(self, like: np.ndarray):
        self.m, self.v = np.zeros_like(like), np.zeros_like(like)
        self.scratch = np.empty_like(like)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """``theta -= lr * m_hat / (sqrt(v_hat) + eps)`` in place, after
        ``m = beta1 m + (1 - beta1) grad`` and ``v = beta2 v + (1 - beta2)
        grad**2``; ``grad`` is overwritten."""
        self.t += 1
        self.m *= _ADAM_BETA1
        self.m += np.multiply(grad, 1 - _ADAM_BETA1, out=self.scratch)
        self.v *= _ADAM_BETA2
        np.square(grad, out=grad)
        grad *= 1 - _ADAM_BETA2
        self.v += grad
        step = np.divide(self.m, 1 - _ADAM_BETA1**self.t, out=self.scratch)
        step *= _ADAM_LR
        root = np.divide(self.v, 1 - _ADAM_BETA2**self.t, out=grad)
        np.sqrt(root, out=root)
        root += _ADAM_EPS
        step /= root
        theta -= step


def _gap_check(target: ProbabilityField) -> Callable[[np.ndarray], bool] | None:
    """Whether MAP classifies every gap element of ``target`` as GAP, as a
    function of the planar ``(C, n)`` logits; None when ``target`` has no
    gap element.

    :func:`argmax_channels` sends ties to the lowest index, so an element
    is classed GAP exactly when its GAP logit is strictly greater than every
    lower channel and no smaller than any higher one.  The gap elements'
    columns are found once, here; each call gathers them and compares.  With
    the four-class transform GAP is the last channel, so that is one
    comparison.
    """
    has_gap = target.channels > GAP
    cols = np.flatnonzero(target.values[..., GAP] == 1.0) if has_gap else []
    if len(cols) == 0:
        return None

    def check(theta: np.ndarray) -> bool:
        g = theta.take(cols, axis=1)
        top = g[GAP]
        return bool((g[:GAP] < top).all() and (g[GAP + 1 :] <= top).all())

    return check


def train(
    target: ProbabilityField,
    source: InstanceLabelMap,
    cfg: TrainConfig,
    weights: PairWeights | None = None,
) -> TrainTrace:
    """Descend the configured loss on a per-element logit field.

    ``target`` is the one-hot semantic ground truth of ``source``; panoptic
    quality (via the full post-processing pipeline) is recorded against
    ``source`` on every log iteration.  Deterministic per seed.  Each
    iteration keeps one plain tuple of its row; the returned
    :class:`TrainTrace` turns them into columns once, at the end
    (:func:`~jseg._util.columns`), as does a :class:`TrainDiverged`.

    One checked :func:`evaluate_loss` call before the loop checks the
    target, its shape against the logits and the pair weights; its value is
    not used.  The run then holds its logits and target planar, ``(C, n)``
    (:func:`~jseg.grids.planar`), transposed once here.  Every iteration,
    the first included, runs the target's loss core, built once for the
    run, between the softmax and the softmax pull-back of one
    :class:`~jseg.grids.BoundSoftmax` of the planar logits and target: on
    the bare logits, with no container and no gradient copy; the logits
    are checked for finiteness after every update instead.  The core hands
    the pull-back the part of its gradient that needs the chain rule and
    cross entropy's coefficient, which the pull-back takes in closed form
    (see :mod:`jseg.losses`).  The softmax's arrays, the norm's squares,
    the finiteness mask and Adam's moments are made once, planar, and the
    update writes the logits in place (gradient descent with a unit step,
    the default, skips the multiply by 1.0, which would change no bit), so
    the steps allocate no large array.  The output is byte-identical to an
    :func:`evaluate_loss` call per iteration, which runs the same core and
    pull-back and whose gradient norm sums in the same planar order.

    The measurement pipeline sends gap elements straight to background:
    per-element logits leave the runner-up ordering at a confident gap
    element unconstrained, so the restricted-MAP gap rule would read noise
    there.  Under that rule the instances depend on the MAP class map
    alone, so post-processing and panoptic quality rerun only on log
    iterations where the map changed since the last one measured.  The
    measure reads the probabilities the step's softmax just wrote, before
    the update, so it runs no softmax of its own, and takes their argmax
    once: the map is the memo key, and on a re-measure it becomes the
    semantic map after one line sets its gap elements to background, the
    "background" gap mode of :func:`~jseg.postprocess.resolve_gaps`
    repeated, since that function would need a probability field the mode
    never reads.
    """
    if target.values.shape[:-1] != source.labels.shape:
        raise ValueError("target field and source instance map shapes differ")
    rng = child_rng(cfg.seed, 0)
    shape = target.values.shape
    theta = np.zeros(shape)
    if cfg.init_noise > 0:
        theta += cfg.init_noise * rng.standard_normal(shape)

    gap_correct = _gap_check(target)
    evaluate_loss(cfg.loss, target, LogitField(theta), weights)  # checks the inputs
    theta, y = planar(theta), planar(target.values)
    adam = _Adam(theta) if cfg.optimizer == "adam" else None
    core = _build_core(cfg.loss, y, weights)
    softmax = BoundSoftmax(theta, y)
    squares, finite = np.empty(theta.shape), np.empty(theta.shape, bool)

    measured: dict[bytes, float] = {}  # the last MAP class map measured, and its PQ

    def measure_pq(probs: np.ndarray) -> float:
        decided = argmax_channels(probs.T)[0]
        key = decided.tobytes()
        if key not in measured:
            decided[decided == GAP] = BACKGROUND  # the "background" gap mode
            instances = to_instances(SemanticLabelMap(decided.reshape(shape[:-1])))
            measured.clear()
            measured[key] = panoptic(source, instances)["pq"]
        return measured[key]

    rows: list[tuple] = []  # one per iteration, in the order of the columns
    first_gap_correct: int | None = None
    final_pq = float("nan")

    def trace() -> TrainTrace:
        header = ("iteration", "total", *parts, "grad_norm", "pq")
        return TrainTrace(columns(header, rows), first_gap_correct, final_pq)

    def diverged(what: str, it: int) -> TrainDiverged:
        return TrainDiverged(
            f"{what} became non-finite at iteration {it} "
            f"(step {cfg.step_size}, optimizer {cfg.optimizer})",
            trace(),
        )

    for it in range(cfg.iterations + 1):
        probs = softmax()
        parts, dz, c = core(probs)
        grad = softmax.pull_back(dz, c)
        values = [float(value) for value in parts.values()]
        total = sum(values)
        if not math.isfinite(total):
            raise diverged("loss", it)
        if first_gap_correct is None and gap_correct is not None and gap_correct(theta):
            first_gap_correct = it

        pq = None
        if it % cfg.log_every == 0 or it == cfg.iterations:
            pq = final_pq = measure_pq(probs)
        rows.append((it, total, *values, l2_norm(grad, squares), pq))
        if it == cfg.iterations:
            break
        if adam is not None:
            adam.step(theta, grad)
        else:
            if cfg.step_size != 1.0:  # a unit step would change no bit
                grad *= cfg.step_size
            theta -= grad
        # Catches a non-finite gradient, and a step that overflows a finite one.
        if not np.isfinite(theta, out=finite).all():
            raise diverged("logits", it)

    return trace()
