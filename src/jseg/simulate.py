"""Analytic experiments around the J-regularized loss.

Three simulators:

* random-classifier sweeps over imbalance ratios, showing which binary
  measures stay put when the positive class shrinks; every measure depends
  only on a trial's confusion counts, so each trial is sampled as counts
  from the exact law of its per-element Bernoulli draws: binomial class
  totals of truth and prediction, then hypergeometric true positives;
* the shrinkwrap run, a prescribed segmentation trajectory that contracts
  an inflated mask onto two touching cells and then ramps the probabilities
  to the exact ground truth, recording the gradient norms of the losses
  along the way; every margin's mask is a threshold of one squared
  distance field, a step's three gradients share one softmax and one run
  each of the ce and j cores, and a step that repeats the previous step's
  state repeats its norms; each step keeps one row tuple, and the trace
  is the table of their columns;
* a 2-D loss-landscape scan around a near-optimal logit field along two
  random, channel-normalized directions; after one checked loss call at
  the centre, each row of the grid runs the loss core, built once, on
  stacks of perturbed fields, which give values and no gradient.

Everything is deterministic per seed, independent of thread count.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import _util
from ._util import check_seed, child_rng, columns, l2_norm, ordered_thread_map, set_integers
from .grids import BoundSoftmax, LogitField, ProbabilityField, logit_values, one_hot, planar
from .losses import FD_CHUNK_ELEMENTS, _build_core, _stack_totals, evaluate_loss
from .metrics import MEASURES, confusion_measures, pearson
from .scenes import TWO_SQUARES_NOTCH, SceneSpec, generate_scene
from .transform import CELL, TransformConfig, to_semantic

__all__ = [
    "ImbalanceSimConfig",
    "ImbalanceTable",
    "run_imbalance_sim",
    "CorrelationResult",
    "mcc_j_correlation",
    "ShrinkwrapConfig",
    "ShrinkwrapTrace",
    "run_shrinkwrap",
    "LandscapeResult",
    "landscape_scan",
    "default_pi_grid",
]

C1 = "c1"
C3 = "c3"
CLASSIFIERS = (C1, C3)

#: Upper bound on samples per trial: ``Generator.hypergeometric`` needs
#: both populations below 10**9, and the degenerate redraw keeps each of
#: them at least one below ``samples``.
MAX_SAMPLES = 10**9

#: Most rounds of redrawing degenerate trials per ratio, past which the sweep
#: raises; at the default grid a trial needs more with a chance below 1e-200.
MAX_REDRAW_ROUNDS = 1000

#: Columns of the imbalance CSV and of the MCC/J scatter CSV.
TABLE_HEADER = ("pi", "trial", *MEASURES)
SCATTER_HEADER = ("pi", "trial", "mcc", "j")


def default_pi_grid() -> tuple[float, ...]:
    """Imbalance ratios 0.01, 0.02, ..., 0.50."""
    return tuple(round(0.01 * i, 2) for i in range(1, 51))


@dataclass(frozen=True)
class ImbalanceSimConfig:
    """Protocol for the random-classifier sweeps.

    C1 predicts positive with the ground-truth ratio pi, C3 with one half.
    ``samples`` lies in [100, MAX_SAMPLES].  ``samples``, ``trials`` and
    ``seed`` must be integers (``operator.index``): 150.0 raises
    ``TypeError``.  ``seed`` must be >= 0.
    """

    classifier: str = C3
    pis: tuple[float, ...] = field(default_factory=default_pi_grid)
    samples: int = 1000
    trials: int = 500
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "pis", tuple(float(p) for p in self.pis))
        set_integers(self, "samples", "trials", "seed")
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        if not self.pis or any(not 0.0 < p <= 0.5 for p in self.pis):
            raise ValueError("every imbalance ratio must lie in (0, 0.5]")
        if len(set(self.pis)) != len(self.pis):
            raise ValueError("imbalance ratios must be distinct")
        if self.samples < 100:
            raise ValueError("need at least 100 samples per trial")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"at most {MAX_SAMPLES} samples per trial, got {self.samples}")
        if self.trials < 2:
            raise ValueError("need at least 2 trials")
        check_seed(self.seed)


@dataclass(frozen=True)
class ImbalanceTable:
    """Per-(pi, trial) measure table plus resampling counts.

    ``rows`` holds one contiguous block of trials per ratio, in the order
    of ``pis``; the ratios are distinct, so each block has its own
    ``resampled`` count.
    """

    classifier: str
    pis: tuple[float, ...]
    rows: np.ndarray  # structured: pi, trial, j, mcc, jaccard, f1, tversky, accuracy
    resampled: dict[float, int]

    def per_pi(self, pi: float, measure: str) -> np.ndarray:
        return self.rows[measure].reshape(len(self.pis), -1)[self.pis.index(pi)]

    def summary(self) -> list[dict]:
        """Per ratio: the resampled count and each measure's mean and
        standard deviation, one reduction per measure over all ratios."""
        out = [{"pi": pi, "resampled": self.resampled[pi]} for pi in self.pis]
        for m in MEASURES:
            vals = self.rows[m].reshape(len(self.pis), -1)
            means, stds = vals.mean(axis=1).tolist(), vals.std(axis=1).tolist()
            for entry, mean, std in zip(out, means, stds):
                entry[f"{m}_mean"] = mean
                entry[f"{m}_std"] = std
        return out

    def write_csv(self, path) -> None:
        _util.write_csv(path, TABLE_HEADER, [self.rows[name] for name in TABLE_HEADER])


def _simulate_pi(cfg: ImbalanceSimConfig, pi_index: int) -> tuple[tuple[np.ndarray, ...], int]:
    """The ``(pos, ppos, tp)`` counts of one ratio's trials and the number
    of degenerate trials redrawn."""
    pi = cfg.pis[pi_index]
    rng = child_rng(cfg.seed, pi_index)
    p_pred = pi if cfg.classifier == C1 else 0.5
    trials, samples = cfg.trials, cfg.samples

    pos = rng.binomial(samples, pi, trials)
    ppos = rng.binomial(samples, p_pred, trials)
    resampled = 0
    for rounds in range(MAX_REDRAW_ROUNDS + 1):
        # A trial is degenerate when truth or prediction misses a class
        # entirely; Jaccard would divide by zero and MCC would be undefined.
        bad = (pos == 0) | (pos == samples) | (ppos == 0) | (ppos == samples)
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        if rounds == MAX_REDRAW_ROUNDS:
            raise ValueError(f"trials at pi={pi} stay degenerate after {rounds} redraw rounds")
        resampled += n_bad
        pos[bad] = rng.binomial(samples, pi, n_bad)
        ppos[bad] = rng.binomial(samples, p_pred, n_bad)

    # Given both totals, the predicted positives are a uniform subset of
    # size ppos, so the positives among them are hypergeometric.
    tp = rng.hypergeometric(pos, samples - pos, ppos)
    return (pos, ppos, tp), resampled


def run_imbalance_sim(cfg: ImbalanceSimConfig) -> ImbalanceTable:
    """Sample the configured classifier against Bernoulli(pi) ground truths.

    Each trial is drawn as its confusion counts, from the exact joint law of
    ``samples`` independent Bernoulli(pi) truths and Bernoulli(p_pred)
    predictions: ``pos ~ Binomial(samples, pi)`` and ``ppos ~
    Binomial(samples, p_pred)``, independent, then ``tp ~
    Hypergeometric(pos, samples - pos, ppos)``, with ``fp = ppos - tp``,
    ``fn = pos - tp`` and ``tn = samples - pos - ppos + tp``.  Trials where a
    class is entirely absent (``pos`` or ``ppos`` is 0 or ``samples``) are
    redrawn and counted, for at most ``MAX_REDRAW_ROUNDS`` rounds, and then
    raise ``ValueError``.  The ratios run in order, each from its own child
    generator ``child_rng(seed, index)``.  The measures are elementwise, so
    they run once, on the counts of every ratio.
    """
    results = [_simulate_pi(cfg, i) for i in range(len(cfg.pis))]
    pos, ppos, tp = (np.concatenate(counts) for counts in zip(*(r for r, _ in results)))
    values, _ = confusion_measures(tp, ppos - tp, pos - tp, cfg.samples - pos - ppos + tp)
    rows = np.zeros(
        len(tp),
        dtype=[("pi", "f8"), ("trial", "i8")] + [(m, "f8") for m in MEASURES],
    )
    rows["pi"] = np.repeat(cfg.pis, cfg.trials)
    rows["trial"] = np.tile(np.arange(cfg.trials), len(cfg.pis))
    for name in MEASURES:
        rows[name] = values[name]
    resampled = {pi: n for pi, (_, n) in zip(cfg.pis, results)}
    return ImbalanceTable(classifier=cfg.classifier, pis=cfg.pis, rows=rows, resampled=resampled)


@dataclass(frozen=True)
class CorrelationResult:
    """Per-pi Pearson correlation between per-trial MCC and J."""

    pis: tuple[float, ...]
    r_values: tuple[float, ...]
    table: ImbalanceTable

    def r_at(self, pi: float) -> float:
        return self.r_values[self.pis.index(pi)]

    def write_scatter_csv(self, path, table_path) -> None:
        """Write the per-trial MCC/J scatter CSV to ``path`` and the table's
        own CSV (as :meth:`ImbalanceTable.write_csv` writes it) to
        ``table_path``, in one pass that formats the four scatter columns
        once for both.
        """
        rows = self.table.rows
        _util.write_csv(
            table_path,
            TABLE_HEADER,
            [rows[name] for name in TABLE_HEADER],
            [(path, SCATTER_HEADER)],
        )


def mcc_j_correlation(cfg: ImbalanceSimConfig) -> CorrelationResult:
    """Linear agreement between MCC and J across trials, per imbalance ratio."""
    if cfg.classifier != C3:
        raise ValueError("the MCC/J correlation protocol uses classifier c3")
    table = run_imbalance_sim(cfg)
    rs = []
    for pi in cfg.pis:
        try:
            rs.append(pearson(table.per_pi(pi, "mcc"), table.per_pi(pi, "j")))
        except ValueError as exc:
            raise ValueError(f"degenerate trials at pi={pi}: {exc}") from exc
    return CorrelationResult(pis=cfg.pis, r_values=tuple(rs), table=table)


# ---------------------------------------------------------------------------
# Shrinkwrap trajectory


@dataclass(frozen=True)
class ShrinkwrapConfig:
    """Schedule for the prescribed shrink-then-sharpen trajectory.

    The foreground mask starts as the true cells dilated by
    ``margin_start`` and loses one element of margin every
    ``iters_per_margin_step`` iterations.  While shrinking, each element
    holds probability ``c(t)`` on its prescribed class (cell inside the
    mask, background outside), the remainder spread uniformly; ``c`` moves
    linearly from ``confidence_start`` to ``confidence_final``.  Once the
    margin hits zero the per-element probabilities move linearly to the
    exact one-hot ground truth over the remaining iterations.  ``scene``
    must be of the two-squares-notch kind.  The three integer settings
    must be integers (``operator.index``): 1.5 raises ``TypeError``.
    """

    scene: SceneSpec = SceneSpec(kind=TWO_SQUARES_NOTCH, dims=(80, 56), cell_size=8, seed=0)
    iterations: int = 85
    margin_start: int = 18
    iters_per_margin_step: int = 3
    confidence_start: float = 0.95
    confidence_final: float = 0.95
    transform: TransformConfig = TransformConfig()

    def __post_init__(self):
        set_integers(self, "iterations", "margin_start", "iters_per_margin_step")
        if self.scene.kind != TWO_SQUARES_NOTCH:
            raise ValueError("the shrinkwrap trajectory runs on the two-squares-notch scene")
        if self.margin_start < 1:
            raise ValueError("initial margin must be >= 1")
        if not 0.25 < self.confidence_start <= self.confidence_final < 1.0:
            raise ValueError("need 0.25 < confidence_start <= confidence_final < 1")
        if self.iters_per_margin_step < 1:
            raise ValueError("iters_per_margin_step must be >= 1")
        if self.iterations <= self.shrink_iterations:
            raise ValueError(
                f"{self.iterations} iterations never reach margin 0 "
                f"(shrink takes {self.shrink_iterations})"
            )

    @property
    def shrink_iterations(self) -> int:
        """Iteration index at which the margin first reaches zero."""
        return self.margin_start * self.iters_per_margin_step + 1


#: Columns of the shrinkwrap CSV, in the order of a trace's rows.
SHRINKWRAP_HEADER = ("iteration", "margin", "confidence", "ramp", "grad_ce", "grad_j", "grad_jc")


@dataclass(frozen=True)
class ShrinkwrapTrace:
    """Per-iteration gradient norms with the shrinkwrap index marked:
    ``columns`` holds one array per name of :data:`SHRINKWRAP_HEADER`."""

    columns: dict[str, np.ndarray]
    shrinkwrap_index: int  # row of the first margin-0 iteration

    def write_csv(self, path) -> None:
        _util.write_csv(path, list(self.columns), list(self.columns.values()))


def _confidence_field(inside: np.ndarray, confidence: float, out: np.ndarray) -> np.ndarray:
    """Write into the planar ``(C, n)`` array ``out`` the field that holds
    ``confidence`` on CELL where ``inside`` holds and on background
    elsewhere, the rest spread evenly."""
    out.fill((1.0 - confidence) / (len(out) - 1))
    np.copyto(out[CELL], confidence, where=inside)
    np.copyto(out[0], confidence, where=~inside)
    return out


def _squared_distance(fg: np.ndarray, reach: int) -> np.ndarray:
    """Squared Euclidean distance from each element to the nearest true
    element of ``fg``, truncated at ``reach``.

    One axis at a time (Saito & Toriwaki, *Pattern Recognit.* 27(11),
    1994): start from 0 on ``fg`` and inf elsewhere, then along each axis
    fold ``np.minimum`` over the field shifted by k = +-1..+-reach plus
    ``k*k``, read from an inf-padded copy.  Every value is at least the
    true squared distance, and equals it wherever that is at most
    ``reach**2``: a nearest element within ``reach`` lies within ``reach``
    along every axis.  So ``d2 <= m*m`` is exactly the dilation of ``fg``
    by the ball of radius ``m <= reach``, outside the grid counting as
    false.  No two elements lie further apart than ``n - 1`` along an axis
    of length ``n``, so the reach on that axis is clamped to it and the
    padding never outgrows the grid.
    """
    d2 = np.where(fg, 0.0, np.inf)
    for axis, n in enumerate(fg.shape):
        r = min(reach, n - 1)
        width = [(0, 0)] * fg.ndim
        width[axis] = (r, r)
        padded = np.pad(d2, width, constant_values=np.inf)
        lead = (slice(None),) * axis
        for k in range(-r, r + 1):
            if k:
                np.minimum(d2, padded[lead + (slice(r + k, r + k + n),)] + k * k, out=d2)
    return d2


def run_shrinkwrap(cfg: ShrinkwrapConfig) -> ShrinkwrapTrace:
    """Walk the prescribed trajectory and record each loss's gradient norm.

    The scene is the two-squares-notch geometry, which the configuration
    requires; the cells' dilation absorbs the notch and touching structure
    until the margin reaches zero, at which point the mask hugs the cells
    but the rare classes are still wrong ("the shrinkwrap point").

    The mask at margin ``m`` is ``d2 <= m*m`` on one squared distance field
    of the cells (:func:`_squared_distance`), the same set as a dilation by
    the ball of radius ``m``.  Each step's prescribed probabilities go
    through ``logit_values``, the arithmetic of ``probs_to_logits``, and one
    softmax, on bare arrays: the configuration keeps every confidence in
    (0.25, 1), so each prescribed field lies on the simplex and needs no
    container checks.  The ce and j cores are built for the target once,
    before the loop.  A step needs the ce, j and jc gradients of one
    field, so rather than the losses module's one-loss path it runs the
    ce and j cores once each on one softmax and pulls back each gradient
    itself: ce's coefficient ``c`` alone, in closed form with no
    reduction, J's ``j_dz`` alone, and for jc ``j_dz`` with ``c``, the
    two parts the jc core hands on, so all three norms equal
    ``evaluate_loss(...).grad_norm`` bit for bit.  The target and every
    field are planar, ``(C, n)`` (:func:`~jseg.grids.planar`): the target
    is transposed once, and each field is written planar in the first
    place.  Every step writes its fields and the norms' squares into
    arrays made once for the run, and runs the softmax and the three
    pull-backs on one :class:`~jseg.grids.BoundSoftmax` of the logit
    array and the target.

    Each step keeps one tuple, its row of the CSV, and the trace holds
    their columns (:func:`~jseg._util.columns`).  A step's field depends
    only on its ``(margin, confidence, ramp)``.  A step whose state equals
    the previous step's copies that step's row under its own iteration and
    builds no field; at the defaults the confidence stays put
    and the margin holds for ``iters_per_margin_step`` steps, so 49 of the
    85 steps run the cores.  The shrinkwrap step itself is always built:
    the margin falls from 1 to 0 there.
    """
    scene = generate_scene(cfg.scene)
    semantic = to_semantic(scene, cfg.transform)
    channels = cfg.transform.channels
    y = planar(one_hot(semantic, channels).values)
    ce_core = _build_core("ce", y, None)
    j_core = _build_core("j", y, None)
    d2 = _squared_distance(scene.labels > 0, cfg.margin_start).ravel()

    t_shrink = cfg.shrink_iterations
    ramp_len = cfg.iterations - t_shrink

    z, ramp_terms, logits, squares = (np.empty(y.shape) for _ in range(4))
    softmax = BoundSoftmax(logits, y)
    rows: list[tuple] = []  # one per step, in the order of SHRINKWRAP_HEADER
    z_at_shrinkwrap: np.ndarray | None = None
    for t in range(1, cfg.iterations + 1):
        if t <= t_shrink:
            margin = max(0, cfg.margin_start - (t - 1) // cfg.iters_per_margin_step)
            # t_shrink >= 2: margin_start and iters_per_margin_step are >= 1.
            confidence = cfg.confidence_start + (
                cfg.confidence_final - cfg.confidence_start
            ) * (t - 1) / (t_shrink - 1)
            ramp = 0.0
        else:
            margin = 0
            confidence = cfg.confidence_final
            ramp = (t - t_shrink) / ramp_len
        state = (margin, confidence, ramp)
        if rows and rows[-1][1:4] == state:  # the previous step's state
            rows.append((t, *rows[-1][1:]))
            continue

        if t <= t_shrink:
            _confidence_field(d2 <= margin * margin, confidence, z)
            if t == t_shrink:
                z_at_shrinkwrap = z.copy()
        else:
            np.multiply(z_at_shrinkwrap, 1.0 - ramp, out=z)
            z += np.multiply(y, ramp, out=ramp_terms)
        logit_values(z, out=logits)
        s = softmax()
        c, j_dz = ce_core(s)[2], j_core(s)[1]
        grads = ((None, c), (j_dz, None), (j_dz, c))  # ce, j and jc: (dz, c)
        norms = (l2_norm(softmax.pull_back(*grad), squares) for grad in grads)
        rows.append((t, *state, *norms))

    return ShrinkwrapTrace(columns(SHRINKWRAP_HEADER, rows), shrinkwrap_index=t_shrink - 1)


# ---------------------------------------------------------------------------
# Loss landscape


@dataclass(frozen=True)
class LandscapeResult:
    """Loss values over the 2-D perturbation grid around a centre point."""

    alphas: np.ndarray
    betas: np.ndarray
    values: np.ndarray  # (len(alphas), len(betas))

    def write_csv(self, path) -> None:
        a = np.repeat(self.alphas, len(self.betas))
        b = np.tile(self.betas, len(self.alphas))
        _util.write_csv(path, ["a", "b", "loss"], [a, b, self.values.ravel()])


def landscape_scan(
    loss_id: str,
    target: ProbabilityField,
    center: LogitField,
    seed: int = 0,
    resolution: int = 41,
    span: float = 1.0,
    threads: int = 1,
) -> LandscapeResult:
    """Scan ``loss(center + a*d1 + b*d2)`` over an (a, b) grid.

    The two directions are seeded Gaussian fields rescaled channel by
    channel to the norm of the matching centre channel, so the axes are
    comparable across channels of very different magnitude.  One checked
    :func:`evaluate_loss` call at the centre checks the inputs; the loss
    core is then built once and runs on ``(k, C, n)`` stacks of planar
    perturbed fields (the centre and the directions are transposed once
    per scan), each row of the grid in chunks of at most
    ``FD_CHUNK_ELEMENTS`` elements (one field when a field is larger).
    ``threads`` spreads the rows over a thread pool, which stays because
    two threads cut a scan at 512x512 by a quarter, though they gain
    nothing on the default 24x16 field.  Every value equals the
    ``evaluate_loss`` total of its perturbed field bit for bit.  Raises
    what :func:`evaluate_loss` raises for bad inputs, and ``ValueError``
    for a bad resolution, for a span that is not
    positive or whose grid width ``2 * span`` overflows, and when a
    perturbed logit is not finite.  ``seed`` and ``resolution`` must be
    integers (``operator.index``), and ``seed`` must be >= 0.
    """
    seed, resolution = check_seed(seed), operator.index(resolution)
    if resolution < 3 or resolution % 2 == 0:
        raise ValueError("resolution must be an odd number >= 3 so the centre lies on the grid")
    # The grid is 2 * span wide, which must stay finite; NaN fails too.
    if not 0 < span <= np.finfo(np.float64).max / 2:
        raise ValueError(f"span must be positive, with a finite grid width 2 * span; got {span}")
    evaluate_loss(loss_id, target, center)
    totals = _stack_totals(_build_core(loss_id, planar(target.values), None))
    rng = np.random.default_rng(seed)
    theta = planar(center.values)

    def direction() -> np.ndarray:
        delta = planar(rng.standard_normal(center.values.shape))
        for row, ref_row in zip(delta, theta):
            ref = l2_norm(ref_row)
            norm = l2_norm(row)
            row *= ref / norm if norm > 0 else 0.0
        return delta

    d1 = direction()
    d2 = direction()
    alphas = np.linspace(-span, span, resolution)
    betas = np.linspace(-span, span, resolution)
    per_call = max(1, FD_CHUNK_ELEMENTS // theta.size)

    def scan_row(i: int) -> np.ndarray:
        row = theta + alphas[i] * d1
        values = []
        for start in range(0, resolution, per_call):
            stack = row + betas[start : start + per_call, None, None] * d2
            if not np.isfinite(stack).all():
                raise ValueError("logit values must be finite")
            values.append(totals(stack))
        return np.concatenate(values)

    values = np.stack(ordered_thread_map(scan_row, list(range(resolution)), threads))
    return LandscapeResult(alphas=alphas, betas=betas, values=values)
