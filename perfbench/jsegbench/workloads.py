"""The four benchmark workloads: the CLI commands of one op and its check.

An op is a list of steps.  A step is either the argv of one ``jseg``
command, which the harness times, or a callable that prepares an input
and is not timed.  Every op writes into a fresh directory and is checked
afterwards against a reference that does not share the library's code:
the brute-force oracles of ``tests/oracles.py``, a GRD1 reader of its
own, and numpy recomputations of the statistics the CLI reports.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An op produced output that does not match its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _csv_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _floats(values: list[str]) -> np.ndarray:
    return np.array([float(v) for v in values])


def read_grd(path: Path) -> np.ndarray:
    """GRD1 payload as an array, read without the library's reader."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    dtype = {"u16": "<u2", "f32": "<f4"}[header["dtype"]]
    shape = tuple(header["dims"]) + ((header["channels"],) if header["channels"] > 1 else ())
    return np.frombuffer(payload, dtype=dtype).reshape(shape)


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Callable[[int, Path], list]
    check: Callable[[int, Path, object], None]


# -- toy: the paper's small-field study -------------------------------------


def _toy_steps(seed: int, d: Path) -> list:
    s = str(seed)
    train = ["train-toy", "--iterations", "1000", "--seed", s]
    return [
        train + ["--loss", "jc", "--out", str(d / "jc.csv")],
        train + ["--loss", "ce", "--out", str(d / "ce.csv")],
        ["grad-check", "--loss", "jc", "--trials", "5", "--seed", s, "--out", str(d / "grad.json")],
    ]


def _toy_check(seed: int, d: Path, oracles) -> None:
    jc = _json(d / "jc.csv.summary.json")
    ce = _json(d / "ce.csv.summary.json")
    _require(jc["final_pq"] == 1.0, f"JC final PQ {jc['final_pq']} != 1")
    _require(ce["final_pq"] == 1.0, f"CE final PQ {ce['final_pq']} != 1")
    jc_gap = jc["first_gap_correct"]
    ce_gap = math.inf if ce["first_gap_correct"] is None else ce["first_gap_correct"]
    # When the seeded initial logits already classify every gap element, both
    # runs report iteration 0 and there is no speed to compare.
    _require(
        jc_gap is not None and (jc_gap < ce_gap or jc_gap == ce_gap == 0),
        f"JC fixes the gap at {jc_gap}, not before CE at {ce_gap}",
    )
    # Not criterion 01's 1e-4: on about 2% of seeds an entry of size 1e-7..1e-6
    # sits at the checker's 1e-6 floor, where central differences at step 1e-5
    # carry ~1e-10 of round-off and read 1.0e-4..1.3e-4.  A wrong gradient
    # is off by orders of magnitude more.
    err = _json(d / "grad.json")["grad_max_rel_err"]
    _require(err < 1e-3, f"gradient check relative error {err} >= 1e-3")


# -- field: the loss layer on large fields ----------------------------------


def _field_steps(seed: int, d: Path) -> list:
    s = str(seed)
    return [
        [
            "train-toy", "--kind", "random-blobs", "--dims", "96", "96", "--blobs", "12",
            "--cell-size", "12", "--step", "24", "--iterations", "100", "--seed", s,
            "--out", str(d / "train.csv"),
        ],
        ["sim-shrinkwrap", "--seed", s, "--out", str(d / "shrinkwrap.csv")],
    ]


def _field_check(seed: int, d: Path, oracles) -> None:
    trace = _csv_columns(d / "train.csv")
    for name, values in trace.items():
        if name != "pq":  # pq is logged every 50 iterations and blank between
            _require(bool(np.all(np.isfinite(_floats(values)))), f"training {name} not finite")
    total = _floats(trace["total"])
    _require(len(total) == 101, f"training trace has {len(total)} rows, not 101")
    _require(total[-1] < total[0], f"training total rose from {total[0]} to {total[-1]}")

    sw = _csv_columns(d / "shrinkwrap.csv")
    idx = [int(m) for m in sw["margin"]].index(0)
    ce, j, jc = (_floats(sw[c]) for c in ("grad_ce", "grad_j", "grad_jc"))
    # Criterion 06: peaks up to the first margin-0 row for the ratios.
    ce_ratio = ce[idx] / ce[: idx + 1].max()
    j_ratio = j[idx] / j[: idx + 1].max()
    _require(ce_ratio < 0.2, f"CE at margin 0 is {ce_ratio:.3f} of its peak (>= 0.2)")
    _require(j_ratio > 0.5, f"J at margin 0 is {j_ratio:.3f} of its peak (<= 0.5)")
    for name, col in (("ce", ce), ("j", j), ("jc", jc)):
        _require(col[-1] < 1e-6 * col.max(), f"final {name} gradient norm not below 1e-6 of peak")


# -- segment: scene -> transform -> post-processing -> metrics --------------

#: (tag, dims, blobs, cell size, noise key) of the two scenes of an op.
SEGMENT_SCENES = (
    ("2d", ("512", "512"), "200", "16", 0),
    ("3d", ("64", "64", "64"), "40", "10", 1),
)
PROB_FLOOR = 1e-3


def noisy_probs(classes: np.ndarray, seed: int, key: int) -> np.ndarray:
    """A network's imperfect output, made from the semantic ground truth.

    The one-hot map becomes logits ``log(max(p, 1e-3))``, gets N(0, 1)
    noise from a generator seeded by ``(seed, key)``, and goes through a
    softmax.
    """
    logits = np.log(np.maximum(np.eye(4)[classes], PROB_FLOOR))
    logits += np.random.default_rng([seed, key]).standard_normal(logits.shape)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _write_noisy_probs(semantic: Path, out: Path, seed: int, key: int) -> None:
    from jseg.gridio import write_grid
    from jseg.grids import ProbabilityField

    probs = noisy_probs(read_grd(semantic).astype(np.intp), seed, key)
    write_grid(ProbabilityField(probs), out)


def _segment_steps(seed: int, d: Path) -> list:
    s = str(seed)
    steps = []
    for tag, dims, blobs, cell, key in SEGMENT_SCENES:
        scene, sem, probs, inst = (d / f"{p}-{tag}.grd" for p in ("scene", "sem", "probs", "inst"))
        steps += [
            ["gen-scene", "--kind", "random-blobs", "--dims", *dims, "--blobs", blobs,
             "--cell-size", cell, "--seed", s, "--out", str(scene)],
            ["transform", "--in", str(scene), "--out", str(sem), "--seed", s],
            lambda sem=sem, probs=probs, key=key: _write_noisy_probs(sem, probs, seed, key),
            ["postprocess", "--in", str(probs), "--out", str(inst), "--seed", s],
            ["evaluate", "--gt", str(scene), "--pred", str(inst), "--seed", s,
             "--out", str(d / f"eval-{tag}.csv")],
        ]
    return steps


def oracle_pq(oracles, gt: np.ndarray, pred: np.ndarray) -> float:
    """Panoptic quality from the brute-force IoU table."""
    matches = {pair: iou for pair, iou in oracles.brute_iou_table(gt, pred).items() if iou > 0.5}
    tp = len(matches)
    fn = len(set(np.unique(gt[gt > 0]).tolist()) - {g for g, _ in matches})
    fp = len(set(np.unique(pred[pred > 0]).tolist()) - {p for _, p in matches})
    denom = tp + fp / 2 + fn / 2
    return sum(matches.values()) / denom if denom else 0.0


def _segment_check(seed: int, d: Path, oracles) -> None:
    for tag, dims, _, _, _ in SEGMENT_SCENES:
        labels = read_grd(d / f"scene-{tag}.grd").astype(np.int64)
        _require(labels.shape == tuple(int(n) for n in dims), f"{tag} scene has shape {labels.shape}")
        semantic = read_grd(d / f"sem-{tag}.grd")
        want = oracles.brute_semantic(labels, k=2, gap_radius=3)
        _require(np.array_equal(semantic, want), f"{tag} transform differs from brute_semantic")
        pred = read_grd(d / f"inst-{tag}.grd").astype(np.int64)
        got = float(_csv_columns(d / f"eval-{tag}.csv")["pq"][0])
        ref = oracle_pq(oracles, labels, pred)
        _require(abs(got - ref) <= 1e-12, f"{tag} PQ {got} differs from the oracle's {ref}")


# -- sweep: the random-classifier imbalance study ---------------------------


def _sweep_steps(seed: int, d: Path) -> list:
    return [[
        "sim-imbalance", "--classifier", "c3", "--threads", "2", "--seed", str(seed),
        "--out", str(d / "imbalance.csv"), "--correlation-out", str(d / "correlation.csv"),
    ]]


def _sweep_check(seed: int, d: Path, oracles) -> None:
    table = np.loadtxt(d / "imbalance.csv", delimiter=",", skiprows=1, ndmin=2)
    scatter = np.loadtxt(d / "correlation.csv", delimiter=",", skiprows=1, ndmin=2)
    for name, arr, cols in (("imbalance", table, 8), ("correlation", scatter, 4)):
        _require(arr.shape == (25000, cols), f"{name} CSV has shape {arr.shape}")
        _require(bool(np.all(np.isfinite(arr))), f"{name} CSV holds non-finite values")
    pis = np.unique(table[:, 0])
    _require(np.allclose(pis, np.arange(1, 51) / 100), "imbalance ratios are not 0.01..0.50")
    for pi in pis:
        rows = table[table[:, 0] == pi]
        j_mean, mcc_mean = rows[:, 2].mean(), rows[:, 3].mean()
        _require(abs(j_mean) <= 0.05, f"mean J {j_mean:.4f} at pi={pi}")
        _require(abs(mcc_mean) <= 0.05, f"mean MCC {mcc_mean:.4f} at pi={pi}")
    summary = _json(d / "correlation.csv.summary.json")
    for pi, reported in zip(summary["pi"], summary["pearson_r"]):
        rows = scatter[scatter[:, 0] == pi]
        r = float(np.corrcoef(rows[:, 2], rows[:, 3])[0, 1])
        _require(abs(r - reported) <= 1e-9, f"Pearson r at pi={pi}: {reported}, recomputed {r}")
        floor = {0.5: 0.99, 0.25: 0.95}.get(pi)
        _require(floor is None or r >= floor, f"Pearson r {r:.4f} at pi={pi} below {floor}")
    _require({0.25, 0.5} <= set(summary["pi"]), "correlation summary lacks pi 0.25 or 0.5")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy", _toy_steps, _toy_check),
        Workload("field", _field_steps, _field_check),
        Workload("segment", _segment_steps, _segment_check),
        Workload("sweep", _sweep_steps, _sweep_check),
    )
}
