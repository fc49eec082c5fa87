"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
verdict line per criterion.
"""

import json
import time

import numpy as np
import pytest

from jseg import (
    ImbalanceSimConfig,
    InstanceLabelMap,
    ProbabilityField,
    SceneSpec,
    SemanticLabelMap,
    ShrinkwrapConfig,
    TrainConfig,
    TransformConfig,
    evaluate_loss,
    generate_scene,
    gradient_check,
    instances_from_probs,
    mcc_j_correlation,
    one_hot,
    panoptic,
    run_imbalance_sim,
    run_shrinkwrap,
    to_semantic,
    train,
)
from jseg.cli import dispatch
from oracles import brute_semantic


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _one_hot_with_all_classes(rng, dims, channels=4):
    while True:
        classes = rng.integers(0, channels, size=dims).astype(np.int32)
        if len(np.unique(classes)) == channels:
            return one_hot(SemanticLabelMap(classes), channels)


def test_criterion_01_gradient_correctness():
    started = time.monotonic()
    worst = {}
    for loss_id in ("ce", "j", "jc", "bwm", "dsc"):
        report = gradient_check(loss_id, seed=7, trials=100, step=1e-5)
        worst[loss_id] = report["grad_max_rel_err"]
    elapsed = time.monotonic() - started
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 30.0
    detail = (
        "analytic vs central differences, 100 instances per loss: "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f" (< 1e-4), {elapsed:.1f}s (< 30s)"
    )
    _verdict(1, ok, detail)


def test_criterion_02_optimum_consistency():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(50):
        dims = (int(rng.integers(3, 8)), int(rng.integers(3, 8)))
        y = _one_hot_with_all_classes(rng, dims)
        worst = max(worst, abs(evaluate_loss("jc", y, y).total))
    _verdict(2, worst < 1e-6, f"max |JC(y, y)| over 50 one-hot targets = {worst:.2e} (< 1e-6)")


def test_criterion_03_hand_oracle_values():
    y = ProbabilityField(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
    z = ProbabilityField(np.array([[[0.6, 0.4], [0.3, 0.7]]]))
    j = evaluate_loss("j", y, z).total
    jc = evaluate_loss("jc", y, z).total
    # frozen from the pairwise alpha/beta oracle: -2 log 0.65 and its CE sum
    ok = abs(j - 0.8615658321849085) < 1e-3 and abs(jc - 1.2953161160372701) < 1e-3
    _verdict(3, ok, f"two-element field: j={j:.6f} (0.861566 +- 1e-3), jc={jc:.6f} (1.295316 +- 1e-3)")


def test_criterion_04_imbalance_invariance():
    started = time.monotonic()
    checks = []
    for classifier in ("c1", "c3"):
        cfg = ImbalanceSimConfig(classifier=classifier, seed=11)  # N=1000, T=500, 50 ratios
        summary = run_imbalance_sim(cfg).summary()
        j_means = np.array([e["j_mean"] for e in summary])
        mcc_means = np.array([e["mcc_mean"] for e in summary])
        f1_means = np.array([e["f1_mean"] for e in summary])
        jac_means = np.array([e["jaccard_mean"] for e in summary])
        checks.append(np.abs(j_means).max() < 0.02)
        checks.append(np.abs(mcc_means).max() < 0.02)
        checks.append(f1_means.max() - f1_means.min() > 0.3)
        checks.append(jac_means.max() - jac_means.min() > 0.3)
        if classifier == "c1":
            acc = summary[0]["accuracy_mean"]
            checks.append(abs(acc - 0.9802) < 0.02)
    elapsed = time.monotonic() - started
    ok = all(checks) and elapsed < 60.0
    _verdict(
        4,
        ok,
        "J and MCC means within 0.02 of zero at every ratio for c1 and c3, "
        f"F1/Jaccard ranges exceed 0.3, c1 accuracy at 0.01 near 0.9802; {elapsed:.1f}s (< 60s)",
    )


def test_criterion_05_mcc_j_correlation():
    cfg = ImbalanceSimConfig(classifier="c3", pis=(0.01, 0.25, 0.5), samples=300, trials=500, seed=17)
    corr = mcc_j_correlation(cfg)
    r001, r025, r050 = corr.r_at(0.01), corr.r_at(0.25), corr.r_at(0.5)
    ok = r050 >= 0.99 and r025 >= 0.95 and 0.80 <= r001 <= 0.98
    _verdict(
        5,
        ok,
        f"Pearson(MCC, J): r(0.5)={r050:.4f} (>=0.99), r(0.25)={r025:.4f} (>=0.95), "
        f"r(0.01)={r001:.4f} (in [0.80, 0.98])",
    )


def test_criterion_06_shrinkwrap_dynamics():
    started = time.monotonic()
    trace = run_shrinkwrap(ShrinkwrapConfig())
    elapsed = time.monotonic() - started
    idx = trace.shrinkwrap_index
    ce = trace.column("grad_ce")
    j = trace.column("grad_j")
    jc = trace.column("grad_jc")
    # peaks are taken over the trajectory up to the evaluation point
    ce_ratio = ce[idx] / ce[: idx + 1].max()
    j_ratio = j[idx] / j[: idx + 1].max()
    final_ok = all(col[-1] < 1e-6 * col.max() for col in (ce, j, jc))
    ok = ce_ratio < 0.2 and j_ratio > 0.5 and final_ok and elapsed < 10.0
    _verdict(
        6,
        ok,
        f"at margin 0: CE at {ce_ratio:.3f} of its peak (< 0.2), J at {j_ratio:.3f} (> 0.5); "
        f"final norms < 1e-6 of peaks: {final_ok}; {elapsed:.1f}s (< 10s)",
    )


def test_criterion_07_transform_oracle_equivalence():
    started = time.monotonic()
    settings = [(k, r) for k in (1, 2) for r in (1, 3)]
    mismatches = 0
    for seed in range(200):
        k, radius = settings[seed % 4]
        if seed % 2 == 0:
            spec = SceneSpec(kind="random-blobs", dims=(28, 24), cell_size=7,
                             seed=seed, n_blobs=3 + seed % 3)
        else:
            spec = SceneSpec(kind="two-squares-notch", dims=(26, 18), cell_size=8,
                             notch_length=2 + seed % 4, seed=seed)
        g = generate_scene(spec)
        got = to_semantic(g, TransformConfig(k=k, gap_radius=radius)).classes
        want = brute_semantic(g.labels, k, radius)
        mismatches += not np.array_equal(got, want)
    for seed in range(20):
        k, radius = settings[seed % 4]
        spec = SceneSpec(kind="random-blobs", dims=(20, 18, 16), cell_size=5, seed=seed)
        g = generate_scene(spec)
        got = to_semantic(g, TransformConfig(k=k, gap_radius=radius)).classes
        want = brute_semantic(g.labels, k, radius)
        mismatches += not np.array_equal(got, want)
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 60.0
    _verdict(
        7,
        ok,
        f"transform equals brute-force reference on 200 2-D + 20 3-D scenes, "
        f"k in {{1,2}}, radius in {{1,3}}: {mismatches} mismatches; {elapsed:.1f}s (< 60s)",
    )


def _disc_map(dims, discs):
    labels = np.zeros(dims, dtype=np.int32)
    grids = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    for label, (center, radius) in enumerate(discs, start=1):
        dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
        labels[dist2 <= radius**2] = label
    return InstanceLabelMap(labels)


def test_criterion_08_panoptic_identities():
    rng = np.random.default_rng(8)
    identity_ok = True
    checked = 0
    while checked < 100:
        centers = rng.integers(4, 20, size=(3, 2))
        gt = _disc_map((24, 24), [(tuple(c), 3) for c in centers])
        pred_centers = centers + rng.integers(-2, 3, size=centers.shape)
        keep = int(rng.integers(1, 4))
        pred = _disc_map((24, 24), [(tuple(c), 3) for c in pred_centers[:keep]])
        report = panoptic(gt, pred)
        if report.meta["tp"] == 0:
            continue
        checked += 1
        if abs(report["pq"] - report["sq"] * report["rq"]) > 1e-12:
            identity_ok = False

    gt = _disc_map((20, 20), [((5, 5), 3), ((14, 13), 4)])
    perfect = panoptic(gt, gt)
    perfect_ok = all(perfect[m] == 1.0 for m in ("p05", "rq", "sq", "pq"))

    labels = np.zeros((4, 4), dtype=np.int32)
    labels[0, :] = 1
    labels[1, 0] = 1
    pred_labels = np.zeros((4, 4), dtype=np.int32)
    pred_labels[0, :] = 1
    report = panoptic(InstanceLabelMap(labels), InstanceLabelMap(pred_labels))
    iou08_ok = abs(report["pq"] - 0.8) < 1e-12

    ok = identity_ok and perfect_ok and iou08_ok
    _verdict(
        8,
        ok,
        f"PQ = SQ*RQ to 1e-12 on 100 matchings: {identity_ok}; perfect prediction all ones: "
        f"{perfect_ok}; constructed IoU-0.8 case PQ={report['pq']:.12f} (0.8 +- 1e-12)",
    )


def test_criterion_09_end_to_end_round_trip():
    failures = 0
    for seed in range(100):
        if seed % 2 == 0:
            spec = SceneSpec(kind="random-blobs", dims=(28, 24), cell_size=7,
                             seed=seed, n_blobs=3 + seed % 3)
        else:
            spec = SceneSpec(kind="two-squares-notch", dims=(30, 20),
                             cell_size=6 + seed % 4, notch_length=3 + seed % 3, seed=seed)
        g = generate_scene(spec)
        h = to_semantic(g, TransformConfig())  # k=2: every cell is >= 5 wide
        rec = instances_from_probs(one_hot(h, 4))
        failures += panoptic(g, rec)["pq"] != 1.0
    for seed in range(20):
        spec = SceneSpec(kind="random-blobs", dims=(24, 22, 20), cell_size=6, seed=seed)
        g = generate_scene(spec)
        h = to_semantic(g, TransformConfig())
        rec = instances_from_probs(one_hot(h, 4))
        failures += panoptic(g, rec)["pq"] != 1.0
    _verdict(
        9,
        failures == 0,
        f"semantic/one-hot/decision/gap/instances round trip: PQ = 1.0 on 100 2-D and "
        f"20 3-D scenes ({failures} failures)",
    )


def test_criterion_10_toy_training():
    started = time.monotonic()
    spec = SceneSpec(kind="two-squares-notch", dims=(24, 16), cell_size=8, seed=0)
    g = generate_scene(spec)
    y = one_hot(to_semantic(g, TransformConfig()), 4)
    strict = []
    jc_pq = None
    for seed in (3, 5):
        jc_run = train(y, g, TrainConfig(loss="jc", iterations=5000, log_every=50, seed=seed))
        ce_run = train(y, g, TrainConfig(loss="ce", iterations=5000, log_every=50, seed=seed))
        if jc_pq is None:
            jc_pq = jc_run.final_pq
        strict.append(jc_run.first_gap_correct < ce_run.first_gap_correct)
    elapsed = time.monotonic() - started
    ok = jc_pq == 1.0 and all(strict) and elapsed < 120.0
    _verdict(
        10,
        ok,
        f"JC training reaches PQ={jc_pq} within 5000 iterations and fixes the gap elements "
        f"strictly before CE on paired seeded runs ({strict}); {elapsed:.1f}s (< 120s)",
    )


def _run_cli(*argv):
    assert dispatch(list(argv)) == 0


def _compare_across_threads(tmp_path, name, argv_builder):
    d1 = tmp_path / f"{name}-t1"
    d8 = tmp_path / f"{name}-t8"
    d1.mkdir()
    d8.mkdir()
    _run_cli(*argv_builder(d1), "--threads", "1")
    _run_cli(*argv_builder(d8), "--threads", "8")
    outs1 = sorted(p.name for p in d1.iterdir() if not p.name.endswith("manifest.json"))
    outs8 = sorted(p.name for p in d8.iterdir() if not p.name.endswith("manifest.json"))
    assert outs1 == outs8 and outs1, f"{name}: outputs differ in presence"
    for out in outs1:
        if (d1 / out).read_bytes() != (d8 / out).read_bytes():
            return f"{name}: {out} differs between thread counts"
    return None


def test_criterion_11_cli_determinism(tmp_path):
    prep = tmp_path / "prep"
    prep.mkdir()
    g = prep / "g.grd"
    h = prep / "h.grd"
    z = prep / "z.grd"
    theta = prep / "theta.grd"
    inst = prep / "inst.grd"
    _run_cli("gen-scene", "--dims", "24", "16", "--seed", "0", "--out", str(g))
    _run_cli("transform", "--in", str(g), "--out", str(h), "--seed", "0")
    from jseg import probs_to_logits, read_grid, write_grid

    field = one_hot(read_grid(h, "semantic"), 4)
    write_grid(field, z)
    write_grid(probs_to_logits(field, floor=1e-3), theta)
    _run_cli("postprocess", "--in", str(z), "--out", str(inst), "--seed", "0")

    builders = {
        "gen-scene": lambda d: ["gen-scene", "--kind", "random-blobs", "--dims", "30", "26",
                                "--seed", "5", "--out", str(d / "scene.grd")],
        "transform": lambda d: ["transform", "--in", str(g), "--out", str(d / "h.grd"),
                                "--seed", "0"],
        "loss-eval": lambda d: ["loss-eval", "--loss", "jc", "--target", str(h),
                                "--logits", str(theta), "--seed", "0", "--out", str(d / "l.json")],
        "grad-check": lambda d: ["grad-check", "--loss", "jc", "--seed", "7", "--trials", "5",
                                 "--out", str(d / "gc.json")],
        "sim-imbalance": lambda d: ["sim-imbalance", "--classifier", "c3", "--pis", "0.1", "0.5",
                                    "--samples", "150", "--trials", "20", "--seed", "1",
                                    "--out", str(d / "imb.csv"),
                                    "--correlation-out", str(d / "mccj.csv")],
        "sim-shrinkwrap": lambda d: ["sim-shrinkwrap", "--dims", "40", "28", "--margin", "6",
                                     "--iters-per-step", "2", "--iterations", "16",
                                     "--seed", "0", "--out", str(d / "sw.csv")],
        "landscape": lambda d: ["landscape", "--dims", "20", "12", "--cell-size", "6",
                                "--notch-length", "3", "--resolution", "7", "--seed", "2",
                                "--out", str(d / "land.csv")],
        "postprocess": lambda d: ["postprocess", "--in", str(z), "--out", str(d / "inst.grd"),
                                  "--seed", "0"],
        "evaluate": lambda d: ["evaluate", "--gt", str(g), "--pred", str(inst),
                               "--out", str(d / "eval.csv"), "--seed", "0"],
        "train-toy": lambda d: ["train-toy", "--dims", "24", "16", "--loss", "jc",
                                "--iterations", "120", "--log-every", "60", "--seed", "3",
                                "--out", str(d / "trace.csv")],
    }
    problems = []
    for name, builder in builders.items():
        problem = _compare_across_threads(tmp_path, name, builder)
        if problem:
            problems.append(problem)
    _verdict(
        11,
        not problems,
        "byte-identical outputs across --threads 1 and --threads 8 for all "
        f"{len(builders)} subcommands" + (f"; problems: {problems}" if problems else ""),
    )
