import itertools
import re

import numpy as np
import pytest

from jseg import (
    ConfusionCounts,
    InstanceLabelMap,
    InstanceMatching,
    LogitField,
    ProbabilityField,
    binary_measures,
    confusion_measures,
    match_instances,
    panoptic,
    pearson,
)
from jseg.metrics import MEASURES
from children import run_capped
from oracles import brute_iou_table, pair_loop_matching, scalar_binary_measures, trial_measures


def test_perfect_classifier():
    report = binary_measures(ConfusionCounts(tp=50, fp=0, fn=0, tn=50))
    for name in ("j", "mcc", "jaccard", "f1", "tversky", "accuracy"):
        assert report[name] == 1.0
    assert not report.flagged


def test_symmetric_ninety_percent():
    report = binary_measures(ConfusionCounts(tp=45, fp=5, fn=5, tn=45))
    assert report["j"] == pytest.approx(0.8, abs=1e-12)
    assert report["accuracy"] == pytest.approx(0.9, abs=1e-12)


def test_j_is_zero_for_chance_level_rates():
    # expected counts of a pi-rate independent predictor at any pi
    for pi in (0.01, 0.2, 0.5):
        n = 100000
        tp = pi * pi * n
        fn = pi * (1 - pi) * n
        fp = (1 - pi) * pi * n
        tn = (1 - pi) * (1 - pi) * n
        report = binary_measures(ConfusionCounts(int(tp), int(fp), int(fn), int(tn)))
        assert abs(report["j"]) < 1e-9


def test_tversky_half_half_equals_f1():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = ConfusionCounts(*(int(x) for x in rng.integers(1, 100, size=4)))
        report = binary_measures(c)
        assert report["tversky"] == pytest.approx(report["f1"], rel=1e-15)


def test_mcc_and_j_agree_in_sign():
    rng = np.random.default_rng(1)
    for _ in range(300):
        c = ConfusionCounts(*(int(x) for x in rng.integers(1, 60, size=4)))
        report = binary_measures(c)
        assert np.sign(report["mcc"]) == np.sign(report["j"]) or (
            abs(report["mcc"]) < 1e-12 and abs(report["j"]) < 1e-12
        )


def test_zero_total_is_an_error():
    with pytest.raises(ValueError):
        binary_measures(ConfusionCounts(0, 0, 0, 0))


@pytest.mark.parametrize("path", ["scalar", "vectorised"])
@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), 0.5, -1, 10**300, 2**53 + 1, 1e300],
    ids=["nan", "inf", "fraction", "negative", "int-1e300", "above-2**53", "float-1e300"],
)
def test_both_paths_reject_counts_that_are_not_whole_numbers_in_range(path, bad):
    with pytest.raises(ValueError, match="confusion counts must be whole numbers"):
        if path == "scalar":
            ConfusionCounts(1, 1, bad, 1)
        else:
            confusion_measures(np.array([1, 2]), 1, np.array([2, bad], dtype=object), 1)


def test_the_largest_count_is_accepted():
    values, _ = confusion_measures(2**53, 2**53, 2**53, 2**53)
    assert values["mcc"] == 0.0 and values["accuracy"] == 0.5
    assert binary_measures(ConfusionCounts(2**53, 0, 0, 2**53))["j"] == 1.0


def test_zero_denominators_are_flagged():
    report = binary_measures(ConfusionCounts(tp=0, fp=0, fn=0, tn=10))
    assert "j" in report.flagged
    assert report["j"] == 0.0


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def test_confusion_measures_equal_the_trial_reference_bit_for_bit():
    # The counts the imbalance sweep derives from tp and the class totals.
    rng = np.random.default_rng(5)
    samples = 500
    for pi, p_pred in ((0.01, 0.01), (0.02, 0.5), (0.3, 0.3), (0.5, 0.5)):
        gt = rng.random((300, samples)) < pi
        pred = rng.random((300, samples)) < p_pred
        pos, ppos = gt.sum(axis=1), pred.sum(axis=1)
        keep = (pos > 0) & (pos < samples) & (ppos > 0) & (ppos < samples)
        gt, pred, pos, ppos = gt[keep], pred[keep], pos[keep], ppos[keep]
        tp = (gt & pred).sum(axis=1)
        values, zero = confusion_measures(tp, ppos - tp, pos - tp, samples - pos - ppos + tp)
        for name, want in zip(MEASURES, trial_measures(gt, pred)):
            assert _bits(values[name]) == _bits(want), (pi, name)
            assert not zero[name].any()


def test_confusion_measures_flag_zero_denominators_like_the_scalar_path():
    # Every count matrix over {0, 1, 2} but the empty one, as one batch.
    counts = np.array([c for c in itertools.product(range(3), repeat=4) if any(c)])
    values, zero = confusion_measures(*counts.T)
    flagged_somewhere = set()
    for row, c in enumerate(counts.tolist()):
        report = binary_measures(ConfusionCounts(*c))
        want, want_flags = scalar_binary_measures(*c)
        assert report.flagged == want_flags == {m for m in MEASURES if zero[m][row]}
        flagged_somewhere |= want_flags
        for m in MEASURES:
            assert _bits(values[m][row]) == _bits(report[m]) == _bits(want[m]), (c, m)
    assert flagged_somewhere == set(MEASURES) - {"accuracy"}


def test_pearson_perfect_correlations():
    assert pearson([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3, 4], [-1, -2, -3, -4]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    # frozen from the closed-form deviation-products oracle:
    # cov = 5, var_x = 2, var_y = 114/9  ->  r = 5 / sqrt(2 * 114 / 9)
    want = 5.0 / np.sqrt(2.0 * 114.0 / 9.0)
    assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.9933992677987828, abs=1e-12)


def test_pearson_survives_values_whose_squares_overflow():
    assert pearson([1e300, -1e300, 3e300], [1, 2, 3]) == pytest.approx(0.5, abs=1e-12)
    assert pearson([1e-300, -1e-300, 3e-300], [1, 2, 3]) == pytest.approx(0.5, abs=1e-12)


def test_pearson_keeps_its_bits_under_power_of_two_scaling():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(size=40)
        y = 0.6 * x + rng.normal(size=40)
        want = pearson(x, y)
        for kx, ky in ((-900, 0), (0, 1000), (7, -3), (1000, -1000)):
            assert _bits(pearson(np.ldexp(x, kx), np.ldexp(y, ky))) == _bits(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pearson_rejects_values_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        pearson([1.0, bad, 3.0], [1, 2, 3])
    with pytest.raises(ValueError, match="finite"):
        pearson([1, 2, 3], [1.0, 2.0, bad])


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [2])


def _disc_map(dims, discs):
    labels = np.zeros(dims, dtype=np.int32)
    grids = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    for label, (center, radius) in enumerate(discs, start=1):
        dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
        labels[dist2 <= radius**2] = label
    return InstanceLabelMap(labels)


def test_panoptic_perfect_prediction():
    gt = _disc_map((20, 20), [((5, 5), 3), ((14, 13), 4)])
    report = panoptic(gt, gt)
    assert report["p05"] == report["rq"] == report["sq"] == report["pq"] == 1.0


def test_panoptic_single_cell_iou_080():
    labels = np.zeros((4, 4), dtype=np.int32)
    labels[0, :] = 1
    labels[1, 0] = 1  # gt: 5 elements
    gt = InstanceLabelMap(labels)
    pred_labels = np.zeros((4, 4), dtype=np.int32)
    pred_labels[0, :] = 1  # pred: 4 of those 5
    pred = InstanceLabelMap(pred_labels)
    report = panoptic(gt, pred)
    assert report["rq"] == 1.0
    assert report["sq"] == pytest.approx(0.8, abs=1e-12)
    assert report["pq"] == pytest.approx(0.8, abs=1e-12)


def test_panoptic_empty_prediction_flags_p05():
    gt = _disc_map((24, 24), [((5, 5), 3), ((16, 6), 3), ((12, 17), 3)])
    report = panoptic(gt, InstanceLabelMap(np.zeros((24, 24), dtype=np.int32)))
    assert report["p05"] == 0.0 and "p05" in report.flagged
    assert report["rq"] == 0.0
    assert report["pq"] == 0.0
    assert report.meta["fn"] == 3


def test_pq_is_sq_times_rq():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dims = (24, 24)
        centers = rng.integers(4, 20, size=(3, 2))
        gt = _disc_map(dims, [(tuple(c), 3) for c in centers])
        # perturb: drop one disc, shift another
        pred_centers = centers + rng.integers(-1, 2, size=centers.shape)
        pred = _disc_map(dims, [(tuple(c), 3) for c in pred_centers[: rng.integers(1, 4)]])
        report = panoptic(gt, pred)
        if report.meta["tp"] > 0:
            assert report["pq"] == pytest.approx(report["sq"] * report["rq"], abs=1e-12)


def test_matching_agrees_with_brute_force_sets():
    rng = np.random.default_rng(3)
    for _ in range(20):
        gt = rng.integers(0, 4, size=(10, 10)).astype(np.int32)
        pred = rng.integers(0, 4, size=(10, 10)).astype(np.int32)
        matching = match_instances(InstanceLabelMap(gt), InstanceLabelMap(pred))
        table = brute_iou_table(gt, pred)
        want = {(g, p): iou for (g, p), iou in table.items() if iou > 0.5}
        got = {(g, p): iou for g, p, iou in matching.matches}
        assert set(got) == set(want)
        for key in got:
            assert got[key] == pytest.approx(want[key], abs=1e-12)


@pytest.mark.parametrize("dims", [(12, 10), (6, 5, 4)])
def test_matching_equals_the_pair_loop(dims):
    # Whole InstanceMatching objects, Python types included: blocky maps with
    # sparse label numbers, a prediction that keeps most elements of the
    # truth, an empty prediction and an identical one.
    rng = np.random.default_rng(8)
    seen_matches = seen_unmatched = 0
    for _ in range(60):
        numbers = np.concatenate([[0], np.sort(rng.choice(10**6, 5, replace=False)) + 1])
        coarse = rng.integers(0, 6, size=tuple((n + 1) // 2 for n in dims))
        for axis in range(len(dims)):
            coarse = coarse.repeat(2, axis)
        gt = numbers[coarse[tuple(slice(n) for n in dims)]]
        noise = numbers[rng.integers(0, 6, size=dims)]
        kept = np.where(rng.random(dims) < 0.7, gt, noise)
        for pred in (kept, np.zeros(dims, np.int64), gt):
            g, p = InstanceLabelMap(gt), InstanceLabelMap(pred)
            got, want = match_instances(g, p), pair_loop_matching(g, p)
            assert got == want
            assert all(list(map(type, m)) == [int, int, float] for m in got.matches)
            assert all(type(l) is int for l in got.unmatched_gt + got.unmatched_pred)
            seen_matches += len(got.matches)
            seen_unmatched += len(got.unmatched_gt) + len(got.unmatched_pred)
    assert seen_matches > 0 and seen_unmatched > 0


def _check_matching_at_the_largest_labels() -> None:
    # Maps numbered 0..5, and the same maps with labels up to 2**31 - 1 on
    # either side.  Labels enter a matching only through equality and order,
    # so the pair loop's matching of the small maps, renamed through the
    # increasing map between the numberings, is the matching of the large
    # ones; the pair loop itself would bincount up to the largest label.
    rng = np.random.default_rng(9)
    top = 2**31 - 1
    a = InstanceLabelMap([[0, 1], [top, 1]])
    assert panoptic(a, a)["pq"] == 1.0
    for dims in ((12, 10), (6, 5, 4)):
        for _ in range(20):
            large = np.concatenate([[0], top - np.sort(rng.choice(10**9, 5, replace=False))[::-1]])
            coarse = rng.integers(0, 6, size=tuple((n + 1) // 2 for n in dims))
            for axis in range(len(dims)):
                coarse = coarse.repeat(2, axis)
            gt = coarse[tuple(slice(n) for n in dims)]
            kept = np.where(rng.random(dims) < 0.7, gt, rng.integers(0, 6, size=dims))
            for pred in (kept, np.zeros(dims, np.int64), gt):
                small = pair_loop_matching(InstanceLabelMap(gt), InstanceLabelMap(pred))
                for name_g, name_p in itertools.product([large, np.arange(6)], repeat=2):
                    got = match_instances(InstanceLabelMap(name_g[gt]), InstanceLabelMap(name_p[pred]))
                    assert got == InstanceMatching(
                        tuple((int(name_g[g]), int(name_p[p]), iou) for g, p, iou in small.matches),
                        tuple(int(name_g[l]) for l in small.unmatched_gt),
                        tuple(int(name_p[l]) for l in small.unmatched_pred),
                    )
                    assert all(list(map(type, m)) == [int, int, float] for m in got.matches)
                    assert all(type(l) is int for l in got.unmatched_gt + got.unmatched_pred)
                    table = brute_iou_table(name_g[gt], name_p[pred])
                    assert {(g, p): iou for g, p, iou in got.matches} == {
                        pair: iou for pair, iou in table.items() if iou > 0.5}


def test_matching_memory_follows_the_data_not_the_largest_label():
    # In a child under a 3 GiB cap: bincounting labels up to 2**31 - 1 asks
    # for 16 GiB, and fails there with a MemoryError.
    done = run_capped("-c", "import test_metrics; test_metrics._check_matching_at_the_largest_labels()")
    assert done.returncode == 0, done.stderr


def test_labels_appear_in_at_most_one_match():
    rng = np.random.default_rng(4)
    for _ in range(50):
        gt = rng.integers(0, 5, size=(12, 12)).astype(np.int32)
        pred = rng.integers(0, 5, size=(12, 12)).astype(np.int32)
        matching = match_instances(InstanceLabelMap(gt), InstanceLabelMap(pred))
        gts = [g for g, _, _ in matching.matches]
        preds = [p for _, p, _ in matching.matches]
        assert len(gts) == len(set(gts))
        assert len(preds) == len(set(preds))


def test_metrics_invariant_under_label_permutation():
    gt = _disc_map((20, 20), [((5, 5), 3), ((14, 13), 4)])
    pred = _disc_map((20, 20), [((5, 6), 3), ((14, 12), 4)])
    base = panoptic(gt, pred)
    relabeled = np.where(pred.labels == 1, 7, np.where(pred.labels == 2, 1, 0))
    permuted = panoptic(gt, InstanceLabelMap(relabeled.astype(np.int32)))
    for name in ("p05", "rq", "sq", "pq"):
        assert base[name] == pytest.approx(permuted[name], abs=1e-15)


def test_shape_mismatch_rejected():
    a = InstanceLabelMap(np.zeros((4, 4), dtype=np.int32))
    b = InstanceLabelMap(np.zeros((4, 5), dtype=np.int32))
    with pytest.raises(ValueError):
        panoptic(a, b)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ConfusionCounts(10**400, 1, 1, 1),
        lambda: confusion_measures(1, 10**400, 1, 1),
    ],
    ids=["ConfusionCounts", "confusion_measures"],
)
def test_named_errors(make):
    # numpy holds 10**400 as an object and cannot cast it to float64.
    with pytest.raises(ValueError, match=re.escape("confusion counts must be whole numbers in [0, 2**53]")):
        make()


_COUNTS = ([3, 0, 7], [1, 2, 0], [2, 5, 1], [4, 4, 9])


def _float16_measures():
    got, got_zero = confusion_measures(*(np.array(c, np.float16) for c in _COUNTS))
    want, want_zero = confusion_measures(*_COUNTS)
    for m in MEASURES:
        assert np.array_equal(got[m], want[m]) and np.array_equal(got_zero[m], want_zero[m])


def _complex_field(container):
    return container(np.full((2, 3, 4), 0.25, complex))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _complex_field(ProbabilityField), "probability values must be real numbers"),
        (lambda: _complex_field(LogitField), "logit values must be real numbers"),
        (lambda: pearson(np.array([1, 2, 3], complex), [1, 2, 4]), "needs real numbers"),
        (lambda: pearson([1, 2, 3], np.array([1, 2, 4], complex)), "needs real numbers"),
        (lambda: confusion_measures(*(np.array(c, np.float16) for c in ([np.inf], [1], [1], [1]))),
         "whole numbers"),
        (_float16_measures, None),
    ],
    ids=["probability-complex", "logit-complex", "pearson-x-complex", "pearson-y-complex",
         "float16-inf-count", "float16-counts"],
)
def test_odd_dtypes_give_a_result_or_a_named_error_never_a_warning(call, message):
    # Complex input once raised ComplexWarning and float16 counts "overflow
    # encountered in cast"; here any warning fails the test.
    if message is None:
        call()
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
