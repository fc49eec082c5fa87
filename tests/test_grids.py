import re
import tracemalloc

import numpy as np
import pytest

from jseg import (
    InstanceLabelMap,
    LogitField,
    ProbabilityField,
    SemanticLabelMap,
    one_hot,
    probs_to_logits,
    softmax,
)
from jseg.grids import PROB_ATOL, BoundSoftmax, argmax_channels, channel_views, fold_views


def _each_kind(dims, rng):
    """(container, field name, valid input in the container's dtype and
    C order) for each of the four kinds over grid ``dims``."""
    classes = rng.integers(0, 4, size=dims).astype(np.int32)
    return (
        (InstanceLabelMap, "labels", classes * 5),
        (SemanticLabelMap, "classes", classes),
        (ProbabilityField, "values", np.eye(4)[classes]),
        (LogitField, "values", rng.normal(size=dims + (3,))),
    )


def test_grid_shape_validation():
    rng = np.random.default_rng(0)
    for dims, message in (
        ((5,), "2-D or 3-D|spatial dims"),
        ((2, 3, 4, 5), "2-D or 3-D|spatial dims"),
        ((0, 3), ">= 1"),
        ((2, 0, 4), ">= 1"),
    ):
        for kind, _, arr in _each_kind(dims, rng):
            with pytest.raises(ValueError, match=message):
                kind(arr)
    for dims in ((4, 5), (2, 3, 4)):
        for kind, name, arr in _each_kind(dims, rng):
            assert getattr(kind(arr), name).shape == arr.shape


def test_containers_reject_bad_values():
    with pytest.raises(ValueError):
        InstanceLabelMap(np.array([[-1, 0]]))
    with pytest.raises(ValueError):
        SemanticLabelMap(np.array([[4, 0]]))
    with pytest.raises(ValueError):
        ProbabilityField(np.array([[[0.7, 0.7]]]))
    with pytest.raises(ValueError):
        LogitField(np.array([[[np.inf, 0.0]]]))


def test_instance_labels_beyond_int32_are_rejected():
    with pytest.raises(ValueError, match="int32"):
        InstanceLabelMap(np.array([[0, 2**31 + 5]], dtype=np.int64))
    top = np.iinfo(np.int32).max
    assert InstanceLabelMap(np.array([[0, top]], dtype=np.int64)).m == top


def test_one_hot_check_runs_once_per_container():
    field = one_hot(SemanticLabelMap(np.array([[0, 3]])), 4)
    assert field.is_one_hot()
    soft = ProbabilityField(np.full((1, 2, 4), 0.25))
    assert not soft.is_one_hot()


def test_containers_do_not_freeze_caller_arrays():
    # Input already in the container's dtype and C order is the case that a
    # cast or copy skipped for "no conversion needed" would alias.
    for kind, name, arr in _each_kind((3, 4), np.random.default_rng(1)):
        assert arr.flags.c_contiguous and arr.dtype == (np.int32 if arr.ndim == 2 else np.float64)
        stored = getattr(kind(arr), name)
        assert arr.flags.writeable and not stored.flags.writeable
        assert not np.shares_memory(stored, arr)
        before = stored.copy()
        arr[0, 0] += 1  # the caller's array stays writable ...
        assert np.array_equal(stored, before)  # ... and its writes stay out


def test_label_maps_are_copied_once():
    labels = np.random.default_rng(2).integers(0, 4, size=(256, 256)).astype(np.int32)
    for kind in (InstanceLabelMap, SemanticLabelMap):
        tracemalloc.start()
        try:
            kind(labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One int32 copy; a second copy would take the peak to twice this.
        assert labels.nbytes <= peak < 1.5 * labels.nbytes


def test_probability_field_checks_the_simplex_without_full_temporaries():
    raw = np.random.default_rng(3).random((256, 256, 4))
    z = raw / raw.sum(axis=-1, keepdims=True)
    tracemalloc.start()
    try:
        ProbabilityField(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The stored copy plus one channel-sum array (a quarter of the field);
    # a second per-element temporary in the check would reach 1.5x.
    assert z.nbytes <= peak < 1.3 * z.nbytes


def test_a_softmax_that_is_never_pulled_back_makes_no_pull_back_array():
    # The finite-difference and landscape stacks take values only.
    stack = np.random.default_rng(4).normal(size=(512, 4, 64))
    tracemalloc.start()
    try:
        out = BoundSoftmax(stack)()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The output, its lane (a quarter of it) and numpy's ufunc buffers for
    # the strided planes of a stack (128 KiB, an eighth): 1.38 of the
    # output.  A pull-back array would add a whole output.
    assert peak < 1.5 * out.nbytes


def test_softmax_uniform_on_equal_logits():
    logits = LogitField(np.zeros((2, 2, 4)))
    z = softmax(logits).values
    assert np.allclose(z, 0.25, atol=0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(3, 4, 4))
    for t in (-50.0, 0.0, 7.5, 300.0):
        shifted = softmax(LogitField(base + t)).values
        reference = softmax(LogitField(base)).values
        assert np.allclose(shifted, reference, atol=1e-12)


def test_softmax_direct_values():
    z = softmax(LogitField(np.array([[[1.0, 2.0, 3.0]]]))).values[0, 0]
    # frozen from the exp/sum oracle
    assert np.allclose(z, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)


def test_softmax_sums_and_argmax():
    rng = np.random.default_rng(1)
    theta = rng.normal(scale=30.0, size=(6, 5, 4))
    z = softmax(LogitField(theta)).values
    assert np.abs(z.sum(axis=-1) - 1.0).max() < 1e-12
    assert np.array_equal(np.argmax(z, axis=-1), np.argmax(theta, axis=-1))


def test_softmax_extreme_logits_do_not_overflow():
    z = softmax(LogitField(np.full((1, 2, 3), 1e4))).values
    assert np.allclose(z, 1 / 3)


def test_one_hot_all_zero_map():
    field = one_hot(SemanticLabelMap(np.zeros((2, 2), dtype=np.int32)), 4)
    assert np.all(field.values[..., 0] == 1.0)
    assert field.is_one_hot()


def test_one_hot_explicit():
    field = one_hot(SemanticLabelMap(np.array([[0, 3]])), 4)
    assert np.array_equal(field.values[0, 0], [1, 0, 0, 0])
    assert np.array_equal(field.values[0, 1], [0, 0, 0, 1])


def test_one_hot_rejects_overflowing_class():
    with pytest.raises(ValueError):
        one_hot(SemanticLabelMap(np.array([[3, 0]])), 3)


def test_one_hot_argmax_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dims = tuple(rng.integers(1, 7, size=int(rng.integers(2, 4))))
        classes = rng.integers(0, 4, size=dims).astype(np.int32)
        semantic = SemanticLabelMap(classes)
        recovered = one_hot(semantic, 4).argmax_classes()
        assert np.array_equal(recovered.classes, classes)


def test_one_hot_channel_sums_are_class_counts():
    rng = np.random.default_rng(3)
    classes = rng.integers(0, 4, size=(8, 9)).astype(np.int32)
    field = one_hot(SemanticLabelMap(classes), 4)
    counts = field.values.sum(axis=(0, 1))
    assert np.array_equal(counts, np.bincount(classes.ravel(), minlength=4))


def test_probs_to_logits_round_trip():
    rng = np.random.default_rng(4)
    raw = rng.random((4, 4, 4)) + 1e-3
    z = ProbabilityField(raw / raw.sum(axis=-1, keepdims=True))
    back = softmax(probs_to_logits(z)).values
    assert np.allclose(back, z.values, atol=1e-12)


def test_argmax_channels_matches_numpy_on_exact_ties():
    rng = np.random.default_rng(5)
    for channels in range(2, 10):
        for dims in ((7, 9), (4, 5, 6)):
            # Three distinct values over up to 9 channels: most elements tie.
            x = rng.integers(0, 3, size=dims + (channels,)).astype(np.float64) / 2
            index, top = argmax_channels(x)
            assert index.dtype == np.int32
            assert np.array_equal(index, np.argmax(x, axis=-1))
            assert top.tobytes() == x.max(axis=-1).tobytes()
    tied = ProbabilityField(np.array([[[0.5, 0.5, 0.0, 0.0], [0.0, 0.4, 0.4, 0.2]]]))
    assert np.array_equal(tied.argmax_classes().classes, [[0, 1]])


def test_folded_validation_sums_match_numpy_bit_for_bit():
    rng = np.random.default_rng(6)
    for channels in range(2, 8):
        raw = rng.random((16, 12, channels)) * 10.0 ** rng.integers(-12, 1, (16, 12, channels))
        x = raw / raw.sum(axis=-1, keepdims=True)
        before = x.copy()
        assert fold_views(np.add, channel_views(x)).tobytes() == x.sum(axis=-1).tobytes()
        assert fold_views(np.maximum, channel_views(x)).tobytes() == x.max(axis=-1).tobytes()
        assert x.tobytes() == before.tobytes()  # the fold never writes its input
        # Push element sums to either side of the tolerance: the folded check
        # accepts and rejects exactly where numpy's sums say so.
        x[..., 0] += rng.choice([-1.0, 1.0], (16, 12)) * rng.uniform(0.9, 1.1, (16, 12)) * PROB_ATOL
        verdicts = set()
        for element in x.reshape(-1, channels):
            field = element[None, None]
            if field.min() < -PROB_ATOL or field.max() > 1.0 + PROB_ATOL:
                continue  # rejected by the range check before any sum
            off = abs(float(field.sum(axis=-1)[0, 0]) - 1.0)
            verdicts.add(off <= PROB_ATOL)
            if off <= PROB_ATOL:
                ProbabilityField(field)
            else:
                with pytest.raises(ValueError, match=f"off by {off:.3g}"):
                    ProbabilityField(field)
        assert verdicts == {True, False}


def test_is_one_hot_matches_the_ones_count_rule():
    def reference(values):
        ones = values == 1.0
        return bool(np.all(ones.sum(axis=-1) == 1) and np.all(ones | (values == 0.0)))

    rng = np.random.default_rng(7)
    for channels in (2, 3, 4, 9):
        exact = np.eye(channels)[rng.integers(0, channels, (5, 6))]
        near = exact.copy()
        near[2, 3] = np.roll(near[2, 3], 1) * (1 - 1e-7) + 1e-7 / channels
        for values in (exact, near, np.full((5, 6, channels), 1.0 / channels)):
            field = ProbabilityField(values)
            assert field.is_one_hot() == reference(field.values)
    assert ProbabilityField(exact).is_one_hot()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: InstanceLabelMap(np.array([[0.0, 1.5]])), "instance labels must be integers"),
        (lambda: SemanticLabelMap(np.array([[1.0, 2.0]])), "semantic classes must be integers"),
        (lambda: LogitField(np.zeros((2, 3, 1))), "logit field needs at least 2 channels"),
        (lambda: ProbabilityField(np.ones((2, 3, 1))), "probability field needs at least 2 channels"),
        (lambda: one_hot(SemanticLabelMap(np.zeros((2, 3), np.int32)), 1),
         "one-hot encoding needs at least 2 channels"),
        (lambda: probs_to_logits(ProbabilityField(np.full((2, 2, 2), 0.5)), 0.0), "floor must lie in (0, 1)"),
        (lambda: probs_to_logits(ProbabilityField(np.full((2, 2, 2), 0.5)), 1.0), "floor must lie in (0, 1)"),
        (lambda: probs_to_logits(ProbabilityField(np.full((2, 2, 2), 0.5)), float("nan")),
         "floor must lie in (0, 1)"),
    ],
)
def test_named_errors(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()
