import numpy as np
import pytest

from jseg import (
    GridShape,
    InstanceLabelMap,
    LogitField,
    ProbabilityField,
    SemanticLabelMap,
    one_hot,
    probs_to_logits,
    softmax,
)


def test_grid_shape_validation():
    assert GridShape((4, 5)).d == 2
    assert GridShape((2, 3, 4)).n_elements == 24
    with pytest.raises(ValueError):
        GridShape((5,))
    with pytest.raises(ValueError):
        GridShape((2, 3, 4, 5))
    with pytest.raises(ValueError):
        GridShape((0, 3))


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
    assert field.__dict__["_one_hot"] is True
    soft = ProbabilityField(np.full((1, 2, 4), 0.25))
    assert not soft.is_one_hot()
    assert soft.__dict__["_one_hot"] is False


def test_containers_do_not_freeze_caller_arrays():
    arr = np.zeros((2, 2, 3))
    arr[..., 0] = 1.0
    ProbabilityField(arr)
    arr[0, 0, 0] = 0.5  # caller's array must stay writable
    assert arr[0, 0, 0] == 0.5


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
