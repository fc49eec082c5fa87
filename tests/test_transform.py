import numpy as np
import pytest

from jseg import (
    InstanceLabelMap,
    SceneSpec,
    TransformConfig,
    bottom_hat,
    generate_scene,
    to_semantic,
)
from jseg.transform import THREE_CLASS
from oracles import brute_bottom_hat, brute_semantic, pointwise_semantic


def test_bottom_hat_empty_foreground():
    g = InstanceLabelMap(np.zeros((6, 6), dtype=np.int32))
    assert not bottom_hat(g, 2).any()


def test_bottom_hat_one_element_slit():
    g = InstanceLabelMap(np.array([[1, 0, 2]], dtype=np.int32))
    got = bottom_hat(g, 1)
    assert np.array_equal(got, [[0, 1, 0]])
    assert np.array_equal(got, brute_bottom_hat(g.labels, 1))


def test_bottom_hat_convex_blob_adds_nothing():
    labels = np.zeros((12, 12), dtype=np.int32)
    labels[3:9, 3:9] = 1
    g = InstanceLabelMap(labels)
    for radius in (1, 2, 3):
        assert not bottom_hat(g, radius).any()


def test_bottom_hat_zero_on_foreground():
    g = generate_scene(SceneSpec(kind="two-squares-notch", dims=(20, 10), seed=0))
    values = bottom_hat(g, 3)
    assert not values[g.labels > 0].any()


def test_to_semantic_all_background():
    g = InstanceLabelMap(np.zeros((4, 5), dtype=np.int32))
    assert not to_semantic(g, TransformConfig()).classes.any()


def test_to_semantic_touching_row():
    g = InstanceLabelMap(np.array([[1, 1, 2, 2]], dtype=np.int32))
    h = to_semantic(g, TransformConfig(k=2, gap_radius=1))
    assert np.array_equal(h.classes, [[2, 2, 2, 2]])


def test_to_semantic_gap_beats_touching_for_background():
    g = InstanceLabelMap(np.array([[1, 0, 2]], dtype=np.int32))
    h = to_semantic(g, TransformConfig(k=2, gap_radius=1))
    assert np.array_equal(h.classes, [[2, 3, 2]])


def test_partition_and_monotone_consistency():
    rng = np.random.default_rng(0)
    for seed in range(25):
        spec = SceneSpec(kind="random-blobs", dims=(26, 22), cell_size=6, seed=seed, n_blobs=3)
        g = generate_scene(spec)
        h = to_semantic(g, TransformConfig())
        counts = np.bincount(h.classes.ravel(), minlength=4)
        assert counts.sum() == g.labels.size
        assert np.all(g.labels[h.classes == 2] != 0)  # touching is foreground
        assert np.all(g.labels[h.classes == 3] == 0)  # gap is background
        assert rng is not None


def test_three_class_equals_four_class_with_gap_squashed():
    for seed in range(10):
        spec = SceneSpec(kind="random-blobs", dims=(24, 20), cell_size=6, seed=seed)
        g = generate_scene(spec)
        four = to_semantic(g, TransformConfig(k=2, gap_radius=3)).classes
        three = to_semantic(g, TransformConfig(k=2, gap_radius=3, mode=THREE_CLASS)).classes
        squashed = np.where(four == 3, 0, four)
        assert np.array_equal(three, squashed)


def test_shift_reference_matches_pointwise_reference():
    rng = np.random.default_rng(7)
    for _ in range(10):
        labels = rng.integers(0, 4, size=(7, 6)).astype(np.int32)
        for k in (1, 2):
            for radius in (1, 2):
                assert np.array_equal(
                    brute_semantic(labels, k, radius),
                    pointwise_semantic(labels, k, radius),
                )


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("radius", [1, 3])
def test_transform_matches_brute_force_2d(k, radius):
    for seed in range(30):
        spec = SceneSpec(kind="random-blobs", dims=(28, 24), cell_size=7, seed=seed, n_blobs=4)
        g = generate_scene(spec)
        got = to_semantic(g, TransformConfig(k=k, gap_radius=radius)).classes
        want = brute_semantic(g.labels, k, radius)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 2])
def test_transform_matches_brute_force_3d(k):
    for seed in range(4):
        spec = SceneSpec(kind="random-blobs", dims=(20, 18, 16), cell_size=5, seed=seed, n_blobs=3)
        g = generate_scene(spec)
        got = to_semantic(g, TransformConfig(k=k, gap_radius=2)).classes
        want = brute_semantic(g.labels, k, 2)
        assert np.array_equal(got, want)


def test_config_validation():
    with pytest.raises(ValueError):
        TransformConfig(k=0)
    with pytest.raises(ValueError):
        TransformConfig(gap_radius=0)
    with pytest.raises(ValueError):
        TransformConfig(mode="five-class")
    assert TransformConfig(mode=THREE_CLASS).channels == 3
