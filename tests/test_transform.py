import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jseg import (
    InstanceLabelMap,
    SceneSpec,
    TransformConfig,
    bottom_hat,
    generate_scene,
    to_semantic,
)
from jseg.transform import THREE_CLASS, _touching_mask, ball_footprint
from oracles import (
    ball_offsets,
    brute_bottom_hat,
    brute_semantic,
    ndimage_bottom_hat,
    ndimage_touching_mask,
    pointwise_semantic,
)


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


_FOLDS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def _label_maps(draw):
    """2-D int32 label maps of up to 7 elements per axis or 3-D ones of up
    to 5, with labels 0-3 so that cells touch."""
    d = draw(st.sampled_from([2, 3]))
    shape = draw(st.tuples(*[st.integers(1, 7 if d == 2 else 5)] * d))
    return draw(hnp.arrays(np.int32, shape, elements=st.integers(0, 3)))


# All background, all foreground (one cell, two cells side by side), single
# rows and columns, and radii beyond the grid.
_EDGE_CASES = [
    (np.zeros((5, 4), np.int32), 2),
    (np.ones((3, 1, 4), np.int32), 6),
    (np.array([[1, 1, 2, 2, 2]], np.int32), 7),
    (np.array([[1], [0], [0], [2]], np.int32), 3),
    (np.zeros((1, 1, 1), np.int32), 1),
    (np.full((2, 3, 2), 3, np.int32), 4),
]


def _with_edge_cases(test):
    for labels, size in _EDGE_CASES:
        test = example(labels, size)(test)
    return test


@_FOLDS
@given(_label_maps(), st.integers(1, 6))
@_with_edge_cases
def test_bottom_hat_matches_ndimage_closing(labels, radius):
    got = bottom_hat(InstanceLabelMap(labels), radius)
    assert got.dtype == bool
    assert np.array_equal(got, ndimage_bottom_hat(labels, radius))


@_FOLDS
@given(_label_maps(), st.integers(1, 6))
@_with_edge_cases
def test_touching_mask_matches_ndimage_filters(labels, k):
    got = _touching_mask(labels, k)
    assert got.dtype == bool
    assert np.array_equal(got, ndimage_touching_mask(labels, k))


def test_bottom_hat_folds_without_per_offset_temporaries():
    # The peak is the foreground, the 2r-padded grid, its running line fold
    # and the r-padded dilation, 64^3 + 76^3 + 76^2*70 + 70^3 bytes: 3.30
    # times the padded grid.  One temporary per offset, even if freed at
    # once, adds another r-padded grid or line fold, 0.78 or 0.92 times the
    # padded grid.
    radius = 3
    spec = SceneSpec(kind="random-blobs", dims=(64, 64, 64), n_blobs=40, cell_size=10, seed=1)
    g = generate_scene(spec)
    padded_bytes = np.prod([n + 4 * radius for n in g.labels.shape])
    bottom_hat(g, radius)  # first-call allocations are not the fold's
    tracemalloc.start()
    try:
        bottom_hat(g, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.7 * padded_bytes


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


@pytest.mark.parametrize("dims", [(6, 6), (4, 4, 4)])
def test_touching_radius_beyond_the_grid_gives_the_whole_grid_mask(dims):
    # A radius past every axis reads the whole grid, and pads each axis by its
    # own length: at 10**6 on 6x6 a padding of k would ask for terabytes.
    rng = np.random.default_rng(len(dims))
    labels = rng.integers(0, 4, size=dims).astype(np.int32)
    whole = dims[0]  # the shift reference needs no offset longer than an axis
    got = to_semantic(InstanceLabelMap(labels), TransformConfig(k=10**6, gap_radius=1)).classes
    assert np.array_equal(got, to_semantic(InstanceLabelMap(labels),
                                           TransformConfig(k=whole, gap_radius=1)).classes)
    assert np.array_equal(got, brute_semantic(labels, whole, 1))


@pytest.mark.parametrize("dims", [(5, 3, 4), (7, 2), (3, 9)])
@pytest.mark.parametrize("k", [5, 10**6])
def test_touching_radius_past_the_shortest_axis_matches_the_reference(dims, k):
    # Unequal axes: the radius passes the shortest one, so the reference
    # shifts by offsets longer than that axis.
    rng = np.random.default_rng(sum(dims))
    labels = rng.integers(0, 4, size=dims).astype(np.int32)
    got = to_semantic(InstanceLabelMap(labels), TransformConfig(k=k, gap_radius=1)).classes
    assert np.array_equal(got, brute_semantic(labels, min(k, max(dims)), 1))


@pytest.mark.parametrize("d", [2, 3])
def test_ball_footprint_is_one_read_only_array_per_radius_and_axis_count(d):
    ball = ball_footprint(np.int64(3), d)
    assert not ball.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ball[0, 0] = True
    assert ball_footprint(3, np.int32(d)) is ball and ball_footprint(2, d) is not ball
    got = sorted(tuple(int(i) - 3 for i in idx) for idx in zip(*np.nonzero(ball)))
    assert got == sorted(ball_offsets(3, d))


@pytest.mark.parametrize("d", [2, 3])
def test_ball_footprint_holds_the_offsets_within_the_radius(d):
    for radius in range(1, 12):
        ball = ball_footprint(radius, d)
        assert ball.shape == (2 * radius + 1,) * d and ball.dtype == bool
        got = sorted(tuple(int(i) - radius for i in idx) for idx in zip(*np.nonzero(ball)))
        assert got == sorted(ball_offsets(radius, d))


def test_config_validation():
    with pytest.raises(ValueError):
        TransformConfig(k=0)
    with pytest.raises(ValueError):
        TransformConfig(gap_radius=0)
    with pytest.raises(ValueError):
        TransformConfig(mode="five-class")
    assert TransformConfig(mode=THREE_CLASS).channels == 3
    # Radii are integers when the config is made, not when the transform runs.
    for fields in ({"k": 2.5}, {"gap_radius": float("nan")}, {"gap_radius": 3.0}):
        with pytest.raises(TypeError):
            TransformConfig(**fields)
    assert type(TransformConfig(k=np.int64(2)).k) is int


@pytest.mark.parametrize("d", [2, 3])
def test_named_errors(d):
    with pytest.raises(ValueError, match=re.escape("structuring-element radius must be >= 1")):
        ball_footprint(0, d)
    for radius in (2.5, 2.0):
        with pytest.raises(TypeError):
            ball_footprint(radius, d)
    with pytest.raises(TypeError):
        ball_footprint(2, float(d))
    for axes in (0, -1):
        with pytest.raises(ValueError, match="at least 1 axis"):
            ball_footprint(1, axes)
    # bottom_hat checks its radius by the ball's rule before it pads.
    instance = InstanceLabelMap(np.ones((4,) * d, dtype=np.int32))
    for radius in (0, -1):
        with pytest.raises(ValueError, match=re.escape("structuring-element radius must be >= 1")):
            bottom_hat(instance, radius)
    with pytest.raises(TypeError):
        bottom_hat(instance, 2.5)
