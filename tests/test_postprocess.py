import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from jseg import (
    InstanceLabelMap,
    PostprocessConfig,
    ProbabilityField,
    SceneSpec,
    SemanticLabelMap,
    TransformConfig,
    generate_scene,
    instances_from_probs,
    one_hot,
    panoptic,
    resolve_gaps,
    to_instances,
    to_semantic,
)
from jseg.postprocess import FACE, FULL, _structure
from oracles import brute_instances, shift_instances


def _field(rows):
    return ProbabilityField(np.array([rows], dtype=np.float64))


def test_map_decision_on_one_hot():
    y = one_hot(SemanticLabelMap(np.array([[0, 1], [2, 3]])), 4)
    assert np.array_equal(y.argmax_classes().classes, [[0, 1], [2, 3]])


def test_map_decision_argmax_and_tie():
    z = _field([[0.2, 0.25, 0.15, 0.4], [0.5, 0.5, 0.0, 0.0]])
    decided = z.argmax_classes().classes
    assert decided[0, 0] == 3
    assert decided[0, 1] == 0  # tie goes to the lowest class


def test_resolve_gaps_map3():
    z = _field([[0.2, 0.25, 0.15, 0.4], [0.5, 0.05, 0.05, 0.4]])
    h = z.argmax_classes()
    assert np.array_equal(h.classes, [[3, 0]])
    resolved = resolve_gaps(h, z, PostprocessConfig(gap_mode="map3"))
    assert resolved.classes[0, 0] == 1  # second most likely class
    assert resolved.classes[0, 1] == 0  # untouched non-gap element


def test_resolve_gaps_without_a_config_uses_the_default():
    z = _field([[0.2, 0.25, 0.15, 0.4], [0.5, 0.05, 0.05, 0.4]])
    h = z.argmax_classes()
    assert np.array_equal(resolve_gaps(h, z, None).classes,
                          resolve_gaps(h, z, PostprocessConfig()).classes)
    assert np.array_equal(resolve_gaps(h, z).classes, [[1, 0]])


def test_resolve_gaps_background_mode():
    z = _field([[0.2, 0.25, 0.15, 0.4]])
    h = z.argmax_classes()
    resolved = resolve_gaps(h, z, PostprocessConfig(gap_mode="background"))
    assert resolved.classes[0, 0] == 0


def test_resolve_gaps_dubious_mode():
    confident = [0.04, 0.41, 0.05, 0.5]  # clear runner-up, spread 0.36 > tau
    muddled = [0.2, 0.19, 0.18, 0.43]  # near-equal first three, spread 0.01
    z = ProbabilityField(np.array([[confident, muddled]]))
    h = z.argmax_classes()
    assert np.array_equal(h.classes, [[3, 3]])
    resolved = resolve_gaps(h, z, PostprocessConfig(gap_mode="dubious", tau=0.1))
    assert resolved.classes[0, 0] == 0  # confident gap -> background
    assert resolved.classes[0, 1] == 0  # dubious -> restricted argmax = class 0
    distinct = [0.06, 0.1, 0.34, 0.5]  # spread 0.24 < tau=0.4, touching wins
    z2 = ProbabilityField(np.array([[distinct, muddled]]))
    resolved2 = resolve_gaps(z2.argmax_classes(), z2, PostprocessConfig(gap_mode="dubious", tau=0.4))
    assert resolved2.classes[0, 0] == 2


def test_to_instances_splits_touching_band():
    h = np.array(
        [
            [1, 1, 2, 2, 1, 1],
            [1, 1, 2, 2, 1, 1],
        ],
        dtype=np.int32,
    )
    instances = to_instances(SemanticLabelMap(h))
    # two components, band split between them by nearest-label growth
    assert instances.m == 2
    assert np.array_equal(
        instances.labels,
        [
            [1, 1, 1, 2, 2, 2],
            [1, 1, 1, 2, 2, 2],
        ],
    )


def test_to_instances_without_cells():
    h = SemanticLabelMap(np.full((3, 3), 2, dtype=np.int32))
    instances = to_instances(h)
    assert instances.m == 0
    assert not instances.labels.any()


def test_to_instances_rejects_gaps():
    with pytest.raises(ValueError):
        to_instances(SemanticLabelMap(np.array([[3, 0]])))


@pytest.mark.parametrize("d", [2, 3])
def test_structure_equals_ndimage_binary_structure(d):
    for connectivity, rank in ((FACE, 1), (FULL, d)):
        got = _structure(connectivity, d)
        assert got.dtype == bool
        assert np.array_equal(got, ndimage.generate_binary_structure(d, rank))


def test_to_instances_never_merges_components():
    rng = np.random.default_rng(0)
    for _ in range(30):
        classes = rng.choice([0, 1, 2], p=[0.5, 0.3, 0.2], size=(12, 12)).astype(np.int32)
        h = SemanticLabelMap(classes)
        n_components = ndimage.label(classes == 1, ndimage.generate_binary_structure(2, 1))[1]
        instances = to_instances(h)
        assert instances.m == n_components
        # label set stays contiguous 1..m
        present = np.unique(instances.labels)
        assert list(present[present > 0]) == list(range(1, instances.m + 1))


def test_full_connectivity_joins_diagonals():
    h = SemanticLabelMap(np.array([[1, 0], [0, 1]], dtype=np.int32))
    face = to_instances(h, PostprocessConfig(connectivity="face"))
    full = to_instances(h, PostprocessConfig(connectivity="full"))
    assert face.m == 2
    assert full.m == 1


def test_unreachable_touching_becomes_background():
    h = SemanticLabelMap(np.array([[2, 0, 1]], dtype=np.int32))
    instances = to_instances(h)
    assert instances.labels[0, 0] == 0
    assert instances.labels[0, 2] == 1


def test_to_instances_equals_the_element_reference_and_the_shift_loop():
    rng = np.random.default_rng(7)
    maps = [
        np.array([[1, 2, 1]], dtype=np.int32),  # a tie: the smaller label wins
        np.array([[1, 0, 0], [0, 2, 0], [0, 0, 1]], dtype=np.int32),  # a diagonal tie
        np.array([[2, 2, 0, 1, 2, 2]], dtype=np.int32),  # one band element out of reach
    ]
    for dims in ((12, 12), (9, 14), (6, 6, 6), (4, 7, 5)):
        for p_touch in (0.2, 0.5):
            for _ in range(8):
                p = [0.7 - p_touch, 0.3, p_touch]
                maps.append(rng.choice([0, 1, 2], p=p, size=dims).astype(np.int32))
    unreachable = 0
    for classes in maps:
        for connectivity in ("face", "full"):
            got = to_instances(SemanticLabelMap(classes), PostprocessConfig(connectivity=connectivity))
            assert np.array_equal(got.labels, brute_instances(classes, connectivity))
            reference = shift_instances(classes, connectivity)
            assert got.labels.dtype == reference.dtype
            assert got.labels.tobytes() == reference.tobytes()
            unreachable += int(((classes == 2) & (got.labels == 0)).any())
    assert to_instances(SemanticLabelMap(maps[0])).labels.tolist() == [[1, 1, 2]]
    full = to_instances(SemanticLabelMap(maps[1]), PostprocessConfig(connectivity="full"))
    assert full.labels.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    assert not to_instances(SemanticLabelMap(maps[1])).labels[1, 1]
    assert unreachable > 10


def _corridor(dims):
    """A one-element touching corridor that snakes through the first plane
    from a single cell at its corner: every other row is touching, joined
    at alternate ends, so absorption needs a round per corridor element."""
    classes = np.zeros(dims, np.int32)
    plane = classes.reshape((-1,) + dims[-2:])[0]
    plane[::2] = 2
    for r in range(1, plane.shape[0], 2):
        plane[r, -1 if r % 4 == 1 else 0] = 2
    plane[0, 0] = 1
    return classes


@st.composite
def _band_maps(draw):
    """2-D maps of up to 9 elements per axis or 3-D ones of up to 5, either
    drawn from a palette of classes (cells, touching and background; no
    cell; all touching) or a touching corridor."""
    d = draw(st.sampled_from([2, 3]))
    dims = draw(st.tuples(*[st.integers(1, 9 if d == 2 else 5)] * d))
    if draw(st.booleans()):
        return _corridor(dims)
    palette = draw(st.sampled_from([(0, 1, 2), (1, 2), (0, 2), (2,)]))
    return draw(hnp.arrays(np.int32, dims, elements=st.sampled_from(palette)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_band_maps())
@example(np.full((1, 7), 2, np.int32))
@example(np.zeros((3, 1, 4), np.int32))
@example(_corridor((9, 9)))
@example(_corridor((5, 4, 5)))
def test_band_rounds_equal_the_element_reference_and_the_shift_loop(classes):
    for connectivity in (FACE, FULL):
        got = to_instances(SemanticLabelMap(classes), PostprocessConfig(connectivity=connectivity)).labels
        reference = shift_instances(classes, connectivity)
        assert got.dtype == reference.dtype
        assert got.tobytes() == reference.tobytes()
        assert np.array_equal(got, brute_instances(classes, connectivity))


def test_round_trip_recovers_scene():
    spec = SceneSpec(kind="two-squares-notch", dims=(24, 16), cell_size=8, seed=0)
    g = generate_scene(spec)
    h = to_semantic(g, TransformConfig())
    rec = instances_from_probs(one_hot(h, 4))
    assert np.array_equal(rec.labels, g.labels)


def test_pipeline_determinism_bytes():
    spec = SceneSpec(kind="random-blobs", dims=(26, 24), cell_size=7, seed=3)
    g = generate_scene(spec)
    h = to_semantic(g, TransformConfig())
    y = one_hot(h, 4)
    a = instances_from_probs(y)
    b = instances_from_probs(y)
    assert a.labels.tobytes() == b.labels.tobytes()


def test_round_trip_property_2d_and_3d():
    for seed in range(30):
        spec = SceneSpec(kind="random-blobs", dims=(28, 24), cell_size=7, seed=seed, n_blobs=4)
        g = generate_scene(spec)
        h = to_semantic(g, TransformConfig())
        rec = instances_from_probs(one_hot(h, 4))
        assert panoptic(g, rec)["pq"] == 1.0
    for seed in range(6):
        spec = SceneSpec(kind="random-blobs", dims=(22, 20, 18), cell_size=6, seed=seed)
        g = generate_scene(spec)
        h = to_semantic(g, TransformConfig())
        rec = instances_from_probs(one_hot(h, 4))
        assert panoptic(g, rec)["pq"] == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        PostprocessConfig(gap_mode="blur")
    with pytest.raises(ValueError):
        PostprocessConfig(gap_mode="dubious", tau=0.0)
    with pytest.raises(ValueError):
        PostprocessConfig(connectivity="knight")


def _reference_resolve_gaps(classes, values, cfg):
    """Gap resolution over the whole grid with numpy's reductions."""
    out = classes.copy()
    gap = classes == 3
    first3 = values[..., :3]
    restricted = np.argmax(first3, axis=-1).astype(np.int32)
    if cfg.gap_mode == "map3":
        out[gap] = restricted[gap]
    elif cfg.gap_mode == "background":
        out[gap] = 0
    else:
        spread = first3.max(axis=-1) - np.median(first3, axis=-1)
        out[gap] = np.where((spread < cfg.tau)[gap], restricted[gap], 0)
    return out


def test_resolve_gaps_equals_numpy_reductions_with_ties():
    rng = np.random.default_rng(11)
    for dims in ((23, 17), (9, 8, 7)):
        for _ in range(5):
            # Quantised probabilities give exact ties in the max and the median.
            raw = rng.integers(0, 4, size=dims + (4,)).astype(np.float64)
            raw[..., 3] += rng.integers(0, 2, size=dims) * 3
            raw[raw.sum(axis=-1) == 0] = 1.0
            z = ProbabilityField(raw / raw.sum(axis=-1, keepdims=True))
            decided = z.argmax_classes()
            assert np.array_equal(decided.classes, np.argmax(z.values, axis=-1))
            assert (decided.classes == 3).any()
            for cfg in (PostprocessConfig(gap_mode="map3"),
                        PostprocessConfig(gap_mode="background"),
                        PostprocessConfig(gap_mode="dubious", tau=0.15),
                        PostprocessConfig(gap_mode="dubious", tau=0.5)):
                got = resolve_gaps(decided, z, cfg).classes
                want = _reference_resolve_gaps(decided.classes, z.values, cfg)
                assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: resolve_gaps(SemanticLabelMap(np.zeros((2, 2), np.int32)), one_hot(
            SemanticLabelMap(np.zeros((2, 3), np.int32)), 4), PostprocessConfig()),
         "semantic map and probability field shapes differ"),
        (lambda: resolve_gaps(SemanticLabelMap(np.array([[3, 0]])), _field([[0.5, 0.5], [1.0, 0.0]]),
                              PostprocessConfig()),
         "gap resolution needs at least 3 channels"),
    ],
)
def test_named_errors(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()
