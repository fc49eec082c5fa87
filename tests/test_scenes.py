import hashlib
import re

import numpy as np
import pytest

from jseg import SceneSpec, generate_scene
from oracles import chebyshev_offsets, face_offsets, full_grid_blobs


def _spec(**kw):
    base = dict(kind="two-squares-notch", dims=(20, 10), cell_size=8, notch_width=1,
                notch_length=4, seed=0)
    base.update(kw)
    return SceneSpec(**base)


def test_two_squares_notch_counts():
    g = generate_scene(_spec())
    labels = g.labels
    assert (labels > 0).sum() == 2 * 64 - 4
    assert sorted(np.unique(labels)) == [0, 1, 2]
    assert g.m == 2


def test_two_squares_share_four_touching_elements():
    g = generate_scene(_spec())
    labels = g.labels
    # count face-adjacent (1,2) contacts along the shared side
    contacts = 0
    for off in face_offsets(2):
        a = labels[max(0, off[0]) : labels.shape[0] + min(0, off[0]),
                   max(0, off[1]) : labels.shape[1] + min(0, off[1])]
        b = labels[max(0, -off[0]) : labels.shape[0] + min(0, -off[0]),
                   max(0, -off[1]) : labels.shape[1] + min(0, -off[1])]
        contacts += int(np.sum((a == 1) & (b == 2)))
    assert contacts == 4  # notch removed 4 of the 8 side elements


def test_notch_carves_requested_area():
    g0 = generate_scene(_spec(notch_length=0))
    g2 = generate_scene(_spec(notch_width=2, notch_length=3, dims=(24, 12)))
    assert (g0.labels > 0).sum() == 128
    assert (g2.labels > 0).sum() == 128 - 6


def test_scene_is_pure_function_of_spec():
    a = generate_scene(_spec(kind="random-blobs", dims=(30, 25), seed=42))
    b = generate_scene(_spec(kind="random-blobs", dims=(30, 25), seed=42))
    assert np.array_equal(a.labels, b.labels)
    assert a.labels.tobytes() == b.labels.tobytes()


def test_blobs_have_distinct_separated_labels():
    for seed in range(20):
        spec = _spec(kind="random-blobs", dims=(32, 28), cell_size=7, seed=seed, n_blobs=3)
        labels = generate_scene(spec).labels
        present = sorted(np.unique(labels))
        assert present == [0, 1, 2, 3]
        # brute-force adjacency scan: no two labels may share a face or corner
        for off in chebyshev_offsets(1, 2):
            src = labels[max(0, off[0]) : labels.shape[0] + min(0, off[0]),
                         max(0, off[1]) : labels.shape[1] + min(0, off[1])]
            dst = labels[max(0, -off[0]) : labels.shape[0] + min(0, -off[0]),
                         max(0, -off[1]) : labels.shape[1] + min(0, -off[1])]
            both = (src > 0) & (dst > 0)
            assert np.all(src[both] == dst[both])


def test_blobs_3d():
    labels = generate_scene(
        _spec(kind="random-blobs", dims=(22, 20, 18), cell_size=6, seed=5, n_blobs=3)
    ).labels
    assert labels.ndim == 3
    assert sorted(np.unique(labels)) == [0, 1, 2, 3]


def test_cells_must_fit_inside_grid():
    with pytest.raises(ValueError):
        generate_scene(_spec(dims=(15, 10)))  # needs 16 along the first axis
    with pytest.raises(ValueError):
        generate_scene(_spec(dims=(20, 7)))


def test_spec_invariants():
    with pytest.raises(ValueError):
        _spec(notch_width=0)
    with pytest.raises(ValueError):
        _spec(notch_length=9)
    with pytest.raises(ValueError):
        _spec(kind="hexagons")
    # Sizes and counts are integers, checked before any range is.
    for fields in ({"cell_size": 2.5}, {"notch_width": 1.5}, {"notch_length": 2.0}):
        with pytest.raises(TypeError):
            SceneSpec(kind="two-squares-notch", dims=(24, 16), **fields)
    with pytest.raises(TypeError):
        SceneSpec(kind="random-blobs", dims=(24, 16), n_blobs=2.5)
    # A seed is an integer, checked when the spec is made.
    for kind in ("two-squares-notch", "random-blobs"):
        with pytest.raises(TypeError):
            SceneSpec(kind=kind, dims=(24, 16), seed=2.5)
    # Each kind checks the ranges of only the fields it reads: a notch
    # longer than the cell is refused, as are no blobs and a negative seed
    # for the blobs, but a blob scene's cell may be shorter than the
    # default notch, and a notch scene reads no blob count and no seed.
    with pytest.raises(ValueError, match="notch length"):
        _spec(cell_size=3, notch_length=4)
    with pytest.raises(ValueError, match="blob"):
        SceneSpec(kind="random-blobs", dims=(24, 16), n_blobs=0)
    with pytest.raises(ValueError, match="seed"):
        SceneSpec(kind="random-blobs", dims=(24, 16), seed=-1)
    assert np.array_equal(generate_scene(_spec(n_blobs=0, seed=-1)).labels,
                          generate_scene(_spec()).labels)
    for cell_size in (1, 2, 3):
        spec = SceneSpec(kind="random-blobs", dims=(64, 64), cell_size=cell_size, seed=cell_size)
        want = full_grid_blobs((64, 64), spec.n_blobs, cell_size, cell_size)
        assert generate_scene(spec).labels.tobytes() == want.tobytes()


def _blob_specs():
    """70 random-blobs specs over 2-D and 3-D grids, including cells of
    size 1 and 2, crowded grids, and radii that cannot fit along an axis."""
    rng = np.random.default_rng(2024)
    specs = []
    for i in range(70):
        d = 2 + i % 2
        dims = tuple(int(n) for n in rng.integers(6, 64 if d == 2 else 24, size=d))
        specs.append((dims, int(rng.integers(1, 7)), int(rng.integers(1, 11)),
                      int(rng.integers(0, 2**31))))
    return specs


def _blobs(dims, n_blobs, cell_size, seed):
    spec = SceneSpec(kind="random-blobs", dims=dims, cell_size=cell_size, seed=seed,
                     n_blobs=n_blobs)
    return generate_scene(spec).labels


def test_blobs_equal_the_full_grid_reference_byte_for_byte():
    placed = refused = 0
    # A 9x9 grid holds one disc of diameter ~8 and no second one.
    extra = [((9, 9), 2, 8, 0), ((512, 512), 200, 16, 901)]
    for dims, n_blobs, cell_size, seed in _blob_specs() + extra:
        try:
            want = full_grid_blobs(dims, n_blobs, cell_size, seed)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                _blobs(dims, n_blobs, cell_size, seed)
            assert str(info.value) == str(exc)
            refused += 1
            continue
        got = _blobs(dims, n_blobs, cell_size, seed)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        placed += 1
    assert placed >= 50 and refused >= 1


@pytest.mark.parametrize(
    "dims, n_blobs, cell_size, seed, digest",
    [
        ((512, 512), 200, 16, 901, "baf8e0ec5b60e64f"),
        ((64, 64, 64), 40, 10, 901, "179c6714174ccb27"),
        ((30, 26), 3, 8, 7, "e55e324364779c34"),
        ((22, 20, 18), 3, 6, 5, "94823a5fe149f90e"),
    ],
)
def test_blob_scenes_are_pinned(dims, n_blobs, cell_size, seed, digest):
    labels = _blobs(dims, n_blobs, cell_size, seed)
    assert hashlib.sha256(labels.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"cell_size": 0}, "cell_size must be >= 1"),
        ({"n_blobs": 0}, "need at least one blob"),
    ],
)
def test_named_errors(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SceneSpec(kind="random-blobs", dims=(20, 20), **fields)


@pytest.mark.parametrize("dims", [(24.7, 16), ("24", "16")], ids=["float", "str"])
def test_dims_must_be_integers(dims):
    # int() would truncate 24.7 to 24 and parse "24".
    with pytest.raises(TypeError):
        SceneSpec(kind="two-squares-notch", dims=dims)


def test_dims_take_numpy_integers():
    spec = SceneSpec(kind="two-squares-notch", dims=(np.int64(24), np.uint8(16)))
    assert spec.dims == (24, 16) and all(type(n) is int for n in spec.dims)
    assert generate_scene(spec).labels.shape == (24, 16)
