import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jseg import (
    LogitField,
    PairWeights,
    ProbabilityField,
    SemanticLabelMap,
    bwm_loss,
    cross_entropy,
    dsc_loss,
    evaluate_loss,
    finite_difference_gradient,
    gradient_check,
    j_loss,
    jc_loss,
    one_hot,
    probs_to_logits,
)
from jseg.grids import softmax_values
from jseg.losses import _CORES, FD_CHUNK_ELEMENTS, _stack_totals
from oracles import pair_loop_j

LOSS_IDS = ("ce", "j", "jc", "bwm", "dsc")


def _random_one_hot(rng, dims, channels=4):
    classes = rng.integers(0, channels, size=dims).astype(np.int32)
    return one_hot(SemanticLabelMap(classes), channels)


def _field(rows):
    """Probability field from a list of per-element simplex vectors (1 x n grid)."""
    return ProbabilityField(np.array([rows], dtype=np.float64))


HAND_Y = _field([[1.0, 0.0], [0.0, 1.0]])
HAND_Z = _field([[0.6, 0.4], [0.3, 0.7]])


def test_ce_zero_at_target():
    rng = np.random.default_rng(0)
    y = _random_one_hot(rng, (4, 4))
    assert cross_entropy(y, y).total == 0.0


def test_ce_hand_value():
    y = _field([[1.0, 0.0]])
    z = _field([[0.5, 0.5]])
    assert cross_entropy(y, z).total == pytest.approx(0.6931471805599453, abs=1e-12)


def test_ce_gradient_is_z_minus_y_over_n():
    rng = np.random.default_rng(1)
    y = _random_one_hot(rng, (4, 4))
    theta = LogitField(rng.normal(size=(4, 4, 4)))
    value = cross_entropy(y, theta)
    from jseg import softmax

    z = softmax(theta).values
    assert np.allclose(value.gradient, (z - y.values) / 16.0, atol=1e-12)


def test_j_hand_value():
    # alpha_0 = 0.6, beta_01 = 0.7, and the symmetric pair: -2 log 0.65
    assert j_loss(HAND_Y, HAND_Z).total == pytest.approx(0.8615658321849085, abs=1e-9)


def test_j_zero_at_target_with_all_classes_present():
    rng = np.random.default_rng(2)
    for _ in range(20):
        y = _random_one_hot(rng, (5, 5))
        assert abs(j_loss(y, y).total) < 1e-9


def test_jc_hand_value_and_components():
    value = jc_loss(HAND_Y, HAND_Z)
    assert value.total == pytest.approx(1.2953161160372701, abs=1e-9)
    assert value.components["j"] == pytest.approx(0.8615658321849085, abs=1e-9)
    assert value.components["ce"] == pytest.approx(0.4337502838523616, abs=1e-9)


def test_jc_additivity_on_random_fields():
    rng = np.random.default_rng(3)
    for _ in range(100):
        dims = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        y = _random_one_hot(rng, dims)
        theta = LogitField(rng.normal(size=dims + (4,)))
        total = jc_loss(y, theta).total
        parts = cross_entropy(y, theta).total + j_loss(y, theta).total
        assert total == pytest.approx(parts, abs=1e-12)


def test_bwm_equals_ce_when_balanced():
    y = _field([[1, 0], [0, 1], [1, 0], [0, 1]])
    rng = np.random.default_rng(4)
    theta = LogitField(rng.normal(size=(1, 4, 2)))
    a = bwm_loss(y, theta)
    b = cross_entropy(y, theta)
    assert a.total == pytest.approx(b.total, abs=1e-12)
    assert np.allclose(a.gradient, b.gradient, atol=1e-12)


def test_bwm_zero_at_target():
    rng = np.random.default_rng(5)
    y = _random_one_hot(rng, (4, 5))
    assert bwm_loss(y, y).total == 0.0


def test_dsc_hand_value():
    y = _field([[1.0, 0.0]])
    z = _field([[0.5, 0.5]])
    value = dsc_loss(y, z)
    # d_0 = 2*0.5 / (0.25 + 1) = 0.8; class 1 absent -> dice part 0.2
    assert value.components["dice"] == pytest.approx(0.2, abs=1e-12)
    assert value.total == pytest.approx(0.6931471805599453 + 0.2, abs=1e-12)


def test_dsc_zero_at_target():
    rng = np.random.default_rng(6)
    y = _random_one_hot(rng, (5, 4))
    value = dsc_loss(y, y)
    assert value.components["dice"] == pytest.approx(0.0, abs=1e-12)
    assert value.total == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("loss_id", ["ce", "j", "jc", "bwm", "dsc"])
def test_gradients_match_finite_differences(loss_id):
    report = gradient_check(loss_id, seed=13, trials=15)
    assert report["grad_max_rel_err"] < 1e-4


def test_gradient_check_covers_2d_and_3d():
    # the shape cycle includes 3-D grids; a direct 3-D check for good measure
    rng = np.random.default_rng(7)
    y = _random_one_hot(rng, (3, 3, 3))
    theta = rng.normal(size=(3, 3, 3, 4))
    analytic = jc_loss(y, LogitField(theta)).gradient
    w = PairWeights.default(4)
    numeric = finite_difference_gradient(_stack_totals("jc", y.values, w), theta)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    assert (np.abs(analytic - numeric) / scale).max() < 1e-4


def test_fast_forward_matches_public_api():
    rng = np.random.default_rng(8)
    y = _random_one_hot(rng, (4, 4))
    theta = rng.normal(size=(4, 4, 4))
    w = PairWeights.default(4)
    for loss_id in ("ce", "j", "jc", "bwm", "dsc"):
        fast = _stack_totals(loss_id, y.values, w)(theta[None])[0]
        full = evaluate_loss(loss_id, y, LogitField(theta), w).total
        assert fast == pytest.approx(full, abs=0)


def test_lambda_scaling_scales_j_exactly():
    rng = np.random.default_rng(9)
    y = _random_one_hot(rng, (4, 4))
    theta = LogitField(rng.normal(size=(4, 4, 4)))
    base = j_loss(y, theta, PairWeights.default(4))
    c = 3.7
    scaled = j_loss(y, theta, PairWeights(c * PairWeights.default(4).matrix))
    assert scaled.total == pytest.approx(c * base.total, rel=1e-15)
    assert np.allclose(scaled.gradient, c * base.gradient, rtol=1e-15, atol=0)


def test_diagonal_weights_change_nothing():
    rng = np.random.default_rng(10)
    y = _random_one_hot(rng, (4, 4))
    theta = LogitField(rng.normal(size=(4, 4, 4)))
    base = PairWeights.default(4).matrix
    spiked = base + 100.0 * np.eye(4)
    a = j_loss(y, theta, PairWeights(base))
    b = j_loss(y, theta, PairWeights(spiked))
    assert a.total == b.total
    assert np.array_equal(a.gradient, b.gradient)


def test_j_invariant_under_class_relabeling():
    rng = np.random.default_rng(11)
    y = _random_one_hot(rng, (5, 4))
    theta = rng.normal(size=(5, 4, 4))
    lam = rng.random((4, 4))
    np.fill_diagonal(lam, 0.0)
    base = j_loss(y, LogitField(theta), PairWeights(lam)).total
    perm = rng.permutation(4)
    y_p = ProbabilityField(y.values[..., perm])
    theta_p = LogitField(theta[..., perm])
    lam_p = lam[np.ix_(perm, perm)]
    assert j_loss(y_p, theta_p, PairWeights(lam_p)).total == pytest.approx(base, rel=1e-12)


def test_absent_class_is_safe_and_contributes_nothing():
    rng = np.random.default_rng(12)
    classes = rng.integers(0, 3, size=(4, 4)).astype(np.int32)  # class 3 absent
    y = one_hot(SemanticLabelMap(classes), 4)
    theta = LogitField(rng.normal(size=(4, 4, 4)))
    for fn in (cross_entropy, j_loss, jc_loss, bwm_loss, dsc_loss):
        value = fn(y, theta)
        assert np.isfinite(value.total)
        assert np.all(np.isfinite(value.gradient))


def test_losses_nonnegative_on_random_fields():
    rng = np.random.default_rng(13)
    for _ in range(50):
        y = _random_one_hot(rng, (4, 4))
        theta = LogitField(rng.normal(size=(4, 4, 4)))
        for loss_id in ("ce", "j", "jc", "bwm", "dsc"):
            assert evaluate_loss(loss_id, y, theta).total >= 0.0


def test_probability_input_yields_no_gradient():
    rng = np.random.default_rng(14)
    y = _random_one_hot(rng, (3, 3))
    value = jc_loss(y, y)
    assert value.gradient is None
    with pytest.raises(ValueError):
        value.grad_norm


def test_shape_mismatch_rejected():
    rng = np.random.default_rng(15)
    y = _random_one_hot(rng, (3, 3))
    z = _random_one_hot(rng, (3, 4))
    for fn in (cross_entropy, j_loss, jc_loss, bwm_loss, dsc_loss):
        with pytest.raises(ValueError):
            fn(y, z)


def test_target_must_be_one_hot():
    soft = ProbabilityField(np.full((2, 2, 4), 0.25))
    with pytest.raises(ValueError):
        cross_entropy(soft, soft)


def test_logits_to_probs_equivalence():
    # evaluating through log-probabilities reproduces the probability value
    value_probs = j_loss(HAND_Y, HAND_Z).total
    value_logits = j_loss(HAND_Y, probs_to_logits(HAND_Z)).total
    assert value_logits == pytest.approx(value_probs, rel=1e-12)


@pytest.mark.parametrize("dims", [(7, 5), (4, 3, 5)])
def test_j_core_matches_the_pair_loop_oracle(dims):
    rng = np.random.default_rng(16)
    for present in ([0, 1, 2, 3], [0, 2, 3], [1, 3]):
        classes = rng.choice(present, size=dims).astype(np.int32)
        y = one_hot(SemanticLabelMap(classes), 4).values
        z = softmax_values(rng.normal(0.0, 2.0, size=dims + (4,)))
        lam = rng.random((4, 4)) * (rng.random((4, 4)) > 0.2)
        want, want_dz = pair_loop_j(y, z, lam)
        parts, dz = _CORES["j"](y.reshape(-1, 4), z.reshape(-1, 4), PairWeights(lam))
        assert parts["j"] == pytest.approx(want, rel=1e-12, abs=0)
        np.testing.assert_allclose(dz.reshape(z.shape), want_dz, rtol=1e-12, atol=0)


def test_j_gradient_stays_finite_for_a_weight_near_the_float_limit():
    rng = np.random.default_rng(19)
    y = _random_one_hot(rng, (6, 6))
    lam = np.zeros((4, 4))
    lam[1, 0] = 1e308
    value = j_loss(y, LogitField(rng.normal(size=(6, 6, 4))), PairWeights(lam))
    assert np.isfinite(value.total)
    assert np.all(np.isfinite(value.gradient))


@pytest.mark.parametrize("loss_id", LOSS_IDS)
def test_batched_cores_equal_per_item_cores(loss_id):
    rng = np.random.default_rng(17)
    y = _random_one_hot(rng, (5, 3)).values.reshape(-1, 4)
    z = softmax_values(rng.normal(size=(3, 15, 4)))
    weights = PairWeights(rng.random((4, 4)))
    parts, dz = _CORES[loss_id](y, z, weights)
    for b in range(len(z)):
        item_parts, item_dz = _CORES[loss_id](y, z[b], weights)
        assert {name: value[b] for name, value in parts.items()} == item_parts
        assert np.array_equal(dz[b], item_dz)


def test_chunked_finite_differences_match_a_per_entry_loop():
    rng = np.random.default_rng(18)
    y = _random_one_hot(rng, (10, 10))
    theta = rng.normal(size=(10, 10, 4))
    fn = _stack_totals("jc", y.values, PairWeights.default(4))
    stacks = []

    def recorded(stack):
        stacks.append(stack.size)
        return fn(stack)

    chunked = finite_difference_gradient(recorded, theta, step=1e-5)
    assert len(stacks) > 1 and max(stacks) <= FD_CHUNK_ELEMENTS
    looped = np.empty(theta.size)
    for idx in range(theta.size):
        hi, lo = theta.copy(), theta.copy()
        hi.flat[idx] += 1e-5
        lo.flat[idx] -= 1e-5
        looped[idx] = (fn(hi[None])[0] - fn(lo[None])[0]) / 2e-5
    assert np.array_equal(chunked, looped.reshape(theta.shape))


@st.composite
def _target_and_logits(draw, channels=4):
    dims = draw(st.sampled_from([(1, 3), (3, 4), (2, 2, 3)]))
    classes = draw(hnp.arrays(np.int32, dims, elements=st.integers(0, channels - 1)))
    # Logits within +-5 keep every probability far above the LOG_EPS clamp.
    theta = draw(hnp.arrays(np.float64, dims + (channels,), elements=st.floats(-5, 5)))
    return one_hot(SemanticLabelMap(classes), channels), theta


# Derandomized, so every run of the suite draws the same examples.
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(_target_and_logits(), st.data())
def test_losses_are_invariant_to_a_per_element_logit_shift(case, data):
    y, theta = case
    shift = data.draw(hnp.arrays(np.float64, theta.shape[:-1], elements=st.floats(-50, 50)))
    for loss_id in LOSS_IDS:
        base = evaluate_loss(loss_id, y, LogitField(theta))
        moved = evaluate_loss(loss_id, y, LogitField(theta + shift[..., None]))
        assert moved.total == pytest.approx(base.total, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(moved.gradient, base.gradient, rtol=1e-7, atol=1e-12)


@_PROPERTY
@given(_target_and_logits(), st.permutations(range(4)), st.data())
def test_losses_are_equivariant_under_a_class_permutation(case, perm, data):
    y, theta = case
    lam = data.draw(hnp.arrays(np.float64, (4, 4), elements=st.floats(0, 3)))
    perm = np.array(perm)
    y_p = ProbabilityField(y.values[..., perm])
    theta_p = LogitField(theta[..., perm])
    lam_p = PairWeights(lam[np.ix_(perm, perm)])
    for loss_id in LOSS_IDS:
        base = evaluate_loss(loss_id, y, LogitField(theta), PairWeights(lam))
        permuted = evaluate_loss(loss_id, y_p, theta_p, lam_p)
        assert permuted.total == pytest.approx(base.total, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(
            permuted.gradient, base.gradient[..., perm], rtol=1e-9, atol=1e-15
        )


@_PROPERTY
@given(_target_and_logits())
def test_jc_of_the_target_against_itself_is_zero(case):
    y, _ = case
    assert jc_loss(y, y).total == pytest.approx(0.0, abs=1e-12)


@_PROPERTY
@given(_target_and_logits())
def test_logit_gradients_sum_to_zero_over_the_channels(case):
    y, theta = case
    for loss_id in LOSS_IDS:
        gradient = evaluate_loss(loss_id, y, LogitField(theta)).gradient
        # Round-off of dL/dz terms far larger than the pulled-back gradient.
        assert np.abs(gradient.sum(axis=-1)).max() <= 1e-12
