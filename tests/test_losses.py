import re
import tracemalloc

import numpy as np
import pytest

import jseg.losses
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jseg import (
    LogitField,
    LossValue,
    PairWeights,
    ProbabilityField,
    SemanticLabelMap,
    evaluate_loss,
    finite_difference_gradient,
    gradient_check,
    landscape_scan,
    one_hot,
    probs_to_logits,
)
from jseg._util import l2_norm
from jseg.grids import BoundSoftmax, planar
from jseg.losses import (_CORES, CLOSED_FORM_RTOL, FD_CHUNK_ELEMENTS, LOG_EPS, _build_core,
                         _stack_totals)
from oracles import default_order_pull_back, default_order_softmax, dense_core, pair_loop_j

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
    assert evaluate_loss("ce", y, y).total == 0.0


def test_ce_hand_value():
    y = _field([[1.0, 0.0]])
    z = _field([[0.5, 0.5]])
    assert evaluate_loss("ce", y, z).total == pytest.approx(0.6931471805599453, abs=1e-12)


def test_ce_gradient_is_z_minus_y_over_n():
    rng = np.random.default_rng(1)
    y = _random_one_hot(rng, (4, 4))
    theta = LogitField(rng.normal(size=(4, 4, 4)))
    value = evaluate_loss("ce", y, theta)
    from jseg import softmax

    z = softmax(theta).values
    assert np.allclose(value.gradient, (z - y.values) / 16.0, atol=1e-12)


def test_j_hand_value():
    # alpha_0 = 0.6, beta_01 = 0.7, and the symmetric pair: -2 log 0.65
    assert evaluate_loss("j", HAND_Y, HAND_Z).total == pytest.approx(0.8615658321849085, abs=1e-9)


def test_j_zero_at_target_with_all_classes_present():
    rng = np.random.default_rng(2)
    for _ in range(20):
        y = _random_one_hot(rng, (5, 5))
        assert abs(evaluate_loss("j", y, y).total) < 1e-9


def test_jc_hand_value_and_components():
    value = evaluate_loss("jc", HAND_Y, HAND_Z)
    assert value.total == pytest.approx(1.2953161160372701, abs=1e-9)
    assert value.components["j"] == pytest.approx(0.8615658321849085, abs=1e-9)
    assert value.components["ce"] == pytest.approx(0.4337502838523616, abs=1e-9)


def test_jc_additivity_on_random_fields():
    rng = np.random.default_rng(3)
    for _ in range(100):
        dims = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        y = _random_one_hot(rng, dims)
        theta = LogitField(rng.normal(size=dims + (4,)))
        total = evaluate_loss("jc", y, theta).total
        parts = evaluate_loss("ce", y, theta).total + evaluate_loss("j", y, theta).total
        assert total == pytest.approx(parts, abs=1e-12)


def test_jc_core_gives_the_bits_of_j_plus_ce():
    # JC hands on J's dz and CE's coefficient, so its logit gradient is the
    # sum of the two pulled back apart.
    rng = np.random.default_rng(27)
    for dims in ((4, 4), (6, 5), (3, 3, 3)):
        y = planar(_random_one_hot(rng, dims).values)
        softmax = BoundSoftmax(rng.normal(size=y.shape), y)
        z = softmax()
        parts, dz, c = _build_core("jc", y, None)(z)
        ce_parts, ce_dz, ce_c = _build_core("ce", y, None)(z)
        j_parts, j_dz, j_c = _build_core("j", y, None)(z)
        assert parts == {**ce_parts, **j_parts}
        assert ce_dz is None and j_c is None
        want_c = dense_core("ce", y, None)(z)[2]
        assert dz.tobytes() == j_dz.tobytes() and _same_c(c, want_c) and _same_c(ce_c, want_c)
        apart = softmax.pull_back(j_dz).copy() + softmax.pull_back(None, c)  # one pull-back array
        assert softmax.pull_back(dz, c).tobytes() == apart.tobytes()


def test_loss_value_total_is_the_sum_of_its_components():
    assert LossValue({"ce": 0.5, "j": 0.25}).total == 0.75
    rng = np.random.default_rng(28)
    value = evaluate_loss("dsc", _random_one_hot(rng, (5, 4)), LogitField(rng.normal(size=(5, 4, 4))))
    assert value.total == value.components["ce"] + value.components["dice"]


def test_bwm_equals_ce_when_balanced():
    y = _field([[1, 0], [0, 1], [1, 0], [0, 1]])
    rng = np.random.default_rng(4)
    theta = LogitField(rng.normal(size=(1, 4, 2)))
    a = evaluate_loss("bwm", y, theta)
    b = evaluate_loss("ce", y, theta)
    assert a.total == pytest.approx(b.total, abs=1e-12)
    assert np.allclose(a.gradient, b.gradient, atol=1e-12)


def test_bwm_zero_at_target():
    rng = np.random.default_rng(5)
    y = _random_one_hot(rng, (4, 5))
    assert evaluate_loss("bwm", y, y).total == 0.0


def test_dsc_hand_value():
    y = _field([[1.0, 0.0]])
    z = _field([[0.5, 0.5]])
    value = evaluate_loss("dsc", y, z)
    # d_0 = 2*0.5 / (0.25 + 1) = 0.8; class 1 absent -> dice part 0.2
    assert value.components["dice"] == pytest.approx(0.2, abs=1e-12)
    assert value.total == pytest.approx(0.6931471805599453 + 0.2, abs=1e-12)


def test_dsc_zero_at_target():
    rng = np.random.default_rng(6)
    y = _random_one_hot(rng, (5, 4))
    value = evaluate_loss("dsc", y, y)
    assert value.components["dice"] == pytest.approx(0.0, abs=1e-12)
    assert value.total == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("loss_id", ["ce", "j", "jc", "bwm", "dsc"])
def test_gradients_match_finite_differences(loss_id):
    report = gradient_check(loss_id, seed=13, trials=15)
    assert report["grad_max_rel_err"] < 1e-4


@pytest.mark.parametrize(
    "settings", [{"trials": 0}, {"trials": -3}, {"step": np.nan}, {"step": 0.0}, {"step": np.inf}]
)
def test_gradient_check_rejects_settings_it_cannot_run(settings):
    with pytest.raises(ValueError, match="trials|step"):
        gradient_check("ce", **settings)


@pytest.mark.parametrize("step", [np.nan, 0.0, -1e-5, np.inf])
def test_finite_differences_reject_a_step_that_is_not_positive_and_finite(step):
    with pytest.raises(ValueError, match="step"):
        finite_difference_gradient(lambda stack: stack.sum(axis=(1, 2)), np.zeros((2, 2)), step)


def test_gradient_check_reports_a_nan_error(monkeypatch):
    real = jseg.losses.finite_difference_gradient
    calls = []

    def nan_first(fn, theta, step):
        calls.append(step)
        numeric = real(fn, theta, step)
        return np.full_like(numeric, np.nan) if len(calls) == 1 else numeric

    monkeypatch.setattr(jseg.losses, "finite_difference_gradient", nan_first)
    report = gradient_check("ce", trials=3)
    assert len(calls) == 3
    assert np.isnan(report["grad_max_rel_err"]) and np.isnan(report["grad_mean_rel_err"])


def test_gradient_check_covers_2d_and_3d():
    # the shape cycle includes 3-D grids; a direct 3-D check for good measure
    rng = np.random.default_rng(7)
    y = _random_one_hot(rng, (3, 3, 3))
    theta = rng.normal(size=(3, 3, 3, 4))
    analytic = planar(evaluate_loss("jc", y, LogitField(theta)).gradient)
    w = PairWeights.default(4)
    totals = _stack_totals(_build_core("jc", planar(y.values), w))
    numeric = finite_difference_gradient(totals, planar(theta))
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    assert (np.abs(analytic - numeric) / scale).max() < 1e-4


def test_fast_forward_matches_public_api():
    rng = np.random.default_rng(8)
    y = _random_one_hot(rng, (4, 4))
    theta = rng.normal(size=(4, 4, 4))
    w = PairWeights.default(4)
    for loss_id in ("ce", "j", "jc", "bwm", "dsc"):
        fast = _stack_totals(_build_core(loss_id, planar(y.values), w))(planar(theta)[None])[0]
        full = evaluate_loss(loss_id, y, LogitField(theta), w).total
        assert fast == pytest.approx(full, abs=0)


def test_lambda_scaling_scales_j_exactly():
    rng = np.random.default_rng(9)
    y = _random_one_hot(rng, (4, 4))
    theta = LogitField(rng.normal(size=(4, 4, 4)))
    base = evaluate_loss("j", y, theta, PairWeights.default(4))
    c = 3.7
    scaled = evaluate_loss("j", y, theta, PairWeights(c * PairWeights.default(4).matrix))
    assert scaled.total == pytest.approx(c * base.total, rel=1e-15)
    assert np.allclose(scaled.gradient, c * base.gradient, rtol=1e-15, atol=0)


def test_diagonal_weights_change_nothing():
    rng = np.random.default_rng(10)
    y = _random_one_hot(rng, (4, 4))
    theta = LogitField(rng.normal(size=(4, 4, 4)))
    base = PairWeights.default(4).matrix
    spiked = base + 100.0 * np.eye(4)
    a = evaluate_loss("j", y, theta, PairWeights(base))
    b = evaluate_loss("j", y, theta, PairWeights(spiked))
    assert a.total == b.total
    assert np.array_equal(a.gradient, b.gradient)


def test_j_invariant_under_class_relabeling():
    rng = np.random.default_rng(11)
    y = _random_one_hot(rng, (5, 4))
    theta = rng.normal(size=(5, 4, 4))
    lam = rng.random((4, 4))
    np.fill_diagonal(lam, 0.0)
    base = evaluate_loss("j", y, LogitField(theta), PairWeights(lam)).total
    perm = rng.permutation(4)
    y_p = ProbabilityField(y.values[..., perm])
    theta_p = LogitField(theta[..., perm])
    lam_p = lam[np.ix_(perm, perm)]
    permuted = evaluate_loss("j", y_p, theta_p, PairWeights(lam_p)).total
    assert permuted == pytest.approx(base, rel=1e-12)


def test_absent_class_is_safe_and_contributes_nothing():
    rng = np.random.default_rng(12)
    classes = rng.integers(0, 3, size=(4, 4)).astype(np.int32)  # class 3 absent
    y = one_hot(SemanticLabelMap(classes), 4)
    theta = LogitField(rng.normal(size=(4, 4, 4)))
    for loss_id in LOSS_IDS:
        value = evaluate_loss(loss_id, y, theta)
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
    value = evaluate_loss("jc", y, y)
    assert value.gradient is None
    with pytest.raises(ValueError):
        value.grad_norm


def test_shape_mismatch_rejected():
    rng = np.random.default_rng(15)
    y = _random_one_hot(rng, (3, 3))
    z = _random_one_hot(rng, (3, 4))
    for loss_id in LOSS_IDS:
        with pytest.raises(ValueError):
            evaluate_loss(loss_id, y, z)


def test_target_must_be_one_hot():
    soft = ProbabilityField(np.full((2, 2, 4), 0.25))
    with pytest.raises(ValueError):
        evaluate_loss("ce", soft, soft)


def test_logits_to_probs_equivalence():
    # evaluating through log-probabilities reproduces the probability value
    value_probs = evaluate_loss("j", HAND_Y, HAND_Z).total
    value_logits = evaluate_loss("j", HAND_Y, probs_to_logits(HAND_Z)).total
    assert value_logits == pytest.approx(value_probs, rel=1e-12)


@pytest.mark.parametrize("dims", [(7, 5), (4, 3, 5)])
def test_j_core_matches_the_pair_loop_oracle(dims):
    rng = np.random.default_rng(16)
    for present in ([0, 1, 2, 3], [0, 2, 3], [1, 3]):
        classes = rng.choice(present, size=dims).astype(np.int32)
        y = one_hot(SemanticLabelMap(classes), 4).values
        z = BoundSoftmax(rng.normal(0.0, 2.0, size=(4, y[..., 0].size)))()
        lam = rng.random((4, 4)) * (rng.random((4, 4)) > 0.2)
        want, want_dz = pair_loop_j(y, z.T.reshape(y.shape), lam)
        parts, dz, _ = _CORES["j"](planar(y), PairWeights(lam))(z)
        assert parts["j"] == pytest.approx(want, rel=1e-12, abs=0)
        np.testing.assert_allclose(dz, planar(want_dz), rtol=1e-12, atol=0)


def test_j_gradient_stays_finite_for_a_weight_near_the_float_limit():
    rng = np.random.default_rng(19)
    y = _random_one_hot(rng, (6, 6))
    lam = np.zeros((4, 4))
    lam[1, 0] = 1e308
    value = evaluate_loss("j", y, LogitField(rng.normal(size=(6, 6, 4))), PairWeights(lam))
    assert np.isfinite(value.total)
    assert np.all(np.isfinite(value.gradient))


@pytest.mark.parametrize("loss_id", LOSS_IDS)
def test_batched_cores_equal_per_item_cores(loss_id):
    # A stack gets its items' values and no gradient.
    rng = np.random.default_rng(17)
    y = planar(_random_one_hot(rng, (5, 3)).values)
    z = BoundSoftmax(rng.normal(size=(3, 4, 15)))()
    weights = PairWeights(rng.random((4, 4)))
    core = _CORES[loss_id](y, weights)
    parts, dz, c = core(z)
    assert dz is None and c is None
    for b in range(len(z)):
        item_parts = core(z[b])[0]
        assert parts.keys() == item_parts.keys()
        for name, value in item_parts.items():
            assert _same_bits(parts[name][b], value)


@pytest.mark.parametrize("loss_id", LOSS_IDS)
def test_batched_cores_equal_per_item_cores_at_clamped_absent_and_nan_entries(loss_id):
    # Class 3 is absent (bwm weight 0, no J pair with it) and the pair (0, 1)
    # weighs 0.  Items 1 to 3 hold target entries of exactly 0 and exactly
    # LOG_EPS, item 4 a NaN at one target entry; items 0 and 5 clamp nowhere.
    rng = np.random.default_rng(23)
    classes = rng.integers(0, 3, size=(5, 3)).astype(np.int32)
    assert sorted(np.unique(classes)) == [0, 1, 2]
    y = planar(one_hot(SemanticLabelMap(classes), 4).values)
    targets, elements = np.argmax(y, axis=0), np.arange(y.shape[-1])
    z = BoundSoftmax(rng.normal(size=(6, 4, 15)))()
    z[1, targets[:4], elements[:4]] = 0.0
    z[2, targets[3:9], elements[3:9]] = LOG_EPS
    z[3, targets[::2], elements[::2]] = np.resize([0.0, LOG_EPS], 8)
    z[4, targets[7], 7] = np.nan
    lam = rng.random((4, 4))
    lam[0, 1] = 0.0
    core = _CORES[loss_id](y, PairWeights(lam))
    parts = core(z)[0]
    unclamped = core(z[[0, 5]])[0]  # a stack that takes no clamp
    for b in range(len(z)):
        for name, value in core(z[b])[0].items():
            if b == 4:
                assert np.isnan(parts[name][b]) and np.isnan(value)
            else:
                assert _same_bits(parts[name][b], value)
    for name, values in unclamped.items():
        assert _same_bits(values, parts[name][[0, 5]])


@pytest.mark.parametrize("dims", [(5, 3), (3, 4, 2)], ids=["2d", "3d"])
@pytest.mark.parametrize("loss_id", LOSS_IDS)
def test_value_path_equals_the_full_cores_parts(loss_id, dims):
    # Probability input, which runs as a stack of one, gives the bits of
    # the field's components.
    rng = np.random.default_rng(21)
    y = _random_one_hot(rng, dims)
    z = BoundSoftmax(rng.normal(size=(4, y.values[..., 0].size)))()
    weights = PairWeights(rng.random((4, 4)))
    probs = ProbabilityField(z.T.reshape(y.values.shape))
    components = evaluate_loss(loss_id, y, probs, weights).components
    parts = _build_core(loss_id, planar(y.values), weights)(z)[0]
    assert components.keys() == parts.keys()
    for name, value in parts.items():
        assert _same_bits(np.float64(components[name]), value)


def _logit_step(core, theta, y):
    """A training step on the planar logit array ``theta``, as ``train``
    runs it: ``core`` between the softmax and the pull-back of one
    :class:`BoundSoftmax` of the logits and the target ``y``.  Each call
    returns ``(parts, dL/dtheta, z)``, written into the same arrays."""
    softmax = BoundSoftmax(theta, y)

    def step():
        z = softmax()
        parts, dz, c = core(z)
        return parts, softmax.pull_back(dz, c), z

    return step


@pytest.mark.parametrize("loss_id", LOSS_IDS)
def test_steps_in_a_workspace_equal_steps_on_fresh_arrays(loss_id):
    rng = np.random.default_rng(22)
    y = planar(_random_one_hot(rng, (7, 6, 3)).values)
    weights = PairWeights(rng.random((4, 4)))
    theta = np.empty(y.shape)
    step = _logit_step(_build_core(loss_id, y, weights), theta, y)
    squares = np.empty(theta.shape)
    for _ in range(3):  # the same arrays serve every step
        theta[...] = rng.normal(0.0, 2.0, size=theta.shape)
        parts, gradient, _ = step()
        fresh = _logit_step(_build_core(loss_id, y, weights), theta.copy(), y)
        want_parts, want_gradient, _ = fresh()
        assert parts == want_parts
        assert np.array_equal(gradient, want_gradient)
        assert l2_norm(gradient, squares) == l2_norm(want_gradient)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _same_c(c, want):
    """CE's coefficient ``c``, a float that every element shares or a lane,
    against the dense body's lane ``want``: the float broadcast over the
    lane, bit for bit."""
    return _same_bits(np.broadcast_to(c, want.shape) if type(c) is float else c, want)


@pytest.mark.parametrize(
    "shape",
    [(4, 63), (4, 48 * 48), (4, 12 * 14 * 13), (3, 4, 32 * 32), (2, 4, 10 * 12 * 10)],
    ids=["small2d", "2d", "3d", "stack2d", "stack3d"],
)
def test_softmax_and_pull_back_keep_the_default_order_bits(shape):
    # One reduce over the channel axis per fold and lane operations one plane
    # at a time give every element the same ufunc on the same operands as the
    # default order over that axis, and write C-order arrays.  The fields lie
    # on both sides of numpy's ufunc buffer, and run alone and in stacks.
    # The pull-back takes a dz, a CE coefficient (a lane or a float) or both.
    rng = np.random.default_rng(23)
    theta = np.empty(shape)
    y = np.eye(shape[-2])[rng.integers(0, shape[-2], size=shape[-1])].T.copy()
    softmax = BoundSoftmax(theta, y)
    for _ in range(2):  # the second step reuses the bound arrays
        x = rng.normal(0.0, 3.0, size=shape)
        dz = rng.normal(size=shape)
        c = rng.random(shape[:-2] + shape[-1:])
        uniform = float(rng.random())
        want_z = default_order_softmax(x, -2)
        theta[...] = x
        z = BoundSoftmax(x)()
        assert _same_bits(z, want_z) and z.flags.c_contiguous
        for bound in (BoundSoftmax(x.copy(), y), softmax):
            z = bound()
            assert _same_bits(z, want_z) and z.flags.c_contiguous
            for part_dz, part_c in ((dz, None), (None, c), (dz, c), (None, uniform), (dz, uniform)):
                pulled = bound.pull_back(part_dz, part_c)
                lane_c = None if part_c is None else np.broadcast_to(part_c, c.shape)
                assert _same_bits(pulled, default_order_pull_back(want_z, part_dz, -2, lane_c, y))
                assert pulled.flags.c_contiguous


@pytest.mark.parametrize("loss_id", ["ce", "bwm"])
def test_clamped_elements_get_no_ce_contribution(loss_id):
    # At and below LOG_EPS the clamped term is constant: CE's coefficient is
    # 0 there, so every logit of such an element gets a zero gradient, and
    # every other element gets w_t (z - y) / n.
    y = planar(np.eye(4)[[0, 1, 2, 0, 1, 2]])  # class 3 absent: bwm weights it 0
    above = np.nextafter(LOG_EPS, 1.0)
    z = planar(np.array([  # the target class at 0, at LOG_EPS and just above it
        [0.0, 0.5, 0.5, 0.0],
        [0.5, LOG_EPS, 0.5 - LOG_EPS, 0.0],
        [0.5, LOG_EPS, above, 0.5 - LOG_EPS - above],
        [1.0, 0.0, 0.0, 0.0],
        [0.25, 0.25, LOG_EPS, 0.5 - LOG_EPS],
        [0.3, 0.3, 0.4, 0.0],
    ]))
    n = y.shape[-1]
    counts = y.sum(axis=-1)
    w = np.ones(4) if loss_id == "ce" else np.divide(n, 4 * counts, out=np.zeros(4), where=counts > 0)
    core = _CORES[loss_id](y, None)
    for _ in range(2):  # the second call reuses the core's arrays
        parts, dz, c = core(z)
        assert dz is None
        assert _same_bits(c, np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0]) * (w @ y / n))
    # Through the softmax: targets pushed far below the clamp, and not.
    theta = np.where(y == 1.0, [[-40.0, 0.0, 1.0, -40.0, 2.0, 0.5]], 0.0)
    softmax = BoundSoftmax(theta, y)
    for _ in range(2):
        z = softmax()
        clamped = (z * y).sum(axis=0) <= LOG_EPS
        assert clamped.tolist() == [True, False, False, True, False, False]
        gradient = softmax.pull_back(*core(z)[1:])
        assert np.all(gradient[:, clamped] == 0.0)
        want = (w @ y / n) * (z - y)
        assert _same_bits(gradient[:, ~clamped], want[:, ~clamped])


def _closed_and_chain_rule(loss_id, y, weights, theta):
    """The logit gradient of a core at ``theta`` with CE in closed form,
    the chain-rule gradient of the same softmax output, and that output."""
    softmax = BoundSoftmax(theta, y)
    z = softmax()
    closed = softmax.pull_back(*_build_core(loss_id, y, weights)(z)[1:])
    dz = dense_core(loss_id, y, weights.matrix, chain_rule=True)(z)[1]
    return closed, default_order_pull_back(z, dz, -2), z


@pytest.mark.parametrize("loss_id", LOSS_IDS)
def test_the_closed_form_equals_the_chain_rule_within_its_tolerance(loss_id):
    # Softmax fields of logits from N(0, 0.5) to N(0, 10), whose targets
    # run from far below the clamp to within 1e-12 of 1.
    rng = np.random.default_rng(29)
    for sigma in (0.5, 2.0, 10.0):
        for channels, n in ((3, 35), (4, 384), (4, 3136)):
            y = np.eye(channels)[rng.integers(0, channels, size=n)].T.copy()
            weights = PairWeights(rng.random((channels, channels)))
            closed, chain, _ = _closed_and_chain_rule(loss_id, y, weights, rng.normal(0.0, sigma, y.shape))
            np.testing.assert_allclose(closed, chain, rtol=0, atol=CLOSED_FORM_RTOL * np.abs(chain).max())


def _confident_or_clamped(rng, channels, n, clamped):
    """A planar one-hot target and logits whose softmax puts every target
    entry within 1e-9 of 1, or, if ``clamped``, at or below ``LOG_EPS``."""
    y = np.eye(channels)[rng.integers(0, channels, size=n)].T.copy()
    if not clamped:  # the target logit is 0, the others put 1e-12..1e-10 each
        return y, np.where(y == 1.0, 0.0, np.log(rng.uniform(1e-12, 1e-10, size=y.shape)))
    theta = rng.normal(size=y.shape)
    rest = np.logaddexp.reduce(np.where(y == 1.0, -np.inf, theta), axis=0)
    # z_t = share * LOG_EPS / (1 + share * LOG_EPS); -800 more underflows to 0.
    share = rng.choice([1.0, 0.5, 1e-5, 0.0], size=n)
    target = rest + np.log(np.where(share > 0.0, share, 1.0) * LOG_EPS) - 800.0 * (share == 0.0)
    return y, np.where(y == 1.0, target, theta)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble has no more precision than float64 here")
@pytest.mark.parametrize("loss_id", ["ce", "bwm", "jc", "dsc"])
def test_the_closed_form_is_at_least_as_accurate_as_the_chain_rule(loss_id):
    # Against the extended-precision pull-back of the same softmax output:
    # the float64 dz that needs the chain rule (J's or the Dice term) taken
    # as exact, plus CE's exact c (z - y).  Where z_t nears 1 the chain rule
    # cancels z_t c against c; the closed form does not.  Where z_t is
    # clamped CE adds nothing in either form.  jc runs at pair weights of
    # 1e-3: at unit weights J's own pull-back, which cancels the same way in
    # either form, sets both errors at about 1e-7 of the largest entry, and
    # which one is smaller is a toss-up.
    rng = np.random.default_rng(30)
    wide = np.longdouble
    for trial in range(24):
        channels, n, clamped = (3, 4)[trial % 2], (12, 35, 384)[trial % 3], trial % 4 > 1
        y, theta = _confident_or_clamped(rng, channels, n, clamped)
        weights = PairWeights(1e-3 * PairWeights.default(channels).matrix)
        closed, chain, z = _closed_and_chain_rule(loss_id, y, weights, theta)
        z_t = (z * y).sum(axis=0)
        assert np.all(z_t <= LOG_EPS) if clamped else np.all(z_t > 1.0 - 1e-9)
        counts = y.sum(axis=-1)
        w = np.ones(channels)  # bwm's balance weights as its core has them, taken as exact
        if loss_id == "bwm":
            w = np.divide(n, channels * counts, out=np.zeros(channels), where=counts > 0)
        c = np.where(z_t <= LOG_EPS, 0.0, (w.astype(wide) @ y) / n)
        dz = dense_core(loss_id, y, weights.matrix)(z)[1]
        zw = z.astype(wide)
        exact = c * (zw - y)
        if dz is not None:
            dzw = dz.astype(wide)
            exact += zw * (dzw - (dzw * zw).sum(axis=0))
        closed_error = float(np.abs(closed - exact).max())
        chain_error = float(np.abs(chain - exact).max())
        assert closed_error <= chain_error, (trial, closed_error, chain_error)
        if dz is None:  # ce, bwm: rounding of c, z - y and their product alone
            assert closed_error <= 2 * np.finfo(np.float64).eps * float(np.abs(exact).max())


def test_finite_differences_of_an_empty_array_are_empty_and_call_nothing():
    def fn(stack):
        raise AssertionError("fn must not be called")

    for theta in (np.zeros(0), np.zeros((3, 0, 4))):
        grad = finite_difference_gradient(fn, theta)
        assert grad.shape == theta.shape and grad.dtype == np.float64


def test_empty_pair_weights_are_rejected():
    with pytest.raises(ValueError, match="pair weights need at least one class"):
        PairWeights(np.zeros((0, 0)))


def test_complex_pair_weights_are_rejected():
    with pytest.raises(ValueError, match="pair weights must be real"):
        PairWeights(np.ones((2, 2), complex))


def test_pair_weights_that_are_not_pair_weights_are_a_type_error():
    rng = np.random.default_rng(25)
    y = _random_one_hot(rng, (4, 4))
    theta = LogitField(rng.normal(size=(4, 4, 4)))
    with pytest.raises(TypeError, match="weights must be PairWeights or None, got ndarray"):
        evaluate_loss("jc", y, theta, np.ones((4, 4)))


def test_chunked_finite_differences_match_a_per_entry_loop():
    rng = np.random.default_rng(18)
    y = _random_one_hot(rng, (10, 10))
    theta = planar(rng.normal(size=(10, 10, 4)))
    fn = _stack_totals(_build_core("jc", planar(y.values), PairWeights.default(4)))
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


def test_each_caller_builds_one_core_per_target(monkeypatch):
    builds = []
    for loss_id, build in list(_CORES.items()):
        def counted(y, weights, build=build):
            builds.append(y.shape)
            return build(y, weights)

        monkeypatch.setitem(_CORES, loss_id, counted)
    gradient_check("jc", seed=7, trials=7)
    assert len(builds) == 7
    builds.clear()
    y = _random_one_hot(np.random.default_rng(20), (6, 5))
    landscape_scan("dsc", y, LogitField(np.random.default_rng(21).normal(size=(6, 5, 4))))
    assert builds == [(4, 30)] * 2  # the centre's checked evaluate_loss call, then the scan's


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
    assert evaluate_loss("jc", y, y).total == pytest.approx(0.0, abs=1e-12)


@_PROPERTY
@given(_target_and_logits())
def test_logit_gradients_sum_to_zero_over_the_channels(case):
    y, theta = case
    for loss_id in LOSS_IDS:
        gradient = evaluate_loss(loss_id, y, LogitField(theta)).gradient
        # Round-off of dL/dz terms far larger than the pulled-back gradient.
        assert np.abs(gradient.sum(axis=-1)).max() <= 1e-12


@pytest.mark.parametrize("loss_id", ["j", "jc"])
def test_pair_weights_must_match_the_channel_count(loss_id):
    rng = np.random.default_rng(20)
    y = _random_one_hot(rng, (5, 4))
    logits = LogitField(rng.normal(size=(5, 4, 4)))
    with pytest.raises(ValueError, match="pair weights are 3x3, field has 4 channels"):
        evaluate_loss(loss_id, y, logits, PairWeights.default(3))


@st.composite
def _single_field_case(draw):
    """A planar target, pair weights and three probability-like planar
    fields for the single-field cores.  Field entries are seeded uniform
    draws, a drawn
    share of them replaced by values at and below the clamp, just above it,
    0 and 1.  A field may also sit at the target itself, where J's pair
    terms reach ``a >= 1``, or at the target of another class, where they
    fall to the clamp.  A class may be absent, and pair weights may be zero
    or weighted."""
    # numpy sums a row of 7 terms in order and one of 8 or 9 pairwise.
    channels = draw(st.sampled_from([2, 3, 4, 6, 7, 8, 9]))
    elements = draw(st.sampled_from([1, 12, 35]))
    used = draw(st.lists(st.integers(0, channels - 1), min_size=1, max_size=channels, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = planar(np.eye(channels)[rng.choice(used, size=elements)])
    lam = rng.random((channels, channels)) * rng.choice([0.0, 1.0, 3.0], size=(channels, channels))
    specials = [0.0, np.nextafter(LOG_EPS, 0.0), LOG_EPS, np.nextafter(LOG_EPS, 1.0), 1.0]
    fields = []
    for _ in range(3):
        z = rng.random(y.shape)
        swap = rng.random(y.shape) < draw(st.sampled_from([0.0, 0.2, 0.7]))
        z[swap] = rng.choice(specials, size=np.count_nonzero(swap))
        kind = draw(st.sampled_from(["drawn", "target", "above target", "other target"]))
        if kind == "other target":
            z = y[rng.permutation(channels)]
        elif kind != "drawn":
            z = y + (kind == "above target") * z * 1e-9
        fields.append(z)
    return y, PairWeights(lam), fields


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_single_field_case())
def test_single_field_cores_equal_their_dense_body_bit_for_bit(case):
    # Each core against the dense body it replaced: a field's parts and dz,
    # from a fresh core and from one that carries its arrays over the steps,
    # and the values of a stack of two.
    y, weights, fields = case
    for loss_id in LOSS_IDS:
        core = _CORES[loss_id](y, weights)
        dense = dense_core(loss_id, y, weights.matrix)
        for z in fields:
            want_parts, want_dz, want_c = dense(z)
            for carried in (_CORES[loss_id](y, weights), core):
                parts, dz, c = carried(z)
                assert parts.keys() == want_parts.keys()
                for name, value in parts.items():
                    assert _same_bits(np.asarray(value), np.asarray(want_parts[name]))
                assert dz is None if want_dz is None else _same_bits(dz, want_dz)
                assert c is None if want_c is None else _same_c(c, want_c)
        stack = np.stack(fields[:2])
        want_parts = dense(stack)[0]
        parts, dz, c = core(stack)
        assert dz is None and c is None and parts.keys() == want_parts.keys()
        for name, value in parts.items():
            assert _same_bits(value, want_parts[name])


def _second_step_peak(loss_id, dims) -> float:
    """The traced peak of a step's second call, in logit fields."""
    rng = np.random.default_rng(24)
    y = planar(_random_one_hot(rng, dims).values)
    core = _build_core(loss_id, y, PairWeights(rng.random((4, 4))))
    theta = rng.normal(0.0, 2.0, size=y.shape)
    step = _logit_step(core, theta, y)
    step()  # as a run's first iteration
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / theta.nbytes


@pytest.mark.parametrize("loss_id", LOSS_IDS)
def test_a_step_on_a_workspace_makes_no_large_allocation(loss_id):
    assert _second_step_peak(loss_id, (96, 96)) < 0.3


@pytest.mark.parametrize("loss_id", LOSS_IDS)
def test_a_toy_step_makes_no_large_allocation(loss_id):
    # 24x16x4 fits in numpy's ufunc buffer, which a broadcast over the
    # field would fill: the softmax's lane operations and DSC's class terms
    # run plane by plane.
    assert _second_step_peak(loss_id, (24, 16)) < 0.3


@st.composite
def _bound_step_case(draw):
    """A planar one-hot target, pair weights, planar start logits and a step
    size for consecutive steps of one ``_logit_step``: 2-D and 3-D grids
    with 3 or 4 channels, small ones and ones past numpy's ufunc buffer of
    8192 elements (56 x 56 x 3 = 9408, 14**3 x 3 = 8232)."""
    channels = draw(st.sampled_from([3, 4]))
    dims = draw(st.sampled_from([(5, 7), (3, 4, 5), (56, 56), (14, 14, 14)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = planar(np.eye(channels)[rng.integers(0, channels, size=dims)])
    if draw(st.booleans()):
        weights = PairWeights.default(channels)
    else:
        weights = PairWeights(rng.random((channels, channels)))
    theta = rng.normal(0.0, 2.0, size=y.shape)
    return y, weights, theta, draw(st.sampled_from([1.0, 24.0]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_bound_step_case())
def test_consecutive_steps_of_one_step_equal_the_dense_path_bit_for_bit(case):
    # Each step of one _logit_step, with the logits updated in place between
    # steps as ``train`` does, against the dense core after the
    # default-order softmax, and the default-order pull-back.
    y, weights, start, step_size = case
    assert start.size > np.getbufsize() or start.size < 1000
    for loss_id in LOSS_IDS:
        theta = start.copy()
        step = _logit_step(_build_core(loss_id, y, weights), theta, y)
        squares = np.empty(theta.shape)
        dense = dense_core(loss_id, y, weights.matrix)
        for _ in range(3):
            want_z = default_order_softmax(theta, -2)
            want_parts, want_dz, want_c = dense(want_z)
            want_gradient = default_order_pull_back(want_z, want_dz, -2, want_c, y)
            parts, gradient, z = step()
            assert parts.keys() == want_parts.keys()
            for name, value in parts.items():
                assert _same_bits(np.asarray(value), np.asarray(want_parts[name]))
            assert _same_bits(z, want_z)
            assert _same_bits(gradient, want_gradient)
            assert _same_bits(np.float64(l2_norm(gradient, squares)), np.float64(l2_norm(want_gradient)))
            gradient *= step_size
            theta -= gradient


@pytest.mark.parametrize("matrix", [np.array([["1"]]), np.array([[b"1"]]), np.array([[1]], dtype=object)],
                         ids=["str", "bytes", "object"])
def test_non_numeric_pair_weights_are_rejected(matrix):
    with pytest.raises(ValueError, match="pair weights must be real"):
        PairWeights(matrix)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda y, z: PairWeights(np.ones((2, 3))), ValueError, "pair weights must form a square matrix"),
        (lambda y, z: PairWeights(-np.ones((2, 2))), ValueError, "pair weights must be finite and non-negative"),
        (lambda y, z: PairWeights(np.array([[0.0, np.nan], [1.0, 0.0]])), ValueError,
         "pair weights must be finite and non-negative"),
        (lambda y, z: PairWeights(np.array([[0.0, np.inf], [1.0, 0.0]])), ValueError,
         "pair weights must be finite and non-negative"),
        (lambda y, z: evaluate_loss("mse", y, z), ValueError, "unknown loss 'mse'"),
        (lambda y, z: evaluate_loss("ce", y.values, z), TypeError, "target must be a ProbabilityField"),
        (lambda y, z: evaluate_loss("ce", y, z.values), TypeError,
         "prediction must be a LogitField or a ProbabilityField"),
        (lambda y, z: finite_difference_gradient(lambda stack: np.zeros(3), np.zeros(2)), ValueError,
         "fn returned shape (3,) for a stack of 4 arrays"),
    ],
)
def test_named_errors(make, error, message):
    rng = np.random.default_rng(26)
    y, z = _random_one_hot(rng, (3, 3)), LogitField(rng.normal(size=(3, 3, 4)))
    with pytest.raises(error, match=re.escape(message)):
        make(y, z)
