import importlib
import re
import tracemalloc

import numpy as np
import pytest

from jseg import (
    InstanceLabelMap,
    LogitField,
    PairWeights,
    ProbabilityField,
    SceneSpec,
    TrainConfig,
    TrainDiverged,
    TransformConfig,
    evaluate_loss,
    generate_scene,
    one_hot,
    to_semantic,
    train,
)
from jseg.grids import argmax_channels, planar
from jseg.losses import SUM_ORDER_RTOL
from jseg.train import _gap_check
from jseg.transform import GAP
from oracles import channel_last_loss, evaluate_loss_train


def _scene_target(seed=0, spec=None):
    spec = spec or SceneSpec(kind="two-squares-notch", dims=(24, 16), cell_size=8, seed=seed)
    g = generate_scene(spec)
    h = to_semantic(g, TransformConfig())
    return g, one_hot(h, 4)


def _assert_same_trace(got, want):
    """Equal traces: the same columns, dtypes and values, in the same order."""
    assert list(got.columns) == list(want.columns)
    for name, column in got.columns.items():
        assert column.dtype == want.columns[name].dtype, name
        assert column.tolist() == want.columns[name].tolist(), name
    assert got.first_gap_correct == want.first_gap_correct
    assert got.final_pq == want.final_pq


_BLOBS_3D = SceneSpec(kind="random-blobs", dims=(10, 12, 9), cell_size=5, n_blobs=4, seed=2)


def test_zero_iterations_gives_initial_uniform_loss():
    g, y = _scene_target()
    cfg = TrainConfig(loss="ce", iterations=0, init_noise=0.0)
    trace = train(y, g, cfg)
    assert len(trace.columns["iteration"]) == 1
    # uniform probabilities: CE = log(channels)
    assert trace.columns["total"][0] == pytest.approx(np.log(4.0), abs=1e-12)


def test_loss_non_increasing_at_default_step():
    g, y = _scene_target()
    cfg = TrainConfig(loss="jc", iterations=300, log_every=50, seed=1)
    trace = train(y, g, cfg)
    totals = trace.columns["total"]
    assert np.all(np.diff(totals) <= 1e-12)


def test_trace_deterministic_per_seed():
    g, y = _scene_target()
    cfg = TrainConfig(loss="jc", iterations=100, seed=5)
    a = train(y, g, cfg)
    b = train(y, g, cfg)
    assert np.array_equal(a.columns["total"], b.columns["total"])
    c = train(y, g, TrainConfig(loss="jc", iterations=100, seed=6))
    assert not np.array_equal(a.columns["total"], c.columns["total"])


def test_jc_reaches_perfect_panoptic_quality():
    g, y = _scene_target()
    cfg = TrainConfig(loss="jc", iterations=1500, log_every=50, seed=3)
    trace = train(y, g, cfg)
    assert trace.final_pq == 1.0


def test_jc_fixes_gap_elements_before_ce():
    g, y = _scene_target()
    for seed in (0, 3, 11):
        jc = train(y, g, TrainConfig(loss="jc", iterations=2000, seed=seed))
        ce = train(y, g, TrainConfig(loss="ce", iterations=2000, seed=seed))
        assert jc.first_gap_correct is not None
        assert ce.first_gap_correct is not None
        assert jc.first_gap_correct < ce.first_gap_correct


def test_adam_optimizer_descends():
    g, y = _scene_target()
    cfg = TrainConfig(loss="jc", iterations=200, optimizer="adam", seed=2)
    trace = train(y, g, cfg)
    assert trace.columns["total"][-1] < trace.columns["total"][0]


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(loss="mse")
    for bad in (0.0, np.nan):
        with pytest.raises(ValueError, match="step size"):
            TrainConfig(step_size=bad)
    for bad in (-0.1, np.nan):
        with pytest.raises(ValueError, match="init noise"):
            TrainConfig(init_noise=bad)
    with pytest.raises(ValueError):
        TrainConfig(iterations=-1)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="lbfgs")
    with pytest.raises(TypeError):
        TrainConfig(seed=2.5)
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)


def test_components_recorded():
    g, y = _scene_target()
    trace = train(y, g, TrainConfig(loss="jc", iterations=10, log_every=5))
    columns = trace.columns
    assert list(columns) == ["iteration", "total", "ce", "j", "grad_norm", "pq"]
    logged = [it for it, pq in zip(columns["iteration"], columns["pq"]) if pq is not None]
    assert logged == [0, 5, 10]


def test_overflowing_loss_raises_train_diverged_with_the_partial_trace():
    g, y = _scene_target()
    huge = PairWeights(1e308 * PairWeights.default(4).matrix)
    # numpy reports the overflow; the J sum must come out +inf, not finite or NaN.
    with pytest.warns(RuntimeWarning):
        value = evaluate_loss("jc", y, LogitField(np.zeros(y.values.shape)), huge)
        with pytest.raises(TrainDiverged, match="iteration 0") as info:
            train(y, g, TrainConfig(loss="jc", iterations=5), weights=huge)
    assert value.components["j"] == np.inf
    assert info.value.trace.columns == {}


def test_overflowing_update_raises_train_diverged_with_the_partial_trace():
    # Finite loss and gradient at iteration 0, but step times gradient overflows.
    g, y = _scene_target()
    huge = PairWeights(1e307 * PairWeights.default(4).matrix)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(TrainDiverged, match="logits became non-finite at iteration 0") as info:
            train(y, g, TrainConfig(loss="jc", iterations=5, step_size=100.0), weights=huge)
    columns = info.value.trace.columns
    assert columns["iteration"].tolist() == [0] and np.isfinite(columns["total"]).all()


def test_non_finite_gradient_raises_train_diverged(monkeypatch):
    g, y = _scene_target()

    def finite_total_inf_gradient(loss_id, target, weights):
        return lambda z: ({"ce": 1.0}, np.full(z.shape, np.inf), None)

    # Every iteration, the first included, takes its loss and gradient from
    # the core that ``jseg.train`` builds with ``_build_core``.
    module = importlib.import_module("jseg.train")
    monkeypatch.setattr(module, "_build_core", finite_total_inf_gradient)
    for optimizer in ("gd", "adam"):
        with np.errstate(all="ignore"), pytest.raises(TrainDiverged, match="iteration 0"):
            train(y, g, TrainConfig(loss="ce", iterations=3, optimizer=optimizer))


@pytest.mark.parametrize("spec", [None, _BLOBS_3D], ids=["toy", "blobs3d"])
@pytest.mark.parametrize("optimizer", ["gd", "adam"])
@pytest.mark.parametrize("loss", ["ce", "jc", "bwm", "dsc"])
def test_train_equals_the_evaluate_loss_loop(loss, optimizer, spec):
    # The bare-array steps and the PQ memo change no bit of the trace.
    g, y = _scene_target(spec=spec)
    random = PairWeights(np.random.default_rng(4).random((4, 4)))
    cfg = TrainConfig(loss=loss, iterations=60, log_every=4, seed=9, optimizer=optimizer)
    for weights in (None, random):
        got = train(y, g, cfg, weights)
        want = evaluate_loss_train(y, g, cfg, weights)
        assert len(got.columns["iteration"]) == 61
        _assert_same_trace(got, want)


@pytest.mark.parametrize("spec", [None, _BLOBS_3D], ids=["toy", "blobs3d"])
@pytest.mark.parametrize("optimizer", ["gd", "adam"])
@pytest.mark.parametrize("loss", ["ce", "j", "jc", "bwm", "dsc"])
def test_train_equals_the_channel_last_step_within_the_sum_order_tolerance(loss, optimizer, spec):
    # The planar step against the channel-last step it replaced: the same
    # iterations, PQ, first gap iteration and final PQ, and every float
    # column within the tolerance of a change of summation order.
    g, y = _scene_target(spec=spec)
    cfg = TrainConfig(loss=loss, iterations=150, log_every=10, seed=9, optimizer=optimizer)
    for weights in (None, PairWeights(np.random.default_rng(4).random((4, 4)))):
        got = train(y, g, cfg, weights)
        want = evaluate_loss_train(y, g, cfg, weights, loss=channel_last_loss)
        assert list(got.columns) == list(want.columns)
        for name, column in got.columns.items():
            if column.dtype == object or name == "iteration":
                assert column.tolist() == want.columns[name].tolist(), name
            else:
                np.testing.assert_allclose(column, want.columns[name], rtol=SUM_ORDER_RTOL, atol=0)
        assert got.first_gap_correct == want.first_gap_correct
        assert got.final_pq == want.final_pq


@pytest.mark.parametrize("optimizer", ["gd", "adam"])
def test_back_to_back_runs_give_equal_traces(optimizer):
    # Each run has its own buffers: a run in between, on another loss,
    # changes no bit of the next one.
    g, y = _scene_target()
    cfg = TrainConfig(loss="jc", iterations=40, log_every=8, seed=4, optimizer=optimizer)
    first = train(y, g, cfg)
    train(y, g, TrainConfig(loss="dsc", iterations=7, seed=5, optimizer=optimizer))
    again = train(y, g, cfg)
    _assert_same_trace(again, first)


def _steady_state_rises(monkeypatch, g, y, cfg) -> list[int]:
    """How far the traced peak rises above the previous record's traced
    memory between two records of a 12-iteration run, at records 2 to 11.
    The gradient's norm runs once per iteration, for its record."""
    module = importlib.import_module("jseg.train")
    norm, seen = module.l2_norm, []

    def watching(*args, **kwargs):
        seen.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return norm(*args, **kwargs)

    monkeypatch.setattr(module, "l2_norm", watching)
    tracemalloc.start()
    try:
        train(y, g, cfg)
    finally:
        tracemalloc.stop()
    assert len(seen) == cfg.iterations + 1 == 13
    # The run makes its arrays before the loop; iteration 12 measures PQ first.
    return [peak - seen[k - 1][0] for k, (_, peak) in enumerate(seen) if 2 <= k <= 11]


def test_steady_state_steps_allocate_less_than_one_field(monkeypatch):
    # Between two records of a 96x96 run the traced peak rises by less than
    # one logit field: every element-sized array of a step is reused.
    spec = SceneSpec(kind="random-blobs", dims=(96, 96), cell_size=12, n_blobs=12, seed=81)
    g, y = _scene_target(spec=spec)
    cfg = TrainConfig(loss="jc", step_size=24.0, iterations=12, log_every=100, seed=81)
    assert max(_steady_state_rises(monkeypatch, g, y, cfg)) < y.values.nbytes


@pytest.mark.parametrize("loss", ["jc", "ce"])
def test_steady_state_toy_steps_allocate_less_than_one_field(monkeypatch, loss):
    # The same at 24x16, a field of 384 elements, which fits in numpy's
    # ufunc buffer: no step op broadcasts into a buffer of numpy's own.
    g, y = _scene_target(seed=81)
    cfg = TrainConfig(loss=loss, iterations=12, log_every=100, seed=81)
    assert max(_steady_state_rises(monkeypatch, g, y, cfg)) < y.values.nbytes


@pytest.mark.parametrize("iterations", [0, 1, 37])
def test_train_checks_its_inputs_in_one_evaluate_loss_call(monkeypatch, iterations):
    module = importlib.import_module("jseg.train")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return evaluate_loss(*args, **kwargs)

    monkeypatch.setattr(module, "evaluate_loss", counting)
    g, y = _scene_target()
    trace = train(y, g, TrainConfig(loss="jc", iterations=iterations, log_every=5))
    assert len(trace.columns["iteration"]) == iterations + 1
    assert calls == ["jc"]


def test_pair_weights_of_the_wrong_size_fail_before_any_record(monkeypatch):
    module = importlib.import_module("jseg.train")
    built = []

    def counting(make):
        def build(*args):
            built.append(make)
            return make(*args)

        return build

    g, y = _scene_target()
    for name in ("_build_core", "BoundSoftmax"):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    with pytest.raises(ValueError, match="pair weights are 3x3, field has 4 channels"):
        train(y, g, TrainConfig(loss="jc", iterations=5), weights=PairWeights.default(3))
    assert built == []


def test_pair_weights_as_a_bare_array_are_a_type_error():
    g, y = _scene_target()
    with pytest.raises(TypeError, match="weights must be PairWeights or None, got ndarray"):
        train(y, g, TrainConfig(loss="jc", iterations=5), weights=np.ones((4, 4)))


@pytest.mark.parametrize("name", ["iterations", "log_every"])
def test_train_integer_settings_must_be_integers(name):
    # log_every=1.5 once logged at 0, 3 and 6 of 6 iterations.
    for value in (1.5, 2.5, 3.0, "3"):
        with pytest.raises(TypeError):
            TrainConfig(**{name: value})
    cfg = TrainConfig(**{name: np.int64(3)})
    assert type(getattr(cfg, name)) is int and cfg == TrainConfig(**{name: 3})


def test_gap_check_equals_the_argmax_rule_ties_included():
    # Logits from {0, 1, 2} tie often; the lowest index wins a tie, so a gap
    # element tied with a lower channel is wrong and with a higher one right.
    rng = np.random.default_rng(12)
    outcomes = set()
    for trial in range(400):
        channels = (3, 4, 5)[trial % 3]
        classes = rng.integers(0, channels, (2, 3))
        target = ProbabilityField(np.eye(channels)[classes])
        theta = rng.integers(0, 3, (2, 3, channels)).astype(float)
        gap = classes == GAP if channels > GAP else np.zeros(classes.shape, bool)
        check = _gap_check(target)
        if not gap.any():
            assert check is None
            outcomes.add((channels, None))
            continue
        want = bool(np.all(argmax_channels(theta[gap])[0] == GAP))
        assert check(planar(theta)) == want
        outcomes.add((channels, want))
    assert outcomes == {
        (3, None), (4, None), (4, True), (4, False), (5, None), (5, True), (5, False)
    }


def test_targets_without_a_gap_element_report_no_gap_iteration():
    # A three-class target, and the same map one-hot in four channels.
    g = generate_scene(SceneSpec(kind="two-squares-notch", dims=(24, 16), cell_size=8))
    semantic = to_semantic(g, TransformConfig(mode="three-class"))
    for channels in (3, 4):
        trace = train(one_hot(semantic, channels), g, TrainConfig(loss="jc", iterations=20))
        assert trace.first_gap_correct is None
        assert len(trace.columns["iteration"]) == 21


def _mismatched_train():
    source, target = _scene_target()
    return train(target, InstanceLabelMap(source.labels[:-1]), TrainConfig(iterations=1))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TrainConfig(log_every=0), "log period must be >= 1"),
        (_mismatched_train, "target field and source instance map shapes differ"),
    ],
)
def test_named_errors(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()
