import numpy as np
import pytest

from jseg import (
    LogitField,
    PairWeights,
    SceneSpec,
    TrainConfig,
    TrainDiverged,
    TransformConfig,
    generate_scene,
    jc_loss,
    one_hot,
    to_semantic,
    train,
)


def _scene_target(seed=0):
    spec = SceneSpec(kind="two-squares-notch", dims=(24, 16), cell_size=8, seed=seed)
    g = generate_scene(spec)
    h = to_semantic(g, TransformConfig())
    return g, one_hot(h, 4)


def test_zero_iterations_gives_initial_uniform_loss():
    g, y = _scene_target()
    cfg = TrainConfig(loss="ce", iterations=0, init_noise=0.0)
    trace = train(y, g, cfg)
    assert len(trace.records) == 1
    # uniform probabilities: CE = log(channels)
    assert trace.records[0].total == pytest.approx(np.log(4.0), abs=1e-12)


def test_loss_non_increasing_at_default_step():
    g, y = _scene_target()
    cfg = TrainConfig(loss="jc", iterations=300, log_every=50, seed=1)
    trace = train(y, g, cfg)
    totals = trace.column("total")
    assert np.all(np.diff(totals) <= 1e-12)


def test_trace_deterministic_per_seed():
    g, y = _scene_target()
    cfg = TrainConfig(loss="jc", iterations=100, seed=5)
    a = train(y, g, cfg)
    b = train(y, g, cfg)
    assert np.array_equal(a.column("total"), b.column("total"))
    c = train(y, g, TrainConfig(loss="jc", iterations=100, seed=6))
    assert not np.array_equal(a.column("total"), c.column("total"))


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
    cfg = TrainConfig(loss="jc", iterations=200, optimizer="adam", adam_lr=1e-2, seed=2)
    trace = train(y, g, cfg)
    assert trace.records[-1].total < trace.records[0].total


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(loss="mse")
    with pytest.raises(ValueError):
        TrainConfig(step_size=0.0)
    with pytest.raises(ValueError):
        TrainConfig(iterations=-1)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="lbfgs")


def test_components_recorded():
    g, y = _scene_target()
    trace = train(y, g, TrainConfig(loss="jc", iterations=10, log_every=5))
    assert set(trace.records[0].components) == {"ce", "j"}
    logged = [r for r in trace.records if r.pq is not None]
    assert [r.iteration for r in logged] == [0, 5, 10]


def test_overflowing_loss_raises_train_diverged_with_the_partial_trace():
    g, y = _scene_target()
    huge = PairWeights(1e308 * PairWeights.default(4).matrix)
    # numpy reports the overflow; the J sum must come out +inf, not finite or NaN.
    with pytest.warns(RuntimeWarning):
        value = jc_loss(y, LogitField(np.zeros(y.values.shape)), huge)
        with pytest.raises(TrainDiverged, match="iteration 0") as info:
            train(y, g, TrainConfig(loss="jc", iterations=5), weights=huge)
    assert value.components["j"] == np.inf
    assert info.value.trace.records == ()
