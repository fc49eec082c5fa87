import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage
from scipy.stats import ks_2samp

import jseg.simulate
from jseg import (
    ImbalanceSimConfig,
    LogitField,
    SceneSpec,
    ShrinkwrapConfig,
    ShrinkwrapTrace,
    TransformConfig,
    generate_scene,
    landscape_scan,
    mcc_j_correlation,
    one_hot,
    probs_to_logits,
    run_imbalance_sim,
    run_shrinkwrap,
    to_semantic,
)
from jseg.simulate import _squared_distance
from jseg.transform import ball_footprint
from jseg.losses import SUM_ORDER_RTOL
from oracles import (bernoulli_trials, channel_last_loss, landscape_values, shrinkwrap_grad_norms,
                     trial_measures)


def _small_cfg(**kw):
    base = dict(classifier="c3", pis=(0.05, 0.25, 0.5), samples=400, trials=60, seed=0)
    base.update(kw)
    return ImbalanceSimConfig(**base)


def test_imbalance_j_stays_near_zero():
    for clf in ("c1", "c3"):
        table = run_imbalance_sim(_small_cfg(classifier=clf, trials=200))
        for entry in table.summary():
            assert abs(entry["j_mean"]) < 0.05
            assert abs(entry["mcc_mean"]) < 0.05


def test_c1_accuracy_matches_closed_form():
    cfg = _small_cfg(classifier="c1", pis=(0.01, 0.5), samples=1000, trials=300)
    table = run_imbalance_sim(cfg)
    s = {e["pi"]: e for e in table.summary()}
    assert s[0.01]["accuracy_mean"] == pytest.approx(0.9802, abs=0.01)
    assert s[0.5]["accuracy_mean"] == pytest.approx(0.5, abs=0.02)


def test_imbalance_determinism_and_thread_independence():
    cfg = _small_cfg()
    a = run_imbalance_sim(cfg)
    b = run_imbalance_sim(cfg)
    assert a.rows.tobytes() == b.rows.tobytes()
    for pi in cfg.pis:
        for measure in ("pi", "trial", "j", "mcc"):
            assert np.array_equal(a.per_pi(pi, measure), a.rows[measure][a.rows["pi"] == pi])
    c = run_imbalance_sim(_small_cfg(seed=1))
    assert a.rows.tobytes() != c.rows.tobytes()


def test_degenerate_trials_are_resampled_and_counted():
    trials = 400
    cfg = ImbalanceSimConfig(classifier="c1", pis=(0.01,), samples=100, trials=trials, seed=2)
    table = run_imbalance_sim(cfg)
    # pi=0.01 with 100 samples misses the positive class in ~36% of draws of
    # the truth and of the prediction alike, so a draw is degenerate with
    # probability q (all-positive is negligible) and each trial is redrawn a
    # geometric number of times, with mean q/(1-q) and variance q/(1-q)^2.
    q = 1.0 - (1.0 - 0.99**100) ** 2
    expected = trials * q / (1.0 - q)
    stderr = np.sqrt(trials * q) / (1.0 - q)
    assert abs(table.resampled[0.01] - expected) < 4 * stderr
    rows = table.rows
    assert np.all(np.isfinite(rows["mcc"]))
    assert np.all(np.isfinite(rows["jaccard"]))


def test_a_ratio_that_stays_degenerate_raises_within_a_second():
    cfg = ImbalanceSimConfig(pis=(1e-12,), samples=100, trials=2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"pi=1e-12 .* 1000 redraw rounds"):
        run_imbalance_sim(cfg)
    assert time.perf_counter() - start < 1.0


def test_count_sampler_matches_the_bernoulli_reference():
    # Both samplers draw the same law: a two-sample KS test per
    # (classifier, ratio, measure) at fixed seeds, each p > 0.01.
    rng = np.random.default_rng(31)
    for clf in ("c1", "c3"):
        cfg = ImbalanceSimConfig(classifier=clf, pis=(0.01, 0.1, 0.5), samples=1000, trials=500,
                                 seed=30)
        table = run_imbalance_sim(cfg)
        for pi in cfg.pis:
            p_pred = pi if clf == "c1" else 0.5
            gt, pred, _ = bernoulli_trials(pi, p_pred, cfg.samples, cfg.trials, rng)
            j, mcc = trial_measures(gt, pred)[:2]
            for measure, reference in (("j", j), ("mcc", mcc)):
                p = ks_2samp(table.per_pi(pi, measure), reference).pvalue
                assert p > 0.01, (clf, pi, measure, p)


def test_correlation_requires_c3():
    with pytest.raises(ValueError):
        mcc_j_correlation(_small_cfg(classifier="c1"))


@pytest.mark.parametrize("classifier", ["c1", "c3"])
@pytest.mark.parametrize("seed", [5, 901, 11])
def test_summary_equals_the_per_ratio_reductions(classifier, seed):
    # One reduction per measure over all ratios gives the bits of one per ratio.
    table = run_imbalance_sim(ImbalanceSimConfig(classifier=classifier, seed=seed))
    want = []
    for pi in table.pis:
        entry = {"pi": pi, "resampled": table.resampled[pi]}
        for m in ("j", "mcc", "jaccard", "f1", "tversky", "accuracy"):
            vals = table.per_pi(pi, m)
            entry[f"{m}_mean"] = float(vals.mean())
            entry[f"{m}_std"] = float(vals.std())
        want.append(entry)
    assert table.summary() == want


def test_correlation_high_at_balance():
    corr = mcc_j_correlation(_small_cfg(trials=300))
    assert corr.r_at(0.5) > 0.99
    assert corr.r_at(0.25) > 0.95


def test_imbalance_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(pis=(0.6,))
    with pytest.raises(ValueError):
        _small_cfg(samples=10)
    with pytest.raises(ValueError):
        _small_cfg(trials=1)
    # The hypergeometric draw takes populations below 10**9; the bound is
    # checked before anything is drawn.
    _small_cfg(samples=10**9)
    with pytest.raises(ValueError, match="samples"):
        _small_cfg(samples=10**9 + 1)
    with pytest.raises(ValueError):
        _small_cfg(classifier="c2")
    # A seed is a non-negative integer, checked when the config is made.
    with pytest.raises(TypeError):
        _small_cfg(seed=2.5)
    with pytest.raises(ValueError, match="seed"):
        _small_cfg(seed=-1)
    # One block per ratio: a repeated ratio would pool two blocks in the
    # summary but keep only the last block's resampling count.
    for pis in ((0.01, 0.01), (0.25, 0.5, 0.25)):
        with pytest.raises(ValueError, match="distinct"):
            _small_cfg(pis=pis)


@pytest.mark.parametrize("name", ["samples", "trials"])
def test_imbalance_counts_must_be_integers(name):
    # 150.0 samples and 20.5 trials once passed the config and failed inside numpy.
    for value in (150.0, 20.5, "150"):
        with pytest.raises(TypeError):
            _small_cfg(**{name: value})
    cfg = _small_cfg(**{name: np.int64(150)})
    assert type(getattr(cfg, name)) is int and getattr(cfg, name) == 150


# ---------------------------------------------------------------------------


def _fast_shrinkwrap(**kw):
    base = dict(
        scene=SceneSpec(kind="two-squares-notch", dims=(40, 28), cell_size=8, seed=0),
        iterations=29,
        margin_start=8,
        iters_per_margin_step=2,
        transform=TransformConfig(),
    )
    base.update(kw)
    return ShrinkwrapConfig(**base)


def test_shrinkwrap_schedule_must_reach_zero_margin():
    with pytest.raises(ValueError):
        _fast_shrinkwrap(iterations=16)


@pytest.mark.parametrize("name", ["iterations", "margin_start", "iters_per_margin_step"])
def test_shrinkwrap_integer_settings_must_be_integers(name):
    # 1.5 once ran with float margins, and 2.5 failed only mid-run.
    base = ShrinkwrapConfig()
    for value in (1.5, 2.5, float(getattr(base, name)), "3"):
        with pytest.raises(TypeError):
            ShrinkwrapConfig(**{name: value})
    cfg = ShrinkwrapConfig(**{name: np.int64(getattr(base, name))})
    assert type(getattr(cfg, name)) is int and cfg == base


def test_shrinkwrap_trace_structure():
    cfg = _fast_shrinkwrap()
    trace = run_shrinkwrap(cfg)
    columns = trace.columns
    assert list(columns) == ["iteration", "margin", "confidence", "ramp",
                             "grad_ce", "grad_j", "grad_jc"]
    assert columns["iteration"].tolist() == list(range(1, cfg.iterations + 1))
    idx = trace.shrinkwrap_index
    margins, ramp = columns["margin"], columns["ramp"]
    assert margins[idx] == 0
    assert ramp[idx] == 0.0
    assert margins[idx - 1] == 1
    assert margins[0] == cfg.margin_start
    assert np.all(np.diff(margins) <= 0)
    assert ramp[-1] == 1.0


def test_shrinkwrap_ce_peaks_first_then_stalls():
    trace = run_shrinkwrap(ShrinkwrapConfig())
    ce = trace.columns["grad_ce"]
    j = trace.columns["grad_j"]
    idx = trace.shrinkwrap_index
    assert ce.argmax() == 0  # the very first iteration is CE's global peak
    assert ce[idx] < 0.2 * ce[: idx + 1].max()
    assert j[idx] > 0.5 * j[: idx + 1].max()


def test_shrinkwrap_final_gradients_vanish():
    trace = run_shrinkwrap(ShrinkwrapConfig())
    for name in ("grad_ce", "grad_j", "grad_jc"):
        col = trace.columns[name]
        assert col[-1] < 1e-6 * col.max()


def test_shrinkwrap_rejects_other_scenes():
    # The configuration refuses the scene before anything runs.
    with pytest.raises(ValueError, match="two-squares-notch"):
        _fast_shrinkwrap(scene=SceneSpec(kind="random-blobs", dims=(40, 28), seed=0))


def test_shrinkwrap_confidence_invariants():
    with pytest.raises(ValueError):
        _fast_shrinkwrap(confidence_start=0.2)
    with pytest.raises(ValueError):
        _fast_shrinkwrap(confidence_start=0.9, confidence_final=0.8)


_SHRINKWRAP_CASES = pytest.mark.parametrize(
    "cfg",
    [
        ShrinkwrapConfig(),
        ShrinkwrapConfig(
            scene=SceneSpec(kind="two-squares-notch", dims=(24, 16, 12), cell_size=6, seed=0),
            margin_start=4,
        ),
        # Margin 30 reaches past the 24x16 grid's diagonal of about 28.8.
        ShrinkwrapConfig(
            scene=SceneSpec(kind="two-squares-notch", dims=(24, 16), cell_size=6, seed=0),
            margin_start=30,
            iters_per_margin_step=1,
        ),
        # Neither of these two repeats a state, so every step runs the cores.
        ShrinkwrapConfig(confidence_start=0.6),
        ShrinkwrapConfig(iters_per_margin_step=1),
    ],
    ids=["default", "3d", "margin-past-diagonal", "rising-confidence", "one-step-per-margin"],
)


@_SHRINKWRAP_CASES
def test_shrinkwrap_csv_equals_the_dilation_and_evaluate_loss_oracle(cfg, tmp_path):
    run_shrinkwrap(cfg).write_csv(tmp_path / "run.csv")
    oracle = ShrinkwrapTrace(shrinkwrap_grad_norms(cfg), cfg.shrink_iterations - 1)
    oracle.write_csv(tmp_path / "oracle.csv")
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@_SHRINKWRAP_CASES
def test_shrinkwrap_equals_the_channel_last_step_within_the_sum_order_tolerance(cfg):
    got = run_shrinkwrap(cfg).columns
    want = shrinkwrap_grad_norms(cfg, loss=channel_last_loss)
    assert list(got) == list(want)
    for name in ("iteration", "margin", "confidence", "ramp"):
        assert got[name].tolist() == want[name].tolist(), name
    for name in ("grad_ce", "grad_j", "grad_jc"):
        np.testing.assert_allclose(got[name], want[name], rtol=SUM_ORDER_RTOL, atol=0)


@pytest.mark.parametrize(
    "cfg, runs",
    [
        # 19 margins from 18 to 0, then 30 ramp steps.
        (ShrinkwrapConfig(), 49),
        (ShrinkwrapConfig(confidence_start=0.6), 85),
        (ShrinkwrapConfig(iters_per_margin_step=1), 85),
    ],
    ids=["default", "rising-confidence", "one-step-per-margin"],
)
def test_shrinkwrap_runs_the_cores_once_per_distinct_state(monkeypatch, cfg, runs):
    build, calls = jseg.simulate._build_core, []

    def counted(loss_id, y, weights):
        core = build(loss_id, y, weights)

        def run(*args, **kwargs):
            calls.append(loss_id)
            return core(*args, **kwargs)

        return run

    monkeypatch.setattr(jseg.simulate, "_build_core", counted)
    trace = run_shrinkwrap(cfg)
    assert len(trace.columns["iteration"]) == 85
    assert sorted(calls) == ["ce"] * runs + ["j"] * runs


@st.composite
def _mask_and_margins(draw):
    """A 2-D or 3-D mask, a margin from 1 to past the grid diagonal, and a
    reach of at least that margin."""
    dims = draw(st.one_of(
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    ))
    fg = draw(hnp.arrays(bool, dims))
    diagonal = int(np.ceil(np.sqrt(sum(n * n for n in dims))))
    margin = draw(st.integers(1, diagonal + 2))
    return fg, margin, margin + draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_mask_and_margins())
@example((np.zeros((7, 5), bool), 9, 9))
@example((np.ones((7, 5), bool), 1, 1))
@example((np.zeros((4, 3, 5), bool), 2, 4))
@example((np.ones((4, 3, 5), bool), 8, 8))
def test_distance_thresholds_equal_ball_dilations(case):
    fg, margin, reach = case
    dilated = ndimage.binary_dilation(fg, structure=ball_footprint(margin, fg.ndim))
    np.testing.assert_array_equal(_squared_distance(fg, reach) <= margin * margin, dilated)


def test_squared_distance_clamps_its_reach_to_the_grid():
    fg = np.random.default_rng(3).random((12, 9)) < 0.1
    points = np.argwhere(fg)
    grid = np.indices(fg.shape).reshape(2, -1).T
    exact = ((grid[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1).min(axis=1)
    _squared_distance(fg, 2)  # let numpy finish its lazy set-up before tracing
    tracemalloc.start()
    try:
        d2 = _squared_distance(fg, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(d2, exact.reshape(fg.shape))
    assert peak < 20 * fg.size * 8


# ---------------------------------------------------------------------------


def _landscape_inputs():
    spec = SceneSpec(kind="two-squares-notch", dims=(20, 12), cell_size=6, notch_length=3, seed=0)
    g = generate_scene(spec)
    h = to_semantic(g, TransformConfig())
    y = one_hot(h, 4)
    return y, probs_to_logits(y, floor=1e-3)


def test_landscape_center_is_minimum_for_jc():
    y, theta = _landscape_inputs()
    result = landscape_scan("jc", y, theta, seed=3, resolution=15, span=1.0)
    mid = result.values[7, 7]
    assert mid == np.nanmin(result.values)
    assert result.alphas[7] == 0.0 and result.betas[7] == 0.0
    assert np.isfinite(result.values).all()


def _landscape_inputs_3d():
    spec = SceneSpec(kind="random-blobs", dims=(9, 8, 7), cell_size=4, n_blobs=2, seed=1)
    y = one_hot(to_semantic(generate_scene(spec), TransformConfig()), 4)
    return y, probs_to_logits(y, floor=1e-2)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("loss_id", ["ce", "j", "jc", "bwm", "dsc"])
@pytest.mark.parametrize("inputs", [_landscape_inputs, _landscape_inputs_3d])
def test_landscape_equals_a_checked_call_per_cell(inputs, loss_id, threads):
    y, theta = inputs()
    result = landscape_scan(loss_id, y, theta, seed=6, resolution=7, span=0.8, threads=threads)
    assert np.array_equal(result.values, landscape_values(loss_id, y, theta, seed=6,
                                                          resolution=7, span=0.8))


def test_landscape_rows_stay_within_the_chunk_bound(monkeypatch):
    y, theta = _landscape_inputs()
    bound = 2 * theta.values.size + 1  # two fields per stack: four stacks per row of 7
    monkeypatch.setattr(jseg.simulate, "FD_CHUNK_ELEMENTS", bound)
    sizes = []
    build_totals = jseg.simulate._stack_totals

    def recorded(core):
        totals = build_totals(core)

        def fn(stack):
            sizes.append(stack.size)
            return totals(stack)

        return fn

    monkeypatch.setattr(jseg.simulate, "_stack_totals", recorded)
    result = landscape_scan("jc", y, theta, seed=6, resolution=7, span=0.8)
    assert len(sizes) == 7 * 4 and max(sizes) <= bound
    assert np.array_equal(result.values, landscape_values("jc", y, theta, seed=6, resolution=7,
                                                          span=0.8))


def test_landscape_raises_on_non_finite_logits():
    y, theta = _landscape_inputs()
    # At 1e307 some perturbed logits overflow; at 1e308 linspace's own
    # span overflows and the grid holds NaN.
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        landscape_scan("jc", y, theta, resolution=5, span=1e307)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
        landscape_scan("jc", y, theta, span=1e308)


def test_landscape_deterministic_and_thread_independent():
    y, theta = _landscape_inputs()
    a = landscape_scan("jc", y, theta, seed=4, resolution=9, span=0.5)
    b = landscape_scan("jc", y, theta, seed=4, resolution=9, span=0.5, threads=8)
    assert np.array_equal(a.values, b.values)
    c = landscape_scan("jc", y, theta, seed=5, resolution=9, span=0.5)
    assert not np.array_equal(a.values, c.values)


def test_landscape_equals_the_blas_norm_scan_within_rounding(monkeypatch):
    # The directions are scaled by a pairwise-summed norm so the scan does not
    # depend on the BLAS thread count; np.linalg.norm's dot gives the same scan
    # up to rounding.
    y, theta = _landscape_inputs()
    pairwise = landscape_scan("jc", y, theta, seed=4, resolution=9, span=0.5)
    monkeypatch.setattr(jseg.simulate, "l2_norm", np.linalg.norm)
    blas = landscape_scan("jc", y, theta, seed=4, resolution=9, span=0.5)
    np.testing.assert_allclose(pairwise.values, blas.values, rtol=1e-12, atol=0)


def test_landscape_validation():
    y, theta = _landscape_inputs()
    with pytest.raises(ValueError):
        landscape_scan("jc", y, theta, resolution=10)
    # A seed is a non-negative integer, and so is the resolution.
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        landscape_scan("jc", y, theta, seed=-1)
    for settings in ({"seed": 2.5}, {"resolution": 5.0}):
        with pytest.raises(TypeError):
            landscape_scan("jc", y, theta, **settings)
    # Past about 8.99e307, 2 * span and so linspace's grid overflow.
    for span in (0.0, np.nan, np.inf, 1e308):
        with pytest.raises(ValueError, match="span"):
            landscape_scan("jc", y, theta, span=span)


def _degenerate_correlation():
    # At this seed both trials draw the same confusion counts, so MCC and J
    # each have zero variance at the one ratio.
    cfg = ImbalanceSimConfig(pis=(0.01,), samples=100, trials=2, seed=3)
    table = run_imbalance_sim(cfg)
    assert len(set(table.per_pi(0.01, "mcc").tolist())) == 1
    return mcc_j_correlation(cfg)


@pytest.mark.parametrize(
    "make, message",
    [
        (_degenerate_correlation,
         "degenerate trials at pi=0.01: Pearson correlation is undefined for zero variance"),
        (lambda: ShrinkwrapConfig(margin_start=0), "initial margin must be >= 1"),
        (lambda: ShrinkwrapConfig(iters_per_margin_step=0), "iters_per_margin_step must be >= 1"),
    ],
)
def test_named_errors(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()
