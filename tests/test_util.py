"""The shared helpers in ``jseg._util``: the workspace, the thread map and
the one CSV writer, checked against row-by-row reference writers for every
CSV the package produces, and its one-pass form against separate writes."""

import csv
import dataclasses
import struct
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jseg import (
    LOSS_IDS,
    ImbalanceSimConfig,
    LogitField,
    ProbabilityField,
    SceneSpec,
    ShrinkwrapConfig,
    TrainConfig,
    TransformConfig,
    evaluate_loss,
    generate_scene,
    gradient_check,
    landscape_scan,
    mcc_j_correlation,
    one_hot,
    panoptic,
    probs_to_logits,
    read_grid,
    run_shrinkwrap,
    to_semantic,
    train,
)
from jseg import _util
from jseg.cli import dispatch

# -- workspace ----------------------------------------------------------------


def test_a_filled_workspace_array_is_filled_once_and_then_kept():
    ws = _util.Workspace()
    made = ws.take("out", (3, 2), fill=-0.0)
    assert np.all(made == 0.0) and np.all(np.signbit(made))
    made[0, 0] = 7.0
    again = ws.take("out", (3, 2), fill=-0.0)
    assert again is made and again[0, 0] == 7.0 and np.signbit(again[1, 1])
    fresh = _util.scratch(None, "out", made, fill=-0.0)
    assert np.all(np.signbit(fresh)) and fresh.flags.c_contiguous


class _PoisonedNumpy:
    """numpy, except that ``empty`` fills each array it makes with poison:
    NaN for floats, True for bools, the most negative value for integers."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float, **kwargs):
        array = np.empty(shape, dtype, **kwargs)
        kind = array.dtype.kind
        array.fill(np.nan if kind in "fc" else True if kind == "b" else np.iinfo(array.dtype).min)
        return array


@pytest.fixture
def poisoned(monkeypatch):
    """Call a function with every array that ``Workspace.take`` and
    ``scratch`` make filled with poison, so a read before a write shows."""

    def call(fn):
        with monkeypatch.context() as patch:
            patch.setattr(_util, "np", _PoisonedNumpy())
            return fn()

    return call


def _bits(value):
    """``value`` as nested tuples that are equal only for equal bits."""
    if isinstance(value, np.ndarray):
        body = tuple(map(_bits, value.tolist())) if value.dtype == object else value.tobytes()
        return value.dtype.str, value.shape, body
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return tuple((key, _bits(v)) for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(map(_bits, value))
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _bits([getattr(value, f.name) for f in dataclasses.fields(value)])
    return value


def test_the_poison_reaches_every_new_workspace_and_scratch_array(poisoned):
    def made():
        ws = _util.Workspace()
        like = np.zeros((2, 3))
        return (ws.take("f", (2, 3)), ws.take("b", (4,), bool), ws.take("i", (4,), np.int64),
                _util.scratch(None, "f", like), _util.scratch(ws, "b", like, bool),
                ws.take("z", (2,), fill=-0.0), _util.scratch(None, "z", like, fill=1.0))

    floats, bools, ints, fresh, fresh_bools, filled, fresh_filled = poisoned(made)
    assert np.isnan(floats).all() and np.isnan(fresh).all()
    assert bools.all() and fresh_bools.all() and (ints == np.iinfo(np.int64).min).all()
    assert (filled == 0).all() and np.signbit(filled).all() and (fresh_filled == 1.0).all()


def _poison_runs():
    """The step loops and loss paths that write into workspace arrays."""
    g = generate_scene(SceneSpec(kind="two-squares-notch", dims=(24, 16), cell_size=8))
    y = one_hot(to_semantic(g, TransformConfig()), 4)
    center = probs_to_logits(y, floor=1e-3)
    theta = LogitField(np.random.default_rng(6).normal(size=y.values.shape))
    probs = ProbabilityField(0.9 * y.values + 0.025)
    runs = []
    for loss in LOSS_IDS:
        runs += [
            partial(evaluate_loss, loss, y, theta),
            partial(evaluate_loss, loss, y, probs),
            partial(gradient_check, loss, seed=3, trials=2),
            partial(landscape_scan, loss, y, center, seed=2, resolution=5, span=2.0),
        ]
        for optimizer in ("gd", "adam") if loss != "j" else ():
            cfg = TrainConfig(loss=loss, iterations=25, log_every=6, seed=8, optimizer=optimizer)
            runs.append(partial(train, y, g, cfg))
    sw = ShrinkwrapConfig(scene=SceneSpec(kind="two-squares-notch", dims=(40, 28), cell_size=8),
                          iterations=14, margin_start=4, iters_per_margin_step=2)
    return runs + [partial(run_shrinkwrap, sw),
                   partial(run_shrinkwrap, dataclasses.replace(sw, confidence_start=0.6))]


def test_poisoned_workspaces_change_no_bit_of_any_result(poisoned):
    # Every array a step reads is written first in that step, or filled
    # when made: poison in the new arrays reaches no output.
    for run in _poison_runs():
        assert _bits(poisoned(run)) == _bits(run()), run


# -- thread map ---------------------------------------------------------------


def test_ordered_thread_map_rejects_fewer_than_one_thread():
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads"):
            _util.ordered_thread_map(abs, [1, 2], threads)


@pytest.mark.parametrize("threads", [float("nan"), 2.5, 1.0, "2"])
def test_ordered_thread_map_rejects_a_thread_count_that_is_not_an_integer(threads):
    # NaN once fails both ``< 1`` and ``== 1`` and built a pool that never
    # returned, so the call runs on a daemon thread: a regression fails here.
    outcome = []

    def call():
        try:
            _util.ordered_thread_map(abs, [1, 2], threads)
        except TypeError as exc:
            outcome.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), f"threads={threads!r} hung"
    assert len(outcome) == 1 and isinstance(outcome[0], TypeError)


def test_ordered_thread_map_takes_numpy_integers():
    assert _util.ordered_thread_map(abs, [-1, -2, -3], np.int64(2)) == [1, 2, 3]


def test_ordered_thread_map_caps_workers_at_item_count(monkeypatch):
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(_util, "ThreadPoolExecutor", SerialPool)
    assert _util.ordered_thread_map(lambda x: -x, [1, 2, 3], threads=64) == [-1, -2, -3]
    assert _util.ordered_thread_map(lambda x: -x, list(range(10)), threads=4) == [
        -x for x in range(10)
    ]
    assert _util.ordered_thread_map(lambda x: -x, [5], threads=64) == [-5]
    assert seen == [3, 4]


# -- CSV writer ----------------------------------------------------------------


def _reference_csv(path, header, rows) -> None:
    """One ``csv.writer`` row per record, cells formatted one at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _g(x) -> str:
    return f"{x:.17g}"


def test_write_csv_formats_columns_and_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(_util, "CSV_CHUNK_ROWS", 3)
    rng = np.random.default_rng(0)
    reals = rng.standard_normal(8) * 10.0 ** rng.integers(-300, 300, 8)
    reals[:3] = [0.1, -0.0, np.nan]
    ints = rng.integers(-(2**40), 2**40, 8)
    names = ["a", "b,c", 'q"uote', "", "line\nbreak", "x", "y", "z"]
    maybe = [0.5, None, 1 / 3, None, 2.0, None, None, 1e-300]
    got = tmp_path / "got.csv"
    _util.write_csv(got, ["r", "i", "s", "m"], [reals, ints, names, maybe])
    want = tmp_path / "want.csv"
    _reference_csv(
        want,
        ["r", "i", "s", "m"],
        [
            [_g(r), int(i), s, "" if m is None else _g(m)]
            for r, i, s, m in zip(reals, ints, names, maybe)
        ],
    )
    assert got.read_bytes() == want.read_bytes()
    with open(got, newline="") as fh:
        assert [row[2] for row in csv.reader(fh)][1:] == names


_FLOATS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e-300, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n'), st.characters(codec="utf-8")), max_size=6)

# Per column kind: the values, the column as write_csv receives it, and the
# cell the reference writer gets.
_KINDS = {
    "float64": (_FLOATS, lambda v: np.array(v, dtype=np.float64), _g),
    "int64": (st.integers(-(2**63), 2**63 - 1), lambda v: np.array(v, dtype=np.int64), int),
    "uint16": (st.integers(0, 2**16 - 1), lambda v: np.array(v, dtype=np.uint16), int),
    "bool": (st.booleans(), lambda v: np.array(v, dtype=bool), bool),
    "float-or-None": (st.none() | _FLOATS, list, lambda v: "" if v is None else _g(v)),
    "str": (_TEXT, list, str),
}


#: Floats that format alike but differ in their bits: the writer must not
#: merge them, or merge them with anything else, when it formats each
#: distinct value once.
_LOOKALIKES = [
    -0.0,
    0.0,
    # Quiet NaNs of either sign, one with a payload, and a signalling NaN.
    *(struct.unpack("<d", struct.pack("<Q", bits))[0]
      for bits in (0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_0001,
                   0x7FF0_0000_0000_0001)),
]


def _column(draw, kind: str, rows: int, pooled: bool) -> list:
    """``rows`` values of one column kind.  A pooled column draws them from
    a pool of at most three, so a chunk holds repeats; a pooled float column
    also draws from :data:`_LOOKALIKES`."""
    values = _KINDS[kind][0]
    if not pooled:
        return draw(st.lists(values, min_size=rows, max_size=rows))
    if kind in ("float64", "float-or-None"):
        values = values | st.sampled_from(_LOOKALIKES)
    pool = draw(st.lists(values, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))


@st.composite
def _tables(draw, unique_header: bool = False):
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=5))
    if unique_header:
        header = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds), unique=True))
    else:
        header = [draw(_TEXT) for _ in kinds]
    pooled = draw(st.booleans())
    data = [_column(draw, k, rows, pooled) for k in kinds]
    return header, kinds, data


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tables(), st.integers(1, 5))
def test_write_csv_matches_the_csv_module_on_any_column_mix(tmp_path_factory, table, chunk):
    header, kinds, data = table
    d = tmp_path_factory.mktemp("csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_util, "CSV_CHUNK_ROWS", chunk)
        _util.write_csv(d / "got.csv", header, [_KINDS[k][1](v) for k, v in zip(kinds, data)])
    cells = [[_KINDS[k][2](x) for x in v] for k, v in zip(kinds, data)]
    _reference_csv(d / "want.csv", header, zip(*cells))
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_tables(unique_header=True), st.integers(1, 5), st.data())
def test_one_pass_writes_the_bytes_of_separate_writes(tmp_path_factory, table, chunk, data):
    header, kinds, values = table
    columns = [_KINDS[k][1](v) for k, v in zip(kinds, values)]
    picks = data.draw(st.lists(
        st.lists(st.integers(0, len(header) - 1), min_size=1, max_size=4), max_size=3
    ))
    d = tmp_path_factory.mktemp("csv")
    subsets = [(d / f"sub{n}.csv", [header[i] for i in idx]) for n, idx in enumerate(picks)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_util, "CSV_CHUNK_ROWS", chunk)
        _util.write_csv(d / "all.csv", header, columns, subsets)
        _util.write_csv(d / "all_ref.csv", header, columns)
        for n, idx in enumerate(picks):
            _util.write_csv(d / f"sub{n}_ref.csv", subsets[n][1], [columns[i] for i in idx])
    assert (d / "all.csv").read_bytes() == (d / "all_ref.csv").read_bytes()
    for n in range(len(picks)):
        assert (d / f"sub{n}.csv").read_bytes() == (d / f"sub{n}_ref.csv").read_bytes()


def test_write_csv_formats_each_distinct_value_once_per_chunk(tmp_path, monkeypatch):
    formatted = []

    def counting(value, spec):
        formatted.append(value)
        return format(value, spec)

    monkeypatch.setattr(_util, "format", counting, raising=False)
    monkeypatch.setattr(_util, "CSV_CHUNK_ROWS", 6)
    nan, other_nan = _LOOKALIKES[2], _LOOKALIKES[4]
    reals = np.array([0.5, -0.0, 0.5, 0.0, -0.0, nan, other_nan, 0.5, nan, 0.5])
    _util.write_csv(tmp_path / "got.csv", ["r", "same"], [reals, reals],
                    [(tmp_path / "r.csv", ["r"])])
    # Per column, chunk 1 holds 0.5, -0.0, 0.0 and a NaN; chunk 2, 0.5 and
    # two NaN payloads.
    assert len(formatted) == 2 * (4 + 3)
    _reference_csv(tmp_path / "want.csv", ["r", "same"], [[_g(r), _g(r)] for r in reals])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "r.csv").read_text().split() == ["r"] + [_g(r) for r in reals]


def test_one_pass_refuses_to_write_one_file_twice(tmp_path):
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="own path"):
        _util.write_csv(out, ["a", "b"], [[1], [2]], [(tmp_path / "." / "t.csv", ["b"])])
    assert not out.exists()


def test_write_csv_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    _util.write_csv(out, ["a", "b"], [np.zeros(0), []])
    assert out.read_bytes() == b"a,b\r\n"


def test_imbalance_and_scatter_csv_match_row_by_row(tmp_path, monkeypatch):
    # 3 ratios x 40 trials in chunks of 32 rows: the chunk seams fall inside a ratio.
    monkeypatch.setattr(_util, "CSV_CHUNK_ROWS", 32)
    cfg = ImbalanceSimConfig(classifier="c3", pis=(0.05, 0.25, 0.5), samples=200, trials=40, seed=3)
    corr = mcc_j_correlation(cfg)
    measures = ["j", "mcc", "jaccard", "f1", "tversky", "accuracy"]
    corr.table.write_csv(tmp_path / "imb.csv")
    _reference_csv(
        tmp_path / "imb_ref.csv",
        ["pi", "trial", *measures],
        [[_g(r["pi"]), int(r["trial"])] + [_g(r[m]) for m in measures] for r in corr.table.rows],
    )
    corr.write_scatter_csv(tmp_path / "scatter.csv")
    _reference_csv(
        tmp_path / "scatter_ref.csv",
        ["pi", "trial", "mcc", "j"],
        [[_g(r["pi"]), int(r["trial"]), _g(r["mcc"]), _g(r["j"])] for r in corr.table.rows],
    )
    # The CLI writes both files in one pass.
    assert dispatch(["sim-imbalance", "--classifier", "c3", "--pis", "0.05", "0.25", "0.5",
                     "--samples", "200", "--trials", "40", "--seed", "3",
                     "--out", str(tmp_path / "cli_imb.csv"),
                     "--correlation-out", str(tmp_path / "cli_scatter.csv")]) == 0
    for name in ("imb", "cli_imb"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "imb_ref.csv").read_bytes()
    for name in ("scatter", "cli_scatter"):
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / "scatter_ref.csv").read_bytes()


def test_shrinkwrap_csv_matches_row_by_row(tmp_path):
    cfg = ShrinkwrapConfig(
        scene=SceneSpec(kind="two-squares-notch", dims=(40, 28), cell_size=8),
        iterations=20,
        margin_start=6,
        iters_per_margin_step=2,
        confidence_start=0.6,
    )
    trace = run_shrinkwrap(cfg)
    trace.write_csv(tmp_path / "sw.csv")
    _reference_csv(
        tmp_path / "sw_ref.csv",
        ["iteration", "margin", "confidence", "ramp", "grad_ce", "grad_j", "grad_jc"],
        [
            [t, margin, _g(confidence), _g(ramp)] + [_g(norm) for norm in norms]
            for t, margin, confidence, ramp, *norms in zip(*trace.columns.values())
        ],
    )
    assert (tmp_path / "sw.csv").read_bytes() == (tmp_path / "sw_ref.csv").read_bytes()


def test_landscape_csv_matches_row_by_row(tmp_path):
    scene = generate_scene(SceneSpec(kind="two-squares-notch", dims=(20, 12), cell_size=6,
                                     notch_length=3))
    target = one_hot(to_semantic(scene, TransformConfig()), 4)
    result = landscape_scan("j", target, probs_to_logits(target, floor=1e-3), seed=2,
                            resolution=7, span=3.0)
    result.write_csv(tmp_path / "land.csv")
    _reference_csv(
        tmp_path / "land_ref.csv",
        ["a", "b", "loss"],
        [
            [_g(a), _g(b), _g(result.values[i, k])]
            for i, a in enumerate(result.alphas)
            for k, b in enumerate(result.betas)
        ],
    )
    assert (tmp_path / "land.csv").read_bytes() == (tmp_path / "land_ref.csv").read_bytes()


def test_evaluate_csv_matches_row_by_row(tmp_path):
    paths = []
    for seed in (1, 2):
        path = tmp_path / f"scene,{seed}.grd"  # a comma forces csv quoting
        assert dispatch(["gen-scene", "--kind", "random-blobs", "--dims", "40", "36",
                         "--blobs", "4", "--cell-size", "9", "--seed", str(seed),
                         "--out", str(path)]) == 0
        paths.append(str(path))
    gts, preds = [paths[0], paths[1], paths[0]], [paths[0], paths[0], paths[1]]
    out = tmp_path / "eval.csv"
    assert dispatch(["evaluate", "--gt", *gts, "--pred", *preds, "--seed", "0",
                     "--out", str(out)]) == 0
    rows = []
    for gt, pred in zip(gts, preds):
        report = panoptic(read_grid(gt, "instance"), read_grid(pred, "instance"))
        rows.append([gt, pred] + [_g(report[m]) for m in ("p05", "rq", "sq", "pq")])
    _reference_csv(tmp_path / "eval_ref.csv", ["gt", "pred", "p05", "rq", "sq", "pq"], rows)
    assert out.read_bytes() == (tmp_path / "eval_ref.csv").read_bytes()


def test_train_toy_csv_matches_row_by_row(tmp_path):
    out = tmp_path / "trace.csv"
    assert dispatch(["train-toy", "--dims", "24", "16", "--loss", "jc", "--iterations", "40",
                     "--log-every", "15", "--seed", "3", "--out", str(out)]) == 0
    scene = generate_scene(SceneSpec(kind="two-squares-notch", dims=(24, 16), seed=3))
    target = one_hot(to_semantic(scene, TransformConfig()), 4)
    trace = train(target, scene, TrainConfig(loss="jc", iterations=40, log_every=15, seed=3))
    assert list(trace.columns) == ["iteration", "total", "ce", "j", "grad_norm", "pq"]
    _reference_csv(
        tmp_path / "trace_ref.csv",
        list(trace.columns),
        [
            [it, _g(total), _g(ce), _g(j), _g(grad_norm), "" if pq is None else _g(pq)]
            for it, total, ce, j, grad_norm, pq in zip(*trace.columns.values())
        ],
    )
    assert out.read_bytes() == (tmp_path / "trace_ref.csv").read_bytes()
