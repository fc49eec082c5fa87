"""Self-tests of the benchmark harness: span arithmetic, wrapper hygiene,
failure accounting and input determinism."""

import importlib
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import jseg  # noqa: E402
from jseg.gridio import write_grid  # noqa: E402
from jseg.grids import SemanticLabelMap  # noqa: E402
from jsegbench import spans  # noqa: E402
from jsegbench.harness import CALIBRATION_REF_S, at_reference_speed, closed_loop, tail  # noqa: E402,E501
from jsegbench.workloads import CheckFailed, Workload, _write_noisy_probs, noisy_probs  # noqa: E402


def test_self_time_of_a_synthetic_nest():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7]; d runs on
    # another thread and has no parent.
    nest = [
        ("a", -1, 0.0, 10.0, 1),
        ("b", 0, 1.0, 4.0, 1),
        ("c", 1, 2.0, 3.0, 1),
        ("b", 0, 5.0, 7.0, 1),
        ("d", -1, 2.0, 6.0, 2),
    ]
    got = spans.summarize(nest)
    assert got["a"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert got["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert got["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert got["d"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0}


def test_recorded_spans_nest_under_their_caller():
    tracer = spans.Tracer()
    with tracer:
        jseg.cli.one_hot(SemanticLabelMap(np.array([[0, 1], [2, 3]])), 4)
    names = [(s[0], s[1]) for s in tracer.spans]
    # SemanticLabelMap is built outside one_hot; the ProbabilityField inside.
    assert names == [("grids.validate", -1), ("grids.one_hot", -1), ("grids.validate", 1)]


def _installed_wrappers(modules) -> list[str]:
    found = []
    for mod in modules:
        for key, value in vars(mod).items():
            members = vars(value).items() if isinstance(value, type) else ()
            found += [f"{mod.__name__}.{key}"] * hasattr(value, spans._MARK)
            found += [f"{mod.__name__}.{key}.{a}" for a, m in members if hasattr(m, spans._MARK)]
    return found


def test_wrappers_bind_everywhere_and_come_off():
    modules = [importlib.import_module(m) for m in spans.MODULES]
    originals = {
        name: getattr(importlib.import_module(module), attr)
        for name, (module, attr) in spans.FUNCTION_SPANS.items()
    }
    bindings = {
        name: [(mod, key) for mod in modules for key, value in vars(mod).items() if value is fn]
        for name, fn in originals.items()
    }
    assert {m.__name__ for m, _ in bindings["losses.evaluate_loss"]} >= {
        "jseg", "jseg.losses", "jseg.train", "jseg.simulate", "jseg.cli"
    }
    methods = [
        (name, getattr(importlib.import_module(module), cls), attr)
        for name, triples in spans.METHOD_SPANS.items()
        for module, cls, attr in triples
    ]
    method_originals = [vars(cls)[attr] for _, cls, attr in methods]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, places in bindings.items():
            for mod, key in places:
                assert getattr(vars(mod)[key], spans._MARK, None) == name
        for name, cls, attr in methods:
            assert getattr(vars(cls)[attr], spans._MARK, None) == name
    finally:
        tracer.uninstall()
    assert _installed_wrappers(modules) == []
    for name, places in bindings.items():
        for mod, key in places:
            assert vars(mod)[key] is originals[name]
    assert [vars(cls)[attr] for _, cls, attr in methods] == method_originals


class _FakeCli:
    def dispatch(self, argv):
        return 0


def test_failing_check_raises_failed_frac(tmp_path):
    def check(seed, workdir, oracles):
        if seed % 2:
            raise CheckFailed("odd seed")

    fake = Workload("fake", lambda s, d: [["noop"]], check)
    loop = closed_loop(_FakeCli(), fake, seed=0, seconds=0.0, workdir=tmp_path / "op", oracles=None)
    assert (loop.attempted, loop.failed_frac) == (1, 0.0)
    loop = closed_loop(_FakeCli(), fake, seed=1, seconds=0.0, workdir=tmp_path / "op", oracles=None)
    assert (loop.attempted, loop.failed_frac) == (1, 1.0)
    assert loop.failures[0]["error"] == "check failed: odd seed"


def test_tail_keeps_ten_ops_beyond_and_never_drops_below_the_median():
    assert tail([float(i) for i in range(1, 31)]) == (20.0, 200.0 / 3)
    assert tail([float(i) for i in range(1, 13)]) == (6.0, 50.0)


def test_latencies_scale_by_the_passes_on_either_side():
    passes = [CALIBRATION_REF_S, CALIBRATION_REF_S, 3 * CALIBRATION_REF_S]
    assert at_reference_speed([1.0, 4.0], passes, CALIBRATION_REF_S) == [1.0, 2.0]


def test_segment_inputs_are_deterministic_per_seed(tmp_path):
    classes = np.random.default_rng(0).integers(0, 4, size=(12, 10))
    write_grid(SemanticLabelMap(classes), tmp_path / "sem.grd")
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        _write_noisy_probs(tmp_path / "sem.grd", tmp_path / f"{name}.grd", seed, key=0)
    read = lambda name: (tmp_path / f"{name}.grd").read_bytes()  # noqa: E731
    assert read("a") == read("b")
    assert read("a") != read("c")
    probs = noisy_probs(classes, 7, key=0)
    assert np.allclose(probs.sum(axis=-1), 1.0)
    assert not np.array_equal(probs, noisy_probs(classes, 7, key=1))
