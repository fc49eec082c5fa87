import argparse
import ast
import dataclasses
import errno
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import jseg
from jseg import (
    ImbalanceSimConfig,
    PostprocessConfig,
    SceneSpec,
    ShrinkwrapConfig,
    TrainConfig,
    TransformConfig,
    gradient_check,
    landscape_scan,
    read_grid,
    write_grid,
)
from jseg.cli import _build_parser, _scene_from, _transform_from, dispatch
from jseg.simulate import default_pi_grid
from children import fresh_env, run_capped


def run(*argv):
    return dispatch(list(argv))


def _scipy_imports(tree: ast.AST, in_function: bool = False):
    """Yield, for every import of scipy under ``tree``, whether it sits
    inside a function body."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        if any(m.split(".")[0] == "scipy" for m in modules):
            yield in_function
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _scipy_imports(node, inner)


def test_scipy_is_imported_only_inside_postprocess_functions():
    # Every CLI launch pays for what the package imports, and scipy.ndimage
    # is most of that: only instance labelling loads it, when it runs.
    paths = sorted(Path(jseg.__file__).parent.glob("*.py"))
    places = {path.name: list(_scipy_imports(ast.parse(path.read_text()))) for path in paths}
    assert "simulate.py" in places
    assert {name for name, found in places.items() if found} <= {"postprocess.py"}
    assert all(places["postprocess.py"])


def test_package_all_lists_its_reexports_and_no_module():
    # A star import binds the public API, not the submodules it comes from.
    names = {}
    exec("from jseg import *", names)
    assert "evaluate_loss" in jseg.__all__ and "losses" not in jseg.__all__
    for name in jseg.__all__:
        assert names[name] is getattr(jseg, name), name
        assert not isinstance(names[name], types.ModuleType), name


def test_import_cli_leaves_scipy_ndimage_unloaded():
    # concurrent.futures loads only when a thread pool runs.
    code = ("import sys, jseg.cli; "
            "print([m in sys.modules for m in ('scipy.ndimage', 'concurrent.futures')])")
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env(), check=True, timeout=120,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[False, False]"


def test_unknown_subcommand_is_usage_error(capsys):
    assert run("frobnicate") == 1
    assert "jseg:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run("gen-scene", "--out", "x.grd", "--frobnicate") == 1
    err = capsys.readouterr().err
    assert "frobnicate" in err


def test_missing_input_file_is_data_error(tmp_path, capsys):
    out = tmp_path / "h.grd"
    code = run("transform", "--in", str(tmp_path / "nope.grd"), "--out", str(out), "--seed", "1")
    assert code == 2
    assert not out.exists()


def test_gen_scene_and_transform_chain(tmp_path):
    g_path = tmp_path / "g.grd"
    h_path = tmp_path / "h.grd"
    assert run("gen-scene", "--dims", "20", "10", "--seed", "0", "--out", str(g_path)) == 0
    assert (
        run(
            "transform",
            "--in", str(g_path),
            "--out", str(h_path),
            "--k", "2",
            "--gap-radius", "3",
            "--classes", "4",
            "--seed", "0",
        )
        == 0
    )
    h = read_grid(h_path, "semantic")
    assert sorted(np.unique(h.classes)) == [0, 1, 2, 3]
    manifest = json.loads((tmp_path / "h.grd.manifest.json").read_text())
    assert manifest["subcommand"] == "transform"
    assert manifest["seed"] == 0
    assert manifest["config"]["k"] == 2
    assert str(g_path) in manifest["inputs"]


def test_manifest_written_for_every_subcommand(tmp_path):
    out = tmp_path / "scene.grd"
    assert run("gen-scene", "--out", str(out), "--seed", "4") == 0
    assert (tmp_path / "scene.grd.manifest.json").exists()


def test_seed_auto_generated_when_absent(tmp_path):
    out = tmp_path / "scene.grd"
    assert run("gen-scene", "--out", str(out)) == 0
    manifest = json.loads((tmp_path / "scene.grd.manifest.json").read_text())
    assert isinstance(manifest["seed"], int)


def test_grad_check_json(tmp_path):
    out = tmp_path / "check.json"
    assert run("grad-check", "--loss", "jc", "--seed", "7", "--trials", "10",
               "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["loss"] == "jc"
    assert report["grad_max_rel_err"] < 1e-4


def test_loss_eval_json(tmp_path):
    g = tmp_path / "g.grd"
    h = tmp_path / "h.grd"
    run("gen-scene", "--dims", "20", "10", "--seed", "0", "--out", str(g))
    run("transform", "--in", str(g), "--out", str(h), "--seed", "0")
    # logits that put ~0.999 on the right class
    semantic = read_grid(h, "semantic")
    from jseg import one_hot, probs_to_logits

    logits = probs_to_logits(one_hot(semantic, 4), floor=1e-3)
    t_path = tmp_path / "theta.grd"
    write_grid(logits, t_path)
    out = tmp_path / "loss.json"
    assert run("loss-eval", "--loss", "jc", "--target", str(h), "--logits", str(t_path),
               "--seed", "0", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"loss", "components", "grad_norm"}
    assert payload["loss"] < 0.05
    assert set(payload["components"]) == {"ce", "j"}


def test_sim_imbalance_csv_columns(tmp_path):
    out = tmp_path / "fig.csv"
    assert run("sim-imbalance", "--classifier", "c3", "--pis", "0.25", "0.5",
               "--samples", "200", "--trials", "20", "--seed", "1", "--out", str(out)) == 0
    header = out.read_text().splitlines()[0]
    assert header == "pi,trial,j,mcc,jaccard,f1,tversky,accuracy"
    summary = json.loads((tmp_path / "fig.csv.summary.json").read_text())
    assert len(summary["per_pi"]) == 2


def test_sim_imbalance_correlation_output(tmp_path):
    out = tmp_path / "fig.csv"
    corr = tmp_path / "mccj.csv"
    assert run("sim-imbalance", "--classifier", "c3", "--pis", "0.5",
               "--samples", "200", "--trials", "30", "--seed", "1",
               "--out", str(out), "--correlation-out", str(corr)) == 0
    assert corr.read_text().splitlines()[0] == "pi,trial,mcc,j"
    rs = json.loads((tmp_path / "mccj.csv.summary.json").read_text())
    assert rs["pearson_r"][0] > 0.9


def test_postprocess_and_evaluate_chain(tmp_path):
    g = tmp_path / "g.grd"
    h = tmp_path / "h.grd"
    run("gen-scene", "--dims", "24", "16", "--seed", "0", "--out", str(g))
    run("transform", "--in", str(g), "--out", str(h), "--seed", "0")
    from jseg import one_hot

    probs = one_hot(read_grid(h, "semantic"), 4)
    z_path = tmp_path / "z.grd"
    write_grid(probs, z_path)
    inst = tmp_path / "inst.grd"
    assert run("postprocess", "--in", str(z_path), "--out", str(inst), "--seed", "0") == 0
    ev = tmp_path / "eval.csv"
    assert run("evaluate", "--gt", str(g), "--pred", str(inst), "--out", str(ev),
               "--seed", "0") == 0
    lines = ev.read_text().splitlines()
    assert lines[0] == "gt,pred,p05,rq,sq,pq"
    assert lines[1].endswith(",1,1,1,1")
    summary = json.loads((tmp_path / "eval.csv.summary.json").read_text())
    assert summary["mean"]["pq"] == 1.0


def test_sim_shrinkwrap_csv(tmp_path):
    out = tmp_path / "sw.csv"
    assert run("sim-shrinkwrap", "--dims", "40", "28", "--margin", "6",
               "--iters-per-step", "2", "--iterations", "20", "--seed", "0",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,margin,confidence,ramp,grad_ce,grad_j,grad_jc"
    assert len(lines) == 21


def test_sim_shrinkwrap_takes_no_scene_kind_or_blob_count(tmp_path, capsys):
    for flags in (["--kind", "two-squares-notch"], ["--blobs", "3"]):
        assert run("sim-shrinkwrap", *flags, "--seed", "0", "--out", str(tmp_path / "sw.csv")) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_landscape_csv(tmp_path):
    out = tmp_path / "land.csv"
    assert run("landscape", "--loss", "jc", "--dims", "20", "12", "--cell-size", "6",
               "--notch-length", "3", "--resolution", "9", "--seed", "2",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b,loss"
    assert len(lines) == 1 + 81


def test_train_toy_outputs(tmp_path):
    out = tmp_path / "trace.csv"
    assert run("train-toy", "--dims", "24", "16", "--loss", "jc", "--iterations", "300",
               "--log-every", "100", "--seed", "3", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,total,ce,j,grad_norm,pq"
    summary = json.loads((tmp_path / "trace.csv.summary.json").read_text())
    assert summary["first_gap_correct"] is not None


def test_no_stray_files_written(tmp_path):
    os.chdir(tmp_path)
    out = tmp_path / "scene.grd"
    run("gen-scene", "--out", str(out), "--seed", "0")
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["scene.grd", "scene.grd.manifest.json"]


def test_gen_scene_pgm_output(tmp_path):
    out = tmp_path / "scene.pgm"
    assert run("gen-scene", "--dims", "20", "10", "--seed", "0", "--out", str(out)) == 0
    grid = read_grid(out, "instance")
    assert grid.m == 2
    assert out.read_bytes().startswith(b"P5\n")


@pytest.mark.parametrize(
    "argv_builder",
    [
        lambda d: ["gen-scene", "--kind", "random-blobs", "--dims", "30", "26", "--seed", "5",
                   "--out", str(d / "o.grd")],
        lambda d: ["grad-check", "--loss", "j", "--seed", "5", "--trials", "5",
                   "--out", str(d / "o.json")],
        lambda d: ["sim-imbalance", "--classifier", "c1", "--pis", "0.1", "--samples", "150",
                   "--trials", "12", "--seed", "5", "--out", str(d / "o.csv")],
        lambda d: ["landscape", "--dims", "20", "12", "--cell-size", "6", "--notch-length", "3",
                   "--resolution", "7", "--seed", "5", "--out", str(d / "o.csv")],
    ],
)
def test_outputs_identical_across_thread_counts(tmp_path, argv_builder):
    d1 = tmp_path / "t1"
    d8 = tmp_path / "t8"
    d1.mkdir()
    d8.mkdir()
    assert run(*argv_builder(d1), "--threads", "1") == 0
    assert run(*argv_builder(d8), "--threads", "8") == 0
    name = next(p.name for p in d1.iterdir() if not p.name.endswith("manifest.json"))
    assert (d1 / name).read_bytes() == (d8 / name).read_bytes()


@pytest.mark.parametrize(
    "scene",
    [[], ["--kind", "random-blobs", "--dims", "96", "96", "--blobs", "12", "--cell-size", "12"]],
)
def test_train_toy_output_identical_across_blas_threads(tmp_path, scene):
    # No output may depend on the BLAS thread count.  On the 96x96 field OpenBLAS
    # splits a dot product across threads.
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"trace-{threads}.csv"
        _run_fresh(threads, "train-toy", *scene, "--loss", "jc", "--iterations", "60",
                   "--log-every", "30", "--seed", "3", "--out", str(out))
        outputs.append((out.read_bytes(), Path(f"{out}.summary.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_landscape_output_identical_across_blas_threads(tmp_path):
    # OpenBLAS splits a dot product across threads above 10 000 elements, so a
    # 101x100 field is the smallest whose channel norms could tell 1 from 2.
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"land-{threads}.csv"
        _run_fresh(threads, "landscape", "--kind", "random-blobs", "--dims", "101", "100",
                   "--blobs", "4", "--cell-size", "10", "--resolution", "3", "--seed", "5",
                   "--out", str(out))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _run_fresh(blas_threads: str, *argv: str) -> None:
    """Run ``jseg`` in a new interpreter under an OpenBLAS thread count, which
    OpenBLAS reads once, when numpy loads."""
    env = fresh_env(OPENBLAS_NUM_THREADS=blas_threads)
    subprocess.run([sys.executable, "-m", "jseg.cli", *argv], env=env, check=True, timeout=300)


def test_repeated_dispatch_matches_fresh_runs(tmp_path):
    # One process, the parser reused: a flag given to one call must not leak
    # into the defaults of the next.
    calls = [
        ["gen-scene", "--dims", "30", "20", "--blobs", "2", "--seed", "1", "--out"],
        ["gen-scene", "--seed", "1", "--out"],
    ]
    fresh = []
    for i, argv in enumerate(calls):
        out = tmp_path / f"fresh-{i}.grd"
        _run_fresh("1", *argv, str(out))
        fresh.append(json.loads(Path(f"{out}.manifest.json").read_text())["config"])
    for i, argv in enumerate(calls):
        out = tmp_path / f"fresh-{i}.grd"  # the same path, so "out" matches too
        assert run(*argv, str(out)) == 0
        assert json.loads(Path(f"{out}.manifest.json").read_text())["config"] == fresh[i]
    assert fresh[1]["dims"] == [24, 16]
    assert run("gen-scene", "--bogus", "--out", str(tmp_path / "x.grd")) == 1


def test_sim_imbalance_with_correlation_runs_the_sweep_once(tmp_path, monkeypatch):
    import jseg.cli
    import jseg.simulate

    calls = []
    sweep = jseg.simulate.run_imbalance_sim

    def counted(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(jseg.simulate, "run_imbalance_sim", counted)
    monkeypatch.setattr(jseg.cli, "run_imbalance_sim", counted)
    assert run("sim-imbalance", "--pis", "0.5", "--samples", "150", "--trials", "10",
               "--seed", "1", "--out", str(tmp_path / "imb.csv"),
               "--correlation-out", str(tmp_path / "mccj.csv")) == 0
    assert len(calls) == 1


def test_one_path_for_both_sweep_csvs_is_a_data_error(tmp_path, capsys):
    # One pass writes both files, so they cannot share a path.
    out = tmp_path / "imb.csv"
    assert run("sim-imbalance", "--pis", "0.5", "--samples", "150", "--trials", "10",
               "--seed", "1", "--out", str(out), "--correlation-out", str(out)) == 2
    assert "own path" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-scene", "--out", "{d}/a.grd", "--manifest", "{d}/a.grd"],
        ["train-toy", "--iterations", "2", "--out", "{d}/t.csv", "--summary-out", "{d}/t.csv"],
        ["evaluate", "--gt", "{d}/g.grd", "--pred", "{d}/g.grd", "--out", "{d}/e.csv",
         "--summary-out", "{d}/e.csv"],
        ["sim-imbalance", "--pis", "0.5", "--samples", "150", "--trials", "10",
         "--out", "{d}/imb.csv", "--correlation-out", "{d}/mccj.csv",
         "--summary-out", "{d}/mccj.csv.summary.json"],
        ["gen-scene", "--out", "a.grd", "--manifest", "./a.grd"],
    ],
)
def test_outputs_sharing_a_path_are_a_data_error(tmp_path, monkeypatch, capsys, argv):
    # Each output would overwrite another, so the run writes nothing at all.
    monkeypatch.chdir(tmp_path)
    assert run(*(arg.format(d=tmp_path) for arg in argv), "--seed", "1") == 2
    assert "each output of a run needs its own path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train-toy", "--iterations", "2", "--summary-out", "{d}/missing/s.json"],
         "the directory of output {d}/missing/s.json does not exist"),
        (["sim-imbalance", "--pis", "0.5", "--samples", "150", "--trials", "10",
          "--correlation-out", "{d}/missing/c.csv"],
         "the directory of output {d}/missing/c.csv does not exist"),
        (["sim-imbalance", "--pis", "0.5", "--samples", "150", "--trials", "10",
          "--correlation-out", "{d}/sub"], "output {d}/sub is a directory"),
        (["train-toy", "--iterations", "2", "--manifest", "{d}/sub"], "output {d}/sub is a directory"),
        (["train-toy", "--iterations", "2", "--summary-out", "{d}/fifo"],
         "output {d}/fifo is not a regular file"),
        (["train-toy", "--iterations", "2", "--manifest", "{d}/read-only"],
         "output {d}/read-only is not writable"),
    ],
    ids=["summary-in-missing-dir", "correlation-in-missing-dir", "correlation-is-dir", "manifest-is-dir",
         "summary-is-fifo", "manifest-is-read-only"],
)
def test_an_output_that_cannot_be_written_fails_before_anything_is_written(tmp_path, monkeypatch,
                                                                           capsys, argv, message):
    # A run with an output in a missing directory, at a directory, or at a
    # file the user may not write exits 2 before it runs: a good --out from
    # an earlier run stays as it was.
    out = tmp_path / "out.csv"
    out.write_bytes(b"an earlier run's output\n")
    (tmp_path / "sub").mkdir()
    os.mkfifo(tmp_path / "fifo")  # renaming a file over it would destroy it
    (tmp_path / "read-only").write_bytes(b"{}\n")
    (tmp_path / "read-only").chmod(0o444)  # a rename would replace it all the same
    if os.geteuid() == 0:  # root may write any file: answer as its owner would
        monkeypatch.setattr(os, "access", lambda path, mode: bool(os.stat(path).st_mode & 0o200))
    before = sorted(tmp_path.rglob("*"))
    argv = [arg.format(d=tmp_path) for arg in argv]
    assert run(*argv, "--out", str(out), "--seed", "1") == 2
    assert capsys.readouterr().err == f"jseg: {message.format(d=tmp_path)}\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert out.read_bytes() == b"an earlier run's output\n"


@pytest.mark.parametrize("fault", ["full-disk", "interrupt"])
@pytest.mark.parametrize(
    "argv, csvs, first_json",
    [
        (["train-toy", "--iterations", "2", "--log-every", "1"], 1, "out.csv.summary.json"),
        (["sim-imbalance", "--pis", "0.5", "--samples", "100", "--trials", "2",
          "--correlation-out", "{d}/c.csv"], 2, "c.csv.summary.json"),
    ],
    ids=["train-toy", "sim-imbalance-correlation"],
)
def test_a_run_that_fails_midway_leaves_its_directory_as_it_found_it(tmp_path, monkeypatch, capsys,
                                                                     argv, csvs, first_json, fault):
    # The first JSON write fails after the run's CSVs are written: no output
    # appears, no temporary stays, a good --out from an earlier run stays,
    # and the message names the output being written, not its temporary.
    import jseg.cli

    out = tmp_path / "out.csv"
    out.write_bytes(b"an earlier run's output\n")
    before = sorted(tmp_path.iterdir())
    seen = {}

    def failing_write(path, payload):
        seen.update((p.name, p.stat().st_size) for p in tmp_path.iterdir())
        if fault == "interrupt":
            raise KeyboardInterrupt
        raise OSError(errno.ENOSPC, "No space left on device", path)

    monkeypatch.setattr(jseg.cli, "_write_json", failing_write)
    argv = [arg.format(d=tmp_path) for arg in argv] + ["--out", str(out), "--seed", "1"]
    if fault == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            run(*argv)
    else:
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            f"jseg: [Errno 28] No space left on device: '{tmp_path / first_json}'\n")
    assert sum(size > 0 for name, size in seen.items() if name != out.name) == csvs
    assert sorted(tmp_path.iterdir()) == before
    assert out.read_bytes() == b"an earlier run's output\n"


def test_a_symlinked_output_is_written_through_and_a_fresh_one_has_the_open_mode(tmp_path):
    # The format follows the path as given (.pgm), the bytes land in the
    # link's target, and the link stays a link.
    real = tmp_path / "elsewhere" / "real.grd"
    real.parent.mkdir()
    real.write_bytes(b"an earlier run's output\n")
    link, plain = tmp_path / "link.pgm", tmp_path / "plain.pgm"
    link.symlink_to(real)
    for out in (link, plain):
        assert run("gen-scene", "--dims", "20", "10", "--seed", "0", "--out", str(out)) == 0
    assert link.is_symlink() and link.readlink() == real
    assert real.read_bytes() == plain.read_bytes()
    assert real.read_bytes().startswith(b"P5\n")
    assert [p.name for p in real.parent.iterdir()] == ["real.grd"]
    opened = tmp_path / "opened"
    opened.open("w").close()
    assert plain.stat().st_mode == opened.stat().st_mode


def test_a_failed_rename_names_its_output_and_leaves_no_temporary(tmp_path, monkeypatch, capsys):
    # Renames are one per file: when the second fails, --out is already new,
    # the earlier manifest stays, and no temporary is left.
    out, manifest = tmp_path / "t.csv", tmp_path / "t.csv.manifest.json"
    out.write_bytes(b"an earlier run's output\n")
    manifest.write_bytes(b"an earlier run's manifest\n")
    replace, moved = os.replace, []

    def failing_replace(src, dst):
        if moved:
            raise OSError(errno.EIO, os.strerror(errno.EIO), src, dst)
        moved.append(dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert run("train-toy", "--iterations", "2", "--seed", "1", "--out", str(out)) == 2
    summary = tmp_path / "t.csv.summary.json"
    assert capsys.readouterr().err == f"jseg: [Errno 5] Input/output error: '{summary}'\n"
    assert moved == [str(out)]
    assert sorted(p.name for p in tmp_path.iterdir()) == [out.name, manifest.name]
    assert out.read_text().startswith("iteration,")
    assert manifest.read_bytes() == b"an earlier run's manifest\n"


def test_an_output_with_a_long_or_dotted_name_is_written_in_its_format(tmp_path, capsys):
    # A temporary's name stays short and ends as its output's does; a write
    # that fails names the output, here a link into a missing directory.
    long_pgm, dot_pgm = tmp_path / ("a" * 251 + ".pgm"), tmp_path / ".pgm"
    for out in (long_pgm, dot_pgm):
        assert run("gen-scene", "--dims", "20", "10", "--seed", "0", "--out", str(out),
                   "--manifest", str(tmp_path / "m.json")) == 0
        assert out.read_bytes().startswith(b"P5\n")
    link = tmp_path / "link.json"
    link.symlink_to(tmp_path / "missing" / "r.json")
    assert run("grad-check", "--loss", "ce", "--trials", "1", "--seed", "0", "--out", str(link)) == 2
    assert capsys.readouterr().err == f"jseg: [Errno 2] No such file or directory: '{link}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([long_pgm.name, ".pgm", "m.json",
                                                               "link.json"])


def test_duplicate_ratios_are_a_data_error(tmp_path, capsys):
    out = tmp_path / "imb.csv"
    assert run("sim-imbalance", "--classifier", "c1", "--pis", "0.01", "0.01", "--samples", "100",
               "--trials", "50", "--seed", "1", "--out", str(out)) == 2
    assert "distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["grad-check", "--loss", "ce", "--trials", "0"], "trials"),
        (["grad-check", "--loss", "ce", "--trials", "-3"], "trials"),
        (["grad-check", "--loss", "ce", "--trials", "1", "--step", "nan"], "step must"),
        (["grad-check", "--loss", "ce", "--trials", "1", "--step", "0"], "step must"),
        (["train-toy", "--iterations", "1", "--step", "nan"], "step size"),
        (["train-toy", "--iterations", "1", "--init-noise", "nan"], "init noise"),
        (["landscape", "--resolution", "3", "--span", "nan"], "span"),
        (["sim-imbalance", "--samples", str(10**9 + 1)], "samples"),
        (["sim-imbalance", "--pis", "1e-12", "--samples", "100", "--trials", "2"], "pi=1e-12"),
    ],
)
def test_settings_that_cannot_run_are_data_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run(*argv, "--seed", "0", "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_usage_error(tmp_path, capsys, threads):
    out = tmp_path / "s.grd"
    assert run("gen-scene", "--threads", threads, "--seed", "0", "--out", str(out)) == 1
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_loss_eval_reads_a_probability_field(tmp_path):
    # --probs reads a probability field and evaluates its logits.
    g, h = tmp_path / "g.grd", tmp_path / "h.grd"
    assert run("gen-scene", "--dims", "20", "10", "--seed", "0", "--out", str(g)) == 0
    assert run("transform", "--in", str(g), "--out", str(h), "--seed", "0") == 0
    from jseg import ProbabilityField, evaluate_loss, one_hot, probs_to_logits

    target = one_hot(read_grid(h, "semantic"), 4)
    probs = ProbabilityField(0.9 * target.values + 0.025)
    p_path = tmp_path / "p.grd"
    write_grid(probs, p_path)
    out = tmp_path / "loss.json"
    assert run("loss-eval", "--loss", "jc", "--target", str(h), "--probs", str(p_path),
               "--seed", "0", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    want = evaluate_loss("jc", target, probs_to_logits(read_grid(p_path, "probs")))
    assert payload == {"loss": want.total, "components": want.components,
                       "grad_norm": want.grad_norm}
    manifest = json.loads((tmp_path / "loss.json.manifest.json").read_text())
    assert manifest["inputs"] == sorted([str(h), str(p_path)])


def test_evaluate_with_unequal_path_counts_is_usage_error(tmp_path, capsys):
    g = tmp_path / "g.grd"
    assert run("gen-scene", "--seed", "0", "--out", str(g)) == 0
    out = tmp_path / "eval.csv"
    assert run("evaluate", "--gt", str(g), str(g), "--pred", str(g), "--seed", "0",
               "--out", str(out)) == 1
    assert "same number of paths" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "eval.csv.manifest.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.grd", "g.grd.manifest.json"]


def _cli_defaults(*argv: str) -> argparse.Namespace:
    return _build_parser().parse_args([*argv, "--out", "o"])


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def _param_defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


def test_cli_defaults_equal_the_library_defaults_they_restate():
    # Each CLI default that restates a config field or a library default must
    # equal it; the mappings from argparse dest to field are the CLI's own.
    def scene_of(ns, scene: SceneSpec) -> SceneSpec:
        ns.seed = scene.seed
        return _scene_from(ns)

    # SceneSpec has no default kind or dims; each subcommand sets its own.
    fields = _field_defaults(SceneSpec)
    for argv in (["gen-scene"], ["train-toy"], ["landscape"]):
        ns = _cli_defaults(*argv)
        scene = SceneSpec(kind=ns.kind, dims=ns.dims, **fields)
        assert scene_of(ns, scene) == scene
        if argv != ["gen-scene"]:
            assert _transform_from(ns) == TransformConfig()

    ns = _cli_defaults("transform", "--in", "i")
    assert _transform_from(ns) == TransformConfig()

    ns = _cli_defaults("train-toy")
    train = TrainConfig()
    assert (ns.loss, ns.step, ns.iterations, ns.log_every, ns.optimizer, ns.init_noise) == (
        train.loss, train.step_size, train.iterations, train.log_every, train.optimizer,
        train.init_noise)

    ns = _cli_defaults("sim-shrinkwrap")
    shrink = ShrinkwrapConfig()
    assert scene_of(ns, shrink.scene) == shrink.scene
    assert _transform_from(ns) == shrink.transform
    assert (ns.iterations, ns.margin, ns.iters_per_step, ns.confidence_start,
            ns.confidence_final) == (shrink.iterations, shrink.margin_start,
                                     shrink.iters_per_margin_step, shrink.confidence_start,
                                     shrink.confidence_final)

    ns = _cli_defaults("sim-imbalance")
    sweep = ImbalanceSimConfig()
    assert (ns.classifier, ns.samples, ns.trials) == (sweep.classifier, sweep.samples,
                                                      sweep.trials)
    assert ns.pis is None and sweep.pis == default_pi_grid()

    ns = _cli_defaults("postprocess", "--in", "i")
    post = PostprocessConfig()
    assert (ns.gap_mode, ns.tau, ns.connectivity) == (post.gap_mode, post.tau, post.connectivity)

    ns = _cli_defaults("grad-check", "--loss", "jc")
    check = _param_defaults(gradient_check)
    assert (ns.trials, ns.step) == (check["trials"], check["step"])

    ns = _cli_defaults("landscape")
    scan = _param_defaults(landscape_scan)
    assert (ns.resolution, ns.span, ns.threads) == (scan["resolution"], scan["span"],
                                                    scan["threads"])


_RUN_KEYS = {"out", "seed", "subcommand", "threads"}
_NOTCH_KEYS = {"cell_size", "dims", "notch_length", "notch_width"}
_SCENE_KEYS = _NOTCH_KEYS | {"blobs", "kind"}
_TRANSFORM_KEYS = {"classes", "gap_radius", "k"}

# The manifest config keys of every subcommand: replaying a manifest reads
# them, so a change to how the parser is built must keep them.
CONFIG_KEYS = {
    "gen-scene": _RUN_KEYS | _SCENE_KEYS,
    "transform": _RUN_KEYS | _TRANSFORM_KEYS | {"in"},
    "loss-eval": _RUN_KEYS | {"classes", "logits", "loss", "probs", "target"},
    "grad-check": _RUN_KEYS | {"loss", "step", "trials"},
    "sim-imbalance": _RUN_KEYS | {"classifier", "correlation_out", "pis", "samples",
                                  "summary_out", "trials"},
    # The shrinkwrap runs on the two-squares-notch scene only.
    "sim-shrinkwrap": _RUN_KEYS | _NOTCH_KEYS | _TRANSFORM_KEYS | {
        "confidence_final", "confidence_start", "iterations", "iters_per_step", "margin"},
    "landscape": _RUN_KEYS | _SCENE_KEYS | _TRANSFORM_KEYS | {
        "confidence_floor", "loss", "resolution", "span"},
    "postprocess": _RUN_KEYS | {"connectivity", "gap_mode", "in", "tau"},
    "evaluate": _RUN_KEYS | {"gt", "pred", "summary_out"},
    "train-toy": _RUN_KEYS | _SCENE_KEYS | _TRANSFORM_KEYS | {
        "init_noise", "iterations", "log_every", "loss", "optimizer", "step", "summary_out"},
}


def _subparsers() -> dict:
    action = next(a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    """An instance map, its semantic map and that map's one-hot field."""
    from jseg import one_hot

    d = tmp_path_factory.mktemp("grids")
    g, h, z = d / "g.grd", d / "h.grd", d / "z.grd"
    assert run("gen-scene", "--dims", "20", "10", "--seed", "0", "--out", str(g)) == 0
    assert run("transform", "--in", str(g), "--out", str(h), "--seed", "0") == 0
    write_grid(one_hot(read_grid(h, "semantic"), 4), z)
    return {"g": str(g), "h": str(h), "z": str(z)}


_SMALL_RUNS = {
    "gen-scene": ["--dims", "20", "10"],
    "transform": ["--in", "{g}"],
    "loss-eval": ["--loss", "ce", "--target", "{h}", "--probs", "{z}"],
    "grad-check": ["--loss", "ce", "--trials", "1"],
    "sim-imbalance": ["--pis", "0.5", "--samples", "100", "--trials", "2"],
    "sim-shrinkwrap": ["--dims", "40", "28", "--margin", "2", "--iters-per-step", "1",
                       "--iterations", "4"],
    "landscape": ["--dims", "20", "12", "--cell-size", "6", "--notch-length", "3",
                  "--resolution", "3"],
    "postprocess": ["--in", "{z}"],
    "evaluate": ["--gt", "{g}", "--pred", "{g}"],
    "train-toy": ["--iterations", "2", "--log-every", "1"],
}


# Runs over every subcommand, both loss-eval inputs and every optional
# output; "{d}" is the run's own directory.  The first run draws its seed.
_REPLAYS = [
    ["gen-scene", "--kind", "random-blobs", "--dims", "30", "26", "--out", "{d}/a.grd"],
    ["transform", "--in", "{g}", "--k", "3", "--seed", "4", "--out", "{d}/h.grd"],
    ["loss-eval", "--loss", "jc", "--target", "{h}", "--logits", "{t}", "--out", "{d}/l.json"],
    ["loss-eval", "--loss", "dsc", "--target", "{h}", "--probs", "{z}", "--out", "{d}/l.json"],
    ["grad-check", "--loss", "j", "--trials", "2", "--step", "1e-5", "--out", "{d}/g.json"],
    ["sim-imbalance", "--classifier", "c1", "--pis", "0.1", "0.3", "--samples", "150",
     "--trials", "12", "--summary-out", "{d}/s.json", "--out", "{d}/i.csv"],
    ["sim-imbalance", "--pis", "0.5", "0.25", "--samples", "200", "--trials", "30",
     "--threads", "2", "--correlation-out", "{d}/c.csv", "--out", "{d}/i.csv"],
    ["sim-shrinkwrap", "--dims", "40", "28", "--margin", "4", "--iters-per-step", "2",
     "--iterations", "14", "--confidence-start", "0.6", "--out", "{d}/w.csv"],
    ["landscape", "--loss", "j", "--dims", "20", "12", "--cell-size", "6", "--notch-length", "3",
     "--resolution", "5", "--span", "0.5", "--out", "{d}/s.csv"],
    ["postprocess", "--in", "{z}", "--gap-mode", "map3", "--out", "{d}/p.grd"],
    ["evaluate", "--gt", "{g}", "{g}", "--pred", "{g}", "{b}", "--out", "{d}/e.csv"],
    ["train-toy", "--loss", "dsc", "--optimizer", "adam", "--iterations", "30", "--log-every", "7",
     "--summary-out", "{d}/s.json", "--out", "{d}/t.csv"],
]


def _argv_of(manifest: dict) -> list[str]:
    """The argv a manifest records: each config key as ``--key-with-dashes``
    and its value or values, None left out."""
    argv = [manifest["subcommand"]]
    for key, value in manifest["config"].items():
        if key != "subcommand" and value is not None:
            argv.append("--" + key.replace("_", "-"))
            argv += [str(v) for v in value] if isinstance(value, list) else [str(value)]
    return argv


def _rebased(value, old: Path, new: Path):
    """``value``, any JSON value, with every path under ``old`` moved to ``new``."""
    return json.loads(json.dumps(value).replace(str(old), str(new)))


def test_rerun_from_manifest_reproduces_bytes(tmp_path, grids):
    from jseg import one_hot, probs_to_logits

    inputs = {**grids, "t": str(tmp_path / "t.grd"), "b": str(tmp_path / "b.grd")}
    write_grid(probs_to_logits(one_hot(read_grid(grids["h"], "semantic"), 4), floor=1e-3),
               inputs["t"])
    assert run("gen-scene", "--kind", "random-blobs", "--dims", "20", "10", "--blobs", "2",
               "--cell-size", "4", "--seed", "3", "--out", inputs["b"]) == 0
    for k, template in enumerate(_REPLAYS):
        first, second = tmp_path / f"{k}.first", tmp_path / f"{k}.second"
        first.mkdir()
        second.mkdir()
        argv = [arg.format(d=first, **inputs) for arg in template]
        assert run(*argv) == 0, argv
        out = argv[argv.index("--out") + 1]
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert run(*_rebased(_argv_of(manifest), first, second)) == 0, argv
        again = json.loads(Path(_rebased(out, first, second) + ".manifest.json").read_text())
        for key in ("tool", "version", "subcommand", "seed", "inputs", "config", "outputs"):
            assert again[key] == _rebased(manifest[key], first, second), (argv, key)
        written = sorted(str(p) for p in first.iterdir())
        assert written == sorted(manifest["outputs"] + [out + ".manifest.json"]), argv
        for path in manifest["outputs"]:
            want = Path(path).read_bytes()
            assert Path(_rebased(path, first, second)).read_bytes() == want, (argv, path)
    assert {argv[0] for argv in _REPLAYS} == set(_subparsers())


@pytest.mark.parametrize("name", sorted(CONFIG_KEYS))
def test_manifest_config_keys_of_every_subcommand(tmp_path, grids, name):
    assert set(_subparsers()) == set(CONFIG_KEYS) == set(_SMALL_RUNS)
    out = tmp_path / "o"
    argv = [arg.format(**grids) for arg in _SMALL_RUNS[name]]
    assert run(name, *argv, "--seed", "0", "--out", str(out)) == 0
    manifest = json.loads((tmp_path / "o.manifest.json").read_text())
    assert set(manifest["config"]) == CONFIG_KEYS[name]


def test_summary_out_is_a_flag_of_the_summary_writers_only():
    has = {name for name, p in _subparsers().items() if "--summary-out" in p._option_string_actions}
    assert has == {"sim-imbalance", "evaluate", "train-toy"}


@pytest.mark.parametrize("name", sorted(CONFIG_KEYS))
def test_help_exits_zero_for_every_subcommand(capsys, name):
    with pytest.raises(SystemExit) as stop:
        dispatch([name, "--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert "--out" in out
    for flag in ("--kind", "--blobs"):  # the flags of a choice of scene
        assert (flag in out) == ("kind" in CONFIG_KEYS[name]), flag


_OUT_OF_MEMORY = {
    # 100000 x 100000 int32 labels: 37.3 GiB.
    "gen-scene": ["gen-scene", "--dims", "100000", "100000"],
    # A 20 x 10 scene padded by twice a radius of 10**6: 14.6 TiB of bool.
    "transform": ["transform", "--in", "{scene}", "--gap-radius", "1000000"],
    # 40000 x 40000 int32 labels: 5.96 GiB.
    "train-toy": ["train-toy", "--dims", "40000", "40000", "--iterations", "1"],
}


@pytest.mark.parametrize("probe", sorted(_OUT_OF_MEMORY))
def test_running_out_of_memory_is_a_data_error_not_a_traceback(tmp_path, probe):
    scene = tmp_path / "scene.grd"
    if probe == "transform":
        assert run("gen-scene", "--dims", "20", "10", "--seed", "0", "--out", str(scene)) == 0
    before = set(tmp_path.iterdir())
    argv = [arg.format(scene=scene) for arg in _OUT_OF_MEMORY[probe]]
    done = run_capped("-m", "jseg.cli", *argv, "--seed", "0", "--out", str(tmp_path / "out"))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("jseg: not enough memory: ")
    assert "Traceback" not in done.stderr
    assert set(tmp_path.iterdir()) == before
