import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jseg
from jseg import read_grid, write_grid
from jseg.cli import dispatch


def run(*argv):
    return dispatch(list(argv))


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


def test_rerun_from_manifest_reproduces_bytes(tmp_path):
    out1 = tmp_path / "a.grd"
    assert run("gen-scene", "--kind", "random-blobs", "--dims", "30", "26",
               "--out", str(out1)) == 0
    manifest = json.loads((tmp_path / "a.grd.manifest.json").read_text())
    # replay the resolved config recorded in the manifest
    cfg = manifest["config"]
    out2 = tmp_path / "b.grd"
    argv = ["gen-scene", "--kind", cfg["kind"], "--cell-size", str(cfg["cell_size"]),
            "--blobs", str(cfg["blobs"]), "--seed", str(manifest["seed"]),
            "--threads", str(cfg["threads"]), "--out", str(out2)]
    argv += ["--dims"] + [str(n) for n in cfg["dims"]]
    assert run(*argv) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
    # splits a dot product across threads.  It reads its thread count when
    # numpy loads, so each count gets a fresh interpreter.
    src = str(Path(jseg.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"trace-{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "jseg.cli", "train-toy", *scene, "--loss", "jc",
                "--iterations", "60", "--log-every", "30", "--seed", "3", "--out", str(out)]
        subprocess.run(argv, env=env, check=True, timeout=300)
        outputs.append((out.read_bytes(), Path(f"{out}.summary.json").read_bytes()))
    assert outputs[0] == outputs[1]


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
