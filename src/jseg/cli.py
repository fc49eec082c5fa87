"""Command-line interface: every operation as a subcommand.

Each run writes its outputs plus a JSON manifest carrying the fully
resolved configuration, the seed, and the tool version, so any output can
be reproduced byte for byte from its manifest.  Exit codes: 0 success,
1 usage error, 2 data error.  Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from ._util import ordered_thread_map
from .grids import one_hot, probs_to_logits, softmax
from .gridio import GridIOError, read_grid, write_grid
from .losses import evaluate_loss, gradient_check
from .metrics import panoptic
from .postprocess import PostprocessConfig, instances_from_probs
from .scenes import RANDOM_BLOBS, TWO_SQUARES_NOTCH, SceneSpec, generate_scene
from .simulate import (
    ImbalanceSimConfig,
    ShrinkwrapConfig,
    default_pi_grid,
    landscape_scan,
    mcc_j_correlation,
    run_imbalance_sim,
    run_shrinkwrap,
)
from .train import TrainConfig, train
from .transform import FOUR_CLASS, THREE_CLASS, TransformConfig, to_semantic


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _scene_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=[TWO_SQUARES_NOTCH, RANDOM_BLOBS], default=TWO_SQUARES_NOTCH)
    p.add_argument("--dims", type=int, nargs="+", default=[24, 16], help="grid extent per axis")
    p.add_argument("--cell-size", type=int, default=8)
    p.add_argument("--notch-width", type=int, default=1)
    p.add_argument("--notch-length", type=int, default=4)
    p.add_argument("--blobs", type=int, default=3)


def _scene_from(args) -> SceneSpec:
    return SceneSpec(
        kind=args.kind,
        dims=tuple(args.dims),
        cell_size=args.cell_size,
        notch_width=args.notch_width,
        notch_length=args.notch_length,
        seed=args.seed,
        n_blobs=args.blobs,
    )


def _transform_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=2, help="touching neighbourhood radius")
    p.add_argument("--gap-radius", type=int, default=3)
    p.add_argument("--classes", type=int, choices=[3, 4], default=4)


def _transform_from(args) -> TransformConfig:
    mode = FOUR_CLASS if args.classes == 4 else THREE_CLASS
    return TransformConfig(k=args.k, gap_radius=args.gap_radius, mode=mode)


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="auto-generated when omitted")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--manifest", default=None, help="manifest path (default: <out>.manifest.json)")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(args, inputs: list[str], outputs: list[str], started: float) -> None:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "manifest") and not callable(v)
    }
    manifest = {
        "tool": "jseg",
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": args.seed,
        "config": config,
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    path = args.manifest or (outputs[0] + ".manifest.json" if outputs else "run.manifest.json")
    _write_json(path, manifest)


def _target_field(args):
    semantic = read_grid(args.target, "semantic")
    channels = getattr(args, "classes", 4)
    return one_hot(semantic, channels)


def _pred_logits(args):
    if args.logits:
        return read_grid(args.logits, "logits")
    probs = read_grid(args.probs, "probs")
    return probs_to_logits(probs)


# --------------------------------------------------------------------------
# subcommands


def _cmd_gen_scene(args) -> list[str]:
    scene = generate_scene(_scene_from(args))
    write_grid(scene, args.out)
    return [args.out]


def _cmd_transform(args) -> list[str]:
    instance = read_grid(getattr(args, "in"), "instance")
    semantic = to_semantic(instance, _transform_from(args))
    write_grid(semantic, args.out)
    return [args.out]


def _cmd_loss_eval(args) -> list[str]:
    target = _target_field(args)
    pred = _pred_logits(args)
    value = evaluate_loss(args.loss, target, pred)
    payload = {
        "loss": value.total,
        "components": value.components,
        "grad_norm": value.grad_norm,
    }
    _write_json(args.out, payload)
    return [args.out]


def _cmd_grad_check(args) -> list[str]:
    report = gradient_check(args.loss, seed=args.seed, trials=args.trials, step=args.step)
    _write_json(args.out, report)
    return [args.out]


def _cmd_sim_imbalance(args) -> list[str]:
    pis = tuple(args.pis) if args.pis else default_pi_grid()
    cfg = ImbalanceSimConfig(
        classifier=args.classifier,
        pis=pis,
        samples=args.samples,
        trials=args.trials,
        seed=args.seed,
    )
    # The correlation runs the sweep itself; its table is the one written here.
    corr = mcc_j_correlation(cfg, threads=args.threads) if args.correlation_out else None
    table = corr.table if corr else run_imbalance_sim(cfg, threads=args.threads)
    table.write_csv(args.out)
    summary_path = args.summary_out or args.out + ".summary.json"
    _write_json(summary_path, {"classifier": cfg.classifier, "per_pi": table.summary()})
    outputs = [args.out, summary_path]
    if corr:
        corr.write_scatter_csv(args.correlation_out)
        corr_json = args.correlation_out + ".summary.json"
        _write_json(
            corr_json,
            {"pi": list(corr.pis), "pearson_r": list(corr.r_values)},
        )
        outputs += [args.correlation_out, corr_json]
    return outputs


def _cmd_sim_shrinkwrap(args) -> list[str]:
    cfg = ShrinkwrapConfig(
        scene=_scene_from(args),
        iterations=args.iterations,
        margin_start=args.margin,
        iters_per_margin_step=args.iters_per_step,
        confidence_start=args.confidence_start,
        confidence_final=args.confidence_final,
        transform=_transform_from(args),
    )
    trace = run_shrinkwrap(cfg)
    trace.write_csv(args.out)
    return [args.out]


def _cmd_landscape(args) -> list[str]:
    scene = generate_scene(_scene_from(args))
    semantic = to_semantic(scene, _transform_from(args))
    target = one_hot(semantic, _transform_from(args).channels)
    center = probs_to_logits(target, floor=args.confidence_floor)
    result = landscape_scan(
        args.loss,
        target,
        center,
        seed=args.seed,
        resolution=args.resolution,
        span=args.span,
        threads=args.threads,
    )
    result.write_csv(args.out)
    return [args.out]


def _cmd_postprocess(args) -> list[str]:
    probs = read_grid(getattr(args, "in"), "probs")
    cfg = PostprocessConfig(gap_mode=args.gap_mode, tau=args.tau, connectivity=args.connectivity)
    instances = instances_from_probs(probs, cfg)
    write_grid(instances, args.out)
    return [args.out]


def _cmd_evaluate(args) -> list[str]:
    if len(args.gt) != len(args.pred):
        raise UsageError("--gt and --pred need the same number of paths")
    rows = []
    for gt_path, pred_path in zip(args.gt, args.pred):
        gt = read_grid(gt_path, "instance")
        pred = read_grid(pred_path, "instance")
        report = panoptic(gt, pred)
        rows.append((gt_path, pred_path, report))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gt", "pred", "p05", "rq", "sq", "pq"])
        for gt_path, pred_path, report in rows:
            writer.writerow(
                [gt_path, pred_path]
                + [f"{report[m]:.17g}" for m in ("p05", "rq", "sq", "pq")]
            )
    summary_path = args.summary_out or args.out + ".summary.json"
    means = {
        m: float(np.mean([r[m] for _, _, r in rows])) for m in ("p05", "rq", "sq", "pq")
    }
    _write_json(summary_path, {"pairs": len(rows), "mean": means})
    return [args.out, summary_path]


def _cmd_train_toy(args) -> list[str]:
    scene = generate_scene(_scene_from(args))
    tcfg = _transform_from(args)
    semantic = to_semantic(scene, tcfg)
    target = one_hot(semantic, tcfg.channels)
    cfg = TrainConfig(
        loss=args.loss,
        step_size=args.step,
        iterations=args.iterations,
        log_every=args.log_every,
        seed=args.seed,
        optimizer=args.optimizer,
        init_noise=args.init_noise,
    )
    trace = train(target, scene, cfg)
    component_names = sorted(trace.records[0].components)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "total"] + component_names + ["grad_norm", "pq"])
        for rec in trace.records:
            writer.writerow(
                [rec.iteration, f"{rec.total:.17g}"]
                + [f"{rec.components[c]:.17g}" for c in component_names]
                + [f"{rec.grad_norm:.17g}", "" if rec.pq is None else f"{rec.pq:.17g}"]
            )
    summary_path = args.summary_out or args.out + ".summary.json"
    _write_json(
        summary_path,
        {
            "loss": cfg.loss,
            "iterations": cfg.iterations,
            "first_gap_correct": trace.first_gap_correct,
            "final_pq": trace.final_pq,
        },
    )
    return [args.out, summary_path]


# --------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="jseg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"jseg {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-scene", help="rasterize a synthetic instance scene")
    _scene_args(p)
    p.add_argument("--out", required=True)
    _common_args(p)
    p.set_defaults(func=_cmd_gen_scene)

    p = sub.add_parser("transform", help="instance map to semantic ground truth")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    _transform_args(p)
    _common_args(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("loss-eval", help="evaluate a loss on target/prediction grids")
    p.add_argument("--loss", choices=["ce", "j", "jc", "bwm", "dsc"], required=True)
    p.add_argument("--target", required=True, help="semantic ground-truth map (GRD1/PGM)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--logits", help="logit field (GRD1 f32)")
    group.add_argument("--probs", help="probability field (GRD1 f32)")
    p.add_argument("--classes", type=int, choices=[3, 4], default=4)
    p.add_argument("--out", required=True, help="JSON report path")
    _common_args(p)
    p.set_defaults(func=_cmd_loss_eval)

    p = sub.add_parser("grad-check", help="finite-difference check of a loss gradient")
    p.add_argument("--loss", choices=["ce", "j", "jc", "bwm", "dsc"], required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--out", required=True, help="JSON report path")
    _common_args(p)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("sim-imbalance", help="random-classifier imbalance sweep")
    p.add_argument("--classifier", choices=["c1", "c3"], default="c3")
    p.add_argument("--pis", type=float, nargs="+", default=None)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--out", required=True, help="per-trial CSV path")
    p.add_argument("--summary-out", default=None)
    p.add_argument("--correlation-out", default=None, help="also emit MCC/J scatter CSV")
    _common_args(p)
    p.set_defaults(func=_cmd_sim_imbalance)

    p = sub.add_parser("sim-shrinkwrap", help="prescribed shrinkwrap trajectory")
    _scene_args(p)
    p.set_defaults(kind=TWO_SQUARES_NOTCH, dims=[80, 56])
    p.add_argument("--iterations", type=int, default=85)
    p.add_argument("--margin", type=int, default=18)
    p.add_argument("--iters-per-step", type=int, default=3)
    p.add_argument("--confidence-start", type=float, default=0.95)
    p.add_argument("--confidence-final", type=float, default=0.95)
    _transform_args(p)
    p.add_argument("--out", required=True, help="trajectory CSV path")
    _common_args(p)
    p.set_defaults(func=_cmd_sim_shrinkwrap)

    p = sub.add_parser("landscape", help="2-D loss landscape around a near-optimum")
    p.add_argument("--loss", choices=["ce", "j", "jc", "bwm", "dsc"], default="jc")
    _scene_args(p)
    _transform_args(p)
    p.add_argument("--resolution", type=int, default=41)
    p.add_argument("--span", type=float, default=1.0)
    p.add_argument("--confidence-floor", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    _common_args(p)
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("postprocess", help="probability field to instance map")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gap-mode", choices=["map3", "background", "dubious"], default="map3")
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--connectivity", choices=["face", "full"], default="face")
    _common_args(p)
    p.set_defaults(func=_cmd_postprocess)

    p = sub.add_parser("evaluate", help="panoptic metrics of predicted instance maps")
    p.add_argument("--gt", nargs="+", required=True)
    p.add_argument("--pred", nargs="+", required=True)
    p.add_argument("--out", required=True, help="per-pair CSV path")
    p.add_argument("--summary-out", default=None)
    _common_args(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("train-toy", help="gradient descent on a logit field")
    _scene_args(p)
    _transform_args(p)
    p.add_argument("--loss", choices=["ce", "jc", "bwm", "dsc"], default="jc")
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--iterations", type=int, default=5000)
    p.add_argument("--log-every", type=int, default=50)
    p.add_argument("--optimizer", choices=["gd", "adam"], default="gd")
    p.add_argument("--init-noise", type=float, default=0.5)
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--summary-out", default=None)
    _common_args(p)
    p.set_defaults(func=_cmd_train_toy)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"jseg: {exc}", file=sys.stderr)
        return 1
    started = time.monotonic()
    if getattr(args, "seed", None) is None:
        args.seed = int.from_bytes(os.urandom(4), "little")
    try:
        outputs = args.func(args)
    except UsageError as exc:
        print(f"jseg: {exc}", file=sys.stderr)
        return 1
    except (GridIOError, ValueError, OSError, RuntimeError) as exc:
        print(f"jseg: {exc}", file=sys.stderr)
        return 2
    _write_manifest(args, _inputs_of(args), outputs, started)
    return 0


def _inputs_of(args) -> list[str]:
    paths = []
    for key in ("in", "target", "logits", "probs"):
        value = getattr(args, key, None)
        if value:
            paths.append(value)
    for key in ("gt", "pred"):
        value = getattr(args, key, None)
        if value:
            paths.extend(value)
    return paths


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
