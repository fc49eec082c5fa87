"""Command-line interface: every operation as a subcommand.

Each run writes its outputs plus a JSON manifest carrying the fully
resolved configuration, the seed, and the tool version, so any output can
be reproduced byte for byte from its manifest.  A run's output paths
(``--out``, the summaries, ``--correlation-out`` and the manifest) must
all name different files, in directories that exist; a run whose paths
collide, or whose output lies in a missing directory, is a directory or
any other file that is not a regular one, or is a file the user may not
write, writes nothing and exits 2.
Exit codes: 0 success, 1 usage error, 2 data error or not enough memory.
Diagnostics go to stderr only.

``_outputs_of`` is the one place that names a run's files; each handler
takes its output paths as parameters and never derives one.  A run's files
appear only once all of them are written, the manifest last.  ``dispatch``
names one temporary per output, runs the handler on those paths and writes
the manifest into the last; only then does it move each temporary over its
output with ``os.replace``, the manifest last.  On any error, an interrupt
included, it removes every temporary, so a run that fails before its
renames leaves the directory as it found it.  Each file is replaced whole,
but the renames are not one atomic step: should one fail, the outputs
before it are already new, and only a manifest that the run wrote marks it
complete.

A temporary is named ``.<16 random hex digits><tail>``, where ``<tail>``
is the last four characters of the output's basename, as many as ``.pgm``
has: a writer that picks its format by suffix picks the one the output
asks for, and the name stays short however long the output's is.  It lies
in the directory of the output's real path, so the rename stays on one
filesystem and a symlinked output is written through, the link kept.  The
writer's own ``open`` creates it, with the mode a plain ``open`` gives: 64
random bits name no file that exists, and a file made beforehand would be
truncated by that ``open``, which on ext4 starts writing it back at close.
An ``OSError`` that names a temporary is raised again naming its output, so
each message names a path the user gave.  Since a rename needs write access
to the directory only, the up-front check refuses an existing output that
the user may not write, which a plain ``open`` would refuse too.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time

import numpy as np

from . import __version__
from ._util import write_csv
from .grids import InstanceLabelMap, ProbabilityField, one_hot, probs_to_logits
from .gridio import GridIOError, read_grid, write_grid
from .losses import LOSS_IDS, evaluate_loss, gradient_check
from .metrics import panoptic
from .postprocess import CONNECTIVITIES, GAP_MODES, PostprocessConfig, instances_from_probs
from .scenes import SCENE_KINDS, TWO_SQUARES_NOTCH, SceneSpec, generate_scene
from .simulate import (
    CLASSIFIERS,
    ImbalanceSimConfig,
    ShrinkwrapConfig,
    default_pi_grid,
    landscape_scan,
    mcc_j_correlation,
    run_imbalance_sim,
    run_shrinkwrap,
)
from .train import OPTIMIZERS, TrainConfig, train
from .transform import FOUR_CLASS, THREE_CLASS, TransformConfig, to_semantic


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _default(fn, name: str):
    """The default of parameter ``name`` of ``fn``."""
    return inspect.signature(fn).parameters[name].default


def _scene_args(p: argparse.ArgumentParser, kinds: bool = True) -> None:
    """The scene flags; without ``kinds``, only the two-squares-notch
    scene's, leaving out ``--kind`` and ``--blobs``."""
    if kinds:
        p.add_argument("--kind", choices=SCENE_KINDS, default=TWO_SQUARES_NOTCH)
        p.add_argument("--blobs", type=int, default=SceneSpec.n_blobs)
    p.add_argument("--dims", type=int, nargs="+", default=[24, 16], help="grid extent per axis")
    p.add_argument("--cell-size", type=int, default=SceneSpec.cell_size)
    p.add_argument("--notch-width", type=int, default=SceneSpec.notch_width)
    p.add_argument("--notch-length", type=int, default=SceneSpec.notch_length)


def _scene_from(args) -> SceneSpec:
    return SceneSpec(
        kind=vars(args).get("kind", TWO_SQUARES_NOTCH),
        dims=tuple(args.dims),
        cell_size=args.cell_size,
        notch_width=args.notch_width,
        notch_length=args.notch_length,
        seed=args.seed,
        n_blobs=vars(args).get("blobs", SceneSpec.n_blobs),
    )


def _transform_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=TransformConfig.k, help="touching neighbourhood radius")
    p.add_argument("--gap-radius", type=int, default=TransformConfig.gap_radius)
    p.add_argument("--classes", type=int, choices=[3, 4], default=4)


def _transform_from(args) -> TransformConfig:
    mode = FOUR_CLASS if args.classes == 4 else THREE_CLASS
    return TransformConfig(k=args.k, gap_radius=args.gap_radius, mode=mode)


def _scene_target(args) -> tuple[InstanceLabelMap, ProbabilityField]:
    """The scene of the flags and its one-hot semantic target."""
    scene = generate_scene(_scene_from(args))
    transform = _transform_from(args)
    return scene, one_hot(to_semantic(scene, transform), transform.channels)


def _command(sub, name: str, func, help: str, out_help: str | None = None,
             summary: bool = False) -> _Parser:
    """Add subcommand ``name``, run by ``func``, with the flags every
    subcommand takes; ``summary`` adds ``--summary-out``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--out", required=True, help=out_help)
    if summary:
        p.add_argument("--summary-out", default=None)
    p.add_argument("--seed", type=int, default=None, help="auto-generated when omitted")
    p.add_argument("--threads", type=int, default=1, help="threads for landscape rows only")
    p.add_argument("--manifest", default=None, help="manifest path (default: <out>.manifest.json)")
    p.set_defaults(func=func)
    return p


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# subcommands


def _cmd_gen_scene(args, out) -> None:
    scene = generate_scene(_scene_from(args))
    write_grid(scene, out)


def _cmd_transform(args, out) -> None:
    instance = read_grid(getattr(args, "in"), "instance")
    semantic = to_semantic(instance, _transform_from(args))
    write_grid(semantic, out)


def _cmd_loss_eval(args, out) -> None:
    target = one_hot(read_grid(args.target, "semantic"), args.classes)
    if args.logits:
        pred = read_grid(args.logits, "logits")
    else:
        pred = probs_to_logits(read_grid(args.probs, "probs"))
    value = evaluate_loss(args.loss, target, pred)
    payload = {
        "loss": value.total,
        "components": value.components,
        "grad_norm": value.grad_norm,
    }
    _write_json(out, payload)


def _cmd_grad_check(args, out) -> None:
    report = gradient_check(args.loss, seed=args.seed, trials=args.trials, step=args.step)
    _write_json(out, report)


def _cmd_sim_imbalance(args, out, summary, corr_out=None, corr_summary=None) -> None:
    pis = tuple(args.pis) if args.pis else default_pi_grid()
    cfg = ImbalanceSimConfig(
        classifier=args.classifier,
        pis=pis,
        samples=args.samples,
        trials=args.trials,
        seed=args.seed,
    )
    # The correlation runs the sweep itself; its table is the one written here.
    corr = mcc_j_correlation(cfg) if corr_out else None
    table = corr.table if corr else run_imbalance_sim(cfg)
    if corr:
        # One pass writes both CSVs, formatting their shared columns once.
        corr.write_scatter_csv(corr_out, out)
        _write_json(corr_summary, {"pi": list(corr.pis), "pearson_r": list(corr.r_values)})
    else:
        table.write_csv(out)
    _write_json(summary, {"classifier": cfg.classifier, "per_pi": table.summary()})


def _cmd_sim_shrinkwrap(args, out) -> None:
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
    trace.write_csv(out)


def _cmd_landscape(args, out) -> None:
    _, target = _scene_target(args)
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
    result.write_csv(out)


def _cmd_postprocess(args, out) -> None:
    probs = read_grid(getattr(args, "in"), "probs")
    cfg = PostprocessConfig(gap_mode=args.gap_mode, tau=args.tau, connectivity=args.connectivity)
    instances = instances_from_probs(probs, cfg)
    write_grid(instances, out)


def _cmd_evaluate(args, out, summary) -> None:
    if len(args.gt) != len(args.pred):
        raise UsageError("--gt and --pred need the same number of paths")
    reports = [
        panoptic(read_grid(gt_path, "instance"), read_grid(pred_path, "instance"))
        for gt_path, pred_path in zip(args.gt, args.pred)
    ]
    columns = {m: [r[m] for r in reports] for m in ("p05", "rq", "sq", "pq")}
    write_csv(out, ["gt", "pred", *columns], [args.gt, args.pred, *columns.values()])
    means = {m: float(np.mean(col)) for m, col in columns.items()}
    _write_json(summary, {"pairs": len(reports), "mean": means})


def _cmd_train_toy(args, out, summary) -> None:
    scene, target = _scene_target(args)
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
    write_csv(out, list(trace.columns), list(trace.columns.values()))
    _write_json(
        summary,
        {
            "loss": cfg.loss,
            "iterations": cfg.iterations,
            "first_gap_correct": trace.first_gap_correct,
            "final_pq": trace.final_pq,
        },
    )


# --------------------------------------------------------------------------


# Built once per process: parsing reads the parser and never changes it.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="jseg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"jseg {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = _command(sub, "gen-scene", _cmd_gen_scene, "rasterize a synthetic instance scene")
    _scene_args(p)

    p = _command(sub, "transform", _cmd_transform, "instance map to semantic ground truth")
    p.add_argument("--in", required=True)
    _transform_args(p)

    p = _command(sub, "loss-eval", _cmd_loss_eval, "evaluate a loss on target/prediction grids",
                 "JSON report path")
    p.add_argument("--loss", choices=LOSS_IDS, required=True)
    p.add_argument("--target", required=True, help="semantic ground-truth map (GRD1/PGM)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--logits", help="logit field (GRD1 f32)")
    group.add_argument("--probs", help="probability field (GRD1 f32)")
    p.add_argument("--classes", type=int, choices=[3, 4], default=4)

    p = _command(sub, "grad-check", _cmd_grad_check, "finite-difference check of a loss gradient",
                 "JSON report path")
    p.add_argument("--loss", choices=LOSS_IDS, required=True)
    p.add_argument("--trials", type=int, default=_default(gradient_check, "trials"))
    p.add_argument("--step", type=float, default=_default(gradient_check, "step"))

    p = _command(sub, "sim-imbalance", _cmd_sim_imbalance, "random-classifier imbalance sweep",
                 "per-trial CSV path", summary=True)
    p.add_argument("--classifier", choices=CLASSIFIERS, default=ImbalanceSimConfig.classifier)
    p.add_argument("--pis", type=float, nargs="+", default=None)
    p.add_argument("--samples", type=int, default=ImbalanceSimConfig.samples)
    p.add_argument("--trials", type=int, default=ImbalanceSimConfig.trials)
    p.add_argument("--correlation-out", default=None, help="also emit MCC/J scatter CSV")

    p = _command(sub, "sim-shrinkwrap", _cmd_sim_shrinkwrap, "prescribed shrinkwrap trajectory",
                 "trajectory CSV path")
    _scene_args(p, kinds=False)
    p.set_defaults(dims=list(ShrinkwrapConfig.scene.dims))
    p.add_argument("--iterations", type=int, default=ShrinkwrapConfig.iterations)
    p.add_argument("--margin", type=int, default=ShrinkwrapConfig.margin_start)
    p.add_argument("--iters-per-step", type=int, default=ShrinkwrapConfig.iters_per_margin_step)
    p.add_argument("--confidence-start", type=float, default=ShrinkwrapConfig.confidence_start)
    p.add_argument("--confidence-final", type=float, default=ShrinkwrapConfig.confidence_final)
    _transform_args(p)

    p = _command(sub, "landscape", _cmd_landscape, "2-D loss landscape around a near-optimum")
    p.add_argument("--loss", choices=LOSS_IDS, default="jc")
    _scene_args(p)
    _transform_args(p)
    p.add_argument("--resolution", type=int, default=_default(landscape_scan, "resolution"))
    p.add_argument("--span", type=float, default=_default(landscape_scan, "span"))
    p.add_argument("--confidence-floor", type=float, default=1e-3)

    p = _command(sub, "postprocess", _cmd_postprocess, "probability field to instance map")
    p.add_argument("--in", required=True)
    p.add_argument("--gap-mode", choices=GAP_MODES, default=PostprocessConfig.gap_mode)
    p.add_argument("--tau", type=float, default=PostprocessConfig.tau)
    p.add_argument("--connectivity", choices=CONNECTIVITIES, default=PostprocessConfig.connectivity)

    p = _command(sub, "evaluate", _cmd_evaluate, "panoptic metrics of predicted instance maps",
                 "per-pair CSV path", summary=True)
    p.add_argument("--gt", nargs="+", required=True)
    p.add_argument("--pred", nargs="+", required=True)

    p = _command(sub, "train-toy", _cmd_train_toy, "gradient descent on a logit field",
                 "trace CSV path", summary=True)
    _scene_args(p)
    _transform_args(p)
    losses = [loss for loss in LOSS_IDS if loss != "j"]
    p.add_argument("--loss", choices=losses, default=TrainConfig.loss)
    p.add_argument("--step", type=float, default=TrainConfig.step_size,
                   help="gradient-descent step; adam ignores it and runs at its fixed 1e-4")
    p.add_argument("--iterations", type=int, default=TrainConfig.iterations)
    p.add_argument("--log-every", type=int, default=TrainConfig.log_every)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default=TrainConfig.optimizer)
    p.add_argument("--init-noise", type=float, default=TrainConfig.init_noise)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.threads < 1:
            raise UsageError(f"--threads must be >= 1, got {args.threads}")
        outputs = _outputs_of(args)
        targets = [os.path.realpath(path) for path in outputs]
        if len(set(targets)) < len(targets):
            raise ValueError("each output of a run needs its own path")
        for path in outputs:
            if os.path.exists(path) and not os.path.isfile(path):
                kind = "a directory" if os.path.isdir(path) else "not a regular file"
                raise ValueError(f"output {path} is {kind}")
            if os.path.exists(path) and not os.access(path, os.W_OK):
                raise ValueError(f"output {path} is not writable")
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"the directory of output {path} does not exist")
        started = time.monotonic()
        if args.seed is None:
            args.seed = int.from_bytes(os.urandom(4), "little")
        _run(args, outputs, targets, started)
    except UsageError as exc:
        print(f"jseg: {exc}", file=sys.stderr)
        return 1
    except (GridIOError, ValueError, OSError, RuntimeError) as exc:
        print(f"jseg: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"jseg: not enough memory: {exc}", file=sys.stderr)
        return 2
    return 0


def _inputs_of(args) -> list[str]:
    paths = [getattr(args, key, None) for key in ("in", "target", "logits", "probs")]
    paths += [path for key in ("gt", "pred") for path in getattr(args, key, None) or []]
    return [path for path in paths if path]


def _outputs_of(args) -> list[str]:
    """Every file the run writes, in the order its handler takes them, the
    manifest last.  A summary JSON goes beside its CSV, at
    ``<path>.summary.json``, unless ``--summary-out`` names ``--out``'s."""
    paths = [args.out]
    if "summary_out" in args:
        paths.append(args.summary_out or args.out + ".summary.json")
    if getattr(args, "correlation_out", None):
        paths += [args.correlation_out, args.correlation_out + ".summary.json"]
    return paths + [args.manifest or args.out + ".manifest.json"]


def _run(args, outputs: list[str], targets: list[str], started: float) -> None:
    """Run the handler of ``args`` on a temporary per output of
    ``outputs``, named as the module docstring says, write the manifest into
    the last, then move each temporary over its output's real path in
    ``targets``, the manifest last.  Whether the run ends well or not, no
    temporary is left."""
    temps = [os.path.join(os.path.dirname(t), f".{os.urandom(8).hex()}{os.path.basename(p)[-4:]}")
             for p, t in zip(outputs, targets)]
    try:
        args.func(args, *temps[:-1])
        manifest = {
            "tool": "jseg",
            "version": __version__,
            "subcommand": args.subcommand,
            "seed": args.seed,
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k != "manifest" and not callable(v)},
            "inputs": sorted(_inputs_of(args)),
            "outputs": sorted(outputs[:-1]),
            "wall_time_s": round(time.monotonic() - started, 6),
        }
        _write_json(temps[-1], manifest)
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    except OSError as exc:  # name the output the user gave, not its temporary
        for temp, path in zip(temps, outputs):
            if temp in (exc.filename, exc.filename2):
                raise OSError(exc.errno, exc.strerror, path) from exc
        raise
    finally:
        for temp in temps:  # one moved into place, or never written, is gone
            if os.path.lexists(temp):
                os.remove(temp)


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
