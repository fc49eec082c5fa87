"""Measure what one training step costs: ``(T(n) - T(0)) / n`` of
``jseg.train.train``, in process, for the losses and grids of the table.

T(n) is the best of a few runs of ``n`` iterations with no PQ logging
between the first and the last iteration, so setup, the input check and
the PQ measure of iteration 0 cancel in the difference.  A run of ``n > 0``
iterations also measures PQ after its last one, when the MAP map has
changed by then, so short runs on large grids read a little high.  The
scene, its transform and the target are made once per grid, outside the
timing.

Usage: ``python tools/step_cost.py`` prints a markdown table with one row
per grid (24x16, 96x96, 512x512, 64x64x64) and one column per loss (ce,
j, jc, bwm, dsc; j runs no cross entropy, so it is the control when
only the cross-entropy path changes).  ``--grids``, ``--losses``,
``--steps`` and ``--repeats`` pick a part of it or change the run lengths.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jseg import (LOSS_IDS, SceneSpec, TrainConfig, TransformConfig, generate_scene,  # noqa: E402
                  one_hot, to_semantic, train)

#: name -> (scene, iterations n of T(n), runs per T)
GRIDS = {
    "24x16": (SceneSpec(kind="two-squares-notch", dims=(24, 16), cell_size=8), 1000, 5),
    "96x96": (SceneSpec(kind="random-blobs", dims=(96, 96), cell_size=12, n_blobs=12, seed=1), 100, 3),
    "512x512": (SceneSpec(kind="random-blobs", dims=(512, 512), cell_size=16, n_blobs=200, seed=1),
                20, 3),
    "64x64x64": (SceneSpec(kind="random-blobs", dims=(64, 64, 64), cell_size=10, n_blobs=40, seed=1),
                 20, 3),
}

LOSSES = LOSS_IDS


def step_cost(spec: SceneSpec, loss: str, steps: int, repeats: int) -> float:
    """Seconds per training step of ``loss`` on the scene of ``spec``."""
    scene = generate_scene(spec)
    target = one_hot(to_semantic(scene, TransformConfig()), 4)

    def best(iterations: int) -> float:
        cfg = TrainConfig(loss=loss, iterations=iterations, log_every=iterations + 1, seed=1)
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            train(target, scene, cfg)
            times.append(time.perf_counter() - started)
        return min(times)

    return (best(steps) - best(0)) / steps


def _format(seconds: float) -> str:
    return f"{seconds * 1e6:.0f} µs" if seconds < 1e-3 else f"{seconds * 1e3:.2f} ms"


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grids", nargs="+", choices=list(GRIDS), default=list(GRIDS))
    parser.add_argument("--losses", nargs="+", choices=LOSSES, default=list(LOSSES))
    parser.add_argument("--steps", type=int, help="n of T(n) for every grid")
    parser.add_argument("--repeats", type=int, help="runs per T for every grid")
    args = parser.parse_args(argv)
    print("| grid | " + " | ".join(args.losses) + " |")
    print("|---" * (len(args.losses) + 1) + "|")
    for name in args.grids:
        spec, steps, repeats = GRIDS[name]
        steps, repeats = args.steps or steps, args.repeats or repeats
        costs = [_format(step_cost(spec, loss, steps, repeats)) for loss in args.losses]
        print(f"| {name} (T({steps}), min of {repeats}) | " + " | ".join(costs) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
