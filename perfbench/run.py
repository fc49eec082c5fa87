"""Benchmark of the ``jseg`` command line: four closed-loop workloads.

Run from the root of a jseg checkout:

    python3 perfbench/run.py --workload toy --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Each workload runs in its own process for ``--seconds`` (default: the
``run_seconds`` of BENCHMARK.json), checks every op's output, prints each
metric by name with its unit and, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The full
result, with its environment record and, when traced, its spans, is written
under ``.perfbench/results/``.  The exit code is 0 only when every op of
every workload passed its check.
"""

import os

# Fixed before numpy loads: the only parallelism measured is --threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from jsegbench.workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="op i uses seed + i")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    return parser.parse_args(argv)


def _run_one(name: str, args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from jsegbench.harness import run

    result = run(ROOT, name, args.seed, args.seconds, bool(args.trace))
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{name}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans))
    stem.with_name(stem.name + ".json").write_text(json.dumps(result, indent=1))

    for failure in result["failures"]:
        print(f"{name}: op {failure['op']} (seed {failure['seed']}) failed: {failure['error']}",
              file=sys.stderr)
    print(f"{name}: environment {json.dumps(result['environment'])}")
    print(f"{name}: {result['ops']} ops, failed_frac {result['failed_frac']:.4g} "
          f"({result['failed']} of {result['attempted']})")
    if "tail_percentile" in result:
        print(f"{name}: op_tail_ms is p{result['tail_percentile']:.1f} of {result['ops']} ops")
    for metric, (value, unit) in result["metrics"].items():
        print(f"{name}: {metric} {value:.6g} {unit}")
    for metric, (value, unit) in result.get("raw_metrics", {}).items():
        print(f"{name}: {metric} {value:.6g} {unit} (wall clock, not scaled)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["failed"] == 0 else 1


def main(argv=None) -> int:
    args = _parse(argv)
    for required in (ROOT / "src" / "jseg" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not required.is_file():
            print(f"perfbench: {required.relative_to(ROOT)} not found; run from a jseg checkout",
                  file=sys.stderr)
            return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(WORKLOADS) if "all" in args.workload else list(dict.fromkeys(args.workload))
    if len(names) == 1:
        return _run_one(names[0], args)
    # One process per workload, so each gets its own set-up and peak RSS.
    codes = [
        subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
        for name in names
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
