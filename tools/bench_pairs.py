"""Run the benchmark in two checkouts, in alternating pairs, and apply the
pair rule to every end-to-end metric.

Usage:

    python tools/bench_pairs.py PARENT CHANGE --workload segment --pairs 10

runs ``perfbench/run.py --workload W --trace 0 --seed 1`` in each checkout,
with the Python that runs this script; each run lasts the ``run_seconds``
of the checkout's BENCHMARK.json.  Before the first pair, every
``__pycache__`` under ``src/``, ``perfbench/`` and ``tools/`` of both
checkouts is removed and those trees are compiled anew, so that neither
side reads bytecode left by an earlier state of its files.  The parent
runs first in odd pairs and the change first in even ones.  Every run
prints its metrics last, as one JSON object; the script reads each
``end_to_end`` metric that the parent's BENCHMARK.json declares, and
whether lower or higher is better.  It prints each pair's values, then
for each metric:

- the pairs the change wins, and the ties, which count for neither side;
- the median of each side;
- the parent's inter-quartile distance (``statistics.quantiles``, whose
  default method is the exclusive one);
- whether a gain may be claimed: the change wins at least nine tenths of
  all pairs, its median beats the parent's by more than that distance, and
  no more of its ops fail than the parent's.
"""

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 1


def summarize(parent: list[float], change: list[float], lower_is_better: bool = True) -> dict:
    """The pair rule over ``parent[i]`` and ``change[i]``, the two runs of
    pair ``i``: wins, ties, both medians, the parent's quartiles, their
    distance, and whether the metric's gain may be claimed."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("the pair rule needs two or more pairs of runs")
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    medians = statistics.median(parent), statistics.median(change)
    return {
        "pairs": len(parent),
        "wins": wins,
        "ties": ties,
        "parent_median": medians[0],
        "change_median": medians[1],
        "parent_quartiles": (q1, q3),
        "parent_iqr": q3 - q1,
        "gain": wins >= 0.9 * len(parent) and sign * (medians[0] - medians[1]) > q3 - q1,
    }


def fresh_bytecode(checkout: Path) -> None:
    """Remove every ``__pycache__`` under ``src/``, ``perfbench/`` and
    ``tools/`` of ``checkout`` and compile those trees with the Python that
    runs this script."""
    for top in ("src", "perfbench", "tools"):
        root = checkout / top
        if root.is_dir():
            for cache in list(root.rglob("__pycache__")):
                shutil.rmtree(cache)
            if not compileall.compile_dir(root, quiet=1):
                raise RuntimeError(f"{root}: a file does not compile")


def run_once(checkout: Path, workload: str) -> tuple[dict[str, float], int]:
    """Every metric's value and the failed ops of one benchmark run in
    ``checkout``.

    A run whose last stdout line is not its JSON result raises
    ``RuntimeError`` naming the checkout, the workload, the exit code and
    the last 20 lines of stderr.  A run that prints its result and exits
    1, as the benchmark does when ops fail, still counts: its failed ops
    are in the result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0",
            "--seed", str(SEED)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = "\n".join(done.stderr.strip().splitlines()[-20:])
        raise RuntimeError(
            f"{checkout}: the {workload} run exited {done.returncode} without its result; "
            f"stderr ends:\n{tail}"
        ) from None
    return {m: v["value"] for m, v in result["metrics"].items()}, result["failed"]


def end_to_end(checkout: Path) -> dict[str, bool]:
    """Each end-to-end metric of ``checkout``'s BENCHMARK.json, mapped to
    whether a lower value is better."""
    declared = json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]
    return {m["name"]: m["better"] == "lower" for m in declared}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    metrics = end_to_end(args.parent)
    runs = {"parent": {m: [] for m in metrics}, "change": {m: [] for m in metrics}}
    failed = {"parent": 0, "change": 0}
    for checkout in (args.parent, args.change):
        fresh_bytecode(checkout)
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, n_failed = run_once(getattr(args, side), args.workload)
            for m in metrics:
                runs[side][m].append(values[m])
            failed[side] += n_failed
        pair = ", ".join(f"{m} {runs['parent'][m][-1]:.6g} / {runs['change'][m][-1]:.6g}"
                         for m in metrics)
        print(f"pair {i + 1} ({order[0]} first, parent / change): {pair}", flush=True)

    print(f"{args.workload}, {args.pairs} pairs; failed ops: parent {failed['parent']}, "
          f"change {failed['change']}")
    for m, lower in metrics.items():
        s = summarize(runs["parent"][m], runs["change"][m], lower)
        q1, q3 = s["parent_quartiles"]
        gain = s["gain"] and failed["change"] <= failed["parent"]
        print(f"{m}: change wins {s['wins']}, {s['ties']} ties; medians: parent "
              f"{s['parent_median']:.6g}, change {s['change_median']:.6g}; parent quartiles "
              f"{q1:.6g} to {q3:.6g}, distance {s['parent_iqr']:.6g}; "
              f"gain claimable: {'yes' if gain else 'no'}")


if __name__ == "__main__":
    main()
