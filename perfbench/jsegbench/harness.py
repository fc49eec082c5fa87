"""Closed-loop runner: one client, each op sent when the previous one ends.

Ops call ``jseg.cli.dispatch(argv)`` in this process, the code path of the
``jseg`` command minus interpreter start, which ``setup_s`` measures in
fresh processes.  Op ``i`` uses seed ``base + i``.  The untraced run gives
the end-to-end metrics; the traced run executes every op twice, once
untraced and once under a :class:`~jsegbench.spans.Tracer`, alternating
which goes first, and gives the per-layer metrics and the tracing
overhead.

The host these runs share changes speed by a third and more over minutes.
So the untraced run times a fixed calibration pass before the first op and
after every op, and reports op latencies at the reference speed: each is
scaled by ``CALIBRATION_REF_S`` over the mean of the passes on either side
of it.  Set-up is scaled the same way, with a bare interpreter launch as the
pass.  The wall-clock figures are stored and printed beside them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .spans import SPAN_NAMES, Tracer, summarize
from .workloads import WORKLOADS, CheckFailed

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Ops that must lie beyond the latency reported as the tail.
TAIL_BEYOND = 10
#: Seconds one calibration pass takes on the reference host, a quiet
#: 2-vCPU Intel Xeon VM with numpy 2.4 on one BLAS thread.
CALIBRATION_REF_S = 0.05
#: Seconds from launching a bare interpreter to its first output, same host.
LAUNCH_REF_S = 0.036

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_oracles(root: Path):
    """The brute-force references of ``tests/oracles.py``."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("jsegbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = out.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def calibration_pass() -> float:
    """Seconds for a fixed mix of interpreted Python, small-array and
    large-array numpy work that shares no code with jseg."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    small = rng.random((24, 16, 4))
    big = rng.random((256, 256, 4))
    for _ in range(400):
        e = np.exp(small - small.max(axis=-1, keepdims=True))
        float((e / e.sum(axis=-1, keepdims=True)).sum())
    for _ in range(4):
        e = np.exp(big - big.max(axis=-1, keepdims=True))
        float((e / e.sum(axis=-1, keepdims=True)).sum())
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.perf_counter() - start


def at_reference_speed(times: list[float], passes: list[float], ref: float) -> list[float]:
    """Scale ``times[i]`` by ``ref`` over the mean of ``passes[i]`` and
    ``passes[i + 1]``, the calibration passes just before and after it."""
    return [t * 2 * ref / (passes[i] + passes[i + 1]) for i, t in enumerate(times)]


def _time_to_ready(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"`{' '.join(argv)}` failed with exit code {proc.returncode}")
    return elapsed


def measure_setup(root: Path, workload: str, seed: int, workdir: Path):
    """Seconds from launching a fresh interpreter to its first op being
    ready, at reference speed and in wall clock.

    A bare interpreter launch, timed before the first set-up and after each,
    is the calibration pass: set-up follows the host's process-launch speed,
    not the in-process pass's.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed),
             str(workdir)]
    bare = [sys.executable, "-c", "print('ready')"]
    times, passes = [], [_time_to_ready(bare, env)]
    for _ in range(SETUP_REPEATS):
        times.append(_time_to_ready(probe, env))
        passes.append(_time_to_ready(bare, env))
    return at_reference_speed(times, passes, LAUNCH_REF_S), times


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least
    ``TAIL_BEYOND`` ops beyond it, but never below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)  # 1-based rank of the reported op
    return ordered[rank - 1], 100.0 * rank / n


def run_op(cli, workload, seed: int, workdir: Path, oracles, tracer: Tracer | None = None):
    """Run and check one op; returns (timed seconds, failure message or None)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    elapsed = 0.0
    try:
        for step in workload.steps(seed, workdir):
            if callable(step):
                step()
                continue
            if tracer is not None:
                tracer.install()
            try:
                start = time.perf_counter()
                code = cli.dispatch(step)
                elapsed += time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if code != 0:
                return elapsed, f"`jseg {' '.join(step)}` exited with {code}"
        workload.check(seed, workdir, oracles)
    except CheckFailed as exc:
        return elapsed, f"check failed: {exc}"
    except Exception:  # an escaped exception fails the op, the run goes on
        return elapsed, traceback.format_exc()
    return elapsed, None


def _layer_metrics(tracer: Tracer, ops: int, untraced_s: float, traced_s: float) -> dict:
    spans = summarize(tracer.spans)
    counters = tracer.counters
    metrics = {}
    for name in SPAN_NAMES:
        entry = spans.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"] / ops, "count/op")
        metrics[f"{name}.self_s"] = (entry["self_s"] / ops, "s/op")
    loss_s = spans.get("losses.evaluate_loss", {}).get("total_s", 0.0)
    elems = counters["losses.evaluate_loss.elems"]
    drawn = counters["simulate.trials_drawn"]
    metrics.update(
        {
            "losses.evaluate_loss.elems": (elems / ops, "count/op"),
            "losses.evaluate_loss.melems_per_s": (elems / loss_s / 1e6 if loss_s else 0.0, "Melem/s"),
            "losses.fd_forward_calls": (counters["losses.fd_forward_calls"] / ops, "count/op"),
            "gridio.bytes_read": (counters["gridio.bytes_read"] / ops, "B/op"),
            "gridio.bytes_written": (counters["gridio.bytes_written"] / ops, "B/op"),
            "simulate.run_imbalance_sim.calls_per_op": (
                metrics["simulate.run_imbalance_sim.calls"][0], "count/op"
            ),
            "simulate.resampled_frac": (
                counters["simulate.resampled"] / drawn if drawn else 0.0, "ratio"
            ),
            "train.iterations": (counters["train.iterations"] / ops, "count/op"),
            "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        }
    )
    return metrics


@dataclass
class Loop:
    """Timed seconds of each op, untraced and traced, the calibration
    passes around the untraced ops of an untraced run, and the failed ops."""

    latencies: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    passes: list[float] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.traced)

    @property
    def failed_frac(self) -> float:
        return len(self.failures) / self.attempted


def closed_loop(cli, workload, seed: int, seconds: float, workdir: Path, oracles,
                tracer: Tracer | None = None) -> Loop:
    """Send op ``i`` with seed ``seed + i`` until ``seconds`` have passed.

    With a tracer every op runs twice, untraced and traced, the order
    alternating from op to op.
    """
    loop = Loop()
    started = time.perf_counter()
    if tracer is None:
        loop.passes.append(calibration_pass())
    i = 0
    while i == 0 or time.perf_counter() - started < seconds:
        if tracer is None:
            sides = (None,)
        elif i % 2 == 0:
            sides = (None, tracer)
        else:
            sides = (tracer, None)
        for side in sides:
            elapsed, failure = run_op(cli, workload, seed + i, workdir, oracles, side)
            (loop.traced if side is not None else loop.latencies).append(elapsed)
            if failure is not None:
                loop.failures.append(
                    {"op": i, "seed": seed + i, "traced": side is not None, "error": failure}
                )
        if tracer is None:
            loop.passes.append(calibration_pass())
        i += 1
    return loop


def run(root: Path, workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``seconds`` of ops; returns the full result."""
    import jseg.cli as cli

    workload = WORKLOADS[workload_name]
    oracles = load_oracles(root)
    tracer = Tracer() if trace else None
    scratch = root / ".perfbench" / f"work-{workload_name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        if not trace:
            setup, raw_setup = measure_setup(root, workload_name, seed, scratch / "probe")
        workdir = scratch / "op"
        # One untimed op first, so lazy imports and first-call costs stay
        # out of the timed loop and out of the traced/untraced comparison.
        run_op(cli, workload, seed, workdir, oracles)
        loop = closed_loop(cli, workload, seed, seconds, workdir, oracles, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "environment": environment(root, workload_name, seed),
        "ops": len(loop.latencies),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failed_frac": loop.failed_frac,
        "failures": loop.failures,
    }
    if trace:
        result["metrics"] = _layer_metrics(
            tracer, len(loop.traced), sum(loop.latencies), sum(loop.traced)
        )
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
        return result
    latencies = at_reference_speed(loop.latencies, loop.passes, CALIBRATION_REF_S)
    op_tail, percentile = tail(latencies)
    result["tail_percentile"] = percentile
    result["setup_samples_s"] = setup
    result["raw_setup_samples_s"] = raw_setup
    result["latencies_s"] = latencies
    result["raw_latencies_s"] = loop.latencies
    result["calibration_passes_s"] = loop.passes
    result["raw_metrics"] = {
        "raw_setup_s": (statistics.median(raw_setup), "s"),
        "raw_op_p50_ms": (1e3 * statistics.median(loop.latencies), "ms"),
        "raw_ops_per_s": (len(loop.latencies) / sum(loop.latencies), "1/s"),
    }
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * op_tail,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result["metrics"] = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return result
