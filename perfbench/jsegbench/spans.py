"""Timing spans around the public functions of each jseg layer.

A :class:`Tracer` wraps every function listed in :data:`FUNCTION_SPANS`
and :data:`METHOD_SPANS` from outside the library: a function is replaced
in every ``jseg`` module namespace that binds it, a method on its class.
Each call records one span (name, parent span, start, end, thread) in
memory, plus the counters the workloads derive from the call's arguments.
``uninstall`` puts every original object back, so code run afterwards is
the library's own, unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from collections import defaultdict

#: Modules searched for bindings of a traced function.  ``jseg`` itself
#: re-exports most public names.
MODULES = (
    "jseg",
    "jseg._util",
    "jseg.cli",
    "jseg.gridio",
    "jseg.grids",
    "jseg.losses",
    "jseg.metrics",
    "jseg.postprocess",
    "jseg.scenes",
    "jseg.simulate",
    "jseg.train",
    "jseg.transform",
)

#: Span name -> (defining module, function name).
FUNCTION_SPANS = {
    "grids.softmax": ("jseg.grids", "softmax"),
    "grids.one_hot": ("jseg.grids", "one_hot"),
    "losses.evaluate_loss": ("jseg.losses", "evaluate_loss"),
    "losses.gradient_check": ("jseg.losses", "gradient_check"),
    "losses.finite_difference_gradient": ("jseg.losses", "finite_difference_gradient"),
    "train.train": ("jseg.train", "train"),
    "simulate.run_shrinkwrap": ("jseg.simulate", "run_shrinkwrap"),
    "scenes.generate_scene": ("jseg.scenes", "generate_scene"),
    "transform.to_semantic": ("jseg.transform", "to_semantic"),
    "transform.bottom_hat": ("jseg.transform", "bottom_hat"),
    "gridio.read_grid": ("jseg.gridio", "read_grid"),
    "gridio.write_grid": ("jseg.gridio", "write_grid"),
    "postprocess.instances_from_probs": ("jseg.postprocess", "instances_from_probs"),
    "postprocess.to_instances": ("jseg.postprocess", "to_instances"),
    "postprocess.resolve_gaps": ("jseg.postprocess", "resolve_gaps"),
    "metrics.panoptic": ("jseg.metrics", "panoptic"),
    "metrics.match_instances": ("jseg.metrics", "match_instances"),
    "simulate.run_imbalance_sim": ("jseg.simulate", "run_imbalance_sim"),
    "simulate.mcc_j_correlation": ("jseg.simulate", "mcc_j_correlation"),
    "metrics.pearson": ("jseg.metrics", "pearson"),
    "cli.dispatch": ("jseg.cli", "dispatch"),
}

#: Span name -> (module, class, method) triples that share the span.
METHOD_SPANS = {
    "grids.validate": tuple(
        ("jseg.grids", cls, "__post_init__")
        for cls in ("InstanceLabelMap", "SemanticLabelMap", "ProbabilityField", "LogitField")
    ),
    "simulate.csv": (
        ("jseg.simulate", "ImbalanceTable", "write_csv"),
        ("jseg.simulate", "CorrelationResult", "write_scatter_csv"),
        ("jseg.simulate", "ShrinkwrapTrace", "write_csv"),
    ),
}

SPAN_NAMES = tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS)

#: Counters derived from the arguments and results of traced calls.
COUNTER_NAMES = (
    "losses.evaluate_loss.elems",
    "losses.fd_forward_calls",
    "gridio.bytes_read",
    "gridio.bytes_written",
    "simulate.resampled",
    "simulate.trials_drawn",
    "train.iterations",
)

_MARK = "__jsegbench_span__"


def summarize(spans) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name.

    ``spans`` holds ``(name, parent, start, end, thread)`` tuples, where
    ``parent`` is the index of the enclosing span on the same thread or -1.
    Spans on one thread nest without overlap, so a span's self time is its
    duration minus the summed durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for idx, (name, _, start, end, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
    return dict(out)


class Tracer:
    """Installs timing wrappers, keeps their spans and counters in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counters[name] += int(n)

    def _wrap(self, name: str, fn):
        tracer = self
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                after = hook(bound)
                args, kwargs = bound.args, bound.kwargs
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, parent, start, end, threading.get_ident())
            if hook is not None:
                after(result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    # -- counter hooks: take the bound arguments, may replace some, and return
    #    the function that counts from the result

    def _hook_losses_evaluate_loss(self, bound):
        target = bound.arguments["target"]
        return lambda _: self.count("losses.evaluate_loss.elems", target.values.size)

    def _hook_losses_finite_difference_gradient(self, bound):
        forward = bound.arguments["fn"]

        def counted(theta):
            self.count("losses.fd_forward_calls", 1)
            return forward(theta)

        bound.arguments["fn"] = counted
        return lambda _: None

    def _hook_gridio_read_grid(self, bound):
        path = bound.arguments["path"]
        return lambda _: self.count("gridio.bytes_read", os.path.getsize(path))

    def _hook_gridio_write_grid(self, bound):
        path = bound.arguments["path"]
        return lambda _: self.count("gridio.bytes_written", os.path.getsize(path))

    def _hook_simulate_run_imbalance_sim(self, bound):
        def after(table):
            resampled = sum(table.resampled.values())
            self.count("simulate.resampled", resampled)
            self.count("simulate.trials_drawn", len(table.rows) + resampled)

        return after

    def _hook_train_train(self, bound):
        cfg = bound.arguments["cfg"]
        return lambda _: self.count("train.iterations", cfg.iterations)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (module, attr) in FUNCTION_SPANS.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, methods in METHOD_SPANS.items():
            for module, cls_name, attr in methods:
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

