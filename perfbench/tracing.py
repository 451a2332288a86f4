"""Outside-in span tracing of the tvclust modules.

The package binds most of its cross-module calls with ``from .x import
name``, so a function lives under several module namespaces at once.
``Tracer.install`` wraps each traced function once and puts the wrapper
into every ``tvclust`` namespace that holds the original object; patching
only the defining module would leave most calls unseen.  The harness's
``ThreadPoolExecutor`` is replaced the same way, so restart tasks carry the
submitting span as their parent and their queue wait is measured.

Spans (id, name, start, end, parent id, work count) are kept in memory and
turned into per-layer numbers by ``layer_stats``.  Nothing in ``src/`` is
edited.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (layer, function) pairs that are traced, and the metric name each one
# reports under.  A name missing from the package is an error: a renamed or
# merged function must be traced under its new name, not silently dropped.
TRACED = {
    "data": {"generate": "generate", "load_csv": "load_csv", "save_csv": "save_csv"},
    "models": {
        "squared_distances": "squared_distances",
        "log_joints": "log_joints",
        "responsibilities_exact": "responsibilities_exact",
    },
    "truncation": {
        "select_nearest": "select_nearest",
        "lazy_reassign": "lazy_reassign",
        "sigma_pi_scores": "sigma_pi_scores",
        "truncated_responsibilities": "truncated_responsibilities",
    },
    "engine": {
        "run": "run",
        "seed_dsquared": "seed",
        "seed_uniform": "seed",
        "m_step_iso": "m_step_iso",
        "m_step_general": "m_step_general",
        "kmeans_step": "step",
        "tvem_step": "step",
        "lazy_step": "step",
        "em_gmm_step": "step",
        "sigma_pi_step": "step",
    },
    "diagnostics": {
        "objective_j": "objective_j",
        "free_energy_trunc": "free_energy_trunc",
        "log_likelihood": "log_likelihood",
    },
    "harness": {"run_experiment": "run_experiment", "emit": "emit"},
    "cli": {"main": "main"},
}


def _rows(x):
    points = getattr(x, "points", x)
    shape = getattr(points, "shape", None)
    if shape is None:
        return len(points)
    return shape[0] if len(shape) else 1


def _distance_pairs(name, args):
    """Point-centre pairs evaluated by the innermost distance call.

    ``squared_distances`` is the innermost call of the isotropic path.  The
    general-model ``log_joints`` evaluates its Mahalanobis distances itself,
    so it is counted only when the model has covariances (the isotropic
    ``log_joints`` delegates to ``squared_distances``, counted there).
    """
    if name == "models.squared_distances" and len(args) >= 2:
        return _rows(args[0]) * _rows(args[1])
    if name == "models.log_joints" and len(args) >= 2 and hasattr(args[1], "covs"):
        return _rows(args[0]) * args[1].c
    return 0


class _Span:
    __slots__ = ("id", "name", "start", "end", "parent", "work")

    def __init__(self, span_id, name, start, parent, work):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.work = work


class Tracer:
    """Collects spans from wrapped tvclust functions, across threads."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spans = []
        self._tasks = []  # (submit time, start time) per pool task
        self._pools = []  # max_workers of each traced pool
        self._patched = []  # (namespace, attribute, original)

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = _Span(
                next(tracer._ids),
                name,
                time.perf_counter(),
                stack[-1] if stack else None,
                _distance_pairs(name, args),
            )
            stack.append(span.id)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                tracer._spans.append(span)

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer._pools.append(self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                submitted = time.perf_counter()

                def task():
                    tracer._tasks.append((submitted, time.perf_counter()))
                    tracer._local.stack = [parent] if parent is not None else []
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.stack = []

                return super().submit(task)

        return TracedPool

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "tvclust" or modname.startswith("tvclust.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self):
        """Wrap every traced function in every tvclust namespace holding it."""
        for layer, functions in TRACED.items():
            module = importlib.import_module(f"tvclust.{layer}")
            for fn_name, metric in functions.items():
                original = getattr(module, fn_name, None)
                if not callable(original):
                    raise LookupError(f"tvclust.{layer}.{fn_name} is not there to trace")
                self._replace_everywhere(original, self._wrap(f"{layer}.{metric}", original))
        harness = importlib.import_module("tvclust.harness")
        if not hasattr(harness, "ThreadPoolExecutor"):
            raise LookupError("tvclust.harness.ThreadPoolExecutor is not there to trace")
        self._replace_everywhere(harness.ThreadPoolExecutor, self._pool_class())

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self):
        """Return and clear the spans, task timings and pool sizes so far."""
        spans, tasks, pools = self._spans, self._tasks, self._pools
        self._spans, self._tasks, self._pools = [], [], []
        return spans, tasks, pools


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_stats(spans, tasks, pools):
    """Self time, call count and work per span name, plus pool figures.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; children running in parallel threads are merged
    before subtracting.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    stats = {}
    for span in spans:
        own = span.end - span.start - _covered(span.start, span.end, children.get(span.id, ()))
        entry = stats.setdefault(span.name, {"self_s": 0.0, "calls": 0, "work": 0})
        entry["self_s"] += own
        entry["calls"] += 1
        entry["work"] += span.work
    pool = {"queue_wait_s": 0.0, "busy_frac": 0.0}
    if tasks:
        pool["queue_wait_s"] = sum(start - sub for sub, start in tasks) / len(tasks)
    experiments = [s for s in spans if s.name == "harness.run_experiment"]
    if experiments and pools:
        ids = {s.id for s in experiments}
        busy = sum(s.end - s.start for s in spans if s.name == "engine.run" and s.parent in ids)
        wall = sum(s.end - s.start for s in experiments)
        pool["busy_frac"] = busy / (wall * max(pools))
    return stats, pool
