"""Set-up, timed reps, checks and the result line of one benchmark run."""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tvclust.cli
import tvclust.data
import workloads
from tracing import Tracer, layer_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs in rounds, one before each rep, so its samples spread over
# the run like the reps do.  A round repeats generate + save_csv for at
# least SETUP_ROUND_S (the small dataset takes milliseconds); setup_s is
# the median over all of them.
SETUP_ROUND_S = 0.25
MAX_SETUPS_PER_ROUND = 50

# Spans reported per layer.  A self time is the median over traced reps (per
# set-up for SETUP_SPANS, which run in set-up); self times of restarts on
# several pool threads add up across the threads.  Call counts must repeat
# exactly across reps.
SELF_TIMES = (
    "models.squared_distances",
    "models.log_joints",
    "models.responsibilities_exact",
    "truncation.select_nearest",
    "truncation.lazy_reassign",
    "truncation.sigma_pi_scores",
    "truncation.truncated_responsibilities",
    "engine.seed",
    "engine.m_step_iso",
    "engine.m_step_general",
    "engine.step",
    "engine.run",
    "diagnostics.objective_j",
    "diagnostics.free_energy_trunc",
    "diagnostics.log_likelihood",
    "data.load_csv",
    "data.save_csv",
    "data.generate",
    "harness.emit",
    "cli.main",
)
CALL_COUNTS = (
    "models.squared_distances",
    "models.log_joints",
    "engine.step",
    "engine.run",
    "harness.emit",
    "cli.main",
)
SETUP_SPANS = ("data.generate", "data.save_csv")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _environment(env):
    blas = "unknown"
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    return {
        **env,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": blas,
        "machine": platform.machine(),
    }


def _run_call(call):
    """One CLI call, timed; returns (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tvclust.cli.main(list(call.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a raw traceback is a failed call, not a crash
        rc = f"uncaught {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if rc != 0 and err.getvalue():
        rc = f"{rc} ({err.getvalue().strip()[:200]})"
    return elapsed, rc, out.getvalue()


def _clear_outputs(work):
    for path in work.iterdir():
        if path.name.startswith("data.csv"):
            continue
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


def _rep(workload, rep_calls, work, points):
    """Run the calls of one rep, then check what they wrote."""
    _clear_outputs(work)
    timed = [(call, *_run_call(call)) for call in rep_calls]
    rep = {
        "wall_s": sum(t for _, t, _, _ in timed),
        "call_s": {call.label: t for call, t, _, _ in timed},
        "finals": {},
        "problems": {},
        "iterations": 0,
        "useful": 0,
    }
    for call, _, rc, stdout in timed:
        finals, traces, problems = workloads.check_call(workload, call, rc, stdout, points)
        rep["finals"].update(finals)
        rep["problems"].update(problems)
        for records in traces.values():
            rep["iterations"] += len(records) - 1
            rep["useful"] += sum(1 for r in records[1:] if r["n_changed"] > 0)
    return rep


def _layer_values(stats, pool):
    """Flatten one segment's span statistics into per-layer figures."""
    values = {}
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = stats.get(name, {}).get("self_s", 0.0)
    for name in CALL_COUNTS:
        values[f"{name}.calls"] = stats.get(name, {}).get("calls", 0)
    values["pairs"] = sum(stats.get(n, {}).get("work", 0) for n in ("models.squared_distances", "models.log_joints"))
    values["harness.queue_wait_s"] = pool["queue_wait_s"]
    values["harness.pool_busy_frac"] = pool["busy_frac"]
    return values


def _per_layer(workload, setup_segments, rep_segments, reps_traced, untraced_walls, problems):
    """Per-layer metrics: medians of times, exact counts (checked to repeat).

    ``untraced_walls`` are the walls of the untraced reps, the cold first
    one first.  ``trace.overhead_s`` compares the traced reps with as many
    warm untraced reps (they alternate); only when the run holds no warm
    untraced rep does it fall back to the cold one.
    """
    setup_vals = [_layer_values(*seg) for seg in setup_segments]
    rep_vals = [_layer_values(*seg) for seg in rep_segments]
    seen = {name for stats, _ in setup_segments + rep_segments for name in stats}
    problems.extend(f"span {name} not seen by the tracer" for name in workload.spans if name not in seen)
    counts = [k for k in rep_vals[0] if k.endswith(".calls") or k == "pairs"]
    for vals in rep_vals[1:]:
        for key in counts:
            if vals[key] != rep_vals[0][key]:
                problems.append(f"count {key} differs between traced reps")
    for rep in reps_traced[1:]:
        if rep["iterations"] != reps_traced[0]["iterations"] or rep["useful"] != reps_traced[0]["useful"]:
            problems.append("iteration counts differ between traced reps")
    metrics = {}
    for name in SELF_TIMES:
        key = f"{name}.self_s"
        value = statistics.median(v[key] for v in rep_vals)
        if name in SETUP_SPANS:
            value += statistics.median(v[key] for v in setup_vals)
        metrics[key] = _metric(value, "s")
    for name in CALL_COUNTS:
        key = f"{name}.calls"
        metrics[key] = _metric(rep_vals[0][key], "count")
    iterations = reps_traced[0]["iterations"]
    metrics["models.dist_evals_per_iter"] = _metric(
        rep_vals[0]["pairs"] / iterations if iterations else 0.0, "pairs/iter"
    )
    metrics["engine.iterations"] = _metric(iterations, "count")
    metrics["engine.useful_iter_frac"] = _metric(
        reps_traced[0]["useful"] / iterations if iterations else 0.0, "frac"
    )
    for key in ("harness.queue_wait_s", "harness.pool_busy_frac"):
        unit = "s" if key.endswith("_s") else "frac"
        metrics[key] = _metric(statistics.median(v[key] for v in rep_vals), unit)
    pairs = min(len(reps_traced), len(untraced_walls) - 1)
    traced = [r["wall_s"] for r in reps_traced]
    untraced = untraced_walls[1:pairs + 1] if pairs else untraced_walls[:1]
    metrics["trace.wall_s"] = _metric(statistics.median(traced), "s")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(traced[:pairs or None]) - statistics.median(untraced), "s"
    )
    return metrics, pairs


def _tally(workload, seed, reps):
    """Attempted and failed units over all reps, and the problems found."""
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    first = reps[0]["finals"]
    attempted = failed = 0
    problems = []
    for i, rep in enumerate(reps):
        ref_problems = workloads.check_reference(workload, seed, rep["finals"], reference)
        for unit, found in rep["problems"].items():
            found = found + ref_problems.get(unit, [])
            if rep["finals"].get(unit) != first.get(unit):
                found.append("final F differs from the first rep")
            attempted += 1
            if found:
                failed += 1
                problems.extend(f"rep {i} {unit}: {p}" for p in found)
    return attempted, failed, problems


def _setup_round(spec, data_path, tracer, times, segments):
    """Make and save the dataset, repeated for SETUP_ROUND_S; return it."""
    spent, count = 0.0, 0
    while True:
        start = time.perf_counter()
        dataset = tvclust.data.generate(spec)
        tvclust.data.save_csv(dataset, data_path)
        times.append(time.perf_counter() - start)
        spent += times[-1]
        count += 1
        if tracer:
            segments.append(layer_stats(*tracer.take()))
        if spent >= SETUP_ROUND_S or count == MAX_SETUPS_PER_ROUND:
            return dataset


def _run(workload, args, env, work, started):
    tracer = Tracer() if args.trace else None
    spec = workload.generator_spec(args.seed)
    data_path = work / "data.csv"
    setup_times, setup_segments = [], []
    points = np.asarray(_setup_round(spec, data_path, None, setup_times, setup_segments).points)

    rep_calls = workloads.calls(workload, work, args.seed)
    reps, traced_flags, rep_segments = [], [], []
    # A rep of fits runs on one thread; it is pinned to one CPU, taking the
    # CPUs in turn.  On a shared host each core's speed drifts on its own
    # over tens of seconds, and a rep left on one core measures that core's
    # drift.  CPUs change every second rep, so traced and untraced reps
    # (which alternate) see each CPU as often.  An experiment's pool
    # already runs on every CPU.
    cpus = sorted(os.sched_getaffinity(0))
    alternate_cpus = all(call.experiment_dir is None for call in rep_calls)
    while True:
        if alternate_cpus:
            os.sched_setaffinity(0, {cpus[(len(reps) + 1) // 2 % len(cpus)]})
        # The first rep is a warm-up: its outputs are checked, its time is
        # not reported.  With tracing, traced and untraced reps alternate
        # after it, so both see the same machine.
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.install()
        if reps:
            _setup_round(spec, data_path, tracer if traced else None, setup_times, setup_segments)
        reps.append(_rep(workload, rep_calls, work, points))
        traced_flags.append(traced)
        if traced:
            rep_segments.append(layer_stats(*tracer.take()))
            tracer.uninstall()
        # Stop when the next rep would end after --seconds, counted from
        # the start of the process.
        typical = statistics.median(r["wall_s"] for r in reps[1:] or reps)
        if len(reps) >= 2 and time.perf_counter() - started + SETUP_ROUND_S + typical > args.seconds:
            break
    os.sched_setaffinity(0, cpus)
    traced_reps = [r for r, t in zip(reps, traced_flags) if t]
    timed_reps = traced_reps if tracer else reps[1:]

    attempted, failed, problems = _tally(workload, args.seed, reps)
    finals = reps[0]["finals"]
    final_f = sum(finals.values()) / max(1, len(finals))
    overhead_pairs = None
    if tracer:
        untraced_walls = [r["wall_s"] for r, t in zip(reps, traced_flags) if not t]
        metrics, overhead_pairs = _per_layer(
            workload, setup_segments, rep_segments, traced_reps, untraced_walls, problems
        )
    else:
        # End-to-end metrics are present on every workload and never 0:
        # ok_frac stands for failed_frac, and neg_final_F keeps the fit
        # quality positive.  failed_frac, final_F and the per-fit times are
        # in the details line.
        metrics = {
            "wall_s": _metric(statistics.median(r["wall_s"] for r in timed_reps), "s"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": _metric((attempted - failed) / attempted, "frac"),
            "neg_final_F": _metric(-final_f, "nats/point"),
        }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "reps": len(reps),
        "rep_wall_s": [r["wall_s"] for r in reps],
        "rep_traced": traced_flags,
        "overhead_pairs": overhead_pairs,
        "setups": len(setup_times),
        "fit_s": {
            label: _metric(statistics.median(r["call_s"][label] for r in timed_reps), "s")
            for label in reps[0]["call_s"]
        },
        "failed_frac": _metric(failed / attempted, "frac"),
        "final_F": _metric(final_f, "nats/point"),
        "final_F_per_unit": finals,
        "iterations": reps[0]["iterations"],
        "env": _environment(env),
        "problems": problems[:20],
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run(workload, args, env, started):
    """Run one workload in a private work directory under the checkout."""
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload, args, env, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
        sys.stdout.flush()
