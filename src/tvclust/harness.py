"""Multi-restart experiment execution and trace/summary emission.

Restarts run on a bounded worker pool (capped by the ``TVEM_THREADS``
environment variable); each restart derives its RNG seed from the base seed
and its index, so output files are byte-identical regardless of worker
count or completion order.  Output is plot-ready JSON, never images.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import GeneratorSpec, generate, load_csv
from .diagnostics import TraceRecord
from .engine import RunConfig, run
from .errors import ConfigurationError, NumericError, ParseError, check_count


@dataclass(frozen=True)
class ExperimentSpec:
    """A dataset source, one run configuration, and a restart count."""

    config: RunConfig
    restarts: int = 1
    out_dir: str | os.PathLike | None = None
    generator: GeneratorSpec | None = None
    data_path: str | os.PathLike | None = None

    def __post_init__(self):
        if (self.generator is None) == (self.data_path is None):
            raise ConfigurationError(
                "exactly one dataset source (generator or data_path) is required"
            )
        object.__setattr__(self, "restarts", check_count("restarts", self.restarts, 1))

    def to_dict(self):
        return {
            "config": self.config.to_dict(),
            "restarts": self.restarts,
            "out_dir": None if self.out_dir is None else str(self.out_dir),
            "generator": None if self.generator is None else self.generator.to_dict(),
            "data_path": None if self.data_path is None else str(self.data_path),
        }


def restart_seed(base_seed, index):
    """Deterministic per-restart seed derived from (base seed, index)."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1, "uint64")[0])


def _worker_count():
    """The pool size: ``TVEM_THREADS`` if set, else the CPUs this process
    may run on (its affinity mask, where ``os`` can read one)."""
    raw = os.environ.get("TVEM_THREADS", "").strip()
    if not raw:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(f"TVEM_THREADS must be an integer, got {raw!r}") from None
    return check_count("TVEM_THREADS", value, 1)


def emit(obj, path):
    """Write a trace (JSON lines, one record each) or a summary (JSON object)."""
    path = Path(path)
    if isinstance(obj, list):
        text = "\n".join(json.dumps(rec.to_dict()) for rec in obj) + "\n"
    else:
        text = json.dumps(obj, indent=2) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")


def load_trace(path):
    """Parse a JSON-lines trace back into records.  A line that is not a
    trace record raises ``ParseError``."""
    records = []
    for k, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        if line:
            try:
                records.append(TraceRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ParseError(f"{path}: line {k}: not a trace record: {exc!r}") from None
    return records


def _padded_column_means(traces, attr):
    """Per-iteration means across restarts, shorter traces padded with
    their final value (a converged run holds its last state)."""
    length = max(len(t) for t in traces)
    cols = []
    for i in range(length):
        vals = [getattr(t[min(i, len(t) - 1)], attr) for t in traces]
        cols.append(float(np.mean(vals)))
    return cols


def run_experiment(spec):
    """Execute all restarts, write one trace file each, and build the summary.

    The best run is the restart with the highest final free energy.
    Restarts that fail numerically are recorded and excluded from the
    per-iteration means; if every restart fails, the failure propagates.
    """
    if spec.generator is not None:
        dataset = generate(spec.generator)
    else:
        dataset = load_csv(spec.data_path)
    if spec.out_dir is not None:
        Path(spec.out_dir).mkdir(parents=True, exist_ok=True)

    config = spec.config
    successes, failures = [], []
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        futures = [
            pool.submit(run, dataset, replace(config, seed=restart_seed(config.seed, i)))
            for i in range(spec.restarts)
        ]
        for i, future in enumerate(futures):
            try:
                successes.append((i, future.result()))
            except NumericError as exc:
                failures.append({"restart": i, "error": str(exc)})

    if not successes:
        raise NumericError("all restarts failed numerically")

    best_run, best_result = max(successes, key=lambda item: item[1].trace[-1].F)
    traces = [r.trace for _, r in successes]
    summary = {
        "per_iter_mean_F": _padded_column_means(traces, "F"),
        "per_iter_mean_L": _padded_column_means(traces, "L"),
        "best_run": best_run,
        "best_final_F": best_result.trace[-1].F,
        "best_final_L": best_result.trace[-1].L,
        "final_means": np.asarray(best_result.model.means).tolist(),
        "final_F_per_restart": {
            str(i): r.trace[-1].F for i, r in successes
        },
        "termination": {str(i): r.reason for i, r in successes},
        "failures": failures,
        "config_echo": spec.to_dict(),
    }
    if spec.out_dir is not None:
        out_dir = Path(spec.out_dir)
        for i, result in successes:
            emit(result.trace, out_dir / f"trace_{i:03d}.jsonl")
        emit(summary, out_dir / "summary.json")
    return summary
