#!/usr/bin/env python3
"""Self-test of the benchmark.

For each workload in ``BENCHMARK.json`` it makes two traced runs at the
default seed and checks that:

* both runs are correct (among other checks, a traced run is not correct
  when the tracer missed a span its workload must show, e.g. because a
  wrapper was installed only in a function's defining module);
* every per-layer metric named in ``BENCHMARK.json`` is printed, with its
  unit;
* the exact counters (``*.calls``, ``engine.iterations``,
  ``engine.useful_iter_frac``, ``models.dist_evals_per_iter``) repeat bit
  for bit between the two runs.

It also checks that the benchmark fails, without printing a result, in a
directory holding only ``BENCHMARK.json`` and the benchmark's own files.

Run from the root of a source checkout::

    python3 perfbench/check_counts.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXACT = ("engine.iterations", "engine.useful_iter_frac", "models.dist_evals_per_iter")


def _run(cwd, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    return proc


def _last_json(stdout):
    lines = stdout.strip().split("\n")
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_workload(workload, spec):
    problems = []
    results = []
    for _ in range(2):
        proc = _run(ROOT, workload)
        result = _last_json(proc.stdout)
        if proc.returncode != 0 or result is None:
            return [f"run failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}"]
        if not result["correct"] or result["failed"]:
            problems.append(f"run not correct: {proc.stdout.strip().split(chr(10))[-2][:500]}")
        results.append(result["metrics"])
    first, second = results
    for entry in spec["per_layer"]:
        got = first.get(entry["name"])
        if got is None or got.get("unit") != entry["unit"]:
            problems.append(f"{entry['name']}: missing or wrong unit {got!r}")
    for name in first:
        if name.endswith(".calls") or name in EXACT:
            if first[name]["value"] != second[name]["value"]:
                problems.append(f"{name}: {first[name]['value']!r} then {second[name]['value']!r}")
    return problems


def check_bare_directory():
    """The benchmark must fail cleanly where the program's sources are absent."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "restarts-small")
        if proc.returncode == 0 or _last_json(proc.stdout) is not None:
            return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        found = check_workload(workload, spec)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        failures += [f"{workload}: {p}" for p in found]
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
