#!/usr/bin/env python3
"""tvclust benchmark: ``tvclust fit`` / ``tvclust experiment`` wall time.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fit-large --seed 0 --seconds 60 --trace 0

The program is driven the way users drive it, through
``tvclust.cli.main([...])`` in-process, imported from ``src/``.  CSV load
and the trace/model/summary writes are inside the timed section.  The
dataset is made from ``--seed`` (same seed, same inputs); the fits use the
same seed.  Each run repeats the workload's calls ("reps") while the next
rep is expected to end within ``--seconds`` and reports medians over reps.
Before each rep a round of set-up makes and saves the dataset again
(``setup_s`` is the median over all set-ups).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced warm-up rep, then alternates traced and untraced reps, and prints
the per-layer split (see ``tracing.py``).  ``trace.overhead_s`` compares
the traced reps with as many warm untraced ones; a run too short to hold
one of each after the warm-up compares with the cold warm-up rep instead,
so there the figure is not resolved.  The last line of standard output is
one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries details (per-fit times, environment, problems found).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (numpy-free)

DEFAULT_SEED = 0


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _pin_threads():
    """Fix the thread counts before numpy loads; return the record of them.

    The whole load comes from this one process.  BLAS runs one thread on
    every workload: on a few shared cores a second BLAS thread mostly
    measures how long it waits for the scheduler.  On the restart workload
    the harness pool supplies the parallelism, one worker per core.
    """
    nproc = len(os.sched_getaffinity(0))
    blas = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    os.environ["TVEM_THREADS"] = str(nproc)
    return {"nproc": nproc, "TVEM_THREADS": nproc, "blas_threads": blas}


def _import_program():
    """Import tvclust from this checkout's ``src/``, or exit 2."""
    src = ROOT / "src"
    if not (src / "tvclust" / "cli.py").is_file():
        print(f"error: no tvclust sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import tvclust.cli

    if Path(tvclust.cli.__file__).resolve().parent != (src / "tvclust").resolve():
        print("error: tvclust was not imported from this checkout", file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    started = time.perf_counter()
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    env = _pin_threads()
    _import_program()
    import bench  # imports numpy, after the thread pinning

    return bench.run(workload, args, env, started)


if __name__ == "__main__":
    sys.exit(main())
