#!/usr/bin/env python3
"""Time the phases of one fitting iteration, in best-of-k microseconds.

The phases are those of one iteration of ``engine.run``:

* ``matrices``: ``engine._matrices``, the squared distances (isotropic
  family) and the log-joints at the model;
* ``E-step``: ``engine._e_step``, the selection rule's posteriors read off
  those matrices;
* ``M-step``: ``engine.tvem_step`` given those posteriors, the M-step of
  the model's family;
* ``L``: ``diagnostics.log_likelihood``, the full (N, C) log-sum-exp;
* ``F``: ``diagnostics.free_energy_trunc``, the record's free energy over
  each point's truncation set.

The data are ``N / C`` points around each of C cluster centres drawn
uniformly in the box ``[lo, hi]^D`` (``data.generate``, kind ``uniform``,
unit spread), so N must be a multiple of C.  The model is the seeded one
(``dsquared``) after one full iteration.  Each phase is called in loops
of at least 0.05 s.  The loops run in ``--repeat`` rounds that time every
phase once, so a slow spell of the machine (as in the first second of a
process) slows one round of all phases, not all loops of one; the best
loop is reported per call.  BLAS runs one thread unless
``OPENBLAS_NUM_THREADS`` (or the OpenMP or MKL variable) says otherwise.

Usage, with the problems of the two benchmark workloads::

    PYTHONPATH=src python scripts/phase_timings.py --n 2500 --d 2 --c 25 \\
        --c-prime 2 --algorithm kmeans_cprime --box 0 32
    PYTHONPATH=src python scripts/phase_timings.py --n 5000 --d 16 --c 100 \\
        --c-prime 3 --algorithm kmeans_cprime --box 1e5 100016
"""

import argparse
import os
import timeit

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from tvclust import GeneratorSpec, RunConfig, generate  # noqa: E402
from tvclust.data import make_rng  # noqa: E402
from tvclust.diagnostics import free_energy_trunc, log_likelihood  # noqa: E402
from tvclust.engine import _PAIRS, ALGORITHMS, _e_step, _initial_state, _matrices, tvem_step  # noqa: E402

PHASES = ("matrices", "E-step", "M-step", "L", "F")


def phase_times(dataset, config, repeat):
    """``{phase: µs}`` for one iteration of ``config`` on ``dataset``."""
    rule = _PAIRS[config.algorithm][0]
    cp, eps = config.c_prime, config.epsilon
    model, d2, lj, resp = _initial_state(dataset, config, make_rng(config.seed))
    model = tvem_step(dataset, model, cp, resp)[1]
    d2, lj = _matrices(dataset, model)
    resp = _e_step(rule, d2, lj, cp, eps, resp)
    calls = {
        "matrices": lambda: _matrices(dataset, model),
        "E-step": lambda: _e_step(rule, d2, lj, cp, eps, resp),
        "M-step": lambda: tvem_step(dataset, model, cp, resp),
        "L": lambda: log_likelihood(lj),
        "F": lambda: free_energy_trunc(lj, resp),
    }
    timers = {name: timeit.Timer(calls[name]) for name in PHASES}
    # loops of about 0.05 s; sizing them warms every phase up
    number = {name: max(1, timers[name].autorange()[0] // 4) for name in PHASES}
    best = dict.fromkeys(PHASES, float("inf"))
    for _ in range(repeat):  # each round times every phase once
        for name in PHASES:
            best[name] = min(best[name], timers[name].timeit(number[name]) / number[name])
    return {name: best[name] * 1e6 for name in PHASES}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=2500, help="points (a multiple of --c)")
    ap.add_argument("--d", type=int, default=2, help="dimensions")
    ap.add_argument("--c", type=int, default=25, help="clusters, of the data and the fit")
    ap.add_argument("--c-prime", type=int, default=2, help="set width of kmeans_cprime")
    ap.add_argument("--epsilon", type=float, default=0.05, help="lazy_kmeans' epsilon")
    ap.add_argument("--algorithm", nargs="+", choices=ALGORITHMS, default=list(ALGORITHMS))
    ap.add_argument("--box", type=float, nargs=2, default=(0.0, 32.0), metavar=("LO", "HI"))
    ap.add_argument("--seed", type=int, default=0, help="seed of the data and the fit")
    ap.add_argument("--repeat", type=int, default=5, help="loops per phase (best is kept)")
    args = ap.parse_args()
    if args.n % args.c:
        ap.error("--n must be a multiple of --c")

    # Freeing one 16 MiB block raises glibc's dynamic mmap threshold above
    # the timed temporaries, so they come from the heap as in a long run,
    # not from freshly mapped pages (which made the first fit's matrices
    # twice as slow as a later identical fit's).
    np.empty(1 << 21)
    dataset = generate(GeneratorSpec(
        kind="uniform", c_true=args.c, per_cluster_n=args.n // args.c,
        domain_box=(tuple(args.box),) * args.d, seed=args.seed,
    ))
    print(f"{dataset.n}x{dataset.d}, C = {args.c}, box {tuple(args.box)}, seed {args.seed}, "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}; best of {args.repeat}, µs")
    print("| algorithm | " + " | ".join(PHASES) + " | total |")
    print("|---" * (len(PHASES) + 2) + "|")
    for algorithm in args.algorithm:
        takes = _PAIRS[algorithm][2]  # "c_prime", "epsilon" or None
        extra = {takes: getattr(args, takes)} if takes else {}
        config = RunConfig(algorithm=algorithm, c=args.c, seed=args.seed, **extra)
        times = phase_times(dataset, config, args.repeat)
        label = f"{algorithm} C'={args.c_prime}" if takes == "c_prime" else algorithm
        cells = [f"{times[name]:.0f}" for name in PHASES] + [f"{sum(times.values()):.0f}"]
        print(f"| {label} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
