#!/usr/bin/env python3
"""Grid-cluster benchmark: multi-restart k-means on a 5x5 grid of Gaussians.

Generates the 25-cluster grid dataset (100 points per cluster), runs seeded
k-means restarts with distance-squared seeding, writes one trace per restart
plus a summary, and reports how well the best run (highest final free
energy) recovers the generating centers and how tight its likelihood bound
is, read from the best restart's trace and the summary.  Output is
plot-ready JSON; feed the traces to any plotting tool.
"""

import argparse
from pathlib import Path

import numpy as np

from tvclust import ExperimentSpec, GeneratorSpec, RunConfig, run_experiment
from tvclust.harness import load_trace


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/grid", help="output directory")
    ap.add_argument("--restarts", type=int, default=20)
    ap.add_argument("--spacing", type=float, default=8.0)
    ap.add_argument("--gen-sigma", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=77)
    args = ap.parse_args()

    gen = GeneratorSpec(
        kind="grid",
        c_true=25,
        per_cluster_n=100,
        gen_sigma=args.gen_sigma,
        spacing=args.spacing,
        seed=20,
    )
    config = RunConfig(algorithm="kmeans", c=25, seeding="dsquared", seed=args.seed)
    spec = ExperimentSpec(
        config=config, restarts=args.restarts, out_dir=args.out, generator=gen
    )
    summary = run_experiment(spec)

    best = summary["best_run"]
    final = load_trace(Path(args.out) / f"trace_{best:03d}.jsonl")[-1]
    side = 5
    true_centers = np.array(
        [[args.spacing * i, args.spacing * j] for i in range(side) for j in range(side)]
    )
    est = np.array(summary["final_means"])
    nearest_err = np.sqrt(
        ((est[:, None, :] - true_centers[None, :, :]) ** 2).sum(-1)
    ).min(axis=1)
    print(f"best run: #{best} ({summary['termination'][str(best)]}, {final.iteration} iters)")
    print(f"final F={final.F:.6f}  L={final.L:.6f}  gap={final.gap:.3e}  "
          f"sigma2={final.sigma2:.4f}")
    print(f"center error: max={nearest_err.max():.4f}  mean={nearest_err.mean():.4f}  "
          f"(spacing {args.spacing})")
    print(f"traces and summary written to {args.out}")


if __name__ == "__main__":
    main()
