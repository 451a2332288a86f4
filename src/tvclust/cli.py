"""Command-line interface: generate, fit, experiment, audit.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numeric
failure in all restarts.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .data import GeneratorSpec, generate, load_csv, save_csv
from .diagnostics import appendix_forms, free_energy_trunc, log_likelihood, objective_j
from .engine import ALGORITHMS, SEEDINGS, RunConfig, run
from .errors import ConfigurationError, NumericError, ParseError
from .harness import ExperimentSpec, emit, run_experiment
from .models import (
    IsotropicGMM,
    load_model,
    log_joints,
    model_to_snapshot,
    save_model,
    squared_distances,
)
from .truncation import select_nearest, sigma_pi_scores

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _parse_box(text):
    """Parse "lo:hi,lo:hi,..." into a per-axis bounding box."""
    axes = []
    for part in text.split(","):
        try:
            lo, hi = part.split(":")
            axes.append((float(lo), float(hi)))
        except ValueError:
            raise ConfigurationError(
                f"bad --gen-box axis {part!r}; expected lo:hi"
            ) from None
    return tuple(axes)


def _add_generator_args(parser):
    parser.add_argument("--gen-kind", choices=("grid", "uniform"), default=None)
    parser.add_argument("--gen-c-true", type=int, default=25)
    parser.add_argument("--gen-per-cluster-n", type=int, default=100)
    parser.add_argument("--gen-sigma", type=float, default=1.0)
    parser.add_argument("--gen-spacing", type=float, default=None)
    parser.add_argument("--gen-box", type=str, default=None,
                        help="uniform kind bounding box, e.g. 0:16,0:16")
    parser.add_argument("--gen-seed", type=int, default=0)


def _generator_spec(args):
    return GeneratorSpec(
        kind=args.gen_kind,
        c_true=args.gen_c_true,
        per_cluster_n=args.gen_per_cluster_n,
        gen_sigma=args.gen_sigma,
        spacing=args.gen_spacing,
        domain_box=None if args.gen_box is None else _parse_box(args.gen_box),
        seed=args.gen_seed,
    )


def _add_run_args(parser):
    parser.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    parser.add_argument("--c", type=int, required=True)
    parser.add_argument("--c-prime", type=int, default=None)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--seeding", choices=SEEDINGS, default="dsquared")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iters", type=int, default=200)
    parser.add_argument("--tol", type=float, default=1e-9)


def _run_config(args):
    return RunConfig(
        algorithm=args.algorithm,
        c=args.c,
        c_prime=args.c_prime,
        epsilon=args.epsilon,
        seeding=args.seeding,
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
    )


def _cmd_generate(args):
    if args.gen_kind is None:
        raise ConfigurationError("generate requires --gen-kind")
    dataset = generate(_generator_spec(args))
    save_csv(dataset, args.out)
    print(f"wrote {dataset.n} points of dimension {dataset.d} to {args.out}")
    return EXIT_OK


def _cmd_fit(args):
    dataset = load_csv(args.data)
    result = run(dataset, _run_config(args))
    if args.out is not None:
        emit(result.trace, args.out)
    if args.model_out is not None:
        save_model(result.model, args.model_out)
    final = result.trace[-1]
    print(
        json.dumps(
            {
                "reason": result.reason,
                "iterations": final.iteration,
                "J": final.J,
                "F": final.F,
                "L": final.L,
                "gap": final.gap,
                "sigma2": final.sigma2,
            }
        )
    )
    return EXIT_OK


def _cmd_experiment(args):
    has_gen = args.gen_kind is not None
    has_data = args.data is not None
    if has_gen == has_data:
        raise ConfigurationError(
            "experiment requires exactly one of --data or --gen-kind"
        )
    spec = ExperimentSpec(
        config=_run_config(args),
        restarts=args.restarts,
        out_dir=args.out,
        generator=_generator_spec(args) if has_gen else None,
        data_path=args.data if has_data else None,
    )
    summary = run_experiment(spec)
    print(
        json.dumps(
            {
                "best_run": summary["best_run"],
                "best_final_F": summary["best_final_F"],
                "best_final_L": summary["best_final_L"],
                "failures": len(summary["failures"]),
                "out_dir": str(args.out),
            }
        )
    )
    return EXIT_OK


def _cmd_audit(args):
    dataset = load_csv(args.data)
    model = load_model(args.model)
    if model.d != dataset.d:
        raise ConfigurationError(
            f"model dimension {model.d} does not match data dimension {dataset.d}"
        )
    points = dataset.points
    if isinstance(model, IsotropicGMM):
        d2 = squared_distances(points, model.means)
        labels = select_nearest(d2, 1)[:, 0]
        f_j, l_j, gap_j = appendix_forms(points, labels, model.means, model.c)
        report = {
            "kind": "iso",
            "J": objective_j(points, labels, model.means),
            "F": f_j,
            "L": l_j,
            "gap": gap_j,
            "L_at_model_sigma2": log_likelihood(log_joints(points, model, d2)),
        }
    else:
        lj = log_joints(points, model)
        labels = np.argmin(sigma_pi_scores(lj), axis=1)
        f = free_energy_trunc(lj, labels[:, None])
        ll = log_likelihood(lj)
        report = {
            "kind": "general",
            "J": objective_j(points, labels, model.means),
            "F": f,
            "L": ll,
            "gap": ll - f,
        }
    report["model"] = model_to_snapshot(model)
    text = json.dumps(report, indent=2)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tvclust",
        description="Clustering with hard and truncated posterior mixtures, "
        "with exact free-energy and likelihood diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset CSV")
    _add_generator_args(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_fit = sub.add_parser("fit", help="fit one run and emit its trace")
    p_fit.add_argument("--data", required=True)
    _add_run_args(p_fit)
    p_fit.add_argument("--out", default=None, help="trace output (JSON lines)")
    p_fit.add_argument("--model-out", default=None, help="final model snapshot JSON")
    p_fit.set_defaults(func=_cmd_fit)

    p_exp = sub.add_parser("experiment", help="multi-restart experiment")
    p_exp.add_argument("--data", default=None)
    _add_generator_args(p_exp)
    _add_run_args(p_exp)
    p_exp.add_argument("--restarts", type=int, default=1)
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.set_defaults(func=_cmd_experiment)

    p_audit = sub.add_parser("audit", help="diagnostics for an external result")
    p_audit.add_argument("--data", required=True)
    p_audit.add_argument("--model", required=True, help="model snapshot JSON")
    p_audit.add_argument("--out", default=None)
    p_audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
