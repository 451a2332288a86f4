"""Command-line interface: generate, fit, experiment, audit.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numeric
failure in all restarts, or an ``audit`` bound that is not finite.

A run or generator flag that is not given leaves the field to the default
of ``RunConfig`` or ``GeneratorSpec``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

import numpy as np

from .data import GeneratorSpec, generate, load_csv, save_csv
from .diagnostics import appendix_forms, free_energy_trunc, log_likelihood, objective_j
from .engine import ALGORITHMS, SEEDINGS, RunConfig, _matrices, _nearest, run
from .errors import ConfigurationError, NumericError, ParseError
from .harness import ExperimentSpec, emit, run_experiment
from .models import IsotropicGMM, load_model, model_to_snapshot, save_model

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
    parser.add_argument("--gen-kind", choices=("grid", "uniform"))
    parser.add_argument("--gen-c-true", type=int)
    parser.add_argument("--gen-per-cluster-n", type=int)
    parser.add_argument("--gen-sigma", type=float)
    parser.add_argument("--gen-spacing", type=float)
    parser.add_argument("--gen-box", type=str,
                        help="uniform kind bounding box, e.g. 0:16,0:16")
    parser.add_argument("--gen-seed", type=int)


def _given(**values):
    """The keyword arguments whose flag was given (is not ``None``)."""
    return {name: value for name, value in values.items() if value is not None}


# Each generator flag, as its ``args`` attribute, and the ``GeneratorSpec``
# field it sets.
_GEN_FLAGS = {"gen_kind": "kind", "gen_c_true": "c_true", "gen_per_cluster_n": "per_cluster_n",
              "gen_sigma": "gen_sigma", "gen_spacing": "spacing", "gen_box": "domain_box",
              "gen_seed": "seed"}


def _generator_spec(args):
    """The spec of the generator flags given; every other field keeps its
    ``GeneratorSpec`` default."""
    values = _given(**{name: getattr(args, flag) for flag, name in _GEN_FLAGS.items()})
    if "domain_box" in values:
        values["domain_box"] = _parse_box(values["domain_box"])
    return GeneratorSpec(**values)


def _add_run_args(parser):
    parser.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    parser.add_argument("--c", type=int, required=True)
    parser.add_argument("--c-prime", type=int)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--seeding", choices=SEEDINGS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--max-iters", type=int)
    parser.add_argument("--tol", type=float)


def _run_config(args):
    """A ``RunConfig`` field reads the flag of its name; a field with no
    flag, or a flag not given, keeps its default."""
    return RunConfig(**_given(**{f.name: getattr(args, f.name, None) for f in fields(RunConfig)}))


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
    if (args.gen_kind is None) == (args.data is None):
        raise ConfigurationError(
            "experiment requires exactly one of --data or --gen-kind"
        )
    given = [flag for flag in _GEN_FLAGS if getattr(args, flag) is not None]
    if args.data is not None and given:
        flags = ", ".join("--" + flag.replace("_", "-") for flag in given)
        raise ConfigurationError(f"experiment with --data does not take {flags}")
    spec = ExperimentSpec(
        config=_run_config(args),
        restarts=args.restarts,
        out_dir=args.out,
        generator=None if args.gen_kind is None else _generator_spec(args),
        data_path=args.data,
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
    iso = isinstance(model, IsotropicGMM)
    with np.errstate(over="ignore"):
        d2, lj = _matrices(dataset, model)
    labels = _nearest(d2, lj)
    ll = log_likelihood(lj)
    report = {"kind": "iso" if iso else "general", "J": objective_j(dataset, labels, model.means)}
    if iso:
        f, l_j, gap = appendix_forms(dataset, d2, report["J"])
        report.update(F=f, L=l_j, gap=gap, L_at_model_sigma2=ll)
    else:
        f = free_energy_trunc(lj, labels)
        report.update(F=f, L=ll, gap=ll - f)
    bad = [name for name, value in report.items() if name != "kind" and not math.isfinite(value)]
    if bad:
        raise NumericError(f"audit values are not finite: {', '.join(bad)}")
    report["model"] = model_to_snapshot(model)
    if args.out is not None:
        emit(report, args.out)
    print(json.dumps(report, indent=2))
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
