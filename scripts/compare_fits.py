#!/usr/bin/env python3
"""Run a fixed matrix of fits, or compare two runs of it.

Run mode prints one JSON line per fit: six small datasets (a 3x3 grid,
a 3-D uniform box, a 2-D uniform box at offset 1e5, a duplicate-heavy set,
a 2000x4 uniform box and a set drawn from an explicit general mixture) x
six algorithm settings (kmeans, C' = 2, C' = C, lazy, em_gmm, sigma_pi) x
both seedings x three seeds, C = 6, at most 30 iterations.  Each line
holds the trace, the stop reason or the numeric-failure message, hashes
of the final model and posteriors, a hash of the dataset's points and
labels, the invariants its trace breaks (``trace_violations``, as
``[iter, invariant, flagged]`` without the margins), and, for a fit that
succeeds, the ``tvclust audit`` of its final model: its exit code, its
stderr, and its stdout and ``--out`` report, each parsed as JSON (run
in-process on temporary files):

    PYTHONPATH=src python scripts/compare_fits.py > before.jsonl

Compare mode reads two such outputs and prints a summary line: how many
fits are byte-identical (trace and all hashes), the fits whose exact
fields differ (record count, ``iter``, ``n_changed``, ``events``, stop
reason, failure, dataset hash, broken invariants, and the audit's exit
code, stderr, report keys and any other value that is not a float), and
the largest relative change of ``J``, ``F``, ``L``, ``gap``, ``sigma2``
and every float of the audit (absolute below magnitude 1), overall and
for each dataset/setting group that has a fit which is not
byte-identical, beside the number of such fits.  So a model that moves
in its last bits moves its audit's numbers, not an exact field.  One
more line follows per fit whose exact fields differ, so a fit whose
trace starts or stops breaking an invariant is named.  The exit status is 1 if
any exact field differs, a fit is missing, or a float moves by more than
``--rtol``:

    PYTHONPATH=src python scripts/compare_fits.py --compare before.jsonl after.jsonl

Output piped into a reader that closes early (``| head``) ends quietly.
"""

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from tvclust import (Dataset, GeneralGMM, GeneratorSpec, NumericError, RunConfig, generate,
                     run, save_csv, save_model, trace_violations)
from tvclust.cli import main as cli_main
from tvclust.models import model_to_snapshot

C = 6
MAX_ITERS = 30
SEEDS = (0, 1, 2)
SEEDINGS = ("uniform", "dsquared")
EXACT = ("iter", "n_changed", "events")
EXACT_LINE = ("reason", "failure", "data", "violations")
FLOATS = ("J", "F", "L", "gap", "sigma2")
SETTINGS = {
    "kmeans": ("kmeans", {}),
    "cprime2": ("kmeans_cprime", {"c_prime": 2}),
    "cprimeC": ("kmeans_cprime", {"c_prime": C}),
    "lazy": ("lazy_kmeans", {"epsilon": 0.1}),
    "em_gmm": ("em_gmm", {}),
    "sigma_pi": ("sigma_pi", {}),
}


def _uniform(c_true, per_cluster_n, box, seed):
    return generate(GeneratorSpec(kind="uniform", c_true=c_true, per_cluster_n=per_cluster_n,
                                  domain_box=box, seed=seed))


def _duplicates():
    """The duplicate-heavy set of ``tests/test_golden.py``: six tight groups
    of four jittered points, each group's first point repeated four more
    times exactly."""
    rng = np.random.default_rng(0)
    centres = rng.uniform(0.0, 10.0, size=(6, 2))
    jitter = centres[np.repeat(np.arange(6), 4)] + 0.01 * rng.normal(size=(24, 2))
    return Dataset(np.vstack([jitter, np.repeat(jitter[::4], 4, axis=0)]))


def _general():
    """Three correlated 2-D components, drawn through the general-model
    path of ``generate``."""
    model = GeneralGMM(np.full(3, 1.0 / 3.0), np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]]),
                       np.array([[[1.0, 0.6], [0.6, 1.0]], [[2.0, 0.0], [0.0, 0.5]],
                                 [[0.5, -0.2], [-0.2, 1.0]]]))
    return generate(GeneratorSpec(kind="explicit-gmm", c_true=3, per_cluster_n=40,
                                  model=model, seed=7))


def datasets():
    return {
        "grid": generate(GeneratorSpec(kind="grid", c_true=9, per_cluster_n=20, seed=3)),
        "uniform3d": _uniform(6, 30, ((0.0, 10.0),) * 3, 4),
        "offset1e5": _uniform(6, 30, ((1e5, 1e5 + 10.0),) * 2, 5),
        "duplicates": _duplicates(),
        "uniform2000x4": _uniform(8, 250, ((0.0, 10.0),) * 4, 6),
        "general": _general(),
    }


def _sha(*arrays_or_json):
    digest = hashlib.sha256()
    for item in arrays_or_json:
        if isinstance(item, np.ndarray):
            digest.update(np.ascontiguousarray(item).tobytes())
        else:
            digest.update(json.dumps(item).encode())
    return digest.hexdigest()


def _audit(data, model):
    """``tvclust audit`` on ``data`` and ``model``: its exit code, stderr,
    and stdout and ``--out`` report parsed as JSON (None if empty or not
    written)."""
    with tempfile.TemporaryDirectory() as tmp:
        data_path, model_path, out_path = (Path(tmp) / f for f in ("d.csv", "m.json", "a.json"))
        save_csv(data, data_path)
        save_model(model, model_path)
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            code = cli_main(["audit", "--data", str(data_path), "--model", str(model_path),
                             "--out", str(out_path)])
        report = json.loads(out_path.read_text()) if out_path.exists() else None
    stdout = json.loads(out.getvalue()) if out.getvalue() else None
    return {"code": code, "stderr": err.getvalue(), "stdout": stdout, "report": report}


def fit_line(name, data, setting, seeding, seed):
    algorithm, extra = SETTINGS[setting]
    config = RunConfig(algorithm=algorithm, c=C, seeding=seeding, seed=seed,
                       max_iters=MAX_ITERS, **extra)
    line = {"fit": f"{name}/{setting}/{seeding}/{seed}", "n": data.n,
            "reason": None, "failure": None, "model": None, "resp": None,
            "data": _sha(data.points, data.labels), "audit": None}
    try:
        result = run(data, config)
    except NumericError as exc:
        line["failure"] = str(exc)
        trace = exc.trace
    else:
        line["reason"] = result.reason
        line["model"] = _sha(model_to_snapshot(result.model))
        line["resp"] = _sha(result.responsibilities.support, result.responsibilities.weights)
        line["audit"] = _audit(data, result.model)
        trace = result.trace
    line["trace"] = [record.to_dict() for record in trace]
    line["violations"] = [[v.iteration, v.invariant, v.flagged]
                          for v in trace_violations(trace, data)]
    return line


def run_matrix():
    for name, data in datasets().items():
        for setting in SETTINGS:
            for seeding in SEEDINGS:
                for seed in SEEDS:
                    print(json.dumps(fit_line(name, data, setting, seeding, seed)))


def _load(path):
    with open(path) as fh:
        return {line["fit"]: line for line in map(json.loads, fh)}


def _rel(a, b):
    if a == b or (a != a and b != b):  # equal, or both NaN
        return 0.0
    return abs(a - b) / max(1.0, abs(a))


def _float_drift(a, b):
    """The largest ``_rel`` between the floats of two parsed JSON values,
    or None if anything else differs: a key, a length, a type or a value
    that is not a float."""
    if isinstance(a, float) and isinstance(b, float):
        return _rel(a, b)
    if type(a) is not type(b):
        return None
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return None
        a, b = list(a.values()), [b[k] for k in a]
    if not isinstance(a, list):
        return 0.0 if a == b else None
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(a, b):
        drift = _float_drift(x, y)
        if drift is None:
            return None
        worst = max(worst, drift)
    return worst


def compare(path_a, path_b, rtol):
    a, b = _load(path_a), _load(path_b)
    missing = sorted(set(a) ^ set(b))
    differ, changed = [], {}
    worst, worst_fit, identical = 0.0, None, 0
    for fit in sorted(set(a) & set(b)):
        la, lb = a[fit], b[fit]
        fields = [k for k in EXACT_LINE if la.get(k) != lb.get(k)]
        if len(la["trace"]) != len(lb["trace"]):
            fields.append("records")
        fit_worst = _float_drift(la["audit"], lb["audit"])
        if fit_worst is None:
            fields.append("audit")
            fit_worst = 0.0
        for ra, rb in zip(la["trace"], lb["trace"]):
            fields += [f"{ra['iter']}:{k}" for k in EXACT if ra[k] != rb[k]]
            fit_worst = max(fit_worst, *(_rel(ra[k], rb[k]) for k in FLOATS))
        if fit_worst > worst:
            worst, worst_fit = fit_worst, fit
        if fields:
            differ.append({"fit": fit, "fields": fields})
        if la == lb:
            identical += 1
        else:
            group = changed.setdefault("/".join(fit.split("/")[:2]),
                                       {"fits": 0, "max_rel_change": 0.0})
            group["fits"] += 1
            group["max_rel_change"] = max(group["max_rel_change"], fit_worst)
    print(json.dumps({
        "fits": len(set(a) & set(b)),
        "missing": missing,
        "byte_identical": identical,
        "exact_differ": len(differ),
        "max_rel_change": worst,
        "max_rel_fit": worst_fit,
        "changed": dict(sorted(changed.items())),
    }))
    for line in differ:
        print(json.dumps(line))
    return 1 if missing or differ or worst > rtol else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    ap.add_argument("--rtol", type=float, default=1e-10)
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare, args.rtol)
    run_matrix()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # The reader closed early: point stdout at devnull so that the
        # flush at exit does not fail again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
